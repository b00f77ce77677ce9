"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

It checks that the same seed repeats every deterministic count, that tracing
changes no count, that another seed changes the inputs, that the hooks
reach every binding, that caches start cold, and that the metrics printed
are exactly the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

from tracing import HOOKS, ColdCaches, Tracer, bftledger_modules, layer_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COLD = ColdCaches(bftledger_modules())  # taken before any job runs in this process

TINY = {"transfers": 40, "swap_fuzz": 6, "auction": 1, "modelcheck": 1}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(workload: str, seed: int = 1) -> run.Bench:
    return run.Bench(workload, seed, size=TINY[workload], cold=COLD)


def nondeterminism(bench: run.Bench) -> list[str]:
    return [p for p in bench.problems if p.startswith("same seed")]


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_same_seed_same_counts_traced_or_not():
    for name in WORKLOADS:
        bench = tiny(name)
        bench.job()
        bench.job()
        bench.job(Tracer())
        assert not nondeterminism(bench), (name, bench.problems)
        counts = bench.reference
        assert counts["attempted"] > 0
        if name == "modelcheck":
            assert counts["modelcheck.states"] > 0
        else:
            assert counts["sim.deliveries"] > 0 and counts["latencies"], name


def test_other_seed_other_inputs():
    for name in ("transfers", "swap_fuzz", "auction"):
        assert tiny(name, 1).inputs != tiny(name, 2).inputs, name
    one, two = tiny("transfers", 1), tiny("transfers", 2)
    one.job()
    two.job()
    assert one.reference["outputs"] != two.reference["outputs"]


def test_gates_pass_at_tiny_sizes():
    for name in ("transfers", "swap_fuzz", "auction"):
        bench = tiny(name)
        bench.job()
        assert not bench.problems, (name, bench.problems)


def test_hooks_reach_every_binding_and_come_off():
    bench = tiny("transfers")
    sim = sys.modules["bftledger.sim"]
    digest = bench.hooks.original("bftledger.committee", "value_digest")
    assert sim.value_digest is digest
    functions = [fn for key, fn in bench.hooks.originals.items() if "." not in key.split(":")[1]]
    bench.hooks.install(Tracer())
    try:
        stale = [f"{module.__name__}.{name}" for module in bench.hooks.modules
                 for name, value in vars(module).items() if any(value is fn for fn in functions)]
        assert stale == []
        assert sim.value_digest is not digest
    finally:
        bench.hooks.uninstall()
    assert sim.value_digest is digest
    assert not bench.hooks.missing
    assert len(bench.hooks.originals) == len(HOOKS)


def test_every_job_starts_cold():
    bench = tiny("auction")
    bench.job()
    digest = bench.hooks.original("bftledger.committee", "value_digest")
    tpke = sys.modules["bftledger.tpke"]
    assert digest.cache_info().currsize > 0 and tpke._BABY_TABLE
    warm = bench.cold.reset()
    assert {"bftledger.committee.value_digest", "bftledger.tpke._in_group",
            "bftledger.tpke._BABY_TABLE"} <= set(warm)
    assert digest.cache_info().currsize == 0 and not tpke._BABY_TABLE
    assert tpke._in_group.cache_info().currsize == 0


def test_printed_metrics_are_the_declared_ones():
    bench = tiny("transfers")
    plain = run.plain_run(bench, 0, setup_s=1.0)
    assert set(plain) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in plain.values())
    traced, skipped = run.traced_run(bench, 0)
    assert not skipped
    assert set(traced) == {m["name"] for m in SPEC["per_layer"]}


def test_attribution():
    per_module = {}
    for name in ("transfers", "auction"):
        bench = tiny(name)
        tracer = Tracer()
        _outcome, wall, _raw = bench.job(tracer)
        times = layer_times(tracer)
        assert sum(times.self_s.values()) <= wall
        per_module[name] = {
            module: sum(v for k, v in times.self_s.items() if k.startswith(module + "."))
            for module in run.MODULES
        }
    assert per_module["transfers"]["tpke"] == 0
    auction = per_module["auction"]
    assert max(auction, key=auction.get) == "tpke"
