#!/usr/bin/env python3
"""The bftledger benchmark.

    python3 perfbench/run.py --workload transfers --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout. The metrics, with their units, and the
workloads are declared in ``BENCHMARK.json`` there; this script prints
exactly those metrics, so the two cannot drift apart.

With ``--trace 0`` the script repeats the workload's seeded job until
``--seconds`` have passed. Every job starts with the module-level caches a
fresh process has. It prints the end-to-end metrics: medians over the jobs,
plus ``setup_s``, the median over several fresh processes of the time from
process start through imports and input generation. Times are scaled to a
nominal host speed, measured by a small unit of reference work timed every
quarter second during each job (see ``REFERENCES``); raw times are printed too.

With ``--trace 1`` it alternates plain and traced jobs. A traced job wraps
the public entry points of each bftledger module (see ``tracing.py``). It
prints the per-layer metrics and a table of self time per module. It also
times encode/decode per message class on payloads captured from the run,
``keys.verify`` for both signature schemes, and ``check_certificate``.

Each job's outputs are checked (see ``workloads.py``). The same seed must
give identical counts in every job, traced or not. A failed check prints
``"correct": false`` and exits with code 1. Without ``src/bftledger`` next
to this directory the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
# On a shared host the speed of this process drifts by up to 2x within tens of
# seconds, which otherwise dominates the run-to-run spread. So while a job runs,
# a timer signal interrupts it every SAMPLE_PERIOD_S to time one small unit of
# reference work; the job's wall time, less the time spent in those samples, is
# scaled by the host speed they show: the unit's nominal time over its median
# measured time. The reference is of the kind of work that dominates the
# workload, and it is the benchmark's own code, so no change to bftledger can
# alter it.
MODULUS = (1 << 2048) - 159  # an odd 2048-bit modulus


def _interpreter_unit() -> None:
    total = 0
    for i in range(50_000):
        total += i * i


def _modexp_unit() -> None:
    pow(3, (1 << 256) - 189, MODULUS)


# kind -> (unit of work, its median time in s on a 2-vCPU x86-64 VM at 2.1 GHz)
REFERENCES = {"interpreter": (_interpreter_unit, 0.0042), "modexp": (_modexp_unit, 0.0037)}
SAMPLE_PERIOD_S = 0.25
MIN_SAMPLES = 5
# The ladder for commit_tail_sim_ms: the highest of these with ten samples beyond it.
TAIL_PERCENTILES = (50, 90, 99, 99.9, 99.99)
# Authority.handle payload classes reported one by one; the rest add up in "other".
HANDLE_KINDS = (
    "HandleRequestMsg", "ConfirmMsg", "CreditEffect", "QueryInstanceMsg", "ProposalMsg",
    "PreCommitMsg", "CommitMsg", "UnlockEffect", "InitInstanceEffect", "SetOwnerEffect",
    "InitAuctionEffect", "SubmitBidMsg", "EndOfBiddingMsg", "SharesQueryMsg",
    "EndOfAuctionMsg", "SettleAuctionMsg", "EscrowDebitEffect",
)
MODULES = (
    "scenario", "sim", "authority", "audit", "committee", "keys", "serialize", "tpke", "swap",
    "modelcheck",
)
TPKE_OPS = ("setup", "encrypt", "share_decrypt", "share_verify", "combine")


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import bftledger from it."""
    if not (SRC / "bftledger" / "__init__.py").is_file():
        print(f"error: {SRC / 'bftledger'} not found; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bftledger

    if Path(bftledger.__file__).resolve().parent != SRC / "bftledger":
        print(f"error: imported bftledger from {bftledger.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _rank(n: int, pct: float) -> int:
    return max(1, math.ceil(n * pct / 100))


def nearest_rank(sorted_values: list, pct: float):
    return sorted_values[_rank(len(sorted_values), pct) - 1]


def commit_latency(samples: list[int]) -> dict[str, float]:
    """p50 and tail of simulated commit latency, with the tail's percentile.

    The tail is the highest ladder percentile with at least ten samples
    beyond it; with fewer samples than that it is the maximum (100).
    """
    if not samples:
        return {"commit_p50_sim_ms": 0, "commit_tail_sim_ms": 0,
                "commit_tail_pct": 0, "commit_samples": 0}
    ordered = sorted(samples)
    n = len(ordered)
    tail_pct = 100
    for pct in TAIL_PERCENTILES:
        if n - _rank(n, pct) >= 10:
            tail_pct = pct
    return {
        "commit_p50_sim_ms": nearest_rank(ordered, 50),
        "commit_tail_sim_ms": nearest_rank(ordered, tail_pct) if tail_pct < 100 else ordered[-1],
        "commit_tail_pct": tail_pct,
        "commit_samples": n,
    }


class Bench:
    """One run of one workload: its inputs, its cold-cache resets, its jobs."""

    def __init__(self, workload: str, seed: int, size: int | None = None, cold=None):
        """``cold`` is the caches' state before any job; it defaults to the current one."""
        from tracing import ColdCaches, Hooks, bftledger_modules
        from workloads import WORKLOADS

        self.workload = WORKLOADS[workload]
        self.seed = seed
        modules = bftledger_modules()
        self.cold = cold or ColdCaches(modules)
        self.hooks = Hooks(modules)
        self.inputs = (self.workload.inputs(seed) if size is None
                       else self.workload.inputs(seed, size))
        self.problems: list[str] = []
        self.reference: dict | None = None  # deterministic counts of the first job
        self.warm: set[str] = set()  # caches found warm before a job, hence reset
        self.jobs = 0

    def job(self, tracer=None, sampler=None):
        """Run the job once from cold caches; returns (outcome, wall seconds, raw).

        ``sampler``, a HostSpeed, samples the host speed while the job runs.
        """
        self.warm.update(self.cold.reset())
        gc.collect()
        if tracer is not None:
            self.hooks.install(tracer)
        try:
            started = time.perf_counter()
            with sampler if sampler is not None else contextlib.nullcontext():
                raw = self.workload.job(self.inputs)
            wall = time.perf_counter() - started
        finally:
            self.hooks.uninstall()
        self.jobs += 1
        outcome = self.workload.check(self.inputs, raw)
        self.problems += [p for p in outcome.problems if p not in self.problems]
        counts = outcome.deterministic()
        if self.reference is None:
            self.reference = counts
        elif counts != self.reference:
            changed = sorted(k for k in counts if counts[k] != self.reference.get(k))
            self.problems.append(f"same seed, different counts: {', '.join(changed)}")
        return outcome, wall, raw

    def repeat(self, seconds: float, step: Callable[[], float]) -> None:
        """Call ``step`` (which returns its job's wall time) for about ``seconds``."""
        started = time.perf_counter()
        while True:
            wall = step()
            if time.perf_counter() - started + wall > seconds:
                return


# -- untraced run ---------------------------------------------------------------


class HostSpeed:
    """Samples of the reference unit's time, taken between bytecodes of a job."""

    def __init__(self, kind: str):
        self.unit, self.nominal = REFERENCES[kind]
        self.times: list[float] = []
        self.spent = 0.0  # seconds the samples took away from the job

    def sample(self, *_signal) -> None:
        started = time.perf_counter()
        self.unit()
        self.times.append(time.perf_counter() - started)
        self.spent += time.perf_counter() - started

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.fill()

    def fill(self) -> None:
        """Sample now until there are MIN_SAMPLES, as a short job leaves fewer."""
        while len(self.times) < MIN_SAMPLES:
            self.sample()

    def speed(self) -> float:
        return self.nominal / statistics.median(self.times)


def host_speed(kind: str) -> float:
    """The host speed now, from MIN_SAMPLES samples taken outside any job."""
    sampler = HostSpeed(kind)
    sampler.fill()
    return sampler.speed()


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of the time from start to inputs ready,
    scaled to the nominal host speed."""
    before = host_speed("interpreter")
    times = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        probe = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(probe.stdout.split()[-1]) - started)
    speed = (before + host_speed("interpreter")) / 2
    print(f"setup s: {' '.join(f'{t:.3f}' for t in times)}; host speed {speed:.3f}")
    return statistics.median(times) * speed


def setup_probe(workload: str, seed: int) -> None:
    import_program()
    from workloads import WORKLOADS

    WORKLOADS[workload].inputs(seed)
    print(repr(time.monotonic()))  # CLOCK_MONOTONIC is one clock for all processes


def plain_run(bench: Bench, seconds: float, setup_s: float):
    """End-to-end metrics, with each job's time scaled by the host speed during it."""
    kind = bench.workload.reference
    walls, speeds, scaled, outcomes = [], [], [], []

    def step():
        sampler = HostSpeed(kind)
        outcome, wall, _raw = bench.job(sampler=sampler)
        walls.append(wall)
        speeds.append(sampler.speed())
        scaled.append((wall - sampler.spent) * speeds[-1])
        outcomes.append(outcome)
        return wall

    bench.repeat(seconds, step)
    first = outcomes[0]
    print(f"{len(walls)} jobs, wall s: {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"host speed ({kind}) during each job: {' '.join(f'{v:.3f}' for v in speeds)}")
    print(f"scaled to nominal host speed: {' '.join(f'{w:.3f}' for w in scaled)}")
    latency = commit_latency(first.latencies)
    if latency["commit_samples"]:
        print(f"commit latency: p50 {latency['commit_p50_sim_ms']} ms, "
              f"p{latency['commit_tail_pct']} {latency['commit_tail_sim_ms']} ms "
              f"over {latency['commit_samples']} samples (simulated)")
    print(f"caches found warm and reset before a job: {', '.join(sorted(bench.warm)) or 'none'}")
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(o.ops / w for o, w in zip(outcomes, scaled)),
        "check_s": statistics.median(scaled),
        "op_done_ratio": first.done / first.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics


# -- traced run -----------------------------------------------------------------


class Layers:
    """Per-layer metrics of one traced job; a metric whose hook is gone is skipped."""

    def __init__(self, bench: Bench):
        self.missing = bench.hooks.missing
        self.values: dict[str, Any] = {}
        self.skipped: dict[str, str] = {}

    def put(self, name: str, value: Callable[[], Any], *needs: str) -> None:
        for span in needs:
            if span in self.missing:
                self.skipped[name] = self.missing[span]
                return
        try:
            self.values[name] = value()
        except AttributeError as exc:  # a structure the metric reads has changed
            self.skipped[name] = str(exc)


def layer_metrics(bench: Bench, tracer, outcome, raw) -> Layers:
    from tracing import layer_times

    lt = layer_times(tracer)
    out = Layers(bench)
    put = out.put
    calls = lambda name: lt.calls.get(name, 0)  # noqa: E731
    incl = lambda name: lt.incl_s.get(name, 0.0)  # noqa: E731
    own = lambda name: lt.self_s.get(name, 0.0)  # noqa: E731
    counter = lambda name: tracer.counters.get(name, 0)  # noqa: E731
    ops = outcome.ops
    deliveries = outcome.counts.get("sim.deliveries", 0)
    RUN, SYNC, HANDLE = "sim.Simulator.run", "sim.Simulator.sync_deliver", "authority.handle"
    SCEN, AUDIT, DIGEST = "scenario.run_scenario", "audit.run_standard_audits", "committee.value_digest"

    put("sim.deliveries", lambda: deliveries)
    put("sim.dropped", lambda: outcome.counts.get("sim.dropped", 0))
    put("sim.deliveries_per_op", lambda: deliveries / ops if ops else 0)
    put("sim.run_s", lambda: incl(RUN), RUN)
    put("sim.self_us_per_delivery",
        lambda: (incl(RUN) - lt.handle_in_run_s) / deliveries * 1e6 if deliveries else 0,
        RUN, HANDLE)
    put("sim.sync_s", lambda: incl(SYNC), SYNC)
    for key, value in commit_latency(outcome.latencies).items():
        put(key, lambda value=value: value)

    seen = {name.split(":", 1)[1] for name in lt.calls if name.startswith(HANDLE + ":")}
    for kind in HANDLE_KINDS + ("other",):
        kinds = [kind] if kind != "other" else sorted(seen - set(HANDLE_KINDS))
        put(f"authority.handle_calls.{kind}",
            lambda kinds=kinds: sum(calls(f"{HANDLE}:{k}") for k in kinds), HANDLE)
        put(f"authority.handle_self_s.{kind}",
            lambda kinds=kinds: sum(own(f"{HANDLE}:{k}") for k in kinds), HANDLE)
    put("authority.error_replies", lambda: counter("authority.error_replies"), HANDLE)
    put("authority.snapshot_calls", lambda: calls("authority.snapshot"), "authority.snapshot")
    put("authority.snapshot_s", lambda: incl("authority.snapshot"), "authority.snapshot")

    put("scenario.bootstrap_s", lambda: incl(SCEN) - incl(RUN) - incl(SYNC) - incl(AUDIT),
        SCEN, RUN, SYNC, AUDIT)
    put("audit.s", lambda: incl(AUDIT), AUDIT)

    put("trace.events", lambda: outcome.counts.get("trace.events", 0))
    put("trace.bytes", lambda: sum(len(run.sim.trace.to_bytes())
                                   for run in bench.workload.runs(raw)))

    def hit_ratio():
        info = bench.hooks.original("bftledger.committee", "value_digest").cache_info()
        return info.hits / (info.hits + info.misses) if info.hits + info.misses else 0

    put("committee.value_digest_calls", lambda: calls(DIGEST), DIGEST)
    put("committee.value_digest_hit_ratio", hit_ratio, DIGEST)
    put("committee.value_digest_self_s", lambda: own(DIGEST), DIGEST)
    for fn in ("check_certificate", "aggregate_certificate"):
        put(f"committee.{fn}_calls", lambda fn=fn: calls(f"committee.{fn}"), f"committee.{fn}")
    put("committee.check_certificate_self_s", lambda: own("committee.check_certificate"),
        "committee.check_certificate")

    put("keys.verify_calls", lambda: calls("keys.verify"), "keys.verify")
    put("keys.verify_s", lambda: incl("keys.verify"), "keys.verify")
    put("serialize.encode_calls", lambda: calls("serialize.encode"), "serialize.encode")
    put("serialize.encode_s", lambda: incl("serialize.encode"), "serialize.encode")
    put("serialize.encode_bytes", lambda: counter("serialize.encode_bytes"), "serialize.encode")

    for op in TPKE_OPS:
        put(f"tpke.{op}_calls", lambda op=op: calls(f"tpke.{op}"), f"tpke.{op}")
        put(f"tpke.{op}_self_s", lambda op=op: own(f"tpke.{op}"), f"tpke.{op}")

    rounds = sorted(outcome.rounds)
    put("swap.rounds_to_decision_p50", lambda: nearest_rank(rounds, 50) if rounds else 0)
    rules = ("swap.is_safe_proposal", "swap.is_safe_pre_commit")
    for rule in rules:
        put(f"{rule}_calls", lambda rule=rule: calls(rule), rule)
    put("swap.rules_s", lambda: sum(incl(rule) for rule in rules), *rules)

    put("drivers.request_broadcasts_per_op",
        lambda: counter("drivers.request_broadcasts") / ops if ops else 0)
    put("modelcheck.states", lambda: outcome.counts.get("modelcheck.states", 0))
    put("modelcheck.self_s", lambda: own("modelcheck.check_swap_agreement"),
        "modelcheck.check_swap_agreement")
    for module in MODULES:
        put(f"self_s.{module}",
            lambda module=module: sum(v for k, v in lt.self_s.items() if k.startswith(module + ".")))
    return out


def micro_metrics(bench: Bench, samples: dict[str, list]) -> Layers:
    """Per-call timings of the codec, verify and check_certificate, outside any job."""
    from tracing import CODEC_CLASSES, per_call_us

    out = Layers(bench)
    encode = bench.hooks.original("bftledger.serialize", "encode")
    decode = getattr(sys.modules["bftledger.serialize"], "decode", None)
    if decode is None:
        out.missing = dict(out.missing, **{"serialize.decode": "serialize.decode no longer exists"})
    codec = ("serialize.encode", "serialize.decode")

    def us_per_call(fn, args):
        return per_call_us(fn, args) if args else 0

    pairs: dict[str, list] = {}
    if encode is not None and decode is not None:
        for cls in CODEC_CLASSES:
            pairs[cls] = [(x, encode(x)) for x in samples.get(cls, [])]
            if any(decode(blob) != x for x, blob in pairs[cls]):
                bench.problems.append(f"decode(encode(x)) != x for a {cls}")
    for cls in CODEC_CLASSES:
        got = pairs.get(cls, [])
        out.put(f"serialize.encode_us.{cls}",
                lambda got=got: us_per_call(encode, [(x,) for x, _ in got]), *codec)
        out.put(f"serialize.decode_us.{cls}",
                lambda got=got: us_per_call(decode, [(blob,) for _, blob in got]), *codec)
    everything = [pair for got in pairs.values() for pair in got]
    mean_bytes = sum(len(blob) for _, blob in everything) / max(1, len(everything))
    # bytes per µs are MB per s
    out.put("serialize.encode_mb_per_s", lambda: mean_bytes / us_per_call(
        encode, [(x,) for x, _ in everything]) if everything else 0, *codec)
    out.put("serialize.decode_mb_per_s", lambda: mean_bytes / us_per_call(
        decode, [(blob,) for _, blob in everything]) if everything else 0, *codec)

    verify = bench.hooks.original("bftledger.keys", "verify")
    keys = sys.modules["bftledger.keys"]
    rng = random.Random(bench.seed)

    def verify_us(make):
        digest = keys.digest32(rng.randbytes(32))
        signer = make(rng)
        args = (signer.public_key, digest, signer.sign(digest))
        if not verify(*args):
            bench.problems.append(f"keys.verify rejects a valid signature from {make.__name__}")
        return per_call_us(verify, [args])

    out.put("keys.verify_us.mac", lambda: verify_us(keys.mac_keypair), "keys.verify")
    out.put("keys.verify_us.ed25519", lambda: verify_us(keys.ed25519_keypair), "keys.verify")

    def check_certificate_us():
        # Each call starts from a cold digest cache, as the first check of a certificate does.
        check = bench.hooks.original("bftledger.committee", "check_certificate")
        digest = bench.hooks.original("bftledger.committee", "value_digest")
        clear = getattr(digest, "cache_clear", lambda: None)
        certs = samples.get("check_certificate", [])
        if not certs:
            return 0
        runs = []
        for _ in range(5):
            spent = 0.0
            for args in certs:
                clear()
                started = time.perf_counter()
                check(*args)
                spent += time.perf_counter() - started
            runs.append(spent / len(certs) * 1e6)
        return statistics.median(runs)

    out.put("committee.check_certificate_us", check_certificate_us, "committee.check_certificate")
    return out


def traced_run(bench: Bench, seconds: float):
    from tracing import Tracer

    kind = bench.workload.reference
    plain, traced, per_job, samples, speeds = [], [], [], {}, [host_speed(kind)]
    skipped: dict[str, str] = {}

    def step():
        _outcome, wall, _raw = bench.job()
        plain.append(wall)
        tracer = Tracer()
        outcome, traced_wall, raw = bench.job(tracer)
        traced.append(traced_wall)
        layers = layer_metrics(bench, tracer, outcome, raw)
        per_job.append(layers.values)
        skipped.update(layers.skipped)
        for key, items in tracer.samples.items():
            samples.setdefault(key, items)
        speeds.append(host_speed(kind))
        return wall + traced_wall

    bench.repeat(seconds, step)
    # median_low keeps counts whole: every traced job has the same counts
    metrics = {name: statistics.median_low(job[name] for job in per_job) for name in per_job[0]}
    micro = micro_metrics(bench, samples)
    metrics.update(micro.values)
    skipped.update(micro.skipped)
    metrics["bench.trace_overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    metrics["bench.host_speed"] = statistics.median(speeds)

    print(f"plain jobs, wall s: {' '.join(f'{w:.3f}' for w in plain)}")
    for wall, job in zip(traced, per_job):
        attributed = sum(job.get(f"self_s.{m}", 0) for m in MODULES)
        print(f"traced job: wall {wall:.3f} s, self time attributed to modules {attributed:.3f} s")
    print("self time by module, median over traced jobs:")
    for module in sorted(MODULES, key=lambda m: -metrics.get(f"self_s.{m}", 0)):
        if f"self_s.{module}" in metrics:
            print(f"  {module:<11} {metrics[f'self_s.{module}']:9.4f} s")
    return metrics, skipped


# -- output ---------------------------------------------------------------------


def emit(spec: list[dict], metrics: dict, skipped: dict[str, str], bench: Bench,
         attempted: int, failed: int) -> int:
    declared = {m["name"]: m for m in spec}
    extra = sorted(set(metrics) - set(declared))
    if extra:
        raise RuntimeError(f"metrics computed but not declared in BENCHMARK.json: {extra}")
    for name in declared:
        if name not in metrics and name not in skipped:
            raise RuntimeError(f"metric {name} was neither computed nor skipped")
    for name, reason in sorted(skipped.items()):
        print(f"skipped {name}: {reason}")
    for name, m in declared.items():
        if name in metrics:
            print(f"{name:<44} {metrics[name]:>14.6g} {m['unit']}")
    for problem in bench.problems:
        print(f"FAIL: {problem}")
    correct = not bench.problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": m["unit"]}
                    for name, m in declared.items() if name in metrics},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    import_program()
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    bench = Bench(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        metrics, skipped = traced_run(bench, args.seconds)
        declared = spec["per_layer"]
    else:
        metrics, skipped = plain_run(bench, args.seconds, setup_s), {}
        declared = spec["end_to_end"]
    # Counts repeat exactly in every job, so one job's counts stand for each.
    attempted = bench.reference["attempted"] * bench.jobs
    failed = bench.reference["failed"] * bench.jobs
    return emit(declared, metrics, skipped, bench, attempted, failed)


if __name__ == "__main__":
    sys.exit(main())
