"""Randomized adversarial swap schedules for agreement fuzzing.

Each seed yields a scenario with randomized network noise (drops,
duplication, reordering via random delays), a random fault assignment (crash,
byzantine signer, vote withholding), and adversarial owner behaviors
including flip-flopping proposers. The crashed or byzantine authority and the
withholding one are drawn independently, so a schedule may fault two of the
four authorities, more than the f = 1 budget: 50 of seeds 0-299 do. Every
standard audit is checked on every schedule, as the benchmark's gate does;
agreement (no two commit certificates for one swap instance ever disagree) is
the one that must survive all of it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .scenario import run_scenario


def fuzz_swap_config(seed: int) -> dict:
    rng = random.Random(seed)
    faults: dict = {}
    roll = rng.random()
    if roll < 0.30:
        faults["crash"] = {str(rng.randrange(4)): rng.uniform(0.1, 3.0)}
    elif roll < 0.60:
        faults["arbitrary_signer"] = [rng.randrange(4)]
    if rng.random() < 0.3:
        faults.setdefault("withhold_votes", {})[str(rng.randrange(4))] = rng.uniform(0.1, 0.5)
    return {
        "version": 1,
        "name": f"fuzz{seed}",
        "seed": seed,
        "budget_seconds": 8,
        "net": {
            "min_delay_ms": 5,
            "max_delay_ms": rng.choice([60, 120, 200]),
            "drop": rng.uniform(0, 0.2),
            "dup": rng.uniform(0, 0.2),
            "gst_seconds": rng.uniform(0, 4),
            "gst_bound_ms": 200,
        },
        "consensus": {"interval_seconds": 0.4, "escalation_round": 6},
        "faults": faults,
        "accounts": [{"name": "a", "balance": 10}, {"name": "b", "balance": 10}],
        "actions": [
            {
                "kind": "swap",
                "owner1": "a",
                "owner2": "b",
                "owner1_desired": rng.choice(["confirm", "abort", "auto"]),
                "owner1_behavior": rng.choice(["honest", "flip_flop"]),
                "owner2_behavior": rng.choice(["honest", "flip_flop", "no_lock"]),
                "owner2_desired": rng.choice(["confirm", "abort"]),
                "drivers": [1, 2],
                "deadline_seconds": 6,
                "lock_wait_seconds": 1.5,
            }
        ],
    }


@dataclass
class FuzzSummary:
    runs: int
    committed: int
    stalled: int
    failed_audits: list  # (seed, audit name, violations) per failed audit, in seed order
    trace_sha256: str  # over every schedule's trace.bin bytes, in seed order
    synced_sha256: str  # over every schedule's synced snapshots, in seed then authority order
    outputs_sha256: str  # over every schedule's RunResult.outputs_digest(), in seed order

    def line(self) -> str:
        status = "PASS" if not self.failed_audits else "FAIL"
        return (
            f"{status} audits over {self.runs} schedules "
            f"({self.committed} committed, {self.stalled} stalled, "
            f"{len(self.failed_audits)} failed audits)"
        )


def run_fuzz(runs: int = 200, base_seed: int = 0) -> FuzzSummary:
    committed = stalled = 0
    failed = []
    traces = hashlib.sha256()
    synced = hashlib.sha256()
    outputs = hashlib.sha256()
    for i in range(runs):
        seed = base_seed + i
        run, report = run_scenario(fuzz_swap_config(seed))
        traces.update(run.sim.trace.to_bytes())
        run.synced_digest(synced)
        outputs.update(run.outputs_digest().digest())
        failed += [(seed, a.name, a.violations) for a in report.audits if not a.passed]
        if run.contexts["swap0"].commit is not None:
            committed += 1
        else:
            stalled += 1
    return FuzzSummary(
        runs=runs, committed=committed, stalled=stalled, failed_audits=failed,
        trace_sha256=traces.hexdigest(), synced_sha256=synced.hexdigest(),
        outputs_sha256=outputs.hexdigest(),
    )
