#!/usr/bin/env python3
"""Run every shipped scenario and print its report, its trace sha256, its
delivery count and its wall time, the sha256 of its synced snapshots, and the
sha256 of its outputs (every authority's final snapshot, the results, the
outcomes and every client's driver log); exit nonzero on any failed audit. The
wall time covers ``run_scenario`` alone.

Running it before and after a refactor and diffing the output checks that the
shipped scenarios behave the same."""

import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from bftledger.scenario import load_scenario, run_scenario  # noqa: E402

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def main() -> int:
    ok = True
    for fname in sorted(os.listdir(SCENARIOS)):
        config = load_scenario(os.path.join(SCENARIOS, fname))
        started = time.perf_counter()
        run, report = run_scenario(config)
        wall_s = time.perf_counter() - started
        print("=" * 60)
        print(report.to_text())
        digest = hashlib.sha256(run.sim.trace.to_bytes()).hexdigest()
        print(f"trace sha256: {digest} ({len(run.sim.trace.events)} deliveries, {wall_s:.2f} s)")
        print(f"synced sha256: {run.synced_digest().hexdigest()}")
        print(f"outputs sha256: {run.outputs_digest().hexdigest()}")
        ok &= report.all_passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
