#!/usr/bin/env python3
"""Swap fuzzing: randomized adversarial swap schedules, every standard audit
on each; exits nonzero if any audit fails.

    python scripts/fuzz_swaps.py [runs] [base_seed]
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from bftledger.fuzz import run_fuzz  # noqa: E402


def main() -> int:
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    base_seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    started = time.time()
    summary = run_fuzz(runs=runs, base_seed=base_seed)
    print(f"{summary.line()} in {time.time() - started:.1f}s")
    print(f"trace sha256: {summary.trace_sha256}")
    print(f"synced sha256: {summary.synced_sha256}")
    for seed, name, violations in summary.failed_audits:
        print(f"  seed {seed} {name}: {violations}")
    return 0 if not summary.failed_audits else 1


if __name__ == "__main__":
    sys.exit(main())
