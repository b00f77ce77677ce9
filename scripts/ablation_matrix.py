#!/usr/bin/env python3
"""Model-check the swap consensus, then re-check with each safety rule
ablated in turn. The baseline must be violation-free; every ablation must
find a violation (each rule is individually load-bearing). Each row prints
its wall time and states/s, and the last line the total time and the
process's peak resident set size.

    python scripts/ablation_matrix.py [rounds] [byzantine]
"""

import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from bftledger.modelcheck import check_swap_agreement  # noqa: E402


def main() -> int:
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    byzantine = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    started = time.perf_counter()
    ok = True
    for rule in ["", *"abcd"]:
        label = f"without_{rule}" if rule else "baseline"
        row_started = time.perf_counter()
        result = check_swap_agreement(max_round=rounds, byzantine=byzantine,
                                      disabled_rules=frozenset(rule))
        elapsed = time.perf_counter() - row_started
        print(f"{label:12s} {result.summary()}  {elapsed:.2f}s "
              f"{result.states / max(elapsed, 1e-9):,.0f} states/s")
        ok &= result.violation == (label != "baseline")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB
    print(f"total {time.perf_counter() - started:.1f}s, peak RSS {peak_mb:.0f} MB")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
