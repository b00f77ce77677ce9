#!/usr/bin/env python3
"""The same-behaviour check: three runs whose output a refactor or a
speed-up must leave unchanged. Each prints one line with a sha256 over that
run's output, less its wall times; run it before and after a change and diff.

    python scripts/same_behaviour.py

- scenarios: ``scripts/run_all_scenarios.py``, every shipped scenario's
  report and its trace, synced and outputs sha256 lines;
- fuzz: the three digests of ``scripts/fuzz_swaps.py`` (200 schedules);
- perfbench: ``perfbench/run.py --workload swap_fuzz --seconds 0`` for seeds
  1-210, each run's ``correct``, ``attempted``, ``failed`` and
  ``op_done_ratio`` and its simulated commit latencies.

It exits nonzero if an audit or a fuzz schedule fails or a perfbench run is
not correct. The perfbench sweep starts a process per seed and takes most of
the time, about 10 minutes on a 2-vCPU VM.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PERFBENCH_SEEDS = range(1, 211)


def run(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True)


def scenarios() -> tuple[list[str], bool]:
    out = run(["scripts/run_all_scenarios.py"])
    lines = [re.sub(r", [0-9.]+ s\)$", ")", line) for line in out.stdout.splitlines()]
    return lines, out.returncode == 0


def fuzz() -> tuple[list[str], bool]:
    out = run(["scripts/fuzz_swaps.py"])
    lines = [re.sub(r" in [0-9.]+s$", "", line) for line in out.stdout.splitlines()]
    return lines, out.returncode == 0


def perfbench() -> tuple[list[str], bool]:
    lines, ok = [], True
    for seed in PERFBENCH_SEEDS:
        out = run(["perfbench/run.py", "--workload", "swap_fuzz", "--seed", str(seed),
                   "--seconds", "0"])
        stdout = out.stdout.splitlines()
        result = json.loads(stdout[-1]) if stdout and stdout[-1].startswith("{") else {}
        ratio = result.get("metrics", {}).get("op_done_ratio", {}).get("value")
        latency = [line for line in stdout if line.startswith("commit latency")]
        lines.append(f"seed {seed}: correct {result.get('correct')}, attempted "
                     f"{result.get('attempted')}, failed {result.get('failed')}, "
                     f"op_done_ratio {ratio!r}; {' '.join(latency)}")
        ok &= out.returncode == 0 and result.get("correct") is True
    return lines, ok


def main() -> int:
    all_ok = True
    for name, check in (("scenarios", scenarios), ("fuzz", fuzz), ("perfbench", perfbench)):
        started = time.perf_counter()
        lines, ok = check()
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        print(f"{name} sha256: {digest} ({len(lines)} lines, {'ok' if ok else 'FAILED'}, "
              f"{time.perf_counter() - started:.0f} s)", flush=True)
        all_ok &= ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
