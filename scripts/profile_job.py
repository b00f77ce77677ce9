#!/usr/bin/env python3
"""Sample where one benchmark job spends its time.

    python scripts/profile_job.py --workload swap_fuzz --seed 3

It builds the inputs of a workload in ``perfbench/workloads.py``, runs its
job once to warm the process (imports, codecs, caches), then runs it
``JOBS`` more times while ``signal.setitimer(ITIMER_PROF)`` asks for a
sample every 0.5 ms of CPU time. The kernel may deliver them at its own tick
(4 ms on many hosts), so the mean interval is printed. Each sample records
the Python call stack. It prints:

- by source file: the share of samples with the file anywhere on the stack
  (inclusive) and with it at the top (self);
- the same by function, the ``TOP`` largest by self share;
- the self share of dataclass-generated ``__init__`` methods, by class;
- the share of the jobs' CPU time spent in cyclic garbage collection, timed
  through ``gc.callbacks``, and the number of collections of each
  generation. The sampler charges that time to whatever frame allocated when
  a collection started, so this line says how much of it there is.

Time in C code (hashing, ``heapq``, ``dict``) counts as self time of the
Python function that called it. The workload module is imported, never
changed, and the job is the one the benchmark times.
"""

from __future__ import annotations

import argparse
import gc
import os
import signal
import sys
import time
from collections import Counter

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS  # noqa: E402

PERIOD_S = 0.0005
JOBS = 5
TOP = 30


def where(code) -> str:
    """A short name for a code object's source file."""
    path = code.co_filename
    if path == "<string>":
        return "<generated>"
    parts = os.path.normpath(path).split(os.sep)
    if "bftledger" in parts:
        return "/".join(parts[parts.index("bftledger"):])
    return parts[-1]


class Sampler:
    def __init__(self):
        self.samples = 0
        self.self_fn: Counter = Counter()
        self.incl_fn: Counter = Counter()
        self.self_file: Counter = Counter()
        self.incl_file: Counter = Counter()
        self.init_by_class: Counter = Counter()
        self.owner: dict = {}  # generated method's code -> the class it was sampled on

    def __call__(self, _signum, frame) -> None:
        if frame is None:
            return
        self.samples += 1
        top = frame.f_code
        self.self_fn[top] += 1
        self.self_file[where(top)] += 1
        if top.co_filename == "<string>" and "self" in frame.f_locals:
            owner = self.owner[top] = type(frame.f_locals["self"]).__name__
            if top.co_name == "__init__":
                self.init_by_class[owner] += 1
        codes = set()
        while frame is not None:
            codes.add(frame.f_code)
            frame = frame.f_back
        self.incl_fn.update(codes)
        self.incl_file.update({where(code) for code in codes})


class GcClock:
    """CPU time spent in cyclic garbage collection, and the number of
    collections of each generation, as a ``gc.callbacks`` entry."""

    def __init__(self):
        self.seconds = 0.0
        self.by_generation = [0, 0, 0]
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.process_time()
        else:
            self.seconds += time.process_time() - self._started
            self.by_generation[info["generation"]] += 1


def table(title: str, rows: list[tuple[str, float, float]]) -> None:
    print(f"\n{title}")
    print(f"{'incl %':>7} {'self %':>7}  name")
    for name, incl, self_ in rows:
        print(f"{incl:7.1f} {self_:7.1f}  {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    workload.job(inputs)  # warm-up, not sampled

    sampler = Sampler()
    gc_clock = GcClock()
    previous = signal.signal(signal.SIGPROF, sampler)
    gc.callbacks.append(gc_clock)
    started = time.process_time()
    signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
    try:
        for _ in range(JOBS):
            workload.job(inputs)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        gc.callbacks.remove(gc_clock)
        signal.signal(signal.SIGPROF, previous)
    cpu = time.process_time() - started

    n = sampler.samples
    if not n:
        print("no samples: the jobs ran shorter than one period")
        return 1
    pct = 100 / n
    print(f"{args.workload} seed {args.seed}: {JOBS} jobs, {cpu:.2f} s CPU, {n} samples, "
          f"one per {cpu / n * 1000:.2f} ms of CPU")

    files = sorted(sampler.incl_file, key=lambda f: (-sampler.self_file[f], f))
    table("by file", [(f, sampler.incl_file[f] * pct, sampler.self_file[f] * pct) for f in files])

    def label(code) -> str:
        if code in sampler.owner:
            return f"<generated> {sampler.owner[code]}.{code.co_name}"
        return f"{where(code)}:{code.co_firstlineno} {code.co_qualname}"

    fns = sorted(sampler.self_fn, key=lambda c: (-sampler.self_fn[c], label(c)))[:TOP]
    table(f"by function, top {TOP} by self",
          [(label(c), sampler.incl_fn[c] * pct, sampler.self_fn[c] * pct) for c in fns])

    inits = sampler.init_by_class.most_common()
    print("\ndataclass __init__ self %, by class")
    for name, count in inits:
        print(f"{count * pct:7.1f}  {name}")
    print(f"{sum(c for _, c in inits) * pct:7.1f}  total")
    gen0, gen1, gen2 = gc_clock.by_generation
    print(f"\ncyclic GC: {gc_clock.seconds:.3f} s of {cpu:.2f} s CPU "
          f"({gc_clock.seconds / cpu * 100:.1f}%), {gen0 + gen1 + gen2} collections "
          f"(generation 0: {gen0}, 1: {gen1}, 2: {gen2})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
