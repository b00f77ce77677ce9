"""Spans, hooks and cache resets that the benchmark applies from outside bftledger.

The benchmark changes nothing under ``src/``. It wraps the public entry
points of each module instead:

- ``Hooks`` replaces every binding of a hooked function. bftledger imports
  functions by name, so ``value_digest`` is bound in ``sim``, ``scenario``,
  ``authority`` and several more modules. Patching only the defining module
  would miss those calls silently. Methods are patched on their class and on
  every subclass that overrides them.
- ``Tracer`` keeps each span (name, start, end, parent) in flat arrays in
  memory. ``layer_times`` turns them into calls, inclusive time and self time,
  where self time is a span's duration minus the time its child spans cover.
- ``ColdCaches`` resets the module-level caches and memo tables of every
  bftledger module to their state right after import, so each timed job
  starts as a fresh ``bftledger`` process does.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

import bftledger

# Message classes whose encode and decode are timed on captured payloads.
CODEC_CLASSES = (
    "HandleRequestMsg", "VoteReply", "ConfirmMsg", "ProposalMsg", "PreCommitMsg", "CommitMsg",
)
SAMPLES_PER_CLASS = 32


def bftledger_modules() -> list:
    """Every bftledger module, imported; a fresh CLI process has the same set."""
    for info in pkgutil.iter_modules(bftledger.__path__, "bftledger."):
        importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if name == "bftledger" or name.startswith("bftledger.")]


class Tracer:
    """Spans of one traced job, plus counters and captured sample arguments."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list] = {}

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def capture(self, key: str, item: Any) -> None:
        bucket = self.samples.setdefault(key, [])
        if len(bucket) < SAMPLES_PER_CLASS:
            bucket.append(item)


@dataclass
class LayerTimes:
    calls: dict[str, int] = field(default_factory=dict)
    incl_s: dict[str, float] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    handle_in_run_s: float = 0.0  # Authority.handle spans directly under Simulator.run


def layer_times(tracer: Tracer) -> LayerTimes:
    n = len(tracer.name_id)
    names = [tracer.names[i] for i in tracer.name_id]
    duration = [tracer.end[i] - tracer.start[i] for i in range(n)]
    covered = [0.0] * n
    out = LayerTimes()
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            covered[p] += duration[i]
            if names[p] == "sim.Simulator.run" and names[i].startswith("authority.handle:"):
                out.handle_in_run_s += duration[i]
    for i, name in enumerate(names):
        out.calls[name] = out.calls.get(name, 0) + 1
        out.incl_s[name] = out.incl_s.get(name, 0.0) + duration[i]
        out.self_s[name] = out.self_s.get(name, 0.0) + duration[i] - covered[i]
    return out


# -- hooks ----------------------------------------------------------------------


def _type_name(value: Any) -> str:
    return type(value).__name__


def _after_handle(tracer: Tracer, args, result) -> None:
    outputs, _notes = result
    for _dest, payload in outputs:
        if _type_name(payload) == "ErrorReply":
            tracer.count("authority.error_replies")


def _after_encode(tracer: Tracer, args, result) -> None:
    tracer.count("serialize.encode_bytes", len(result))
    kind = _type_name(args[0])
    if kind in CODEC_CLASSES:
        tracer.capture(kind, args[0])


def _after_check_certificate(tracer: Tracer, args, result) -> None:
    tracer.capture("check_certificate", args)


def _after_broadcast(tracer: Tracer, args, result) -> None:
    if _type_name(args[1]) == "HandleRequestMsg":
        tracer.count("drivers.request_broadcasts")


@dataclass(frozen=True)
class Hook:
    module: str  # defining module, e.g. "bftledger.committee"
    target: str  # "function" or "Class.method"
    span: str
    namer: Optional[Callable[[tuple], str]] = None  # span name from the call's arguments
    after: Optional[Callable[[Tracer, tuple, Any], None]] = None


HOOKS = (
    Hook("bftledger.scenario", "run_scenario", "scenario.run_scenario"),
    Hook("bftledger.sim", "Simulator.run", "sim.Simulator.run"),
    Hook("bftledger.sim", "Simulator.sync_deliver", "sim.Simulator.sync_deliver"),
    Hook("bftledger.sim", "ClientEnv.broadcast", "sim.ClientEnv.broadcast", after=_after_broadcast),
    Hook("bftledger.authority", "Authority.handle", "authority.handle",
         namer=lambda args: "authority.handle:" + _type_name(args[2]), after=_after_handle),
    Hook("bftledger.authority", "Authority.snapshot", "authority.snapshot"),
    Hook("bftledger.authority", "Authority.consistency_snapshot", "authority.snapshot"),
    Hook("bftledger.audit", "run_standard_audits", "audit.run_standard_audits"),
    Hook("bftledger.committee", "value_digest", "committee.value_digest"),
    Hook("bftledger.committee", "check_certificate", "committee.check_certificate",
         after=_after_check_certificate),
    Hook("bftledger.committee", "aggregate_certificate", "committee.aggregate_certificate"),
    Hook("bftledger.keys", "verify", "keys.verify"),
    Hook("bftledger.serialize", "encode", "serialize.encode", after=_after_encode),
    Hook("bftledger.tpke", "setup", "tpke.setup"),
    Hook("bftledger.tpke", "encrypt", "tpke.encrypt"),
    Hook("bftledger.tpke", "share_decrypt", "tpke.share_decrypt"),
    Hook("bftledger.tpke", "share_verify", "tpke.share_verify"),
    Hook("bftledger.tpke", "combine", "tpke.combine"),
    Hook("bftledger.swap", "is_safe_proposal", "swap.is_safe_proposal"),
    Hook("bftledger.swap", "is_safe_pre_commit", "swap.is_safe_pre_commit"),
    Hook("bftledger.modelcheck", "check_swap_agreement", "modelcheck.check_swap_agreement"),
)


def _wrap(fn: Callable, hook: Hook, tracer: Tracer) -> Callable:
    open_, close, after, namer = tracer.open, tracer.close, hook.after, hook.namer

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        index = open_(namer(args) if namer else hook.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(index)
        if after is not None:
            after(tracer, args, result)
        return result
    return spanned


class Hooks:
    """Installs the HOOKS for one tracer; removes them on exit."""

    def __init__(self, modules: list):
        self.modules = modules
        self.originals: dict[str, Any] = {}  # "module:target" -> unwrapped callable
        self.missing: dict[str, str] = {}  # span or hook name -> reason it is absent
        self._undo: list[tuple[Any, str, Any]] = []
        for hook in HOOKS:
            key = f"{hook.module}:{hook.target}"
            try:
                obj = sys.modules[hook.module]
                for part in hook.target.split("."):
                    obj = getattr(obj, part)
                self.originals[key] = obj
            except (KeyError, AttributeError):
                self.missing[hook.span] = f"{key} no longer exists"

    def original(self, module: str, target: str) -> Any:
        return self.originals.get(f"{module}:{target}")

    def install(self, tracer: Tracer) -> None:
        for hook in HOOKS:
            fn = self.originals.get(f"{hook.module}:{hook.target}")
            if fn is None:
                continue
            if "." in hook.target:
                class_name, method = hook.target.split(".")
                cls = getattr(sys.modules[hook.module], class_name)
                for owner in _with_subclasses(cls):
                    if method in vars(owner):
                        self._patch(owner, method, _wrap(vars(owner)[method], hook, tracer))
            else:
                wrapper = _wrap(fn, hook, tracer)
                for module in self.modules:
                    for name, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, name, wrapper)

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

def _with_subclasses(cls: type) -> Iterable[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _with_subclasses(sub)


# -- cold caches ----------------------------------------------------------------


class ColdCaches:
    """Module-level caches and memo tables of bftledger, as right after import.

    ``reset`` clears every ``functools`` cache found on a module and puts every
    module-level dict, list and set back to its contents at construction time.
    Registries filled at import are unchanged by that; memo tables filled
    lazily, such as ``tpke._BABY_TABLE``, are emptied.
    """

    def __init__(self, modules: list):
        self.caches: dict[str, Any] = {}
        self.tables: dict[str, tuple[Any, Any]] = {}
        seen: set[int] = set()
        for module in modules:
            for name, value in vars(module).items():
                if name.startswith("__") or id(value) in seen:
                    continue
                if callable(getattr(value, "cache_clear", None)):
                    seen.add(id(value))
                    self.caches[f"{value.__module__}.{value.__qualname__}"] = value
                elif type(value) in (dict, list, set):
                    seen.add(id(value))
                    self.tables[f"{module.__name__}.{name}"] = (value, type(value)(value))

    def reset(self) -> list[str]:
        """Reset everything; returns the names that were not in the cold state."""
        warm = []
        for key, fn in self.caches.items():
            info = getattr(fn, "cache_info", None)
            if info is None or info().currsize:
                warm.append(key)
            fn.cache_clear()
        for key, (table, cold) in self.tables.items():
            if table == cold:
                continue
            warm.append(key)
            if isinstance(table, list):
                table[:] = cold
            else:
                table.clear()
                table.update(cold)
        return warm


# -- micro-timings on captured payloads -----------------------------------------


def per_call_us(fn: Callable, arg_lists: list[tuple], min_s: float = 0.02, repeats: int = 5) -> float:
    """Median over ``repeats`` of the mean µs per call, cycling through ``arg_lists``."""
    loops = 1
    while True:
        started = time.perf_counter()
        for _ in range(loops):
            for args in arg_lists:
                fn(*args)
        elapsed = time.perf_counter() - started
        if elapsed >= min_s:
            break
        loops *= 2
    runs = [elapsed]
    for _ in range(repeats - 1):
        started = time.perf_counter()
        for _ in range(loops):
            for args in arg_lists:
                fn(*args)
        runs.append(time.perf_counter() - started)
    return statistics.median(runs) / (loops * len(arg_lists)) * 1e6
