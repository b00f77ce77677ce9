"""Trace records: the canonical event log a simulation run writes.

The trace file is an append-only sequence of canonically encoded TraceEvent
records (each prefixed by the standard tag byte), so two runs of the same
scenario and seed must produce byte-identical files. Audits read the flat
log of (authority, note) pairs that authorities emit while handling their
deliveries; no delivered payload is kept.

``TraceEvent`` is the one wire class of a record, but the writer keeps each
delivery as a ``TraceRecord``: a named tuple of the same fields, in the same
order and under the same names. A frozen dataclass sets each field through
``object.__setattr__``, which made building one per delivery the largest
record cost of a run; ``to_bytes`` builds the ``TraceEvent`` of each record
only when the file is written.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields

from . import serialize


@dataclass(frozen=True)
class TraceEvent:
    time: int
    seq: int
    src: str
    dest: str
    kind: str
    digest: bytes


TraceRecord = namedtuple("TraceRecord", [f.name for f in fields(TraceEvent)])


class TraceWriter:
    def __init__(self):
        self.events: list[TraceRecord] = []
        # (authority name, (tag, *details)) in delivery order
        self.notes: list[tuple[str, tuple]] = []

    def record(self, time: int, envelope, digest: bytes, notes=()) -> None:
        """Append one delivery and the audit notes its handling produced."""
        # tuple.__new__ skips the named tuple's Python-level __new__.
        self.events.append(tuple.__new__(TraceRecord, (
            time, envelope.seq, envelope.src, envelope.dest, type(envelope.payload).__name__, digest)))
        if notes:
            self.notes.extend((envelope.dest, note) for note in notes)

    def to_bytes(self) -> bytes:
        out = bytearray()
        for record in self.events:
            out += serialize.encode(TraceEvent(*record))
        return bytes(out)
