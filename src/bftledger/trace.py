"""Trace records: the canonical event log a simulation run writes.

The trace file is an append-only sequence of canonically encoded TraceEvent
records (each prefixed by the standard tag byte), so two runs of the same
scenario and seed must produce byte-identical files. Audits read the flat
log of (authority, note) pairs that authorities emit while handling their
deliveries; no delivered payload is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import serialize


@dataclass(frozen=True)
class TraceEvent:
    time: int
    seq: int
    src: str
    dest: str
    kind: str
    digest: bytes


class TraceWriter:
    def __init__(self):
        self.events: list[TraceEvent] = []
        # (authority name, (tag, *details)) in delivery order
        self.notes: list[tuple[str, tuple]] = []

    def record(self, time: int, envelope, digest: bytes, notes=()) -> None:
        """Append one delivery and the audit notes its handling produced."""
        self.events.append(
            TraceEvent(
                time=time,
                seq=envelope.seq,
                src=envelope.src,
                dest=envelope.dest,
                kind=type(envelope.payload).__name__,
                digest=digest,
            )
        )
        if notes:
            self.notes.extend((envelope.dest, note) for note in notes)

    def to_bytes(self) -> bytes:
        out = bytearray()
        for event in self.events:
            out += serialize.encode(event)
        return bytes(out)
