"""Trace records: the canonical event log a simulation run writes.

The trace file is an append-only sequence of canonically encoded TraceEvent
records (each prefixed by the standard tag byte), so two runs of the same
scenario and seed must produce byte-identical files. Audits work over the
richer in-memory mirror of authority deliveries, which keeps the full payload
objects and the authority's notes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from . import serialize


@dataclass(frozen=True)
class TraceEvent:
    time: int
    seq: int
    src: str
    dest: str
    kind: str
    digest: bytes


@dataclass(frozen=True)
class RichEvent:
    """In-memory mirror of one delivery to an authority: full payload plus the
    audit notes ((tag, *details) tuples) its handling produced."""

    time: int
    seq: int
    src: str
    dest: str
    payload: Any
    notes: list


class TraceWriter:
    def __init__(self):
        self.events: list[TraceEvent] = []
        self.rich: list[RichEvent] = []

    def record(self, time: int, envelope, digest: bytes, notes: Optional[list] = None) -> None:
        """Append one delivery. A delivery to an authority passes its notes and
        is mirrored in ``rich``; a delivery to a client is not."""
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
        if notes is not None:
            self.rich.append(RichEvent(
                time, envelope.seq, envelope.src, envelope.dest, envelope.payload, notes
            ))

    def to_bytes(self) -> bytes:
        out = bytearray()
        for event in self.events:
            out += serialize.encode(event)
        return bytes(out)
