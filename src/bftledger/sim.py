"""Deterministic discrete-event network simulator.

Time is integer ticks (1000 ticks to one simulated second). A single seeded
RNG drives every random choice, and events are totally ordered by
(time, sequence), so one (scenario, seed) pair always produces the same run
byte for byte.

Message model: authenticated point-to-point. Client/authority traffic may be
dropped, duplicated, and reordered before the global stabilization time;
after it, delays are bounded and nothing is dropped. Internal cross-shard
traffic (an authority messaging itself) is never dropped but may be delayed,
duplicated, and reordered: handlers must be idempotent.

Authorities are reactive handlers. Clients are generator coroutines that
yield Sleep/Recv commands and send fire-and-forget messages through their
environment.

The order of RNG draws is part of the trace contract. ``post`` draws the
delay, then the duplicate coin, then (for client/authority traffic from a
sender in service) the drop coin, then a duplicate's extra delay.
``_deliver`` draws one withheld-vote coin for every output an authority
addresses elsewhere, even when that authority withholds with probability
0.0. Skipping or reordering any draw changes every trace that follows it.

The event heap holds ``(time, seq, item)`` entries, ordered by time and then
by the sequence number ``_schedule`` gives each. An ``item`` is one of:

- an ``Envelope`` to deliver, pushed as is (a duplicate is the same envelope
  pushed twice);
- ``("start", client)``, the first step of a client script;
- ``("wake", client, token)``, the end of a client's Sleep or Recv wait.

Only this module reads these entries. Other modules see the deliveries still
pending through ``Simulator.in_flight``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from .committee import value_digest
from .messages import CommitMsg, ConfirmMsg, SettleAuctionMsg
from .trace import TraceWriter

SECOND = 1000  # ticks

# Certificate-bearing deliveries to an authority, filed for the end-of-run sync.
CERTIFIED_MESSAGES = (ConfirmMsg, CommitMsg, SettleAuctionMsg)


@dataclass(frozen=True)
class NetConfig:
    min_delay: int = 10
    max_delay: int = 120
    drop: float = 0.0
    dup: float = 0.0
    gst: int = 0  # after this tick, no drops and delays bounded by gst_bound
    gst_bound: int = 150
    xshard_min: int = 1
    xshard_max: int = 60
    xshard_dup: float = 0.0


@dataclass(slots=True)
class Envelope:
    src: str
    dest: str
    seq: int
    payload: Any


@dataclass(slots=True)
class Sleep:
    until: int


@dataclass(slots=True)
class Recv:
    deadline: int  # absolute tick


class ClientEnv:
    """The API a client script sees: send, broadcast, sleep, recv."""

    def __init__(self, sim: "Simulator", name: str):
        self._sim = sim
        self.name = name

    @property
    def now(self) -> int:
        return self._sim.now

    def send(self, dest: str, payload: Any) -> None:
        self._sim.post(self.name, dest, payload)

    def broadcast(self, payload: Any) -> None:
        for dest in self._sim.authorities:
            self.send(dest, payload)

    def sleep(self, dt: int) -> Sleep:
        return Sleep(until=self._sim.now + max(0, dt))

    def recv(self, timeout: int) -> Recv:
        return Recv(deadline=self._sim.now + timeout)


@dataclass
class _ClientTask:
    gen: Any
    inbox: list = field(default_factory=list)
    waiting: Optional[Recv] = None
    wake_token: int = 0
    done: bool = False


class Simulator:
    def __init__(
        self,
        seed: int,
        net: NetConfig = NetConfig(),
        budget: int = 600 * SECOND,
    ):
        self.rng = random.Random(seed)
        self.net = net
        self.budget = budget
        self.now = 0
        self._seq = 0
        self._heap: list[tuple[int, int, Any]] = []
        self.authorities: dict[str, Any] = {}
        self.clients: dict[str, _ClientTask] = {}
        self.crash_at: dict[str, int] = {}
        self.withhold: dict[str, float] = {}
        self.outages: dict[str, list[tuple[int, int]]] = {}
        self.trace = TraceWriter()
        # value digest -> the first delivered payload of a CERTIFIED_MESSAGES type
        self.certified: dict[bytes, Any] = {}
        self.budget_exceeded = False
        self.stats = {"delivered": 0, "dropped": 0}

    # -- setup --

    def add_authority(self, authority) -> None:
        self.authorities[authority.name] = authority

    def add_client(self, name: str, script: Callable[[ClientEnv], Any]) -> None:
        env = ClientEnv(self, name)
        self.clients[name] = _ClientTask(gen=script(env))

    def start_client_at(self, name: str, time: int) -> None:
        self._schedule(time, ("start", name))

    # -- scheduling --

    def _schedule(self, time: int, item: Any) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, item))

    def _crashed(self, name: str, t: int) -> bool:
        crash = self.crash_at.get(name)
        return crash is not None and t >= crash

    def _out_of_service(self, name: str, t: int) -> bool:
        if self._crashed(name, t):
            return True
        windows = self.outages.get(name)
        return bool(windows) and any(start <= t < end for start, end in windows)

    def post(self, src: str, dest: str, payload: Any) -> None:
        """Submit a message to the network.

        Delays are drawn with ``randrange(a, b + 1)``, which is what
        ``randint(a, b)`` calls, so the draws are the same."""
        rng, net, now = self.rng, self.net, self.now
        seq = self._seq = self._seq + 1
        if src == dest and dest in self.authorities:
            delay = rng.randrange(net.xshard_min, net.xshard_max + 1)
            dup = rng.random() < net.xshard_dup
        else:
            if now < net.gst:
                delay = rng.randrange(net.min_delay, net.max_delay + 1)
                drops = net.drop
            else:
                delay = rng.randrange(net.min_delay, net.gst_bound + 1)
                drops = 0.0
            dup = rng.random() < net.dup
            if self._out_of_service(src, now) or rng.random() < drops:
                self.stats["dropped"] += 1
                return
        envelope = Envelope(src, dest, seq, payload)
        self._schedule(now + delay, envelope)
        if dup:
            extra = rng.randrange(net.min_delay, net.max_delay + 1)
            self._schedule(now + delay + extra, envelope)

    # -- client plumbing --

    def _advance_client(self, name: str, value: Any) -> None:
        task = self.clients[name]
        if task.done:
            return
        try:
            command = task.gen.send(value)
        except StopIteration:
            task.done = True
            return
        while True:
            if isinstance(command, Sleep):
                task.waiting = None
                token = task.wake_token = task.wake_token + 1
                self._schedule(max(command.until, self.now), ("wake", name, token))
                return
            if isinstance(command, Recv):
                if task.inbox:
                    envelope = task.inbox.pop(0)
                    try:
                        command = task.gen.send(envelope)
                    except StopIteration:
                        task.done = True
                        return
                    continue
                task.waiting = command
                token = task.wake_token = task.wake_token + 1
                self._schedule(command.deadline, ("wake", name, token))
                return
            raise TypeError(f"client {name} yielded {command!r}")

    def _deliver_to_client(self, envelope: Envelope) -> None:
        task = self.clients[envelope.dest]
        if task.done:
            return
        if task.waiting is not None:
            task.waiting = None
            task.wake_token += 1  # invalidate any pending timeout
            self._advance_client(envelope.dest, envelope)
        else:
            task.inbox.append(envelope)

    # -- main loop --

    def _deliver(self, envelope: Envelope) -> None:
        dest, now = envelope.dest, self.now
        authority = self.authorities.get(dest)
        if authority is not None:
            # A partitioned authority keeps processing its own cross-shard
            # queue; a crashed one processes nothing.
            if self._crashed(dest, now):
                return
            if envelope.src != dest and self._out_of_service(dest, now):
                return
            payload = envelope.payload
            outputs, notes = authority.handle(envelope.src, payload, now)
            digest = value_digest(payload)
            self.trace.record(now, envelope, digest, notes)
            if isinstance(payload, CERTIFIED_MESSAGES):
                self.certified.setdefault(digest, payload)
            self.stats["delivered"] += 1
            withhold = self.withhold.get(dest, 0.0)
            draw = self.rng.random
            for out_dest, out in outputs:
                # The draw happens at probability 0.0 too: see the module docstring.
                if out_dest != dest and draw() < withhold:
                    self.stats["dropped"] += 1
                    continue
                self.post(dest, out_dest, out)
        elif dest in self.clients:
            self.trace.record(now, envelope, value_digest(envelope.payload))
            self.stats["delivered"] += 1
            self._deliver_to_client(envelope)

    def run(self) -> None:
        heap, heappop, budget = self._heap, heapq.heappop, self.budget
        while heap:
            time, _seq, item = heap[0]
            if time > budget:
                self.budget_exceeded = True
                break
            heappop(heap)
            self.now = max(self.now, time)
            if item.__class__ is Envelope:
                self._deliver(item)
            elif item[0] == "start":
                self._advance_client(item[1], None)
            else:  # ("wake", name, token)
                # A Sleep, a Recv that waits, and a delivery that ends the
                # wait each bump the token: a match means the task still
                # waits on the command that scheduled this wake.
                _, name, token = item
                task = self.clients[name]
                if not task.done and token == task.wake_token:
                    task.waiting = None
                    self._advance_client(name, None)

    # -- post-run utilities --

    def in_flight(self) -> Iterator[Envelope]:
        """Every delivery still on the heap, once per heap entry (so a
        duplicate counts twice), in no set order."""
        return (item for _time, _seq, item in self._heap if item.__class__ is Envelope)

    def honest_authorities(self) -> list:
        """Honest authorities that had not crashed by the last event."""
        return [a for name, a in self.authorities.items()
                if a.honest and not self._crashed(name, self.now)]

    def sync_deliver(self) -> None:
        """The end-of-run sync: hand every message in ``certified`` to every
        live honest authority once, in first-delivery order, draining each
        authority's self-addressed effects before the next message. It
        bypasses the network, outages and the fault model.

        One pass is enough because a message is filed only after everything
        it depends on was delivered, and so filed, before it. A certificate
        at ``(id, n+1)`` needs 2f+1 votes, so at least f+1 honest voters were
        at ``next_sequence`` n+1: each had handled the ConfirmMsg for n, or
        the CommitMsg whose unlock closed n. A debit that a credit pays for
        needs voters that had seen the credit's ConfirmMsg, and a settlement
        needs the auction's creation and its deposits. A certificate parked
        for want of funds is retried, within the same pass, by the credit
        that pays for it. The ``eventual_consistency`` audit checks that this
        reasoning holds."""
        targets = self.honest_authorities()
        for message in self.certified.values():
            for authority in targets:
                queue = [("sync", message)]
                for src, payload in queue:  # runs on as self-addressed effects join
                    outputs, _notes = authority.handle(src, payload, self.now)
                    queue.extend((dest, out) for dest, out in outputs if dest == authority.name)
