"""Simulator semantics: determinism, network faults, client coroutines."""

import dataclasses
import hashlib

from bftledger import serialize
from bftledger.committee import value_digest
from bftledger.sim import SECOND, ClientEnv, NetConfig, Simulator
from bftledger.messages import AckReply
from bftledger.trace import TraceEvent


class EchoAuthority:
    honest = True

    def __init__(self, index):
        self.index = index
        self.name = f"auth:{index}"
        self.seen = []

    def handle(self, src, payload, now):
        self.seen.append(payload)
        return [(src, AckReply("ok"))], []


def build(seed, net=NetConfig()):
    sim = Simulator(seed=seed, net=net, budget=60 * SECOND)
    for i in range(4):
        sim.add_authority(EchoAuthority(i))
    return sim


def ping_script(results):
    def script(env: ClientEnv):
        env.broadcast(AckReply("ping"))
        got = 0
        while got < 4:
            envelope = yield env.recv(timeout=2 * SECOND)
            if envelope is None:
                break
            got += 1
        results.append((env.now, got))

    return script


def test_same_seed_same_trace():
    def run(seed):
        sim = build(seed)
        results = []
        sim.add_client("client:a", ping_script(results))
        sim.start_client_at("client:a", 0)
        sim.run()
        return sim.trace.to_bytes()

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_drop_probability_loses_messages():
    net = NetConfig(drop=1.0, gst=10 * SECOND)
    sim = build(3, net)
    results = []
    sim.add_client("client:a", ping_script(results))
    sim.start_client_at("client:a", 0)
    sim.run()
    assert results[0][1] == 0
    assert sim.stats["dropped"] >= 4


def test_no_drops_after_gst():
    net = NetConfig(drop=1.0, gst=0)
    sim = build(3, net)
    results = []
    sim.add_client("client:a", ping_script(results))
    sim.start_client_at("client:a", 0)
    sim.run()
    assert results[0][1] == 4


def test_duplicates_delivered_twice():
    net = NetConfig(dup=1.0)
    sim = build(4, net)
    sim.add_client("client:a", ping_script([]))
    sim.start_client_at("client:a", 0)
    sim.run()
    assert all(len(a.seen) == 2 for a in sim.authorities.values())


def test_crashed_authority_silent():
    sim = build(5)
    sim.crash_at["auth:0"] = 0
    results = []
    sim.add_client("client:a", ping_script(results))
    sim.start_client_at("client:a", 0)
    sim.run()
    assert results[0][1] == 3
    assert sim.authorities["auth:0"].seen == []


def test_outage_window_blocks_then_heals():
    sim = build(6)
    sim.outages["auth:0"] = [(0, 5 * SECOND)]
    results = []

    def script(env: ClientEnv):
        env.send("auth:0", AckReply("early"))
        yield env.sleep(6 * SECOND)
        env.send("auth:0", AckReply("late"))
        envelope = yield env.recv(timeout=2 * SECOND)
        results.append(envelope is not None)

    sim.add_client("client:a", script)
    sim.start_client_at("client:a", 0)
    sim.run()
    assert [m.status for m in sim.authorities["auth:0"].seen] == ["late"]
    assert results == [True]


def test_sleep_advances_time():
    sim = build(7)
    times = []

    def script(env: ClientEnv):
        times.append(env.now)
        yield env.sleep(1500)
        times.append(env.now)

    sim.add_client("client:a", script)
    sim.start_client_at("client:a", 100)
    sim.run()
    assert times == [100, 1600]


def test_recv_timeout_returns_none():
    sim = build(8)
    outcomes = []

    def script(env: ClientEnv):
        envelope = yield env.recv(timeout=500)
        outcomes.append(envelope)

    sim.add_client("client:a", script)
    sim.start_client_at("client:a", 0)
    sim.run()
    assert outcomes == [None]
    assert sim.now >= 500


def test_inbox_buffers_when_not_waiting():
    sim = build(9)
    got = []

    def script(env: ClientEnv):
        env.send("auth:1", AckReply("ping"))
        yield env.sleep(5 * SECOND)  # the reply arrives while we sleep
        envelope = yield env.recv(timeout=100)
        got.append(envelope.payload if envelope else None)

    sim.add_client("client:a", script)
    sim.start_client_at("client:a", 0)
    sim.run()
    assert isinstance(got[0], AckReply)


def test_budget_exceeded_reported():
    sim = Simulator(seed=1, net=NetConfig(), budget=1000)

    def script(env: ClientEnv):
        while True:
            yield env.sleep(400)

    sim.add_client("client:a", script)
    sim.start_client_at("client:a", 0)
    sim.run()
    assert sim.budget_exceeded
    assert sim.now <= 1000


def test_crash_after_last_event_is_still_honest():
    sim = build(5)
    sim.crash_at["auth:0"] = 0
    sim.crash_at["auth:1"] = 100 * SECOND  # scheduled after the run's last event
    results = []
    sim.add_client("client:a", ping_script(results))
    sim.start_client_at("client:a", 0)
    sim.run()
    assert sim.now < sim.crash_at["auth:1"]
    assert [a.name for a in sim.honest_authorities()] == ["auth:1", "auth:2", "auth:3"]


class SyncStub:
    """Answers a filed message with a self-addressed effect, which yields one
    more, plus a reply to a client that the sync must not deliver."""

    def __init__(self, index, honest=True):
        self.index = index
        self.name = f"auth:{index}"
        self.honest = honest
        self.seen = []

    def handle(self, src, payload, now):
        self.seen.append((src, payload))
        if isinstance(payload, str):
            return [(self.name, ("effect", payload)), ("client:a", AckReply(payload))], []
        if payload[0] == "effect":
            return [(self.name, ("settled", payload[1]))], []
        return [], []


def test_sync_deliver_one_pass_in_first_delivery_order():
    sim = Simulator(seed=1)
    stubs = [SyncStub(0), SyncStub(1), SyncStub(2, honest=False), SyncStub(3)]
    for stub in stubs:
        sim.add_authority(stub)
    sim.crash_at["auth:1"] = 0
    sim.certified.update({b"\x02": "m2", b"\x00": "m0", b"\x01": "m1"})
    sim.sync_deliver()

    for stub in (stubs[0], stubs[3]):
        expected = []
        for message in ("m2", "m0", "m1"):  # filing order
            expected += [("sync", message), (stub.name, ("effect", message)),
                         (stub.name, ("settled", message))]
        assert stub.seen == expected
    assert stubs[1].seen == stubs[2].seen == []


class RelayStub:
    """Answers a message from elsewhere with a self-addressed effect and a
    reply to its sender; an effect comes back as an audit note."""

    honest = True

    def __init__(self, index):
        self.name = f"auth:{index}"

    def handle(self, src, payload, now):
        if src == self.name:
            return [], [("effect", payload.status)]
        return [(self.name, AckReply("effect:" + payload.status)), (src, AckReply("ok"))], []


def faulty_run():
    """A stub run that makes every kind of random draw: pre-GST drops and
    duplicates, cross-shard delays and duplicates, and the withheld-vote draw
    for an authority that withholds and for ones that do not; it also meets
    an outage window and a crash."""
    net = NetConfig(drop=0.2, dup=0.2, gst=3 * SECOND, xshard_dup=0.3)
    sim = Simulator(seed=23, net=net, budget=60 * SECOND)
    for i in range(4):
        sim.add_authority(RelayStub(i))
    sim.crash_at["auth:3"] = 2 * SECOND
    sim.outages["auth:2"] = [(SECOND // 2, 3 * SECOND // 2)]
    sim.withhold["auth:1"] = 0.5

    def script(env: ClientEnv):
        for round_ in range(12):
            env.broadcast(AckReply(f"{env.name}/{round_}"))
            deadline = env.now + 400
            while env.now < deadline:
                if (yield env.recv(timeout=deadline - env.now)) is None:
                    break

    for name in ("client:a", "client:b"):
        sim.add_client(name, script)
    sim.start_client_at("client:a", 0)
    sim.start_client_at("client:b", 150)
    sim.run()
    return sim


def test_faulty_run_trace_is_pinned():
    # Pinned before the simulator's per-message path was rewritten: the RNG
    # draw order, the 0.0 withhold draw included, is part of the trace.
    sim = faulty_run()
    assert sim.stats == {"delivered": 257, "dropped": 30}
    assert len(sim.trace.notes) == 101
    assert hashlib.sha256(sim.trace.to_bytes()).hexdigest() == (
        "4deeba78d803f38d0457861511d52e20decd8cc291619c6d65baf15d893cc39a")


def test_trace_records_are_trace_events_by_field():
    """The writer keeps light records; each is a TraceEvent's fields in order,
    and the file is the records encoded as TraceEvents."""
    sim = faulty_run()
    events = sim.trace.events
    assert len(events) == sim.stats["delivered"]
    assert list(type(events[0])._fields) == [f.name for f in dataclasses.fields(TraceEvent)]
    assert sim.trace.to_bytes() == b"".join(serialize.encode(TraceEvent(*e)) for e in events)
    # The fields a benchmark or an audit reads by name.
    first = events[0]
    assert (first.time, first.src, first.dest, first.kind) == (first[0], first[2], first[3], first[4])
    assert first.src == "client:a" and first.dest.startswith("auth:") and first.kind == "AckReply"
    assert first.digest == value_digest(AckReply("client:a/0"))
    assert all(a.time <= b.time for a, b in zip(events, events[1:]))
