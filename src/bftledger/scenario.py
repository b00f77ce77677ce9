"""Scenario configuration and the run harness.

A scenario is a JSON document with a versioned header describing the
committee, the network model, fault assignments, genesis accounts, and a
list of timed client action blocks (transfers, swaps, auctions, asset
exchanges, algebra updates). Each object of the file declares its fields
once, below; ``validate_scenario`` checks the whole file against those
declarations and returns typed values. ``run_scenario`` builds the
deterministic simulation from them, adding each action's clients through the
``ACTIONS`` registry, runs it to quiescence or budget, and wires every
invariant audit into the report. Before the final-state audits,
``Simulator.sync_deliver`` brings each live honest authority up to date with
one pass over the certified messages the network delivered; no client state
is read for it.
"""

from __future__ import annotations

import collections
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Optional

from . import algebra as algebra_mod
from . import audit, errors, tpke, wire  # noqa: F401  (wire import freezes tags)
from .accounts import AccountId, ApplyUpdate, ChangeKey, OpenAccount, Transfer
from .auction import PriceRule
from .authority import ArbitrarySigner, Authority
from .committee import Committee, value_digest
from .drivers import (AuctionContext, DriverLog, SwapContext, Wallet, bidder_script,
                      broker_script, certified_operation, certify_asset, seller_script,
                      swap_owner_script, transmute)
from .errors import err
from .keys import mac_keypair
from .sim import SECOND, NetConfig, Simulator
from .swap import DecisionValue, RoundSchedule

SCHEMA_VERSION = 1
_REQUIRED = object()  # the default of a field that must be given


def load_scenario(path: str) -> dict:
    """The decoded JSON of a scenario file; ``run_scenario`` checks it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise err(errors.CONFIG_ERROR, f"cannot read scenario {path}: {exc}") from None


def validate_scenario(config) -> dict:
    """The scenario as typed values, defaults and action ids filled in. Anything
    malformed is a ConfigError, raised before any key is drawn or client built."""
    refs: list[tuple[str, str, Any]] = []  # see Field converters
    spec = _SCENARIO(config, "", refs)
    net, actions, n = spec["net"], spec["actions"], spec["committee"]["n"]
    if net.min_delay > min(net.max_delay, net.gst_bound) or net.xshard_min > net.xshard_max:
        raise err(errors.CONFIG_ERROR, "net: a minimum delay exceeds its maximum")
    if len(set(spec["faults"]["arbitrary_signer"])) > (n - 1) // 3:
        raise err(errors.CONFIG_ERROR, f"faults: more byzantine authorities than f, for n={n}")
    for idx, action in enumerate(actions):
        if action["id"] is None:
            action["id"] = f"{action['kind']}{idx}"
        if action["kind"] == "transmute" and len(action["data"]) != len(action["inputs"]):
            raise err(errors.CONFIG_ERROR, f"actions[{idx}]: data needs one hex string per input")
    genesis = [a["name"] for a in spec["accounts"]]
    children = [a["name"] for a in actions if a["kind"] == "open_account" and a["name"]]
    for what, keys in (("action id", [a["id"] for a in actions]), ("account", genesis + children)):
        repeated = [key for key, count in collections.Counter(keys).items() if count > 1]
        if repeated:
            raise err(errors.CONFIG_ERROR, f"duplicate {what} {repeated[0]!r}")
    known = {"account": set(genesis), "input": set(genesis + children), "authority": range(n)}
    for kind, where, value in refs:
        if value not in known[kind]:
            raise err(errors.CONFIG_ERROR, f"{where}: unknown {kind} {value!r}")
    return spec


# -- Field converters ---------------------------------------------------------------------
# A converter takes (value, where, refs) and returns the typed value, or raises
# ConfigError naming ``where``, the value's path in the file. A value that names
# an "account" (genesis), an "input" (genesis or registered by an open_account)
# or an "authority" (below committee.n) goes to ``refs`` as (kind, where, value).


def _fail(where: str, what: str, value):
    raise err(errors.CONFIG_ERROR, f"{where} must be {what}, got {value!r:.80}")


def _leaf(what: str, types: tuple, ok=None, read=None, ref: Optional[str] = None):
    """Values of ``types`` passing ``ok``, read with ``read``; one naming a ``ref`` goes to refs."""
    def conv(value, where, refs):
        if type(value) not in types or ok is not None and not ok(value):
            _fail(where, what, value)
        value = value if read is None else read(value)
        if ref:
            refs.append((ref, where, value))
        return value
    return conv


def _number(low, high, read=float):
    """A finite number in [low, high], read with ``read``; integral if that is int."""
    return _leaf(f"{'an integer' if read is int else 'a number'} in [{low}, {high}]", (int, float),
                 lambda v: low <= v <= high and (read is not int or v % 1 == 0), read)


def _one_of(allowed):
    """One of ``allowed``, of the same JSON type; read as its value if ``allowed`` is a dict."""
    table = {(type(k), k): allowed[k] if isinstance(allowed, dict) else k for k in allowed}
    return _leaf(f"one of {list(allowed)}", (str, int, bool), lambda v: (type(v), v) in table,
                 lambda v: table[type(v), v])


def _list(item, least: int = 0, most: float = float("inf")):
    span = f"{least} to {most}" if most < float("inf") else f"{least} or more"

    def conv(value, where, refs):
        if type(value) is not list or not least <= len(value) <= most:
            _fail(where, f"a list of {span} items", value)
        return [item(v, f"{where}[{i}]", refs) for i, v in enumerate(value)]
    return conv


def _by_authority(item):
    def conv(value, where, refs):
        if type(value) is not dict:
            _fail(where, "an object", value)
        return {_AUTHORITY(k, where, refs): item(v, f"{where}.{k}", refs) for k, v in value.items()}
    return conv


def _object(fields: dict, make=None):
    """An object of the declared ``fields`` and no other key: a dict of typed values,
    or ``make`` of them in declared order. A field is declared by its converter if it
    is required, else by (converter, default): None (the reader works the value out)
    or a JSON value, converted like a given one."""
    fields = {k: spec if type(spec) is tuple else (spec, _REQUIRED) for k, spec in fields.items()}

    def conv(value, where, refs):
        name, prefix = where or "scenario", f"{where}." if where else ""
        if type(value) is not dict:
            _fail(name, "an object", value)
        for key in value:
            if key not in fields:
                raise err(errors.CONFIG_ERROR, f"{name}: unknown field {key!r}")
        typed = {}
        for key, (check, default) in fields.items():
            if key in value:
                typed[key] = check(value[key], prefix + key, refs)
            elif default is _REQUIRED:
                raise err(errors.CONFIG_ERROR, f"{name}: missing field {key!r}")
            else:
                typed[key] = default if default is None else check(default, key, refs)
        return typed if make is None else make(*typed.values())
    return conv


def _utf8(text: str) -> bool:
    """Whether ``text`` has a UTF-8 form, which the codec needs; a JSON
    string may hold a lone surrogate, which has none."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _update(value, where, refs):
    """An ``apply`` update object, as the algebra's update value."""
    tag = next((t for t in _UPDATES if t in value), None) if type(value) is dict else None
    if tag is None:
        _fail(where, f"an update object with one of {list(_UPDATES)}", value)
    return _UPDATES[tag](value, where, refs)


def _action(value, where, refs):
    kind = value.get("kind") if type(value) is dict else None
    if type(kind) is not str or kind not in ACTIONS:
        _fail(f"{where}.kind", f"one of {list(ACTIONS)}", kind)
    return ACTIONS[kind][1](value, where, refs)


# -- Declarations: each scenario object but an action, whose fields are in ACTIONS ---------

_INT, _COUNT = _number(-(1 << 63), (1 << 63) - 1, int), _number(0, (1 << 63) - 1, int)
_SECONDS = _number(0, 1e9, lambda v: _ticks(float(v)))  # read as ticks
_DELAY = _number(0, 1e9)  # seconds, added to a start before they become ticks
_PROBABILITY, _TEXT = _number(0, 1), _leaf("a UTF-8 string", (str,), _utf8)
_HEX = _leaf("a string of hex digit pairs", (str,), lambda v: len(v) % 2 == 0
             and all(c in "0123456789abcdefABCDEF" for c in v), bytes.fromhex)
_NAME = _leaf("an account name", (str,), _utf8, ref="account")
_INPUT = _leaf("an account name", (str,), _utf8, ref="input")
_AUTHORITY = _leaf("an authority index", (int, str), lambda v: type(v) is int or v.isdecimal(),
                   int, ref="authority")  # an object key is a decimal string
_COMMITTEE_SIZE = _leaf("3f+1 for an integer f > 0", (int,), lambda v: v > 1 and v % 3 == 1)
_UPDATES = {
    "scalar": _object({"scalar": _INT}, algebra_mod.ScalarUpdate),
    "item": _object({"item": _HEX, "delta": _INT}, algebra_mod.ItemUpdate),
    "side": _object({"side": _INT, "inner": _update}, algebra_mod.SideUpdate),
}
_SCENARIO = _object({
    "version": _one_of((SCHEMA_VERSION,)), "name": (_TEXT, "scenario"),
    "seed": (_INT, 0), "budget_seconds": (_SECONDS, 120.0),
    "committee": (_object({"n": (_COMMITTEE_SIZE, 4)}), {}),
    "net": (_object({  # in NetConfig's order
        "min_delay_ms": (_COUNT, 10), "max_delay_ms": (_COUNT, 120),
        "drop": (_PROBABILITY, 0.0), "dup": (_PROBABILITY, 0.0),
        "gst_seconds": (_SECONDS, 0.0), "gst_bound_ms": (_COUNT, 150),
        "xshard_min_ms": (_COUNT, 1), "xshard_max_ms": (_COUNT, 60),
        "xshard_dup": (_PROBABILITY, 0.05),
    }, NetConfig), {}),
    "consensus": (_object({
        "interval_seconds": (_SECONDS, 1.0), "escalation_round": (_COUNT, 8),
        "parity_leader": (_one_of((False, True)), False),
        "delta_ms": (_COUNT, None),  # None: 4 * net.max_delay_ms
    }), {}),
    "faults": (_object({
        "arbitrary_signer": (_list(_AUTHORITY), []), "crash": (_by_authority(_SECONDS), {}),
        "withhold_votes": (_by_authority(_PROBABILITY), {}),
        "outages": (_by_authority(_list(_list(_SECONDS, 2, 2))), {}),
    }), {}),
    "accounts": (_list(_object({
        "name": _TEXT, "balance": (_COUNT, 0),
        "algebra": (_one_of(tuple(algebra_mod.ALGEBRAS)), "balance"),
        "owner": (_NAME, None),  # None: the account itself
    })), []),
    "actions": (_list(_action), []),
})


def _ticks(seconds: float) -> int:
    return int(round(seconds * SECOND))


@dataclass
class RunResult:
    """One run: what each action adds its clients to, and what they leave."""

    rng: random.Random
    sim: Simulator
    committee: Committee
    wallet: Wallet
    account_ids: dict[str, AccountId]
    timeout: int
    delta: int
    schedule: RoundSchedule
    tpke_system: Optional[tpke.TpkeSystem]
    initial_total: int
    contexts: dict[str, Any] = field(default_factory=dict)
    logs: dict[str, DriverLog] = field(default_factory=dict)
    results: dict[str, Any] = field(default_factory=dict)
    synced_snapshots: dict[str, str] = field(default_factory=dict)

    def client(self, name: str, script_factory, start: float) -> None:
        self.logs[name] = DriverLog()
        self.sim.add_client(name, script_factory)
        self.sim.start_client_at(name, _ticks(start))

    def synced_digest(self, into=None):
        """sha256 over each synced authority's name and consistency snapshot, in
        name order; ``into`` is a running digest to continue."""
        digest = into or hashlib.sha256()
        for name in sorted(self.synced_snapshots):
            digest.update(name.encode() + self.synced_snapshots[name].encode())
        return digest

    def outcomes(self) -> dict[str, Any]:
        """Each action's result and each client context's outcome, by key."""
        return {**self.results, **{key: getattr(ctx, "outcome", None)
                                   for key, ctx in self.contexts.items()}}

    def outputs_digest(self):
        """sha256 over every authority's snapshot, the results, the outcomes and
        every client's driver log, each in name order."""
        digest = hashlib.sha256()
        for name in sorted(self.sim.authorities):
            digest.update(self.sim.authorities[name].snapshot().encode())
        digest.update(repr(sorted(self.results.items())).encode())
        digest.update(repr(sorted(self.outcomes().items())).encode())
        for name in sorted(self.logs):
            digest.update(name.encode() + repr(self.logs[name].events).encode())
        return digest


@dataclass
class ScenarioReport:
    name: str
    seed: int
    end_time: int
    quiesced: bool
    delivered: int
    dropped: int
    audits: list[audit.AuditResult]
    outcomes: dict[str, Any]

    @property
    def all_passed(self) -> bool:
        return all(a.passed for a in self.audits)

    def to_text(self) -> str:
        lines = [
            f"scenario: {self.name}",
            f"seed: {self.seed}",
            f"simulated time: {self.end_time / SECOND:.3f}s"
            + ("" if self.quiesced else " (budget exceeded)"),
            f"deliveries: {self.delivered}, dropped: {self.dropped}",
            "audits:",
        ]
        lines += [f"  {a.line()}" for a in self.audits]
        lines += [f"    ! {v}" for a in self.audits for v in a.violations[:10]]
        if self.outcomes:
            lines += ["outcomes:"] + [f"  {k}: {self.outcomes[k]}" for k in sorted(self.outcomes)]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        audits = [{"name": a.name, "passed": a.passed, "violations": a.violations}
                  for a in self.audits]
        return json.dumps({
            "name": self.name, "seed": self.seed, "end_time_ticks": self.end_time,
            "quiesced": self.quiesced, "delivered": self.delivered, "dropped": self.dropped,
            "audits": audits, "outcomes": {k: repr(v) for k, v in self.outcomes.items()},
        }, indent=2, sort_keys=True)


class _AccountNames(dict):
    """Scenario account name -> UID: the genesis names, then each child that an
    open_account registers once it is certified. An unknown name is a
    config error."""

    def __missing__(self, name: str):
        raise err(errors.CONFIG_ERROR, f"unknown account name {name!r}")


def _operation(prepare):
    """Adds the client of an action that certifies one operation on one account.

    ``prepare(run, action)`` runs at build time and returns the account, a
    function that makes the operation when the client starts, and a function
    that acts on the certified operation and returns the action's result."""

    def build(run: RunResult, action: dict, key: str, start: float) -> None:
        uid, make_operation, done = prepare(run, action)

        def script(env):
            operation = make_operation()
            cert = yield from certified_operation(
                env, run.committee, run.wallet, uid, operation, run.timeout, run.logs[env.name]
            )
            run.results[key] = done(operation) if cert else "failed"

        run.client(f"client:{key}", script, start)

    return build


def _transfer(run: RunResult, action: dict):
    operation = Transfer(run.account_ids[action["to"]], action["value"])
    return run.account_ids[action["from"]], lambda: operation, lambda _op: "ok"


def _open_account(run: RunResult, action: dict):
    owner = run.account_ids[action["owner"]]
    signer = mac_keypair(run.rng)

    def make_operation():
        return OpenAccount(owner.child(run.wallet[owner].next_sequence), signer.public_key)

    def done(operation: OpenAccount) -> str:
        run.wallet.add(operation.child, signer)
        if action["name"]:
            run.account_ids[action["name"]] = operation.child
        return str(operation.child)

    return owner, make_operation, done


def _change_key(run: RunResult, action: dict):
    target = run.account_ids[action["account"]]
    signer = mac_keypair(run.rng)

    def done(_op) -> str:
        run.wallet[target].signer = signer
        return "ok"

    return target, lambda: ChangeKey(signer.public_key), done


def _apply(run: RunResult, action: dict):
    operation = ApplyUpdate(run.account_ids[action["to"]], action["u_minus"], action["u_plus"])
    return run.account_ids[action["from"]], lambda: operation, lambda _op: "ok"


def _swap(run: RunResult, action: dict, key: str, start: float) -> None:
    ids = {1: run.account_ids[action["owner1"]], 2: run.account_ids[action["owner2"]]}
    ctx = run.contexts[key] = SwapContext(id1=ids[1], n1=0, id2=ids[2], n2=0)
    handover = {1: mac_keypair(run.rng), 2: mac_keypair(run.rng)}
    broker_id = ids[action["broker"]]
    deadline = run.sim.budget if action["deadline_seconds"] is None else action["deadline_seconds"]

    def broker(env):
        # The owners lock after the instance is created, so when the broker
        # is one of them its own creation op bumps its sequence.
        ctx.n1 = run.wallet[ids[1]].next_sequence + (1 if ids[1] == broker_id else 0)
        ctx.n2 = run.wallet[ids[2]].next_sequence + (1 if ids[2] == broker_id else 0)
        yield from broker_script(env, run.committee, run.wallet, broker_id, ctx, run.timeout,
                                 run.logs[env.name])

    run.client(f"client:{key}.broker", broker, start)
    for role in (1, 2):
        if action[f"owner{role}_behavior"] == "absent":
            continue

        def owner(env, role=role):
            yield from swap_owner_script(
                env, run.committee, run.wallet, ids[role], role, ctx, handover[role],
                run.timeout, run.delta, run.schedule, run.logs[env.name],
                behavior=action[f"owner{role}_behavior"],
                drives=role in action["drivers"],
                desired=action[f"owner{role}_desired"],
                lock_wait=action["lock_wait_seconds"],
                deadline=deadline,
            )

        run.client(f"client:{key}.owner{role}", owner, start + action[f"owner{role}_delay"])


def _auction(run: RunResult, action: dict, key: str, start: float) -> None:
    seller_id, item_id = run.account_ids[action["seller"]], run.account_ids[action["item"]]
    ctx = run.contexts[key] = AuctionContext(expected_bidders=len(action["bidders"]))

    def seller(env):
        yield from seller_script(
            env, run.committee, run.wallet, seller_id, item_id, action["rule"], ctx,
            run.tpke_system.public, run.timeout, run.logs[env.name],
            behavior=action["seller_behavior"],
            bid_wait=action["bid_wait_seconds"],
        )

    run.client(f"client:{key}.seller", seller, start)
    for b_idx, bidder in enumerate(action["bidders"]):
        def bid(env, uid=run.account_ids[bidder["name"]], bidder=bidder):
            yield from bidder_script(
                env, run.committee, run.wallet, uid, bidder["bid"], bidder["deposit"], ctx,
                run.tpke_system.public, run.sim.rng, run.timeout, run.logs[env.name],
            )

        delay = 0.05 * (b_idx + 1) if bidder["delay"] is None else bidder["delay"]
        run.client(f"client:{key}.bidder{b_idx}", bid, start + delay)


def _transmute(run: RunResult, action: dict, key: str, start: float) -> None:
    def script(env):
        log = run.logs[env.name]
        # Resolved when the client runs: an input may name a child account
        # that an earlier open_account registered, or has not certified yet.
        if any(name not in run.account_ids for name in action["inputs"]):
            run.results[key] = "unknown_input"
            return
        input_ids = [run.account_ids[name] for name in action["inputs"]]
        asset_certs = []
        for uid, payload in zip(input_ids, action["data"]):
            cert = yield from certify_asset(env, run.committee, run.wallet, uid, payload,
                                            run.timeout, log)
            if cert is None:
                run.results[key] = "certify_failed"
                return
            asset_certs.append(cert)
        for _ in range(action["repeat"]):
            outputs = yield from transmute(
                env, run.committee, run.wallet, action["fexec"], action["params"], input_ids,
                asset_certs, action["outputs"], run.timeout, log,
            )
            if outputs is None:
                run.results[key] = "failed"
                return
        run.results[key] = [value_digest(c.value).hex() for c in outputs]

    run.client(f"client:{key}", script, start)


_COMMON = {"kind": _TEXT, "id": (_TEXT, None), "start": (_DELAY, 0.0)}  # id None: kind + index
_BEHAVIOR = _one_of(("honest", "flip_flop", "no_lock", "absent"))
_DESIRED = _one_of({"auto": None, "confirm": DecisionValue.CONFIRM, "abort": DecisionValue.ABORT})

# Scenario action kind -> (function adding that action's clients to the run,
# the declaration of the action's fields).
ACTIONS = {
    "transfer": (_operation(_transfer), _object({
        **_COMMON, "from": _NAME, "to": _NAME, "value": _INT})),
    "open_account": (_operation(_open_account), _object({
        **_COMMON, "owner": _NAME, "name": (_TEXT, None)})),
    "change_key": (_operation(_change_key), _object({**_COMMON, "account": _NAME})),
    "apply": (_operation(_apply), _object({**_COMMON, "from": _NAME, "to": _NAME,
                                           "u_minus": _update, "u_plus": _update})),
    "swap": (_swap, _object({
        **_COMMON, "owner1": _NAME, "owner2": _NAME,
        "broker": (_one_of({"owner1": 1, "owner2": 2}), "owner1"),
        "drivers": (_list(_one_of((1, 2)), 1), [1]),
        "owner1_behavior": (_BEHAVIOR, "honest"), "owner2_behavior": (_BEHAVIOR, "honest"),
        "owner1_desired": (_DESIRED, "auto"), "owner2_desired": (_DESIRED, "auto"),
        "owner1_delay": (_DELAY, 0.1), "owner2_delay": (_DELAY, 0.2),
        "lock_wait_seconds": (_SECONDS, 4.0), "deadline_seconds": (_SECONDS, None),  # None: budget
    })),
    "auction": (_auction, _object({
        **_COMMON, "seller": _NAME, "item": _NAME,
        "rule": (_one_of({"first_price": PriceRule.FIRST_PRICE,
                          "second_price": PriceRule.SECOND_PRICE}), "second_price"),
        "seller_behavior": (_one_of(("honest", "withhold", "misreport")), "honest"),
        "bid_wait_seconds": (_SECONDS, 20.0),
        "bidders": (_list(_object({
            "name": _NAME, "bid": _number(0, tpke.DEFAULT_MESSAGE_BOUND - 1, int), "deposit": _INT,
            "delay": (_DELAY, None),  # None: 0.05 s times the bidder's position from 1
        })), []),
    })),
    "transmute": (_transmute, _object({
        **_COMMON, "inputs": _list(_INPUT, 1), "data": _list(_HEX), "fexec": _TEXT,
        "params": (_HEX, ""), "outputs": (_COUNT, 1), "repeat": (_number(1, (1 << 63) - 1, int), 1),
    })),
}


def run_scenario(config: dict, seed: Optional[int] = None) -> tuple[RunResult, ScenarioReport]:
    spec = validate_scenario(config)
    seed = spec["seed"] if seed is None else seed
    rng = random.Random(seed)

    n = spec["committee"]["n"]
    signers = [mac_keypair(rng) for _ in range(n)]
    committee = Committee(tuple(s.public_key for s in signers))

    net = spec["net"]
    timeout = max(500, 4 * net.max_delay)

    consensus = spec["consensus"]
    delta = 4 * net.max_delay if consensus["delta_ms"] is None else consensus["delta_ms"]
    schedule = RoundSchedule(consensus["interval_seconds"], consensus["escalation_round"])

    # Genesis accounts: root index is list position; children inherit the class.
    accounts = spec["accounts"]
    account_ids = _AccountNames((acct["name"], AccountId(i)) for i, acct in enumerate(accounts))
    root_algebra = {i: acct["algebra"] for i, acct in enumerate(accounts)}
    owner_signers = [mac_keypair(rng) for _ in accounts]
    wallet = Wallet()
    for acct in accounts:
        owner = account_ids[acct["name"] if acct["owner"] is None else acct["owner"]]
        wallet.add(account_ids[acct["name"]], owner_signers[owner.root])

    def algebra_of(uid: AccountId) -> str:
        return root_algebra.get(uid.root, "balance")

    faults = spec["faults"]
    byzantine = set(faults["arbitrary_signer"])
    tpke_system = None
    if any(a["kind"] == "auction" for a in spec["actions"]):
        tpke_system = tpke.setup(n, committee.f + 1, rng=rng)

    authorities = [
        (ArbitrarySigner if i in byzantine else Authority)(
            i, signers[i], committee, algebra_of=algebra_of, schedule=schedule,
            parity_leader=consensus["parity_leader"],
            tpke_public=tpke_system.public if tpke_system else None,
            tpke_share=tpke_system.shares[i] if tpke_system else None,
        )
        for i in range(n)
    ]
    initial_total = sum(acct["balance"] for acct in accounts)
    for acct in accounts:
        uid = account_ids[acct["name"]]
        for authority in authorities:
            authority.ledger.init_account(uid, wallet[uid].pk, balance=acct["balance"])

    sim = Simulator(seed=rng.randrange(1 << 62), net=net, budget=spec["budget_seconds"])
    for authority in authorities:
        sim.add_authority(authority)
    sim.crash_at.update((f"auth:{i}", when) for i, when in faults["crash"].items())
    sim.withhold.update((f"auth:{i}", p) for i, p in faults["withhold_votes"].items())
    sim.outages.update((f"auth:{i}", windows) for i, windows in faults["outages"].items())

    run = RunResult(rng, sim, committee, wallet, account_ids, timeout, delta, schedule,
                    tpke_system, initial_total)
    for action in spec["actions"]:
        ACTIONS[action["kind"]][0](run, action, action["id"], action["start"])

    sim.run()

    sim.sync_deliver()
    run.synced_snapshots = {a.name: a.consistency_snapshot() for a in sim.honest_authorities()}

    audits = audit.run_standard_audits(sim, committee, initial_total,
                                       synced_snapshots=run.synced_snapshots)
    report = ScenarioReport(
        name=spec["name"], seed=seed, end_time=sim.now, quiesced=not sim.budget_exceeded,
        delivered=sim.stats["delivered"], dropped=sim.stats["dropped"], audits=audits,
        outcomes=run.outcomes(),
    )
    return run, report
