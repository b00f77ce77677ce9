"""Scenario configuration and the run harness.

A scenario is a JSON document with a versioned header describing the
committee, the network model, fault assignments, genesis accounts, and a
list of timed client action blocks (transfers, swaps, auctions, asset
exchanges, algebra updates). ``run_scenario`` builds the deterministic
simulation, adding each action's clients through the ``ACTIONS`` registry,
runs it to quiescence or budget, performs the end-of-run full sync, and
wires every invariant audit into the report.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Optional

from . import algebra as algebra_mod
from . import audit, errors, tpke, wire  # noqa: F401  (wire import freezes tags)
from .accounts import AccountId, ApplyUpdate, ChangeKey, OpenAccount, Transfer
from .auction import PriceRule
from .authority import ArbitrarySigner, Authority
from .committee import Committee, value_digest
from .drivers import (
    AuctionContext,
    DriverLog,
    SwapContext,
    Wallet,
    bidder_script,
    broker_script,
    certified_operation,
    certify_asset,
    seller_script,
    swap_owner_script,
    transmute,
)
from .errors import err
from .keys import mac_keypair
from .messages import CommitMsg, ConfirmMsg
from .sim import SECOND, NetConfig, Simulator
from .swap import DecisionValue, RoundSchedule

SCHEMA_VERSION = 1


def load_scenario(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    validate_scenario(config)
    return config


def validate_scenario(config: dict) -> None:
    if not isinstance(config, dict):
        raise err(errors.CONFIG_ERROR, "scenario must be a JSON object")
    if config.get("version") != SCHEMA_VERSION:
        raise err(errors.CONFIG_ERROR, f"unsupported scenario version {config.get('version')!r}")
    n = config.get("committee", {}).get("n", 4)
    if type(n) is not int or n < 4 or (n - 1) % 3 != 0:
        raise err(errors.CONFIG_ERROR, f"committee size must be an integer 3f+1, got {n!r}")
    f = (n - 1) // 3
    faults = config.get("faults", {})
    if type(faults) is not dict:
        raise err(errors.CONFIG_ERROR, f"faults must be a JSON object, got {faults!r}")
    for key, kind in (("arbitrary_signer", list), ("crash", dict),
                      ("withhold_votes", dict), ("outages", dict)):
        indices = faults.get(key, kind())
        if type(indices) is not kind or not all(_is_authority(i, n) for i in indices):
            raise err(errors.CONFIG_ERROR,
                      f"faults.{key} must name authorities 0..{n - 1}, got {indices!r}")
    byzantine = len({int(i) for i in faults.get("arbitrary_signer", [])})
    if byzantine > f:
        raise err(errors.CONFIG_ERROR, f"{byzantine} byzantine authorities exceeds f={f}")
    accounts = [_Fields(f"account {i}", a) for i, a in enumerate(config.get("accounts", []))]
    for acct in accounts:
        acct.choice("algebra", "balance", algebra_mod.ALGEBRAS)
    names = [a["name"] for a in accounts]
    if len(names) != len(set(names)):
        raise err(errors.CONFIG_ERROR, "duplicate account names")
    for action in config.get("actions", []):
        if action.get("kind") not in ACTIONS:
            raise err(errors.CONFIG_ERROR, f"unknown action kind {action.get('kind')!r}")


def _is_authority(index, n: int) -> bool:
    """An authority index 0..n-1, as an integer or (a JSON object key) its decimal string."""
    if type(index) is str and index.isdecimal():
        index = int(index)
    return type(index) is int and 0 <= index < n


class _Fields(dict):
    """One object of a scenario file. A missing required field, or an
    enumerated field outside its allowed values, is a config error."""

    def __init__(self, where: str, fields: dict):
        super().__init__(fields)
        self.where = where

    def __missing__(self, key: str):
        raise err(errors.CONFIG_ERROR, f"{self.where}: missing field {key!r}")

    def number(self, key: str, default=None, kind=float):
        """A numeric field; required when there is no default."""
        value = self[key] if default is None else self.get(key, default)
        return _number(value, f"{self.where}: {key}", kind)

    def choice(self, key: str, default: str, allowed):
        value = self.get(key, default)
        if value not in allowed:
            raise err(errors.CONFIG_ERROR,
                      f"{self.where}: {key} must be one of {sorted(allowed)}, got {value!r}")
        return value


def _hex(action: _Fields, key: str, value) -> bytes:
    try:
        return bytes.fromhex(value)
    except (TypeError, ValueError):
        raise err(errors.CONFIG_ERROR, f"{action.where}: {key} must be hex, got {value!r}") from None


def _number(value, what: str, kind=float):
    """A scenario number as ``kind``: a finite int or float, integral for
    ``int``. Anything else (a string, a bool, NaN) is a config error."""
    if type(value) is int or (type(value) is float and math.isfinite(value)
                              and (kind is float or value.is_integer())):
        return kind(value)
    noun = "an integer" if kind is int else "a number"
    raise err(errors.CONFIG_ERROR, f"{what} must be {noun}, got {value!r}")


def _ticks(seconds: float) -> int:
    return int(round(seconds * SECOND))


def parse_update(obj: dict):
    obj = _Fields("update", obj)
    if "scalar" in obj:
        return algebra_mod.ScalarUpdate(obj.number("scalar", kind=int))
    if "item" in obj:
        return algebra_mod.ItemUpdate(bytes.fromhex(obj["item"]), obj.number("delta", kind=int))
    if "side" in obj:
        return algebra_mod.SideUpdate(obj.number("side", kind=int), parse_update(obj["inner"]))
    raise err(errors.CONFIG_ERROR, f"cannot parse update {obj!r}")


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
        for a in self.audits:
            for v in a.violations[:10]:
                lines.append(f"    ! {v}")
        if self.outcomes:
            lines.append("outcomes:")
            for key in sorted(self.outcomes):
                lines.append(f"  {key}: {self.outcomes[key]}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "seed": self.seed,
                "end_time_ticks": self.end_time,
                "quiesced": self.quiesced,
                "delivered": self.delivered,
                "dropped": self.dropped,
                "audits": [
                    {"name": a.name, "passed": a.passed, "violations": a.violations}
                    for a in self.audits
                ],
                "outcomes": {k: repr(v) for k, v in self.outcomes.items()},
            },
            indent=2,
            sort_keys=True,
        )


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
    src, dest = run.account_ids[action["from"]], run.account_ids[action["to"]]
    operation = Transfer(dest, action.number("value", kind=int))
    return src, lambda: operation, lambda _op: "ok"


def _open_account(run: RunResult, action: dict):
    owner = run.account_ids[action["owner"]]
    signer = mac_keypair(run.rng)

    def make_operation():
        return OpenAccount(owner.child(run.wallet[owner].next_sequence), signer.public_key)

    def done(operation: OpenAccount) -> str:
        run.wallet.add(operation.child, signer)
        if action.get("name"):
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
    src, dest = run.account_ids[action["from"]], run.account_ids[action["to"]]
    operation = ApplyUpdate(dest, parse_update(action["u_minus"]), parse_update(action["u_plus"]))
    return src, lambda: operation, lambda _op: "ok"


_OWNER_BEHAVIORS = ("honest", "flip_flop", "no_lock", "absent")
_DESIRED = {"auto": None, "confirm": DecisionValue.CONFIRM, "abort": DecisionValue.ABORT}
_RULES = {"first_price": PriceRule.FIRST_PRICE, "second_price": PriceRule.SECOND_PRICE}


def _swap(run: RunResult, action: dict, key: str, start: float) -> None:
    committee, wallet, timeout = run.committee, run.wallet, run.timeout
    id1 = run.account_ids[action["owner1"]]
    id2 = run.account_ids[action["owner2"]]
    ctx = SwapContext(id1=id1, n1=0, id2=id2, n2=0)
    run.contexts[key] = ctx
    handover = {1: mac_keypair(run.rng), 2: mac_keypair(run.rng)}
    owners = {"owner1": id1, "owner2": id2}
    broker_id = owners[action.choice("broker", "owner1", owners)]
    drivers_cfg = action.get("drivers", [1])
    if type(drivers_cfg) is not list or not drivers_cfg or any(
            type(r) is not int or r not in (1, 2) for r in drivers_cfg):
        raise err(errors.CONFIG_ERROR, f"{action.where}: drivers must be a non-empty list of 1 and 2")
    deadline = run.sim.budget
    if "deadline_seconds" in action:
        deadline = _ticks(action.number("deadline_seconds"))
    lock_wait = _ticks(action.number("lock_wait_seconds", 4.0))

    def broker(env):
        # The owners lock after the instance is created, so when the broker
        # is one of them its own creation op bumps its sequence.
        ctx.n1 = wallet[id1].next_sequence + (1 if id1 == broker_id else 0)
        ctx.n2 = wallet[id2].next_sequence + (1 if id2 == broker_id else 0)
        yield from broker_script(env, committee, wallet, broker_id, ctx, timeout, run.logs[env.name])

    run.client(f"client:{key}.broker", broker, start)

    for role, owner_id in ((1, id1), (2, id2)):
        behavior = action.choice(f"owner{role}_behavior", "honest", _OWNER_BEHAVIORS)
        if behavior == "absent":
            continue
        desired = _DESIRED[action.choice(f"owner{role}_desired", "auto", _DESIRED)]

        def owner(env, _role=role, _uid=owner_id, _behavior=behavior, _desired=desired):
            yield from swap_owner_script(
                env, committee, wallet, _uid, _role, ctx, handover[_role],
                timeout, run.delta, run.schedule, run.logs[env.name],
                behavior=_behavior,
                drives=_role in drivers_cfg,
                desired=_desired,
                lock_wait=lock_wait,
                deadline=deadline,
            )

        run.client(
            f"client:{key}.owner{role}",
            owner,
            start + action.number(f"owner{role}_delay", 0.1 * role),
        )


def _auction(run: RunResult, action: dict, key: str, start: float) -> None:
    committee, wallet, timeout = run.committee, run.wallet, run.timeout
    seller_id = run.account_ids[action["seller"]]
    item_id = run.account_ids[action["item"]]
    rule = _RULES[action.choice("rule", "second_price", _RULES)]
    behavior = action.choice("seller_behavior", "honest", ("honest", "withhold", "misreport"))
    bid_wait = _ticks(action.number("bid_wait_seconds", 20.0))
    ctx = AuctionContext(expected_bidders=len(action.get("bidders", [])))
    run.contexts[key] = ctx

    def seller(env):
        yield from seller_script(
            env, committee, wallet, seller_id, item_id, rule, ctx,
            run.tpke_system.public, timeout, run.logs[env.name],
            behavior=behavior,
            bid_wait=bid_wait,
        )

    run.client(f"client:{key}.seller", seller, start)
    for b_idx, bidder in enumerate(action.get("bidders", [])):
        bidder = _Fields(f"{action.where} bidder {b_idx}", bidder)
        bidder_id = run.account_ids[bidder["name"]]

        def bid(env, _uid=bidder_id, _bid=bidder.number("bid", kind=int),
                _deposit=bidder.number("deposit", kind=int)):
            yield from bidder_script(
                env, committee, wallet, _uid, _bid, _deposit, ctx,
                run.tpke_system.public, run.sim.rng, timeout, run.logs[env.name],
            )

        run.client(f"client:{key}.bidder{b_idx}", bid,
                   start + bidder.number("delay", 0.05 * (b_idx + 1)))


def _transmute(run: RunResult, action: dict, key: str, start: float) -> None:
    committee, wallet, timeout = run.committee, run.wallet, run.timeout
    names, fexec = action["inputs"], action["fexec"]
    if (type(names) is not list or not names or any(type(name) is not str for name in names)
            or type(action["data"]) is not list or len(action["data"]) != len(names)):
        raise err(errors.CONFIG_ERROR, f"{action.where}: inputs must be a non-empty list of "
                                       "account names, and data one hex string per input")
    data = [_hex(action, "data", h) for h in action["data"]]
    params = _hex(action, "params", action.get("params", ""))
    out_count = action.number("outputs", 1, kind=int)
    repeat = action.number("repeat", 1, kind=int)

    def script(env):
        log = run.logs[env.name]
        # Resolved when the client runs: an input may name a child account
        # that an earlier open_account registered.
        input_ids = [run.account_ids[name] for name in names]
        asset_certs = []
        for uid, payload in zip(input_ids, data):
            cert = yield from certify_asset(env, committee, wallet, uid, payload, timeout, log)
            if cert is None:
                run.results[key] = "certify_failed"
                return
            asset_certs.append(cert)
        outputs = None
        for _ in range(repeat):
            outputs = yield from transmute(
                env, committee, wallet, fexec, params, input_ids,
                asset_certs, out_count, timeout, log,
            )
            if outputs is None:
                run.results[key] = "failed"
                return
        run.results[key] = [value_digest(c.value).hex() for c in outputs]

    run.client(f"client:{key}", script, start)


# Scenario action kind -> function adding that action's clients to the run.
ACTIONS = {
    "transfer": _operation(_transfer),
    "open_account": _operation(_open_account),
    "change_key": _operation(_change_key),
    "apply": _operation(_apply),
    "swap": _swap,
    "auction": _auction,
    "transmute": _transmute,
}


def run_scenario(config: dict, seed: Optional[int] = None) -> tuple[RunResult, ScenarioReport]:
    validate_scenario(config)
    seed = config.get("seed", 0) if seed is None else seed
    rng = random.Random(seed)

    committee_cfg = config.get("committee", {})
    n = committee_cfg.get("n", 4)
    signers = [mac_keypair(rng) for _ in range(n)]
    committee = Committee(tuple(s.public_key for s in signers))

    net_cfg = _Fields("net", config.get("net", {}))
    net = NetConfig(
        min_delay=net_cfg.number("min_delay_ms", 10, kind=int),
        max_delay=net_cfg.number("max_delay_ms", 120, kind=int),
        drop=net_cfg.number("drop", 0.0),
        dup=net_cfg.number("dup", 0.0),
        gst=_ticks(net_cfg.number("gst_seconds", 0.0)),
        gst_bound=net_cfg.number("gst_bound_ms", 150, kind=int),
        xshard_min=net_cfg.number("xshard_min_ms", 1, kind=int),
        xshard_max=net_cfg.number("xshard_max_ms", 60, kind=int),
        xshard_dup=net_cfg.number("xshard_dup", 0.05),
    )
    timeout = max(500, 4 * net.max_delay)

    consensus_cfg = _Fields("consensus", config.get("consensus", {}))
    delta = consensus_cfg.number("delta_ms", 4 * net.max_delay, kind=int)
    schedule = RoundSchedule(
        interval=_ticks(consensus_cfg.number("interval_seconds", 1.0)),
        escalation_round=consensus_cfg.number("escalation_round", 8, kind=int),
    )
    parity = consensus_cfg.get("parity_leader", False)

    # Genesis accounts: root index is list position; children inherit the class.
    account_ids = _AccountNames()
    root_algebra: dict[int, str] = {}
    wallet = Wallet()
    accounts_cfg = config.get("accounts", [])
    for i, acct in enumerate(accounts_cfg):
        uid = AccountId(i)
        account_ids[acct["name"]] = uid
        root_algebra[i] = acct.get("algebra", "balance")
    owner_signers = [mac_keypair(rng) for _ in accounts_cfg]
    for acct in accounts_cfg:
        owner = account_ids[acct.get("owner", acct["name"])]
        wallet.add(account_ids[acct["name"]], owner_signers[owner.root])

    def algebra_of(uid: AccountId) -> str:
        return root_algebra.get(uid.root, "balance")

    faults = config.get("faults", {})
    byzantine = {int(i) for i in faults.get("arbitrary_signer", [])}
    tpke_system = None
    if any(a.get("kind") == "auction" for a in config.get("actions", [])):
        tpke_system = tpke.setup(n, committee.f + 1, rng=rng)

    authorities = []
    for i in range(n):
        cls = ArbitrarySigner if i in byzantine else Authority
        authorities.append(
            cls(
                i,
                signers[i],
                committee,
                algebra_of=algebra_of,
                schedule=schedule,
                parity_leader=parity,
                tpke_public=tpke_system.public if tpke_system else None,
                tpke_share=tpke_system.shares[i] if tpke_system else None,
            )
        )
    initial_total = 0
    for i, acct in enumerate(accounts_cfg):
        balance = _number(acct.get("balance", 0), f"account {i}: balance", int)
        initial_total += balance
        for authority in authorities:
            entry = wallet[account_ids[acct["name"]]]
            authority.ledger.init_account(account_ids[acct["name"]], entry.pk, balance=balance)

    sim = Simulator(
        seed=rng.randrange(1 << 62),
        net=net,
        budget=_ticks(_number(config.get("budget_seconds", 120.0), "budget_seconds")),
    )
    for authority in authorities:
        sim.add_authority(authority)
    for idx, when in faults.get("crash", {}).items():
        sim.crash_at[f"auth:{int(idx)}"] = _ticks(_number(when, f"faults.crash.{idx}"))
    for idx, p in faults.get("withhold_votes", {}).items():
        sim.withhold[f"auth:{int(idx)}"] = _number(p, f"faults.withhold_votes.{idx}")
    for idx, windows in faults.get("outages", {}).items():
        what = f"faults.outages.{idx}"
        sim.outages[f"auth:{int(idx)}"] = [(_ticks(_number(a, what)), _ticks(_number(b, what)))
                                           for a, b in windows]

    run = RunResult(rng, sim, committee, wallet, account_ids, timeout, delta, schedule,
                    tpke_system, initial_total)
    for idx, action in enumerate(config.get("actions", [])):
        kind = action["kind"]
        key = action.get("id", f"{kind}{idx}")
        fields = _Fields(f"action {key!r}", action)
        ACTIONS[kind](run, fields, key, fields.number("start", 0.0))

    sim.run()

    # Full sync: redeliver every certified message delivered in the run (plus
    # certificates still held by clients) to all live honest authorities.
    sync_messages = dict(sim.certified)
    for ctx in run.contexts.values():
        if isinstance(ctx, SwapContext):
            if ctx.creation_cert is not None:
                message = ConfirmMsg(ctx.creation_cert)
                sync_messages.setdefault(value_digest(message), message)
            if ctx.commit is not None:
                message = CommitMsg(ctx.commit, ctx.locks.get(1), ctx.locks.get(2))
                sync_messages.setdefault(value_digest(message), message)
    sim.sync_deliver(list(sync_messages.values()))
    run.synced_snapshots = {a.name: a.consistency_snapshot() for a in sim.honest_authorities()}

    audits = audit.run_standard_audits(
        sim, committee, initial_total, synced_snapshots=run.synced_snapshots
    )
    outcomes = dict(run.results)
    for key, ctx in run.contexts.items():
        outcomes[key] = getattr(ctx, "outcome", None)

    report = ScenarioReport(
        name=config.get("name", "scenario"),
        seed=seed,
        end_time=sim.now,
        quiesced=not sim.budget_exceeded,
        delivered=sim.stats["delivered"],
        dropped=sim.stats["dropped"],
        audits=audits,
        outcomes=outcomes,
    )
    return run, report
