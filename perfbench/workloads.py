"""The benchmark's seeded workloads.

Each workload has three parts:

- ``inputs(seed, size)`` builds everything the program is given, from the
  seed alone, with the benchmark's own code;
- ``job(inputs)`` is the timed call into bftledger;
- ``check(inputs, raw)`` runs after the clock stops. It applies the
  workload's correctness gate and extracts the counts that must repeat
  exactly for the same seed: deliveries, operations, states, and the
  simulated commit latencies.

Simulated time is in ticks of one millisecond.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from bftledger import modelcheck, scenario
from bftledger.fuzz import fuzz_swap_config


@dataclass
class Outcome:
    """What one job did, as seen after the clock stopped."""

    attempted: int  # operations the job tried
    done: int  # operations that completed: certified, committed, settled
    ops: int  # the numerator of ops_per_s
    failed: int  # operations whose outputs are wrong or missing
    problems: list[str] = field(default_factory=list)  # correctness-gate failures
    latencies: list[int] = field(default_factory=list)  # client start -> committed reply, ms
    rounds: list[int] = field(default_factory=list)  # swap rounds to a decision
    counts: dict[str, Any] = field(default_factory=dict)  # deterministic for a seed

    def deterministic(self) -> dict[str, Any]:
        return dict(
            self.counts,
            attempted=self.attempted,
            done=self.done,
            failed=self.failed,
            ops=self.ops,
            latencies=tuple(self.latencies),
            rounds=tuple(self.rounds),
        )


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[..., Any]
    job: Callable[[Any], Any]
    check: Callable[[Any, Any], Outcome]
    runs: Callable[[Any], list]  # the scenario RunResults inside a job's raw result
    reference: str = "interpreter"  # the kind of work that dominates the job's time


def _sim_counts(run) -> dict[str, int]:
    return {
        "sim.deliveries": run.sim.stats["delivered"],
        "sim.dropped": run.sim.stats["dropped"],
        "trace.events": len(run.sim.trace.events),
    }


def _snapshot_digest(runs) -> str:
    h = hashlib.sha256()
    for run in runs:
        for name in sorted(run.synced_snapshots):
            h.update(name.encode())
            h.update(run.synced_snapshots[name].encode())
    return h.hexdigest()


def _gate(report) -> list[str]:
    if report.all_passed:
        return []
    failed = [a.name for a in report.audits if not a.passed]
    return [f"{report.name}: audits failed: {', '.join(failed)}"]


def _first_delivery(run, kind: str) -> int | None:
    for event in run.sim.trace.events:
        if event.kind == kind and event.dest.startswith("auth:"):
            return event.time
    return None


# -- transfers: a ring of accounts, each paying 1 to its successor ----------------

RING_ACCOUNTS = 1600
RING_SPACING_MS = 10  # open loop: one client starts every 10 ms of simulated time


def transfers_inputs(seed: int, size: int = RING_ACCOUNTS) -> dict:
    rng = random.Random(seed)
    accounts = [{"name": f"a{i:04d}", "balance": rng.randint(1, 1000)} for i in range(size)]
    actions = [
        {
            "kind": "transfer",
            "id": f"t{i}",
            "from": f"a{i:04d}",
            "to": f"a{(i + 1) % size:04d}",
            "value": 1,
            "start": i * RING_SPACING_MS / 1000,
        }
        for i in range(size)
    ]
    return {
        "version": 1,
        "name": f"ring{size}",
        "seed": rng.randrange(1 << 31),
        "budget_seconds": 120,
        "net": {
            "min_delay_ms": 10,
            "max_delay_ms": 120,
            "drop": 0.02,
            "dup": 0.02,
            "gst_seconds": 5,
            "gst_bound_ms": 150,
        },
        "accounts": accounts,
        "actions": actions,
    }


def transfers_job(config: dict):
    return scenario.run_scenario(config)


def transfers_check(config: dict, raw) -> Outcome:
    run, report = raw
    size = len(config["accounts"])
    ok = [run.results.get(f"t{i}") == "ok" for i in range(size)]
    problems = _gate(report)
    if not report.quiesced:
        problems.append("ring did not quiesce within its budget")

    # Each certified transfer moves 1 from account i to account i+1.
    expected = [a["balance"] for a in config["accounts"]]
    for i in range(size):
        if ok[i]:
            expected[i] -= 1
            expected[(i + 1) % size] += 1
    for authority in run.sim.honest_authorities():
        for i, acct in enumerate(config["accounts"]):
            got = authority.ledger.accounts[run.account_ids[acct["name"]]].balance
            if got != expected[i]:
                problems.append(f"{authority.name}: {acct['name']} balance {got} != {expected[i]}")
                break

    # Committed reply: the delivery completing a quorum of distinct AckReply.
    acks: dict[str, set[str]] = {}
    committed_at: dict[str, int] = {}
    quorum = run.committee.quorum
    for event in run.sim.trace.events:
        if event.kind != "AckReply" or event.dest in committed_at:
            continue
        senders = acks.setdefault(event.dest, set())
        senders.add(event.src)
        if len(senders) >= quorum:
            committed_at[event.dest] = event.time
    latencies = [
        committed_at[f"client:t{i}"] - i * RING_SPACING_MS
        for i in range(size)
        if f"client:t{i}" in committed_at
    ]
    done = sum(ok)
    return Outcome(
        attempted=size,
        done=done,
        ops=done,
        failed=size - done,
        problems=problems,
        latencies=latencies,
        counts=dict(_sim_counts(run), outputs=_snapshot_digest([run])),
    )


# -- swap_fuzz: adversarial single-swap schedules, run one by one -----------------

FUZZ_SCHEDULES = 300


def swap_fuzz_inputs(seed: int, size: int = FUZZ_SCHEDULES) -> list[dict]:
    rng = random.Random(seed)
    return [fuzz_swap_config(rng.randrange(1 << 31)) for _ in range(size)]


def swap_fuzz_job(configs: list[dict]):
    return [scenario.run_scenario(config) for config in configs]


def swap_fuzz_check(configs: list[dict], raw) -> Outcome:
    problems: list[str] = []
    latencies: list[int] = []
    rounds: list[int] = []
    totals = {"sim.deliveries": 0, "sim.dropped": 0, "trace.events": 0}
    committed = failed = 0
    for run, report in raw:
        found = _gate(report)
        agreement = [a for a in report.audits if a.name == "agreement"]
        if not agreement or not agreement[0].passed:
            found.append(f"{report.name}: agreement does not hold")
        problems += found
        failed += bool(found)
        for key, value in _sim_counts(run).items():
            totals[key] += value
        commit = run.contexts["swap0"].commit
        if commit is None:
            continue  # a stalled swap is a legal outcome of an adversarial schedule
        committed += 1
        rounds.append(commit.value.proposal.round + 1)
        first = _first_delivery(run, "CommitMsg")
        if first is not None:
            latencies.append(first)  # the swap's broker starts at time 0
    return Outcome(
        attempted=len(configs),
        done=committed,
        ops=len(configs),
        failed=failed,
        problems=problems,
        latencies=latencies,
        rounds=rounds,
        counts=dict(totals, outputs=_snapshot_digest(run for run, _ in raw)),
    )


# -- auction: one second-price sealed-bid auction ---------------------------------

AUCTION_BIDDERS = 3
SELLER_BALANCE = 10
BIDDER_BALANCE = 40


def auction_inputs(seed: int, size: int = AUCTION_BIDDERS) -> dict:
    rng = random.Random(seed)
    bidders = [
        {"name": f"b{i}", "bid": rng.randint(1, 30), "deposit": rng.randint(1, 30)}
        for i in range(size)
    ]
    return {
        "version": 1,
        "name": "auction",
        "seed": rng.randrange(1 << 31),
        "budget_seconds": 120,
        "accounts": [
            {"name": "seller", "balance": SELLER_BALANCE},
            {"name": "item", "owner": "seller"},
        ]
        + [{"name": b["name"], "balance": BIDDER_BALANCE} for b in bidders],
        "actions": [
            {
                "kind": "auction",
                "seller": "seller",
                "item": "item",
                "rule": "second_price",
                "start": 0.0,
                "bid_wait_seconds": 15,
                "bidders": bidders,
            }
        ],
    }


def second_price(bids: list[tuple[int, int]]) -> tuple[int | None, int]:
    """Winner index and price for (value, deposit) pairs listed by bidder id.

    Only bids their deposit covers count; ties go to the smallest bidder id,
    and the winner pays the highest other eligible value (0 if none).
    """
    eligible = [i for i, (value, deposit) in enumerate(bids) if 0 < value <= deposit]
    if not eligible:
        return None, 0
    top = max(bids[i][0] for i in eligible)
    winner = min(i for i in eligible if bids[i][0] == top)
    price = max((bids[i][0] for i in eligible if i != winner), default=0)
    return winner, price


def auction_job(config: dict):
    return scenario.run_scenario(config)


def auction_check(config: dict, raw) -> Outcome:
    run, report = raw
    bidders = config["actions"][0]["bidders"]
    problems = _gate(report)
    outcome = run.contexts["auction0"].outcome
    settled = outcome.get("seller") == "settled"
    if settled and sorted(outcome["values"]) != sorted(b["bid"] for b in bidders):
        problems.append(f"decrypted bids {outcome['values']} differ from the generated bids")

    # Bidders are genesis accounts in config order, so list order is id order.
    winner, price = second_price([(b["bid"], b["deposit"]) for b in bidders])
    want = {"seller": SELLER_BALANCE + price}
    for i, b in enumerate(bidders):
        want[b["name"]] = BIDDER_BALANCE - (price if i == winner else 0)
    owner = "seller" if winner is None else bidders[winner]["name"]
    want_pk = run.wallet[run.account_ids[owner]].pk
    for authority in run.sim.honest_authorities():
        ledger = authority.ledger.accounts
        got = {name: ledger[run.account_ids[name]].balance for name in want}
        if got != want:
            problems.append(f"{authority.name}: balances {got}, expected {want}")
        if ledger[run.account_ids["item"]].pk != want_pk:
            problems.append(f"{authority.name}: item is not owned by {owner}")

    first = _first_delivery(run, "SettleAuctionMsg")
    done = len(bidders) if settled else 0
    return Outcome(
        attempted=len(bidders),
        done=done,
        ops=done,
        failed=len(bidders) - done,
        problems=problems,
        latencies=[] if first is None else [first],  # the seller starts at time 0
        counts=dict(_sim_counts(run), outputs=_snapshot_digest([run])),
    )


# -- modelcheck: the exhaustive check plus its ablation matrix --------------------

MODELCHECK_ROUNDS = 2


def modelcheck_inputs(seed: int, size: int = MODELCHECK_ROUNDS) -> dict:
    # The bounded check has no random inputs; the seed changes nothing.
    return {"max_round": size, "byzantine": 1, "n": 4}


def modelcheck_job(params: dict):
    return modelcheck.ablation_matrix(**params)


def modelcheck_check(params: dict, raw) -> Outcome:
    problems = []
    for name, result in raw.items():
        want = name != "baseline"
        if result.violation != want:
            verdict = "finds a violation" if result.violation else "finds no violation"
            problems.append(f"{name} {verdict}")
    states = sum(result.states for result in raw.values())
    return Outcome(
        attempted=len(raw),
        done=len(raw) - len(problems),
        ops=states,
        failed=len(problems),
        problems=problems,
        counts={
            "modelcheck.states": states,
            "outputs": tuple((name, r.violation, r.states) for name, r in raw.items()),
        },
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("transfers", transfers_inputs, transfers_job, transfers_check,
                 lambda raw: [raw[0]]),
        Workload("swap_fuzz", swap_fuzz_inputs, swap_fuzz_job, swap_fuzz_check,
                 lambda raw: [run for run, _report in raw]),
        Workload("auction", auction_inputs, auction_job, auction_check, lambda raw: [raw[0]],
                 reference="modexp"),
        Workload("modelcheck", modelcheck_inputs, modelcheck_job, modelcheck_check,
                 lambda raw: []),
    )
}
