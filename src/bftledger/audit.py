"""Trace and snapshot audits: every protocol invariant wired as a check.

Audits consume the authorities' notes (the (authority, note) pairs that the
trace keeps in delivery order) and the authorities' final states. They are
report-only: each check returns its violations, and a scenario report lists
one line per check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from . import algebra as algebra_mod
from .accounts import CreditEffect, EscrowDebitEffect, Request
from .committee import Committee, value_digest
from .swap import CommitStatement, PreCommitStatement


@dataclass
class AuditResult:
    name: str
    passed: bool
    violations: list[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({len(self.violations)} violations)" if self.violations else ""
        return f"{status} {self.name}{extra}"


def _result(name: str, violations: list[str]) -> AuditResult:
    return AuditResult(name=name, passed=not violations, violations=violations)


def _honest_notes(sim):
    honest = {a.name for a in sim.authorities.values() if a.honest}
    return ((dest, note) for dest, note in sim.trace.notes if dest in honest)


def audit_agreement(sim, committee: Committee) -> AuditResult:
    """No swap instance may have two formable commit certificates with
    different decisions. Works from issued votes (stronger than scanning
    formed certificates): any 2f+1 distinct signers make a certificate."""
    signers_by_statement: dict[tuple, set[int]] = {}
    for dest, note in sim.trace.notes:
        if note[0] == "vote" and isinstance(note[1], CommitStatement):
            p = note[1].proposal
            key = (p.swid, p.round, p.decision)
            signers_by_statement.setdefault(key, set()).add(sim.authorities[dest].index)
    formable: dict[Any, set] = {}
    for (swid, rnd, decision), signers in signers_by_statement.items():
        if len(signers) >= committee.quorum:
            formable.setdefault(swid, set()).add(decision)
    violations = [
        f"swid {swid}: decisions {sorted(d.name for d in decisions)}"
        for swid, decisions in formable.items()
        if len(decisions) > 1
    ]
    return _result("agreement", violations)


def _money_delta(authority, effect) -> int:
    if isinstance(effect, EscrowDebitEffect):
        return -effect.amount
    if isinstance(effect, CreditEffect):
        alg = algebra_mod.by_name(authority.ledger.algebra_of(effect.target))
        if not alg.applicable(effect.update):
            return 0
        base = alg.initial()
        before = alg.money(base)
        after = alg.money(alg.apply(base, effect.update))
        if before is None or after is None:
            return 0
        return after - before
    return 0


def audit_conservation(sim, committee: Committee, initial_total: int) -> AuditResult:
    """Per honest authority: account money plus in-flight internal money
    equals the genesis total."""
    in_flight: dict[str, int] = {}
    for _time, _seq, item in sim._heap:
        if item[0] != "deliver":
            continue
        envelope = item[1]
        if envelope.src == envelope.dest and envelope.dest in sim.authorities:
            authority = sim.authorities[envelope.dest]
            in_flight[envelope.dest] = in_flight.get(envelope.dest, 0) + _money_delta(
                authority, envelope.payload
            )
    violations = []
    for authority in sim.honest_authorities():
        total = authority.total_money() + in_flight.get(authority.name, 0)
        for queue in authority.ledger.deferred_effects.values():
            for effect in queue:
                total += _money_delta(authority, effect)
        if total != initial_total:
            violations.append(f"{authority.name}: {total} != {initial_total}")
    return _result("conservation", violations)


def audit_sequences(sim) -> AuditResult:
    """Confirmed logs hold the certified request of each sequence number in
    order (entry i is a request at n = i, a lock request for a swap's unlock),
    and their length matches next_sequence."""
    violations = []
    for authority in sim.honest_authorities():
        for uid, account in authority.ledger.accounts.items():
            if len(account.confirmed) != account.next_sequence:
                violations.append(
                    f"{authority.name} {uid}: {len(account.confirmed)} certs, "
                    f"seq {account.next_sequence}"
                )
            for i, c in enumerate(account.confirmed):
                if not isinstance(c.value, Request) or c.value.n != i:
                    violations.append(f"{authority.name} {uid}: entry {i} is not a request at n = {i}")
                    break
    return _result("per_account_sequence", violations)


def audit_no_double_sign(sim) -> AuditResult:
    """An honest authority never votes two different requests at one (id, n)
    nor two different proposals at one (swid, round)."""
    violations = []
    request_votes: dict[tuple, bytes] = {}
    proposal_votes: dict[tuple, bytes] = {}
    for dest, note in _honest_notes(sim):
        if note[0] != "vote":
            continue
        authority, value = sim.authorities[dest], note[1]
        if isinstance(value, Request):
            key = (authority.index, value.id, value.n)
            digest = value_digest(value)
            if request_votes.setdefault(key, digest) != digest:
                violations.append(f"{authority.name} double-signed {value.id}@{value.n}")
        elif isinstance(value, PreCommitStatement):
            p = value.proposal
            key = (authority.index, p.swid, p.round)
            digest = value_digest(value)
            if proposal_votes.setdefault(key, digest) != digest:
                violations.append(
                    f"{authority.name} double-signed proposal {p.swid} round {p.round}"
                )
    return _result("no_double_sign", violations)


def audit_swap_monotonicity(sim) -> AuditResult:
    """Per honest authority and instance: proposed/locked rounds never
    decrease, and a locked decision changes only with a strictly higher round."""
    violations = []
    last: dict[tuple, tuple] = {}
    for dest, note in _honest_notes(sim):
        if note[0] != "swap_state":
            continue
        _, swid, proposed, locked = note
        key = (dest, swid)
        prev_proposed, prev_locked = last.get(key, (None, None))
        if prev_proposed is not None and proposed is not None:
            if proposed.round < prev_proposed.round:
                violations.append(f"{dest} {swid}: proposed round decreased")
        if prev_locked is not None:
            if locked is None:
                violations.append(f"{dest} {swid}: locked reverted")
            else:
                if locked.round < prev_locked.round:
                    violations.append(f"{dest} {swid}: locked round decreased")
                if (
                    locked.decision != prev_locked.decision
                    and locked.round <= prev_locked.round
                ):
                    violations.append(
                        f"{dest} {swid}: locked decision flipped without a higher round"
                    )
        last[key] = (proposed if proposed is not None else prev_proposed,
                     locked if locked is not None else prev_locked)
    return _result("swap_monotonicity", violations)


def audit_unforgeability(sim, committee: Committee) -> AuditResult:
    """Every certificate accepted by an honest authority intersects the honest
    set in at least f+1 signers."""
    honest_indices = {a.index for a in sim.authorities.values() if a.honest}
    violations = []
    for dest, note in _honest_notes(sim):
        if note[0] != "cert_accepted":
            continue
        _, kind, signers = note
        overlap = len(set(signers) & honest_indices)
        if overlap < committee.f + 1:
            violations.append(f"{dest} accepted {kind} cert with {overlap} honest votes")
    return _result("unforgeability", violations)


def audit_credit_safety(sim) -> AuditResult:
    """Every internal credit carries a safe update for its target's algebra."""
    violations = []
    for dest, note in _honest_notes(sim):
        if note[0] != "credit":
            continue
        _, target, update = note
        alg = algebra_mod.by_name(sim.authorities[dest].ledger.algebra_of(target))
        if alg.applicable(update) and not alg.is_safe(update):
            violations.append(f"unsafe credit to {target}")
    return _result("remote_update_safety", violations)


def audit_state_validity(sim) -> AuditResult:
    """No honest authority ever held an invalid account state after an event,
    and all final states are valid."""
    violations = []
    for dest, note in _honest_notes(sim):
        if note[0] == "invalid_state":
            violations.append(f"{dest}: invalid state at {note[1]}")
    for authority in sim.honest_authorities():
        for uid, account in authority.ledger.accounts.items():
            if not account.alg.is_valid(account.state):
                violations.append(f"{authority.name}: final state invalid at {uid}")
    return _result("state_validity", violations)


def audit_auction_phases(sim) -> AuditResult:
    """No honest authority accepts a bid after recording end-of-bidding."""
    violations = []
    closed: set[tuple] = set()
    for dest, note in _honest_notes(sim):
        if note[0] == "phase" and note[2] in ("revealing", "settled"):
            closed.add((dest, note[1]))
        elif note[0] == "bid_accepted" and (dest, note[1]) in closed:
            violations.append(f"{dest}: bid accepted after close of {note[1]}")
    return _result("auction_phase_monotonicity", violations)


def audit_consistency(snapshots: dict[str, str]) -> AuditResult:
    """Post-sync consistency: all honest authorities' account snapshots equal."""
    distinct = {}
    for name, snap in snapshots.items():
        distinct.setdefault(snap, []).append(name)
    violations = []
    if len(distinct) > 1:
        groups = [f"{sorted(names)}" for names in distinct.values()]
        violations.append("divergent account states: " + " vs ".join(groups))
    return _result("eventual_consistency", violations)


def run_standard_audits(sim, committee: Committee, initial_total: int,
                        synced_snapshots: Optional[dict[str, str]] = None) -> list[AuditResult]:
    results = [
        audit_agreement(sim, committee),
        audit_conservation(sim, committee, initial_total),
        audit_sequences(sim),
        audit_no_double_sign(sim),
        audit_swap_monotonicity(sim),
        audit_unforgeability(sim, committee),
        audit_credit_safety(sim),
        audit_state_validity(sim),
        audit_auction_phases(sim),
    ]
    if synced_snapshots is not None:
        results.append(audit_consistency(synced_snapshots))
    return results
