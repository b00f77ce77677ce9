"""Bounded exhaustive model check of the one-shot swap consensus.

Explores every reachable configuration of honest authorities' consensus
state under an adversary that fully controls scheduling, both clients (they
can sign any proposal at any time since both accounts are locked), and up to
f byzantine authorities modeled as wildcard signers whose votes complete any
certificate. The state keeps, per honest authority, its last proposal, its
locked pre-commit, and the votes it has issued; certificates exist exactly
when enough votes do.

Safety is evaluated through the production rule implementations, called with
a record's (round, decision) pairs as they are, the same view that
`SwapInstance.rule_view` gives an authority; ablating a rule here ablates
exactly what authorities enforce. Agreement is violated
when commit certificates for different decisions become formable; the
checker reports the first such state and the action path to it.

Symmetry: honest authorities are interchangeable, so states are canonicalized
by sorting their records.

Cost: a record's id is its sort key written as base-(P+1) digits for P
proposals (proposal, lock, then the sorted prevotes and commit votes, each
padded with zeros to P digits), so a state is the sorted tuple of its ids.
Tables local to each call memoize every record's transitions (each distinct
transition still goes through the rule functions once), the formable
pre-commits of each tuple of per-record prevotes, the verdict of each tuple
of per-record commit votes, and one successor list per (record, formable
pre-commits). Each state carries down what its move left alone: a proposal
move changes no commit vote, so its successor skips the agreement check (the
parent passed it), and a pre-commit move changes no prevote, so its successor
reuses the parent's tally. A successor whose new id is at least every other
id is built by appending it; any other is sorted. The search allocates no
cycles, so the cyclic collector is paused while it runs and the caller's
setting is given back when it ends.

The exploration order is fixed (the proposal order, the formable pre-commits
in sorted order, the first authority per distinct record, and id order), so
it depends on no hash or set iteration order. It decides which violation the
depth-first search reports first, and so the example path and the state
count of an ablation.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Optional

from . import errors
from .errors import err
from .swap import is_safe_pre_commit, is_safe_proposal


@dataclass
class CheckResult:
    violation: bool
    states: int
    example: Optional[list] = None  # action path to the violating state

    def summary(self) -> str:
        status = "VIOLATION" if self.violation else "no violation"
        return f"{status} over {self.states} reachable states"


# A record is (proposed, locked, prevotes, comvotes) where proposed/locked are
# (round, decision) or None and the vote fields are frozensets of (round, decision).
_FRESH = (None, None, frozenset(), frozenset())


def _step_proposal(record, pv, disabled):
    proposed, locked, pre, com = record
    if pv in pre:
        return None  # idempotent re-vote, no new state
    if not is_safe_proposal(proposed, locked, pv, disabled):
        return None
    return (pv, locked, pre | {pv}, com)


def _step_precommit(record, pv, disabled):
    proposed, locked, pre, com = record
    if locked == pv and pv in com:
        return None
    if not is_safe_pre_commit(proposed, locked, pv, disabled):
        return None
    return (proposed, pv, pre, com | {pv})


def check_swap_agreement(
    max_round: int = 2,
    byzantine: int = 1,
    n: int = 4,
    disabled_rules: frozenset = frozenset(),
    max_states: int = 5_000_000,
    want_example: bool = False,
) -> CheckResult:
    """Exhaustively search all schedules up to the round bound.

    Raises BoundsTooLarge for bounds outside the desk-scale envelope, and
    ConfigError for a negative round or byzantine bound.
    """
    if max_round < 0 or byzantine < 0:
        raise err(errors.CONFIG_ERROR, f"max_round={max_round}, byzantine={byzantine}")
    if max_round > 3 or n > 7:
        raise err(errors.BOUNDS_TOO_LARGE, f"max_round={max_round}, n={n}")
    f = (n - 1) // 3
    if byzantine > f:
        raise err(errors.BOUNDS_TOO_LARGE, f"byzantine={byzantine} exceeds f={f}")
    quorum = 2 * f + 1
    honest = n - byzantine
    proposals = [(k, v) for k in range(max_round + 1) for v in (0, 1)]
    base = len(proposals) + 1
    digit = {pv: i + 1 for i, pv in enumerate(proposals)}  # None -> 0 through .get
    votes_mod = base ** len(proposals)  # the digits of one vote set

    def formable(state, field_index: int):
        counts: dict[tuple[int, int], int] = {}
        for record in state:
            for pv in record[field_index]:
                counts[pv] = counts.get(pv, 0) + 1
        return {pv for pv, c in counts.items() if c + byzantine >= quorum}

    # Per-check memo tables; see the module docstring.
    records: dict = {}  # id -> record
    prevotes_of: dict = {}  # id -> its prevote digits
    commits_of: dict = {}  # id -> its commit-vote digits
    proposal_moves: dict = {}  # id -> [("prop", pv, successor id), ...]
    precommit_next: dict = {}  # (id, pv) -> successor id or None
    violations: dict = {}  # commit-vote digits per record -> violated
    prevote_tallies: dict = {}  # prevote digits per record -> moves_for entry
    moves_for: dict = {}  # formable pre-commits -> (pre-commits, {id: successor list})

    def intern(record) -> int:
        rid = digit.get(record[0], 0) * base + digit.get(record[1], 0)
        for votes in (record[2], record[3]):
            digits = sorted(digit[pv] for pv in votes)
            for d in digits + [0] * (len(proposals) - len(digits)):
                rid = rid * base + d
        if rid not in records:
            records[rid] = record
            prevotes_of[rid], commits_of[rid] = rid // votes_mod % votes_mod, rid % votes_mod
        return rid

    def successors(rid, precommits):
        record = records[rid]
        moves = proposal_moves.get(rid)
        if moves is None:
            moves = proposal_moves[rid] = []
            for pv in proposals:
                new_record = _step_proposal(record, pv, disabled_rules)
                if new_record is not None:
                    moves.append(("prop", pv, intern(new_record)))
        moves = list(moves)
        for pv in precommits:
            move = (rid, pv)
            if move not in precommit_next:
                new_record = _step_precommit(record, pv, disabled_rules)
                precommit_next[move] = None if new_record is None else intern(new_record)
            if precommit_next[move] is not None:
                moves.append(("pre", pv, precommit_next[move]))
        return moves

    initial = tuple([intern(_FRESH)] * honest)
    seen = {initial}
    # Two stacks popped together: a state, and its parent's tally if the state
    # came by a pre-commit move (which leaves every prevote as it was), or None
    # if it came by a proposal move (which leaves every commit vote as it was,
    # so it cannot newly break agreement). The fresh state has no commit vote.
    frontier = [initial]
    inherited = [None]
    parents: dict = {initial: None} if want_example else {}
    target = None
    enabled = gc.isenabled()
    gc.disable()  # the search makes no cycles; see the docstring
    try:
        while frontier:
            state = frontier.pop()
            tally = inherited.pop()
            if tally is None:
                key = tuple(map(prevotes_of.__getitem__, state))
                tally = prevote_tallies.get(key)
                if tally is None:
                    precommits = tuple(sorted(formable([records[rid] for rid in state], 2)))
                    tally = prevote_tallies[key] = moves_for.setdefault(precommits,
                                                                         (precommits, {}))
            else:
                key = tuple(map(commits_of.__getitem__, state))
                violated = violations.get(key)
                if violated is None:
                    decisions = {v for (_k, v) in formable([records[rid] for rid in state], 3)}
                    violated = violations[key] = len(decisions) > 1
                if violated:
                    target = state
                    break
            precommits, memo = tally
            # Ids sort in record-key order, so equal records sit together. Authorities
            # with identical records are interchangeable: act on the first one only.
            for i, rid in enumerate(state):
                if i and state[i - 1] == rid:
                    continue
                moves = memo.get(rid)
                if moves is None:
                    moves = memo[rid] = successors(rid, precommits)
                if not moves:
                    continue
                others = state[:i] + state[i + 1:]
                last = others[-1] if others else -1
                for kind, pv, new_rid in moves:
                    if new_rid >= last:
                        new_state = others + (new_rid,)
                    else:
                        new_state = tuple(sorted(others + (new_rid,)))
                    if new_state in seen:
                        continue
                    if len(seen) >= max_states:
                        raise err(errors.BOUNDS_TOO_LARGE,
                                  f"state budget {max_states} exhausted")
                    seen.add(new_state)
                    frontier.append(new_state)
                    inherited.append(None if kind == "prop" else tally)
                    if want_example:
                        parents[new_state] = (state, (kind, pv))
    finally:
        if enabled:
            gc.enable()

    example = None
    if target is not None and want_example:
        example = []
        cursor = target
        while parents.get(cursor) is not None:
            cursor, action = parents[cursor]
            example.append(action)
        example.reverse()
    return CheckResult(violation=target is not None, states=len(seen), example=example)


def ablation_matrix(max_round: int = 2, byzantine: int = 1, n: int = 4) -> dict[str, CheckResult]:
    """The baseline check plus one run per ablated safety rule."""
    results = {"baseline": check_swap_agreement(max_round, byzantine, n)}
    for rule in "abcd":
        results[f"without_{rule}"] = check_swap_agreement(
            max_round, byzantine, n, disabled_rules=frozenset(rule)
        )
    return results
