"""Bounded model checker: quick bounds here; the full matrix runs in acceptance."""

import gc

import pytest

from bftledger import errors
from bftledger.errors import ProtocolError, err
from bftledger.modelcheck import (
    _FRESH,
    CheckResult,
    _step_precommit,
    _step_proposal,
    ablation_matrix,
    check_swap_agreement,
)

# Rounds <= 2, n = 4, one byzantine authority. The depth-first search stops at
# the first violation, so these counts and paths also pin the exploration order.
ROUNDS2_STATES = {
    "baseline": 88_854,
    "without_a": 118,
    "without_b": 804,
    "without_c": 1_019,
    "without_d": 18_072,
}
ROUNDS2_EXAMPLES = {
    "baseline": None,
    "without_a": [
        ("prop", (2, 1)), ("prop", (2, 0)), ("prop", (1, 1)), ("prop", (1, 0)),
        ("prop", (0, 1)), ("prop", (0, 0)), ("prop", (2, 1)), ("pre", (2, 1)),
        ("pre", (2, 1)), ("prop", (2, 1)), ("prop", (2, 0)), ("pre", (2, 0)),
        ("pre", (2, 1)), ("pre", (2, 1)), ("pre", (2, 0)),
    ],
    "without_b": [
        ("prop", (2, 1)), ("prop", (1, 1)), ("prop", (1, 1)), ("pre", (1, 1)),
        ("prop", (2, 0)), ("pre", (1, 1)), ("prop", (2, 0)), ("pre", (2, 0)),
        ("pre", (2, 0)),
    ],
    "without_c": [
        ("prop", (2, 1)), ("prop", (1, 1)), ("prop", (2, 0)), ("prop", (1, 1)),
        ("pre", (1, 1)), ("pre", (1, 1)), ("prop", (2, 0)), ("pre", (2, 0)),
        ("pre", (2, 0)),
    ],
    "without_d": [
        ("prop", (1, 1)), ("prop", (2, 0)), ("prop", (0, 0)), ("prop", (1, 1)),
        ("pre", (1, 1)), ("prop", (2, 1)), ("prop", (0, 0)), ("pre", (1, 1)),
        ("pre", (0, 0)), ("prop", (2, 0)), ("pre", (2, 0)), ("pre", (2, 0)),
    ],
}


# Each quick check below has a state budget of about four times the states it
# sees, so a search that runs away (one that has lost its agreement check, say)
# fails within seconds on BoundsTooLarge instead of at the 5,000,000 default.
BUDGET_FACTOR = 4


def _rounds2(label: str):
    disabled = frozenset() if label == "baseline" else frozenset(label[-1])
    return check_swap_agreement(max_round=2, byzantine=1, n=4, disabled_rules=disabled,
                                max_states=BUDGET_FACTOR * ROUNDS2_STATES[label],
                                want_example=True)


def test_single_round_trivially_safe():
    result = check_swap_agreement(max_round=0, byzantine=1, max_states=150)  # 36 states
    assert not result.violation
    assert result.states > 1


def test_rounds_one_baseline_safe():
    result = check_swap_agreement(max_round=1, byzantine=1, max_states=7_000)  # 1,751 states
    assert not result.violation


def test_rule_a_ablation_found_quickly():
    result = check_swap_agreement(max_round=1, byzantine=0, disabled_rules=frozenset("a"),
                                  max_states=420, want_example=True)  # 105 states
    assert result.violation
    assert result.example  # a concrete action path is reported


def test_rule_b_ablation_found():
    result = check_swap_agreement(max_round=1, byzantine=0, disabled_rules=frozenset("b"),
                                  max_states=3_600)  # 888 states
    assert result.violation


def test_bounds_guard():
    with pytest.raises(ProtocolError) as exc:
        check_swap_agreement(max_round=9)
    assert exc.value.code == "BoundsTooLarge"
    with pytest.raises(ProtocolError):
        check_swap_agreement(max_round=2, byzantine=2)
    with pytest.raises(ProtocolError):
        check_swap_agreement(max_round=2, byzantine=1, max_states=10)
    for bounds in ({"max_round": -1}, {"byzantine": -1}):
        with pytest.raises(ProtocolError) as exc:
            check_swap_agreement(**bounds)
        assert exc.value.code == "ConfigError"


def test_state_budget_is_exact():
    """The budget counts every state seen, the initial one included."""
    assert check_swap_agreement(max_round=2, byzantine=1, max_states=88_854).states == 88_854
    with pytest.raises(ProtocolError) as exc:
        check_swap_agreement(max_round=2, byzantine=1, max_states=88_853)
    assert exc.value.code == "BoundsTooLarge"


def test_check_pauses_the_collector_and_gives_it_back():
    """The search runs with the cyclic collector paused, which is safe because it
    makes no cycles: with the collector off, a collection right after a check
    finds nothing. A check leaves the collector as it found it, enabled or
    disabled, also when it raises for an exhausted state budget."""
    assert gc.isenabled()
    check_swap_agreement(max_round=1, byzantine=1, max_states=7_000)
    assert gc.isenabled()
    with pytest.raises(ProtocolError):
        check_swap_agreement(max_round=2, byzantine=1, max_states=100)
    assert gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for label in ROUNDS2_STATES:
            result = _rounds2(label)
            assert gc.collect() == 0, label
            assert not gc.isenabled(), label
            del result
        with pytest.raises(ProtocolError):
            check_swap_agreement(max_round=2, byzantine=1, max_states=100)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_byzantine_votes_strengthen_adversary():
    baseline = check_swap_agreement(max_round=1, byzantine=0, max_states=18_000)  # 4,479 states
    with_byz = check_swap_agreement(max_round=1, byzantine=1, max_states=7_000)  # 1,751 states
    assert not baseline.violation and not with_byz.violation
    # fewer honest authorities, but certificates complete with fewer honest votes
    assert with_byz.states != baseline.states


def test_rounds_two_pinned_counts_and_examples():
    for label, states in ROUNDS2_STATES.items():
        result = _rounds2(label)
        assert result.violation == (label != "baseline"), label
        assert result.states == states, label
        assert result.example == ROUNDS2_EXAMPLES[label], label


def test_no_state_carries_across_checks():
    """Checks run in another order in one process give the pinned results."""
    for label in ["without_d", "without_a", "baseline", "without_c", "without_b"]:
        result = _rounds2(label)
        assert (result.states, result.example) == (ROUNDS2_STATES[label], ROUNDS2_EXAMPLES[label])
    results = ablation_matrix(max_round=2, byzantine=1, n=4)  # unbudgeted: it takes none
    assert {label: r.states for label, r in results.items()} == ROUNDS2_STATES
    # A check at other bounds in between does not disturb the next one either.
    check_swap_agreement(max_round=1, byzantine=0, disabled_rules=frozenset("a"), max_states=420)
    assert _rounds2("without_a").example == ROUNDS2_EXAMPLES["without_a"]


# -- differential check against the search as it was before ids and memos ------------
# A copy of the earlier implementation, kept only as a reference. Its one edit: it
# tries the formable pre-commits in sorted order, as the search does, where the
# earlier one took the set's iteration order. The two must agree on the verdict,
# the state count and the example path, so the exploration order (which pins the
# ablation counts above) is the same too.


def _reference_check(
    max_round: int = 2,
    byzantine: int = 1,
    n: int = 4,
    disabled_rules: frozenset = frozenset(),
    max_states: int = 5_000_000,
    want_example: bool = False,
) -> CheckResult:
    """Exhaustively search all schedules up to the round bound.

    Raises BoundsTooLarge for bounds outside the desk-scale envelope.
    """
    if max_round > 3 or n > 7:
        raise err(errors.BOUNDS_TOO_LARGE, f"max_round={max_round}, n={n}")
    f = (n - 1) // 3
    if byzantine > f:
        raise err(errors.BOUNDS_TOO_LARGE, f"byzantine={byzantine} exceeds f={f}")
    quorum = 2 * f + 1
    honest = n - byzantine
    proposals = [
        (k, v) for k in range(max_round + 1) for v in (0, 1)
    ]

    def formable(state, field_index: int):
        counts: dict[tuple[int, int], int] = {}
        for record in state:
            for pv in record[field_index]:
                counts[pv] = counts.get(pv, 0) + 1
        return {pv for pv, c in counts.items() if c + byzantine >= quorum}

    def violated(state) -> bool:
        decisions = {v for (_k, v) in formable(state, 3)}
        return len(decisions) > 1

    # Per-check memo tables; see the module docstring.
    proposal_moves: dict = {}  # record -> [("prop", pv, successor), ...]
    precommit_next: dict = {}  # (record, pv) -> successor or None
    keys: dict = {_FRESH: _record_key(_FRESH)}  # every record in a state -> sort key

    def successors(record, precommits):
        moves = proposal_moves.get(record)
        if moves is None:
            moves = proposal_moves[record] = []
            for pv in proposals:
                new_record = _step_proposal(record, pv, disabled_rules)
                if new_record is not None:
                    keys.setdefault(new_record, _record_key(new_record))
                    moves.append(("prop", pv, new_record))
        moves = list(moves)
        for pv in precommits:
            move = (record, pv)
            if move not in precommit_next:
                new_record = _step_precommit(record, pv, disabled_rules)
                if new_record is not None:
                    keys.setdefault(new_record, _record_key(new_record))
                precommit_next[move] = new_record
            new_record = precommit_next[move]
            if new_record is not None:
                moves.append(("pre", pv, new_record))
        return moves

    initial = tuple([_FRESH] * honest)
    seen = {initial}
    frontier = [initial]
    parents: dict = {initial: None} if want_example else {}
    target = None
    sort_key = keys.__getitem__

    while frontier:
        state = frontier.pop()
        if violated(state):
            target = state
            break
        precommits = sorted(formable(state, 2))
        # Authorities with identical records are interchangeable: act on the
        # first index of each distinct record only.
        first_of: dict = {}
        for i, record in enumerate(state):
            first_of.setdefault(record, i)
        for record, i in first_of.items():
            others = state[:i] + state[i + 1:]
            for kind, pv, new_record in successors(record, precommits):
                new_state = tuple(sorted(others + (new_record,), key=sort_key))
                if new_state in seen:
                    continue
                if len(seen) >= max_states:
                    raise err(errors.BOUNDS_TOO_LARGE, f"state budget {max_states} exhausted")
                seen.add(new_state)
                frontier.append(new_state)
                if want_example:
                    parents[new_state] = (state, (kind, pv))

    example = None
    if target is not None and want_example:
        example = []
        cursor = target
        while parents.get(cursor) is not None:
            cursor, action = parents[cursor]
            example.append(action)
        example.reverse()
    return CheckResult(violation=target is not None, states=len(seen), example=example)


def _record_key(record):
    proposed, locked, pre, com = record
    return (
        proposed if proposed is not None else (-1, -1),
        locked if locked is not None else (-1, -1),
        tuple(sorted(pre)),
        tuple(sorted(com)),
    )


# Every ablation at small bounds and at the pinned rounds <= 2 bounds; one honest
# authority (no other record to sort a successor into) and a committee of three
# with no byzantine slack, which violates agreement after 34 states; and rounds
# <= 3 without rule a: the smallest case found whose example path depends on the
# pre-commit order (177 states tried in sorted order, 175 in the set's iteration
# order), so both must sort.
DIFFERENTIAL_CASES = [
    (max_round, byzantine, n, rule)
    for max_round, byzantine, n in [(0, 0, 4), (0, 1, 4), (1, 0, 4), (1, 1, 4), (0, 2, 7)]
    for rule in ["", *"abcd"]
] + [(2, 1, 4, rule) for rule in "abcd"] + [(2, 0, 1, ""), (2, 0, 3, ""), (3, 1, 4, "a")]


@pytest.mark.parametrize("max_round,byzantine,n,rule", DIFFERENTIAL_CASES)
def test_matches_reference_search(max_round, byzantine, n, rule):
    bounds = dict(max_round=max_round, byzantine=byzantine, n=n, disabled_rules=frozenset(rule),
                  want_example=True)
    ref = _reference_check(**bounds)
    new = check_swap_agreement(**bounds, max_states=BUDGET_FACTOR * ref.states)
    assert (new.violation, new.states, new.example) == (ref.violation, ref.states, ref.example)
