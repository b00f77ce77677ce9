"""Bounded model checker: quick bounds here; the full matrix runs in acceptance."""

import pytest

from bftledger.errors import ProtocolError
from bftledger.modelcheck import ablation_matrix, check_swap_agreement

# Rounds <= 2, n = 4, one byzantine authority. The depth-first search stops at
# the first violation, so these counts and paths also pin the exploration order.
ROUNDS2_STATES = {
    "baseline": 88_854,
    "without_a": 118,
    "without_b": 804,
    "without_c": 1_019,
    "without_d": 18_066,
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
        ("pre", (1, 1)), ("prop", (2, 1)), ("prop", (0, 0)), ("pre", (0, 0)),
        ("pre", (1, 1)), ("pre", (0, 0)), ("prop", (2, 0)), ("pre", (2, 0)),
        ("pre", (2, 0)),
    ],
}


def _rounds2(label: str):
    disabled = frozenset() if label == "baseline" else frozenset(label[-1])
    return check_swap_agreement(max_round=2, byzantine=1, n=4, disabled_rules=disabled,
                                want_example=True)


def test_single_round_trivially_safe():
    result = check_swap_agreement(max_round=0, byzantine=1)
    assert not result.violation
    assert result.states > 1


def test_rounds_one_baseline_safe():
    result = check_swap_agreement(max_round=1, byzantine=1)
    assert not result.violation


def test_rule_a_ablation_found_quickly():
    result = check_swap_agreement(max_round=1, byzantine=0, disabled_rules=frozenset("a"),
                                  want_example=True)
    assert result.violation
    assert result.example  # a concrete action path is reported


def test_rule_b_ablation_found():
    result = check_swap_agreement(max_round=1, byzantine=0, disabled_rules=frozenset("b"))
    assert result.violation


def test_bounds_guard():
    with pytest.raises(ProtocolError) as exc:
        check_swap_agreement(max_round=9)
    assert exc.value.code == "BoundsTooLarge"
    with pytest.raises(ProtocolError):
        check_swap_agreement(max_round=2, byzantine=2)
    with pytest.raises(ProtocolError):
        check_swap_agreement(max_round=2, byzantine=1, max_states=10)


def test_byzantine_votes_strengthen_adversary():
    baseline = check_swap_agreement(max_round=1, byzantine=0)
    with_byz = check_swap_agreement(max_round=1, byzantine=1)
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
    results = ablation_matrix(max_round=2, byzantine=1, n=4)
    assert {label: r.states for label, r in results.items()} == ROUNDS2_STATES
    for label in ["without_d", "without_a", "baseline", "without_c", "without_b"]:
        result = _rounds2(label)
        assert (result.states, result.example) == (ROUNDS2_STATES[label], ROUNDS2_EXAMPLES[label])
    # A check at other bounds in between does not disturb the next one either.
    check_swap_agreement(max_round=1, byzantine=0, disabled_rules=frozenset("a"))
    assert _rounds2("without_a").example == ROUNDS2_EXAMPLES["without_a"]
