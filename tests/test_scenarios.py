"""End-to-end scenarios through the deterministic simulator, audits included."""

import gc
import json
import os

import pytest

from bftledger import errors
from bftledger.errors import ProtocolError
from bftledger.fuzz import fuzz_swap_config
from bftledger.scenario import load_scenario, run_scenario, validate_scenario
from bftledger.swap import DecisionValue

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def shipped(name):
    return load_scenario(os.path.join(SCENARIOS, f"{name}.json"))


def assert_audits(report):
    failed = [a for a in report.audits if not a.passed]
    assert not failed, "; ".join(f"{a.name}: {a.violations[:3]}" for a in failed)


def account(run, auth_name, account_name):
    authority = run.sim.authorities[auth_name]
    return authority.ledger.accounts[run.account_ids[account_name]]


def assert_honest_drivers_never_equivocate(run):
    """An honest driver never signs two different proposals at one round."""
    signed = {}
    for log in run.logs.values():
        for event in log.events:
            if event[0] != "proposal_signed":
                continue
            _tag, swid, k, decision, pk = event
            key = (pk, swid, k)
            assert signed.setdefault(key, decision) == decision, key


def test_swap_confirm_end_to_end():
    run, report = run_scenario(shipped("swap_confirm"))
    assert_audits(report)
    ctx = run.contexts["swap0"]
    start = ctx.creation.value.op  # the StartConsensusInstance: each side's (id, n)
    assert ctx.commit is not None
    assert ctx.commit.value.proposal.decision == DecisionValue.CONFIRM
    for authority in run.sim.honest_authorities():
        alice = authority.ledger.accounts[run.account_ids["alice"]]
        bob = authority.ledger.accounts[run.account_ids["bob"]]
        # instance creation consumed alice seq 0; locks were at 1 (alice), 0 (bob)
        assert alice.next_sequence == start.n1 + 1
        assert bob.next_sequence == start.n2 + 1
        assert alice.pending is None and bob.pending is None
        # owner keys were exchanged: each side now holds the other's handover key
        assert alice.pk == run.wallet[run.account_ids["alice"]].pk
        assert bob.pk == run.wallet[run.account_ids["bob"]].pk
        assert alice.pk != bob.pk
        assert not authority.swaps.instances


def test_swap_confirm_snapshot_agreement():
    run, _report = run_scenario(shipped("swap_confirm"))
    snaps = {a.snapshot_accounts() for a in run.sim.honest_authorities()}
    assert len(snaps) == 1
    assert_honest_drivers_never_equivocate(run)


def test_swap_abort_when_counterparty_declines():
    run, report = run_scenario(shipped("swap_abort"))
    assert_audits(report)
    ctx = run.contexts["swap0"]
    start = ctx.creation.value.op
    assert ctx.commit is not None
    assert ctx.commit.value.proposal.decision == DecisionValue.ABORT
    for authority in run.sim.honest_authorities():
        alice = authority.ledger.accounts[run.account_ids["alice"]]
        bob = authority.ledger.accounts[run.account_ids["bob"]]
        assert alice.pending is None
        assert alice.next_sequence == start.n1 + 1  # unlock consumed the lock's slot
        assert bob.next_sequence == 0  # bob never locked, untouched
        # wallets track the on-chain sequence numbers exactly
        assert run.wallet[run.account_ids["alice"]].next_sequence == alice.next_sequence
        assert run.wallet[run.account_ids["bob"]].next_sequence == bob.next_sequence


def test_swap_abort_both_locked_restores_accounts():
    run, report = run_scenario(shipped("swap_abort_both_locked"))
    assert_audits(report)
    ctx = run.contexts["swap0"]
    start = ctx.creation.value.op
    assert ctx.commit.value.proposal.decision == DecisionValue.ABORT
    # both owners resume normal operation at the next sequence number
    assert run.results["post_abort_transfer"] == "ok"
    for authority in run.sim.honest_authorities():
        alice = authority.ledger.accounts[run.account_ids["alice"]]
        bob = authority.ledger.accounts[run.account_ids["bob"]]
        assert alice.pending is None and bob.pending is None
        assert alice.next_sequence == start.n1 + 2  # abort unlock + follow-up transfer
        assert bob.next_sequence == start.n2 + 1
        assert alice.balance == 96 and bob.balance == 54
        # keys unchanged on abort
        assert alice.pk == run.wallet[run.account_ids["alice"]].pk
        assert bob.pk == run.wallet[run.account_ids["bob"]].pk


def test_contested_swap_single_decision_wins():
    """Owners drive opposite decisions; whoever observes the other's locked
    pre-commit adopts it, so exactly one decision commits and both finalize."""
    run, report = run_scenario(shipped("swap_contested"))
    assert_audits(report)
    ctx = run.contexts["swap0"]
    assert ctx.commit is not None
    decision = ctx.commit.value.proposal.decision.name
    assert ctx.outcome.get("owner1") == decision
    assert ctx.outcome.get("owner2") == decision
    assert not any(v == "stalled" for v in ctx.outcome.values())
    assert_honest_drivers_never_equivocate(run)


def test_swap_brokered_by_owner2():
    """With owner2 as broker the creation op takes bob's sequence 0, so bob
    locks at 1 and alice at 0. The swap confirms and each account ends one
    past its lock, at every honest authority and in the new owner's wallet."""
    config = shipped("swap_confirm")
    config["actions"][0]["broker"] = "owner2"
    run, report = run_scenario(config)
    assert_audits(report)
    ctx = run.contexts["swap0"]
    start = ctx.creation.value.op
    assert start.swid == run.account_ids["bob"].child(0)
    assert (start.n1, start.n2) == (0, 1)
    assert ctx.commit.value.proposal.decision == DecisionValue.CONFIRM
    assert ctx.outcome == {"broker": "created", "owner1": "CONFIRM", "owner2": "CONFIRM"}
    for authority in run.sim.honest_authorities():
        alice = authority.ledger.accounts[run.account_ids["alice"]]
        bob = authority.ledger.accounts[run.account_ids["bob"]]
        assert alice.next_sequence == start.n1 + 1
        assert bob.next_sequence == start.n2 + 1
        assert alice.pending is None and bob.pending is None
        for name, acct in (("alice", alice), ("bob", bob)):
            entry = run.wallet[run.account_ids[name]]
            assert (entry.pk, entry.next_sequence) == (acct.pk, acct.next_sequence)


def test_swap_survives_crash_fault():
    run, report = run_scenario(shipped("swap_crash_fault"))
    assert_audits(report)
    ctx = run.contexts["swap0"]
    assert ctx.commit is not None
    assert ctx.commit.value.proposal.decision == DecisionValue.CONFIRM


def test_swap_survives_byzantine_authority():
    run, report = run_scenario(shipped("swap_byzantine"))
    assert_audits(report)
    assert run.contexts["swap0"].commit is not None


def test_flip_flop_never_violates_agreement():
    run, report = run_scenario(shipped("swap_flip_flop"))
    agreement = next(a for a in report.audits if a.name == "agreement")
    assert agreement.passed
    for a in report.audits:
        if a.name != "eventual_consistency":
            assert a.passed, (a.name, a.violations[:3])


def test_liveness_with_parity_and_escalation():
    """With the parity-leader refinement and bounded delays, a flip-flopping
    counterparty cannot prevent the honest owner from committing."""
    run, report = run_scenario(shipped("swap_liveness_parity"))
    ctx = run.contexts["swap0"]
    assert ctx.commit is not None
    agreement = next(a for a in report.audits if a.name == "agreement")
    assert agreement.passed


def test_two_cooperating_leaders_one_decision():
    config = shipped("swap_confirm")
    config["actions"][0]["drivers"] = [1, 2]
    config["net"]["drop"] = 0.0
    run, report = run_scenario(config)
    assert_audits(report)
    ctx = run.contexts["swap0"]
    assert ctx.commit is not None
    assert ctx.outcome.get("owner1") == "CONFIRM"
    assert ctx.outcome.get("owner2") == "CONFIRM"
    assert_honest_drivers_never_equivocate(run)


def test_transfer_chain_conserves_money():
    run, report = run_scenario(shipped("transfers"))
    assert_audits(report)
    assert all(v == "ok" or v.startswith("0:") for v in run.results.values()), run.results
    for authority in run.sim.honest_authorities():
        assert authority.total_money() == run.initial_total == 150


def test_partition_heals_to_consistency():
    run, report = run_scenario(shipped("partition_heal"))
    assert_audits(report)
    snaps = set(run.synced_snapshots.values())
    assert len(snaps) == 1


def test_auction_second_price_settlement():
    run, report = run_scenario(shipped("auction_second_price"))
    assert_audits(report)
    ctx = run.contexts["auction0"]
    assert ctx.outcome.get("seller") == "settled"
    assert sorted(ctx.outcome.get("values")) == [2, 3, 5]  # bid-cert order races
    for authority in run.sim.honest_authorities():
        carol = authority.ledger.accounts[run.account_ids["carol"]]
        dan = authority.ledger.accounts[run.account_ids["dan"]]
        erin = authority.ledger.accounts[run.account_ids["erin"]]
        frank = authority.ledger.accounts[run.account_ids["frank"]]
        item = authority.ledger.accounts[run.account_ids["item"]]
        escrow = authority.ledger.accounts.get(ctx.auction_id)
        assert carol.balance == 10 + 3  # second price
        assert dan.balance == 40 - 3  # winner pays the runner-up bid
        assert erin.balance == 40 and frank.balance == 40
        assert escrow is not None and escrow.balance == 0
        assert item.pk == run.wallet[run.account_ids["dan"]].pk  # item handed over
        assert authority.total_money() == run.initial_total


def test_auction_first_price_settlement():
    run, report = run_scenario(shipped("auction_first_price"))
    assert_audits(report)
    ctx = run.contexts["auction0"]
    assert sorted(ctx.outcome.get("values")) == [4, 7]
    for authority in run.sim.honest_authorities():
        carol = authority.ledger.accounts[run.account_ids["carol"]]
        dan = authority.ledger.accounts[run.account_ids["dan"]]
        assert carol.balance == 10 + 7  # first price: winner pays its bid
        assert dan.balance == 40 - 7
        assert authority.total_money() == run.initial_total


def test_stalling_seller_leaves_deposits_escrowed():
    run, report = run_scenario(shipped("auction_stalling_seller"))
    ctx = run.contexts["auction0"]
    assert ctx.outcome.get("seller") == "stalled"
    for authority in run.sim.honest_authorities():
        escrow = authority.ledger.accounts.get(ctx.auction_id)
        assert escrow is not None and escrow.balance == 18  # 10 + 8 held
        assert authority.total_money() == run.initial_total
    for a in report.audits:
        assert a.passed, (a.name, a.violations[:3])


def test_transmute_scenario_and_replay_determinism():
    config = shipped("transmute_assets")
    run1, report1 = run_scenario(config)
    assert_audits(report1)
    first = run1.results["transmute0"]
    assert isinstance(first, list) and first
    # independent rerun of the identical scenario yields identical output digests
    run2, _ = run_scenario(shipped("transmute_assets"))
    assert run2.results["transmute0"] == first


def test_algebra_scenario_cross_class_updates():
    run, report = run_scenario(shipped("algebra_updates"))
    assert_audits(report)
    assert all(v == "ok" for v in run.results.values()), run.results
    for authority in run.sim.honest_authorities():
        vault = authority.ledger.accounts[run.account_ids["vault"]]
        gallery = authority.ledger.accounts[run.account_ids["gallery"]]
        shelf = authority.ledger.accounts[run.account_ids["shelf"]]
        assert vault.state == (15, 0)
        assert gallery.state == (5, 0)
        assert shelf.state == ((b"a", 2),)


def test_apply_reproduces_transfer_semantics():
    """Differential check: an update pair (-x, +x) ends in exactly the same
    balances and sequence numbers as Transfer(x)."""
    base_accounts = [{"name": "alice", "balance": 100}, {"name": "bob", "balance": 50}]
    via_transfer = {
        "version": 1, "name": "via_transfer", "seed": 77, "budget_seconds": 30,
        "accounts": base_accounts,
        "actions": [{"kind": "transfer", "from": "alice", "to": "bob", "value": 9}],
    }
    via_apply = {
        "version": 1, "name": "via_apply", "seed": 77, "budget_seconds": 30,
        "accounts": base_accounts,
        "actions": [{"kind": "apply", "from": "alice", "to": "bob",
                      "u_minus": {"scalar": -9}, "u_plus": {"scalar": 9}}],
    }
    run_t, report_t = run_scenario(via_transfer)
    run_a, report_a = run_scenario(via_apply)
    assert_audits(report_t)
    assert_audits(report_a)
    for run in (run_t, run_a):
        for authority in run.sim.honest_authorities():
            alice = authority.ledger.accounts[run.account_ids["alice"]]
            bob = authority.ledger.accounts[run.account_ids["bob"]]
            assert (alice.balance, bob.balance) == (91, 59)
            assert alice.next_sequence == 1
            assert len(bob.received) == 1


def test_budget_exceeded_is_reported_not_fatal():
    config = shipped("swap_confirm")
    config["budget_seconds"] = 0.2
    _run, report = run_scenario(config)
    assert not report.quiesced


def test_every_shipped_scenario_loads():
    for fname in sorted(os.listdir(SCENARIOS)):
        spec = validate_scenario(load_scenario(os.path.join(SCENARIOS, fname)))
        assert spec["version"] == 1


def test_run_scenario_makes_no_cyclic_garbage():
    """``run_scenario`` pauses the cyclic collector, which is safe only while
    a run leaves no cyclic garbage behind as long as its result is alive: with
    the collector off, a collection right after the run finds nothing, on
    every shipped scenario and fuzz configs 0-59. The call also leaves the
    collector as it found it, enabled or disabled, and after a ConfigError."""
    configs = [(fname, load_scenario(os.path.join(SCENARIOS, fname)))
               for fname in sorted(os.listdir(SCENARIOS))]
    configs += [(f"fuzz {seed}", fuzz_swap_config(seed)) for seed in range(60)]
    assert len(configs) == 75
    gc.disable()
    try:
        for name, config in configs:
            gc.collect()
            result = run_scenario(config)
            assert gc.collect() == 0, name
            assert not gc.isenabled(), name
            del result
    finally:
        gc.enable()
    run_scenario(shipped("transfers"))
    assert gc.isenabled()
    bad = shipped("transfers")
    bad["budget_seconds"] = "soon"
    with pytest.raises(ProtocolError) as info:
        run_scenario(bad)
    assert info.value.code == errors.CONFIG_ERROR
    assert gc.isenabled()


def test_transmute_input_not_yet_opened_is_an_outcome():
    """A transmute input naming an open_account child that is not certified when
    the transmute client starts ends that action as ``unknown_input``; the run
    still reports."""
    config = shipped("transmute_assets")
    config["actions"].insert(0, {"kind": "open_account", "owner": "art1", "name": "kid"})
    config["actions"][1]["inputs"] = ["kid", "art2"]
    run, report = run_scenario(config)
    assert_audits(report)
    assert run.results["transmute1"] == "unknown_input"
    assert report.outcomes["transmute1"] == "unknown_input"
    assert run.results["open_account0"] == str(run.account_ids["kid"])


def test_failed_lock_is_an_outcome():
    """In fuzz schedule 162 owner 1's lock request never reaches a quorum; the
    owner records ``lock_failed`` instead of returning without an outcome."""
    run, report = run_scenario(fuzz_swap_config(162))
    assert report.outcomes["swap0"]["owner1"] == "lock_failed"
    assert any(event[0] == "lock_failed" for event in run.logs["client:swap0.owner1"].events)


# Perfbench swap_fuzz schedules that once failed eventual_consistency. In the
# first, owner 2 finalized with the lock copies taken when its lock wait ended,
# before owner 1 locked, so no authority that missed owner 1's lock learnt its
# key. In the other two, the owners formed commit certificates for one decision
# at different rounds, and each authority logged the one it applied first.
@pytest.mark.parametrize("schedule", [1429313080, 1142139918, 1901720973])
def test_swap_schedule_passes_every_audit(schedule):
    _run, report = run_scenario(fuzz_swap_config(schedule))
    assert_audits(report)
