"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
tolerance is exact unless stated otherwise; runtime budgets are asserted
where the criterion names one.
"""

import hashlib
import itertools
import json
import os
import random
import time

import pytest

from bftledger import audit, serialize, tpke
from bftledger.accounts import (
    AccountId,
    ApplyUpdate,
    ChangeKey,
    OpenAccount,
    Transfer,
    execute_request,
)
from bftledger.algebra import ALGEBRAS, ScalarUpdate
from bftledger.assets import AssetCertifyRequest, handle_certify, handle_transmute
from bftledger.auction import (
    AuctionService,
    BidStatement,
    EndOfAuctionStatement,
    EndOfBiddingStatement,
    InitAuctionEffect,
    PriceRule,
)
from bftledger.authority import Authority
from bftledger.committee import authenticate
from bftledger.keys import digest32
from bftledger.messages import ConfirmMsg
from bftledger.modelcheck import check_swap_agreement
from bftledger.scenario import load_scenario, run_scenario
from bftledger.swap import DecisionValue

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def report_line(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number}: {status} {name}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def shipped(name):
    return load_scenario(os.path.join(SCENARIOS, f"{name}.json"))


# -- 1. agreement fuzz -------------------------------------------------------------


# sha256 over the 200 schedules' trace.bin bytes in seed order, and over their
# synced snapshots (each authority's name and consistency snapshot after the
# end-of-run sync, which runs after the trace is written). A change that alters
# what the schedules do must re-pin them and say so in CHANGES.md:
# ``python scripts/fuzz_swaps.py`` prints the current values.
FUZZ_TRACE_SHA256 = "dc060e9a0ce58ef0951988208510a5e30d7027bf48966677fd7989ee755de896"
FUZZ_SYNCED_SHA256 = "57e48798c385fab7ccd71f5d2348b1661dec5b2bb4291cce8f5a6cb3a3ccfbac"


def test_acceptance_1_agreement_fuzz():
    """>= 200 randomized adversarial swap schedules, zero failed audits (so zero
    conflicting commits), < 60 s, and the schedules' traces and synced snapshots
    are the pinned ones."""
    from bftledger.fuzz import run_fuzz

    started = time.time()
    summary = run_fuzz(runs=200, base_seed=0)
    elapsed = time.time() - started
    ok = (
        not summary.failed_audits
        and elapsed < 60
        and summary.trace_sha256 == FUZZ_TRACE_SHA256
        and summary.synced_sha256 == FUZZ_SYNCED_SHA256
    )
    report_line(1, "agreement fuzz", ok,
                f"{summary.line()}, trace sha256 {summary.trace_sha256[:16]}, "
                f"synced sha256 {summary.synced_sha256[:16]}, {elapsed:.1f}s")


# -- 2. bounded model check ---------------------------------------------------------


def test_acceptance_2_bounded_model_check():
    """Exhaustive n=4 at rounds <= 2 and rounds <= 3: safe; each rule ablation finds a
    violation at both bounds. < 5 min."""
    started = time.time()
    ok = True
    details = []
    # The baseline state counts are pinned: the whole bounded space is explored.
    for rounds, baseline_states in ((2, 88_854), (3, 4_299_539)):
        baseline = check_swap_agreement(max_round=rounds, byzantine=1)
        ablations = {
            rule: check_swap_agreement(max_round=rounds, byzantine=1, disabled_rules=frozenset(rule))
            for rule in "abcd"
        }
        ok &= (
            not baseline.violation
            and baseline.states == baseline_states
            and all(result.violation for result in ablations.values())
        )
        details.append(
            f"rounds<={rounds}: baseline {baseline.states} states, ablations "
            + ",".join(f"{r}:{'hit' if res.violation else 'MISSED'}" for r, res in ablations.items())
        )
    elapsed = time.time() - started
    ok &= elapsed < 300
    report_line(2, "bounded model check + rule ablations", ok,
                "; ".join(details) + f", {elapsed:.1f}s")


# -- 3. swap end-to-end --------------------------------------------------------------


def test_acceptance_3_swap_end_to_end():
    """Confirm swaps keys and bumps both sequences by exactly one; Abort
    restores accounts, including late unlock at a partitioned replica."""
    ok = True
    details = []

    run, report = run_scenario(shipped("swap_confirm"))
    ctx = run.contexts["swap0"]
    ok &= ctx.commit is not None and ctx.commit.value.proposal.decision == DecisionValue.CONFIRM
    handover1 = run.wallet[run.account_ids["alice"]].pk  # post-swap wallet keys
    handover2 = run.wallet[run.account_ids["bob"]].pk
    for authority in run.sim.honest_authorities():
        alice = authority.ledger.accounts[run.account_ids["alice"]]
        bob = authority.ledger.accounts[run.account_ids["bob"]]
        ok &= alice.next_sequence == ctx.n1 + 1 and bob.next_sequence == ctx.n2 + 1
        ok &= alice.pk == handover1 and bob.pk == handover2
        ok &= alice.pending is None and bob.pending is None
    ok &= len({a.snapshot_accounts() for a in run.sim.honest_authorities()}) == 1
    details.append("confirm ok")

    # Abort with one authority partitioned through the whole swap: it first
    # sees the commit during the end-of-run sync, with the lock certificate
    # attached, after the instance was created and deleted elsewhere.
    config = shipped("swap_abort_both_locked")
    config["actions"] = [a for a in config["actions"] if a["kind"] == "swap"]
    config["faults"] = {"outages": {"3": [[0.05, 3000.0]]}}
    run, report = run_scenario(config)
    ctx = run.contexts["swap0"]
    ok &= ctx.commit is not None and ctx.commit.value.proposal.decision == DecisionValue.ABORT
    for authority in run.sim.honest_authorities():
        alice = authority.ledger.accounts[run.account_ids["alice"]]
        bob = authority.ledger.accounts[run.account_ids["bob"]]
        ok &= alice.next_sequence == ctx.n1 + 1 and bob.next_sequence == ctx.n2 + 1
        ok &= alice.pending is None and bob.pending is None
        ok &= alice.pk == run.wallet[run.account_ids["alice"]].pk  # keys unchanged
    ok &= len(set(run.synced_snapshots.values())) == 1
    details.append("abort + late unlock ok")
    report_line(3, "swap end-to-end", bool(ok), "; ".join(details))


# -- 4. eventual consistency ----------------------------------------------------------


def build_certified_batch(harness_seed=21):
    """A consistent batch of certified operations over four genesis accounts."""
    from conftest import CommitteeHarness

    harness = CommitteeHarness(seed=harness_seed)
    owners = [harness.keypair() for _ in range(3)]
    a, b, c = AccountId(0), AccountId(1), AccountId(2)
    genesis = [(a, owners[0], 50), (b, owners[1], 20), (c, owners[2], 0)]
    requests = [
        execute_request(a, 0, Transfer(b, 10)),
        execute_request(a, 1, Transfer(c, 5)),
        execute_request(a, 2, OpenAccount(a.child(2), harness.keypair().public_key)),
        execute_request(a, 3, ChangeKey(harness.keypair().public_key)),
        execute_request(b, 0, Transfer(c, 3)),
        execute_request(c, 0, ApplyUpdate(AccountId(3), ScalarUpdate(-2), ScalarUpdate(2))),
        execute_request(b, 1, Transfer(a, 1)),
    ]
    messages = [ConfirmMsg(harness.certify(r)) for r in requests]
    return harness, genesis, messages


def drain(authority, message):
    queue = [("sync", message)]
    while queue:
        src, payload = queue.pop(0)
        outputs, _ = authority.handle(src, payload, 0)
        for dest, out in outputs:
            if dest == authority.name:
                queue.append((authority.name, out))


def test_acceptance_4_eventual_consistency_20_orders():
    """The same certificate set in 20 random orders: byte-identical states."""
    harness, genesis, messages = build_certified_batch()
    snapshots = set()
    for order in range(20):
        rng = random.Random(order)
        authority = Authority(0, harness.signers[0], harness.committee)
        for uid, owner, balance in genesis:
            authority.ledger.init_account(uid, owner.public_key, balance=balance)
        shuffled = messages[:]
        rng.shuffle(shuffled)
        # at-least-once delivery: keep redelivering until a fixpoint
        for _pass in range(len(messages) + 1):
            before = authority.consistency_snapshot()
            for message in shuffled:
                drain(authority, message)
            if authority.consistency_snapshot() == before:
                break
        snapshots.add(authority.consistency_snapshot())
    ok = len(snapshots) == 1
    report_line(4, "eventual consistency over 20 delivery orders", ok,
                f"{len(snapshots)} distinct state(s)")


# -- 5. conservation across shipped scenarios -------------------------------------------


# sha256 of trace.bin per shipped scenario at its own seed, as printed by
# scripts/run_all_scenarios.py. A change that alters a trace must say so.
PINNED_TRACES = {
    "algebra_updates": "10f1238e57b2a6d4e975221534e3c5af5044a117bbe0a35ade04e02bda5f7aac",
    "auction_first_price": "0b2a3d67c627a07b357239e410dc3ceec23ed7e7701df35e5a2b8d1fb5468ce4",
    "auction_second_price": "e0ba064b24c51c20819af72bdb0430e413da78aa120716220839dc727f6f5a3c",
    "auction_stalling_seller": "12b1fc0bc08990a90a56fe85582a14fbc8309bb1de415b4e04390c64f0a4b883",
    "partition_heal": "abea1a34d8db9a9eab6e9e0f2d57af0a10b04f07ff53c4190fd92305b8e6d932",
    "swap_abort": "cded647a573b3a980ef11e1c41ee88693824fe3c0a7473e84c3192eee803c45c",
    "swap_abort_both_locked": "3b19c0b25b4e6af4458e851334dc666cf0a4df13d60d1cdc15b84844d6962116",
    "swap_byzantine": "ba6d2207f008daeff3573b84ccd3654fb6b855bc0f96e5fe7a885dc37b8ccd94",
    "swap_confirm": "af4aa38b14839fbf2c96e57884a4e10e2bf9236a8c9b7fdc18380680ba75085c",
    "swap_contested": "642591088c10089c91c4640822e9526c2ce89fef55622ef0eedea9ccf0097b71",
    "swap_crash_fault": "1debd7c43a289df81c05a6ef9b51404855e2eedf6d91e04fb62524bf46c53a2c",
    "swap_flip_flop": "640e78e9e204920e1272eef21e192b12b25005abc5cf1ebf0cba51f16293e3d7",
    "swap_liveness_parity": "26a7a881adcd696c0eecf4d7d9f687fefd0dabf002666f5f59123f3dda06786d",
    "transfers": "eb6899979ab59cf1a6744fde5813164a4167b383f24a34b6dab108e77364a8c2",
    "transmute_assets": "400fabd69f03a455f5b4c5309b1345e1089081cce48cfb036a72d61a9eb75e78",
}

# sha256 over each synced authority's name and consistency snapshot, per
# shipped scenario, as printed by scripts/run_all_scenarios.py. The end-of-run sync runs after the
# trace is written, so only these pins catch a change in what it produces.
PINNED_SYNCED = {
    "algebra_updates": "9d1cfa46811630939781c0e577768323702ab0f052d14bd9430e728bd1d19341",
    "auction_first_price": "1882eeb2158fa6e82956c36299b1b21f917b43c7335a3d323d8c6ef61baac8de",
    "auction_second_price": "cc84c50a400892e25206ebf8394178d5b67bb294454f9d0e61463acd23ae3a20",
    "auction_stalling_seller": "992b9c769d2a18ff489889787f295c1214e00cbda87f88c1795a754da5d7dba2",
    "partition_heal": "77230276e808c4b4da87226ff9586b988734589ac58d7eb74f1ce229f26bdc1d",
    "swap_abort": "16cd5eaaaeee3d3abfa6bb5e82762421d2e3d17e5c7588d8561c217e9ba03212",
    "swap_abort_both_locked": "15e33d61216ebc2604c137e1db3e55fe823eb076ed428110191e6e46460be3fb",
    "swap_byzantine": "a12fe803470722b2cf59bf98995fd683586ce005256299c1f997b69f43fcf9bd",
    "swap_confirm": "a3d0af30ffaaed55ea4ec281715c0a103a080cf491df6dcb0362970987e0dddf",
    "swap_contested": "1bc89fe3a5911f3c041585879851bbb61dede2e0dddee3549a7bcdf56270ea8a",
    "swap_crash_fault": "e37150a3d84505b4be9736ff85b46e38792bd69ff0058c547d6f2bbc69413f31",
    "swap_flip_flop": "7076d81cd5817f47940c06369538d7fd1a1d0220559a32bba2e30f6ee869d88c",
    "swap_liveness_parity": "4125e16b4797951d0bedbfcb3111a7b159ebab37e4451b37be7d98fd07223f7e",
    "transfers": "7be0547572f1c31c2305a45d72a5d9d096164f235a5a413143c252aa9012cd56",
    "transmute_assets": "52d12b8328315743d199a74a9f679c81ea1bbe0c471d0bd5639cdfec6a063acf",
}

# sha256 over every authority's final snapshot, the results, the outcomes and
# every client's driver log, per shipped scenario: ``RunResult.outputs_digest``,
# as printed by scripts/run_all_scenarios.py. Only these pins cover what the
# trace and the synced snapshots leave out, such as live instances and auctions.
PINNED_OUTPUTS = {
    "algebra_updates": "c425e06b09b097e53b28e557ad5a7306f05d2903f2e79fe30b5c9b005d06ce6a",
    "auction_first_price": "dddb1729103ae8d76830b51f8a6a29ca6b21a63ec40189d5ee4b3335e065aab3",
    "auction_second_price": "0ff4abc44bf665fa7046ff90ebc0253dfc09c4486eaae364b401443d01cfa381",
    "auction_stalling_seller": "515701f4b7b56acc8cc1f5755bcdbcf4df495aeea0974b20e81f5b2ddb78e35b",
    "partition_heal": "b4e24b6e3e1d5789b51894837ee76c33221919a446a2501956fd9cfaf6ffb5f7",
    "swap_abort": "e9e0a9b414ae45ab676f1e2b0f075284af348c33272953f2afd208c65428f587",
    "swap_abort_both_locked": "09f2c915912c1628db501e19ddbb1c88909814a20ea285aee14b0fb4e772ebda",
    "swap_byzantine": "43d9520f3edb532b1d3282f01e7af21f517801f2a663f0a6e2b2a06cf1738d95",
    "swap_confirm": "6b92b8f717067bb242c186eb91fa648973576abf904caa5b6d8ba0bf3bca1d81",
    "swap_contested": "55f62f7c32daa3af27c96107646e55af889606c817078dfa0d9048bff9e43af2",
    "swap_crash_fault": "0624db6ec9a126a60a7a774766c89fde4084156d5f0984ec047c165ab0f19441",
    "swap_flip_flop": "7bb5ad192a5e88599b72b90619aac38e10701903199e4bbff5fd503d47abb71c",
    "swap_liveness_parity": "dee07983c9fcf085e5b7f9238b2f3be6be016501bb0260b9f2ba496f4c264056",
    "transfers": "962bdd2835441e21dc0e733589eaff7aea576c98e4d03bfc7762dff476c138c4",
    "transmute_assets": "1a1364ee59a1ead9052e2531d1738ce86e2cf9ef9e719b8535c9a4cdc0386145",
}

# Every standard audit passes on every shipped scenario.
PINNED_AUDITS = [
    (name, True)
    for name in (
        "agreement", "conservation", "per_account_sequence", "no_double_sign",
        "swap_monotonicity", "unforgeability", "remote_update_safety",
        "state_validity", "auction_phase_monotonicity", "eventual_consistency",
    )
]


def test_acceptance_5_conservation_every_scenario():
    """Conservation holds everywhere; traces, synced snapshots, outputs and
    audit results match the pins."""
    failures = []
    names = sorted(fname[: -len(".json")] for fname in os.listdir(SCENARIOS))
    assert names == sorted(PINNED_TRACES) == sorted(PINNED_SYNCED) == sorted(PINNED_OUTPUTS)
    for name in names:
        run, report = run_scenario(shipped(name))
        conservation = next(a for a in report.audits if a.name == "conservation")
        if not conservation.passed:
            failures.append((name, conservation.violations))
        digest = hashlib.sha256(run.sim.trace.to_bytes()).hexdigest()
        if digest != PINNED_TRACES[name]:
            failures.append((name, f"trace sha256 {digest}"))
        synced = run.synced_digest().hexdigest()
        if synced != PINNED_SYNCED[name]:
            failures.append((name, f"synced sha256 {synced}"))
        outputs = run.outputs_digest().hexdigest()
        if outputs != PINNED_OUTPUTS[name]:
            failures.append((name, f"outputs sha256 {outputs}"))
        audits = [(a.name, a.passed) for a in report.audits]
        if audits != PINNED_AUDITS:
            failures.append((name, audits))
        # The end-of-run sync makes one pass; a second one must change nothing.
        honest = run.sim.honest_authorities()
        before = [a.snapshot() for a in honest]
        run.sim.sync_deliver()
        if [a.snapshot() for a in honest] != before:
            failures.append((name, "a second sync pass changed an authority"))
    report_line(5, "conservation, pinned traces, syncs, outputs and audits across shipped scenarios",
                not failures, str(failures))


# -- 6. asset replay determinism ----------------------------------------------------------


def test_acceptance_6_asset_replay_determinism():
    from conftest import CommitteeHarness
    from bftledger.accounts import Ledger
    from bftledger.assets import Spend, TransmuteRequest, derive_outputs

    harness = CommitteeHarness(seed=22)
    ledger = Ledger(algebra_of=lambda uid: "balance")
    owner = harness.keypair()
    art = AccountId(0)
    ledger.init_account(art, owner.public_key)
    req = AssetCertifyRequest(id=art, n=0, data=b"genesis artwork")
    binding = handle_certify(ledger, authenticate(req, owner.public_key, owner))
    asset = harness.certify(binding)
    params = b"\x07"
    commitment = digest32(serialize.encode_as(bytes, params))
    spend = authenticate(
        execute_request(art, 0, Spend(commitment)), owner.public_key, owner
    )
    request = TransmuteRequest(
        fexec="relabel", params=params, spends=(spend,), inputs=(asset,),
        outputs=derive_outputs(spend.payload, 1),
    )
    first = handle_transmute(ledger, harness.certified, request)
    replays = [handle_transmute(ledger, harness.certified, request) for _ in range(3)]
    first_bytes = [serialize.encode(b) for b in first]
    ok = all([serialize.encode(b) for b in replay] == first_bytes for replay in replays)
    report_line(6, "asset replay determinism", ok, f"{len(replays)} replays byte-identical")


# -- 7. state-algebra axioms ------------------------------------------------------------


def test_acceptance_7_algebra_axioms_1000_cases():
    failures = []
    for name, alg in sorted(ALGEBRAS.items()):
        rng = random.Random(f"acc7-{name}")
        for case in range(1000):
            s = alg.sample_state(rng)
            u1, u2 = alg.sample_update(rng), alg.sample_update(rng)
            if alg.apply(alg.apply(s, u1), u2) != alg.apply(alg.apply(s, u2), u1):
                failures.append((name, "axiom1", case))
                break
        for case in range(1000):
            s = alg.sample_valid_state(rng)
            u = alg.sample_safe_update(rng)
            if not (alg.is_valid(s) and alg.is_safe(u) and alg.is_valid(alg.apply(s, u))):
                failures.append((name, "axiom2", case))
                break
    report_line(7, "state-algebra axioms, 1000 cases per algebra",
                not failures, str(failures) if failures else f"{len(ALGEBRAS)} algebras")


# -- 8. TPKE exhaustive subsets ------------------------------------------------------------


def test_acceptance_8_tpke_exhaustive():
    started = time.time()
    system = tpke.setup(4, 2, rng=random.Random(88))
    rng = random.Random(89)
    c = tpke.encrypt(system.public, 777, rng=rng, aad=b"ctx")
    shares = [tpke.share_decrypt(system.public, s, c) for s in system.shares]
    ok = True
    for pair in itertools.combinations(shares, 2):
        ok &= tpke.combine(system.public, c, list(pair)) == 777
    for single in shares:
        ok &= tpke.combine(system.public, c, [single]) is None
    for share in shares:
        flipped = tpke.DecryptionShare(
            share.index, bytes([share.mu[0] ^ 1]) + share.mu[1:], share.chal, share.resp
        )
        ok &= not tpke.share_verify(system.public, c, flipped)
        ok &= tpke.share_verify(system.public, c, share)
    elapsed = time.time() - started
    ok = bool(ok) and elapsed < 10
    report_line(8, "TPKE exhaustive subsets n=4 k=2", ok, f"{elapsed:.1f}s")


# -- 9. auction settlement vs oracle ---------------------------------------------------------


def oracle_full_settlement(values, deposits, rule, pre_balance=100, seller_pre=7):
    eligible = [(v, i) for i, (v, d) in enumerate(zip(values, deposits)) if 0 < v <= d]
    ranked = sorted(eligible, key=lambda t: (-t[0], t[1]))
    if not ranked:
        winner, price = None, 0
    else:
        winner = ranked[0][1]
        price = ranked[0][0] if rule == PriceRule.FIRST_PRICE else (
            ranked[1][0] if len(ranked) > 1 else 0
        )
    balances = {}
    for i, deposit in enumerate(deposits):
        refund = deposit - (price if i == winner else 0)
        balances[i] = pre_balance - deposit + refund
    seller = seller_pre + (price if winner is not None else 0)
    return winner, price, balances, seller


def run_settlement_engine(harness, values, deposits, rule, dummy_cipher):
    from bftledger.accounts import Ledger

    seller, item = AccountId(0), AccountId(1)
    auction_id = seller.child(0)
    seller_key = harness.keypair()
    bidder_ids = [AccountId(10 + i) for i in range(len(values))]
    bidder_keys = [harness.keypair() for _ in values]

    service = AuctionService(harness.certified)
    creation = harness.certify(execute_request(seller, 0, ChangeKey(seller_key.public_key)))
    service.init_auction(InitAuctionEffect(
        target=auction_id, seller=seller, seller_pk=seller_key.public_key,
        item=item, rule=rule, cert=creation,
    ))
    bids = tuple(
        BidStatement(
            auction_id=auction_id, bidder=uid, bidder_pk=key.public_key,
            ciphertext=dummy_cipher, deposit=deposit,
            deposit_digest=digest32(bytes([i])),
        )
        for i, (uid, key, deposit) in enumerate(zip(bidder_ids, bidder_keys, deposits))
    )
    eob_cert = harness.certify(EndOfBiddingStatement(auction_id=auction_id, bids=bids))
    eoa_cert = harness.certify(
        EndOfAuctionStatement(auction_id=auction_id, values=tuple(values))
    )
    effects = service.apply_settlement(eoa_cert, eob_cert)

    ledger = Ledger(algebra_of=lambda uid: "balance")
    ledger.init_account(seller, seller_key.public_key, balance=7)
    ledger.init_account(item, seller_key.public_key)
    for uid, key, deposit in zip(bidder_ids, bidder_keys, deposits):
        ledger.init_account(uid, key.public_key, balance=100 - deposit)
    ledger.init_account(auction_id, None, balance=sum(deposits))
    from bftledger.accounts import CreditEffect, SetOwnerEffect
    from bftledger.auction import EscrowDebitEffect

    item_owner = seller_key.public_key
    for effect in effects:
        if isinstance(effect, CreditEffect):
            ledger.apply_credit(effect)
        elif isinstance(effect, EscrowDebitEffect):
            ledger.apply_escrow_debit(effect)
        elif isinstance(effect, SetOwnerEffect):
            ledger.apply_set_owner(effect)
            item_owner = effect.pk
    got_balances = {i: ledger.accounts[uid].balance for i, uid in enumerate(bidder_ids)}
    return {
        "balances": got_balances,
        "seller": ledger.accounts[seller].balance,
        "escrow": ledger.accounts[auction_id].balance,
        "item_owner": item_owner,
        "bidder_keys": [k.public_key for k in bidder_keys],
    }


def test_acceptance_9_auction_oracle_500_vectors():
    from conftest import CommitteeHarness

    harness = CommitteeHarness(seed=23)
    dummy_cipher = tpke.encrypt(
        tpke.setup(4, 2, rng=random.Random(1)).public, 1, rng=random.Random(2), aad=b"x"
    )
    rng = random.Random("acceptance9")
    failures = []
    for rule in (PriceRule.FIRST_PRICE, PriceRule.SECOND_PRICE):
        for case in range(500):
            count = rng.randint(0, 5)
            values = tuple(rng.randint(0, 10) for _ in range(count))
            deposits = tuple(rng.randint(0, 10) for _ in range(count))
            winner, price, want_balances, want_seller = oracle_full_settlement(
                values, deposits, rule
            )
            got = run_settlement_engine(harness, values, deposits, rule, dummy_cipher)
            if got["balances"] != want_balances or got["seller"] != want_seller:
                failures.append((rule.name, case, values, deposits))
                continue
            if got["escrow"] != 0:
                failures.append((rule.name, case, "escrow", got["escrow"]))
                continue
            if winner is not None:
                if price > values[winner]:
                    failures.append((rule.name, case, "overpaid"))
                if got["item_owner"] != got["bidder_keys"][winner]:
                    failures.append((rule.name, case, "item owner"))
            if failures:
                break
        if failures:
            break
    report_line(9, "auction settlement vs oracle, 500 vectors/rule",
                not failures, str(failures[:1]) if failures else "1000 vectors total")


# -- 10. determinism -----------------------------------------------------------------------


def test_acceptance_10_trace_determinism(tmp_path):
    from bftledger.cli import main

    scenario = os.path.join(SCENARIOS, "swap_confirm.json")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    main(["run", "--scenario", scenario, "--out", str(out1), "--seed", "99"])
    main(["run", "--scenario", scenario, "--out", str(out2), "--seed", "99"])
    trace1 = (out1 / "trace.bin").read_bytes()
    trace2 = (out2 / "trace.bin").read_bytes()
    snaps_equal = all(
        (out1 / f"snapshot_auth_{i}.txt").read_bytes()
        == (out2 / f"snapshot_auth_{i}.txt").read_bytes()
        for i in range(4)
    )
    ok = trace1 == trace2 and len(trace1) > 0 and snaps_equal
    report_line(10, "byte-identical traces for identical (scenario, seed)", ok,
                f"{len(trace1)} trace bytes")
