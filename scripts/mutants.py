#!/usr/bin/env python3
"""The mutant and reversion catalogue: exact edits of the tree, each run on a
fresh copy of it.

    python scripts/mutants.py

An entry has a name, a kind, one or more (file, old, new) replacements and
a list of tests. Each ``old`` text must occur exactly once in its file, or
the entry is stale (``tests/test_mutants.py`` checks that in tier-1).

- A ``mutant`` breaks a check on purpose. It is killed when its tests fail
  on the copy; it survives when they pass.
- A ``reversion`` puts back the plain form of a speed-up that the tree keeps
  because it pays, alone or together with the others (``BENCH_29.json``
  holds the leave-one-out matrix and the combined check). Its tests are the
  ones that pin the mechanism itself, not behaviour. On the copy, tier-1
  less those tests must pass, and ``scripts/run_all_scenarios.py`` must
  print the tree's sha256 lines.

This is mutation analysis (DeMillo, Lipton and Sayward, IEEE Computer 1978)
in plain Python. Each entry runs in a new temporary directory holding a copy
of ``src``, ``tests``, ``scripts`` and ``scenarios``. The script prints one
line per entry and exits nonzero if a mutant survives, a reversion fails or
an entry is stale. It takes about 9 minutes on a 2-vCPU VM, most of it the
reversions' tier-1 runs.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
COPIED = ("src", "tests", "scripts", "scenarios", "pyproject.toml")


class Entry(NamedTuple):
    name: str
    kind: str  # "mutant" or "reversion"
    edits: tuple[tuple[str, str, str], ...]  # (file from the root, old, new)
    tests: tuple[str, ...]  # killing tests, or the tests that pin the mechanism


CATALOGUE = (
    # -- reversions: the plain form of each per-event speed-up that stays -------------
    Entry(
        "trace-event-per-delivery",
        "reversion",
        (
            ("src/bftledger/trace.py",
             "        # tuple.__new__ skips the named tuple's Python-level __new__.\n"
             "        self.events.append(tuple.__new__(TraceRecord, (\n"
             "            time, envelope.seq, envelope.src, envelope.dest,"
             " type(envelope.payload).__name__, digest)))\n",
             "        self.events.append(TraceEvent(\n"
             "            time=time, seq=envelope.seq, src=envelope.src, dest=envelope.dest,\n"
             "            kind=type(envelope.payload).__name__, digest=digest))\n"),
            ("src/bftledger/trace.py",
             "out += serialize.encode(TraceEvent(*record))",
             "out += serialize.encode(record)"),
        ),
        ("tests/test_sim.py::test_trace_records_are_trace_events_by_field",),
    ),
    Entry(
        "held-values-encoded-again",
        "reversion",
        (
            ("src/bftledger/serialize.py",
             'object.__setattr__(value, "_kept", (_epoch, digest, data))',
             'object.__setattr__(value, "_kept", (_epoch, digest))'),
            ("src/bftledger/serialize.py",
             "    kept = getattr(value, \"_kept\", None)\n"
             "    if kept is not None and kept[0] == _epoch:\n"
             "        out += kept[2]\n"
             "        return\n"
             "    _enc_tagged(value, out)\n",
             "    _enc_tagged(value, out)\n"),
            ("src/bftledger/serialize.py",
             "    env[f\"cls_{name}\"] = tp\n"
             "    return [  # the kept bytes without their tag: a concrete field has none\n"
             "        \"k = getattr(v, '_kept', None)\",\n"
             "        f\"if k is not None and k[0] == _serialize._epoch and type(v) is cls_{name}:\",\n"
             "        \"    out += k[2][1:]\",\n"
             "        \"else:\",\n"
             "        f\"    {name}(v, out)\",\n"
             "    ]\n",
             "    return [f\"{name}(v, out)\"]\n"),
        ),
        ("tests/test_serialize.py::test_stale_kept_bytes_are_never_emitted",),
    ),
    Entry(
        "kept-bytes-for-any-wire-only",
        "reversion",
        (
            ("src/bftledger/serialize.py",
             "    env[f\"cls_{name}\"] = tp\n"
             "    return [  # the kept bytes without their tag: a concrete field has none\n"
             "        \"k = getattr(v, '_kept', None)\",\n"
             "        f\"if k is not None and k[0] == _serialize._epoch and type(v) is cls_{name}:\",\n"
             "        \"    out += k[2][1:]\",\n"
             "        \"else:\",\n"
             "        f\"    {name}(v, out)\",\n"
             "    ]\n",
             "    return [f\"{name}(v, out)\"]\n"),
        ),
        ("tests/test_serialize.py::test_stale_kept_bytes_are_never_emitted[concrete]",
         "tests/test_serialize.py::test_stale_kept_bytes_are_never_emitted[optional]",
         "tests/test_serialize.py::test_stale_kept_bytes_are_never_emitted[sequence_item]"),
    ),
    Entry(
        "closure-encoders",
        "reversion",
        (
            ("src/bftledger/serialize.py",
             "        env: dict = {}\n"
             "        pair = (_generated(\"encode_optional\", [\"v = value\", *_encode_v(tp, env)], env),\n",
             "        enc = _held_encoder(_optional_of(tp))\n"
             "\n"
             "        def encode_optional(value: Any, out: bytearray) -> None:\n"
             "            out.append(value is not None)\n"
             "            if value is not None:\n"
             "                enc(value, out)\n"
             "\n"
             "        pair = (encode_optional,\n"),
            ("src/bftledger/serialize.py",
             "def _dataclass_encoder(tp: type, hints: dict) -> Callable:\n",
             "def _held_encoder(tp: Any) -> Callable:\n"
             "    enc = _codec(tp)[0]\n"
             "    if tp not in _TAG_OF:\n"
             "        return enc\n"
             "\n"
             "    def encode_held(v: Any, out: bytearray) -> None:\n"
             "        k = getattr(v, \"_kept\", None)\n"
             "        if k is not None and k[0] == _epoch and type(v) is tp:\n"
             "            out += k[2][1:]\n"
             "        else:\n"
             "            enc(v, out)\n"
             "\n"
             "    return encode_held\n"
             "\n"
             "\n"
             "def _dataclass_encoder(tp: type, hints: dict) -> Callable:\n"),
            ("src/bftledger/serialize.py",
             "    for field in dataclasses.fields(tp):\n"
             "        body += [f\"v = value.{field.name}\", *_encode_v(hints[field.name], env)]\n"
             "    return _generated(f\"encode_{tp.__name__}\", body, env)\n",
             "    fields = [(f.name, _held_encoder(hints[f.name])) for f in dataclasses.fields(tp)]\n"
             "\n"
             "    def encode_dataclass(value: Any, out: bytearray) -> None:\n"
             "        if type(value) is not tp:\n"
             "            raise EncodingError(f\"expected {tp.__name__}, got {type(value).__name__}\")\n"
             "        for name, enc_field in fields:\n"
             "            enc_field(getattr(value, name), out)\n"
             "\n"
             "    return encode_dataclass\n"),
            ("src/bftledger/serialize.py",
             "        *(f\"    {line}\" for line in _encode_v(item, env)),\n"
             "    ]\n"
             "    return _generated(\"encode_sequence\", body, env)\n",
             "    ]\n"
             "    enc = _held_encoder(item)\n"
             "\n"
             "    def encode_sequence(value: Any, out: bytearray) -> None:\n"
             "        n = _tuple_length(value)\n"
             "        if n > 0xFFFFFFFF:\n"
             "            raise EncodingError(\"sequence too long\")\n"
             "        out += _LEN.pack(n)\n"
             "        for v in value:\n"
             "            enc(v, out)\n"
             "\n"
             "    return encode_sequence\n"),
        ),
        (),
    ),
    Entry(
        "hmac-digest-for-key-pads",
        "reversion",
        (
            ("src/bftledger/keys.py", "        return _mac(self.secret, digest)",
             '        return hmac.digest(self.secret, digest, "sha256")'),
            ("src/bftledger/keys.py",
             "        return hmac.compare_digest(_mac(material, digest), sig)",
             '        return hmac.compare_digest(hmac.digest(material, digest, "sha256"), sig)'),
        ),
        (),
    ),
    Entry(
        "collector-not-paused",
        "reversion",
        (("src/bftledger/scenario.py",
          "    enabled = gc.isenabled()\n"
          "    gc.disable()\n"
          "    try:\n"
          "        return _run_scenario(config, seed)\n"
          "    finally:\n"
          "        if enabled:\n"
          "            gc.enable()\n",
          "    return _run_scenario(config, seed)\n"),),
        ("tests/test_scenarios.py::test_run_scenario_makes_no_cyclic_garbage",),
    ),
    Entry(
        "deliver-tuple-heap-entry",
        "reversion",
        (
            ("src/bftledger/sim.py",
             "        envelope = Envelope(src, dest, seq, payload)\n"
             "        self._schedule(now + delay, envelope)\n"
             "        if dup:\n"
             "            extra = rng.randrange(net.min_delay, net.max_delay + 1)\n"
             "            self._schedule(now + delay + extra, envelope)\n",
             "        item = (\"deliver\", Envelope(src, dest, seq, payload))\n"
             "        self._schedule(now + delay, item)\n"
             "        if dup:\n"
             "            extra = rng.randrange(net.min_delay, net.max_delay + 1)\n"
             "            self._schedule(now + delay + extra, item)\n"),
            ("src/bftledger/sim.py",
             "            if item.__class__ is Envelope:\n"
             "                self._deliver(item)\n"
             "            elif item[0] == \"start\":\n",
             "            kind = item[0]\n"
             "            if kind == \"deliver\":\n"
             "                self._deliver(item[1])\n"
             "            elif kind == \"start\":\n"),
            ("src/bftledger/sim.py",
             "return (item for _time, _seq, item in self._heap if item.__class__ is Envelope)",
             "return (item[1] for _time, _seq, item in self._heap if item[0] == \"deliver\")"),
        ),
        (),
    ),
    Entry(
        "check-certificate-every-call",
        "reversion",
        (
            ("src/bftledger/authority.py",
             "from .committee import Certificate, Committee, check_certificate_once, make_vote,"
             " value_digest",
             "from .committee import Certificate, Committee, check_certificate, make_vote,"
             " value_digest"),
            ("src/bftledger/authority.py", "        self.verified: set[bytes] = set()\n", ""),
            ("src/bftledger/authority.py",
             "                and check_certificate_once(self.committee, cert, self.verified))",
             "                and check_certificate(self.committee, cert))"),
        ),
        ("tests/test_committee.py::test_verified_set_never_changes_a_verdict",
         "tests/test_committee.py::test_each_authority_verifies_for_itself",
         "tests/test_committee.py::test_every_certificate_path_refuses_a_bad_certificate"),
    ),
    # -- mutants ----------------------------------------------------------------------
    Entry(
        "modelcheck-prop-inherits-tally",
        "mutant",
        (("src/bftledger/modelcheck.py",
          'inherited.append(None if kind == "prop" else tally)',
          "inherited.append(tally)"),),
        ("tests/test_modelcheck.py::test_matches_reference_search",),
    ),
    Entry(
        "modelcheck-pre-skips-agreement",
        "mutant",
        (("src/bftledger/modelcheck.py", "if violated:", "if violated and False:"),),
        ("tests/test_modelcheck.py::test_rule_a_ablation_found_quickly",),
    ),
    Entry(
        "modelcheck-collector-left-off",
        "mutant",
        (("src/bftledger/modelcheck.py",
          "        if enabled:\n            gc.enable()\n",
          "        pass\n"),),
        ("tests/test_modelcheck.py::test_check_pauses_the_collector_and_gives_it_back",),
    ),
    Entry(
        "tpke-opening-without-range-test",
        "mutant",
        (("src/bftledger/tpke.py",
          "if len(shares) < public.threshold or not 0 <= value < public.message_bound:",
          "if len(shares) < public.threshold:"),),
        ("tests/test_tpke.py::test_decrypts_to_rejects_the_message_bound",),
    ),
    Entry(
        "tpke-own-share-by-index",
        "mutant",
        (("src/bftledger/tpke.py",
          "share == own or share_verify",
          "(own is not None and share.index == own.index) or share_verify"),),
        ("tests/test_auction.py::test_other_share_at_own_index_is_verified",),
    ),
    Entry(
        "tpke-opening-without-d",
        "mutant",
        (("src/bftledger/tpke.py", "_g_pow(value * d % Q)", "_g_pow(value % Q)"),),
        ("tests/test_tpke.py::test_decrypts_to_rejects_wrong_claims",),
    ),
    Entry(
        "transmute-without-request-check",
        "mutant",
        (("src/bftledger/assets.py", "        ledger.check_request(spend_auth)\n", ""),),
        ("tests/test_assets.py::test_transmute_rejects_a_bad_input_and_deactivates_none",),
    ),
    Entry(
        "request-check-without-busy",
        "mutant",
        (("src/bftledger/accounts.py",
          "        if account.pending is not None and account.pending != request:\n"
          "            raise err(errors.ACCOUNT_BUSY, str(request.id))\n",
          ""),),
        ("tests/test_assets.py::test_transmute_rejects_a_bad_input_and_deactivates_none"
         "[other_request_pending]",),
    ),
    Entry(
        "spend-executes-while-funded",
        "mutant",
        (("src/bftledger/assets.py",
          "    if account.balance != 0:\n"
          "        return None  # funded after the vote: park rather than destroy the funds\n",
          ""),),
        ("tests/test_assets.py::test_funded_spend_parks_instead_of_destroying_money",),
    ),
    Entry(
        "transmute-input-named-twice",
        "mutant",
        (("src/bftledger/assets.py",
          "    if len(set(ids)) != len(ids):\n"
          "        raise err(errors.BAD_VALUE, \"an input account is named twice\")\n",
          ""),),
        ("tests/test_assets.py::test_transmute_rejects_a_bad_input_and_deactivates_none"
         "[input_named_twice]",),
    ),
    Entry(
        "owner-finalizes-with-stale-lock-copies",
        "mutant",
        (("src/bftledger/drivers.py",
          "CommitMsg(ctx.commit, ctx.locks.get(1), ctx.locks.get(2))",
          "CommitMsg(ctx.commit, lock1, lock2)"),),
        ("tests/test_scenarios.py::test_swap_schedule_passes_every_audit[1429313080]",),
    ),
    Entry(
        "certified-ignores-kind",
        "mutant",
        (("src/bftledger/authority.py",
          "isinstance(cert, Certificate) and type(cert.value) is kind\n",
          "isinstance(cert, Certificate)\n"),),
        ("tests/test_committee.py::test_every_certificate_path_refuses_a_bad_certificate",),
    ),
    Entry(
        "bid-cert-of-another-auction",
        "mutant",
        (("src/bftledger/auction.py",
          "self.certified(cert, BidStatement) and cert.value.auction_id == req.auction_id",
          "self.certified(cert, BidStatement)"),),
        ("tests/test_committee.py::test_every_certificate_path_refuses_a_bad_certificate",),
    ),
    Entry(
        "end-of-auction-on-another-bid-set",
        "mutant",
        (("src/bftledger/auction.py",
          "        if eob_cert.value.auction_id != req.auction_id:\n"
          "            raise err(errors.BAD_CERTIFICATE, \"end-of-bidding set mismatch\")\n",
          ""),),
        ("tests/test_committee.py::test_every_certificate_path_refuses_a_bad_certificate"
         "[EndOfAuctionMsg-of_another_auction]",),
    ),
    Entry(
        "settlement-value-count-unchecked",
        "mutant",
        (("src/bftledger/auction.py",
          "        if len(statement.values) != len(auction.included):\n"
          "            raise err(errors.BAD_CERTIFICATE, \"value count mismatch\")\n",
          ""),),
        ("tests/test_auction.py::test_settlement_with_a_value_per_bid_only",),
    ),
    Entry(
        "signed-ignores-kind",
        "mutant",
        (("src/bftledger/committee.py",
          "isinstance(auth, Authenticated) and type(auth.payload) is kind\n",
          "isinstance(auth, Authenticated)\n"),),
        ("tests/test_committee.py::test_every_owner_signed_path_refuses_a_bad_signature",),
    ),
    Entry(
        "signed-skips-signature",
        "mutant",
        (("src/bftledger/committee.py", "and check_authenticated(auth)):", "and True):"),),
        ("tests/test_committee.py::test_every_owner_signed_path_refuses_a_bad_signature",),
    ),
    Entry(
        "end-of-auction-seller-key-unchecked",
        "mutant",
        (("src/bftledger/auction.py",
          "        if auth.pk != auction.seller_pk:\n"
          "            raise err(errors.NOT_SELLER, str(req.auction_id))\n"
          "        if len(req.openings)",
          "        if len(req.openings)"),),
        ("tests/test_committee.py::test_every_owner_signed_path_refuses_a_bad_signature"
         "[EndOfAuctionMsg-another_key]",),
    ),
    Entry(
        "end-of-bidding-second-bid-set-accepted",
        "mutant",
        (("src/bftledger/auction.py",
          "        elif auction.included != statement.bids:\n"
          "            raise err(errors.WRONG_PHASE, \"a different bid set was already closed\")\n",
          ""),),
        ("tests/test_committee.py::test_malformed_message_gets_its_refusal[second_bid_set]",),
    ),
    Entry(
        "end-of-auction-openings-uncounted",
        "mutant",
        (("src/bftledger/auction.py",
          "        if len(req.openings) != len(auction.included):\n"
          "            raise err(errors.DECRYPTION_MISMATCH, \"every included bid must be opened\")\n",
          ""),),
        ("tests/test_committee.py::test_malformed_message_gets_its_refusal[fewer_openings_than_bids]",),
    ),
    Entry(
        "confirmation-on-inactive-account",
        "mutant",
        (("src/bftledger/accounts.py",
          "        if account.pk is None:\n"
          "            raise err(errors.INACTIVE_ACCOUNT, str(request.id))\n",
          ""),),
        ("tests/test_committee.py::test_malformed_message_gets_its_refusal"
         "[confirmation_on_a_receive_only_account]",),
    ),
    Entry(
        "binding-at-any-sequence",
        "mutant",
        (("src/bftledger/assets.py",
          "    if req.n != account.next_sequence:\n"
          "        raise err(errors.SEQUENCE_MISMATCH, f\"expected {account.next_sequence}\")\n",
          ""),),
        ("tests/test_committee.py::test_malformed_message_gets_its_refusal[binding_at_another_sequence]",),
    ),
    Entry(
        "broker-counts-side-one",
        "mutant",
        (("src/bftledger/drivers.py", "+ (uid == broker_id)", "+ (uid == id1)"),),
        ("tests/test_scenarios.py::test_swap_brokered_by_owner2",),
    ),
)


def stale_edits(entry: Entry, root: str = ROOT) -> list[str]:
    """Each edit of ``entry`` whose ``old`` text does not occur exactly once."""
    problems = []
    for path, old, _new in entry.edits:
        with open(os.path.join(root, path), encoding="utf-8") as f:
            count = f.read().count(old)
        if count != 1:
            problems.append(f"{path}: old text found {count} times: {old.splitlines()[0]!r}")
    return problems


def _copy(into: str) -> None:
    for name in COPIED:
        source = os.path.join(ROOT, name)
        if os.path.isdir(source):
            shutil.copytree(source, os.path.join(into, name),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy(source, into)


def _apply(entry: Entry, root: str) -> None:
    for path, old, new in entry.edits:
        full = os.path.join(root, path)
        with open(full, encoding="utf-8") as f:
            text = f.read()
        with open(full, "w", encoding="utf-8") as f:
            f.write(text.replace(old, new, 1))


def _run(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(cwd, "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


def _digests(cwd: str) -> list[str]:
    """The sha256 lines of ``scripts/run_all_scenarios.py``, wall times left out."""
    out = _run(["scripts/run_all_scenarios.py"], cwd)
    return [re.sub(r", [0-9.]+ s\)$", ")", line) for line in out.stdout.splitlines()
            if "sha256" in line]


def _summary(out: subprocess.CompletedProcess) -> str:
    lines = out.stdout.strip().splitlines()
    return lines[-1] if lines else out.stderr.strip()[-200:]


def check(entry: Entry, expected: list[str]) -> tuple[bool, str]:
    """Run one entry on a fresh copy; (as expected, what happened)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as root:
        _copy(root)
        _apply(entry, root)
        pytest = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
        if entry.kind == "mutant":
            out = _run([*pytest, "-x", *entry.tests], root)
            killed = out.returncode == 1  # a test failed; 0 is a pass, higher a usage error
            return killed, f"{'killed' if killed else 'SURVIVED'} ({_summary(out)})"
        # tests/test_mutants.py checks the catalogue against the unedited tree.
        deselect = [arg for test in (*entry.tests, "tests/test_mutants.py")
                    for arg in ("--deselect", test)]
        out = _run([*pytest, "tests", *deselect], root)
        if out.returncode != 0:
            return False, f"FAILED tier-1 ({_summary(out)})"
        if _digests(root) != expected:
            return False, "FAILED: scenario sha256 lines differ from the tree's"
        return True, f"passes ({_summary(out)}, {len(expected)} sha256 lines as the tree's)"


def main() -> int:
    started = time.perf_counter()
    expected = _digests(ROOT)
    ok = bool(expected)
    for entry in CATALOGUE:
        stale = stale_edits(entry)
        if stale:
            ok = False
            print(f"{entry.kind} {entry.name}: STALE: {'; '.join(stale)}", flush=True)
            continue
        good, what = check(entry, expected)
        ok &= good
        print(f"{entry.kind} {entry.name}: {what}", flush=True)
    print(f"{len(CATALOGUE)} entries in {time.perf_counter() - started:.0f} s: "
          f"{'all as expected' if ok else 'NOT all as expected'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
