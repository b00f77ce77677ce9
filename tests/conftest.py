"""Shared fixtures: a 4-authority committee with helpers to mint certificates."""

import random

import pytest

import bftledger.wire  # noqa: F401  (freeze wire tags for every test module)
from bftledger import keys, tpke
from bftledger.committee import (Certificate, Committee, aggregate_certificate, check_certificate,
                                 make_vote)


class CommitteeHarness:
    def __init__(self, seed=11, n=4):
        rng = random.Random(seed)
        self.rng = rng
        self.signers = [keys.mac_keypair(rng) for _ in range(n)]
        self.committee = Committee(tuple(s.public_key for s in self.signers))

    def certify(self, value, signers=None):
        indices = range(self.committee.quorum) if signers is None else signers
        votes = [make_vote(i, self.signers[i], value) for i in indices]
        return aggregate_certificate(self.committee, value, votes)

    def certified(self, cert, kind):
        """The certificate checker that a service or an asset check takes: as a
        fresh ``Authority.certified`` answers, true for a valid certificate of
        a ``kind`` value only."""
        return (isinstance(cert, Certificate) and type(cert.value) is kind
                and check_certificate(self.committee, cert))

    def forge(self, value, how, other):
        """A certificate over ``value`` that no quorum signed: with ``how`` "few",
        the votes of 2f signers; with "other", a quorum's votes over ``other``."""
        if how == "few":
            signers = range(self.committee.quorum - 1)
            return Certificate(value, tuple(make_vote(i, self.signers[i], value) for i in signers))
        return Certificate(value, self.certify(other).votes)

    def keypair(self):
        return keys.mac_keypair(self.rng)


@pytest.fixture
def harness():
    return CommitteeHarness()


@pytest.fixture(params=["few", "other"], ids=["too_few_signers", "votes_over_another_value"])
def forgery(request):
    """How ``CommitteeHarness.forge`` forges a certificate."""
    return request.param


@pytest.fixture
def verified_indices(monkeypatch):
    """The index of every share that tpke.share_verify is asked about, in order."""
    calls = []
    real = tpke.share_verify

    def counting(public, c, share):
        calls.append(share.index)
        return real(public, c, share)

    monkeypatch.setattr(tpke, "share_verify", counting)
    return calls
