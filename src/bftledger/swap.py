"""On-demand one-shot binary consensus instances for atomic swaps.

Each instance decides Confirm or Abort for one swap of account ownership.
Clients holding a lock certificate lead rounds; authorities vote on
proposals (producing pre-commit certificates) and on pre-commit certificates
(producing commit certificates), constrained by four safety rules:

(a) a new, different proposal must carry a strictly higher round than the
    last proposal voted;
(b) once a pre-commit certificate is locked, later proposals must carry a
    strictly higher round and the same decision;
(c) a pre-commit certificate below the last proposal's round is rejected;
(d) a pre-commit certificate below the locked round is rejected.

The rule functions see only (round, decision) pairs: the authority passes
`SwapInstance.rule_view()`, and the model check passes its records as they are.

Round numbers are released over time, linearly at first and then at an
exponentially slowing rate, so they stay boundable without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from . import errors
from .accounts import AccountId, LockInto, Request, RequestKind, UnlockEffect
from .committee import Authenticated, Certificate, check_authenticated, check_certificate
from .errors import err


class DecisionValue(IntEnum):
    CONFIRM = 0
    ABORT = 1


@dataclass(frozen=True)
class Proposal:
    swid: AccountId
    round: int
    decision: DecisionValue

    def __post_init__(self):
        if self.round < 0:
            raise ValueError("round must be non-negative")


@dataclass(frozen=True)
class PreCommitStatement:
    proposal: Proposal


@dataclass(frozen=True)
class CommitStatement:
    proposal: Proposal


@dataclass(frozen=True)
class InitInstanceEffect:
    target: AccountId
    id1: AccountId
    n1: int
    id2: AccountId
    n2: int
    cert: Certificate


@dataclass
class SwapInstance:
    id1: AccountId
    n1: int
    id2: AccountId
    n2: int
    pk1: Optional[bytes] = None
    pk2: Optional[bytes] = None
    proposed: Optional[Proposal] = None
    locked: Optional[Certificate] = None  # pre-commit certificate
    created_at: int = 0

    def side(self, role: int) -> tuple[AccountId, int, Optional[bytes]]:
        if role == 1:
            return (self.id1, self.n1, self.pk1)
        return (self.id2, self.n2, self.pk2)

    def set_pk(self, role: int, pk: bytes) -> None:
        if role == 1:
            self.pk1 = pk
        else:
            self.pk2 = pk

    @property
    def locked_proposal(self) -> Optional[Proposal]:
        return self.locked.value.proposal if self.locked is not None else None

    def rule_view(self) -> tuple:
        """(proposed, locked proposal) as the (round, decision) pairs that the
        safety rules take."""
        return tuple(None if p is None else (p.round, p.decision)
                     for p in (self.proposed, self.locked_proposal))


# -- Round availability ---------------------------------------------------------


@dataclass(frozen=True)
class RoundSchedule:
    """Release times for round numbers: linear up to the escalation round,
    then the gap to the next round doubles each time."""

    interval: int = 1000  # ticks; 1000 ticks = 1 simulated second
    escalation_round: int = 8

    def release_time(self, created_at: int, k: int) -> int:
        if k <= self.escalation_round:
            return created_at + self.interval * k
        j = k - self.escalation_round
        if j > 64:
            # Far past any simulation horizon; avoid huge powers.
            j = 64
        return created_at + self.interval * (self.escalation_round + (1 << j) - 1)

    def is_available(self, created_at: int, k: int, now: int) -> bool:
        if k < 0 or k >= (1 << 63):
            return False
        if k > self.escalation_round + 64:
            return False
        return now >= self.release_time(created_at, k)


# -- Safety rules ----------------------------------------------------------------


def is_safe_proposal(proposed, locked, p, disabled: frozenset = frozenset()) -> bool:
    """Rules (a) and (b) for the candidate proposal `p`, given the last proposal
    voted and the locked pre-commit's proposal. Each is a (round, decision)
    pair, or None when there is none. Re-submitting the exact stored proposal
    stays safe."""
    if proposed is not None and p != proposed and "a" not in disabled and p[0] <= proposed[0]:
        return False
    return locked is None or "b" in disabled or (p[0] > locked[0] and p[1] == locked[1])


def is_safe_pre_commit(proposed, locked, p, disabled: frozenset = frozenset()) -> bool:
    """Rules (c) and (d) for a pre-commit certificate on the proposal `p`; the
    arguments are (round, decision) pairs as for `is_safe_proposal`."""
    if proposed is not None and "c" not in disabled and p[0] < proposed[0]:
        return False
    return locked is None or "d" in disabled or p[0] >= locked[0]


# -- Consensus service (one authority's instances) -------------------------------


class SwapService:
    def __init__(
        self,
        committee,
        schedule: RoundSchedule = RoundSchedule(),
        parity_leader: bool = False,
    ):
        self.committee = committee
        self.schedule = schedule
        self.parity_leader = parity_leader
        self.instances: dict[AccountId, SwapInstance] = {}
        self.tombstones: set[AccountId] = set()

    def init_instance(self, eff: InitInstanceEffect, now: int) -> None:
        if eff.target in self.tombstones or eff.target in self.instances:
            return  # no-op on redelivery; never resurrect a deleted instance
        self.instances[eff.target] = SwapInstance(
            id1=eff.id1, n1=eff.n1, id2=eff.id2, n2=eff.n2, created_at=now
        )

    def _parse_lock_cert(self, cert: Certificate, swid: AccountId, role: int):
        """Return (id, n, pk) from a valid lock certificate for this swid/role,
        else None (also for no certificate)."""
        if not isinstance(cert, Certificate):
            return None
        request = cert.value
        if not isinstance(request, Request) or request.kind != RequestKind.LOCK:
            return None
        op = request.op
        if not isinstance(op, LockInto) or op.swid != swid or op.role != role:
            return None
        if not check_certificate(self.committee, cert):
            return None
        return (request.id, request.n, op.pk)

    def handle_proposal(
        self,
        auth: Authenticated,
        lock1: Optional[Certificate],
        lock2: Optional[Certificate],
        now: int,
    ) -> PreCommitStatement:
        proposal = auth.payload
        if not isinstance(proposal, Proposal):
            raise err(errors.BAD_AUTH, "payload is not a proposal")
        instance = self.instances.get(proposal.swid)
        if instance is None:
            raise err(errors.UNKNOWN_INSTANCE, str(proposal.swid))
        if not check_authenticated(auth):
            raise err(errors.BAD_AUTH, "proposal signature")
        for role, lock in ((1, lock1), (2, lock2)):
            if lock is None:
                continue
            parsed = self._parse_lock_cert(lock, proposal.swid, role)
            if parsed is None:
                raise err(errors.BAD_LOCK_CERT, f"role {role}")
            lock_id, lock_n, lock_pk = parsed
            inst_id, inst_n, _ = instance.side(role)
            if lock_id != inst_id or lock_n != inst_n:
                raise err(errors.BAD_LOCK_CERT, f"role {role} does not match instance")
            instance.set_pk(role, lock_pk)
        if auth.pk not in (instance.pk1, instance.pk2) or auth.pk is None:
            raise err(errors.NOT_A_LOCKED_OWNER, str(proposal.swid))
        if proposal.decision == DecisionValue.CONFIRM and (
            instance.pk1 is None or instance.pk2 is None
        ):
            raise err(errors.INVALID_CONFIRM, "both accounts must be locked")
        if not self.schedule.is_available(instance.created_at, proposal.round, now):
            raise err(errors.ROUND_UNAVAILABLE, f"round {proposal.round}")
        if self.parity_leader and proposal.round > self.schedule.escalation_round:
            required = instance.pk1 if proposal.round % 2 == 0 else instance.pk2
            if required is None or auth.pk != required:
                raise err(errors.ROUND_UNAVAILABLE, f"round {proposal.round} reserved for the other owner")
        if proposal == instance.proposed:
            return PreCommitStatement(proposal)  # idempotent re-vote
        if not is_safe_proposal(*instance.rule_view(), (proposal.round, proposal.decision)):
            raise err(errors.UNSAFE, f"proposal round {proposal.round}")
        instance.proposed = proposal
        return PreCommitStatement(proposal)

    def handle_pre_commit(self, cert: Certificate) -> CommitStatement:
        if not isinstance(cert.value, PreCommitStatement):
            raise err(errors.BAD_CERTIFICATE, "not a pre-commit certificate")
        proposal = cert.value.proposal
        instance = self.instances.get(proposal.swid)
        if instance is None:
            raise err(errors.UNKNOWN_INSTANCE, str(proposal.swid))
        if not check_certificate(self.committee, cert):
            raise err(errors.BAD_CERTIFICATE, "pre-commit vote check failed")
        if not is_safe_pre_commit(*instance.rule_view(), (proposal.round, proposal.decision)):
            raise err(errors.UNSAFE, f"pre-commit round {proposal.round}")
        instance.locked = cert
        return CommitStatement(proposal)

    def handle_commit(
        self,
        cert: Certificate,
        lock1: Optional[Certificate],
        lock2: Optional[Certificate],
    ) -> list[UnlockEffect]:
        """Unlock (and on Confirm, rekey) the swapped accounts; delete the instance.

        Abort unlocks honor attached lock certificates without checking them
        against instance data, so accounts can always be freed after early
        instance deletion. Confirm unlocks need both owner keys: on a live
        instance they come from the instance or from an attached certificate
        for the same (id, n); after deletion, from the attached certificates.
        Junk attachments never block a valid commit.
        """
        if not isinstance(cert.value, CommitStatement):
            raise err(errors.BAD_CERTIFICATE, "not a commit certificate")
        if not check_certificate(self.committee, cert):
            raise err(errors.BAD_CERTIFICATE, "commit vote check failed")
        proposal = cert.value.proposal
        swid = proposal.swid
        instance = self.instances.get(swid)

        sides = {role: None if instance is None else instance.side(role) for role in (1, 2)}
        for role, lock in ((1, lock1), (2, lock2)):
            parsed = self._parse_lock_cert(lock, swid, role)
            if parsed is not None and (
                proposal.decision == DecisionValue.ABORT
                or sides[role] is None
                or parsed[:2] == sides[role][:2]
            ):
                sides[role] = parsed

        effects: list[UnlockEffect] = []
        if proposal.decision == DecisionValue.CONFIRM:
            # Keys are exchanged, so unlocking side i needs the other side's key.
            if all(sides[r] is not None and sides[r][2] is not None for r in (1, 2)):
                for role in (1, 2):
                    acct_id, n, _ = sides[role]
                    new_pk = sides[3 - role][2]
                    effects.append(UnlockEffect(target=acct_id, n=n, new_pk=new_pk, cert=cert))
        else:
            for role in (1, 2):
                if sides[role] is not None and sides[role][2] is not None:
                    acct_id, n, _ = sides[role]
                    effects.append(UnlockEffect(target=acct_id, n=n, new_pk=None, cert=cert))

        if instance is not None:
            del self.instances[swid]
        self.tombstones.add(swid)
        return effects
