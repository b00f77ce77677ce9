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

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Optional

from . import errors
from .accounts import AccountId, Request, RequestKind, UnlockEffect
from .committee import Authenticated, Certificate, signed
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
    accounts: dict[int, tuple[AccountId, int]]  # role -> the (id, n) the creation names
    locks: dict[int, Certificate] = field(default_factory=dict)  # role -> its lock certificate
    proposed: Optional[Proposal] = None
    locked: Optional[Certificate] = None  # pre-commit certificate
    created_at: int = 0

    def pk(self, role: int) -> Optional[bytes]:
        """The key that the side's lock certificate hands over, once seen."""
        lock = self.locks.get(role)
        return lock.value.op.pk if lock is not None else None

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
    """One authority's instances; ``certified(cert, kind)`` is its verdict on
    a certificate of a ``kind`` value."""

    def __init__(
        self,
        certified: Callable[[Certificate, type], bool],
        schedule: RoundSchedule = RoundSchedule(),
        parity_leader: bool = False,
    ):
        self.certified = certified
        self.schedule = schedule
        self.parity_leader = parity_leader
        self.instances: dict[AccountId, SwapInstance] = {}
        self.tombstones: set[AccountId] = set()

    def init_instance(self, eff: InitInstanceEffect, now: int) -> None:
        if eff.target in self.tombstones or eff.target in self.instances:
            return  # no-op on redelivery; never resurrect a deleted instance
        self.instances[eff.target] = SwapInstance(
            accounts={1: (eff.id1, eff.n1), 2: (eff.id2, eff.n2)}, created_at=now
        )

    def _is_lock_cert(self, cert: Optional[Certificate], swid: AccountId, role: int) -> bool:
        """Whether `cert` is a valid lock certificate for this swid and role
        (False also for no certificate)."""
        if not self.certified(cert, Request):
            return False
        request = cert.value
        return request.kind == RequestKind.LOCK and request.op.swid == swid and request.op.role == role

    def handle_proposal(
        self,
        auth: Authenticated,
        lock1: Optional[Certificate],
        lock2: Optional[Certificate],
        now: int,
    ) -> PreCommitStatement:
        proposal = signed(auth, Proposal)
        instance = self.instances.get(proposal.swid)
        if instance is None:
            raise err(errors.UNKNOWN_INSTANCE, str(proposal.swid))
        for role, lock in ((1, lock1), (2, lock2)):
            if lock is None:
                continue
            if not self._is_lock_cert(lock, proposal.swid, role):
                raise err(errors.BAD_LOCK_CERT, f"role {role}")
            if (lock.value.id, lock.value.n) != instance.accounts[role]:
                raise err(errors.BAD_LOCK_CERT, f"role {role} does not match instance")
            instance.locks[role] = lock
        if auth.pk not in (instance.pk(1), instance.pk(2)):
            raise err(errors.NOT_A_LOCKED_OWNER, str(proposal.swid))
        if proposal.decision == DecisionValue.CONFIRM and len(instance.locks) < 2:
            raise err(errors.INVALID_CONFIRM, "both accounts must be locked")
        if not self.schedule.is_available(instance.created_at, proposal.round, now):
            raise err(errors.ROUND_UNAVAILABLE, f"round {proposal.round}")
        if self.parity_leader and proposal.round > self.schedule.escalation_round:
            required = instance.pk(1 if proposal.round % 2 == 0 else 2)
            if required is None or auth.pk != required:
                raise err(errors.ROUND_UNAVAILABLE, f"round {proposal.round} reserved for the other owner")
        if proposal == instance.proposed:
            return PreCommitStatement(proposal)  # idempotent re-vote
        if not is_safe_proposal(*instance.rule_view(), (proposal.round, proposal.decision)):
            raise err(errors.UNSAFE, f"proposal round {proposal.round}")
        instance.proposed = proposal
        return PreCommitStatement(proposal)

    def handle_pre_commit(self, cert: Certificate) -> CommitStatement:
        if not self.certified(cert, PreCommitStatement):
            raise err(errors.BAD_CERTIFICATE, "pre-commit certificate")
        proposal = cert.value.proposal
        instance = self.instances.get(proposal.swid)
        if instance is None:
            raise err(errors.UNKNOWN_INSTANCE, str(proposal.swid))
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

        Each side is one lock certificate: the attached one if it is valid
        and, for a Confirm on a live instance, names that side's (id, n); else
        the instance's. An Abort thus frees accounts even after early instance
        deletion; a Confirm needs both sides, each taking the other's key. An
        unlock logs its lock certificate, the one certified request at (id, n),
        not the commit certificate, of which one decision may have several.
        Junk attachments never block a valid commit.
        """
        if not self.certified(cert, CommitStatement):
            raise err(errors.BAD_CERTIFICATE, "commit certificate")
        proposal = cert.value.proposal
        swid = proposal.swid
        instance = self.instances.get(swid)
        confirm = proposal.decision == DecisionValue.CONFIRM

        locks = {} if instance is None else dict(instance.locks)
        for role, lock in ((1, lock1), (2, lock2)):
            if self._is_lock_cert(lock, swid, role) and (
                not confirm or instance is None
                or (lock.value.id, lock.value.n) == instance.accounts[role]
            ):
                locks[role] = lock

        if instance is not None:
            del self.instances[swid]
        self.tombstones.add(swid)
        if confirm and len(locks) < 2:
            return []
        return [
            UnlockEffect(target=locks[role].value.id, n=locks[role].value.n,
                         new_pk=locks[3 - role].value.op.pk if confirm else None, cert=locks[role])
            for role in (1, 2) if role in locks
        ]
