"""Account identifiers, operations, and the account state machine.

Accounts are addressed by hierarchical never-reused UIDs. A request is
validated and locks the account (``pending``); a certificate over the
request is then executed exactly once per sequence number. Effects that
touch other UIDs travel as idempotent cross-shard messages.

Operations are an open set: modules that add their own account operations
(asset spends, auction creation) register a validator and an executor here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Callable, Optional

from . import algebra as algebra_mod
from . import errors, serialize
from .committee import Authenticated, Certificate, check_authenticated, value_digest
from .errors import err


@dataclass(frozen=True, order=True)
class AccountId:
    """A UID: a genesis root extended by the sequence numbers that derived it."""

    root: int
    path: tuple[int, ...] = ()

    def child(self, n: int) -> "AccountId":
        return AccountId(self.root, self.path + (n,))

    def __str__(self) -> str:
        return ":".join([str(self.root), *map(str, self.path)])


class RequestKind(IntEnum):
    EXECUTE = 0
    LOCK = 1


# -- Operations ---------------------------------------------------------------


@dataclass(frozen=True)
class OpenAccount:
    child: AccountId
    pk: bytes


@dataclass(frozen=True)
class Transfer:
    dest: AccountId
    value: int


@dataclass(frozen=True)
class ChangeKey:
    pk: bytes


@dataclass(frozen=True)
class StartConsensusInstance:
    swid: AccountId
    id1: AccountId
    n1: int
    id2: AccountId
    n2: int


@dataclass(frozen=True)
class LockInto:
    swid: AccountId
    role: int
    pk: bytes


@dataclass(frozen=True)
class ApplyUpdate:
    """Generalized payment: a local update and a safe remote update."""

    dest: AccountId
    u_minus: serialize.AnyWire
    u_plus: serialize.AnyWire


@dataclass(frozen=True)
class Request:
    kind: RequestKind
    id: AccountId
    n: int
    op: serialize.AnyWire

    def __post_init__(self):
        locking = isinstance(self.op, LockInto)
        if locking != (self.kind == RequestKind.LOCK):
            raise ValueError("request kind must be Lock exactly for LockInto operations")


def execute_request(id: AccountId, n: int, op: Any) -> Request:
    return Request(RequestKind.EXECUTE, id, n, op)


def lock_request(id: AccountId, n: int, op: LockInto) -> Request:
    return Request(RequestKind.LOCK, id, n, op)


# -- Cross-shard effects -------------------------------------------------------


@dataclass(frozen=True)
class InitAccountEffect:
    target: AccountId
    pk: Optional[bytes]
    cert: Certificate


@dataclass(frozen=True)
class CreditEffect:
    target: AccountId
    update: serialize.AnyWire
    cert: Certificate


@dataclass(frozen=True)
class UnlockEffect:
    """Unlock an account after a swap commit, optionally handing it a new owner key."""

    target: AccountId
    n: int
    new_pk: Optional[bytes]
    cert: Certificate


@dataclass(frozen=True)
class SetOwnerEffect:
    target: AccountId
    pk: bytes
    cert: Certificate


# -- Account state -------------------------------------------------------------


@dataclass
class AccountState:
    pk: Optional[bytes]
    algebra: str
    state: Any
    next_sequence: int = 0
    pending: Optional[Request] = None
    confirmed: list[Certificate] = field(default_factory=list)
    received: dict[bytes, Certificate] = field(default_factory=dict)
    parked: Optional[Certificate] = None

    @property
    def alg(self) -> algebra_mod.StateAlgebra:
        return algebra_mod.by_name(self.algebra)

    @property
    def balance(self) -> int:
        money = self.alg.money(self.state)
        return 0 if money is None else money


# -- Operation validation / execution registries -------------------------------

# validator(ledger, account, request_id, n, op) -> RequestKind (raises ProtocolError)
# executor(ledger, account, request_id, op, cert) -> list of effects
VALIDATORS: dict[type, Callable] = {}
EXECUTORS: dict[type, Callable] = {}

# applier(ledger, effect) for effect types that may need re-application once
# funds arrive (populated by the modules defining such effects)
EFFECT_APPLIERS: dict[type, Callable] = {}


def operation(op_cls: type, validator: Callable, executor: Callable) -> None:
    VALIDATORS[op_cls] = validator
    EXECUTORS[op_cls] = executor


class Ledger:
    """One authority's accounts plus tombstones for deactivated UIDs.

    The hosting authority checks certificates and signs votes; the ledger
    only decides and mutates. Handlers raise ProtocolError on rejection.
    """

    def __init__(self, algebra_of: Callable[[AccountId], str]):
        self.accounts: dict[AccountId, AccountState] = {}
        self.tombstones: dict[AccountId, bytes] = {}
        self.algebra_of = algebra_of
        self.on_mutate: Callable[[AccountId, AccountState], None] = lambda _uid, _acct: None
        self.deferred_effects: dict[AccountId, list] = {}

    # -- bootstrap / init --

    def init_account(self, id: AccountId, pk: Optional[bytes], balance: int = 0) -> AccountState:
        if id in self.accounts:
            raise err(errors.ALREADY_EXISTS, str(id))
        if id in self.tombstones:
            raise err(errors.ALREADY_EXISTS, f"{id} was deactivated")
        alg = algebra_mod.by_name(self.algebra_of(id))
        state = alg.initial()
        if balance:
            up = alg.money_update(balance)
            if up is None:
                raise err(errors.CONFIG_ERROR, f"algebra {alg.name} cannot hold funds")
            state = alg.apply(state, up)
        acct = AccountState(pk=pk, algebra=alg.name, state=state)
        self.accounts[id] = acct
        self.on_mutate(id, acct)
        return acct

    # -- request path --

    def validate_operation(self, account: AccountState, id: AccountId, n: int, op: Any) -> Request:
        validator = VALIDATORS.get(type(op))
        if validator is None:
            raise err(errors.BAD_VALUE, f"unknown operation {type(op).__name__}")
        kind = validator(self, account, id, n, op)
        return Request(kind, id, n, op)

    def handle_request(self, auth: Authenticated) -> Request:
        """Validate and lock the account on a request; returns the value to vote on."""
        request = auth.payload
        if not isinstance(request, Request):
            raise err(errors.BAD_AUTH, "payload is not a request")
        account = self.accounts.get(request.id)
        if account is None:
            raise err(errors.UNKNOWN_ACCOUNT, str(request.id))
        if account.pk is None:
            raise err(errors.INACTIVE_ACCOUNT, str(request.id))
        if not check_authenticated(auth, expected_pk=account.pk):
            raise err(errors.BAD_AUTH, str(request.id))
        if account.pending == request:
            return request  # idempotent re-vote
        if account.pending is not None:
            raise err(errors.ACCOUNT_BUSY, str(request.id))
        if account.next_sequence != request.n:
            raise err(
                errors.SEQUENCE_MISMATCH,
                f"expected {account.next_sequence}, got {request.n}",
            )
        validated = self.validate_operation(account, request.id, request.n, request.op)
        if validated != request:
            raise err(errors.BAD_VALUE, "request does not match validated form")
        account.pending = request
        return request

    # -- confirmation path --

    def handle_confirmation(self, cert: Certificate) -> list:
        """Execute a certified Execute request once; idempotent on replay.

        Returns cross-shard effects. If the operation's local mutation is not
        yet executable (missing funds at this replica), the certificate is
        parked and retried when a credit arrives.
        """
        request = cert.value
        if not isinstance(request, Request):
            raise err(errors.BAD_CERTIFICATE, "certified value is not a request")
        if request.kind != RequestKind.EXECUTE:
            raise err(errors.LOCK_NOT_ALLOWED, str(request.id))
        account = self.accounts.get(request.id)
        if account is None:
            if request.id in self.tombstones:
                return []  # deactivated later; replayed confirmation is stale
            raise err(errors.UNKNOWN_ACCOUNT, str(request.id))
        if account.pk is None:
            raise err(errors.INACTIVE_ACCOUNT, str(request.id))
        if account.next_sequence != request.n:
            return []  # replay of an already-executed (or future) sequence number
        if not self._executable(account, request.op):
            account.parked = cert
            return []
        return self._execute(account, cert, request)

    def _executable(self, account: AccountState, op: Any) -> bool:
        alg = account.alg
        if isinstance(op, Transfer):
            up = alg.money_update(-op.value)
            return up is not None and alg.is_valid(alg.apply(account.state, up))
        if isinstance(op, ApplyUpdate):
            return alg.applicable(op.u_minus) and alg.is_valid(
                alg.apply(account.state, op.u_minus)
            )
        return True

    def _execute(self, account: AccountState, cert: Certificate, request: Request) -> list:
        executor = EXECUTORS[type(request.op)]
        effects = executor(self, account, request.id, request.op, cert)
        # The account may have been deactivated by its own operation.
        if request.id in self.accounts:
            account.next_sequence = request.n + 1
            account.pending = None
            account.parked = None
            account.confirmed.append(cert)
            self.on_mutate(request.id, account)
        return effects

    def defer_effect(self, target: AccountId, eff) -> None:
        queue = self.deferred_effects.setdefault(target, [])
        if eff not in queue:
            queue.append(eff)

    def retry_parked(self, id: AccountId) -> list:
        """Retry work blocked on this account's funds: deferred incoming
        effects first, then a parked confirmation."""
        for eff in self.deferred_effects.pop(id, []):
            EFFECT_APPLIERS[type(eff)](self, eff)  # may re-defer itself
        account = self.accounts.get(id)
        if account is None or account.parked is None:
            return []
        cert = account.parked
        request = cert.value
        if account.next_sequence != request.n or not self._executable(account, request.op):
            return []
        return self._execute(account, cert, request)

    # -- cross-shard effect application (idempotent) --

    def apply_init_account(self, eff: InitAccountEffect) -> None:
        if eff.target in self.tombstones:
            return  # never re-create a deactivated id
        account = self.accounts.get(eff.target)
        if account is None:
            account = self.init_account(eff.target, eff.pk)
        digest = value_digest(eff.cert.value)
        account.received.setdefault(digest, eff.cert)

    def apply_credit(self, eff: CreditEffect) -> list:
        """Apply a certified remote update exactly once (dedup by cert digest)."""
        if eff.target in self.tombstones:
            return []  # a credit to a deactivated id is dropped
        account = self.accounts.get(eff.target)
        if account is None:
            account = self.init_account(eff.target, None)
        digest = value_digest(eff.cert.value)
        if digest in account.received:
            return []
        if not account.alg.applicable(eff.update):
            return []  # the update does not fit this account's algebra
        account.received[digest] = eff.cert
        account.state = account.alg.apply(account.state, eff.update)
        self.on_mutate(eff.target, account)
        return self.retry_parked(eff.target)

    def apply_unlock(self, eff: UnlockEffect) -> None:
        account = self.accounts.get(eff.target)
        if account is None:
            return
        if account.next_sequence != eff.n:
            return  # stale or already applied
        account.next_sequence = eff.n + 1
        account.pending = None
        account.parked = None
        if eff.new_pk is not None:
            account.pk = eff.new_pk
        account.confirmed.append(eff.cert)
        self.on_mutate(eff.target, account)

    def apply_set_owner(self, eff: SetOwnerEffect) -> None:
        account = self.accounts.get(eff.target)
        if account is None:
            return  # owner change for an unknown id
        digest = value_digest(eff.cert.value)
        if digest in account.received:
            return
        account.received[digest] = eff.cert
        account.pk = eff.pk

    def deactivate(self, id: AccountId, marker: bytes) -> None:
        self.accounts.pop(id, None)
        self.tombstones[id] = marker


# -- Core operation validators/executors ---------------------------------------


def _validate_open(ledger: Ledger, account: AccountState, id: AccountId, n: int, op: OpenAccount):
    if op.child != id.child(account.next_sequence):
        raise err(errors.BAD_DERIVED_ID, f"{op.child} is not {id}::{account.next_sequence}")
    return RequestKind.EXECUTE


def _execute_open(ledger: Ledger, account: AccountState, id: AccountId, op: OpenAccount, cert: Certificate):
    return [InitAccountEffect(target=op.child, pk=op.pk, cert=cert)]


def _validate_transfer(ledger: Ledger, account: AccountState, id: AccountId, n: int, op: Transfer):
    if op.value <= 0:
        raise err(errors.BAD_VALUE, f"transfer of {op.value}")
    if op.value > account.balance:
        raise err(errors.INSUFFICIENT_FUNDS, f"{op.value} > {account.balance}")
    return RequestKind.EXECUTE


def _execute_transfer(ledger: Ledger, account: AccountState, id: AccountId, op: Transfer, cert: Certificate):
    alg = account.alg
    account.state = alg.apply(account.state, alg.money_update(-op.value))
    credit = algebra_mod.ScalarUpdate(op.value)
    return [CreditEffect(target=op.dest, update=credit, cert=cert)]


def _validate_change_key(ledger: Ledger, account: AccountState, id: AccountId, n: int, op: ChangeKey):
    return RequestKind.EXECUTE


def _execute_change_key(ledger: Ledger, account: AccountState, id: AccountId, op: ChangeKey, cert: Certificate):
    account.pk = op.pk
    return []


def _validate_start_instance(
    ledger: Ledger, account: AccountState, id: AccountId, n: int, op: StartConsensusInstance
):
    if op.swid != id.child(account.next_sequence):
        raise err(errors.BAD_DERIVED_ID, f"{op.swid} is not {id}::{account.next_sequence}")
    if op.id1 == op.id2:
        raise err(errors.SAME_ACCOUNT_SWAP, str(op.id1))
    return RequestKind.EXECUTE


def _execute_start_instance(
    ledger: Ledger, account: AccountState, id: AccountId, op: StartConsensusInstance, cert: Certificate
):
    from .swap import InitInstanceEffect

    return [
        InitInstanceEffect(
            target=op.swid, id1=op.id1, n1=op.n1, id2=op.id2, n2=op.n2, cert=cert
        )
    ]


def _validate_lock_into(ledger: Ledger, account: AccountState, id: AccountId, n: int, op: LockInto):
    if op.role not in (1, 2):
        raise err(errors.BAD_VALUE, f"lock role {op.role}")
    return RequestKind.LOCK


def _execute_lock_into(*_args):
    raise AssertionError("lock requests are never executed as regular operations")


def _validate_apply_update(ledger: Ledger, account: AccountState, id: AccountId, n: int, op: ApplyUpdate):
    reason = algebra_mod.validate_apply(account.alg, account.state, op.u_minus, op.u_plus)
    if reason is not None:
        raise err(reason, str(id))
    return RequestKind.EXECUTE


def _execute_apply_update(ledger: Ledger, account: AccountState, id: AccountId, op: ApplyUpdate, cert: Certificate):
    account.state = account.alg.apply(account.state, op.u_minus)
    return [CreditEffect(target=op.dest, update=op.u_plus, cert=cert)]


operation(OpenAccount, _validate_open, _execute_open)
operation(Transfer, _validate_transfer, _execute_transfer)
operation(ChangeKey, _validate_change_key, _execute_change_key)
operation(StartConsensusInstance, _validate_start_instance, _execute_start_instance)
operation(LockInto, _validate_lock_into, _execute_lock_into)
operation(ApplyUpdate, _validate_apply_update, _execute_apply_update)
