"""Account identifiers, operations, and the account state machine.

Accounts are addressed by hierarchical never-reused UIDs. A request is
validated and locks the account (``pending``); a certificate over the
request is then executed exactly once per sequence number. Effects that
touch other UIDs travel as idempotent cross-shard messages.

Operations are an open set: modules that add their own account operations
(asset spends, auction creation) register them here. A validator only raises
to refuse a request. An executor applies a certified request and returns its
effects, or returns None to park the certificate until a credit pays for it.
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
    """Unlock an account after a swap commit, optionally handing it a new owner
    key. `cert` is the side's lock certificate: the one certified request at
    (target, n), whichever commit certificate the authority applied."""

    target: AccountId
    n: int
    new_pk: Optional[bytes]
    cert: Certificate


@dataclass(frozen=True)
class SetOwnerEffect:
    target: AccountId
    pk: bytes
    cert: Certificate


@dataclass(frozen=True)
class EscrowDebitEffect:
    """Drain an auction's escrow account at settlement."""

    target: AccountId
    amount: int
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
    received: set[bytes] = field(default_factory=set)  # value digests of applied certificates
    parked: Optional[Certificate] = None

    @property
    def alg(self) -> algebra_mod.StateAlgebra:
        return algebra_mod.by_name(self.algebra)

    @property
    def balance(self) -> int:
        money = self.alg.money(self.state)
        return 0 if money is None else money


# -- Operation validation / execution registries -------------------------------

# validator(account, request_id, op) raises ProtocolError to refuse the request.
# executor(ledger, account, request_id, op, cert) returns the certified
# operation's effects, or None, leaving the account untouched, when the account
# cannot afford it yet: the certificate is then parked until a credit arrives.
VALIDATORS: dict[type, Callable] = {}
EXECUTORS: dict[type, Callable] = {}


def operation(op_cls: type, validator: Callable, executor: Callable) -> None:
    VALIDATORS[op_cls] = validator
    EXECUTORS[op_cls] = executor


def validate_operation(account: AccountState, id: AccountId, op: Any) -> None:
    validator = VALIDATORS.get(type(op))
    if validator is None:
        raise err(errors.BAD_VALUE, f"unknown operation {type(op).__name__}")
    validator(account, id, op)


def check_derived_id(account: AccountState, id: AccountId, child: AccountId) -> None:
    """A new object's UID must be its creator's UID extended by the creating sequence number."""
    if child != id.child(account.next_sequence):
        raise err(errors.BAD_DERIVED_ID, f"{child} is not {id}::{account.next_sequence}")


def _receive(account: AccountState, cert: Certificate) -> bool:
    """Record a certificate that acts on this account; False if it was already recorded."""
    digest = value_digest(cert.value)
    if digest in account.received:
        return False
    account.received.add(digest)
    return True


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
        # Escrow debits that arrived before the deposits they drain.
        self.deferred_effects: dict[AccountId, list[EscrowDebitEffect]] = {}

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

    def owned_account(self, auth: Authenticated, id: AccountId) -> AccountState:
        """The active account ``id``, provided its owner signed ``auth``."""
        account = self.accounts.get(id)
        if account is None:
            raise err(errors.UNKNOWN_ACCOUNT, str(id))
        if account.pk is None:
            raise err(errors.INACTIVE_ACCOUNT, str(id))
        if not check_authenticated(auth, expected_pk=account.pk):
            raise err(errors.BAD_AUTH, str(id))
        return account

    def check_request(self, auth: Authenticated) -> AccountState:
        """The account that ``auth``'s request may lock: its owner signed it, at
        its next sequence number, with no other request pending, and the
        operation is valid now. A re-sent pending request is validated again."""
        request = auth.payload
        if not isinstance(request, Request):
            raise err(errors.BAD_AUTH, "payload is not a request")
        account = self.owned_account(auth, request.id)
        if account.pending is not None and account.pending != request:
            raise err(errors.ACCOUNT_BUSY, str(request.id))
        if account.next_sequence != request.n:
            raise err(
                errors.SEQUENCE_MISMATCH,
                f"expected {account.next_sequence}, got {request.n}",
            )
        validate_operation(account, request.id, request.op)
        return account

    def handle_request(self, auth: Authenticated) -> Request:
        """Check a request and lock the account on it; returns the value to vote on."""
        self.check_request(auth).pending = auth.payload
        return auth.payload

    # -- confirmation path --

    def handle_confirmation(self, cert: Certificate) -> list:
        """Execute a certified Execute request once; idempotent on replay.

        Returns cross-shard effects. If the account cannot afford the
        operation yet (missing funds at this replica), the certificate is
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
        return self._execute(account, cert)

    def _execute(self, account: AccountState, cert: Certificate) -> list:
        request = cert.value
        effects = EXECUTORS[type(request.op)](self, account, request.id, request.op, cert)
        if effects is None:
            account.parked = cert
            return []
        # The account may have been deactivated by its own operation.
        if request.id in self.accounts:
            self._advance(request.id, account, cert)
        return effects

    def _advance(self, id: AccountId, account: AccountState, cert: Certificate) -> None:
        """Close the account's current sequence number with ``cert``."""
        account.next_sequence += 1
        account.pending = None
        account.parked = None
        account.confirmed.append(cert)
        self.on_mutate(id, account)

    def _retry(self, id: AccountId) -> list:
        """Retry work blocked on this account's funds: deferred escrow debits
        first, then a parked confirmation."""
        for eff in self.deferred_effects.pop(id, []):
            self.apply_escrow_debit(eff)  # may defer itself again
        # A parked certificate is always for the account's next sequence
        # number: every advance of the sequence clears it.
        account = self.accounts.get(id)
        if account is None or account.parked is None:
            return []
        return self._execute(account, account.parked)

    # -- cross-shard effect application (idempotent) --

    def apply_init_account(self, eff: InitAccountEffect) -> None:
        if eff.target in self.tombstones:
            return  # never re-create a deactivated id
        account = self.accounts.get(eff.target) or self.init_account(eff.target, eff.pk)
        _receive(account, eff.cert)

    def apply_credit(self, eff: CreditEffect) -> list:
        """Apply a certified remote update exactly once (dedup by cert digest)."""
        if eff.target in self.tombstones:
            return []  # a credit to a deactivated id is dropped
        account = self.accounts.get(eff.target) or self.init_account(eff.target, None)
        # An update that does not fit this account's algebra is dropped.
        if not account.alg.applicable(eff.update) or not _receive(account, eff.cert):
            return []
        account.state = account.alg.apply(account.state, eff.update)
        self.on_mutate(eff.target, account)
        return self._retry(eff.target)

    def apply_escrow_debit(self, eff: EscrowDebitEffect) -> None:
        """Drain the escrow once (dedup by cert digest), deferring until any
        deposit credits that have not landed at this replica arrive."""
        account = self.accounts.get(eff.target) or self.init_account(eff.target, None)
        digest = value_digest(eff.cert.value)
        if digest in account.received:
            return
        if account.balance < eff.amount:
            queue = self.deferred_effects.setdefault(eff.target, [])
            if eff not in queue:
                queue.append(eff)
            return
        account.received.add(digest)
        account.state = account.alg.apply(account.state, account.alg.money_update(-eff.amount))
        self.on_mutate(eff.target, account)

    def apply_unlock(self, eff: UnlockEffect) -> None:
        account = self.accounts.get(eff.target)
        if account is None or account.next_sequence != eff.n:
            return  # unknown id, or a stale or already applied unlock
        if eff.new_pk is not None:
            account.pk = eff.new_pk
        self._advance(eff.target, account, eff.cert)

    def apply_set_owner(self, eff: SetOwnerEffect) -> None:
        account = self.accounts.get(eff.target)
        if account is not None and _receive(account, eff.cert):
            account.pk = eff.pk

    def deactivate(self, id: AccountId, marker: bytes) -> None:
        self.accounts.pop(id, None)
        self.tombstones[id] = marker


# -- Core operation validators/executors ---------------------------------------


def _validate_transfer(account: AccountState, id: AccountId, op: Transfer) -> None:
    if op.value <= 0:
        raise err(errors.BAD_VALUE, f"transfer of {op.value}")
    if op.value > account.balance:
        raise err(errors.INSUFFICIENT_FUNDS, f"{op.value} > {account.balance}")


def _apply_local(account: AccountState, update: Any) -> bool:
    """Apply an executor's local update unless the account cannot afford it yet."""
    alg = account.alg
    if update is None or not alg.applicable(update):
        return False
    state = alg.apply(account.state, update)
    if not alg.is_valid(state):
        return False
    account.state = state
    return True


def _execute_transfer(ledger: Ledger, account: AccountState, id: AccountId, op: Transfer, cert: Certificate):
    if not _apply_local(account, account.alg.money_update(-op.value)):
        return None
    return [CreditEffect(target=op.dest, update=algebra_mod.ScalarUpdate(op.value), cert=cert)]


def _execute_change_key(ledger: Ledger, account: AccountState, id: AccountId, op: ChangeKey, cert: Certificate):
    account.pk = op.pk
    return []


def _validate_start_instance(account: AccountState, id: AccountId, op: StartConsensusInstance) -> None:
    check_derived_id(account, id, op.swid)
    if op.id1 == op.id2:
        raise err(errors.SAME_ACCOUNT_SWAP, str(op.id1))


def _execute_start_instance(
    ledger: Ledger, account: AccountState, id: AccountId, op: StartConsensusInstance, cert: Certificate
):
    from .swap import InitInstanceEffect

    return [
        InitInstanceEffect(
            target=op.swid, id1=op.id1, n1=op.n1, id2=op.id2, n2=op.n2, cert=cert
        )
    ]


def _validate_lock_into(account: AccountState, id: AccountId, op: LockInto) -> None:
    if op.role not in (1, 2):
        raise err(errors.BAD_VALUE, f"lock role {op.role}")


def _validate_apply_update(account: AccountState, id: AccountId, op: ApplyUpdate) -> None:
    reason = algebra_mod.validate_apply(account.alg, account.state, op.u_minus, op.u_plus)
    if reason is not None:
        raise err(reason, str(id))


def _execute_apply_update(ledger: Ledger, account: AccountState, id: AccountId, op: ApplyUpdate, cert: Certificate):
    if not _apply_local(account, op.u_minus):
        return None
    return [CreditEffect(target=op.dest, update=op.u_plus, cert=cert)]


operation(
    OpenAccount,
    lambda account, id, op: check_derived_id(account, id, op.child),
    lambda ledger, account, id, op, cert: [InitAccountEffect(target=op.child, pk=op.pk, cert=cert)],
)
operation(Transfer, _validate_transfer, _execute_transfer)
operation(ChangeKey, lambda account, id, op: None, _execute_change_key)
operation(StartConsensusInstance, _validate_start_instance, _execute_start_instance)
VALIDATORS[LockInto] = _validate_lock_into  # no executor: a swap instance spends lock certificates
operation(ApplyUpdate, _validate_apply_update, _execute_apply_update)
