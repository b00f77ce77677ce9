"""Off-chain certified assets and deterministic transmutation.

An asset is a certificate binding opaque data to an account UID at a
sequence point; authorities store nothing. Transmutation consumes input
assets (deactivating their accounts via owner-signed spends that commit to
the execution parameters) and certifies outputs of a registered
deterministic partial function. Because the spends commit to the parameters
and the function is deterministic, replaying the exchange can only ever
reproduce byte-identical output assets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import errors, serialize
from .accounts import AccountId, AccountState, Ledger, Request, operation
from .committee import Authenticated, Certificate, value_digest
from .errors import err
from .keys import digest32


@dataclass(frozen=True)
class AssetBinding:
    """The statement an asset certificate is made of."""

    id: AccountId
    n: int
    data: bytes


@dataclass(frozen=True)
class Spend:
    """Account operation: permanently deactivate the account.

    The commitment pins the transmutation parameters so replays cannot
    diverge. Accounts holding funds cannot be spent away: a certified spend
    parks while its account holds any.
    """

    commitment: bytes


def spend_commitment(params: bytes) -> bytes:
    """The commitment a Spend makes to a transmutation's parameters."""
    return digest32(serialize.encode_as(bytes, params))


@dataclass(frozen=True)
class AssetCertifyRequest:
    id: AccountId
    n: int
    data: bytes


@dataclass(frozen=True)
class TransmuteRequest:
    fexec: str
    params: bytes
    spends: tuple[Authenticated, ...]  # one signed Execute(id, n, Spend) per input
    inputs: tuple[Certificate, ...]  # input asset certificates, aligned with spends
    outputs: tuple[AccountId, ...]


@dataclass(frozen=True)
class TransmuteCore:
    """The replay identity of a transmutation: everything its outputs depend on."""

    fexec: str
    params: bytes
    inputs: tuple[AssetBinding, ...]
    outputs: tuple[AccountId, ...]


@dataclass(frozen=True)
class ExecutionFunction:
    name: str
    arity_in: int
    arity_out: int
    fn: Callable[[bytes, tuple[bytes, ...]], Optional[tuple[bytes, ...]]]

    def eval(self, params: bytes, xs: tuple[bytes, ...]) -> Optional[tuple[bytes, ...]]:
        result = self.fn(params, xs)
        if result is not None and len(result) != self.arity_out:
            raise AssertionError(f"{self.name} produced wrong output arity")
        return result


def _identity(params: bytes, xs: tuple[bytes, ...]):
    return (xs[0],)


def _relabel(params: bytes, xs: tuple[bytes, ...]):
    return (params + xs[0],)


def _merge2(params: bytes, xs: tuple[bytes, ...]):
    return (xs[0] + b"|" + xs[1],)


def _swap2(params: bytes, xs: tuple[bytes, ...]):
    return (xs[1], xs[0])


def _sum_u64(params: bytes, xs: tuple[bytes, ...]):
    # Partial: defined only on 8-byte little-endian operands.
    if any(len(x) != 8 for x in xs):
        return None
    total = sum(int.from_bytes(x, "little") for x in xs) & ((1 << 64) - 1)
    return (total.to_bytes(8, "little"),)


REGISTRY: dict[str, ExecutionFunction] = {
    f.name: f
    for f in (
        ExecutionFunction("identity", 1, 1, _identity),
        ExecutionFunction("relabel", 1, 1, _relabel),
        ExecutionFunction("merge2", 2, 1, _merge2),
        ExecutionFunction("swap2", 2, 2, _swap2),
        ExecutionFunction("sum_u64", 2, 1, _sum_u64),
    )
}


def verify_asset(certified: Callable[[Certificate], bool], cert: Certificate) -> bool:
    """Shape check plus ``certified``, the verdict on the certificate's quorum;
    old certificates stay verifiable."""
    if not isinstance(cert, Certificate) or not isinstance(cert.value, AssetBinding):
        return False
    binding = cert.value
    if binding.n < 0 or binding.id.root < 0:
        return False
    return certified(cert)


def derive_outputs(first_spend: Request, count: int) -> tuple[AccountId, ...]:
    """Deterministic output UIDs: first input extended by its spend sequence,
    then by the output index."""
    base = first_spend.id.child(first_spend.n)
    return tuple(base.child(j) for j in range(count))


def handle_certify(ledger: Ledger, auth: Authenticated) -> AssetBinding:
    """Validate an asset-binding request; returns the statement to vote on.

    Binding does not consume a sequence number, but it pins the current one,
    so successive bindings on one account are totally ordered.
    """
    req = auth.payload
    if not isinstance(req, AssetCertifyRequest):
        raise err(errors.BAD_AUTH, "payload is not a certify request")
    account = ledger.owned_account(auth, req.id)
    if req.n != account.next_sequence:
        raise err(errors.SEQUENCE_MISMATCH, f"expected {account.next_sequence}")
    return AssetBinding(id=req.id, n=req.n, data=req.data)


def handle_transmute(ledger: Ledger, certified: Callable[[Certificate], bool],
                     req: TransmuteRequest) -> list[AssetBinding]:
    """Validate a transmutation, deactivate its inputs, and return the output
    bindings to vote on.

    Each spend passes ``Ledger.check_request``, as a standalone request
    would. All checks run before any deactivation, so a rejected request
    leaves every input active. Replays against already-spent inputs re-vote
    identically when the spend tombstones carry the same replay identity.
    An account named twice would count its one asset twice, so it is refused
    first.
    """
    ids = [auth.payload.id for auth in req.spends if isinstance(auth.payload, Request)]
    if len(set(ids)) != len(ids):
        raise err(errors.BAD_VALUE, "an input account is named twice")
    fexec = REGISTRY.get(req.fexec)
    if fexec is None:
        raise err(errors.UNDEFINED_EXECUTION, f"unknown function {req.fexec!r}")
    if len(req.spends) != fexec.arity_in or len(req.inputs) != fexec.arity_in:
        raise err(errors.BAD_VALUE, f"{req.fexec} takes {fexec.arity_in} inputs")
    if len(req.outputs) != fexec.arity_out:
        raise err(errors.BAD_VALUE, f"{req.fexec} yields {fexec.arity_out} outputs")

    commitment = spend_commitment(req.params)
    bindings: list[AssetBinding] = []
    for role, (spend_auth, asset_cert) in enumerate(zip(req.spends, req.inputs)):
        spend = spend_auth.payload
        if not isinstance(spend, Request) or not isinstance(spend.op, Spend):
            raise err(errors.BAD_VALUE, f"input {role} is not a spend")
        if spend.op.commitment != commitment:
            raise err(errors.COMMITMENT_MISMATCH, f"input {role}")
        if not verify_asset(certified, asset_cert) or asset_cert.value.id != spend.id:
            raise err(errors.BAD_CERTIFICATE, f"input asset {role}")
        bindings.append(asset_cert.value)

    core = TransmuteCore(
        fexec=req.fexec, params=req.params, inputs=tuple(bindings), outputs=req.outputs
    )
    replay_id = value_digest(core)

    to_deactivate: list[AccountId] = []
    for spend_auth in req.spends:
        uid = spend_auth.payload.id
        if uid not in ledger.accounts:
            if ledger.tombstones.get(uid) == replay_id:
                continue  # replay of this exact transmutation
            raise err(errors.INPUT_INACTIVE, str(uid))
        ledger.check_request(spend_auth)
        to_deactivate.append(uid)

    xs = tuple(b.data for b in bindings)
    outputs = fexec.eval(req.params, xs)
    if outputs is None:
        raise err(errors.UNDEFINED_EXECUTION, f"{req.fexec} undefined on these inputs")
    if derive_outputs(req.spends[0].payload, fexec.arity_out) != req.outputs:
        raise err(errors.BAD_DERIVED_ID, "output ids do not match the derivation rule")

    for acct_id in to_deactivate:
        ledger.deactivate(acct_id, replay_id)
    return [
        AssetBinding(id=out_id, n=0, data=data)
        for out_id, data in zip(req.outputs, outputs)
    ]


# Spend as a regular certified account operation (outside a transmute bundle).


def _validate_spend(account: AccountState, id: AccountId, op: Spend) -> None:
    if account.balance != 0:
        raise err(errors.BAD_VALUE, "account still holds funds")


def _execute_spend(ledger: Ledger, account: AccountState, id: AccountId, op: Spend, cert: Certificate):
    if account.balance != 0:
        return None  # funded after the vote: park rather than destroy the funds
    ledger.deactivate(id, value_digest(cert.value))
    return []


operation(Spend, _validate_spend, _execute_spend)
