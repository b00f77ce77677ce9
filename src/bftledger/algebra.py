"""Commutative account-state algebras.

An algebra is a state set S, an update set U, predicates ``is_valid`` on S
and ``is_safe`` on U, and an application operator satisfying two axioms:

1. applications commute: apply(apply(s, u1), u2) == apply(apply(s, u2), u1);
2. safe updates preserve validity: is_valid(s) and is_safe(u) imply
   is_valid(apply(s, u)).

Axiom 1 makes certified remote updates order-independent across replicas;
axiom 2 lets an authority accept a remote update without seeing the target
state. Local updates are instead gated by is_valid on the resulting state.

Shipped instances: a fungible balance (non-negative integer), a single-item
flag for indivisible ownership (integer confined to -1/0/1 in practice), a
counted multiset with a parent-ownership validity rule, and binary product
composition. Update values are small wire types so they can ride inside
signed operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from . import errors, serialize

Update = Any
State = Any


@dataclass(frozen=True)
class ScalarUpdate:
    """Integer delta applied to an integer state."""

    delta: int


@dataclass(frozen=True)
class ItemUpdate:
    """Count delta for one keyed item in a multiset state."""

    item: bytes
    delta: int


@dataclass(frozen=True)
class SideUpdate:
    """Update targeting one component of a product state."""

    side: int
    inner: serialize.AnyWire


class StateAlgebra:
    name: str = "abstract"

    def initial(self) -> State:
        raise NotImplementedError

    def applicable(self, u: Update) -> bool:
        """Shape check: does this update even belong to U?"""
        raise NotImplementedError

    def is_valid(self, s: State) -> bool:
        raise NotImplementedError

    def is_safe(self, u: Update) -> bool:
        raise NotImplementedError

    def apply(self, s: State, u: Update) -> State:
        raise NotImplementedError

    def money(self, s: State) -> int | None:
        """Base-currency amount embedded in the state, if any."""
        return None

    def money_update(self, delta: int) -> Update | None:
        return None

    def encode_state(self, s: State) -> bytes:
        raise NotImplementedError

    # Samplers drive the property suites; they only need decent coverage.
    def sample_state(self, rng) -> State:
        raise NotImplementedError

    def sample_valid_state(self, rng) -> State:
        raise NotImplementedError

    def sample_update(self, rng) -> Update:
        raise NotImplementedError

    def sample_safe_update(self, rng) -> Update:
        raise NotImplementedError


class BalanceAlgebra(StateAlgebra):
    """Fungible funds: states are integers, valid when non-negative."""

    name = "balance"

    def initial(self):
        return 0

    def applicable(self, u):
        return isinstance(u, ScalarUpdate)

    def is_valid(self, s):
        return s >= 0

    def is_safe(self, u):
        return u.delta >= 0

    def apply(self, s, u):
        return s + u.delta

    def money(self, s):
        return s

    def money_update(self, delta):
        return ScalarUpdate(delta)

    def encode_state(self, s):
        return serialize.encode_as(int, s)

    def sample_state(self, rng):
        return rng.randint(-50, 200)

    def sample_valid_state(self, rng):
        return rng.randint(0, 200)

    def sample_update(self, rng):
        return ScalarUpdate(rng.randint(-60, 60))

    def sample_safe_update(self, rng):
        return ScalarUpdate(rng.randint(0, 60))


class FlagAlgebra(StateAlgebra):
    """Indivisible single-item ownership: deltas are -1 or +1.

    States range over the integers so application stays total and
    commutative; only additions are safe, so a remote update can never
    invalidate a holder.
    """

    name = "nft"

    def initial(self):
        return 0

    def applicable(self, u):
        return isinstance(u, ScalarUpdate) and u.delta in (-1, 1)

    def is_valid(self, s):
        return s >= 0

    def is_safe(self, u):
        return u.delta == 1

    def apply(self, s, u):
        return s + u.delta

    def encode_state(self, s):
        return serialize.encode_as(int, s)

    def sample_state(self, rng):
        return rng.randint(-2, 3)

    def sample_valid_state(self, rng):
        return rng.randint(0, 2)

    def sample_update(self, rng):
        return ScalarUpdate(rng.choice((-1, 1)))

    def sample_safe_update(self, rng):
        return ScalarUpdate(1)


_ITEMS = (b"a", b"b", b"ab", b"ba")


class MultisetAlgebra(StateAlgebra):
    """Counted multiset of byte-keyed items with parent ownership.

    A state is a sorted tuple of (item, count) pairs with no zero counts.
    Owning an item longer than one byte requires owning its parent (the item
    minus its last byte). Only additions of root items are safe: they can
    never break another holder's parent chain; everything else must go
    through local validation.
    """

    name = "multiset"

    def initial(self):
        return ()

    def applicable(self, u):
        return isinstance(u, ItemUpdate) and len(u.item) > 0

    def is_valid(self, s):
        counts = dict(s)
        for item, count in counts.items():
            if count < 0:
                return False
            if count > 0 and len(item) > 1 and counts.get(item[:-1], 0) <= 0:
                return False
        return True

    def is_safe(self, u):
        return u.delta >= 0 and len(u.item) == 1

    def apply(self, s, u):
        counts = dict(s)
        counts[u.item] = counts.get(u.item, 0) + u.delta
        return tuple(sorted((k, v) for k, v in counts.items() if v != 0))

    def encode_state(self, s):
        return serialize.encode_as(tuple[tuple[bytes, int], ...], s)

    def sample_state(self, rng):
        return self._sample(rng, lo=-2)

    def sample_valid_state(self, rng):
        # Build bottom-up so parents always precede children.
        counts: dict[bytes, int] = {}
        for item in _ITEMS:
            if len(item) == 1 or counts.get(item[:-1], 0) > 0:
                if rng.random() < 0.7:
                    counts[item] = rng.randint(1, 3)
        return tuple(sorted(counts.items()))

    def _sample(self, rng, lo):
        counts = {item: rng.randint(lo, 3) for item in _ITEMS if rng.random() < 0.6}
        return tuple(sorted((k, v) for k, v in counts.items() if v != 0))

    def sample_update(self, rng):
        return ItemUpdate(rng.choice(_ITEMS), rng.randint(-2, 2))

    def sample_safe_update(self, rng):
        return ItemUpdate(rng.choice((b"a", b"b")), rng.randint(0, 2))


class ProductAlgebra(StateAlgebra):
    """Pairwise composition: states are pairs, updates target one side."""

    def __init__(self, left: StateAlgebra, right: StateAlgebra, name: str):
        self.left = left
        self.right = right
        self.name = name

    def initial(self):
        return (self.left.initial(), self.right.initial())

    def _side(self, u) -> StateAlgebra:
        return self.left if u.side == 0 else self.right

    def applicable(self, u):
        if not isinstance(u, SideUpdate) or u.side not in (0, 1):
            return False
        return self._side(u).applicable(u.inner)

    def is_valid(self, s):
        return self.left.is_valid(s[0]) and self.right.is_valid(s[1])

    def is_safe(self, u):
        return self._side(u).is_safe(u.inner)

    def apply(self, s, u):
        if u.side == 0:
            return (self.left.apply(s[0], u.inner), s[1])
        return (s[0], self.right.apply(s[1], u.inner))

    def money(self, s):
        m = self.left.money(s[0])
        if m is not None:
            return m
        return self.right.money(s[1])

    def money_update(self, delta):
        inner = self.left.money_update(delta)
        if inner is not None:
            return SideUpdate(0, inner)
        inner = self.right.money_update(delta)
        if inner is not None:
            return SideUpdate(1, inner)
        return None

    def encode_state(self, s):
        return self.left.encode_state(s[0]) + self.right.encode_state(s[1])

    def sample_state(self, rng):
        return (self.left.sample_state(rng), self.right.sample_state(rng))

    def sample_valid_state(self, rng):
        return (self.left.sample_valid_state(rng), self.right.sample_valid_state(rng))

    def sample_update(self, rng):
        if rng.random() < 0.5:
            return SideUpdate(0, self.left.sample_update(rng))
        return SideUpdate(1, self.right.sample_update(rng))

    def sample_safe_update(self, rng):
        if rng.random() < 0.5:
            return SideUpdate(0, self.left.sample_safe_update(rng))
        return SideUpdate(1, self.right.sample_safe_update(rng))


def product_compose(left: StateAlgebra, right: StateAlgebra, name: str | None = None) -> ProductAlgebra:
    return ProductAlgebra(left, right, name or f"{left.name}*{right.name}")


BALANCE = BalanceAlgebra()
FLAG = FlagAlgebra()
MULTISET = MultisetAlgebra()

ALGEBRAS: dict[str, StateAlgebra] = {
    a.name: a
    for a in (
        BALANCE,
        FLAG,
        MULTISET,
        product_compose(BALANCE, FLAG, "balance*nft"),
        product_compose(BALANCE, BALANCE, "balance*balance"),
    )
}


def by_name(name: str) -> StateAlgebra:
    try:
        return ALGEBRAS[name]
    except KeyError:
        raise ValueError(f"unknown algebra {name!r}") from None


def validate_apply(alg: StateAlgebra, state: State, u_minus: Update, u_plus: Update) -> str | None:
    """Why an owner-issued pair of updates cannot be accepted, or None if it can."""
    if not alg.applicable(u_minus) or not alg.applicable(u_plus):
        return errors.INVALID_UPDATE
    if not alg.is_safe(u_plus):
        return errors.UNSAFE_REMOTE
    if not alg.is_valid(alg.apply(state, u_minus)):
        return errors.INVALID_LOCAL_RESULT
    return None
