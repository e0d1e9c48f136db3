"""The metaplectic double cover of Sp(V) built from Maslov-index Weil indices.

An element is a symplectic map g together with the value t0 of its lift
function at a base Lagrangian; values at every other Lagrangian follow from
the four-gon coherence rule, and multiplication twists by the cocycle
gamma(tau(l, g l, g h l)).  The canonical split lift takes t0 from the
orientation pairing of (g l, l); its sign flip gives the other lift of g.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .characters import AdditiveCharacter, approx_eq
from .errors import DimensionMismatch
from .field import FpMatrix
from .maslov import Orientation, _bases_form, _maslov_gammas, edge_factor, maslov_gamma
from .quadform import weil_index
from .symplectic import Lagrangian, SpElement, SymplecticSpace, diagonal_lagrangian


def split_value(char: AdditiveCharacter, g: SpElement, l: Lagrangian) -> complex:
    """The canonical lift value m_g(l): edge factor of (g l, l), orientation
    on g l transported from l.  Independent of the orientation chosen on l."""
    o = Orientation.default(l)
    return edge_factor(char, o.transform(g), o)


def mp_cocycle(char: AdditiveCharacter, g: SpElement, h: SpElement, l: Lagrangian) -> complex:
    """gamma(tau(l, g l, g h l)), the multiplication twist at base l."""
    return maslov_gamma(char, l, g.image(l), (g * h).image(l))


class MpElement:
    """A metaplectic group element (g, t), anchored at a base Lagrangian."""

    __slots__ = ("char", "g", "base", "t0", "_gbase")

    def __init__(self, char: AdditiveCharacter, g: SpElement, base: Lagrangian, t0: complex) -> None:
        if base.space != g.space:
            raise DimensionMismatch("base Lagrangian not in g's space")
        self.char = char
        self.g = g
        self.base = base
        self.t0 = complex(t0)
        self._gbase: Lagrangian | None = None

    @property
    def space(self) -> SymplecticSpace:
        return self.g.space

    def _moved_base(self) -> Lagrangian:
        """g base, built once."""
        if self._gbase is None:
            self._gbase = self.g.image(self.base)
        return self._gbase

    def value_at(self, l: Lagrangian) -> complex:
        """t(l) = gamma(tau(base, g base, g l, l)) * t0.

        The form takes the moved basis of l as the basis of g l, with no rref.
        """
        if l == self.base:
            return self.t0
        if l.space != self.space:
            raise DimensionMismatch("Lagrangian not in g's space")
        b = l.sub.basis.a
        moved = (b @ self.g.mat.a.T) % self.space.field.p
        bases = [self.base.sub.basis.a, self._moved_base().sub.basis.a, moved, b]
        return weil_index(self.char, _bases_form(self.space, bases)) * self.t0

    def rebased(self, new_base: Lagrangian) -> "MpElement":
        return MpElement(self.char, self.g, new_base, self.value_at(new_base))

    def __mul__(self, other: "MpElement") -> "MpElement":
        if other.char != self.char or other.base != self.base:
            raise DimensionMismatch("product needs matching character and base")
        t = self.t0 * other.t0 * mp_cocycle(self.char, self.g, other.g, self.base)
        return MpElement(self.char, self.g * other.g, self.base, t)

    def inverse(self) -> "MpElement":
        h = self.g.inv()
        t = 1.0 / (self.t0 * mp_cocycle(self.char, self.g, h, self.base))
        return MpElement(self.char, h, self.base, t)

    def __neg__(self) -> "MpElement":
        return MpElement(self.char, self.g, self.base, -self.t0)

    def close_to(self, other: "MpElement") -> bool:
        return (
            self.char == other.char
            and self.g == other.g
            and self.base == other.base
            and approx_eq(self.t0, other.t0)
        )

    def __repr__(self) -> str:
        return f"MpElement(p={self.char.p}, t0={self.t0:.6g},\n{self.g.mat.a})"


def split_lift(
    char: AdditiveCharacter,
    g: SpElement,
    base: Lagrangian | None = None,
    sign: int = 1,
) -> MpElement:
    """The canonical lift of g, or its negative for sign = -1."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if base is None:
        base = g.space.standard_lagrangian()
    return MpElement(char, g, base, sign * split_value(char, g, base))


def mp_identity(char: AdditiveCharacter, space: SymplecticSpace,
                base: Lagrangian | None = None) -> MpElement:
    return split_lift(char, space.identity(), base)


def embed_doubled(e: MpElement) -> MpElement:
    """The image of (g, t) in the doubled space: ((1, g), value (l + l) -> t(l)).

    The base moves from l to l + l; the resulting element does not depend on
    which Lagrangian anchored e.
    """
    space = e.space
    w = space.doubled()
    d = space.dim
    big = np.zeros((2 * d, 2 * d), dtype=np.int64)
    big[:d, :d] = np.eye(d, dtype=np.int64)
    big[d:, d:] = e.g.mat.a
    gbig = SpElement(w, FpMatrix(w.field, big))
    return MpElement(e.char, gbig, e.base.doubled(), e.t0)


def character_factor(e: MpElement, l: Lagrangian | None = None) -> complex:
    """t(l) * gamma(tau(graph(g), diagonal, l + l)); independent of l."""
    if l is None:
        l = e.base
    gamma = maslov_gamma(e.char, e.g.graph(), diagonal_lagrangian(e.space), l.doubled())
    return e.value_at(l) * gamma


def character_factors(e: MpElement, lags: Sequence[Lagrangian]) -> np.ndarray:
    """`character_factor(e, l)` for every l of lags, each equal to it (`==`).

    The (graph, diagonal, l + l) and (base, g base, g l, l) forms of all the
    Lagrangians are each built, reduced and evaluated as one stack.
    """
    space = e.space
    if any(l.space != space for l in lags):
        raise DimensionMismatch("Lagrangian not in g's space")
    if not lags:
        return np.zeros(0, dtype=complex)
    p = space.field.p
    n, d = space.n, space.dim
    b = np.stack([l.sub.basis.a for l in lags])
    nb = len(b)
    # l + l: the rows (b, 0) and (0, b) are in rref because b is
    ll = np.zeros((nb, 1, d, 2 * d), dtype=np.int64)
    ll[:, 0, :n, :d] = b
    ll[:, 0, n:, d:] = b
    fixed = np.stack([e.g.graph().sub.basis.a, diagonal_lagrangian(space).sub.basis.a])
    doubled = np.concatenate([np.broadcast_to(fixed, (nb, 2, d, 2 * d)), ll], axis=1)
    gammas = _maslov_gammas(e.char, space.doubled(), doubled)
    ends = np.stack([e.base.sub.basis.a, e._moved_base().sub.basis.a])
    four = np.concatenate([np.broadcast_to(ends, (nb, 2, n, d)),
                           ((b @ e.g.mat.a.T) % p)[:, None], b[:, None]], axis=1)
    # At l = base the form of (base, g base, g base, base) is zero, since
    # q = form(x2 + x3, x1 - x4) = -form(x1 + x4, x1 - x4) = 0 on x1, x4 in base;
    # its index is exactly 1 + 0j, so t(base) = t0 needs no special case.
    moves = _maslov_gammas(e.char, space, four)
    return np.array([t * e.t0 * gamma for t, gamma in zip(moves, gammas)])


def character_factor_doubled(e: MpElement) -> complex:
    """The same factor computed as the doubled embedding evaluated at the diagonal."""
    return embed_doubled(e).value_at(diagonal_lagrangian(e.space))
