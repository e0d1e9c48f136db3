"""The metaplectic double cover of Sp(V) built from Maslov-index Weil indices.

An element is a symplectic map g together with the value t0 of its lift
function at a base Lagrangian; values at every other Lagrangian follow from
the four-gon coherence rule, and multiplication twists by the cocycle
gamma(tau(l, g l, g h l)).  The canonical split lift takes t0 from the
orientation pairing of (g l, l); its sign flip gives the other lift of g.
"""

from __future__ import annotations

import numpy as np

from .characters import AdditiveCharacter, approx_eq
from .errors import DimensionMismatch
from .field import FpMatrix
from .maslov import Orientation, edge_factor, maslov_gamma
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

    def value_at(self, l: Lagrangian) -> complex:
        """t(l) = gamma(tau(base, g base, g l, l)) * t0."""
        if l == self.base:
            return self.t0
        if self._gbase is None:
            self._gbase = self.g.image(self.base)
        return maslov_gamma(self.char, self.base, self._gbase, self.g.image(l), l) * self.t0

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

    def close_to(self, other: "MpElement", tol: float = 1e-8) -> bool:
        return (
            self.char == other.char
            and self.g == other.g
            and self.base == other.base
            and approx_eq(self.t0, other.t0, tol)
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


def character_factor_doubled(e: MpElement) -> complex:
    """The same factor computed as the doubled embedding evaluated at the diagonal."""
    return embed_doubled(e).value_at(diagonal_lagrangian(e.space))
