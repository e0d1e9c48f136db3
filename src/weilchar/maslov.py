"""Maslov indices of Lagrangian tuples as explicit quadratic spaces.

The index of a polygon (l_1, ..., l_m) is represented by the form

    q(x) = sum_{i<j} form(x_j, x_i)

on the solution space {x_i in l_i : x_1 + ... + x_m = 0}, written in the
coordinates of the polarized gram matrix.  For triples this is the classical
Kashiwara construction, with q((x, y, z)) = form(x, z) on x + y + z = 0.

Orientations (Lagrangians with chosen bases) feed the determinant pairing
whose product around a polygon reproduces the Weil index of the Maslov form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .characters import AdditiveCharacter
from .errors import ArityError, DimensionMismatch, InvariantViolation
from .field import FpMatrix, RowSolver, SquareClass, Subspace
from .quadform import QuadraticSpace, WittInvariants, weil_index, witt_invariants
from .symplectic import Lagrangian, SpElement


class Orientation:
    """A Lagrangian together with a chosen basis (rows), i.e. a volume form."""

    __slots__ = ("lag", "obasis")

    def __init__(self, lag: Lagrangian, obasis) -> None:
        field = lag.space.field
        ob = obasis if isinstance(obasis, FpMatrix) else FpMatrix(field, obasis)
        if ob.shape != (lag.dim, lag.space.dim):
            raise DimensionMismatch("orientation basis has the wrong shape")
        if Subspace.from_rows(field, lag.space.dim, ob.a) != lag.sub:
            raise DimensionMismatch("orientation basis does not span the Lagrangian")
        self.lag = lag
        self.obasis = ob

    @classmethod
    def default(cls, lag: Lagrangian) -> "Orientation":
        return cls(lag, lag.sub.basis)

    @classmethod
    def random(cls, lag: Lagrangian, rng) -> "Orientation":
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        field = lag.space.field
        k = lag.dim
        while True:
            c = rng.integers(0, field.p, (k, k))
            if FpMatrix(field, c).det():
                break
        return cls(lag, (c % field.p) @ lag.sub.basis.a % field.p)

    def transform(self, g: SpElement) -> "Orientation":
        """The image orientation on g(l), transported by g."""
        moved = (self.obasis.a @ g.mat.a.T) % g.space.field.p
        return Orientation(self.lag.transform(g), moved)

    def scaled(self, c: int) -> "Orientation":
        b = self.obasis.a.copy()
        b[0] = (b[0] * c) % self.lag.space.field.p
        return Orientation(self.lag, b)

    def __repr__(self) -> str:
        return f"Orientation(p={self.lag.space.field.p},\n{self.obasis.a})"


def _extend_basis(inter: Subspace, lag: Lagrangian) -> np.ndarray:
    """Rows of lag's basis completing a basis of the intersection."""
    field = lag.space.field
    cur = inter
    out = []
    for row in lag.sub.basis.a:
        if not cur.contains(row):
            out.append(row)
            cur = cur + Subspace.from_rows(field, lag.space.dim, row[None, :])
    return np.asarray(out, dtype=np.int64).reshape(-1, lag.space.dim)


def orientation_pairing(o1: Orientation, o2: Orientation) -> SquareClass:
    """The square class pairing two oriented Lagrangians.

    Pick a basis c of the intersection and completions d_i inside each l_i.
    The symplectic form pairs the quotients l_1/c and l_2/c perfectly; the
    result is det(form(d1_a, d2_b)) corrected by the determinants relating
    (c, d_i) to the chosen orientation bases.  It scales linearly in each
    orientation, so it is well defined on volume forms.
    """
    l1, l2 = o1.lag, o2.lag
    if l1.space != l2.space:
        raise DimensionMismatch("orientations in different spaces")
    space = l1.space
    field = space.field
    p = field.p
    inter = l1.sub.intersect(l2.sub)
    c = inter.basis.a
    d1 = _extend_basis(inter, l1)
    d2 = _extend_basis(inter, l2)
    dets = []
    for ori, d in ((o1, d1), (o2, d2)):
        coords, ok = RowSolver(ori.obasis).solve_many(np.vstack([c, d]))
        if not ok.all():
            raise InvariantViolation("a basis vector lies outside its oriented Lagrangian")
        dets.append(FpMatrix(field, coords).det())
    pair = (d1 @ space.gram.a @ d2.T) % p
    det_p = FpMatrix(field, pair).det() if len(d1) else 1
    val = det_p * field.inv(dets[0]) * field.inv(dets[1])
    return SquareClass.of(field, val)


def maslov_form(*lags: Lagrangian) -> QuadraticSpace:
    """The polygon representative of the Maslov index of the given tuple."""
    if len(lags) < 2:
        raise ArityError("need at least two Lagrangians")
    space = lags[0].space
    if any(l.space != space for l in lags):
        raise DimensionMismatch("Lagrangians live in different spaces")
    field = space.field
    p = field.p
    m, n = len(lags), space.n
    stacked = np.vstack([l.sub.basis.a for l in lags])
    sol = FpMatrix(field, stacked.T).kernel()  # rows w with w @ stacked = 0
    # x[r, i]: the i-th component vector w_r,i @ B_i; s[r, i]: the sum of those before it
    x = np.einsum("rik,ikd->rid", sol.basis.a.reshape(sol.dim, m, n),
                  stacked.reshape(m, n, space.dim)) % p
    s = (np.cumsum(x, axis=1) - x) % p
    # sum_{a<b} form(x_r,b, x_s,a) = A[r, s]; the polarization adds A[s, r]
    a = np.einsum("rbi,ij,sbj->rs", x, space.gram.a, s)
    gram = (field.half * (a + a.T)) % p
    return QuadraticSpace(field, gram)


@dataclass(frozen=True, eq=False)
class MaslovClass:
    """A Maslov index: its polygon representative and its Witt invariants."""

    space: QuadraticSpace
    inv: WittInvariants


def maslov_class(char: AdditiveCharacter, *lags: Lagrangian) -> MaslovClass:
    q = maslov_form(*lags)
    return MaslovClass(q, witt_invariants(char, q))


def maslov_gamma(char: AdditiveCharacter, *lags: Lagrangian) -> complex:
    return weil_index(char, maslov_form(*lags))


def predicted_rank_disc(orients: Sequence[Orientation]) -> tuple[int, SquareClass]:
    """Closed-form rank and discriminant of the polygon representative.

    rank = ((m-2)/2) dim V - sum_i dim(l_i ^ l_{i+1}) + 2 dim(^_i l_i)
    disc = (-1)^(dim V / 2 + dim ^_i l_i) * prod_i pairing(o_i, o_{i+1})

    with indices cyclic.
    """
    if len(orients) < 2:
        raise ArityError("need at least two oriented Lagrangians")
    space = orients[0].lag.space
    field = space.field
    m = len(orients)
    subs = [o.lag.sub for o in orients]
    pair_dims = [subs[i].intersect(subs[(i + 1) % m]).dim for i in range(m)]
    common = subs[0]
    for s in subs[1:]:
        common = common.intersect(s)
    rank = ((m - 2) * space.dim) // 2 - sum(pair_dims) + 2 * common.dim
    disc = SquareClass.of(field, pow(-1, space.n + common.dim, field.p))
    for i in range(m):
        disc = disc * orientation_pairing(orients[i], orients[(i + 1) % m])
    return rank, disc


def edge_factor(char: AdditiveCharacter, o1: Orientation, o2: Orientation) -> complex:
    """gamma(1)^(dim V/2 - dim(l1 ^ l2) - 1) * gamma(pairing(o1, o2)).

    The product of edge factors around a closed polygon of oriented
    Lagrangians equals the Weil index of the polygon's Maslov form.
    """
    inter = o1.lag.sub.intersect(o2.lag.sub)
    k = o1.lag.space.n - inter.dim - 1
    return char.gamma(1) ** k * char.gamma_class(orientation_pairing(o1, o2))
