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
from .field import Fp, FpMatrix, SquareClass, Subspace, _null_rows, _null_rows_many
from .quadform import (
    QuadraticSpace,
    WittInvariants,
    _weil_indices,
    weil_index,
    witt_invariants,
)
from .symplectic import Lagrangian, SpElement, SymplecticSpace


class Orientation:
    """A Lagrangian together with a chosen basis (rows), i.e. a volume form."""

    __slots__ = ("lag", "obasis")

    def __init__(self, lag: Lagrangian, obasis) -> None:
        field = lag.space.field
        ob = obasis if isinstance(obasis, FpMatrix) else FpMatrix(field, obasis)
        if ob.shape != (lag.dim, lag.space.dim):
            raise DimensionMismatch("orientation basis has the wrong shape")
        coords, inside = lag.sub.coordinates_many(ob.a)
        if not inside.all() or FpMatrix(field, coords).det() == 0:
            raise DimensionMismatch("orientation basis does not span the Lagrangian")
        self.lag = lag
        self.obasis = ob

    @classmethod
    def _spanning(cls, lag: Lagrangian, obasis: FpMatrix) -> "Orientation":
        """An orientation whose basis spans lag by construction; no span check."""
        o = cls.__new__(cls)
        o.lag = lag
        o.obasis = obasis
        return o

    @classmethod
    def default(cls, lag: Lagrangian) -> "Orientation":
        return cls._spanning(lag, lag.sub.basis)

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
        """The image orientation on g(l), transported by g.

        g l is built from the moved basis itself, which therefore spans it.
        """
        space = self.lag.space
        moved = FpMatrix(space.field, self.obasis.a @ g.mat.a.T)
        return Orientation._spanning(
            Lagrangian(space, Subspace.from_rows(space.field, space.dim, moved.a)), moved
        )

    def scaled(self, c: int) -> "Orientation":
        b = self.obasis.a.copy()
        b[0] = (b[0] * c) % self.lag.space.field.p
        return Orientation(self.lag, b)

    def __repr__(self) -> str:
        return f"Orientation(p={self.lag.space.field.p},\n{self.obasis.a})"


def _completion(o: Orientation, c: np.ndarray) -> tuple[np.ndarray, int]:
    """(d, det) for independent rows c of o's Lagrangian: d the rows of its
    rref basis R completing c, greedily in order, and det the square class
    of det Y for Y @ o.obasis = [c; d].

    Coordinates in R are injective and send R to I, c to U and o.obasis to A,
    so the pivot columns of rref([U; I]^T) after U pick d, and det Y is
    det X / det A for the coordinates X = [U; I[rows]] of [c; d].
    """
    sub = o.lag.sub
    field = sub.field
    k = len(c)
    coords, inside = sub.coordinates_many(np.vstack([c, o.obasis.a]))
    if not inside.all():
        raise InvariantViolation("a basis vector lies outside its oriented Lagrangian")
    u, a = coords[:k], coords[k:]
    eye = np.eye(len(a), dtype=np.int64)
    pivots = FpMatrix(field, np.vstack([u, eye]).T).rref()[1]
    rows = [i - k for i in pivots[k:]]
    # A = I for the default orientation, whose basis is R itself
    det_a = 1 if np.array_equal(a, eye) else FpMatrix(field, a).det()
    if det_a == 0:
        raise InvariantViolation("an orientation basis does not span its Lagrangian")
    return sub.basis.a[rows], FpMatrix(field, np.vstack([u, eye[rows]])).det() * det_a


def orientation_pairing(
    o1: Orientation, o2: Orientation, inter: Subspace | None = None
) -> SquareClass:
    """The square class pairing two oriented Lagrangians.

    Pick a basis c of the intersection and completions d_i inside each l_i.
    The symplectic form pairs the quotients l_1/c and l_2/c perfectly; the
    result is det(form(d1_a, d2_b)) corrected by the determinants relating
    (c, d_i) to the chosen orientation bases.  It scales linearly in each
    orientation, so it is well defined on volume forms.  `inter`, when given,
    is the intersection l_1 ^ l_2 already computed by the caller.
    """
    l1, l2 = o1.lag, o2.lag
    if l1.space != l2.space:
        raise DimensionMismatch("orientations in different spaces")
    space = l1.space
    field = space.field
    if inter is None:
        inter = l1.sub.intersect(l2.sub)
    c = inter.basis.a
    d1, det1 = _completion(o1, c)
    d2, det2 = _completion(o2, c)
    val = det1 * det2
    if len(d1):
        val *= FpMatrix(field, d1 @ space.gram.a @ d2.T).det()
    return SquareClass.of(field, val)


def maslov_form(*lags: Lagrangian) -> QuadraticSpace:
    """The polygon representative of the Maslov index of the given tuple."""
    if len(lags) < 2:
        raise ArityError("need at least two Lagrangians")
    space = lags[0].space
    if any(l.space != space for l in lags):
        raise DimensionMismatch("Lagrangians live in different spaces")
    return _bases_form(space, [l.sub.basis.a for l in lags])


def _bases_form(space: SymplecticSpace, bases: Sequence[np.ndarray]) -> QuadraticSpace:
    """`maslov_form` of the Lagrangians spanned by the given bases, any bases."""
    field = space.field
    stacked = np.vstack(bases)
    # rows w with w @ stacked = 0; any basis will do, as the gram only changes by congruence
    sol = _null_rows(stacked.T, field)
    gram = _polygon_grams(sol[None], stacked.reshape(1, len(bases), space.n, space.dim),
                          space.gram.a, field)
    return QuadraticSpace(field, gram[0])


def _polygon_grams(sol: np.ndarray, bases: np.ndarray, form: np.ndarray, field: Fp) -> np.ndarray:
    """The (B, R, R) grams of the polygon forms of a stack of tuples.

    bases is (B, m, k, d): tuple b is the Lagrangians spanned by bases[b, i];
    sol is (B, R, m k): rows w with w @ bases[b].reshape(m k, d) = 0, which
    may include zero rows.  `form` is the symplectic gram.
    """
    p = field.p
    nb, m, k, d = bases.shape
    r = sol.shape[1]
    # x[b, r, i]: the i-th component vector w_r,i @ B_i; s[b, r, i]: the sum of those before it
    x = np.einsum("zrik,zikd->zrid", sol.reshape(nb, r, m, k), bases) % p
    s = (np.cumsum(x, axis=2) - x) % p
    # sum_{a<b} form(x_r,b, x_s,a) = A[r, s]; the polarization adds A[s, r]
    a = (x @ form).reshape(nb, r, m * d) @ s.reshape(nb, r, m * d).transpose(0, 2, 1)
    return (field.half * (a + a.transpose(0, 2, 1))) % p


def _maslov_gammas(
    char: AdditiveCharacter, space: SymplecticSpace, bases: np.ndarray
) -> list[complex]:
    """`maslov_gamma` of every tuple of a (B, m, k, d) stack of Lagrangian bases.

    The null rows, the grams and their Weil indices come from stacked
    eliminations, padded to one shape; the values equal those of
    `maslov_gamma` on the same bases bit for bit.
    """
    nb, m, k, d = bases.shape
    sol = _null_rows_many(bases.reshape(nb, m * k, d).transpose(0, 2, 1), space.field)
    return _weil_indices(char, _polygon_grams(sol, bases, space.gram.a, space.field))


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
    pair_inters = [subs[i].intersect(subs[(i + 1) % m]) for i in range(m)]
    common = subs[0]
    for s in subs[1:]:
        common = common.intersect(s)
    rank = ((m - 2) * space.dim) // 2 - sum(x.dim for x in pair_inters) + 2 * common.dim
    disc = SquareClass.of(field, pow(-1, space.n + common.dim, field.p))
    for i in range(m):
        disc = disc * orientation_pairing(orients[i], orients[(i + 1) % m], pair_inters[i])
    return rank, disc


def edge_factor(char: AdditiveCharacter, o1: Orientation, o2: Orientation) -> complex:
    """gamma(1)^(dim V/2 - dim(l1 ^ l2) - 1) * gamma(pairing(o1, o2)).

    The product of edge factors around a closed polygon of oriented
    Lagrangians equals the Weil index of the polygon's Maslov form.
    """
    inter = o1.lag.sub.intersect(o2.lag.sub)
    k = o1.lag.space.n - inter.dim - 1
    return char.gamma(1) ** k * char.gamma_class(orientation_pairing(o1, o2, inter))
