"""Maslov indices of Lagrangian tuples as explicit quadratic spaces.

The index of a polygon (l_1, ..., l_m) is represented by the form

    q(x) = sum_{i<j} form(x_j, x_i)

on the solution space {x_i in l_i : x_1 + ... + x_m = 0}, written in the
coordinates of the polarized gram matrix.  For triples this is the classical
Kashiwara construction, with q((x, y, z)) = form(x, z) on x + y + z = 0.

Orientations (Lagrangians with chosen bases) feed the determinant pairing
whose product around a polygon reproduces the Weil index of the Maslov form.

Intersections, pairings and polygon invariants each have a stacked call over
many pairs or tuples, and the single calls are their one-element forms, so
each quantity has one implementation.  Edge factors and the predicted rank
and discriminant come only as stacks: `edge_factors` and
`predicted_rank_discs`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .characters import AdditiveCharacter
from .errors import ArityError, DimensionMismatch, InvariantViolation, ZeroFormClass
from .field import (
    Fp,
    FpMatrix,
    SquareClass,
    Subspace,
    _eliminate_many,
    _null_rows_many,
    _rank_dets_many,
)
from .quadform import (
    QuadraticSpace,
    WittInvariants,
    _gammas_of,
    _phase,
    weil_index,
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
        # c is invertible, so c @ basis spans lag
        return cls._spanning(lag, FpMatrix(field, c @ lag.sub.basis.a))

    def transform(self, g: SpElement) -> "Orientation":
        """The image orientation on g(l), transported by g: the moved basis
        spans g l, since the orientation basis spans l."""
        moved = FpMatrix(self.lag.space.field, self.obasis.a @ g.mat.a.T)
        return Orientation._spanning(self.lag.transform(g), moved)

    def scaled(self, c: int) -> "Orientation":
        b = self.obasis.a.copy()
        b[0] = (b[0] * c) % self.lag.space.field.p
        return Orientation(self.lag, b)

    def __repr__(self) -> str:
        return f"Orientation(p={self.lag.space.field.p},\n{self.obasis.a})"


def _one_space(lags: Sequence[Lagrangian]) -> SymplecticSpace:
    space = lags[0].space
    if any(l.space != space for l in lags):
        raise DimensionMismatch("Lagrangians live in different spaces")
    return space


def _edges(seq: Sequence) -> list[tuple]:
    """The cyclic edges (s_i, s_{i+1}) of a polygon, last to first included."""
    return list(zip(seq, seq[1:] + seq[:1]))


def _dims(inters: np.ndarray) -> list[int]:
    """The dimension of each subspace of a `lagrangian_intersections` stack."""
    return inters.any(axis=2).sum(axis=1).tolist()


def lagrangian_intersections(tuples: Sequence[Sequence[Lagrangian]]) -> np.ndarray:
    """l_1 ^ ... ^ l_m for every tuple, from one stacked null space.

    A Lagrangian is its own symplectic complement, so for bases B_i the
    intersection is {x : B_i gram x = 0 for every i}: the null rows of the
    stacked rows B_i gram.  Shorter tuples are padded with zero rows, which
    add no condition.  Returns a (B, d, d) stack whose nonzero rows are a
    basis of each intersection, padded with zero rows.
    """
    if not tuples:
        return np.zeros((0, 0, 0), dtype=np.int64)
    space = _one_space([l for t in tuples for l in t])
    n, d = space.n, space.dim
    rows = np.zeros((len(tuples), max(len(t) for t in tuples) * n, d), dtype=np.int64)
    for b, t in enumerate(tuples):
        rows[b, : len(t) * n] = np.concatenate([l.sub.basis.a for l in t])
    return _null_rows_many(rows @ space.gram.a, space.field)


def _completions(orients: Sequence[Orientation], cs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, minors) for every orientation o of a stack of B and rows cs[b]
    spanning a subspace of o's Lagrangian, zero rows allowed: d[b] the rows
    of o's rref basis R completing cs[b], greedily in order, then zero rows,
    and minors[b], minors[B + b] the n x n matrices X, A with
    det Y = det X / det A for Y @ o.obasis = [c; d], c the rows of cs[b]
    that rref([U; I]^T) picks, a basis of its span.

    Coordinates in R are injective and send R to I, cs to U and o.obasis to
    A.  Zero rows of U never become pivots of rref([U; I]^T), and its n
    pivot rows of [U; I] are a basis of span(U) followed by the rows of I
    that pick d; X is those n rows.
    """
    space = orients[0].lag.space
    field, n = space.field, space.n
    nb, r = cs.shape[:2]
    basis = np.array([o.lag.sub.basis.a for o in orients])
    pivots = np.array([o.lag.sub.pivots for o in orients]).reshape(nb, n)
    rows = np.concatenate([cs, np.array([o.obasis.a for o in orients])], axis=1)
    coords = np.take_along_axis(rows, pivots[:, None, :], axis=2)
    if np.any((coords @ basis - rows) % field.p):
        raise InvariantViolation("a basis vector lies outside its oriented Lagrangian")
    u_eye = np.concatenate([coords[:, :r], np.broadcast_to(np.eye(n, dtype=np.int64),
                                                           (nb, n, n))], axis=1)
    picked = _eliminate_many(u_eye.transpose(0, 2, 1), field)[1]
    # the picked rows of R first, in order, then zero rows
    keep = picked[:, r:]
    order = np.argsort(~keep, axis=1, kind="stable")
    d = np.take_along_axis(basis * keep[:, :, None], order[:, :, None], axis=1)
    return d, np.concatenate([u_eye[picked].reshape(nb, n, n), coords[:, r:]])


def orientation_pairings(
    o1s: Sequence[Orientation], o2s: Sequence[Orientation], inters: np.ndarray | None = None
) -> list[SquareClass]:
    """`orientation_pairing` of every pair (o1s[i], o2s[i]) in a few stacked
    eliminations.

    The completions of both sides take one rref stack.  Each
    (n - k) x (n - k) pairing det(form(d1_a, d2_b)) is padded to n x n with
    an identity block, so its determinant and those relating (c, d_i) to
    the orientation bases take one determinant stack.  `inters`, when
    given, is l1 ^ l2 for every pair as `lagrangian_intersections` returns
    it, or any rows spanning it with zero rows allowed.
    """
    if len(o1s) != len(o2s):
        raise DimensionMismatch("need one second orientation per first orientation")
    if not len(o1s):
        return []
    orients = list(o1s) + list(o2s)
    space = _one_space([o.lag for o in orients])
    field, n, e = space.field, space.n, len(o1s)
    if inters is None:
        inters = lagrangian_intersections([(a.lag, b.lag) for a, b in zip(o1s, o2s)])
    d, minors = _completions(orients, np.concatenate([inters, inters]))
    pair = d[:e] @ space.gram.a @ d[e:].transpose(0, 2, 1)
    # both completions have n - k rows, so their zero rows sit at the same places
    pair += np.eye(n, dtype=np.int64) * ~d[:e].any(axis=2)[:, :, None]
    dets = _eliminate_many(np.concatenate([minors, pair]), field)[3]
    x, a = dets[:2 * e], dets[2 * e:4 * e]
    if not a.all():
        raise InvariantViolation("an orientation basis does not span its Lagrangian")
    vals = x[:e] * a[:e] * x[e:] * a[e:] % field.p * dets[4 * e:] % field.p
    if not vals.all():
        raise ZeroFormClass("0 has no square class")
    return [SquareClass(field, s) for s in field.squares[vals]]


def orientation_pairing(
    o1: Orientation, o2: Orientation, inter: Subspace | None = None
) -> SquareClass:
    """The square class pairing two oriented Lagrangians.

    Pick a basis c of the intersection and completions d_i inside each l_i.
    The symplectic form pairs the quotients l_1/c and l_2/c perfectly; the
    result is det(form(d1_a, d2_b)) corrected by the determinants relating
    (c, d_i) to the chosen orientation bases.  It scales linearly in each
    orientation, so it is well defined on volume forms, and it does not
    depend on the basis c: a change of c scales both determinants by the
    same factor.  `inter`, when given, is the intersection l_1 ^ l_2 already
    computed by the caller.
    """
    inters = None if inter is None else inter.basis.a[None]
    return orientation_pairings([o1], [o2], inters)[0]


def maslov_form(*lags: Lagrangian) -> QuadraticSpace:
    """The polygon representative of the Maslov index of the given tuple."""
    if len(lags) < 2:
        raise ArityError("need at least two Lagrangians")
    return _bases_form(_one_space(lags), [l.sub.basis.a for l in lags])


def _bases_form(space: SymplecticSpace, bases: Sequence[np.ndarray]) -> QuadraticSpace:
    """`maslov_form` of the Lagrangians spanned by the given bases, any bases:
    the one-element call of `_compact_polygon_grams`."""
    return QuadraticSpace(space.field, _compact_polygon_grams(space, np.array(bases)[None])[0])


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


def _compact_polygon_grams(space: SymplecticSpace, bases: np.ndarray) -> np.ndarray:
    """The grams of the polygon forms of every tuple of a (B, m, k, d) stack
    of Lagrangian bases, padded to one shape.

    The null rows come from one stacked elimination.  Those of each tuple
    move ahead of its zero rows, in order, and the stack is cut at its
    largest nullity, so the grams are that wide and not m k; for one tuple
    they are its null basis.  Zero rows and columns leave the rank and the
    pivot minor of a gram as they are.
    """
    nb, m, k, d = bases.shape
    sol = _null_rows_many(bases.reshape(nb, m * k, d).transpose(0, 2, 1), space.field)
    nonzero = sol.any(axis=2)
    order = np.argsort(~nonzero, axis=1, kind="stable")[:, :nonzero.sum(axis=1).max(initial=0)]
    sol = np.take_along_axis(sol, order[:, :, None], axis=1)
    return _polygon_grams(sol, bases, space.gram.a, space.field)


def _polygon_rank_dets(space: SymplecticSpace, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`QuadraticSpace._rank_det` of the polygon form of every tuple of a
    (B, m, k, d) stack of Lagrangian bases: one `_rank_dets_many` of the
    compact grams, equal to those of `maslov_form` on the same bases."""
    return _rank_dets_many(_compact_polygon_grams(space, bases), space.field)


def _maslov_gammas(
    char: AdditiveCharacter, space: SymplecticSpace, bases: np.ndarray
) -> list[complex]:
    """`maslov_gamma` of every tuple of a (B, m, k, d) stack of Lagrangian
    bases, equal to it bit for bit."""
    return _gammas_of(char, *_polygon_rank_dets(space, bases))


def maslov_invariants(
    char: AdditiveCharacter, tuples: Sequence[Sequence[Lagrangian]]
) -> list[WittInvariants]:
    """`witt_invariants(char, maslov_form(*lags))` of every tuple, from one
    stack of polygon forms per tuple length; every value equals the single
    route's bit for bit."""
    if any(len(t) < 2 for t in tuples):
        raise ArityError("need at least two Lagrangians")
    if not tuples:
        return []
    space = _one_space([l for t in tuples for l in t])
    by_length: dict[int, list[int]] = {}
    for i, t in enumerate(tuples):
        by_length.setdefault(len(t), []).append(i)
    out: list = [None] * len(tuples)
    for at in by_length.values():
        bases = np.array([[l.sub.basis.a for l in tuples[i]] for i in at])
        ranks, dets = _polygon_rank_dets(space, bases)
        gammas = _gammas_of(char, ranks, dets)
        for i, r, det, g in zip(at, ranks.tolist(), dets.tolist(), gammas):
            out[i] = WittInvariants(r, SquareClass.of(space.field, det), g)
    return out


def maslov_gamma(char: AdditiveCharacter, *lags: Lagrangian) -> complex:
    return weil_index(char, maslov_form(*lags))


def predicted_rank_discs(
    tuples: Sequence[Sequence[Orientation]], inters: np.ndarray | None = None
) -> list[tuple[int, SquareClass]]:
    """Closed-form rank and discriminant of the polygon representative of
    every tuple of oriented Lagrangians:

    rank = ((m-2)/2) dim V - sum_i dim(l_i ^ l_{i+1}) + 2 dim(^_i l_i)
    disc = (-1)^(dim V / 2 + dim ^_i l_i) * prod_i pairing(o_i, o_{i+1})

    with indices cyclic.  The edges of all tuples take one stacked pairing
    and the common intersections one stacked null space.  `inters`, when
    given, holds the edge intersections l_i ^ l_{i+1}, tuple by tuple, as
    `lagrangian_intersections` returns them.
    """
    if any(len(t) < 2 for t in tuples):
        raise ArityError("need at least two oriented Lagrangians")
    if not tuples:
        return []
    space = tuples[0][0].lag.space
    edges = [e for t in tuples for e in _edges(t)]
    if inters is None:
        inters = lagrangian_intersections([(a.lag, b.lag) for a, b in edges])
    pair_dims = _dims(inters)
    classes = orientation_pairings([a for a, _ in edges], [b for _, b in edges], inters)
    commons = _dims(lagrangian_intersections([[o.lag for o in t] for t in tuples]))
    out = []
    start = 0
    for t, common in zip(tuples, commons):
        m = len(t)
        at = range(start, start + m)
        start += m
        rank = ((m - 2) * space.dim) // 2 - sum(pair_dims[i] for i in at) + 2 * common
        disc = SquareClass.of(space.field, pow(-1, space.n + common, space.field.p))
        for i in at:
            disc = disc * classes[i]
        out.append((rank, disc))
    return out


def edge_factors(
    char: AdditiveCharacter,
    o1s: Sequence[Orientation],
    o2s: Sequence[Orientation],
    inters: np.ndarray | None = None,
) -> list[complex]:
    """gamma(1)^(dim V/2 - dim(l1 ^ l2) - 1) * gamma(pairing(o1, o2)) for
    every pair (o1, o2) = (o1s[i], o2s[i]), from one stacked pairing;
    `inters`, when given, is l1 ^ l2 for every pair as
    `lagrangian_intersections` returns it.

    The product of edge factors around a closed polygon of oriented
    Lagrangians equals the Weil index of the polygon's Maslov form.
    """
    if inters is None:
        inters = lagrangian_intersections([(a.lag, b.lag) for a, b in zip(o1s, o2s)])
    classes = orientation_pairings(o1s, o2s, inters)
    if not classes:
        return []
    n = o1s[0].lag.space.n
    return [_phase(char, n - k, c.rep) for k, c in zip(_dims(inters), classes)]
