"""Quadratic spaces over F_p: diagonalization, Witt invariants, Weil indices.

A quadratic space is carried by its symmetric gram matrix; the form value at v
is v @ gram @ v, and psi(half * value) is the phase summed by the Weil index.
Degenerate grams are allowed everywhere; invariants refer to the nondegenerate
part obtained by splitting off the radical.

The invariants come from two row reductions.  With I the pivot columns of
rref(gram) and r = |I|, the principal minor gram[I, I] is nonsingular and
spans a complement of the radical, so the nondegenerate part has rank r and
discriminant the class of d = det gram[I, I].  Since gamma is a character of
the Witt group with gamma(a) = gamma(1) * (a/p) (Lion-Vergne 1980), the Weil
index is gamma(1)^(r-1) * gamma(d), and 1 when r = 0.  Both factors are one
of +1, -1, +i, -i (`characters`), so the index is exact.  `_gammas_of`
turns the (rank, det) pairs of a whole stack of grams, from
`field._rank_dets_many`, into Weil indices, reading gamma once per (rank,
square class); `_gamma_values` gives them as an array.

`diagonal_transform` keeps an explicit congruence to a diagonal form.  It
splits off one anisotropic vector v at a time and keeps the part of the span
orthogonal to v, one `kernel()` each, so every reduction here runs through
the elimination loops of `field`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import AdditiveCharacter
from .errors import DimensionMismatch, EnumerationTooLarge
from .field import Fp, FpMatrix, SquareClass, Subspace, _rank_det

BRUTE_CAP = 10**6


class QuadraticSpace:
    """A finite-dimensional F_p space with a symmetric bilinear gram matrix."""

    __slots__ = ("field", "gram")

    def __init__(self, field: Fp, gram) -> None:
        g = gram if isinstance(gram, FpMatrix) else FpMatrix(field, gram)
        if g.nrows != g.ncols:
            raise DimensionMismatch("gram must be square")
        if np.any((g.a - g.a.T) % field.p):
            raise DimensionMismatch("gram must be symmetric")
        self.field = field
        self.gram = g

    @classmethod
    def zero(cls, field: Fp, dim: int = 0) -> "QuadraticSpace":
        return cls(field, np.zeros((dim, dim), dtype=np.int64))

    @classmethod
    def diagonal(cls, field: Fp, entries) -> "QuadraticSpace":
        return cls(field, np.diag(np.asarray(list(entries), dtype=np.int64) % field.p))

    @property
    def dim(self) -> int:
        return self.gram.nrows

    def value(self, v) -> int:
        v = np.asarray(v, dtype=np.int64)
        return int((v @ self.gram.a @ v) % self.field.p)

    def pairing(self, u, v) -> int:
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        return int((u @ self.gram.a @ v) % self.field.p)

    def radical(self) -> Subspace:
        return self.gram.kernel()

    def rank(self) -> int:
        return self.gram.rank()

    def nondegenerate_part(self) -> "QuadraticSpace":
        """The restriction to the standard complement of the radical."""
        comp = self.radical().complement_std()
        b = comp.basis.a
        return QuadraticSpace(self.field, (b @ self.gram.a @ b.T) % self.field.p)

    def diagonalize(self) -> list[int]:
        """Nonzero diagonal entries of a congruent diagonal form (one per rank)."""
        return [e for e in self.diagonal_transform()[1] if e]

    def diagonal_transform(self) -> tuple[FpMatrix, list[int]]:
        """(A, entries) with A invertible and A @ gram @ A.T = diag(entries).

        The entry list has full length dim; zeros mark the radical directions.
        The first rows are an orthogonal basis of the standard complement W of
        the radical, one anisotropic vector v at a time: a spanning row with
        q(v) != 0, or else u + w for two rows that pair to c != 0, so that
        q(u + w) = 2c.  The form is nondegenerate on W, so such a pair exists.
        The span then shrinks to its part orthogonal to v, again
        nondegenerate, whose coefficients are the kernel of the 1 x k row
        span @ gram @ v.
        """
        p = self.field.p
        gram = self.gram.a
        rad = self.radical()
        span = rad.complement_std().basis.a
        rows, entries = [], []
        while len(span):
            pairs = span @ gram % p @ span.T % p
            aniso = np.flatnonzero(pairs.diagonal())
            if aniso.size:
                v = span[aniso[0]]
            else:
                i, j = np.argwhere(pairs)[0]
                v = (span[i] + span[j]) % p
            rows.append(v)
            entries.append(self.value(v))
            coefs = FpMatrix(self.field, (span @ gram @ v)[None]).kernel().basis.a
            span = coefs @ span % p
        top = np.array(rows, dtype=np.int64).reshape(len(rows), self.dim)
        return FpMatrix(self.field, np.vstack([top, rad.basis.a])), entries + [0] * rad.dim

    def _rank_det(self) -> tuple[int, int]:
        """(r, det gram[I, I]) for I the pivot columns of rref(gram); (0, 1) when r = 0."""
        return _rank_det(self.gram.a, self.field)

    def disc(self) -> SquareClass:
        """Discriminant of the nondegenerate part; class of 1 when rank is 0."""
        return SquareClass.of(self.field, self._rank_det()[1])

    def __add__(self, other: "QuadraticSpace") -> "QuadraticSpace":
        if other.field != self.field:
            raise DimensionMismatch("direct sum over different fields")
        n, m = self.dim, other.dim
        g = np.zeros((n + m, n + m), dtype=np.int64)
        g[:n, :n] = self.gram.a
        g[n:, n:] = other.gram.a
        return QuadraticSpace(self.field, g)

    def __neg__(self) -> "QuadraticSpace":
        return QuadraticSpace(self.field, (-self.gram.a) % self.field.p)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QuadraticSpace)
            and other.field == self.field
            and other.gram == self.gram
        )

    def __hash__(self) -> int:
        return hash(("QuadraticSpace", self.field.p, self.gram.a.tobytes()))

    def __repr__(self) -> str:
        return f"QuadraticSpace(p={self.field.p},\n{self.gram.a})"


def _phase(char: AdditiveCharacter, r: int, x: int) -> complex:
    """gamma(1)^(r - 1) * gamma(x), exact: the Weil index of a rank-r form of
    determinant x, and the phase of edge factors, lift values and closed-form
    traces.  gamma is read at the class representative of x."""
    return char.gamma(1) ** (r - 1) * char.gamma_class(SquareClass.of(char.field, x))


def _gamma_of(char: AdditiveCharacter, rank: int, det: int) -> complex:
    """The Weil index of any form of that rank and determinant: `_phase`, and 1
    at rank 0."""
    return _phase(char, rank, det) if rank else 1 + 0j


def weil_index(char: AdditiveCharacter, q: QuadraticSpace) -> complex:
    """gamma(q) from the rank and determinant of the nondegenerate part."""
    return _gamma_of(char, *q._rank_det())


def _gamma_values(char: AdditiveCharacter, ranks: np.ndarray, dets: np.ndarray) -> np.ndarray:
    """`_gamma_of` of every (rank, det) pair as a complex array, evaluated
    once per distinct (rank, square class): the value depends on det only
    through its class, whose representative it is read at."""
    field = char.field
    codes = 2 * ranks + field.squares[dets % char.p]
    counts = np.bincount(codes)
    table = np.zeros(len(counts), dtype=complex)
    for c in np.flatnonzero(counts).tolist():
        table[c] = _gamma_of(char, c // 2, 1 if c % 2 else field.nonsquare)
    return table[codes]


def _gammas_of(char: AdditiveCharacter, ranks: np.ndarray, dets: np.ndarray) -> list[complex]:
    """`_gamma_values` as a list of Python complex values."""
    return _gamma_values(char, ranks, dets).tolist()


def weil_index_bruteforce(
    char: AdditiveCharacter, q: QuadraticSpace, cap: int = BRUTE_CAP
) -> complex:
    """gamma(q) by direct summation of psi(half * q(v, v)) over the whole space.

    Normalization is p^(-rank/2 - dim_radical), so degenerate forms are fine.
    """
    p = char.p
    if p**q.dim > cap:
        raise EnumerationTooLarge(f"{p}^{q.dim} points exceeds cap {cap}")
    if q.dim == 0:
        return 1 + 0j
    vs = np.indices((p,) * q.dim).reshape(q.dim, -1).T % p
    vals = (np.einsum("ij,jk,ik->i", vs, q.gram.a, vs)) % p
    s = complex(char.psi_array((char.field.half * vals) % p).sum())
    rad = q.dim - q.rank()
    return s * float(p) ** (-q.rank() / 2 - rad)


@dataclass(frozen=True, eq=False)
class WittInvariants:
    """Rank, discriminant and Weil index of the nondegenerate part of a form."""

    rank: int
    disc: SquareClass
    gamma: complex

    def __add__(self, other: "WittInvariants") -> "WittInvariants":
        return WittInvariants(self.rank + other.rank, self.disc * other.disc,
                              self.gamma * other.gamma)

    def witt_equal(self, other: "WittInvariants") -> bool:
        """Same Witt class: rank parity, Weil index, and compatible disc.

        Representatives of one class whose ranks differ by 2k have
        discriminants differing by (-1)^k, the class of k hyperbolic planes.
        """
        if (self.rank - other.rank) % 2 or self.gamma != other.gamma:
            return False
        k = (self.rank - other.rank) // 2
        want = other.disc.times(pow(-1, abs(k), self.disc.field.p))
        return self.disc == want

    def same(self, other: "WittInvariants") -> bool:
        """Equal rank, disc and gamma."""
        return (self.rank, self.disc, self.gamma) == (other.rank, other.disc, other.gamma)


def witt_invariants(char: AdditiveCharacter, q: QuadraticSpace) -> WittInvariants:
    rank, det = q._rank_det()
    return WittInvariants(rank, SquareClass.of(q.field, det), _gamma_of(char, rank, det))
