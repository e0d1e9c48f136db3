"""Exact dense linear algebra over the prime fields F_p, p an odd prime.

Matrices are immutable numpy int64 arrays with entries reduced mod p.  Subspaces
are canonicalized to their reduced row echelon basis, so equality and hashing
are structural and cheap.  All eliminations are exact; nothing here touches
floating point.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, ZeroFormClass


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


class Fp:
    """The field Z/pZ for an odd prime p with 3 <= p <= 97."""

    __slots__ = ("p", "half", "nonsquare", "inverses", "squares")

    def __init__(self, p: int) -> None:
        if not isinstance(p, int) or not _is_prime(p) or not 3 <= p <= 97:
            raise ValueError(f"p must be an odd prime in [3, 97], got {p!r}")
        self.p = p
        #: the field element 1/2, used for all half-form evaluations
        self.half = (p + 1) // 2
        self.nonsquare = next(a for a in range(2, p) if self.legendre(a) == -1)
        #: 1/a at index a, and 0 at 0, for the stacked eliminations
        self.inverses = np.array([0] + [self.inv(a) for a in range(1, p)], dtype=np.int64)
        self.inverses.setflags(write=False)
        #: True at the nonzero squares, indexed by residue
        self.squares = np.zeros(p, dtype=bool)
        self.squares[np.arange(1, p) ** 2 % p] = True
        self.squares.setflags(write=False)

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 is not invertible mod {self.p}")
        return pow(a, self.p - 2, self.p)

    def legendre(self, a: int) -> int:
        """Quadratic residue symbol of a, by the Euler criterion a^((p-1)/2)."""
        t = pow(a % self.p, (self.p - 1) // 2, self.p)
        return -1 if t == self.p - 1 else t

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Fp) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Fp", self.p))

    def __repr__(self) -> str:
        return f"Fp({self.p})"


class SquareClass:
    """An element of F_p^*/(F_p^*)^2, tagged as the square or nonsquare class.

    The canonical representative is 1 for the square class and the smallest
    nonsquare mod p otherwise.
    """

    __slots__ = ("field", "is_square")

    def __init__(self, field: Fp, is_square: bool) -> None:
        self.field = field
        self.is_square = bool(is_square)

    @classmethod
    def of(cls, field: Fp, a: int) -> "SquareClass":
        if a % field.p == 0:
            raise ZeroFormClass("0 has no square class")
        return cls(field, field.legendre(a) == 1)

    @classmethod
    def unit(cls, field: Fp) -> "SquareClass":
        return cls(field, True)

    @property
    def rep(self) -> int:
        return 1 if self.is_square else self.field.nonsquare

    def times(self, a: int) -> "SquareClass":
        """Multiply by a nonzero field scalar."""
        return SquareClass.of(self.field, self.rep * a)

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if self.field != other.field:
            raise DimensionMismatch("square classes over different fields")
        return SquareClass(self.field, self.is_square == other.is_square)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SquareClass)
            and other.field == self.field
            and other.is_square == self.is_square
        )

    def __hash__(self) -> int:
        return hash(("SquareClass", self.field.p, self.is_square))

    def __repr__(self) -> str:
        tag = "square" if self.is_square else "nonsquare"
        return f"SquareClass(p={self.field.p}, rep={self.rep}, {tag})"


def _as_array(data, p: int) -> np.ndarray:
    a = np.asarray(data, dtype=np.int64) % p
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {a.shape}")
    return a


class FpMatrix:
    """An immutable matrix over F_p backed by a numpy int64 array."""

    __slots__ = ("field", "a")

    def __init__(self, field: Fp, data) -> None:
        self.field = field
        arr = _as_array(data, field.p)
        arr.setflags(write=False)
        self.a = arr

    @classmethod
    def identity(cls, field: Fp, n: int) -> "FpMatrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    @property
    def nrows(self) -> int:
        return self.a.shape[0]

    @property
    def ncols(self) -> int:
        return self.a.shape[1]

    @property
    def T(self) -> "FpMatrix":
        return FpMatrix(self.field, self.a.T)

    def _check(self, other: "FpMatrix") -> None:
        if not isinstance(other, FpMatrix) or other.field != self.field:
            raise DimensionMismatch("matrix operands over different fields")

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        self._check(other)
        return FpMatrix(self.field, self.a + other.a)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._check(other)
        return FpMatrix(self.field, self.a - other.a)

    def __neg__(self) -> "FpMatrix":
        return FpMatrix(self.field, -self.a)

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        self._check(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch("inner dimensions differ")
        return FpMatrix(self.field, self.a @ other.a)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FpMatrix)
            and other.field == self.field
            and other.shape == self.shape
            and bool(np.array_equal(other.a, self.a))
        )

    def __hash__(self) -> int:
        return hash(("FpMatrix", self.field.p, self.shape, self.a.tobytes()))

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.field.p},\n{self.a})"

    def tolist(self) -> list[list[int]]:
        return self.a.tolist()

    def rref(self) -> tuple["FpMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot column indices."""
        red, pivots, _ = _eliminate(self.a, self.field)
        return FpMatrix(self.field, red), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "Subspace":
        """The right null space {x : A x = 0} as a subspace of F_p^ncols, from
        one elimination.  Take the null rows of A with its columns reversed and
        reverse them along both axes: each row has a 1 at its own free column,
        zeros at the other free columns and entries only at pivot columns to
        its right.  That is already the rref basis, pivoted at the free columns."""
        ncols = self.ncols
        rows, free = _null_space(self.a[:, ::-1], self.field)
        pivots = tuple(ncols - 1 - c for c in reversed(free))
        return Subspace(self.field, ncols, FpMatrix(self.field, rows[::-1, ::-1]), pivots)

    def det(self) -> int:
        if self.nrows != self.ncols:
            raise DimensionMismatch("determinant of a non-square matrix")
        return _eliminate(self.a, self.field)[2]

    def inv(self) -> "FpMatrix":
        """The inverse, read off the rref [I | A^-1] of [A | I], whose first
        n columns are all pivots exactly when A is invertible."""
        n = self.nrows
        if n != self.ncols:
            raise DimensionMismatch("inverse of a non-square matrix")
        red, pivots, _ = _eliminate(np.hstack([self.a, np.eye(n, dtype=np.int64)]), self.field)
        if pivots[:n] != tuple(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return FpMatrix(self.field, red[:, n:])


def _eliminate(a: np.ndarray, field: Fp):
    """Gauss-Jordan elimination of the reduced matrix a over F_p.

    Returns (reduced, pivots, det): the reduced row echelon form, its pivot
    columns, and the determinant of a (0 unless a is square of full rank).
    This loop and its stacked twin `_eliminate_many` are the module's two
    pivot loops; one matrix at a time, this one is several times cheaper.
    """
    p = field.p
    nrows, ncols = a.shape
    work = a.copy()
    pivots: list[int] = []
    det = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(work[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            work[[r, pr]] = work[[pr, r]]
            det = -det
        piv = int(work[r, c])
        det = det * piv % p
        work[r] = (work[r] * field.inv(piv)) % p
        col = work[:, c].copy()
        col[r] = 0
        work -= col[:, None] * work[r]
        work %= p
        pivots.append(c)
        r += 1
    if not r == nrows == ncols:
        det = 0
    return work, tuple(pivots), det


def _eliminate_many(stack: np.ndarray, field: Fp):
    """`_eliminate` for every matrix of a (B, r, c) stack, in one pivot loop.

    Returns (reduced, pivots, ranks, dets): the (B, r, c) reduced row echelon
    forms, a (B, c) mask of their pivot columns, and per matrix its rank and
    determinant (0 unless square of full rank).  Each matrix takes the pivot
    `_eliminate` takes, its first nonzero entry at or below its own current
    row, so every output equals the single loop's bit for bit; the Python
    loop runs once per column for the whole stack.

    Reduction is lazy: each step reduces only column c and the pivot rows, so
    the other entries grow by at most (p - 1)^2 per column, far inside int64,
    and the stack is reduced once at the end.
    """
    p = field.p
    work = np.array(stack, dtype=np.int64) % p
    nb, nrows, ncols = work.shape
    row = np.zeros(nb, dtype=np.int64)
    det = np.ones(nb, dtype=np.int64)
    pivots = np.zeros((nb, ncols), dtype=bool)
    inv = field.inverses
    below = np.arange(nrows)
    for c in range(ncols):
        column = work[:, :, c]
        column %= p
        cand = (column != 0) & (below >= row[:, None])
        has = cand.any(axis=1)
        b = np.flatnonzero(has)
        if b.size == 0:
            continue
        r = row[b]
        pr = cand[b].argmax(axis=1)
        # a pivot row is zero left of its pivot, so only columns c.. change
        top = work[b, pr, c:]
        work[b, pr] = work[b, r]
        piv = top[:, 0]
        det[b] = np.where(pr != r, -det[b], det[b]) * piv % p
        top = top * inv[piv][:, None] % p
        work[b, r, c:] = top
        # clear column c in every other row; matrices without a pivot here stay
        col = column * has[:, None]
        tops = np.zeros((nb, ncols - c), dtype=np.int64)
        tops[b] = top
        col[b, r] = 0
        work[:, :, c:] -= col[:, :, None] * tops[:, None, :]
        pivots[b, c] = True
        row[b] += 1
        if row.min() == nrows:
            break
    work %= p
    det[(row != nrows) | (nrows != ncols)] = 0
    return work, pivots, row, det


def _rank_det(a: np.ndarray, field: Fp) -> tuple[int, int]:
    """(r, det a[I, I]) for I the pivot columns of rref(a); (0, 1) when r = 0.

    The columns I of a square a span its column space, so span(e_i : i in I)
    has dimension r and meets the right radical {w : a w = 0} only in 0.
    When the left radical {v : v a = 0} is that same subspace, as for a
    symmetric gram or the displacement gram (g - 1)^T J of a symplectic g,
    a is a nondegenerate pairing on V / radical and a[I, I] is that pairing
    on the complement span(e_i : i in I): nonsingular, and its determinant
    changes by a square under a change of complement.
    """
    pivots = list(_eliminate(a, field)[1])
    if not pivots:
        return 0, 1
    return len(pivots), _eliminate(a[np.ix_(pivots, pivots)], field)[2]


def _rank_dets_many(stack: np.ndarray, field: Fp) -> tuple[np.ndarray, np.ndarray]:
    """`_rank_det` for every matrix of a (B, r, r) stack: (ranks, dets).

    One stacked elimination gives each rank and pivot set I; a second, of the
    stack with every entry outside I x I replaced by the identity's, gives
    det a[I, I], which is 1 when r = 0.
    """
    _, pivots, ranks, _ = _eliminate_many(stack, field)
    eye = np.eye(stack.shape[1], dtype=np.int64)
    minors = np.where(pivots[:, :, None] & pivots[:, None, :], stack, eye)
    return ranks, _eliminate_many(minors, field)[3]


def _inverses_many(stack: np.ndarray, field: Fp) -> tuple[np.ndarray, np.ndarray]:
    """(ok, inverses) for a (B, n, n) stack: the mask of its invertible
    matrices, and their inverses in order, read off the rref [I | A^-1] of
    [A | I], whose first n columns are all pivots exactly when det A != 0."""
    n = stack.shape[1]
    eye = np.broadcast_to(np.eye(n, dtype=np.int64), stack.shape)
    red, pivots, _, _ = _eliminate_many(np.concatenate([stack, eye], axis=2), field)
    ok = pivots[:, :n].all(axis=1)
    return ok, red[ok, :, n:]


def _null_space(a: np.ndarray, field: Fp) -> tuple[np.ndarray, list[int]]:
    """(rows, free): a basis of {x : a x = 0} as rows and the free columns of
    rref(a).  Row k has a 1 at free[k], zeros at the other free columns and
    minus column free[k] of rref(a) at the pivot columns."""
    red, pivots, _ = _eliminate(a, field)
    ncols = a.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    rows = np.zeros((len(free), ncols), dtype=np.int64)
    rows[np.arange(len(free)), free] = 1
    rows[:, list(pivots)] = (-red[: len(pivots), free].T) % field.p
    return rows, free


def _null_rows_many(stack: np.ndarray, field: Fp) -> np.ndarray:
    """The rows of `_null_space` for every matrix of a (B, r, c) stack, padded
    to (B, c, c).

    For red the rref of a matrix and S the (r, c) selector of its pivot
    entries, row j of I - red^T S is the null row `_null_space` gives for a
    free column j, and zero for a pivot column j, because the pivot columns
    of an rref are unit vectors.  So the rows are that basis in column order,
    padded with zero rows.
    """
    red, pivots, _, _ = _eliminate_many(stack, field)
    nb, _, ncols = red.shape
    rows = np.tile(np.eye(ncols, dtype=np.int64), (nb, 1, 1))
    b, k = np.nonzero(pivots)
    # the pivot of column k sits in row (number of pivots up to k) - 1
    rows[b, :, k] -= red[b, np.cumsum(pivots, axis=1)[b, k] - 1]
    return rows % field.p


def _solvers_many(stack: np.ndarray, field: Fp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `RowSolver` of every matrix M of a (B, r, c) stack, from one
    `_eliminate_many` of the stack of [M^T | I]: (solutions, syndromes,
    ranks), with solutions (B, c, r) and syndromes (B, c, c).

    Each solution equals `RowSolver(M).solution`, and the first c - rank
    columns of each syndrome equal `RowSolver(M).syndrome`; its other
    columns are zero, so d @ syndrome = 0 still holds exactly when d is in
    the row space of M.
    """
    nb, r, c = stack.shape
    eye = np.broadcast_to(np.eye(c, dtype=np.int64), (nb, c, c))
    red, pivots, _, _ = _eliminate_many(np.concatenate([stack.swapaxes(1, 2), eye], axis=2), field)
    pivots = pivots[:, :r]
    ranks = pivots.sum(axis=1)
    solutions = np.zeros((nb, c, r), dtype=np.int64)
    b, k = np.nonzero(pivots)
    # the pivot of column k sits in row (number of pivots up to k) - 1
    solutions[b, :, k] = red[b, np.cumsum(pivots, axis=1)[b, k] - 1, r:]
    # row rank + i of the tableau is syndrome column i, for i < c - rank
    at = np.arange(c)
    rows = red[np.arange(nb)[:, None], (at + ranks[:, None]) % c, r:]
    syndromes = (rows * (at < c - ranks[:, None])[:, :, None]).swapaxes(1, 2)
    return solutions, syndromes, ranks


class RowSolver:
    """Solves y @ M = d over F_p for a fixed (r, c) matrix M and many d.

    One elimination gives the tableau T, the right block of rref [M^T | I] =
    [T M^T | T].  Its first rank rows give y at the pivot columns, scattered
    once into the (c, r) `solution`, y = d @ solution.  Its other rows span
    the left null space of M^T: d @ syndrome = 0 for their (c, c - rank)
    transpose exactly when d is in the row space of M.  `_solvers_many` is
    its stacked twin.
    """

    __slots__ = ("field", "solution", "syndrome", "rank")

    def __init__(self, M: FpMatrix) -> None:
        self.field = M.field
        r, c = M.shape
        red, pivots, _ = _eliminate(np.hstack([M.a.T, np.eye(c, dtype=np.int64)]), M.field)
        pivots = [k for k in pivots if k < r]
        self.rank = len(pivots)
        self.solution = np.zeros((c, r), dtype=np.int64)
        self.solution[:, pivots] = red[: self.rank, r:].T
        self.syndrome = red[self.rank :, r:].T

    def solve_many(self, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solutions for each row of D: (Y, ok) with Y[i] valid iff ok[i]."""
        p = self.field.p
        D = np.asarray(D, dtype=np.int64) % p
        return D @ self.solution % p, ~np.any(D @ self.syndrome % p, axis=1)


class Subspace:
    """A subspace of F_p^ambient held as its canonical rref basis (rows)."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: Fp, ambient: int, basis: FpMatrix, pivots: tuple[int, ...]) -> None:
        self.field = field
        self.ambient = ambient
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def from_rows(cls, field: Fp, ambient: int, rows) -> "Subspace":
        arr = np.asarray(rows, dtype=np.int64)
        if arr.size == 0:
            arr = np.zeros((0, ambient), dtype=np.int64)
        else:
            arr = arr.reshape(-1, ambient) % field.p
        red, pivots = FpMatrix(field, arr).rref()
        return cls(field, ambient, FpMatrix(field, red.a[: len(pivots)]), pivots)

    @classmethod
    def zero(cls, field: Fp, ambient: int) -> "Subspace":
        """The zero subspace; its empty basis is its own rref."""
        return cls(field, ambient, FpMatrix(field, np.zeros((0, ambient), dtype=np.int64)), ())

    @classmethod
    def full(cls, field: Fp, ambient: int) -> "Subspace":
        """The whole space; the identity is its own rref."""
        return cls(field, ambient, FpMatrix.identity(field, ambient), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def coordinates_many(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """(C, inside) for an (N, ambient) array: C = rows[:, pivots].  The rref
        basis has unit pivot columns, so row i lies in self iff it equals
        C[i] @ basis, and then C[i] is its coefficient vector."""
        p = self.field.p
        rows = np.asarray(rows, dtype=np.int64) % p
        coords = rows[:, list(self.pivots)]
        return coords, ~np.any((coords @ self.basis.a - rows) % p, axis=1)

    def coset_rep(self, v) -> np.ndarray:
        """The canonical representative of v + self, zeros at the pivots; row-wise for a stack."""
        v = np.asarray(v, dtype=np.int64)
        coords, _ = self.coordinates_many(np.atleast_2d(v))
        return (v - (coords @ self.basis.a).reshape(v.shape)) % self.field.p

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.from_rows(
            self.field, self.ambient, np.vstack([self.basis.a, other.basis.a])
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        """U ^ W from the null rows (a, b) of [U; W]^T: a U = -b W spans it."""
        self._check(other)
        u = self.basis.a
        coefs = _null_space(np.vstack([u, other.basis.a]).T, self.field)[0]
        return Subspace.from_rows(self.field, self.ambient, coefs[:, : self.dim] @ u)

    def complement_std(self) -> "Subspace":
        """The complement spanned by standard basis vectors off the pivot set."""
        rows = np.eye(self.ambient, dtype=np.int64)[
            [c for c in range(self.ambient) if c not in self.pivots]
        ]
        return Subspace.from_rows(self.field, self.ambient, rows)

    def vectors(self) -> np.ndarray:
        """All p^dim member vectors as an array of shape (p^dim, ambient)."""
        p, k = self.field.p, self.dim
        if k == 0:
            return np.zeros((1, self.ambient), dtype=np.int64)
        coefs = np.indices((p,) * k).reshape(k, -1).T
        return (coefs @ self.basis.a) % p

    def _check(self, other: "Subspace") -> None:
        if other.field != self.field or other.ambient != self.ambient:
            raise DimensionMismatch("subspaces of different ambient spaces")

    def __le__(self, other: "Subspace") -> bool:
        self._check(other)
        return bool(other.coordinates_many(self.basis.a)[1].all())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subspace)
            and other.field == self.field
            and other.ambient == self.ambient
            and other.basis == self.basis
        )

    def __hash__(self) -> int:
        return hash(("Subspace", self.field.p, self.ambient, self.basis.a.tobytes()))

    def __repr__(self) -> str:
        return f"Subspace(p={self.field.p}, dim={self.dim} of {self.ambient},\n{self.basis.a})"
