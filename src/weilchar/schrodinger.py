"""The lattice model of the Weil representation as explicit complex matrices.

Sections over a Lagrangian l are functions on the p^n canonical coset
representatives of V/l (zeros at l's pivot coordinates).  The change-of-model
kernel between l1 and l2 is supported where v - w lands in l1 + l2 and there
equals

    psi(half * (form(a1, v) + form(a2, w))) * p^(-dim(l1 / l1^l2) / 2)

for any splitting v - w = a1 + a2 with a_i in l_i.  The operator of a lifted
group element twists the (g l, l) kernel by g on the first slot and scales by
the lift value.

Every kernel value comes from one phase rule and one per-kernel phase table,
psi(half * x) * norm at x in F_p.  The particular solution of the (l1, l2)
solver is linear in D = v - w, a_i = D L_i, so that with M_i = L_i J the
phase splits as

    q(v, w) = a(v) + c(w) + v B w,  a(v) = v M1 v, c(w) = -w M2 w,
    B = M2 - M1^T    (mod p)

which is the dot product of the augmented rows [V | a | 1] and
[W B^T | 1 | c].  `_PairKernel.values` dots them pair by pair in int64;
`_PairKernel.grid` multiplies them as matrices in float32, exact while the
entries stay below 2^24, and reads the matrix as one gather from the table
repeated to that range, with the lift value of `weil_operator` folded into
the table.  The support test is an equality of the syndromes of v and w
modulo l1 + l2, needed only when l1 and l2 meet.

The brute-force character oracle sums the kernel over the p^n diagonal pairs
(g x, x) alone; `weil_operator` stays the dense reference whose trace it
equals.  That diagonal does not read the lift value, so it takes (char, g, l).
Each of its entries is a root of unity read from `psi_array` times the float
norm, as is the reference of `check_diagonal_kernel`, so that check is exact.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .characters import AdditiveCharacter
from .charformula import CheckReport, DiagonalForm
from .errors import DimensionMismatch, EnumerationTooLarge
from .field import FpMatrix, RowSolver
from .metaplectic import MpElement
from .symplectic import Lagrangian, SpElement

MAX_REP_DIM = 343  # largest p^n at which a dense p^n x p^n matrix is built
_EXACT_FLOAT32 = 2**24  # float32 holds every integer below this exactly


def _check_dense(l: Lagrangian) -> None:
    """Refuse, before building anything, a dense matrix over l's space past the cap."""
    size = l.space.field.p ** l.space.n
    if size > MAX_REP_DIM:
        raise EnumerationTooLarge(f"p^n = {size} exceeds the dense matrix cap {MAX_REP_DIM}")


@lru_cache(maxsize=512)
def _sections(l: Lagrangian) -> np.ndarray:
    """The canonical coset representatives of V/l in row-major order: zero
    at l's pivot columns, every value at the others.  Read-only, built once
    per Lagrangian."""
    p = l.space.field.p
    d = l.space.dim
    free = [c for c in range(d) if c not in l.sub.pivots]
    k = len(free)
    reps = np.zeros((p**k, d), dtype=np.int64)
    if k:
        reps[:, free] = np.indices((p,) * k).reshape(k, -1).T
    reps.setflags(write=False)
    return reps


class _PairKernel:
    """Cached normalization, phase table and split phase of the (l1, l2)
    kernel, read off one solver: `values` and `grid` both dot the rows of
    `_augmented` and zero the pairs whose syndromes differ."""

    __slots__ = ("char", "norm", "phases", "m1", "m2", "cross", "syndrome", "weights")

    def __init__(self, char: AdditiveCharacter, l1: Lagrangian, l2: Lagrangian) -> None:
        if l1.space != l2.space:
            raise DimensionMismatch("kernel needs Lagrangians of one space")
        self.char = char
        b1 = l1.sub.basis.a
        b2 = l2.sub.basis.a
        k1 = b1.shape[0]
        solver = RowSolver(FpMatrix(l1.space.field, np.vstack([b1, b2])))
        p = char.p
        # the rank is dim(l1 + l2), so dim(l1 / l1^l2) = rank - dim l2
        self.norm = float(p) ** (-(solver.rank - l2.dim) / 2)
        # the kernel value at phase x, read by both `values` and `grid`
        self.phases = char.psi_array((char.field.half * np.arange(p)) % p) * self.norm

        # Y = D @ solution, so a_i = D @ L_i and form(a_i, x) = D @ M_i @ x
        j = l1.space.gram.a
        self.m1 = (solver.solution[:, :k1] @ b1 % p) @ j % p
        self.m2 = (solver.solution[:, k1:] @ b2 % p) @ j % p
        self.cross = (self.m2 - self.m1.T) % p
        # d - rank = dim(l1^l2) columns; none when l1 and l2 are transverse
        self.syndrome = solver.syndrome
        self.weights = p ** np.arange(self.syndrome.shape[1], dtype=np.int64)

    def _augmented(self, V: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows [V | a | 1] and [W B^T | 1 | c]: row i of the first dotted
        with row j of the second is the phase of (V[i], W[j]) mod p."""
        p = self.char.p
        d = V.shape[1]
        vx = np.ones((len(V), d + 2), dtype=np.int64)
        vx[:, :d] = V
        vx[:, d] = ((V @ self.m1) % p * V).sum(axis=1) % p
        wx = np.ones((len(W), d + 2), dtype=np.int64)
        wx[:, :d] = (W @ self.cross.T) % p
        wx[:, d + 1] = -((W @ self.m2) % p * W).sum(axis=1) % p
        return vx, wx

    def _syndromes(self, X: np.ndarray) -> np.ndarray:
        """The syndromes of X's rows modulo l1 + l2, packed base p: v - w lies
        in l1 + l2 iff v and w have one."""
        return (X @ self.syndrome) % self.char.p @ self.weights

    def values(self, V: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Kernel values row-wise for stacked first/second slot vectors."""
        vx, wx = self._augmented(V, W)
        out = self.phases[np.einsum("ij,ij->i", vx, wx) % self.char.p]
        if self.syndrome.shape[1]:
            out[self._syndromes(V) != self._syndromes(W)] = 0
        return out

    def grid(self, V: np.ndarray, W: np.ndarray, factor: complex = 1.0) -> np.ndarray:
        """factor times the kernel matrix with entry [i, j] at (V[j], W[i]).

        The phases of all pairs are one float32 matmul of the augmented rows,
        each entry at most top = d (p - 1)^2 + 2 (p - 1); the matrix is one
        gather from factor * phases repeated to length top + 1.
        """
        p = self.char.p
        d = V.shape[1]
        top = d * (p - 1) ** 2 + 2 * (p - 1)
        if top >= _EXACT_FLOAT32:
            raise EnumerationTooLarge(
                f"phases up to {top} are not exact in float32 (d = {d}, p = {p})")
        vx, wx = self._augmented(V, W)
        q = (wx.astype(np.float32) @ vx.T.astype(np.float32)).astype(np.intp)
        out = np.resize(factor * self.phases, top + 1)[q]
        if self.syndrome.shape[1]:
            out[self._syndromes(W)[:, None] != self._syndromes(V)[None, :]] = 0
        return out


@lru_cache(maxsize=512)
def _pair_kernel(char: AdditiveCharacter, l1: Lagrangian, l2: Lagrangian) -> _PairKernel:
    return _PairKernel(char, l1, l2)


def intertwiner(char: AdditiveCharacter, l1: Lagrangian, l2: Lagrangian) -> np.ndarray:
    """Matrix of the change of model from sections over l1 to sections over l2.

    Entry [y, x] is the kernel at (lift(x), lift(y)); composing two of these
    multiplies the matrices in codomain-first order.
    """
    _check_dense(l1)
    return _pair_kernel(char, l1, l2).grid(_sections(l1), _sections(l2))


def weil_operator(e: MpElement, l: Lagrangian | None = None) -> np.ndarray:
    """The operator of (g, t) on sections over l: t(l) times the g-twisted
    (g l, l) kernel, with entry [y, x] at (g lift(x), lift(y))."""
    if l is None:
        l = e.base
    _check_dense(l)
    pk, moved, reps = _twisted_pair(e.char, e.g, l)
    return pk.grid(moved, reps, e.value_at(l))


def _twisted_pair(
    char: AdditiveCharacter, g: SpElement, l: Lagrangian
) -> tuple[_PairKernel, np.ndarray, np.ndarray]:
    """The (g l, l) kernel, the moved sections g x and the sections x of l."""
    if l.space != g.space:
        raise DimensionMismatch("Lagrangian not in g's space")
    reps = _sections(l)
    moved = (reps @ g.mat.a.T) % char.p
    return _pair_kernel(char, l.transform(g), l), moved, reps


def _kernel_diagonal(char: AdditiveCharacter, g: SpElement, l: Lagrangian) -> np.ndarray:
    """The untwisted diagonal of the operator kernel: the (g l, l) kernel at
    (g x, x) for each of the p^n section representatives x, without t(l)."""
    pk, moved, reps = _twisted_pair(char, g, l)
    return pk.values(moved, reps)


def trace_oracle(e: MpElement, l: Lagrangian | None = None) -> complex:
    """Brute-force character value: t(l) times the sum of the kernel diagonal,
    which is the trace of `weil_operator(e, l)` from p^n kernel rows.

    The single-route oracle of the stacked trace, `_factor_trace` of a
    `character_factor_table` entry, which the trace suite holds to it."""
    if l is None:
        l = e.base
    return complex(e.value_at(l) * _kernel_diagonal(e.char, e.g, l).sum())


def check_diagonal_kernel(char: AdditiveCharacter, df: DiagonalForm) -> CheckReport:
    """Diagonal of the untwisted operator kernel of g = df.g at l = df.l
    against the support form df of (g, l): psi(half q(x, x)) * p^(-dim(l / gl^l)/2)
    on the support, zero elsewhere.  Both sides take the root of unity from
    `psi_array` and multiply it by the same float norm, so they are compared
    with `!=`."""
    if char.field != df.g.space.field:
        raise DimensionMismatch("character and diagonal form over different fields")
    l = df.l
    p = char.p
    reps = _sections(l)
    diag = _kernel_diagonal(char, df.g, l)
    norm = float(p) ** (-(l.dim - df.inter.dim) / 2)
    coords, inside = df.support.coordinates_many(reps)
    q = np.einsum("ij,jk,ik->i", coords, df.gram.a, coords) % p
    want = np.where(inside, char.psi_array((char.field.half * q) % p) * norm, 0.0)
    bad = [
        {"x": reps[i].tolist(), "got": complex(diag[i]), "want": complex(want[i])}
        for i in np.nonzero(diag != want)[0]
    ]
    return CheckReport(
        label="diagonal-kernel",
        ok=not bad,
        details={"support_dim": df.support.dim, "checked": len(reps)},
        witness=bad or None,
    )
