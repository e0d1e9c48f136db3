"""The lattice model of the Weil representation as explicit complex matrices.

Sections over a Lagrangian l are functions on the p^n canonical coset
representatives of V/l (zeros at l's pivot coordinates).  The change-of-model
kernel between l1 and l2 is supported where v - w lands in l1 + l2 and there
equals

    psi(half * (form(a1, v) + form(a2, w))) * p^(-dim(l1 / l1^l2) / 2)

for any splitting v - w = a1 + a2 with a_i in l_i.  The operator of a lifted
group element twists the (g l, l) kernel by g on the first slot and scales by
the lift value.

Every kernel value is read from one per-kernel phase table, psi(half * x) *
norm at x in F_p, so the two evaluation routes share one phase -> value rule.
`_PairKernel.values` solves for (a1, a2) pair by pair; the diagonal behind
`trace_oracle` and `check_diagonal_kernel` uses it.
`_PairKernel.grid` uses that the solver's particular solution is linear in
D = v - w, a_i = D L_i, so that with M_i = L_i J the phase splits as

    q(v, w) = a(v) + c(w) + v B w,  a(v) = v M1 v, c(w) = -w M2 w,
    B = M2 - M1^T    (mod p)

Augmenting [W B^T mod p | 1 | c] and [V | a | 1] makes the whole integer
phase matrix one float32 matmul, exact while its entries stay below 2^24;
the matrix is then one gather from the table repeated to that range, with
the lift value of `weil_operator` folded into the table.  The support test
is an equality of the syndromes of v and w modulo l1 + l2, needed only when
l1 and l2 meet.  The brute-force character oracle sums the kernel over the
p^n diagonal pairs (g x, x) alone; `weil_operator` stays the dense reference
whose trace it equals.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .characters import AdditiveCharacter
from .charformula import CheckReport, DiagonalForm
from .errors import DimensionMismatch, EnumerationTooLarge
from .field import FpMatrix, RowSolver
from .metaplectic import MpElement
from .symplectic import Lagrangian

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
    """Cached solver, normalization, phase table and split phase for the
    (l1, l2) kernel: `grid` reads the solver's `solution` and `syndrome`
    maps, and `values`, its reference, calls `solve_many` pair by pair."""

    __slots__ = ("char", "l1", "l2", "solver", "k1", "b1", "b2", "norm", "phases",
                 "m1", "m2", "cross", "syndrome", "weights")

    def __init__(self, char: AdditiveCharacter, l1: Lagrangian, l2: Lagrangian) -> None:
        if l1.space != l2.space:
            raise DimensionMismatch("kernel needs Lagrangians of one space")
        self.char = char
        self.l1 = l1
        self.l2 = l2
        self.b1 = l1.sub.basis.a
        self.b2 = l2.sub.basis.a
        self.k1 = self.b1.shape[0]
        self.solver = solver = RowSolver(FpMatrix(l1.space.field, np.vstack([self.b1, self.b2])))
        p = char.p
        # the rank is dim(l1 + l2), so dim(l1 / l1^l2) = rank - dim l2
        self.norm = float(p) ** (-(solver.rank - l2.dim) / 2)
        # the kernel value at phase x, read by both `values` and `grid`
        self.phases = char.psi_array((char.field.half * np.arange(p)) % p) * self.norm

        # Y = D @ solution, so a_i = D @ L_i and form(a_i, x) = D @ M_i @ x
        j = l1.space.gram.a
        self.m1 = (solver.solution[:, : self.k1] @ self.b1 % p) @ j % p
        self.m2 = (solver.solution[:, self.k1 :] @ self.b2 % p) @ j % p
        self.cross = (self.m2 - self.m1.T) % p
        # d - rank = dim(l1^l2) columns; none when l1 and l2 are transverse
        self.syndrome = solver.syndrome
        self.weights = p ** np.arange(self.syndrome.shape[1], dtype=np.int64)

    def values(self, V: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Kernel values row-wise for stacked first/second slot vectors."""
        p = self.char.p
        j = self.l1.space.gram.a
        D = (V - W) % p
        Y, ok = self.solver.solve_many(D)
        A1 = (Y[:, : self.k1] @ self.b1) % p
        A2 = (Y[:, self.k1 :] @ self.b2) % p
        q = (np.einsum("ij,ij->i", A1 @ j % p, V) + np.einsum("ij,ij->i", A2 @ j % p, W)) % p
        return np.where(ok, self.phases[q], 0.0)

    def grid(self, V: np.ndarray, W: np.ndarray, factor: complex = 1.0) -> np.ndarray:
        """factor times the kernel matrix with entry [i, j] at (V[j], W[i]).

        The phases a(v) + c(w) + v B w of all pairs are one matmul of the
        augmented rows [W B^T | 1 | c] and [V | a | 1], each entry at most
        top = d (p - 1)^2 + 2 (p - 1); the matrix is one gather from
        factor * phases repeated to length top + 1, zeroed off the support
        when l1 and l2 meet.  No solve per entry.
        """
        p = self.char.p
        d = V.shape[1]
        top = d * (p - 1) ** 2 + 2 * (p - 1)
        if top >= _EXACT_FLOAT32:
            raise EnumerationTooLarge(
                f"phases up to {top} are not exact in float32 (d = {d}, p = {p})")
        wx = np.empty((len(W), d + 2), dtype=np.float32)
        wx[:, :d] = (W @ self.cross.T) % p
        wx[:, d] = 1
        wx[:, d + 1] = -((W @ self.m2) % p * W).sum(axis=1) % p
        vx = np.empty((len(V), d + 2), dtype=np.float32)
        vx[:, :d] = V
        vx[:, d] = ((V @ self.m1) % p * V).sum(axis=1) % p
        vx[:, d + 1] = 1
        q = (wx @ vx.T).astype(np.intp)
        out = np.resize(factor * self.phases, top + 1)[q]
        if self.syndrome.shape[1]:
            # v - w is in l1 + l2 iff v and w have one syndrome, packed base p
            sv = (V @ self.syndrome) % p @ self.weights
            sw = (W @ self.syndrome) % p @ self.weights
            out[sw[:, None] != sv[None, :]] = 0
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
    pk, moved, reps = _twisted_pair(e, l)
    return pk.grid(moved, reps, e.value_at(l))


def _twisted_pair(e: MpElement, l: Lagrangian) -> tuple[_PairKernel, np.ndarray, np.ndarray]:
    """The (g l, l) kernel, the moved sections g x and the sections x of l."""
    g = e.g
    if l.space != g.space:
        raise DimensionMismatch("Lagrangian not in g's space")
    reps = _sections(l)
    moved = (reps @ g.mat.a.T) % e.char.p
    return _pair_kernel(e.char, l.transform(g), l), moved, reps


def _kernel_diagonal(e: MpElement, l: Lagrangian) -> np.ndarray:
    """The untwisted diagonal of the operator kernel: the (g l, l) kernel at
    (g x, x) for each of the p^n section representatives x, without t(l)."""
    pk, moved, reps = _twisted_pair(e, l)
    return pk.values(moved, reps)


def trace_oracle(e: MpElement, l: Lagrangian | None = None) -> complex:
    """Brute-force character value: t(l) times the sum of the kernel diagonal,
    which is the trace of `weil_operator(e, l)` from p^n kernel rows.

    The single-route oracle of the stacked trace, `_factor_trace` of a
    `character_factor_table` entry, which the trace suite holds to it."""
    if l is None:
        l = e.base
    return complex(e.value_at(l) * _kernel_diagonal(e, l).sum())


def check_diagonal_kernel(e: MpElement, df: DiagonalForm) -> CheckReport:
    """Diagonal of the untwisted operator kernel of e at df.l against the
    support form df of (e.g, df.l): psi(half q(x, x)) * p^(-dim(l / gl^l)/2)
    on the support, zero elsewhere."""
    if e.g != df.g:
        raise DimensionMismatch("diagonal form was built for another element")
    l = df.l
    char = e.char
    p = char.p
    reps = _sections(l)
    diag = _kernel_diagonal(e, l)
    norm = float(p) ** (-(l.dim - df.inter.dim) / 2)
    coords, inside = df.support.coordinates_many(reps)
    q = np.einsum("ij,jk,ik->i", coords, df.gram.a, coords) % p
    want = np.where(inside, char.psi_array((char.field.half * q) % p) * norm, 0.0)
    bad = [
        {"x": reps[i].tolist(), "got": complex(diag[i]), "want": complex(want[i])}
        for i in np.nonzero(np.abs(diag - want) > 1e-10)[0]
    ]
    return CheckReport(
        label="diagonal-kernel",
        ok=not bad,
        details={"support_dim": df.support.dim, "checked": len(reps)},
        witness=bad or None,
    )
