"""Symplectic vector spaces over F_p, their Lagrangians and group elements.

The standard space F_p^{2n} carries the gram matrix J = [[0, I], [-I, 0]] and
form(u, v) = u @ J @ v.  The doubled space is the same vector space squared
with gram diag(-J, J); graphs of group elements and the diagonal are
Lagrangians there.

g l has one implementation, `_transformed`, which reduces the moved bases
b g^T of a whole stack in one elimination; `Lagrangian.transform` is its
one-element call, and `SymplecticSpace.random_lagrangians` reduces a whole
drawn sample through it.  Bases the library builds already in rref take no
elimination: `_reduced_lagrangian` passes them to `field._subspaces`.

Spaces and Lagrangians compare and hash by a byte key built on first use:
(p, gram bytes) for a space, and that plus the shape and bytes of the rref
basis for a Lagrangian.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import DimensionMismatch, EnumerationTooLarge, InvariantViolation
from .field import (Fp, FpMatrix, SquareClass, Subspace, _eliminate_many, _inverses_many,
                    _kernel_rows, _subspaces)

LAGRANGIAN_CAP = 100_000
GROUP_CAP = 100_000
# the most bases one stacked draw holds; a larger sample takes several
_DRAW_STACK = 1024


def standard_gram(field: Fp, n: int) -> FpMatrix:
    j = np.zeros((2 * n, 2 * n), dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    j[:n, n:] = eye
    j[n:, :n] = -eye
    return FpMatrix(field, j)


class SymplecticSpace:
    """F_p^dim with a fixed invertible antisymmetric gram matrix.

    A gram passed in is checked to be square of even dimension, alternating
    and nondegenerate, the last by one elimination.  The grams the library
    builds itself, J for `SymplecticSpace(field, n)` and diag(-G, G) for
    `doubled`, have the known nonzero determinants 1 and det(G)^2, so they
    are taken without that elimination.
    """

    __slots__ = (
        "field", "gram", "_doubled", "_lagrangians", "_darboux", "_diagonal", "_standard", "_key"
    )

    def __init__(self, field: Fp, n: int | None = None, gram: FpMatrix | None = None) -> None:
        if gram is None:
            if n is None or n < 1:
                raise DimensionMismatch("need n >= 1 or an explicit gram matrix")
            eye = FpMatrix.identity(field, 2 * n).a
            self._build(field, standard_gram(field, n), (eye, eye))
            return
        self._build(field, gram, None)
        a = gram.a
        if np.any((a + a.T) % field.p) or np.any(a.diagonal() % field.p):
            raise DimensionMismatch("gram must be alternating")
        if gram.det() == 0:
            raise DimensionMismatch("gram must be nondegenerate")

    def _build(self, field: Fp, gram: FpMatrix,
               darboux: tuple[np.ndarray, np.ndarray] | None) -> None:
        """Set the fields for a gram of checked shape; the caller vouches for
        the rest.  darboux is (B, B^-1) of `_darboux_basis` when known up
        front, as B = I is for the gram J."""
        a = gram.a
        if a.shape[0] != a.shape[1] or a.shape[0] % 2:
            raise DimensionMismatch("gram must be square of even dimension")
        self.field = field
        self.gram = gram
        self._darboux = darboux
        self._doubled: SymplecticSpace | None = None
        self._lagrangians: list[Lagrangian] | None = None
        self._diagonal: Lagrangian | None = None
        self._standard: Lagrangian | None = None
        self._key: tuple | None = None

    @property
    def dim(self) -> int:
        return self.gram.nrows

    @property
    def n(self) -> int:
        return self.dim // 2

    def form(self, u, v) -> int:
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        return int((u @ self.gram.a @ v) % self.field.p)

    def subspace(self, rows) -> Subspace:
        return Subspace.from_rows(self.field, self.dim, rows)

    def is_isotropic(self, sub: Subspace) -> bool:
        b = sub.basis.a
        return not ((b @ self.gram.a @ b.T) % self.field.p).any()

    def lagrangian(self, rows) -> "Lagrangian":
        return Lagrangian(self, self.subspace(rows))

    def standard_lagrangian(self) -> "Lagrangian":
        """The span of the first n unit vectors, built once per space from
        its rref basis [I | 0], with no elimination."""
        if self._standard is None:
            rows = np.eye(self.n, self.dim, dtype=np.int64)
            self._standard = _reduced_lagrangian(self, rows, tuple(range(self.n)))
        return self._standard

    def element(self, mat) -> "SpElement":
        return SpElement(self, FpMatrix(self.field, mat))

    def identity(self) -> "SpElement":
        return self.element(np.eye(self.dim, dtype=np.int64))

    def transvection(self, v, lam: int = 1) -> "SpElement":
        """x -> x + lam * form(x, v) * v."""
        p = self.field.p
        v = np.asarray(v, dtype=np.int64) % p
        jv = (self.gram.a @ v) % p
        return self.element(np.eye(self.dim, dtype=np.int64) + (lam % p) * np.outer(v, jv))

    def order(self) -> int:
        p, n = self.field.p, self.n
        out = p ** (n * n)
        for i in range(1, n + 1):
            out *= p ** (2 * i) - 1
        return out

    def lagrangian_count(self) -> int:
        p, n = self.field.p, self.n
        out = 1
        for i in range(1, n + 1):
            out *= p**i + 1
        return out

    def all_lagrangians(self) -> list["Lagrangian"]:
        """Every Lagrangian, sorted by the bytes of its rref basis.

        Built from the affine charts of the Lagrangian Grassmannian.  In
        Darboux coordinates (e, f) a Lagrangian L is fixed by U, its
        projection onto the e-coordinates (rref basis B_U, dim k, pivots P),
        and a symmetric k x k matrix S: L is spanned by the rows [B_U | Y]
        with Y[:, P] = S and zero elsewhere, and by [0 | B_W] for the dot
        annihilator W of U, which is L meet span(f).  Every pair (U, S) gives
        a different L, so the p^(k(k+1)/2) matrices S summed over all U give
        `lagrangian_count()` subspaces with no deduplication.
        """
        count = self.lagrangian_count()
        if count > LAGRANGIAN_CAP:
            raise EnumerationTooLarge(f"{count} Lagrangians exceeds cap {LAGRANGIAN_CAP}")
        if self._lagrangians is not None:
            return self._lagrangians
        field, n = self.field, self.n
        # rows x of a J-Lagrangian map to rows x B^T of a gram-Lagrangian
        to_gram = None if self.gram == standard_gram(field, n) else self._darboux_basis().T
        out = []
        for bases, pivots in _chart_bases(field, n):
            if to_gram is None:
                subs = _subspaces(field, bases, pivots=np.broadcast_to(pivots, bases.shape[:2]))
                out.extend(Lagrangian(self, sub) for sub in subs)
            else:
                out.extend(_transformed(self, bases @ to_gram))
        out.sort(key=lambda l: l.sub.basis.a.tobytes())
        if len(out) != count:
            raise InvariantViolation(f"found {len(out)} Lagrangians, expected {count}")
        self._lagrangians = out
        return out

    def _symplectic_bases(self, count: int, rng: np.random.Generator | None) -> np.ndarray:
        """A (count, dim, dim) stack of symplectic bases: columns (e_1..e_n,
        f_1..f_n) with form(e_i, f_j) = delta_ij and every other pairing zero.

        Step i takes each basis's pair (e_i, f_i) from its own symplectic
        complement of the pairs before it, given by its rref basis kb, as
        `_pick_rows` does: random rows with a Generator, the first accepted
        rows of each kb with rng None.  A stack of one thus consumes the rng
        as one basis drawn on its own.

        The next complement is {y kb : [e gram; f gram] kb^T y = 0}.  With R'
        the rref kernel basis of that 2 x k system, R' kb is already the rref
        basis: kb has unit pivot columns P, so (R' kb)[:, P] = R'.  One
        `_kernel_rows` gives R' for the whole stack.
        """
        field, n, d = self.field, self.n, self.dim
        p = field.p
        gram = self.gram.a
        bases = np.zeros((count, d, d), dtype=np.int64)
        kb = np.eye(d, dtype=np.int64)[None].repeat(count, axis=0)
        for i in range(n):
            if i:
                cons = bases[:, :, [i - 1, n + i - 1]].swapaxes(1, 2) @ gram
                rows, free = _kernel_rows(cons @ kb.swapaxes(1, 2) % p, field)
                kb = rows[free].reshape(count, d - 2 * i, -1) @ kb % p
            e = _pick_rows(kb, rng, p)
            eg = e @ gram % p
            f = _pick_rows(kb, rng, p, eg)
            bases[:, :, i] = e
            bases[:, :, n + i] = f * field.inverses[(f * eg).sum(axis=1) % p][:, None] % p
        return bases

    def _darboux_basis(self) -> np.ndarray:
        """The first symplectic basis B found from the canonical basis of
        each complement: B^T gram B = J, and B = I for gram J."""
        if self._darboux is None:
            b = self._symplectic_bases(1, None)[0]
            self._darboux = (b, FpMatrix(self.field, b).inv().a)
        return self._darboux[0]

    def _darboux_inv(self) -> np.ndarray:
        """B^-1 for B of `_darboux_basis`."""
        self._darboux_basis()
        return self._darboux[1]

    def _checked_group_stack(self, mats: np.ndarray, made: str) -> np.ndarray:
        """The (N, dim, dim) stack mats, read-only, once one stacked test
        shows that every matrix preserves the gram."""
        gram = self.gram.a
        if np.any((mats.swapaxes(1, 2) @ gram @ mats - gram) % self.field.p):
            raise InvariantViolation(f"a {made} group element does not preserve the symplectic form")
        mats.setflags(write=False)
        return mats

    def random_element_matrices(self, count: int, rng) -> np.ndarray:
        """`count` uniformly random group elements as a read-only (count,
        dim, dim) stack, the sampled twin of `element_matrices`: a random
        symplectic basis M has M^T gram M = J, so M B^-1 preserves the gram
        (B as in `_darboux_inv`), and one stacked test checks that.

        The bases are drawn in stacks of at most `_DRAW_STACK`, one after
        another from rng, so the draw's working memory is bounded for any
        count; up to `_DRAW_STACK` elements are drawn as one stack.
        """
        rng = np.random.default_rng(rng)
        p, d = self.field.p, self.dim
        binv = self._darboux_inv()
        stacks = [self._symplectic_bases(min(_DRAW_STACK, count - start), rng) @ binv % p
                  for start in range(0, count, _DRAW_STACK)]
        mats = np.concatenate(stacks) if stacks else np.zeros((0, d, d), dtype=np.int64)
        return self._checked_group_stack(mats, "drawn")

    def random_element(self, rng) -> "SpElement":
        """A uniformly random group element, `random_element_matrices(1,
        rng)[0]` as a checked element: the one-element call of the stacked
        draw, which takes from rng what this call always took, so seeded
        draws keep their values."""
        basis = self._symplectic_bases(1, np.random.default_rng(rng))[0]
        return self.element(basis @ self._darboux_inv() % self.field.p)

    def random_lagrangian(self, rng) -> "Lagrangian":
        """The span of e_1..e_n of a random symplectic basis: the one-element
        call of `random_lagrangians`, which takes from rng what this call
        always took, so seeded draws keep their values."""
        return self.random_lagrangians(1, rng)[0]

    def random_lagrangians(self, count: int, rng) -> list["Lagrangian"]:
        """`count` uniformly random Lagrangians, the span(e) of each basis of
        one `_symplectic_bases` stack, drawn in stacks of at most
        `_DRAW_STACK` as in `random_element_matrices` and reduced by one
        `_transformed` call."""
        rng = np.random.default_rng(rng)
        rows = [self._symplectic_bases(min(_DRAW_STACK, count - start), rng)[:, :, : self.n]
                for start in range(0, count, _DRAW_STACK)]
        return _transformed(self, np.concatenate(rows).swapaxes(1, 2)) if rows else []

    def elements(self) -> list["SpElement"]:
        """The whole group as elements, in the order of `element_matrices`."""
        return [self.element(g) for g in self.element_matrices()]

    def element_matrices(self) -> np.ndarray:
        """The whole group as a read-only (order, dim, dim) stack, sorted by
        matrix bytes, built with no search and checked in one stacked test.

        For (e, f) the symplectic basis B of `_darboux_inv`, g is fixed by
        the transverse Lagrangians L = g span(e), L' = g span(f) and a in
        GL_n.  With R, R' their rref bases and P = R gram R'^T, the columns
        of M = g B are g e = (a R)^T and g f = (b R')^T, where
        b = (a P)^-T = a^-T P^-T is forced by M^T gram M = J.  The transverse
        ordered pairs times |GL_n| give `order()` elements; g = M B^-1.
        """
        order = self.order()
        if order > GROUP_CAP:
            raise EnumerationTooLarge(f"group order {order} exceeds cap {GROUP_CAP}")
        p, n = self.field.p, self.n
        square = np.indices((p,) * (n * n)).reshape(n * n, -1).T.reshape(-1, n, n)
        invertible, gl_inv = _inverses_many(square, self.field)
        gl = square[invertible]
        bases = np.array([l.sub.basis.a for l in self.all_lagrangians()])
        first, second = np.divmod(np.arange(len(bases) ** 2), len(bases))
        pairing = bases[first] @ self.gram.a @ bases[second].swapaxes(1, 2) % p
        transverse, pairing_inv = _inverses_many(pairing, self.field)
        g_e = np.einsum("aij,tjc->taic", gl, bases[first[transverse]])
        q = pairing_inv.swapaxes(1, 2) @ bases[second[transverse]]  # P^-T R'
        g_f = np.einsum("aji,tjc->taic", gl_inv, q)
        m = np.concatenate([g_e, g_f], axis=2).reshape(-1, self.dim, self.dim)
        mats = m.swapaxes(1, 2) @ self._darboux_inv() % p
        # entries lie in [0, p) with p < 256, so the bytes of a matrix order
        # like its entries read row by row
        flat = mats.reshape(len(mats), -1)
        mats = mats[np.lexsort(flat.T[::-1])]
        if len(mats) != order:
            raise InvariantViolation(f"built {len(mats)} group elements, expected {order}")
        return self._checked_group_stack(mats, "built")

    def doubled(self) -> "SymplecticSpace":
        """The same space squared, with gram diag(-G, G) for this space's
        gram G, built once.  Its determinant is det(G)^2, nonzero, so it is
        not recomputed by elimination."""
        if self._doubled is None:
            j, d = self.gram.a, self.dim
            big = np.zeros((2 * d, 2 * d), dtype=np.int64)
            big[:d, :d], big[d:, d:] = -j, j
            w = SymplecticSpace.__new__(SymplecticSpace)
            w._build(self.field, FpMatrix(self.field, big), None)
            self._doubled = w
        return self._doubled

    def _eq_key(self) -> tuple:
        """(p, gram bytes), built once: equal exactly when the fields and
        grams are, since the gram's size fixes its shape."""
        if self._key is None:
            self._key = (self.field.p, self.gram.a.tobytes())
        return self._key

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, SymplecticSpace) and other._eq_key() == self._eq_key()
        )

    def __hash__(self) -> int:
        return hash(self._eq_key())

    def __repr__(self) -> str:
        return f"SymplecticSpace(p={self.field.p}, dim={self.dim})"


def _pick_rows(kb: np.ndarray, rng: np.random.Generator | None, p: int,
               eg: np.ndarray | None = None) -> np.ndarray:
    """One row of the span of each kb of a (count, k, dim) stack: a nonzero
    one, or with eg given, one that pairs to nonzero with its row of eg.

    With a Generator each row is y kb for y from one rng.integers(0, p,
    (count, 1, k)) call, and the rejected rows are redrawn, in index order,
    from their own kb until none is left.  With rng None each row is the
    first accepted row of its kb.
    """
    def accept(rows, at):
        return rows.any(axis=1) if eg is None else (rows * eg[at]).sum(axis=1) % p != 0

    count, k, d = kb.shape
    if rng is None:
        ok = accept(kb.reshape(-1, d), np.arange(count).repeat(k)).reshape(count, k)
        return kb[np.arange(count), ok.argmax(axis=1)]
    at = np.arange(count)
    rows = (rng.integers(0, p, (count, 1, k)) @ kb)[:, 0] % p
    redo = at[~accept(rows, at)]
    while redo.size:
        rows[redo] = (rng.integers(0, p, (redo.size, 1, k)) @ kb[redo])[:, 0] % p
        redo = redo[~accept(rows[redo], redo)]
    return rows


def _rref_subspaces(field: Fp, n: int, k: int):
    """(B_U, P) for every k-dimensional subspace U of F_p^n: its rref basis
    has a 1 at (i, P[i]), free entries at (i, c) for c > P[i] off P, else 0."""
    for piv in combinations(range(n), k):
        free = [(i, c) for i, pc in enumerate(piv) for c in range(pc + 1, n) if c not in piv]
        vals = Subspace.full(field, len(free)).vectors()
        stack = np.zeros((len(vals), k, n), dtype=np.int64)
        stack[:, range(k), list(piv)] = 1
        if free:
            rows, cols = zip(*free)
            stack[:, rows, cols] = vals
        for b in stack:
            yield b, piv


def _chart_bases(field: Fp, n: int):
    """(rref bases, pivots) of every Lagrangian of the standard F_p^{2n}: for
    each U of `SymplecticSpace.all_lagrangians`, the stack of the bases of
    all its charts (U, S), which share their pivots.

    The rows [B_U | S T] and [0 | B_W] are already in rref: T holds the
    coset representatives modulo W of the unit vectors e_i, i in P, which
    are zero on the pivot columns of B_W, so each row of S T is zero there
    and differs from the matching row of Y by a vector of W.
    """
    p = field.p
    eye = np.eye(n, dtype=np.int64)
    for k in range(n + 1):
        m = k * (k + 1) // 2
        iu = np.triu_indices(k)
        sym = np.zeros((p**m, k, k), dtype=np.int64)
        sym[:, iu[0], iu[1]] = Subspace.full(field, m).vectors()
        sym[:, iu[1], iu[0]] = sym[:, iu[0], iu[1]]
        for bu, piv in _rref_subspaces(field, n, k):
            w = FpMatrix(field, bu).kernel()
            stack = np.zeros((len(sym), n, 2 * n), dtype=np.int64)
            stack[:, :k, :n] = bu
            stack[:, :k, n:] = (sym @ w.coset_rep(eye[list(piv)])) % p
            stack[:, k:, n:] = w.basis.a
            yield stack, piv + tuple(n + q for q in w.pivots)


class Lagrangian:
    """A maximal isotropic subspace, canonicalized through its rref basis."""

    __slots__ = ("space", "sub", "_doubled", "_key")

    def __init__(self, space: SymplecticSpace, sub: Subspace) -> None:
        if (sub.ambient, sub.dim) != (space.dim, space.n):
            raise DimensionMismatch(f"Lagrangian must have dim {space.n} in {space.dim}, "
                                    f"got {sub.dim} in {sub.ambient}")
        if not space.is_isotropic(sub):
            raise DimensionMismatch("subspace is not isotropic")
        self.space = space
        self.sub = sub
        self._doubled: Lagrangian | None = None
        self._key: tuple | None = None

    @property
    def basis(self) -> FpMatrix:
        return self.sub.basis

    @property
    def dim(self) -> int:
        return self.sub.dim

    def transform(self, g: "SpElement") -> "Lagrangian":
        """g l: the one-element call of `_transformed`."""
        return _transformed(self.space, (self.sub.basis.a @ g.mat.a.T)[None])[0]

    def doubled(self) -> "Lagrangian":
        """The Lagrangian {(a, b) : a, b in self} of the doubled space, built
        once.  Its rows (b, 0) and (0, b) are in rref because b is, with the
        pivots P and d + P for the pivots P of b, so no elimination runs."""
        if self._doubled is None:
            b = self.sub.basis.a
            k, d = b.shape
            rows = np.zeros((2 * k, 2 * d), dtype=np.int64)
            rows[:k, :d] = rows[k:, d:] = b
            pivots = self.sub.pivots + tuple(d + c for c in self.sub.pivots)
            self._doubled = _reduced_lagrangian(self.space.doubled(), rows, pivots)
        return self._doubled

    def _eq_key(self) -> tuple:
        """The space's key with the shape and bytes of the rref basis, built
        once on the first comparison or hash."""
        if self._key is None:
            b = self.sub.basis.a
            self._key = (*self.space._eq_key(), b.shape, b.tobytes())
        return self._key

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, Lagrangian) and other._eq_key() == self._eq_key()
        )

    def __hash__(self) -> int:
        return hash(self._eq_key())

    def __repr__(self) -> str:
        return f"Lagrangian(p={self.space.field.p},\n{self.sub.basis.a})"


class SpElement:
    """An element of Sp(V), validated at construction."""

    __slots__ = ("space", "mat", "_graph")

    def __init__(self, space: SymplecticSpace, mat: FpMatrix) -> None:
        p = space.field.p
        if mat.shape != (space.dim, space.dim):
            raise DimensionMismatch("wrong matrix size for this space")
        if ((mat.a.T @ space.gram.a @ mat.a - space.gram.a) % p).any():
            raise DimensionMismatch("matrix does not preserve the symplectic form")
        self.space = space
        self.mat = mat
        self._graph: Lagrangian | None = None

    def __mul__(self, other: "SpElement") -> "SpElement":
        if other.space != self.space:
            raise DimensionMismatch("elements of different spaces")
        return SpElement(self.space, self.mat @ other.mat)

    def inv(self) -> "SpElement":
        return SpElement(self.space, self.mat.inv())

    def graph(self) -> Lagrangian:
        """The graph {(x, gx)} as a Lagrangian of the doubled space, built
        once.  Its basis [I | g^T] is already in rref, with pivots 0..d-1,
        so no elimination runs."""
        if self._graph is None:
            d = self.space.dim
            rows = np.hstack([np.eye(d, dtype=np.int64), self.mat.a.T])
            self._graph = _reduced_lagrangian(self.space.doubled(), rows, tuple(range(d)))
        return self._graph

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SpElement)
            and other.space == self.space
            and other.mat == self.mat
        )

    def __hash__(self) -> int:
        return hash(("SpElement", hash(self.space), self.mat.a.tobytes()))

    def __repr__(self) -> str:
        return f"SpElement(p={self.space.field.p},\n{self.mat.a})"


def _reduced_lagrangian(space: SymplecticSpace, rows: np.ndarray,
                        pivots: tuple[int, ...]) -> Lagrangian:
    """The Lagrangian of space spanned by library-built rows that are
    already its rref basis, with these pivot columns.  No elimination runs,
    but `_subspaces`'s shape check and `Lagrangian`'s checks do."""
    return Lagrangian(space, _subspaces(space.field, rows[None], pivots=np.array([pivots]))[0])


def _transformed(space: SymplecticSpace, rows: np.ndarray) -> list[Lagrangian]:
    """The Lagrangians of space spanned by a (B, n, d) stack of rows, such as
    the moved bases b g^T of g l for b the basis of l, from one
    `_eliminate_many`.  Each is a checked `Lagrangian`, so rows that span no
    Lagrangian, as when g does not preserve the form, raise `DimensionMismatch`."""
    red, pivots, ranks, _ = _eliminate_many(rows, space.field)
    if set(ranks.tolist()) - {space.n}:
        raise DimensionMismatch(f"Lagrangian must have dim {space.n}, got ranks {ranks.tolist()}")
    subs = _subspaces(space.field, red, pivots=np.nonzero(pivots)[1].reshape(len(red), space.n))
    return [Lagrangian(space, sub) for sub in subs]


def diagonal_lagrangian(space: SymplecticSpace) -> Lagrangian:
    """The diagonal {(x, x)} inside the doubled space, built once per space
    as the graph of the identity, with no elimination."""
    if space._diagonal is None:
        space._diagonal = space.identity().graph()
    return space._diagonal


def kernel_of_displacement(g: SpElement) -> Subspace:
    """ker(g - 1) as a subspace of V."""
    return FpMatrix(g.space.field, g.mat.a - np.eye(g.space.dim, dtype=np.int64)).kernel()


def displacement_disc(g: SpElement, complement: Subspace | None = None) -> SquareClass:
    """Discriminant of (v, w) -> form((g-1)v, w) on a complement of ker(g-1).

    The pairing is symmetric only when (g-1)^2 = 0, but its left and right
    radicals are both ker(g-1), since (g-1)^T J = -J g^(-1) (g-1) for
    symplectic g.  So it is nondegenerate on V / ker(g-1), and its gram on
    any complement is nonsingular.  A change of complement acts by the same
    basis change on both sides, so it scales the determinant by a square and
    the class does not depend on the chosen complement.  For the identity
    this is the class of 1.  `charformula.closed_form_data` reads the same
    class off the pivot minor of (g-1)^T J; this route is its check.
    """
    space = g.space
    p = space.field.p
    ker = kernel_of_displacement(g)
    if complement is None:
        complement = ker.complement_std()
    if complement.dim != space.dim - ker.dim:
        raise DimensionMismatch("complement has the wrong dimension")
    if (complement + ker).dim != space.dim:
        raise DimensionMismatch("subspace does not complement ker(g-1)")
    if complement.dim == 0:
        return SquareClass.unit(space.field)
    b = complement.basis.a
    moved = (b @ (g.mat.a - np.eye(space.dim, dtype=np.int64)).T) % p
    gram = (moved @ space.gram.a @ b.T) % p
    det = FpMatrix(space.field, gram).det()
    return SquareClass.of(space.field, det)
