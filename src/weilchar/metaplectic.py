"""The metaplectic double cover of Sp(V) built from Maslov-index Weil indices.

An element is a symplectic map g together with the value t0 of its lift
function at a base Lagrangian; values at every other Lagrangian follow from
the four-gon coherence rule, and multiplication twists by the cocycle
gamma(tau(l, g l, g h l)).  The canonical split lift takes t0 = m_g(l), the
edge factor of the orientation pairing of (g l, l); its sign flip gives the
other lift of g.

m_g(l) is read off the Bruhat cell of g, with no Lagrangian intersections
(Rao's normalized cocycle, Pacific J. Math. 157 (1993); Kudla's x(g),
Israel J. Math. 87 (1994)).  For the standard Lagrangian l = span(e) and
g = [[A, B], [C, D]] with n x n blocks acting on columns, let r = rank C and
reduce [C^T | A^T | I] to its rref [E | F' | Q], so Q is invertible with
Q C^T = E.  Its last n - r rows U0 have U0 C^T = 0, and F = U0 A^T is in
rref; U1 are its first r rows and U = [U0; U1].  W holds the unit rows e_j
for j off the pivot columns of F.  The rows of U [A^T | C^T] are a basis
[F | 0] of g l meet l followed by a completion inside g l, the rows
[F; W] [I | 0] the same basis completed inside l, and the form pairs the
two completions by -U1 C^T W^T.  So the orientation pairing is the class of

    x(g) = det U * det [F; W] * det(-U1 C^T W^T),

and m_g(l) = gamma(1)^(r - 1) * gamma(x(g)), the value `maslov.edge_factors`
gives, from the same rule `quadform._phase`.  x(g) has the class of
(-1)^n det C when r = n, and of det A when r = 0.

Every other Lagrangian reduces to the standard one, because m_g(l) does not
depend on the orientation chosen on l and the pairing is invariant under
symplectic maps: m_g(F std) = m_(F^-1 g F)(std) for any F carrying std to l
(`_standard_frame`).  The cocycle takes the moved bases b g^T and b (g h)^T
of the rref basis b of l as they are; any bases give congruent Maslov forms,
so the Weil index is the same value.

Lifts, products and character factors also come as stacks: `split_lifts`,
`mp_products`, `character_factor_table` and `character_factors_doubled`.
The first two have the one-element calls `split_lift` and
`MpElement.__mul__`; `character_factor` is the table's single-route oracle
and `character_factor_doubled` the doubled stack's.  The verify suites
evaluate each cell's lifts, products and factors through the stacks, and
the theta suite keeps both single routes for one element per cell.

The factor table evaluates t(l) gamma(tau(graph(g), diagonal, l + l)) for
every (e, l) pair without the polygon forms of `maslov`, whose null spaces
are those of 6n and 4n stacked basis rows per pair.  It solves the systems
of an element once per stack and takes each pair's form on a section of
at most 2n vectors that leaves out only radical directions, so the Weil
index is the same.  With bl the rref basis of l, M = g^T - 1,
F = J (g - 1) and x, y rows:

- Triple.  The null rows (a, b, c1, c2) of [graph; diagonal; l + l] have
  b = -a - c1 bl and a M = (c1 - c2) bl, and the doubled gram diag(-J, J)
  makes Kashiwara's form q = form(x2, x1) = -(a + c1 bl) F a^T.  A row
  with c1 = c2 = 0 has a g^T = a, so a J (g - 1) = 0 and F a^T = 0: it is
  radical.  The rest is spanned by (c1 = e_i, c2 = e_i, a = 0) and by
  (c1 = 0, c2 = -delta, a = delta bl Sol_M) for delta in the left null
  space of bl Syn_M, the delta with delta bl in the row space of M.  Sol_M
  and Syn_M are the solution map and syndrome of M.  The gram there is
  [[0, -1/2 bl F a^T], [^T, -1/2 a (F + F^T) a^T]].
- Four-gon (base, g base, g l, l).  With x4 = -(x1 + x2 + x3) in l, q =
  form(x2, x1) + form(x3, x1 + x2), and a row with x3 = x4 = 0 has
  x1 = -x2 in base ^ g base, where the form vanishes: radical.  For
  U = [b; b g^T] and w in the left null space of [bl g^T; bl] Syn_U,
  y = w [bl g^T; bl] = x3 + x4 is in the row space of U, and
  (a1, a2) = -y Sol_U gives x1 + x2 = -y.  The gram on those w is
  1/2 (A + A^T) with A = x2 J x1^T - x3 J y^T.

A stack of pairs takes one `_solvers_many` of its elements' M and U, one
`_null_rows_many` of both null spaces, and one `_rank_dets_many` of both
2n x 2n gram stacks.  The stacks hold at most `_FACTOR_STACK` pairs, so
peak memory does not grow with the table.  On 2 cores with Python 3.11
the time per pair at (3, 3) is about 25 us at 200 and 300 pairs per stack
and 22 us from 500 up, while peak RSS grows with the stack: the theta
suite on every Lagrangian of (3, 3) with 17 elements peaks at 38.5, 39.1,
40.7 and 44.4 MB at 200, 300, 500 and 1000 pairs, and the six cells of
the `verify-sweep` benchmark, both seeds in one process, at 39.0, 39.2
and 39.9 MB at 200, 300 and 500 pairs, against 39.1 MB for the polygon
forms in 200-pair stacks.  200 keeps that peak; the extra stacks cost
those cells under 1 % of their time.
`character_factors_doubled` cuts its elements by the same bound.

Every lift value is exact, so elements compare and hash exactly, by
(character, g, base, t0).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .characters import AdditiveCharacter
from .errors import DimensionMismatch
from .field import FpMatrix, _eliminate_many, _null_rows_many, _rank_dets_many, _solvers_many
from .maslov import _bases_form, _maslov_gammas, maslov_gamma
from .quadform import _gamma_values, _phase, weil_index
from .symplectic import (
    Lagrangian,
    SpElement,
    SymplecticSpace,
    diagonal_lagrangian,
    standard_gram,
)

# Most (element, Lagrangian) pairs in one stack of `character_factor_table`,
# and most elements in one stack of `character_factors_doubled`.  See the
# module docstring for how it was chosen.
_FACTOR_STACK = 200


def _standard_frame(l: Lagrangian) -> tuple[np.ndarray, np.ndarray] | None:
    """(F, F^-1) with F^T gram F = J and F std = l; None when F = I.

    In Darboux coordinates (B^T gram B = J, B from `_darboux_basis`) l has
    the rref basis R of the rows of l times B^-T.  For P the pivots of R
    below n, the coordinate Lagrangian K spanned by e_j (j not in P) and f_i
    (i in P) meets l in 0: a vector of l off e_P has no e-part, and a
    vector of l meet span(f) supported on f_P is zero.  So R J K^T is
    invertible, R' = (R J K^T)^-T K spans a Lagrangian paired to l by I, and
    M = [R^T | R'^T] is symplectic with M std = l.  F = B M, and
    F^-1 = -J F^T gram.
    """
    space = l.space
    field, n = space.field, space.n
    p = field.p
    binv = space._darboux_inv()
    standard = np.array_equal(binv, np.eye(space.dim, dtype=np.int64))
    r = l.sub
    if standard and r.pivots == tuple(range(n)) and not r.basis.a[:, n:].any():
        return None
    if not standard:
        r = space.subspace(r.basis.a @ binv.T)
    j = standard_gram(field, n).a
    low = [c for c in r.pivots if c < n]
    k = np.eye(space.dim, dtype=np.int64)[[c for c in range(n) if c not in low]
                                          + [n + c for c in low]]
    dual = FpMatrix(field, r.basis.a @ j @ k.T).inv().a.T @ k % p
    frame = np.vstack([r.basis.a, dual]).T
    if not standard:
        frame = space._darboux_basis() @ frame % p
    return frame, -j @ frame.T @ space.gram.a % p


def _std_classes(mats: np.ndarray, field) -> tuple[np.ndarray, np.ndarray]:
    """(r, x) for a (B, 2n, 2n) stack of g in Sp(J): r = rank C and the
    residue x(g) of the module docstring, from two stacked eliminations."""
    p = field.p
    nb, d, _ = mats.shape
    n = d // 2
    eye = np.eye(n, dtype=np.int64)
    c_t = mats[:, n:, :n].swapaxes(1, 2)
    a_t = mats[:, :n, :n].swapaxes(1, 2)
    # [C^T | A^T] has rank n, so all n pivots fall left of the I block
    red, pivots, _, _ = _eliminate_many(
        np.concatenate([c_t, a_t, np.broadcast_to(eye, c_t.shape)], axis=2), field)
    r = pivots[:, :n].sum(axis=1)
    b = np.arange(nb)[:, None]
    # row i of U is row i + r (mod n) of Q, so U = [U0; U1]; the same rows of
    # F' give F in rows i < n - r, where i + r < n
    rows = (np.arange(n) + r[:, None]) % n
    u = red[b, rows, 2 * n:]
    # the r columns off the pivots of F, ascending, then its pivot columns;
    # row n - r + k of [F; W] is the unit row at off[k]
    off = np.argsort(pivots[:, n:2 * n], axis=1, kind="stable")
    fw = np.where((rows < r[:, None])[:, :, None], eye[off[b, rows]], red[b, rows, n:2 * n])
    # -U1 C^T W^T = -E[:r, off[:r]] with E = U1 C^T, padded with the identity
    top = np.arange(n) < r[:, None]
    e_w = red[b[:, :, None], np.arange(n)[:, None], off[:, None, :]]
    z = np.where(top[:, :, None] & top[:, None, :], -e_w, eye)
    return r, _eliminate_many(u @ fw % p @ z, field)[3]


def split_values(char: AdditiveCharacter, mats, l: Lagrangian) -> list[complex]:
    """`split_value(char, g, l)` for every g of a (B, 2n, 2n) stack of
    matrices of Sp(l.space), each equal to it.  Two stacked eliminations
    do the whole stack, after one n x n inverse when l is not std."""
    space = l.space
    p = space.field.p
    mats = np.asarray(mats, dtype=np.int64).reshape(-1, space.dim, space.dim) % p
    gram = space.gram.a
    if np.any((mats.swapaxes(1, 2) @ gram @ mats - gram) % p):
        raise DimensionMismatch("matrix does not preserve the symplectic form")
    frame = _standard_frame(l)
    if frame is not None:
        f, f_inv = frame
        mats = f_inv @ mats % p @ f % p
    return [_phase(char, int(r), int(x)) for r, x in zip(*_std_classes(mats, space.field))]


def split_value(char: AdditiveCharacter, g: SpElement, l: Lagrangian) -> complex:
    """The canonical lift value m_g(l): edge factor of (g l, l), orientation
    on g l transported from l.  Independent of the orientation chosen on l;
    read off the Bruhat cell of g (module docstring)."""
    if g.space != l.space:
        raise DimensionMismatch("Lagrangian not in g's space")
    return split_values(char, g.mat.a[None], l)[0]


def _moved_bases(l: Lagrangian, gmats: np.ndarray, hmats: np.ndarray) -> np.ndarray:
    """The (B, 3, n, 2n) bases b, b g^T, b (g h)^T for b the rref basis of l."""
    p = l.space.field.p
    b = l.sub.basis.a
    g_t = gmats.swapaxes(1, 2)
    bg = b @ g_t % p
    bgh = b @ hmats.swapaxes(1, 2) % p @ g_t % p
    return np.stack([np.broadcast_to(b, bg.shape), bg, bgh], axis=1)


def mp_cocycle(char: AdditiveCharacter, g: SpElement, h: SpElement, l: Lagrangian) -> complex:
    """gamma(tau(l, g l, g h l)), the multiplication twist at base l."""
    if g.space != l.space or h.space != l.space:
        raise DimensionMismatch("cocycle needs g, h and l in one space")
    return mp_cocycles(char, g.mat.a[None], h.mat.a[None], l)[0]


def mp_cocycles(char: AdditiveCharacter, gmats, hmats, l: Lagrangian) -> list[complex]:
    """gamma(tau(l, g l, g h l)) for (B, 2n, 2n) stacks of g and h, from
    stacked eliminations on the moved bases of l."""
    d = l.space.dim
    gmats = np.asarray(gmats, dtype=np.int64).reshape(-1, d, d)
    hmats = np.asarray(hmats, dtype=np.int64).reshape(-1, d, d)
    if not len(gmats):
        return []
    return _maslov_gammas(char, l.space, _moved_bases(l, gmats, hmats))


class MpElement:
    """A metaplectic group element (g, t), anchored at a base Lagrangian."""

    __slots__ = ("char", "g", "base", "t0")

    def __init__(self, char: AdditiveCharacter, g: SpElement, base: Lagrangian, t0: complex) -> None:
        if base.space != g.space:
            raise DimensionMismatch("base Lagrangian not in g's space")
        self.char = char
        self.g = g
        self.base = base
        self.t0 = complex(t0)

    @property
    def space(self) -> SymplecticSpace:
        return self.g.space

    def value_at(self, l: Lagrangian) -> complex:
        """t(l) = gamma(tau(base, g base, g l, l)) * t0.

        The form takes the moved bases base g^T and l g^T as the bases of
        g base and g l, with no rref: another basis changes the gram only by
        congruence, and the Weil index reads gamma at the square class.
        """
        if l == self.base:
            return self.t0
        if l.space != self.space:
            raise DimensionMismatch("Lagrangian not in g's space")
        p = self.space.field.p
        g_t = self.g.mat.a.T
        base, b = self.base.sub.basis.a, l.sub.basis.a
        bases = [base, base @ g_t % p, b @ g_t % p, b]
        return weil_index(self.char, _bases_form(self.space, bases)) * self.t0

    def rebased(self, new_base: Lagrangian) -> "MpElement":
        return MpElement(self.char, self.g, new_base, self.value_at(new_base))

    def __mul__(self, other: "MpElement") -> "MpElement":
        return mp_products([self], [other])[0]

    def inverse(self) -> "MpElement":
        h = self.g.inv()
        t = 1.0 / (self.t0 * mp_cocycle(self.char, self.g, h, self.base))
        return MpElement(self.char, h, self.base, t)

    def __neg__(self) -> "MpElement":
        return MpElement(self.char, self.g, self.base, -self.t0)

    def __eq__(self, other: object) -> bool:
        """Equal character, g, base and t0; t0 is exact."""
        return isinstance(other, MpElement) and (
            (self.char, self.g, self.base, self.t0)
            == (other.char, other.g, other.base, other.t0))

    def __hash__(self) -> int:
        return hash((self.char, self.g, self.base, self.t0))

    def __repr__(self) -> str:
        return f"MpElement(p={self.char.p}, t0={self.t0:.6g},\n{self.g.mat.a})"


def split_lift(
    char: AdditiveCharacter,
    g: SpElement,
    base: Lagrangian | None = None,
    sign: int = 1,
) -> MpElement:
    """The canonical lift of g, or its negative for sign = -1."""
    return split_lifts(char, [g], base, sign)[0]


def split_lifts(
    char: AdditiveCharacter,
    gs: Sequence[SpElement],
    base: Lagrangian | None = None,
    sign: int = 1,
) -> list[MpElement]:
    """`split_lift(char, g, base, sign)` for every g of gs, from one
    `split_values` call; base defaults to the standard Lagrangian."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not gs:
        return []
    if base is None:
        base = gs[0].space.standard_lagrangian()
    if any(g.space != base.space for g in gs):
        raise DimensionMismatch("Lagrangian not in g's space")
    values = split_values(char, np.stack([g.mat.a for g in gs]), base)
    return [MpElement(char, g, base, sign * v) for g, v in zip(gs, values)]


def mp_products(lefts: Sequence[MpElement], rights: Sequence[MpElement]) -> list[MpElement]:
    """a * b = (g h, t0 t0' gamma(tau(l, g l, g h l))) for every pair of lefts
    and rights, from one `mp_cocycles` call; all share one character and base."""
    if len(lefts) != len(rights):
        raise DimensionMismatch("products need as many left as right factors")
    if not lefts:
        return []
    char, base = lefts[0].char, lefts[0].base
    if any(e.char != char or (e.base is not base and e.base != base)
           for e in (*lefts, *rights)):
        raise DimensionMismatch("product needs matching character and base")
    space = base.space
    gmats = np.stack([e.g.mat.a for e in lefts])
    hmats = np.stack([e.g.mat.a for e in rights])
    twists = mp_cocycles(char, gmats, hmats, base)
    return [MpElement(char, SpElement(space, FpMatrix(space.field, gh)), base, a.t0 * b.t0 * t)
            for a, b, gh, t in zip(lefts, rights, gmats @ hmats, twists)]


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
    """t(l) * gamma(tau(graph(g), diagonal, l + l)); independent of l.

    The single-route oracle of its stacked twin `character_factor_table`."""
    if l is None:
        l = e.base
    gamma = maslov_gamma(e.char, e.g.graph(), diagonal_lagrangian(e.space), l.doubled())
    return e.value_at(l) * gamma


def _theta_triples(g_t: np.ndarray, bl: np.ndarray) -> np.ndarray:
    """The (B, 3, d, 2d) rref bases of (graph(g), diagonal, l + l) in the
    doubled space, for a stack of g^T and one of the rref bases bl of l."""
    nb, d, _ = g_t.shape
    n = bl.shape[1]
    eye = np.eye(d, dtype=np.int64)
    out = np.zeros((nb, 3, d, 2 * d), dtype=np.int64)
    # the graph [I | g^T] and the diagonal [I | I]
    out[:, :2, :, :d] = eye
    out[:, 0, :, d:] = g_t
    out[:, 1, :, d:] = eye
    # l + l: the rows (b, 0) and (0, b) are in rref because b is
    out[:, 2, :n, :d] = bl
    out[:, 2, n:, d:] = bl
    return out


def _triple_grams(bl: np.ndarray, alpha: np.ndarray, f: np.ndarray, field) -> np.ndarray:
    """The (B, 2n, 2n) grams [[0, -1/2 bl F a^T], [^T, -1/2 a (F + F^T) a^T]]
    of the Kashiwara form of (graph(g), diagonal, l + l) on the section of
    the module docstring, for stacks of bl, of the rows alpha of its delta
    part and of F = J (g - 1)."""
    p = field.p
    nb, n, _ = bl.shape
    a_t = alpha.swapaxes(1, 2)
    out = np.zeros((nb, 2 * n, 2 * n), dtype=np.int64)
    out[:, :n, n:] = -field.half * (bl @ f % p @ a_t) % p
    out[:, n:, :n] = out[:, :n, n:].swapaxes(1, 2)
    out[:, n:, n:] = -field.half * (alpha @ ((f + f.swapaxes(1, 2)) % p) % p @ a_t) % p
    return out


def _fourgon_grams(x1: np.ndarray, x2: np.ndarray, x3: np.ndarray, y: np.ndarray,
                   form: np.ndarray, field) -> np.ndarray:
    """The grams 1/2 (A + A^T), A = x2 J x1^T - x3 J y^T, of the four-gon
    form form(x2, x1) + form(x3, x1 + x2) on rows with x1 + x2 = -y."""
    p = field.p
    a = (x2 @ form % p @ x1.swapaxes(1, 2) - x3 @ form % p @ y.swapaxes(1, 2)) % p
    return field.half * (a + a.swapaxes(1, 2)) % p


def character_factor_table(es: Sequence[MpElement], lags: Sequence[Lagrangian]) -> np.ndarray:
    """The (E, L) array of `character_factor(e, l)` for e in es and l in
    lags, each equal to it (`==`).

    The (e, l) pairs are cut into stacks of at most `_FACTOR_STACK`.  A
    stack solves the systems of its elements, g^T - 1 and [b; b g^T], in
    one `_solvers_many`, takes the null spaces of its pairs in one
    `_null_rows_many`, and reduces the 2n x 2n grams of the triple and the
    four-gon of every pair (module docstring) in one `_rank_dets_many`.
    """
    out = np.zeros((len(es), len(lags)), dtype=complex)
    if not es or not lags:
        return out
    char, space = es[0].char, es[0].space
    if any(e.char != char or e.space != space for e in es):
        raise DimensionMismatch("factor table needs one character and one space")
    if any(l.space != space for l in lags):
        raise DimensionMismatch("Lagrangian not in g's space")
    field, n, d = space.field, space.n, space.dim
    p = field.p
    form = space.gram.a
    eye = np.eye(d, dtype=np.int64)
    mats = np.stack([e.g.mat.a for e in es])
    base = np.stack([e.base.sub.basis.a for e in es])
    t0 = np.array([e.t0 for e in es])
    b = np.stack([l.sub.basis.a for l in lags])
    pairs = len(es) * len(lags)
    for start in range(0, pairs, _FACTOR_STACK):
        ei, li = np.divmod(np.arange(start, min(start + _FACTOR_STACK, pairs)), len(lags))
        k = len(ei)
        # the elements of the stack, once each: g^T - 1 and U = [b; b g^T]
        first = ei[0]
        g = mats[first:ei[-1] + 1]
        g_t = g.swapaxes(1, 2)
        b0 = base[first:ei[-1] + 1]
        gb0 = b0 @ g_t % p
        sol, syn, _ = _solvers_many(np.concatenate([g_t - eye, np.concatenate([b0, gb0], axis=1)]),
                                    field)
        m = len(g)
        at = ei - first
        bl = b[li]
        blg = bl @ g_t[at] % p
        z = np.concatenate([blg, bl], axis=1)
        # delta in the left null of bl Syn_M, zero-padded to 2n columns, and
        # w in the left null of [bl g^T; bl] Syn_U, in one stack
        cons = np.zeros((2 * k, d, 2 * n), dtype=np.int64)
        cons[:k, :, :n] = (bl @ syn[:m][at] % p).swapaxes(1, 2)
        cons[k:] = (z @ syn[m:][at] % p).swapaxes(1, 2)
        null = _null_rows_many(cons, field)
        alpha = null[:k, :n, :n] @ (bl @ sol[:m][at] % p) % p
        f = form @ (g - eye) % p
        w = null[k:]
        y = w @ z % p
        coefs = -y @ sol[m:][at] % p
        x1 = coefs[:, :, :n] @ b0[at] % p
        x2 = coefs[:, :, n:] @ gb0[at] % p
        x3 = w[:, :, :n] @ blg % p
        # At l = base the four-gon form is zero, since q = form(x2 + x3, x1 - x4)
        # = -form(x1 + x4, x1 - x4) = 0 on x1, x4 in base; so is its gram on any
        # section, whose index is exactly 1 + 0j: t(base) = t0 needs no special case.
        grams = np.concatenate([_triple_grams(bl, alpha, f[at], field),
                                _fourgon_grams(x1, x2, x3, y, form, field)])
        gammas = _gamma_values(char, *_rank_dets_many(grams, field))
        out[ei, li] = gammas[k:] * t0[ei] * gammas[:k]
    return out


def character_factor_doubled(e: MpElement) -> complex:
    """The same factor computed as the doubled embedding evaluated at the diagonal.

    A second single-route oracle of `character_factor_table`, by another
    construction; the theta suite holds it to `character_factor`."""
    return embed_doubled(e).value_at(diagonal_lagrangian(e.space))


def character_factors_doubled(es: Sequence[MpElement]) -> list[complex]:
    """`character_factor_doubled(e)` for every e of es, each equal to it (`==`).

    The four-gons (l + l, (1, g)(l + l), (1, g) diagonal, diagonal) of the
    elements, on the bases `value_at` takes for them, go into one
    `_maslov_gammas` call on the doubled space per stack of at most
    `_FACTOR_STACK` elements, with l the base of each e."""
    if not es:
        return []
    char, space = es[0].char, es[0].space
    if any(e.char != char or e.space != space for e in es):
        raise DimensionMismatch("doubled factors need one character and one space")
    n, d = space.n, space.dim
    gammas = []
    for start in range(0, len(es), _FACTOR_STACK):
        part = es[start:start + _FACTOR_STACK]
        g_t = np.stack([e.g.mat.a.T for e in part])
        b = np.stack([e.base.sub.basis.a for e in part])
        graph, diagonal, doubled = np.moveaxis(_theta_triples(g_t, b), 1, 0)
        # (1, g) moves the rows (0, b) of l + l to (0, b g^T), and the diagonal to the graph
        moved = doubled.copy()
        moved[:, n:, d:] = b @ g_t % space.field.p
        four = np.stack([doubled, moved, graph, diagonal], axis=1)
        gammas += _maslov_gammas(char, space.doubled(), four)
    return [gamma * e.t0 for e, gamma in zip(es, gammas)]
