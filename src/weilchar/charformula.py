"""Closed-form character values and the diagonal support form of (g, l).

The trace of the Weil operator of a lifted g has two closed forms: one through
the discriminant of the displacement pairing form((g-1)v, w) of g, one through
the Maslov index of (graph(g), diagonal, l + l) in the doubled space.  Both
carry p^(k/2), k = dim ker(g - 1); a caller that needs both takes k from one
`closed_form_data` call and passes it with the character factor to
`_factor_trace`, through which `trace_from_factor` also goes.  Both are
checked against the brute-force operator trace elsewhere.

The displacement pairing is not symmetric unless (g-1)^2 = 0, but its gram
G = (g-1)^T J has ker(g-1) as both its left and its right radical.  So with I
the pivot columns of rref(G), the minor G[I, I] is the pairing on a complement
of ker(g-1): k = dim V - |I|, and det G[I, I] has the class of the
discriminant.  `closed_form_data_many` takes both from one
`field._rank_dets_many` of a whole stack of elements, and `closed_form_data`
is its one-element call; `symplectic.displacement_disc` keeps the
complement route.

The diagonal support form (S_hat, q) describes where the diagonal of the
operator kernel is supported in V/l and which phases appear there; its dual
form lives on l ^ (g-1)V.  The structural checks of this module tie their
dimensions, Witt invariants and transfer isometry to closed formulas.  They
take one `DiagonalForm` per (g, l), which also carries ker(g - 1) and
g l ^ l, so each pair's form and subspaces are built once for all checks.

The forms, the Maslov classes and the inverse identities each have one
stacked implementation, and the single call is its one-element form:
`diagonal_forms` builds the forms from stacked solvers and null spaces and
their subspaces through `field._subspaces`, `check_maslov_classes` takes g l
from `symplectic._transformed`, and `check_inverse_identities` inverts
through `_inverses_many`.  The tests hold each stack to an independent
one-pair route, the forms to `diagonal_form_by_sums` (sums and `intersect`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Any, Sequence

import numpy as np

from .characters import AdditiveCharacter
from .errors import DimensionMismatch, InvariantViolation, SingularGMinusOne
from .field import (
    FpMatrix,
    SquareClass,
    Subspace,
    _eliminate_many,
    _inverses_many,
    _kernel_rows,
    _rank_dets_many,
    _solvers_many,
    _subspaces,
)
from .maslov import Orientation, _polygon_rank_dets, orientation_pairings
from .metaplectic import MpElement, _theta_triples, character_factor
from .quadform import QuadraticSpace, WittInvariants, _gammas_of, _phase
from .symplectic import (
    Lagrangian,
    SpElement,
    SymplecticSpace,
    _transformed,
    kernel_of_displacement,
)


@dataclass(frozen=True)
class DiagonalForm:
    """The support space and phase form of the diagonal kernel of g at l."""

    g: SpElement
    l: Lagrangian
    #: S_hat = {x in V/l : (g-1)x in g l + l}, inside canonical coset coordinates
    support: Subspace
    #: gram of q(x, y) = form(a + b, y) on the support basis
    gram: FpMatrix
    #: rows: the transfer a + b in l for each support basis vector
    transfer: FpMatrix
    #: S_hat' = l ^ (g-1)V
    dual_support: Subspace
    #: gram of q'(a, b) = form(a, y) with b = (g-1)y, on the dual basis
    dual_gram: FpMatrix
    #: ker(g - 1)
    ker: Subspace
    #: g l ^ l
    inter: Subspace

    def form_space(self) -> QuadraticSpace:
        return QuadraticSpace(self.l.space.field, self.gram)


def diagonal_form(g: SpElement, l: Lagrangian) -> DiagonalForm:
    """The `DiagonalForm` of (g, l): the one-element call of `diagonal_forms`."""
    return diagonal_forms([g], [l])[0]


def diagonal_forms(gs: Sequence[SpElement], ls: Sequence[Lagrangian]) -> list[DiagonalForm]:
    """The `DiagonalForm` of every pair (gs[i], ls[i]) of one space, each
    subspace with the rref basis `Subspace.from_rows` gives it.

    One `_solvers_many` solves S = [g bl; bl; (g-1) bl], whose rows span
    g l + l, and (g-1)^T, the latter padded with n zero rows, which add zero
    columns to its solution map and leave its syndrome as it is.  The
    support is the x with (g-1)x of zero syndrome modulo S, and the solution
    map of S decomposes (g-1)x; that of (g-1)^T gives the preimages of the
    dual basis.  One `_kernel_rows` gives the supports, ker(g - 1), and
    the combinations c of bl with c bl in (g-1)V and with c bl in g l, which
    is form(c bl, g bl) = 0 because g l is Lagrangian.  For c in rref, c bl
    is in rref too: bl has unit columns at its pivots P, so c bl has unit
    columns at P[Q] for the pivots Q of c, and zeros left of them.  So
    l ^ (g-1)V and g l ^ l take no further elimination.
    """
    if len(gs) != len(ls):
        raise DimensionMismatch("need one Lagrangian per element")
    if not gs:
        return []
    space = gs[0].space
    if any(g.space != space for g in gs) or any(l.space != space for l in ls):
        raise DimensionMismatch("Lagrangian not in g's space")
    field, n, d = space.field, space.n, space.dim
    p = field.p
    form = space.gram.a
    nb = len(gs)
    mats = np.stack([g.mat.a for g in gs])
    gm1 = (mats - np.eye(d, dtype=np.int64)) % p
    gm1_t = gm1.swapaxes(1, 2)
    bl = np.stack([l.sub.basis.a for l in ls])
    lpiv = np.array([l.sub.pivots for l in ls]).reshape(nb, n)
    gbl = bl @ mats.swapaxes(1, 2) % p
    systems = np.zeros((2, nb, 3 * n, d), dtype=np.int64)
    systems[0] = np.concatenate([gbl, bl, bl @ gm1_t % p], axis=1)
    systems[1, :, :d] = gm1_t
    sol, syn, _ = _solvers_many(systems.reshape(2 * nb, 3 * n, d), field)

    # the constraints of four kernels in one stack, zero-padded to d + n rows
    # and d columns: the support, where (g-1)x has zero syndrome modulo S
    # and x ranges over coset reps of l; ker(g - 1); the c with c bl of zero
    # syndrome modulo (g-1)^T, for l ^ (g-1)V; and the c with
    # c bl J (g bl)^T = 0, for g l ^ l.  A zero column adds a free unit row
    # at its own index, so the kernels in c are the first n rows and columns.
    cons = np.zeros((4, nb, d + n, d), dtype=np.int64)
    cons[0, :, :d] = syn[:nb].swapaxes(1, 2) @ gm1 % p
    cons[0, np.arange(nb)[:, None], d + np.arange(n), lpiv] = 1
    cons[1, :, :d] = gm1
    cons[2, :, :d, :n] = (bl @ syn[nb:] % p).swapaxes(1, 2)
    cons[3, :, :n, :n] = gbl @ form.T @ bl.swapaxes(1, 2) % p
    rows, free = _kernel_rows(cons.reshape(4 * nb, d + n, d), field)
    sup, ker = rows[:nb], rows[nb:2 * nb]
    spans = rows[2 * nb:, :n, :n] @ np.concatenate([bl, bl]) % p
    dual, inter = spans[:nb], spans[nb:]
    sup_free, cfree = free[:nb], free[2 * nb:, :n]

    # decompose (g-1)x = g a + b + (g-1)c with a, b, c in l; q(x, y) = form(a+b, y)
    moved = sup @ gm1_t % p
    if np.any(moved @ syn[:nb] % p):
        raise InvariantViolation("support vector has no decomposition")
    y = moved @ sol[:nb] % p
    transfer = (y[:, :, :n] + y[:, :, n:2 * n]) @ bl % p
    gram = transfer @ form @ sup.swapaxes(1, 2) % p
    if np.any((gram - gram.swapaxes(1, 2)) % p):
        raise InvariantViolation("support form is not symmetric")

    # dual: q'(a, b) = form(a, y) with b = (g-1)y
    pre = dual @ sol[nb:, :, :d] % p
    if np.any(dual @ syn[nb:] % p):
        raise InvariantViolation("dual support vector is outside (g-1)V")
    dual_gram = dual @ form @ pre.swapaxes(1, 2) % p
    if np.any((dual_gram - dual_gram.swapaxes(1, 2)) % p):
        raise InvariantViolation("dual form is not symmetric")

    supports = _subspaces(field, sup, sup_free)
    kers = _subspaces(field, ker, free[nb:2 * nb])
    duals = _subspaces(field, dual, cfree[:nb], lpiv)
    inters = _subspaces(field, inter, cfree[nb:], lpiv)
    return [
        DiagonalForm(
            g=g,
            l=l,
            support=support,
            gram=FpMatrix(field, gm[m][:, m]),
            transfer=FpMatrix(field, tr[m]),
            dual_support=dual_support,
            dual_gram=FpMatrix(field, dg[dm][:, dm]),
            ker=k,
            inter=i,
        )
        for g, l, support, m, gm, tr, dual_support, dm, dg, k, i in zip(
            gs, ls, supports, sup_free, gram, transfer, duals, cfree[:nb], dual_gram, kers, inters)
    ]


def closed_form_data(char: AdditiveCharacter, g: SpElement) -> tuple[int, SquareClass, complex]:
    """(dim ker(g-1), displacement disc, closed-form trace): the one-element
    call of `closed_form_data_many`."""
    return closed_form_data_many(char, g.space, g.mat.a[None])[0]


def closed_form_data_many(
    char: AdditiveCharacter, space: SymplecticSpace, mats: np.ndarray
) -> list[tuple[int, SquareClass, complex]]:
    """`closed_form_data` for every element of Sp(space) in a (B, d, d) stack.

    The displacement grams (g - 1)^T J, entry (i, j) form((g-1)e_i, e_j),
    take one `_rank_dets_many`; k = d - rank, the disc and the trace are
    evaluated once per distinct (rank, det) pair.
    """
    d, p = space.dim, char.p
    mats = np.asarray(mats, dtype=np.int64)
    grams = (mats.swapaxes(1, 2) - np.eye(d, dtype=np.int64)) @ space.gram.a % p
    ranks, dets = _rank_dets_many(grams, char.field)
    keys = list(zip(ranks.tolist(), dets.tolist()))
    data = {(r, det): (d - r, SquareClass.of(char.field, det),
                       _factor_trace(p, d - r, _phase(char, r, det))) for r, det in set(keys)}
    return [data[key] for key in keys]


def trace_closed_form(char: AdditiveCharacter, g: SpElement) -> complex:
    """p^(dim ker(g-1)/2) * gamma(1)^(dim V - dim ker - 1) * gamma(disc)."""
    return closed_form_data(char, g)[2]


def _factor_trace(p: int, k: int, factor: complex) -> complex:
    """p^(k/2) * factor, for k = dim ker(g-1) and the phase of either closed
    form, such as t(l) * gamma(tau(graph, diagonal, l + l)).  p^(k/2) is
    p^(k//2) * sqrt(p)^(k mod 2), so an even k gives an exact integer.
    Adding 0.0 turns a -0.0 part, such as the real part of (-1) * i, into 0.0."""
    return p ** (k // 2) * math.sqrt(p) ** (k % 2) * factor + 0.0


def trace_from_factor(e: MpElement, l: Lagrangian | None = None) -> complex:
    """p^(dim ker(g-1)/2) * t(l) * gamma(tau(graph, diagonal, l + l))."""
    return _factor_trace(e.char.p, kernel_of_displacement(e.g).dim, character_factor(e, l))


@dataclass(frozen=True)
class CheckReport:
    label: str
    ok: bool
    details: dict = dc_field(default_factory=dict)
    witness: Any = None


def check_kernel_dims(df: DiagonalForm) -> CheckReport:
    """Radical and rank of the support form against their closed formulas.
    dim(l ^ ker(g - 1)) is dim l + dim ker(g - 1) - rank [l; ker(g - 1)]."""
    n = df.g.space.n
    ker = df.ker
    lker = n + ker.dim - FpMatrix(ker.field, np.vstack([df.l.sub.basis.a, ker.basis.a])).rank()
    q = df.form_space()
    want_rad = ker.dim - lker
    want_rank = n - ker.dim - df.inter.dim + 2 * lker
    got_rank = q.rank()
    got_rad = q.dim - got_rank
    want_dual = n - ker.dim + lker
    dual_ok = df.dual_support.dim == want_dual
    ok = got_rad == want_rad and got_rank == want_rank and dual_ok
    return CheckReport(
        label="kernel-dims",
        ok=ok,
        details={
            "radical": (got_rad, want_rad),
            "rank": (got_rank, want_rank),
            "dual_dim": (df.dual_support.dim, want_dual),
            "support_dim": q.dim,
        },
    )


def check_maslov_class(char: AdditiveCharacter, df: DiagonalForm) -> CheckReport:
    """Witt data of the support form vs the Maslov index of (graph, diag, l+l),
    and its discriminant vs (-1)^dim(l ^ (g-1)l) * pairing(gl, l) * disp disc.

    The one-element call of `check_maslov_classes`."""
    return check_maslov_classes(char, [df])[0]


def check_maslov_classes(char: AdditiveCharacter, dfs: Sequence[DiagonalForm]) -> list[CheckReport]:
    """`check_maslov_class` of every form of one space, from stacked calls.

    The support grams, zero-padded to one size, take one `_rank_dets_many`,
    and the rref bases of (graph, diagonal, l + l) one `_polygon_rank_dets`.
    dim(l ^ (g-1)l) is n + rank (g-1)l - rank [l; (g-1)l], with both ranks
    from one stacked elimination.  The pairings of (g l, l) take one
    `orientation_pairings` call, with g l from one `_transformed` of the
    moved bases b g^T, which orient it, and g l ^ l from the forms
    zero-padded as `inters`; the displacement classes take one
    `closed_form_data_many`."""
    if not dfs:
        return []
    space = dfs[0].g.space
    if any(df.g.space != space or df.l.space != space for df in dfs):
        raise DimensionMismatch("Maslov classes need one space")
    field, n, d = space.field, space.n, space.dim
    p, nb = field.p, len(dfs)
    eye = np.eye(d, dtype=np.int64)
    mats = np.stack([df.g.mat.a for df in dfs])
    bl = np.stack([df.l.sub.basis.a for df in dfs])

    grams = np.zeros((nb,) + (max(df.gram.nrows for df in dfs),) * 2, dtype=np.int64)
    for gram, df in zip(grams, dfs):
        gram[:df.gram.nrows, :df.gram.nrows] = df.gram.a
    if np.any((grams - grams.swapaxes(1, 2)) % p):
        raise DimensionMismatch("gram must be symmetric")
    invs = []
    for ranks, dets in (_rank_dets_many(grams, field),
                        _polygon_rank_dets(space.doubled(),
                                           _theta_triples(mats.swapaxes(1, 2), bl))):
        invs.append([WittInvariants(r, SquareClass.of(field, det), gamma) for r, det, gamma
                     in zip(ranks.tolist(), dets.tolist(), _gammas_of(char, ranks, dets))])

    # the ranks of [0; (g-1)l] and of [l; (g-1)l] from one stack
    rows = np.zeros((2, nb, 2 * n, d), dtype=np.int64)
    rows[:, :, n:] = bl @ (mats - eye).swapaxes(1, 2) % p
    rows[1, :, :n] = bl
    ranks = _eliminate_many(rows.reshape(2 * nb, 2 * n, d), field)[2].reshape(2, nb)
    meets = (n + ranks[0] - ranks[1]).tolist()

    inters = np.zeros((nb, max(df.inter.dim for df in dfs), d), dtype=np.int64)
    for inter, df in zip(inters, dfs):
        inter[:df.inter.dim] = df.inter.basis.a
    gbl = bl @ mats.swapaxes(1, 2) % p
    moved = [Orientation._spanning(gl, FpMatrix(field, b))
             for gl, b in zip(_transformed(space, gbl), gbl)]
    pairs = orientation_pairings(moved, [Orientation.default(df.l) for df in dfs], inters)
    closed = closed_form_data_many(char, space, mats)

    reports = []
    for inv_q, inv_m, meet, pair, (_, disc, _) in zip(*invs, meets, pairs, closed):
        want_disc = SquareClass.of(field, pow(-1, meet, p)) * pair * disc
        ok = inv_q.same(inv_m) and inv_q.disc == want_disc
        reports.append(CheckReport("maslov-class", ok, {
            "support_inv": (inv_q.rank, inv_q.disc.rep, inv_q.gamma),
            "maslov_inv": (inv_m.rank, inv_m.disc.rep, inv_m.gamma),
            "disc_formula": want_disc.rep}))
    return reports


def check_transfer_isometry(df: DiagonalForm) -> CheckReport:
    """The transfer x -> a + b carries the support form to the dual form."""
    p = df.g.space.field.p
    c, inside = df.dual_support.coordinates_many(df.transfer.a)
    if not inside.all():
        witness = df.transfer.a[np.argmin(inside)].tolist()
        return CheckReport(label="transfer-isometry", ok=False, witness=witness)
    pulled = (c @ df.dual_gram.a @ c.T) % p
    ok = bool(np.array_equal(pulled, df.gram.a))
    return CheckReport(label="transfer-isometry", ok=ok,
                       details={"pulled": pulled.tolist(), "gram": df.gram.tolist()})


def check_inverse_identity(df: DiagonalForm) -> CheckReport:
    """The one-element call of `check_inverse_identities`."""
    return check_inverse_identities([df])[0]


def check_inverse_identities(dfs: Sequence[DiagonalForm]) -> list[CheckReport]:
    """For every form of one space with g - 1 invertible: the dual form equals
    form(a, (g-1)^(-1) b) and -form(a, (g^(-1)-1)^(-1) b), two independent
    inverse computations.  g^(-1) of every pair takes one stacked
    `_inverses_many`, and (g-1)^(-1) and (g^(-1)-1)^(-1) a second."""
    if not dfs:
        return []
    space = dfs[0].g.space
    if any(df.g.space != space for df in dfs):
        raise DimensionMismatch("inverse identities need one space")
    field, j, nb = space.field, space.gram.a, len(dfs)
    mats = np.stack([df.g.mat.a for df in dfs])
    ginv = _inverses_many(mats, field)[1]
    eye = np.eye(space.dim, dtype=np.int64)
    ok, resolvents = _inverses_many(np.concatenate([mats - eye, ginv - eye]), field)
    if any(df.ker.dim for df in dfs) or not ok.all():
        raise SingularGMinusOne("g - 1 is singular")
    reports = []
    for df, r1, r2 in zip(dfs, resolvents[:nb], resolvents[nb:]):
        b = df.dual_support.basis.a
        first, second = b @ j @ r1 @ b.T % field.p, -(b @ j @ r2 @ b.T) % field.p
        ok = all(np.array_equal(route, df.dual_gram.a) for route in (first, second))
        reports.append(CheckReport("inverse-identity", ok, {
            "dual_gram": df.dual_gram.tolist(), "resolvent": first.tolist(),
            "inverse_route": second.tolist()}))
    return reports
