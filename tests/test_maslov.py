"""Polygon index of Lagrangian tuples: forms, orientations, edge factors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilchar.characters import AdditiveCharacter, approx_eq
from weilchar.errors import ArityError, InvariantViolation
from weilchar.field import Fp, FpMatrix, RowSolver, SquareClass, Subspace
from weilchar.maslov import (
    Orientation,
    _completions,
    _maslov_gammas,
    edge_factors,
    lagrangian_intersections,
    maslov_form,
    maslov_gamma,
    maslov_invariants,
    orientation_pairing,
    orientation_pairings,
    predicted_rank_discs,
)
from weilchar.quadform import witt_invariants
from weilchar.symplectic import SymplecticSpace, standard_gram


def setup(p, n):
    f = Fp(p)
    return AdditiveCharacter(f), SymplecticSpace(f, n)


def standard_three(sp):
    n, d = sp.n, sp.dim
    rows_x = np.zeros((n, d), np.int64)
    rows_y = np.zeros((n, d), np.int64)
    rows_d = np.zeros((n, d), np.int64)
    for i in range(n):
        rows_x[i, i] = 1
        rows_y[i, n + i] = 1
        rows_d[i, i] = rows_d[i, n + i] = 1
    return sp.lagrangian(rows_x), sp.lagrangian(rows_y), sp.lagrangian(rows_d)


def test_arity_guard():
    ch, sp = setup(5, 1)
    x, y, _ = standard_three(sp)
    with pytest.raises(ArityError):
        maslov_form(x)
    with pytest.raises(ArityError):
        maslov_form()


def test_two_term_form_is_zero():
    ch, sp = setup(5, 2)
    rng = np.random.default_rng(1)
    for _ in range(15):
        l1 = sp.random_lagrangian(rng)
        l2 = sp.random_lagrangian(rng)
        q = maslov_form(l1, l2)
        assert q.rank() == 0
        assert q.dim == l1.sub.intersect(l2.sub).dim


def test_frozen_triple_gram_p5():
    # hand-computed: the triple (span e1, span e2, span(e1+e2)) at p=5 gives
    # a one-dimensional solution space with gram [[4]]
    ch, sp = setup(5, 1)
    x, y, d = standard_three(sp)
    q = maslov_form(x, y, d)
    assert q.gram.a.tolist() == [[4]]
    assert q.rank() == 1
    assert q.disc().is_square  # 4 is a square
    assert approx_eq(maslov_gamma(ch, x, y, d), ch.gamma(4), 1e-10)


def test_gamma_under_cyclic_rotation_and_reversal():
    ch, sp = setup(7, 1)
    rng = np.random.default_rng(6)
    for _ in range(20):
        lags = [sp.random_lagrangian(rng) for _ in range(4)]
        g0 = maslov_gamma(ch, *lags)
        rot = lags[1:] + lags[:1]
        assert approx_eq(maslov_gamma(ch, *rot), g0, 1e-8)
        rev = list(reversed(lags))
        assert approx_eq(maslov_gamma(ch, *rev), np.conj(g0), 1e-8)


def test_class_invariant_under_group_action():
    ch, sp = setup(5, 2)
    rng = np.random.default_rng(13)
    for _ in range(15):
        lags = [sp.random_lagrangian(rng) for _ in range(3)]
        g = sp.random_element(rng)
        moved = [l.transform(g) for l in lags]
        a = witt_invariants(ch, maslov_form(*lags))
        b = witt_invariants(ch, maslov_form(*moved))
        assert a.same(b)


def test_chain_reduction_as_witt_classes():
    # an m-gon splits into a triangle plus an (m-1)-gon in the Witt group
    ch, sp = setup(5, 1)
    rng = np.random.default_rng(77)
    for _ in range(25):
        lags = [sp.random_lagrangian(rng) for _ in range(4)]
        whole = witt_invariants(ch, maslov_form(*lags))
        tri = witt_invariants(ch, maslov_form(lags[0], lags[1], lags[2]))
        rest = witt_invariants(ch, maslov_form(lags[0], lags[2], lags[3]))
        assert (tri + rest).witt_equal(whole)


def test_orientation_default_and_random_span():
    ch, sp = setup(7, 2)
    rng = np.random.default_rng(2)
    l = sp.random_lagrangian(rng)
    o = Orientation.default(l)
    assert np.array_equal(o.obasis.a, l.sub.basis.a)
    for _ in range(10):
        r = Orientation.random(l, rng)
        # same span, possibly different volume
        assert Subspace.from_rows(sp.field, sp.dim, r.obasis.a) == l.sub


def test_orientation_pairing_transverse_standard():
    ch, sp = setup(5, 1)
    x, y, _ = standard_three(sp)
    o = orientation_pairing(Orientation.default(x), Orientation.default(y))
    assert o.is_square  # det [[<e1, e2>]] = 1


def test_orientation_pairing_scaling_covariance():
    ch, sp = setup(7, 2)
    rng = np.random.default_rng(40)
    for _ in range(20):
        l1 = sp.random_lagrangian(rng)
        l2 = sp.random_lagrangian(rng)
        o1 = Orientation.random(l1, rng)
        o2 = Orientation.random(l2, rng)
        base = orientation_pairing(o1, o2)
        c = int(rng.integers(1, 7))
        left = orientation_pairing(o1.scaled(c), o2)
        assert left == base.times(c)
        right = orientation_pairing(o1, o2.scaled(c))
        assert right == base.times(c)


def test_predicted_rank_disc_matches_computed():
    for p, n in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2)):
        ch, sp = setup(p, n)
        rng = np.random.default_rng(1000 * p + n)
        for _ in range(30):
            m = int(rng.integers(3, 6))
            lags = [sp.random_lagrangian(rng) for _ in range(m)]
            q = maslov_form(*lags)
            orients = [Orientation.default(l) for l in lags]
            want_rank, want_disc = predicted_rank_discs([orients])[0]
            assert q.rank() == want_rank
            assert q.disc() == want_disc


def test_predicted_rank_disc_degenerate_tuples():
    # repeated entries force degenerate polygon forms; the formulas still hold
    ch, sp = setup(5, 1)
    x, y, d = standard_three(sp)
    for lags in ([x, x, y], [x, y, x, y], [x, x, x], [x, y, y, d], [d, d, d, d]):
        q = maslov_form(*lags)
        want_rank, want_disc = predicted_rank_discs([[Orientation.default(l) for l in lags]])[0]
        assert q.rank() == want_rank
        assert q.disc() == want_disc


def test_edge_factor_transverse_pair_is_gamma_one():
    for p in (3, 5, 7):
        ch, sp = setup(p, 1)
        x, y, _ = standard_three(sp)
        v = edge_factors(ch, [Orientation.default(x)], [Orientation.default(y)])[0]
        assert approx_eq(v, ch.gamma(1), 1e-10)


def test_edge_factor_equal_pair_is_one():
    ch, sp = setup(7, 2)
    rng = np.random.default_rng(3)
    l = sp.random_lagrangian(rng)
    o = Orientation.default(l)
    assert approx_eq(edge_factors(ch, [o], [o])[0], 1.0, 1e-10)


def test_edge_product_equals_polygon_gamma():
    """Cyclic product of edge factors reproduces the polygon index for any
    choice of orientations, since scalings cancel around the cycle."""
    for p, n in ((3, 1), (5, 1), (7, 1), (3, 2)):
        ch, sp = setup(p, n)
        rng = np.random.default_rng(99 * p + n)
        for _ in range(20):
            m = int(rng.integers(3, 6))
            lags = [sp.random_lagrangian(rng) for _ in range(m)]
            orients = [Orientation.random(l, rng) for l in lags]
            prod = 1 + 0j
            for f in edge_factors(ch, orients, orients[1:] + orients[:1]):
                prod *= f
            assert approx_eq(prod, maslov_gamma(ch, *lags), 1e-8)


def test_maslov_class_carries_invariants():
    ch, sp = setup(5, 1)
    x, y, d = standard_three(sp)
    inv = witt_invariants(ch, maslov_form(x, y, d))
    assert inv.rank == 1
    assert inv.gamma == maslov_gamma(ch, x, y, d)


def extend_basis_by_loop(inter, lag):
    """Reference: add each basis row of lag that is not yet in the span."""
    field = lag.space.field
    cur, out = inter, []
    for row in lag.sub.basis.a:
        if not cur.coordinates_many(row[None])[1][0]:
            out.append(row)
            cur = cur + Subspace.from_rows(field, lag.space.dim, row[None, :])
    return np.asarray(out, dtype=np.int64).reshape(-1, lag.space.dim)


def pairing_by_solver(o1, o2):
    """Reference: solve for the coordinates of (c, d_i) in each orientation basis."""
    space = o1.lag.space
    field = space.field
    inter = o1.lag.sub.intersect(o2.lag.sub)
    c = inter.basis.a
    d1 = extend_basis_by_loop(inter, o1.lag)
    d2 = extend_basis_by_loop(inter, o2.lag)
    dets = []
    for ori, d in ((o1, d1), (o2, d2)):
        coords, ok = RowSolver(ori.obasis).solve_many(np.vstack([c, d]))
        if not ok.all():
            raise InvariantViolation("a basis vector lies outside its oriented Lagrangian")
        dets.append(FpMatrix(field, coords).det())
    pair = (d1 @ space.gram.a @ d2.T) % field.p
    det_p = FpMatrix(field, pair).det() if len(d1) else 1
    return SquareClass.of(field, det_p * field.inv(dets[0]) * field.inv(dets[1]))


def lagrangian_pairs(sp, rng, count):
    """Random pairs, equal pairs, and pairs (l, t l) for a transvection t,
    which meet in the hyperplane of l orthogonal to t's direction."""
    for _ in range(count):
        l1 = sp.random_lagrangian(rng)
        v = rng.integers(0, sp.field.p, sp.dim)
        yield l1, sp.random_lagrangian(rng)
        yield l1, l1
        yield l1, l1.transform(sp.transvection(v))


@pytest.mark.parametrize("p,n", [(3, 1), (5, 2), (7, 3)])
def test_pairing_matches_solver_reference(p, n):
    ch, sp = setup(p, n)
    rng = np.random.default_rng(17 * p + n)
    dims = set()
    for l1, l2 in lagrangian_pairs(sp, rng, 8):
        inter = l1.sub.intersect(l2.sub)
        dims.add(inter.dim)
        for lag in (l1, l2):
            d = _completions([Orientation.default(lag)], inter.basis.a[None])[0][0]
            assert np.array_equal(d[d.any(axis=1)], extend_basis_by_loop(inter, lag))
        for o1, o2 in ((Orientation.default(l1), Orientation.default(l2)),
                       (Orientation.random(l1, rng), Orientation.random(l2, rng))):
            want = pairing_by_solver(o1, o2)
            assert orientation_pairing(o1, o2) == want
            assert orientation_pairing(o1, o2, inter) == want
    assert {0, n} <= dims and len(dims) >= min(n, 2) + 1


@pytest.mark.parametrize("p,n", [(3, 1), (5, 2), (7, 3)])
def test_transform_equals_checked_orientation(p, n):
    ch, sp = setup(p, n)
    rng = np.random.default_rng(23 * p + n)
    for _ in range(6):
        o = Orientation.random(sp.random_lagrangian(rng), rng)
        g = sp.random_element(rng)
        moved = (o.obasis.a @ g.mat.a.T) % p
        want = Orientation(o.lag.transform(g), moved)
        got = o.transform(g)
        assert got.lag == want.lag
        assert got.obasis == want.obasis


def test_pairing_rejects_rows_outside_the_lagrangian():
    ch, sp = setup(5, 2)
    x, y, _ = standard_three(sp)
    ox, oy = Orientation.default(x), Orientation.default(y)
    # a claimed intersection that does not lie in x
    outside = Subspace.from_rows(sp.field, sp.dim, y.sub.basis.a[:1])
    with pytest.raises(InvariantViolation):
        orientation_pairing(ox, oy, outside)
    # an orientation whose basis leaves its Lagrangian, built without the span check
    bad = Orientation._spanning(x, FpMatrix(sp.field, np.vstack([x.sub.basis.a[:1],
                                                                y.sub.basis.a[:1]])))
    with pytest.raises(InvariantViolation):
        orientation_pairing(bad, oy)
    with pytest.raises(InvariantViolation):
        pairing_by_solver(bad, oy)


def stacked_cells():
    """(3,1), (5,2), (3,3) and F_5^4 with the gram B^T J B for a random invertible B."""
    for p, n in ((3, 1), (5, 2), (3, 3)):
        yield setup(p, n)
    f = Fp(5)
    rng = np.random.default_rng(8)
    while True:
        b = rng.integers(0, 5, (4, 4))
        if FpMatrix(f, b).det():
            break
    yield AdditiveCharacter(f, 2), SymplecticSpace(f, gram=FpMatrix(f, b.T @ standard_gram(f, 2).a @ b))


@pytest.mark.parametrize("cell", range(4), ids=["3-1", "5-2", "3-3", "gram-5-2"])
def test_stacked_pairings_and_edge_factors_equal_the_single_calls(cell):
    """Over random, equal and transvected pairs, with default and random
    orientations: the stacked intersections span l1 ^ l2, and the stacked
    pairings and edge factors equal the single calls and the solver
    reference under ==, with the intersections computed or given."""
    ch, sp = list(stacked_cells())[cell]
    rng = np.random.default_rng(31 + cell)
    pairs = list(lagrangian_pairs(sp, rng, 6))
    inters = lagrangian_intersections(pairs)
    assert inters.shape == (len(pairs), sp.dim, sp.dim)
    dims = set()
    for rows, (l1, l2) in zip(inters, pairs):
        want = l1.sub.intersect(l2.sub)
        dims.add(want.dim)
        assert np.count_nonzero(rows.any(axis=1)) == want.dim
        assert Subspace.from_rows(sp.field, sp.dim, rows) == want
    assert {0, sp.n} <= dims
    for orient in (Orientation.default, lambda l: Orientation.random(l, rng)):
        o1s = [orient(l1) for l1, _ in pairs]
        o2s = [orient(l2) for _, l2 in pairs]
        singles = [orientation_pairing(a, b) for a, b in zip(o1s, o2s)]
        assert singles == [pairing_by_solver(a, b) for a, b in zip(o1s, o2s)]
        assert orientation_pairings(o1s, o2s) == singles
        assert orientation_pairings(o1s, o2s, inters) == singles
        rref_inters = [l1.sub.intersect(l2.sub) for l1, l2 in pairs]
        assert [orientation_pairing(a, b, i) for a, b, i in zip(o1s, o2s, rref_inters)] == singles
        factors = [ch.gamma(1) ** (sp.n - i.dim - 1) * ch.gamma_class(c)
                   for i, c in zip(rref_inters, singles)]
        assert [edge_factors(ch, [a], [b])[0] for a, b in zip(o1s, o2s)] == factors
        assert edge_factors(ch, o1s, o2s) == factors
        assert edge_factors(ch, o1s, o2s, inters) == factors
    assert orientation_pairings([], []) == [] and edge_factors(ch, [], []) == []


@pytest.mark.parametrize("cell", range(4), ids=["3-1", "5-2", "3-3", "gram-5-2"])
def test_stacked_polygon_invariants_equal_the_single_calls(cell):
    """Tuples of length 2 to 5 with repeated entries: the stacked common
    intersections, predicted rank and disc, and Witt invariants of the
    polygon forms equal the single calls, and the prediction holds."""
    ch, sp = list(stacked_cells())[cell]
    rng = np.random.default_rng(57 + cell)
    pool = [sp.random_lagrangian(rng) for _ in range(4)]
    tuples = []
    for m in (2, 3, 4, 5):
        for _ in range(4):
            tuples.append(tuple(pool[i] for i in rng.integers(0, len(pool), m)))
    tuples += [(pool[0], pool[0]), (pool[1],) * 5, (pool[0], pool[1], pool[0], pool[1])]
    common = lagrangian_intersections(tuples)
    for rows, lags in zip(common, tuples):
        want = lags[0].sub
        for l in lags[1:]:
            want = want.intersect(l.sub)
        assert Subspace.from_rows(sp.field, sp.dim, rows) == want
        assert np.count_nonzero(rows.any(axis=1)) == want.dim
    for orient in (Orientation.default, lambda l: Orientation.random(l, rng)):
        orients = [[orient(l) for l in lags] for lags in tuples]
        singles = [predicted_rank_discs([o])[0] for o in orients]
        assert predicted_rank_discs(orients) == singles
    invs = maslov_invariants(ch, tuples)
    for lags, inv, (rank, disc) in zip(tuples, invs, singles):
        q = maslov_form(*lags)
        want = witt_invariants(ch, q)
        assert (inv.rank, inv.disc, inv.gamma) == (want.rank, want.disc, want.gamma)
        assert inv.gamma == maslov_gamma(ch, *lags)
        assert (q.rank(), q.disc()) == (rank, disc)
    assert predicted_rank_discs([]) == [] and maslov_invariants(ch, []) == []
    with pytest.raises(ArityError):
        predicted_rank_discs([[Orientation.default(pool[0])]])
    with pytest.raises(ArityError):
        maslov_invariants(ch, [(pool[0],)])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([3, 5, 7]), st.integers(1, 3), st.sampled_from([1, 2]),
       st.integers(0, 2**32 - 1))
def test_compact_polygon_stacks_equal_the_single_forms(p, n, scale, seed):
    """Stacks of mixed nullity: random tuples of length 2 to 5 with repeated
    Lagrangians, (l, g l) for the identity g, transverse pairs (nullity 0)
    and the theta triple (graph g, diagonal, l + l) at g = 1 and at a random
    g.  `_maslov_gammas` on each length's stack and `maslov_invariants` on
    all tuples equal `witt_invariants(char, maslov_form(*lags))` bit for bit.
    The stack of transverse pairs alone has 0 x 0 compact grams."""
    field = Fp(p)
    ch, sp = AdditiveCharacter(field, scale), SymplecticSpace(field, n)
    rng = np.random.default_rng(seed)
    pool = [sp.random_lagrangian(rng) for _ in range(3)]
    x, y, _ = standard_three(sp)
    g = sp.random_element(rng)
    transverse = [(x, y), (x.transform(g), y.transform(g))]
    tuples = list(transverse) + [(pool[0], pool[0].transform(sp.identity()))]
    for m in (2, 3, 4, 5):
        for _ in range(3):
            tuples.append(tuple(pool[i] for i in rng.integers(0, len(pool), m)))
    tuples += [(pool[1],) * 3, (pool[0], pool[1], pool[0], pool[1], pool[2])]
    diagonal = sp.identity().graph()
    doubled = [(h.graph(), diagonal, l.doubled()) for h in (sp.identity(), g) for l in pool[:2]]

    def want(lags):
        inv = witt_invariants(ch, maslov_form(*lags))
        return inv.rank, inv.disc, inv.gamma

    for group in [transverse, doubled] + [[t for t in tuples if len(t) == m] for m in (2, 3, 4, 5)]:
        space = group[0][0].space
        bases = np.array([[l.sub.basis.a for l in lags] for lags in group])
        assert _maslov_gammas(ch, space, bases) == [want(lags)[2] for lags in group]
    for group in (tuples, doubled):
        got = [(inv.rank, inv.disc, inv.gamma) for inv in maslov_invariants(ch, group)]
        assert got == [want(lags) for lags in group]
