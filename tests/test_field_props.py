"""Property tests for the F_p elimination kernel behind rref, det, inv, kernel,
RowSolver and Subspace.intersect, on small random matrices; for every stacked
helper, its one-element call (the scalar pivot loop) against its slice of a
whole-stack call (the stacked loop) and against references built on the
scalar loop; and for RowSolver's solution and syndrome maps against the
tableau solver they replaced."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weilchar.field import (
    Fp,
    FpMatrix,
    RowSolver,
    Subspace,
    _eliminate,
    _eliminate_many,
    _inverses_many,
    _kernel_rows,
    _null_rows_many,
    _rank_dets_many,
    _solvers_many,
)

PROPS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def matrices(draw, p=None, rows=None, cols=None):
    """(field, matrix) with p in {3, 5, 7} and shapes up to 5 x 5."""
    p = draw(st.sampled_from([3, 5, 7])) if p is None else p
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    entries = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols))
    field = Fp(p)
    return field, FpMatrix(field, np.array(entries, dtype=np.int64).reshape(rows, cols))


@st.composite
def squares(draw, count, min_n=0):
    """(field, [A_1, ..., A_count]): same-size square matrices over one field."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(min_n, 5))
    return Fp(p), [draw(matrices(p=p, rows=n, cols=n))[1] for _ in range(count)]


@PROPS
@given(matrices(), st.data())
def test_rref_idempotent_and_row_mixing_invariant(fm, data):
    field, a = fm
    red, pivots = a.rref()
    assert red.rref() == (red, pivots)
    _, mix = data.draw(matrices(p=field.p, rows=a.nrows, cols=a.nrows))
    assume(mix.det() != 0)
    assert (mix @ a).rref() == (red, pivots)


@PROPS
@given(matrices())
def test_kernel_is_annihilated_and_rank_nullity(fm):
    field, a = fm
    ker = a.kernel()
    assert not np.any((a.a @ ker.basis.a.T) % field.p)
    assert a.rank() + ker.dim == a.ncols


@PROPS
@given(squares(2))
def test_det_multiplicative_and_zero_iff_singular(fab):
    field, (a, b) = fab
    assert (a @ b).det() == (a.det() * b.det()) % field.p
    assert (a.det() == 0) == (a.rank() < a.nrows)


@PROPS
@given(squares(1, min_n=1))
def test_inverse_is_two_sided(fa):
    field, (a,) = fa
    assume(a.det() != 0)
    eye = FpMatrix.identity(field, a.nrows)
    assert a.inv() @ a == eye
    assert a @ a.inv() == eye


@PROPS
@given(matrices(), st.data())
def test_solve_many_solutions_and_consistency(fm, data):
    field, m = fm
    p = field.p
    rows = data.draw(st.lists(st.integers(0, p - 1), min_size=3 * m.ncols, max_size=3 * m.ncols))
    coef = data.draw(st.lists(st.integers(0, p - 1), min_size=2 * m.nrows, max_size=2 * m.nrows))
    # two right hand sides in the row space of M, three drawn freely
    d = np.vstack([
        np.array(coef, dtype=np.int64).reshape(2, m.nrows) @ m.a,
        np.array(rows, dtype=np.int64).reshape(3, m.ncols),
    ]) % p
    solver = RowSolver(m)
    y, ok = solver.solve_many(d)
    span = Subspace.from_rows(field, m.ncols, m.a)
    assert np.array_equal(ok, span.coordinates_many(d)[1])
    assert ok[:2].all()
    assert np.array_equal((y[ok] @ m.a) % p, d[ok])
    for i, row in enumerate(d):
        one, one_ok = solver.solve_many(row[None])
        assert one_ok[0] == ok[i]
        assert np.array_equal(one[0], y[i])


class TableauSolver:
    """Reference for `RowSolver`: the solver as it was before its solution
    and syndrome maps, keeping the tableau T of rref [M^T | I] and scattering
    T's first rank rows into Y on every solve."""

    def __init__(self, M):
        self.field = M.field
        self.nrows, self.ncols = M.shape
        aug = np.hstack([M.a.T, np.eye(self.ncols, dtype=np.int64)])
        red, pivots, _ = _eliminate(aug, M.field)
        self.pivots = tuple(c for c in pivots if c < self.nrows)
        self.rank = len(self.pivots)
        self.tableau = red[:, self.nrows :]

    def solve_many(self, D):
        p = self.field.p
        D = np.asarray(D, dtype=np.int64) % p
        T = (D @ self.tableau.T) % p
        ok = ~np.any(T[:, self.rank :], axis=1)
        Y = np.zeros((len(D), self.nrows), dtype=np.int64)
        Y[:, list(self.pivots)] = T[:, : self.rank]
        return Y, ok


def null_space_by_loop(a, field):
    """Reference for `_null_rows_many`: (rows, free), a basis of
    {x : a x = 0} as rows and the free columns of rref(a).  Row k has a 1 at
    free[k], zeros at the other free columns and minus column free[k] of
    rref(a) at the pivot columns."""
    red, pivots, _ = _eliminate(a, field)
    ncols = a.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    rows = np.zeros((len(free), ncols), dtype=np.int64)
    rows[np.arange(len(free)), free] = 1
    rows[:, list(pivots)] = (-red[: len(pivots), free].T) % field.p
    return rows, free


def rank_det_by_loop(a, field):
    """Reference for `_rank_dets_many`: (r, det a[I, I]) for I the pivot
    columns of rref(a), from two scalar eliminations; (0, 1) when r = 0."""
    pivots = list(_eliminate(a, field)[1])
    if not pivots:
        return 0, 1
    return len(pivots), _eliminate(a[np.ix_(pivots, pivots)], field)[2]


def all_vectors(p, k):
    """Every vector of F_p^k as a (p^k, k) array, one row for k = 0."""
    return np.array(list(itertools.product(range(p), repeat=k)), dtype=np.int64).reshape(p**k, k)


@PROPS
@given(st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda shape: matrices(p=3, rows=shape[0], cols=shape[1])))
def test_syndrome_vanishes_exactly_on_the_row_space(fm):
    """Over every d of F_3^c, d @ syndrome = 0 exactly when d is some y @ M,
    enumerated; solve_many equals the tableau solver bit for bit."""
    field, m = fm
    p = field.p
    r, c = m.shape
    solver = RowSolver(m)
    assert solver.rank == m.rank()
    assert solver.solution.shape == (c, r)
    assert solver.syndrome.shape == (c, c - solver.rank)
    d = all_vectors(p, c)
    span = {tuple(row) for row in (all_vectors(p, r) @ m.a % p).tolist()}
    inside = np.array([tuple(row) in span for row in d.tolist()], dtype=bool)
    assert np.array_equal(~np.any(d @ solver.syndrome % p, axis=1), inside)
    y, ok = solver.solve_many(d)
    y_ref, ok_ref = TableauSolver(m).solve_many(d)
    assert np.array_equal(ok, inside) and np.array_equal(ok_ref, inside)
    assert np.array_equal(y, y_ref)
    assert np.array_equal(y[ok] @ m.a % p, d[ok])


@PROPS
@given(st.integers(1, 4).flatmap(
    lambda amb: st.tuples(matrices(p=3, cols=amb), matrices(p=3, cols=amb))))
def test_intersect_matches_brute_force(pair):
    (field, a), (_, b) = pair
    u = Subspace.from_rows(field, a.ncols, a.a)
    w = Subspace.from_rows(field, b.ncols, b.a)
    both = u.intersect(w)
    brute = {tuple(v) for v in u.vectors().tolist()} & {tuple(v) for v in w.vectors().tolist()}
    assert {tuple(v) for v in both.vectors().tolist()} == brute
    assert both == w.intersect(u)


def coset_rep_by_loop(sub, v):
    """Reference: clear each pivot coordinate of v with its basis row, in order."""
    p = sub.field.p
    v = np.asarray(v, dtype=np.int64) % p
    for row, c in zip(sub.basis.a, sub.pivots):
        v = (v - int(v[c]) * row) % p
    return v


@st.composite
def subspace_rows(draw):
    """(subspace, rows): ambient 0..6, dim 0..ambient, and rows that are
    members (combinations of the basis) or drawn freely."""
    p = draw(st.sampled_from([3, 5, 7]))
    amb = draw(st.integers(0, 6))
    dim = draw(st.integers(0, amb))
    field = Fp(p)
    _, gen = draw(matrices(p=p, rows=dim, cols=amb))
    sub = Subspace.from_rows(field, amb, gen.a)
    _, coef = draw(matrices(p=p, rows=3, cols=sub.dim))
    _, free = draw(matrices(p=p, rows=3, cols=amb))
    return sub, np.vstack([coef.a @ sub.basis.a % p, free.a])


@PROPS
@given(subspace_rows())
def test_coordinates_many_equals_the_solver(sr):
    """Coordinates read off the rref basis agree with a RowSolver on it, in the
    inside flags and in the coordinates of inside rows; coset_rep agrees with
    the per-pivot loop."""
    sub, rows = sr
    coords, inside = sub.coordinates_many(rows)
    y, ok = RowSolver(sub.basis).solve_many(rows)
    assert coords.shape == (len(rows), sub.dim)
    assert np.array_equal(inside, ok)
    assert inside[:3].all()
    assert np.array_equal(coords[inside], y[ok])
    for i, row in enumerate(rows):
        one, one_inside = sub.coordinates_many(row[None])
        assert one_inside[0] == ok[i]
        if ok[i]:
            assert np.array_equal(one[0], y[i])
        assert np.array_equal(sub.coset_rep(row), coset_rep_by_loop(sub, row))
        line = Subspace.from_rows(sub.field, sub.ambient, row)
        assert (line <= sub) == ok[i]
    assert np.array_equal(sub.coset_rep(rows), [coset_rep_by_loop(sub, row) for row in rows])


@st.composite
def stacks(draw):
    """(field, (B, r, c) stack) with p in {3, 5, 7, 97}, B in {0, 1, 6} and
    wide, tall and square shapes up to 5 x 5.  Matrix i is L_i @ R_i with
    inner dimension k_i <= 5, so k_i = 0 gives an all-zero matrix and
    k_i < min(r, c) a rank-deficient one."""
    p = draw(st.sampled_from([3, 5, 7, 97]))
    nb = draw(st.sampled_from([0, 1, 6]))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    out = np.zeros((nb, rows, cols), dtype=np.int64)
    for i in range(nb):
        k = draw(st.integers(0, 5))
        ent = draw(st.lists(st.integers(0, p - 1), min_size=k * (rows + cols),
                            max_size=k * (rows + cols)))
        lr = np.array(ent, dtype=np.int64)
        out[i] = lr[: rows * k].reshape(rows, k) @ lr[rows * k :].reshape(k, cols) % p
    return Fp(p), out


def stacked_outputs(stack, field):
    """Every stacked helper's output on one stack, each as a list of
    per-matrix arrays, so a one-element call compares with a slice."""
    nb, rows, cols = stack.shape
    out = {}
    red, pivots, ranks, dets = _eliminate_many(stack, field)
    assert red.shape == stack.shape and pivots.shape == (nb, cols)
    assert ranks.shape == dets.shape == (nb,)
    out["eliminate"] = list(zip(red, pivots, ranks, dets))
    null = _null_rows_many(stack, field)
    assert null.shape == (nb, cols, cols)
    out["null"] = list(null)
    out["kernel"] = list(zip(*_kernel_rows(stack, field)))
    out["solvers"] = list(zip(*_solvers_many(stack, field)))
    if rows == cols:
        out["rank_dets"] = list(zip(*_rank_dets_many(stack, field)))
        ok, inverses = _inverses_many(stack, field)
        assert len(inverses) == ok.sum()
        at = np.cumsum(ok) - 1
        out["inverses"] = [(o, inverses[i] if o else None) for o, i in zip(ok, at)]
    return out


def assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(g, np.ndarray) or isinstance(w, np.ndarray):
            assert np.array_equal(g, w)
        elif isinstance(g, tuple):
            assert_same(g, w)
        else:
            assert g == w


@PROPS
@given(stacks())
def test_eliminate_many_equals_the_single_loop(fs):
    """For each matrix of a stack, the one-element call of every stacked
    helper (the scalar pivot loop) equals its slice of the whole-stack call
    (the stacked loop at B = 6), and both equal the references built on the
    scalar loop."""
    field, stack = fs
    p = field.p
    nb, rows, cols = stack.shape
    whole = stacked_outputs(stack, field)
    for i, a in enumerate(stack):
        single = stacked_outputs(a[None], field)
        for name, values in single.items():
            assert_same(values[0], whole[name][i])

        one_red, one_piv, one_det = _eliminate(a, field)
        red, pivots, rank, det = whole["eliminate"][i]
        assert np.array_equal(red, one_red)
        assert tuple(np.flatnonzero(pivots)) == one_piv
        assert (rank, det) == (len(one_piv), one_det)

        null_rows, free = null_space_by_loop(a, field)
        assert np.array_equal(whole["null"][i][free], null_rows)
        assert not whole["null"][i][list(one_piv)].any()

        kernel, kfree = whole["kernel"][i]
        ref = Subspace.from_rows(field, cols, null_rows)
        assert np.array_equal(kernel[kfree], ref.basis.a)
        assert tuple(np.flatnonzero(kfree)) == ref.pivots
        assert not kernel[~kfree].any()

        solution, syndrome, srank = whole["solvers"][i]
        tab = TableauSolver(FpMatrix(field, a))
        want = np.zeros((cols, rows), dtype=np.int64)
        want[:, list(tab.pivots)] = tab.tableau[: tab.rank].T
        assert srank == tab.rank
        assert np.array_equal(solution, want)
        assert np.array_equal(syndrome[:, : cols - srank], tab.tableau[tab.rank :].T)
        assert not syndrome[:, cols - srank :].any()

        if rows == cols:
            assert tuple(whole["rank_dets"][i]) == rank_det_by_loop(a, field)
            ok, a_inv = whole["inverses"][i]
            assert ok == (one_det != 0)
            if ok:
                eye = np.eye(rows, dtype=np.int64)
                assert np.array_equal(a @ a_inv % p, eye)
                assert np.array_equal(a_inv @ a % p, eye)


@st.composite
def kernel_inputs(draw):
    """(field, matrix) with p in {3, 5, 7, 97}, 0-7 rows and 1-10 columns:
    random, zero, full rank, or a product of lower rank."""
    p = draw(st.sampled_from([3, 5, 7, 97]))
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["random", "zero", "full", "low"]))
    ints = lambda count: np.array(
        draw(st.lists(st.integers(0, p - 1), min_size=count, max_size=count)), dtype=np.int64)
    if kind == "zero":
        a = np.zeros((rows, cols), dtype=np.int64)
    elif kind == "full":
        # an rref-like block of rank min(rows, cols), its rows and columns permuted
        k = min(rows, cols)
        a = np.zeros((rows, cols), dtype=np.int64)
        a[:k, :k] = np.eye(k, dtype=np.int64)
        a[:k, k:] = ints(k * (cols - k)).reshape(k, cols - k)
        a = a[draw(st.permutations(range(rows)))][:, draw(st.permutations(range(cols)))]
    elif kind == "low":
        k = draw(st.integers(0, min(rows, cols)))
        a = ints(rows * k).reshape(rows, k) @ ints(k * cols).reshape(k, cols)
    else:
        a = ints(rows * cols).reshape(rows, cols)
    return Fp(p), a % p


@PROPS
@given(kernel_inputs())
def test_kernel_from_one_elimination_equals_the_rref_of_the_null_rows(fa):
    field, a = fa
    ker = FpMatrix(field, a).kernel()
    ref = Subspace.from_rows(field, a.shape[1], null_space_by_loop(a, field)[0])
    assert ker.pivots == ref.pivots
    assert ker.basis == ref.basis
    assert ker.ambient == ref.ambient == a.shape[1]


@pytest.mark.parametrize("p", [3, 5, 97])
@pytest.mark.parametrize("ambient", [0, 1, 2, 5])
def test_full_and_zero_subspaces_equal_their_rref_forms(p, ambient):
    field = Fp(p)
    full = Subspace.full(field, ambient)
    zero = Subspace.zero(field, ambient)
    ref_full = Subspace.from_rows(field, ambient, np.eye(ambient, dtype=np.int64))
    ref_zero = Subspace.from_rows(field, ambient, np.zeros((0, ambient), dtype=np.int64))
    for got, ref in ((full, ref_full), (zero, ref_zero)):
        assert got == ref
        assert got.pivots == ref.pivots
        assert got.basis.shape == ref.basis.shape


@pytest.mark.parametrize("p", [3, 5, 7, 97])
def test_eliminate_many_reduces_columns_past_the_last_pivot(p):
    """Wide stacks of full row rank finish their pivots before the last
    column; the columns after it must come out reduced like the single loop's,
    in the stacked loop and in the one-element call.  At p = 3 this includes
    the shapes the dense trace cells eliminate one matrix at a time."""
    field = Fp(p)
    rng = np.random.default_rng(p)
    shapes = [(1, 4), (2, 5), (3, 7), (4, 9), (6, 6), (5, 3)]
    if p == 3:
        shapes += [(5, 15), (5, 5), (10, 20)]
    for rows, cols in shapes:
        stack = rng.integers(0, p, (8, rows, cols))
        red, pivots, ranks, dets = _eliminate_many(stack, field)
        for i, a in enumerate(stack):
            one_red, one_piv, one_det = _eliminate(a, field)
            assert np.array_equal(red[i], one_red)
            assert tuple(np.flatnonzero(pivots[i])) == one_piv
            assert (ranks[i], dets[i]) == (len(one_piv), one_det)
            single = _eliminate_many(a[None], field)
            assert np.array_equal(single[0][0], one_red)
            assert np.array_equal(single[1][0], pivots[i])
            assert (single[2][0], single[3][0]) == (ranks[i], dets[i])
