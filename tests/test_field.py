"""Exact linear algebra over F_p: matrices, row solving, subspaces."""

import numpy as np
import pytest

from weilchar.errors import DimensionMismatch
from weilchar.field import Fp, FpMatrix, RowSolver, SquareClass, Subspace, _kernel_rows, _subspaces

PRIMES = [3, 5, 7, 11, 13]


def test_fp_rejects_bad_moduli():
    for bad in (2, 4, 9, 15, 1, 0, -5, 99, 101):
        with pytest.raises(ValueError):
            Fp(bad)
    for good in (3, 5, 7, 97):
        assert Fp(good).p == good


def test_fp_half_is_inverse_of_two():
    for p in PRIMES:
        f = Fp(p)
        assert (2 * f.half) % p == 1


@pytest.mark.parametrize("p", PRIMES)
def test_inverse_table(p):
    f = Fp(p)
    for a in range(1, p):
        assert (a * f.inv(a)) % p == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.inv(p)


def test_legendre_matches_square_table():
    f = Fp(7)
    squares = {(x * x) % 7 for x in range(1, 7)}
    for a in range(1, 7):
        assert f.legendre(a) == (1 if a in squares else -1)
    assert f.legendre(0) == 0
    assert f.legendre(f.nonsquare) == -1


def test_square_class_arithmetic():
    f = Fp(7)
    sq = SquareClass.of(f, 2)        # 2 = 3^2 mod 7
    ns = SquareClass.of(f, 3)
    assert sq.is_square and sq.rep == 1
    assert not ns.is_square and ns.rep == f.nonsquare
    assert (ns * ns).is_square
    assert (sq * ns) == ns
    assert SquareClass.unit(f).is_square
    assert ns.times(3).is_square  # 3 * 3 = 9 = 2, a square mod 7
    assert ns.times(5) == SquareClass.of(f, 15)
    with pytest.raises(ValueError):
        SquareClass.of(f, 0)


def test_matrix_mod_reduction_and_immutability():
    f = Fp(5)
    m = FpMatrix(f, [[7, -1], [10, 3]])
    assert m.a.tolist() == [[2, 4], [0, 3]]
    with pytest.raises(ValueError):
        m.a[0, 0] = 1


def test_det_multiplicative_seeded():
    rng = np.random.default_rng(20240814)
    for p in (3, 7, 13):
        f = Fp(p)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            a = FpMatrix(f, rng.integers(0, p, (n, n)))
            b = FpMatrix(f, rng.integers(0, p, (n, n)))
            assert (a @ b).det() == (a.det() * b.det()) % p


def test_det_2x2_closed_form():
    f = Fp(11)
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b, c, d = (int(x) for x in rng.integers(0, 11, 4))
        m = FpMatrix(f, [[a, b], [c, d]])
        assert m.det() == (a * d - b * c) % 11


def test_inverse_and_singular():
    rng = np.random.default_rng(99)
    f = Fp(7)
    eye = FpMatrix.identity(f, 3)
    found = 0
    while found < 25:
        m = FpMatrix(f, rng.integers(0, 7, (3, 3)))
        if m.det() == 0:
            with pytest.raises(ZeroDivisionError):
                m.inv()
            continue
        found += 1
        assert (m @ m.inv()) == eye
        assert (m.inv() @ m) == eye


def test_rank_nullity_and_kernel_membership():
    rng = np.random.default_rng(5)
    for p in (3, 5, 11):
        f = Fp(p)
        for _ in range(30):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 6))
            m = FpMatrix(f, rng.integers(0, p, (rows, cols)))
            ker = m.kernel()
            assert m.rank() + ker.dim == cols
            if ker.dim:
                prod = (m.a @ ker.basis.a.T) % p
                assert not np.any(prod)


def test_rref_is_canonical_under_row_mixing():
    rng = np.random.default_rng(17)
    f = Fp(5)
    for _ in range(25):
        m = rng.integers(0, 5, (3, 5))
        s1 = Subspace.from_rows(f, 5, m)
        # mix rows by a random invertible matrix; the subspace is unchanged
        while True:
            t = FpMatrix(f, rng.integers(0, 5, (3, 3)))
            if t.det() != 0:
                break
        s2 = Subspace.from_rows(f, 5, (t.a @ m) % 5)
        assert s1 == s2
        assert hash(s1) == hash(s2)


def test_row_solver_consistent_and_inconsistent():
    rng = np.random.default_rng(8)
    p = 7
    f = Fp(p)
    for _ in range(40):
        m = FpMatrix(f, rng.integers(0, p, (3, 5)))
        solver = RowSolver(m)
        y = rng.integers(0, p, 3)
        d = (y @ m.a) % p
        t, ok = solver.solve_many(d[None])
        assert ok[0]
        assert not np.any((t[0] @ m.a - d) % p)
        # a target off the row space must be rejected
        if m.rank() < 5:
            off = m.kernel().basis.a[0]
            _, ok = solver.solve_many(((d + off) % p)[None])
            assert not ok[0]


def test_row_solver_solve_many_matches_scalar_path():
    """A stack of right hand sides solves as each row does on its own."""
    rng = np.random.default_rng(21)
    p = 5
    f = Fp(p)
    m = FpMatrix(f, rng.integers(0, p, (4, 6)))
    solver = RowSolver(m)
    targets = rng.integers(0, p, (20, 6))
    ys, ok = solver.solve_many(targets)
    for i, d in enumerate(targets):
        single, one_ok = solver.solve_many(d[None])
        assert ok[i] == one_ok[0]
        assert np.array_equal(ys[i], single[0])
        if ok[i]:
            assert not np.any((ys[i] @ m.a - d) % p)


def test_coset_reps_are_canonical():
    rng = np.random.default_rng(31)
    p = 5
    f = Fp(p)
    for _ in range(30):
        sub = Subspace.from_rows(f, 4, rng.integers(0, p, (2, 4)))
        v = rng.integers(0, p, 4)
        rep = sub.coset_rep(v)
        assert sub.coordinates_many([(v - rep) % p])[1][0]
        for c in sub.pivots:
            assert rep[c] == 0
        shifted = (rep + sub.basis.a.sum(axis=0)) % p if sub.dim else rep
        assert np.array_equal(rep, sub.coset_rep(shifted))


def test_sum_intersection_dimension_formula():
    rng = np.random.default_rng(44)
    p = 3
    f = Fp(p)
    for _ in range(60):
        a = Subspace.from_rows(f, 5, rng.integers(0, p, (rng.integers(0, 4), 5)))
        b = Subspace.from_rows(f, 5, rng.integers(0, p, (rng.integers(0, 4), 5)))
        s = a + b
        i = a.intersect(b)
        assert a.dim + b.dim == s.dim + i.dim
        assert i <= a and i <= b
        assert a <= s and b <= s


def test_basis_kernel_duality():
    rng = np.random.default_rng(50)
    p = 7
    f = Fp(p)
    for _ in range(30):
        sub = Subspace.from_rows(f, 4, rng.integers(0, p, (2, 4)))
        perp = sub.basis.kernel()
        assert perp.dim == 4 - sub.dim
        assert perp.basis.kernel() == sub
        if sub.dim and perp.dim:
            assert not np.any((sub.basis.a @ perp.basis.a.T) % p)


def test_complement_std_direct_sum():
    rng = np.random.default_rng(60)
    p = 5
    f = Fp(p)
    for _ in range(30):
        sub = Subspace.from_rows(f, 5, rng.integers(0, p, (2, 5)))
        comp = sub.complement_std()
        assert sub.dim + comp.dim == 5
        assert (sub + comp).dim == 5
        assert sub.intersect(comp).dim == 0


def test_vectors_enumeration():
    f = Fp(3)
    sub = Subspace.from_rows(f, 4, [[1, 0, 2, 1], [0, 1, 1, 1]])
    vs = sub.vectors()
    assert len(vs) == 9
    seen = {tuple(v) for v in vs}
    assert len(seen) == 9
    assert sub.coordinates_many(vs)[1].all()


def test_matrix_shape_mismatch_raises():
    f = Fp(5)
    a = FpMatrix(f, [[1, 2], [3, 4]])
    b = FpMatrix(f, [[1, 2, 3]])
    with pytest.raises(DimensionMismatch):
        _ = a @ b


def assert_same_subspace(got, want):
    assert (got.field, got.ambient) == (want.field, want.ambient)
    assert got.basis.shape == want.basis.shape
    assert got.basis.a.tobytes() == want.basis.a.tobytes()
    assert got.pivots == want.pivots
    assert got == want and hash(got) == hash(want)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_built_subspaces_equal_their_eliminated_twins(p):
    """Each subspace `_subspaces` builds from a kernel stack, and each
    standard complement of one, equals the subspace `Subspace.from_rows`
    eliminates from its rows, and the kernel is the one-matrix kernel."""
    f = Fp(p)
    rng = np.random.default_rng(p)
    for r, c in ((1, 4), (3, 5), (4, 4), (5, 3)):
        stack = rng.integers(0, p, (6, r, c))
        stack[0] = 0  # kernel: the whole space
        stack[1, 1:] = stack[1, :1]  # rank at most 1
        for sub, a in zip(_subspaces(f, *_kernel_rows(stack, f)), stack):
            assert_same_subspace(sub, Subspace.from_rows(f, c, sub.basis.a))
            assert_same_subspace(sub, FpMatrix(f, a).kernel())
            comp = sub.complement_std()
            assert_same_subspace(comp, Subspace.from_rows(f, c, comp.basis.a))
            assert comp.dim + sub.dim == c


def test_subspace_builder_rejects_mismatched_shapes():
    f = Fp(5)
    rows = np.eye(3, 4, dtype=np.int64)[None]
    assert_same_subspace(_subspaces(f, rows, pivots=np.array([[0, 1, 2]]))[0],
                         Subspace.from_rows(f, 4, rows[0]))
    for keep, pivots in ((None, np.array([[0, 1]])), (None, np.array([0, 1, 2])),
                         (np.ones((1, 2), dtype=bool), None), (np.ones((2, 3), dtype=bool), None)):
        with pytest.raises(DimensionMismatch):
            _subspaces(f, rows, keep, pivots)
