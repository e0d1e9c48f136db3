"""Operator matrices of the lattice model and their kernels."""

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

import weilchar.schrodinger
from weilchar.characters import AdditiveCharacter, approx_eq
from weilchar.charformula import diagonal_form, diagonal_forms
from weilchar.errors import DimensionMismatch, EnumerationTooLarge
from weilchar.field import Fp, FpMatrix, RowSolver
from weilchar.metaplectic import mp_identity, split_lift
from weilchar.schrodinger import (
    MAX_REP_DIM,
    _PairKernel,
    _kernel_diagonal,
    _pair_kernel,
    _sections,
    check_diagonal_kernel,
    intertwiner,
    trace_oracle,
    weil_operator,
)
from weilchar.symplectic import SymplecticSpace
from weilchar.verify import run_verification


def setup(p, n):
    f = Fp(p)
    return AdditiveCharacter(f), SymplecticSpace(f, n)


def test_section_basis_roundtrip():
    ch, sp = setup(5, 2)
    rng = np.random.default_rng(10)
    for _ in range(10):
        l = sp.random_lagrangian(rng)
        reps = _sections(l)
        assert len({tuple(x) for x in reps.tolist()}) == 25
        # each row is the canonical representative of its own coset
        assert np.array_equal(l.sub.coset_rep(reps), reps)
        for row in l.sub.basis.a:
            # adding a Lagrangian vector does not change the coset
            assert np.array_equal(l.sub.coset_rep((reps + row) % 5), reps)


def test_fourier_kernel_between_standard_transversals():
    p = 5
    ch, sp = setup(p, 1)
    l1 = sp.standard_lagrangian()
    l2 = sp.lagrangian([[0, 1]])
    m = intertwiner(ch, l1, l2)
    ref = np.array([[ch.psi(-x * y) for x in range(p)] for y in range(p)]) / math.sqrt(p)
    assert np.max(np.abs(m - ref)) < 1e-12


def test_kernel_vanishes_off_the_span():
    ch, sp = setup(5, 1)
    l = sp.standard_lagrangian()
    # v - w = e2 is not in l + l
    pk = _pair_kernel(ch, l, l)
    values = pk.values(np.array([[0, 1], [3, 0]]), np.zeros((2, 2), dtype=np.int64))
    assert values[0] == 0
    assert abs(values[1]) == 1


def test_kernel_requires_matching_space():
    ch, sp = setup(5, 1)
    ch3, sp2 = setup(5, 2)
    with pytest.raises(DimensionMismatch):
        _pair_kernel(ch, sp.standard_lagrangian(), sp2.standard_lagrangian())
    # a Lagrangian of another space is refused before any matrix product
    g = sp.element([[2, 0], [0, 3]])
    with pytest.raises(DimensionMismatch):
        weil_operator(mp_identity(ch, sp), sp2.standard_lagrangian())
    with pytest.raises(DimensionMismatch):
        weil_operator(split_lift(ch, g), sp2.standard_lagrangian())
    with pytest.raises(DimensionMismatch):
        diagonal_form(g, sp2.standard_lagrangian())


def test_intertwiner_on_equal_lagrangians_is_identity():
    ch, sp = setup(7, 1)
    rng = np.random.default_rng(4)
    for _ in range(5):
        l = sp.random_lagrangian(rng)
        m = intertwiner(ch, l, l)
        assert np.max(np.abs(m - np.eye(7))) < 1e-12


def test_intertwiner_two_cycle_is_identity():
    for p, n in ((5, 1), (7, 1), (3, 2)):
        ch, sp = setup(p, n)
        rng = np.random.default_rng(p + n)
        for _ in range(8):
            l1 = sp.random_lagrangian(rng)
            l2 = sp.random_lagrangian(rng)
            prod = intertwiner(ch, l2, l1) @ intertwiner(ch, l1, l2)
            assert np.max(np.abs(prod - np.eye(p**n))) < 1e-10


def test_weil_operator_identity_element():
    ch, sp = setup(5, 1)
    op = weil_operator(mp_identity(ch, sp))
    assert np.max(np.abs(op - np.eye(5))) < 1e-12
    assert approx_eq(trace_oracle(mp_identity(ch, sp)), 5, 1e-9, scale=5)


def test_weil_operator_is_unitary():
    for p, n in ((5, 1), (7, 1), (3, 2)):
        ch, sp = setup(p, n)
        rng = np.random.default_rng(17 * p + n)
        eye = np.eye(p**n)
        for _ in range(10):
            op = weil_operator(split_lift(ch, sp.random_element(rng)))
            assert np.max(np.abs(op @ op.conj().T - eye)) < 1e-10


def test_weil_operator_conjugates_across_models():
    """The operator built over one Lagrangian maps to the operator over any
    other by the change-of-model maps, with no leftover scalar."""
    ch, sp = setup(5, 1)
    rng = np.random.default_rng(12)
    for _ in range(10):
        e = split_lift(ch, sp.random_element(rng))
        l2 = sp.random_lagrangian(rng)
        lhs = weil_operator(e, l2)
        rhs = intertwiner(ch, e.base, l2) @ weil_operator(e) @ intertwiner(ch, l2, e.base)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_operator_homomorphism_seeded():
    for p, n in ((5, 1), (3, 2)):
        ch, sp = setup(p, n)
        rng = np.random.default_rng(3 * p + n)
        for _ in range(15):
            e1 = split_lift(ch, sp.random_element(rng))
            e2 = split_lift(ch, sp.random_element(rng))
            resid = weil_operator(e1) @ weil_operator(e2) - weil_operator(e1 * e2)
            assert np.max(np.abs(resid)) < 1e-8 * p**n


def test_trace_oracle_frozen_values():
    ch, sp = setup(5, 1)
    assert approx_eq(trace_oracle(split_lift(ch, sp.element([[2, 0], [0, 3]]))), -1, 1e-9)
    assert approx_eq(trace_oracle(split_lift(ch, sp.element([[1, 1], [0, 1]]))),
                     -math.sqrt(5), 1e-9)


def test_trace_oracle_independent_of_model():
    ch, sp = setup(5, 1)
    rng = np.random.default_rng(31)
    for _ in range(8):
        e = split_lift(ch, sp.random_element(rng))
        vals = [trace_oracle(e, l) for l in sp.all_lagrangians()]
        assert max(abs(v - vals[0]) for v in vals) < 1e-9


def test_minus_lift_negates_the_operator():
    ch, sp = setup(7, 1)
    rng = np.random.default_rng(2)
    g = sp.random_element(rng)
    plus = weil_operator(split_lift(ch, g))
    minus = weil_operator(split_lift(ch, g, sign=-1))
    assert np.max(np.abs(plus + minus)) < 1e-12


def test_diagonal_kernel_check_seeded():
    for p, n in ((5, 1), (7, 1), (3, 2)):
        ch, sp = setup(p, n)
        rng = np.random.default_rng(41 * p + n)
        pairs = [(sp.random_element(rng), sp.random_lagrangian(rng)) for _ in range(12)]
        for df in diagonal_forms([g for g, _ in pairs], [l for _, l in pairs]):
            r = check_diagonal_kernel(ch, df)
            assert r.ok, r.witness


def test_diagonal_kernel_check_fails_on_a_corrupted_form():
    ch, sp = setup(5, 1)
    g = sp.element([[2, 0], [0, 3]])
    l = sp.lagrangian([[1, 1]])
    df = diagonal_form(g, l)
    assert check_diagonal_kernel(ch, df).ok
    # a nonsquare scale of the rank-1 support form moves every nonzero phase
    r = check_diagonal_kernel(ch, replace(df, gram=FpMatrix(sp.field, 2 * df.gram.a)))
    assert not r.ok and r.witness
    # a character of another field is refused before any kernel is read
    with pytest.raises(DimensionMismatch):
        check_diagonal_kernel(AdditiveCharacter(Fp(7)), df)


@pytest.mark.parametrize("p,n", [(97, 1), (17, 2), (7, 3), (3, 5)])
def test_trace_oracle_equals_dense_trace(p, n):
    """The diagonal sum is the trace of the dense operator, for both lifts and
    for the base and a non-base model."""
    ch, sp = setup(p, n)
    rng = np.random.default_rng(p**n)
    g = sp.random_element(rng)
    l = sp.random_lagrangian(rng)
    assert l != sp.standard_lagrangian()
    for sign in (1, -1):
        e = split_lift(ch, g, sign=sign)
        for model in (None, l):
            dense = np.trace(weil_operator(e, model))
            assert abs(trace_oracle(e, model) - dense) < 1e-12 * p**n


def test_dense_matrices_refuse_past_the_cap(monkeypatch):
    """(3, 6) has p^n = 729 > MAX_REP_DIM: both dense builders refuse before
    any kernel is built; (7, 3) at the cap still builds."""
    def no_kernel(*args):
        raise AssertionError("kernel built past the cap")

    ch, sp = setup(3, 6)
    assert 3**6 > MAX_REP_DIM
    l1, l2 = sp.standard_lagrangian(), sp.random_lagrangian(np.random.default_rng(6))
    with monkeypatch.context() as m:
        m.setattr(weilchar.schrodinger, "_pair_kernel", no_kernel)
        with pytest.raises(EnumerationTooLarge):
            intertwiner(ch, l1, l2)
        with pytest.raises(EnumerationTooLarge):
            weil_operator(mp_identity(ch, sp))
    ch, sp = setup(7, 3)
    assert 7**3 == MAX_REP_DIM
    assert intertwiner(ch, sp.standard_lagrangian(), sp.standard_lagrangian()).shape == (343, 343)
    assert weil_operator(mp_identity(ch, sp)).shape == (343, 343)


def test_diagonal_kernel_check_catches_a_dropped_norm(monkeypatch):
    """Without the norm every support row is off by sqrt(p): the witness lists
    exactly those rows, with the wanted values of a per-row reference loop."""
    def unnormalized(char, g, l):
        return _kernel_diagonal(char, g, l) / _pair_kernel(char, l.transform(g), l).norm

    ch, sp = setup(5, 2)
    rng = np.random.default_rng(8)
    g = sp.random_element(rng)
    l = sp.random_lagrangian(rng)
    df = diagonal_form(g, l)
    assert check_diagonal_kernel(ch, df).ok
    monkeypatch.setattr(weilchar.schrodinger, "_kernel_diagonal", unnormalized)
    r = check_diagonal_kernel(ch, df)
    assert not r.ok

    inter = l.transform(g).sub.intersect(l.sub).dim
    norm = 5 ** (-(l.dim - inter) / 2)
    assert norm < 1
    want = {}
    reps = _sections(l)
    for x, c, inside in zip(reps, *df.support.coordinates_many(reps)):
        if inside:
            q = int(c @ df.gram.a @ c) % 5
            want[tuple(x.tolist())] = ch.psi((ch.field.half * q) % 5) * norm
    assert want
    assert {tuple(w["x"]) for w in r.witness} == set(want)
    for w in r.witness:
        assert set(w) == {"x", "got", "want"}
        assert abs(w["want"] - want[tuple(w["x"])]) < 1e-12
        assert abs(w["got"] - w["want"] / norm) < 1e-12


def _solved_kernel(ch, l1, l2, V, W):
    """Reference for the split phase: solve v - w = a1 + a2 with a_i in l_i
    for each row pair and read psi(half (form(a1, v) + form(a2, w))) * norm,
    zero where v - w is outside l1 + l2."""
    p = ch.p
    b1, b2 = l1.sub.basis.a, l2.sub.basis.a
    solver = RowSolver(FpMatrix(ch.field, np.vstack([b1, b2])))
    Y, ok = solver.solve_many(V - W)
    j = l1.space.gram.a
    A1 = Y[:, : len(b1)] @ b1 % p
    A2 = Y[:, len(b1) :] @ b2 % p
    q = (np.einsum("ij,ij->i", A1 @ j % p, V) + np.einsum("ij,ij->i", A2 @ j % p, W)) % p
    norm = float(p) ** (-(solver.rank - l2.dim) / 2)
    return np.where(ok, ch.psi_array((ch.field.half * q) % p) * norm, 0.0)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _check_against_solved(ch, l1, l2, V, W):
    """`values` on every (V[j], W[i]) pair and `grid` on (V, W) both equal
    the solved reference bit for bit; returns the reference grid."""
    d = V.shape[1]
    VV = np.repeat(V[None, :, :], len(W), axis=0).reshape(-1, d)
    WW = np.repeat(W[:, None, :], len(V), axis=1).reshape(-1, d)
    ref = _solved_kernel(ch, l1, l2, VV, WW)
    pk = _pair_kernel(ch, l1, l2)
    assert _same_bits(pk.values(VV, WW), ref)
    ref = ref.reshape(len(W), len(V))
    assert _same_bits(pk.grid(V, W), ref)
    return ref


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (97, 1), (3, 2), (5, 2), (17, 2),
                                 (7, 3), (3, 5)])
def test_grid_equals_pairwise_kernel(p, n):
    """`values` and `grid` give the kernel of the per-pair solve bit for bit:
    equal, transverse and partly meeting Lagrangians, the (g l, l) operator
    twist for g = 1 and a random g, and a character with scale 2."""
    f = Fp(p)
    sp = SymplecticSpace(f, n)
    rng = np.random.default_rng(1000 * p + n)
    h = sp.random_element(rng)
    g = sp.random_element(rng)
    eye = np.eye(n, dtype=np.int64)
    zero = np.zeros((n, n), dtype=np.int64)
    l = sp.standard_lagrangian().transform(h)
    transverse = sp.lagrangian(np.hstack([zero, eye])).transform(h)
    pairs = [(l, l, n), (l, transverse, 0)]
    if n > 1:
        # e_1, f_2, ..., f_n meets e_1, ..., e_n in the line of e_1
        rows = np.hstack([np.diag([1] + [0] * (n - 1)), np.diag([0] + [1] * (n - 1))])
        pairs.append((l, sp.lagrangian(rows).transform(h), 1))
    for scale in (1, 2):
        ch = AdditiveCharacter(f, scale)
        for l1, l2, inter in pairs:
            assert l1.sub.intersect(l2.sub).dim == inter
            assert _pair_kernel(ch, l1, l2).norm == float(p) ** (-(n - inter) / 2)
            ref = _check_against_solved(ch, l1, l2, _sections(l1), _sections(l2))
            assert np.array_equal(intertwiner(ch, l1, l2), ref)
        for elem in (sp.identity(), g):
            e = split_lift(ch, elem)
            reps = _sections(l)
            moved = (reps @ elem.mat.a.T) % p
            ref = _check_against_solved(ch, l.transform(elem), l, moved, reps)
            assert np.max(np.abs(weil_operator(e, l) - e.value_at(l) * ref)) < 1e-12


@pytest.mark.parametrize("p,n", [(3, 1), (7, 1), (3, 2), (5, 2), (7, 3), (3, 5)])
def test_kernel_diagonal_equals_the_psi_array_reference(p, n):
    """The kernel diagonal and psi(half q(x, x)) * p^(-dim(l / gl^l)/2) from
    the support form are one root of unity times one norm, so they are equal
    as floats, with no tolerance, on random (g, l) and both scales."""
    f = Fp(p)
    sp = SymplecticSpace(f, n)
    rng = np.random.default_rng(77 * p + n)
    pairs = [(sp.random_element(rng), sp.random_lagrangian(rng)) for _ in range(8)]
    dfs = diagonal_forms([g for g, _ in pairs], [l for _, l in pairs])
    for scale, half in ((1, dfs[:4]), (2, dfs[4:])):
        ch = AdditiveCharacter(f, scale)
        for df in half:
            reps = _sections(df.l)
            coords, inside = df.support.coordinates_many(reps)
            q = np.einsum("ij,jk,ik->i", coords, df.gram.a, coords) % p
            norm = float(p) ** (-(n - df.inter.dim) / 2)
            want = np.where(inside, ch.psi_array((f.half * q) % p) * norm, 0.0)
            assert np.array_equal(_kernel_diagonal(ch, df.g, df.l), want)
            assert check_diagonal_kernel(ch, df).ok


def test_grid_refuses_phases_past_float32(monkeypatch):
    """The phase matmul runs in float32, exact below 2^24: a bound below the
    largest phase of a cell refuses that cell's grid before any matmul."""
    ch, sp = setup(7, 3)
    l = sp.standard_lagrangian()
    reps = _sections(l)
    pk = _pair_kernel(ch, l, l)
    top = 6 * 6**2 + 2 * 6
    monkeypatch.setattr(weilchar.schrodinger, "_EXACT_FLOAT32", top + 1)
    assert pk.grid(reps, reps).shape == (343, 343)
    monkeypatch.setattr(weilchar.schrodinger, "_EXACT_FLOAT32", top)
    with pytest.raises(EnumerationTooLarge):
        pk.grid(reps, reps)


def test_conjugated_phase_table_fails_the_dense_checks(monkeypatch):
    """Conjugating the phase table that `grid` and `values` share turns every
    kernel into the kernel of psi^-1.  `check_diagonal_kernel` builds its
    reference from `psi_array`, not from that table, so the structural suite
    fails at every p.  The loop scalars and product cocycles of psi^-1 are the
    conjugates of those of psi, which differ where p = 3 mod 4 (gamma(1) is
    +-i), so there the loops and homomorphism suites fail too; for p = 1 mod 4
    psi^-1 gives the same scalars and those two suites cannot see the fault.
    The gamma and theta suites read no kernel and stay ok."""
    @lru_cache(maxsize=None)
    def conjugated(char, l1, l2):
        pk = _PairKernel(char, l1, l2)
        pk.phases = pk.phases.conj()
        return pk

    monkeypatch.setattr(weilchar.schrodinger, "_pair_kernel", conjugated)
    cells = {(3, 1): ("structural", "loops", "homomorphism"),
             (7, 1): ("structural", "loops", "homomorphism"),
             (3, 2): ("structural", "loops", "homomorphism"),
             (5, 1): ("structural",)}
    kinds = {"structural": "diagonal-kernel", "loops": "loop", "homomorphism": "product"}
    for (p, n), failing in cells.items():
        results = run_verification([p], [n], seed=1, samples=5,
                                   suites=("structural", "loops", "homomorphism", "gamma", "theta"))
        for r in results:
            if r.suite in failing:
                assert not r.ok, (p, n, r.suite)
                assert r.witness["kind"] == kinds[r.suite], (p, n, r.witness)
            elif r.suite in ("gamma", "theta"):
                assert r.ok and r.checked > 0, (p, n, r.suite, r.witness)
