"""Closed character values and the diagonal support form machinery."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilchar.characters import AdditiveCharacter, approx_eq
from weilchar.charformula import (
    CheckReport,
    DiagonalForm,
    check_inverse_identity,
    check_kernel_dims,
    check_maslov_class,
    check_maslov_classes,
    check_transfer_isometry,
    closed_form_data,
    closed_form_data_many,
    diagonal_form,
    diagonal_forms,
    trace_closed_form,
    trace_from_factor,
)
from weilchar.errors import (
    DimensionMismatch,
    InvariantViolation,
    SingularGMinusOne,
    ZeroFormClass,
)
from weilchar.field import Fp, FpMatrix, RowSolver, SquareClass, Subspace
from weilchar.maslov import Orientation, maslov_form, orientation_pairing
from weilchar.metaplectic import split_lift
from weilchar.quadform import witt_invariants
from weilchar.schrodinger import trace_oracle
from weilchar.symplectic import (
    SymplecticSpace,
    diagonal_lagrangian,
    displacement_disc,
    kernel_of_displacement,
)
from weilchar.verify import _core_elements


def setup(p, n):
    f = Fp(p)
    return AdditiveCharacter(f), SymplecticSpace(f, n)


def test_closed_form_identity_is_p_to_n():
    for p, n in ((3, 1), (5, 1), (3, 2), (5, 2)):
        ch, sp = setup(p, n)
        assert approx_eq(trace_closed_form(ch, sp.identity()), float(p) ** n, 1e-9, scale=p**n)


def test_closed_form_frozen_sl2_values():
    ch, sp = setup(5, 1)
    assert approx_eq(trace_closed_form(ch, sp.element([[2, 0], [0, 3]])), -1, 1e-9)
    assert approx_eq(trace_closed_form(ch, sp.element([[1, 1], [0, 1]])), -math.sqrt(5), 1e-9)
    assert approx_eq(trace_closed_form(ch, sp.element([[1, 2], [0, 1]])), math.sqrt(5), 1e-9)
    # -identity: value is chi(-1) read through the displacement form
    assert approx_eq(trace_closed_form(ch, sp.element([[4, 0], [0, 4]])), 1, 1e-9)
    ch7, sp7 = setup(7, 1)
    assert approx_eq(trace_closed_form(ch7, sp7.element([[6, 0], [0, 6]])), -1, 1e-9)


def test_closed_form_scalar_case_table():
    # trace of [[a,b],[0,1/a]] with a != 1 depends only on the class of a
    for p in (5, 7, 11):
        ch, sp = setup(p, 1)
        f = ch.field
        for a in range(2, p):
            for b in (0, 1, 2):
                g = sp.element([[a, b], [0, f.inv(a)]])
                assert approx_eq(trace_closed_form(ch, g), f.legendre(a), 1e-9)


def test_diagonal_form_support_structure():
    ch, sp = setup(5, 1)
    rng = np.random.default_rng(19)
    pairs = [(sp.random_element(rng), sp.random_lagrangian(rng)) for _ in range(25)]
    for (g, l), df in zip(pairs, diagonal_forms([g for g, _ in pairs], [l for _, l in pairs])):
        assert not np.any((df.gram.a - df.gram.a.T) % 5)
        for c in l.sub.pivots:
            if df.support.dim:
                assert not np.any(df.support.basis.a[:, c])
        # transfer lands in l
        for row in df.transfer.a:
            assert l.sub.coordinates_many(row[None])[1][0]


def test_diagonal_form_support_excludes_off_support_vectors():
    ch, sp = setup(5, 1)
    g = sp.element([[2, 0], [0, 3]])
    l = sp.standard_lagrangian()
    df = diagonal_form(g, l)
    # here the support is {0} inside V/l and e2 is off it
    assert df.support.dim == 0
    assert not df.support.coordinates_many([[0, 1]])[1][0]


def diagonal_form_by_sums(g, l):
    """Reference for `diagonal_forms`: membership in g l + l through the dot
    complement of the sum, and l ^ (g-1)V and g l ^ l through `intersect`,
    one pair at a time and with no stacked elimination."""
    space = g.space
    field = space.field
    p = field.p
    d = space.dim
    eye = np.eye(d, dtype=np.int64)
    gm1 = (g.mat.a - eye) % p
    bl = l.sub.basis.a
    gl = l.transform(g)
    mem = (gl.sub + l.sub).basis.kernel().basis.a
    cons = [(mem @ gm1) % p] if mem.size else []
    cons.append(eye[list(l.sub.pivots)])
    support = FpMatrix(field, np.vstack([c for c in cons if len(c)])).kernel()
    k = bl.shape[0]
    system = FpMatrix(field, np.vstack([(bl @ g.mat.a.T) % p, bl, (bl @ gm1.T) % p]))
    sup = support.basis.a
    y, ok = RowSolver(system).solve_many((sup @ gm1.T) % p)
    assert ok.all()
    transfer = ((y[:, :k] + y[:, k : 2 * k]) @ bl) % p
    dual_support = l.sub.intersect(Subspace.from_rows(field, d, gm1.T))
    db = dual_support.basis.a
    pre, ok = RowSolver(FpMatrix(field, gm1.T)).solve_many(db)
    assert ok.all()
    return DiagonalForm(
        g=g,
        l=l,
        support=support,
        gram=FpMatrix(field, (transfer @ space.gram.a @ sup.T) % p),
        transfer=FpMatrix(field, transfer),
        dual_support=dual_support,
        dual_gram=FpMatrix(field, (db @ space.gram.a @ pre.T) % p),
        ker=kernel_of_displacement(g),
        inter=gl.sub.intersect(l.sub),
    )


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
def test_diagonal_form_equals_the_sum_route(p, n):
    """Every field of `diagonal_form`, the one-element stack, equals the
    reference's, with the same pivots, on the core elements at the standard
    Lagrangian, on -1 (g - 1 invertible, so the dual syndrome has no
    columns) and on random pairs."""
    ch, sp = setup(p, n)
    rng = np.random.default_rng(37 * p + n)
    std = sp.standard_lagrangian()
    minus_one = sp.element(-np.eye(sp.dim, dtype=np.int64))
    pairs = [(g, std) for g in _core_elements(sp)] + [(minus_one, sp.random_lagrangian(rng))]
    pairs += [(sp.random_element(rng), sp.random_lagrangian(rng)) for _ in range(30)]
    assert pairs[0][0] == sp.identity()
    kers = set()
    for g, l in pairs:
        got, want = diagonal_form(g, l), diagonal_form_by_sums(g, l)
        for f in fields(DiagonalForm):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
        for name in ("support", "dual_support", "ker", "inter"):
            assert getattr(got, name).pivots == getattr(want, name).pivots, name
        kers.add(got.ker.dim)
    assert 0 in kers and sp.dim in kers


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
def test_stacked_diagonal_forms_equal_single_forms(p, n):
    """One `diagonal_forms` stack equals the reference and the one-element
    stacks of `diagonal_form` field by field, with the same pivots, so no
    pair's form depends on the others in its stack: the identity, the
    transvections and the other core elements at the standard and at random
    Lagrangians, -1 at both, and random pairs; at n = 1 every element at
    every Lagrangian."""
    ch, sp = setup(p, n)
    rng = np.random.default_rng(43 * p + n)
    std = sp.standard_lagrangian()
    minus_one = sp.element(-np.eye(sp.dim, dtype=np.int64))
    core = _core_elements(sp)
    pairs = [(g, std) for g in core] + [(g, sp.random_lagrangian(rng)) for g in core]
    pairs += [(minus_one, std), (minus_one, sp.random_lagrangian(rng))]
    pairs += [(sp.random_element(rng), sp.random_lagrangian(rng)) for _ in range(30)]
    if n == 1:
        pairs += [(g, l) for g in sp.elements() for l in sp.all_lagrangians()]
    got = diagonal_forms([g for g, _ in pairs], [l for _, l in pairs])
    assert len(got) == len(pairs)
    kers = set()
    for df, (g, l) in zip(got, pairs):
        for want in (diagonal_form_by_sums(g, l), diagonal_form(g, l)):
            for f in fields(DiagonalForm):
                assert getattr(df, f.name) == getattr(want, f.name), f.name
            for name in ("support", "dual_support", "ker", "inter"):
                assert getattr(df, name).pivots == getattr(want, name).pivots, name
        kers.add(df.ker.dim)
    assert 0 in kers and sp.dim in kers
    assert diagonal_forms([], []) == []
    with pytest.raises(DimensionMismatch):
        diagonal_forms(core[:2], [std])
    with pytest.raises(DimensionMismatch):
        diagonal_forms(core[:1], [SymplecticSpace(sp.field, n + 1).standard_lagrangian()])


def test_structural_checks_sl2_exhaustive_p3():
    ch, sp = setup(3, 1)
    pairs = [(g, l) for g in sp.elements() for l in sp.all_lagrangians()]
    for df in diagonal_forms([g for g, _ in pairs], [l for _, l in pairs]):
        assert check_kernel_dims(df).ok
        assert check_transfer_isometry(df).ok
        assert check_maslov_class(ch, df).ok


def test_structural_checks_seeded_sp4():
    ch, sp = setup(3, 2)
    rng = np.random.default_rng(23)
    lags = sp.all_lagrangians()
    pairs = [(sp.random_element(rng), lags[int(rng.integers(0, len(lags)))]) for _ in range(40)]
    for df in diagonal_forms([g for g, _ in pairs], [l for _, l in pairs]):
        assert check_kernel_dims(df).ok
        assert check_transfer_isometry(df).ok
        assert check_maslov_class(ch, df).ok


def test_inverse_identity_applies_only_when_invertible():
    ch, sp = setup(5, 1)
    l = sp.standard_lagrangian()
    with pytest.raises(SingularGMinusOne):
        check_inverse_identity(diagonal_form(sp.identity(), l))
    with pytest.raises(SingularGMinusOne):
        check_inverse_identity(diagonal_form(sp.element([[1, 1], [0, 1]]), l))


def test_structural_checks_fail_on_a_corrupted_form():
    """Each check holds the form against an independent route, so a form with
    one corrupted field fails it.  Here g - 1 is invertible and the support
    form has rank 1, so a nonsquare scale changes its class."""
    ch, sp = setup(5, 1)
    g = sp.element([[2, 0], [0, 3]])
    df = diagonal_form(g, sp.lagrangian([[1, 1]]))
    assert df.form_space().rank() == 1 and df.ker.dim == 0
    for r in (check_kernel_dims(df), check_transfer_isometry(df),
              check_maslov_class(ch, df), check_inverse_identity(df)):
        assert r.ok, r.label

    scaled = replace(df, gram=FpMatrix(sp.field, 2 * df.gram.a))
    assert not check_transfer_isometry(scaled).ok
    assert not check_maslov_class(ch, scaled).ok

    scaled_dual = replace(df, dual_gram=FpMatrix(sp.field, 2 * df.dual_gram.a))
    assert not check_inverse_identity(scaled_dual).ok

    wrong_ker = replace(df, ker=kernel_of_displacement(sp.identity()))
    assert not check_kernel_dims(wrong_ker).ok
    with pytest.raises(SingularGMinusOne):
        check_inverse_identity(wrong_ker)


def maslov_class_reference(char, df):
    """The one-pair maslov-class check, kept as the reference of the stacked
    `check_maslov_classes`: single Witt invariants of the support form and of
    maslov_form(graph, diagonal, l + l), one intersection, one pairing and
    one closed form."""
    g, l = df.g, df.l
    inv_q = witt_invariants(char, df.form_space())
    m = maslov_form(g.graph(), diagonal_lagrangian(g.space), l.doubled())
    inv_m = witt_invariants(char, m)
    same = inv_q.same(inv_m)

    space = g.space
    p = space.field.p
    gm1 = (g.mat.a - np.eye(space.dim, dtype=np.int64)) % p
    moved_l = Subspace.from_rows(space.field, space.dim, (l.sub.basis.a @ gm1.T) % p)
    o = Orientation.default(l)
    pair = orientation_pairing(o.transform(g), o, df.inter)
    sign = pow(-1, l.sub.intersect(moved_l).dim, p)
    want_disc = SquareClass.of(space.field, sign) * pair * closed_form_data(char, g)[1]
    disc_ok = inv_q.disc == want_disc
    ok = same and disc_ok
    return CheckReport(
        label="maslov-class",
        ok=ok,
        details={
            "support_inv": (inv_q.rank, inv_q.disc.rep, inv_q.gamma),
            "maslov_inv": (inv_m.rank, inv_m.disc.rep, inv_m.gamma),
            "disc_formula": want_disc.rep,
        },
    )


def reference_or_error(char, df):
    """The reference report, or the type of the error it raises, which the
    stacked check must raise too."""
    try:
        return maslov_class_reference(char, df)
    except (InvariantViolation, ZeroFormClass) as exc:
        return type(exc)


@pytest.mark.parametrize("p,n,scale", [(5, 1, 1), (7, 1, 2), (3, 2, 1), (5, 2, 2)])
def test_stacked_maslov_classes_equal_the_reference(p, n, scale):
    """Over the core elements at the standard Lagrangian and random (g, l),
    and over forms with one field swapped for another pair's or the support
    gram scaled by a nonsquare, `check_maslov_classes` equals the reference
    report for report, in one stack, and alone where the reference raises."""
    f = Fp(p)
    ch, sp = AdditiveCharacter(f, scale), SymplecticSpace(f, n)
    rng = np.random.default_rng(41 * p + n)
    pairs = [(g, sp.standard_lagrangian()) for g in _core_elements(sp)]
    pairs += [(sp.random_element(rng), sp.random_lagrangian(rng)) for _ in range(8)]
    dfs = diagonal_forms([g for g, _ in pairs], [l for _, l in pairs])
    wants = [maslov_class_reference(ch, df) for df in dfs]
    assert all(w.ok for w in wants)
    assert check_maslov_classes(ch, dfs) == wants
    assert [check_maslov_class(ch, df) for df in dfs] == wants

    corrupted = []
    for i, df in enumerate(dfs):
        other = dfs[(i + 1) % len(dfs)]
        corrupted += [replace(df, **{fd.name: getattr(other, fd.name)}) for fd in fields(df)]
        corrupted.append(replace(df, gram=FpMatrix(f, f.nonsquare * df.gram.a)))
    refs = [reference_or_error(ch, df) for df in corrupted]
    kept = [(df, ref) for df, ref in zip(corrupted, refs) if isinstance(ref, CheckReport)]
    assert check_maslov_classes(ch, [df for df, _ in kept]) == [ref for _, ref in kept]
    for df, ref in zip(corrupted, refs):
        if not isinstance(ref, CheckReport):
            with pytest.raises(ref):
                check_maslov_classes(ch, [df])
    # both routes raise on some swapped g, l or g l ^ l, and fail on others
    assert any(isinstance(r, CheckReport) and not r.ok for r in refs)
    assert any(not isinstance(r, CheckReport) for r in refs)
    assert check_maslov_classes(ch, []) == []


def test_inverse_identity_seeded():
    for p, n in ((5, 1), (7, 1), (3, 2)):
        ch, sp = setup(p, n)
        rng = np.random.default_rng(29 * p + n)
        eye = FpMatrix.identity(sp.field, sp.dim)
        pairs = []
        while len(pairs) < 25:
            g = sp.random_element(rng)
            if (g.mat - eye).det() != 0:
                pairs.append((g, sp.random_lagrangian(rng)))
        for df in diagonal_forms([g for g, _ in pairs], [l for _, l in pairs]):
            assert check_inverse_identity(df).ok


def test_trace_from_factor_matches_closed_form():
    for p, n in ((3, 1), (5, 1), (7, 1), (3, 2)):
        ch, sp = setup(p, n)
        rng = np.random.default_rng(7 * p + n)
        for _ in range(20):
            g = sp.random_element(rng)
            e = split_lift(ch, g)
            assert approx_eq(trace_from_factor(e), trace_closed_form(ch, g), 1e-8, scale=p**n)
            m = split_lift(ch, g, sign=-1)
            assert approx_eq(trace_from_factor(m), -trace_closed_form(ch, g), 1e-8, scale=p**n)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([3, 5, 7]), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_three_trace_routes_agree(p, n, seed):
    """Oracle, closed form and factor form agree on a seeded random element,
    for both lifts; the other lift negates the closed form."""
    ch, sp = setup(p, n)
    g = sp.random_element(np.random.default_rng(seed))
    closed = trace_closed_form(ch, g)
    for sign in (1, -1):
        e = split_lift(ch, g, sign=sign)
        oracle = trace_oracle(e)
        assert approx_eq(oracle, sign * closed, 1e-8, scale=p**n)
        assert approx_eq(oracle, trace_from_factor(e), 1e-8, scale=p**n)


def test_trace_from_factor_lagrangian_independent():
    ch, sp = setup(5, 1)
    rng = np.random.default_rng(71)
    for _ in range(10):
        e = split_lift(ch, sp.random_element(rng))
        vals = [trace_from_factor(e, l) for l in sp.all_lagrangians()]
        assert max(abs(v - vals[0]) for v in vals) < 1e-8


def assert_closed_form_routes_agree(ch, sp, elems):
    """Stacked == single route under `==`, and k and disc equal the complement
    route: dim ker(g-1) and the disc on the standard complement of ker(g-1)."""
    mats = np.array([g.mat.a for g in elems], dtype=np.int64).reshape(-1, sp.dim, sp.dim)
    many = closed_form_data_many(ch, sp, mats)
    assert len(many) == len(elems)
    for g, got in zip(elems, many):
        single = closed_form_data(ch, g)
        assert got == single
        k, disc, tr = single
        assert k == kernel_of_displacement(g).dim
        assert disc == displacement_disc(g)
        assert tr == trace_closed_form(ch, g)
    return many


def _nonsymmetric(sp, g):
    eye = np.eye(sp.dim, dtype=np.int64)
    gram = (g.mat.a - eye).T @ sp.gram.a % sp.field.p
    return bool(np.any((gram - gram.T) % sp.field.p))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_closed_form_routes_agree_on_all_of_sl2(p):
    ch, sp = setup(p, 1)
    elems = sp.elements()
    many = assert_closed_form_routes_agree(ch, sp, elems)
    # sum of |chi|^2 over the group is 2|G|: the lift is a sum of two irreducibles
    assert abs(sum(abs(tr) ** 2 for _, _, tr in many) - 2 * len(elems)) < 1e-6 * len(elems)


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("p, n", [(97, 1), (17, 2), (7, 3), (3, 5)])
def test_closed_form_routes_agree_on_random_elements(p, n, scale):
    f = Fp(p)
    ch, sp = AdditiveCharacter(f, scale), SymplecticSpace(f, n)
    rng = np.random.default_rng([p, n, scale])
    elems = [sp.random_element(rng) for _ in range(30)]
    assert_closed_form_routes_agree(ch, sp, elems)
    # the displacement pairing is not symmetric for most elements
    assert sum(_nonsymmetric(sp, g) for g in elems) > len(elems) // 2


@pytest.mark.parametrize("p, n", [(5, 1), (3, 2), (7, 3)])
def test_closed_form_routes_on_identity_and_transvections(p, n):
    ch, sp = setup(p, n)
    rng = np.random.default_rng([p, n])
    ident = sp.identity()
    v = rng.integers(0, p, sp.dim)
    v[0] = 1
    trans = [sp.transvection(v, lam) for lam in range(1, p)]
    many = assert_closed_form_routes_agree(ch, sp, [ident, *trans, ident])
    k, disc, tr = many[0]
    assert (k, disc) == (2 * n, SquareClass.unit(ch.field))
    assert approx_eq(tr, float(p) ** n, 1e-9, scale=p**n)
    assert [k for k, _, _ in many[1:-1]] == [2 * n - 1] * (p - 1)
    # a transvection's displacement form has rank 1, so its disc runs over both classes
    assert {disc.is_square for _, disc, _ in many[1:-1]} == {True, False}


def test_closed_form_data_many_of_an_empty_stack():
    for n in (1, 3):
        ch, sp = setup(5, n)
        assert closed_form_data_many(ch, sp, np.zeros((0, 2 * n, 2 * n), dtype=np.int64)) == []


@pytest.mark.parametrize("p, n", [(5, 1), (7, 2), (3, 3)])
def test_closed_form_routes_agree_on_a_nonstandard_gram(p, n):
    f = Fp(p)
    rng = np.random.default_rng([p, n, 5])
    std = SymplecticSpace(f, n).gram.a
    while True:
        a = rng.integers(0, p, (2 * n, 2 * n))
        if FpMatrix(f, a).det():
            break
    sp = SymplecticSpace(f, gram=FpMatrix(f, a.T @ std @ a))
    assert sp.gram != SymplecticSpace(f, n).gram
    ch = AdditiveCharacter(f)
    elems = [sp.random_element(rng) for _ in range(25)] + [sp.identity()]
    assert_closed_form_routes_agree(ch, sp, elems)
