"""Lifted group elements: splitting values, the two-cocycle, theta factors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_symplectic import draw_gram_space
from weilchar import metaplectic
from weilchar.characters import AdditiveCharacter, approx_eq
from weilchar.errors import DimensionMismatch
from weilchar.field import Fp, Subspace
from weilchar.maslov import Orientation, _maslov_gammas, edge_factors, maslov_gamma
from weilchar.metaplectic import (
    MpElement,
    _theta_triples,
    character_factor,
    character_factor_doubled,
    character_factor_table,
    character_factors_doubled,
    embed_doubled,
    mp_cocycle,
    mp_cocycles,
    mp_identity,
    mp_products,
    split_lift,
    split_lifts,
    split_value,
    split_values,
)
from weilchar.symplectic import Lagrangian, SymplecticSpace
from weilchar.verify import _core_elements


def setup(p, n):
    f = Fp(p)
    return AdditiveCharacter(f), SymplecticSpace(f, n)


def test_split_value_frozen_p5():
    ch, sp = setup(5, 1)
    l = sp.standard_lagrangian()
    assert approx_eq(split_value(ch, sp.element([[2, 0], [0, 3]]), l), -1, 1e-10)
    assert approx_eq(split_value(ch, sp.element([[1, 1], [0, 1]]), l), 1, 1e-10)
    assert approx_eq(split_value(ch, sp.identity(), l), 1, 1e-12)


def test_split_lift_reuses_the_standard_lagrangian():
    """The base of a default lift is built once per space, and the lift values
    equal those at a freshly built standard Lagrangian."""
    ch, sp = setup(5, 2)
    fresh = sp.lagrangian(np.eye(2, 4, dtype=np.int64))
    assert sp.standard_lagrangian() is sp.standard_lagrangian() == fresh
    assert fresh.sub.basis.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]
    rng = np.random.default_rng(3)
    for _ in range(6):
        g = sp.random_element(rng)
        e1, e2 = split_lift(ch, g), split_lift(ch, g, sign=-1)
        assert e1.base is e2.base is sp.standard_lagrangian()
        assert e1.t0 == -e2.t0 == split_lift(ch, g, base=fresh).t0


def pairing_oracle(ch, g, l):
    """The orientation-pairing route to m_g(l): the edge factor of (g l, l)."""
    o = Orientation.default(l)
    return edge_factors(ch, [o.transform(g)], [o])[0]


def mats(elems):
    return np.array([g.mat.a for g in elems])


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("scale", [1, 2])
def test_split_value_equals_the_pairing_oracle_on_sl2(p, scale):
    """The Bruhat-cell closed form gives the oracle's float on all of SL2(F_p)."""
    f = Fp(p)
    ch, sp = AdditiveCharacter(f, scale), SymplecticSpace(f, 1)
    l = sp.standard_lagrangian()
    elems = sp.elements()
    want = [pairing_oracle(ch, g, l) for g in elems]
    assert [split_value(ch, g, l) for g in elems] == want
    assert split_values(ch, mats(elems), l) == want


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (7, 3), (3, 5)])
@pytest.mark.parametrize("scale", [1, 2])
def test_split_value_equals_the_pairing_oracle_on_random_elements(p, n, scale):
    """At the standard and at random Lagrangians, for both lifts; the stacked
    values equal the one-element calls."""
    f = Fp(p)
    ch, sp = AdditiveCharacter(f, scale), SymplecticSpace(f, n)
    rng = np.random.default_rng(17 * p + n)
    elems = _core_elements(sp) + [sp.random_element(rng) for _ in range(12)]
    for l in (sp.standard_lagrangian(), sp.random_lagrangian(rng), sp.random_lagrangian(rng)):
        want = [pairing_oracle(ch, g, l) for g in elems]
        assert [split_value(ch, g, l) for g in elems] == want
        assert split_values(ch, mats(elems), l) == want
        for g, w in zip(elems[::4], want[::4]):
            for sign in (1, -1):
                assert split_lift(ch, g, l, sign=sign).t0 == sign * w


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([3, 5, 7]), st.integers(1, 2), st.sampled_from([1, 2]), st.data())
def test_split_value_equals_the_pairing_oracle_on_any_gram(p, n, scale, data):
    """On the gram M^T J M of a drawn basis change the values go through the
    Darboux basis first, and still equal the oracle's."""
    sp = draw_gram_space(p, n, data)
    ch = AdditiveCharacter(sp.field, scale)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    elems = [sp.identity()] + [sp.random_element(rng) for _ in range(6)]
    for l in (sp.random_lagrangian(rng), sp.random_lagrangian(rng)):
        want = [pairing_oracle(ch, g, l) for g in elems]
        assert [split_value(ch, g, l) for g in elems] == want
        assert split_values(ch, mats(elems), l) == want


def test_split_values_reject_bad_input():
    ch, sp = setup(5, 1)
    l = sp.standard_lagrangian()
    assert split_values(ch, np.zeros((0, 2, 2), dtype=np.int64), l) == []
    with pytest.raises(DimensionMismatch):
        split_values(ch, [[1, 1], [1, 1]], l)
    with pytest.raises(DimensionMismatch):
        split_value(ch, SymplecticSpace(Fp(5), 2).identity(), l)


@pytest.mark.parametrize("p,n,scale", [(5, 1, 1), (7, 1, 2), (3, 2, 1), (5, 2, 2), (3, 3, 1)])
def test_stacked_cocycle_equals_the_maslov_gamma(p, n, scale):
    """mp_cocycle and mp_cocycles on the moved bases of l equal maslov_gamma
    of the rref Lagrangians (l, g l, g h l)."""
    f = Fp(p)
    ch, sp = AdditiveCharacter(f, scale), SymplecticSpace(f, n)
    rng = np.random.default_rng(23 * p + n)
    core = _core_elements(sp)
    pairs = [(a, b) for a in core for b in core]
    pairs += [(sp.random_element(rng), sp.random_element(rng)) for _ in range(10)]
    gs, hs = mats([g for g, _ in pairs]), mats([h for _, h in pairs])
    for l in (sp.standard_lagrangian(), sp.random_lagrangian(rng)):
        want = [maslov_gamma(ch, l, l.transform(g), l.transform(g * h)) for g, h in pairs]
        assert [mp_cocycle(ch, g, h, l) for g, h in pairs] == want
        assert mp_cocycles(ch, gs, hs, l) == want
    assert mp_cocycles(ch, gs[:0], hs[:0], l) == []


def test_split_values_are_unit_modulus():
    ch, sp = setup(7, 2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = sp.random_element(rng)
        l = sp.random_lagrangian(rng)
        assert abs(abs(split_value(ch, g, l)) - 1) < 1e-10


def test_splitting_identity_exact():
    """split(g) * split(h) equals split(gh): the correction by the cocycle is
    exactly the coboundary of the splitting values."""
    for p, n in ((3, 1), (5, 1), (7, 1), (3, 2)):
        ch, sp = setup(p, n)
        rng = np.random.default_rng(31 * p + n)
        for _ in range(25):
            g = sp.random_element(rng)
            h = sp.random_element(rng)
            prod = split_lift(ch, g) * split_lift(ch, h)
            assert prod == split_lift(ch, g * h)


def test_splitting_identity_scalar_form():
    ch, sp = setup(5, 1)
    rng = np.random.default_rng(8)
    for _ in range(30):
        g = sp.random_element(rng)
        h = sp.random_element(rng)
        l = sp.random_lagrangian(rng)
        lhs = split_value(ch, g, l) * split_value(ch, h, l) * mp_cocycle(ch, g, h, l)
        assert approx_eq(lhs, split_value(ch, g * h, l), 1e-8)


def test_cocycle_two_cocycle_condition():
    ch, sp = setup(5, 1)
    rng = np.random.default_rng(14)
    l = sp.standard_lagrangian()
    for _ in range(30):
        g = sp.random_element(rng)
        h = sp.random_element(rng)
        k = sp.random_element(rng)
        lhs = mp_cocycle(ch, g, h, l) * mp_cocycle(ch, g * h, k, l)
        rhs = mp_cocycle(ch, h, k, l) * mp_cocycle(ch, g, h * k, l)
        assert approx_eq(lhs, rhs, 1e-8)


def test_cocycle_trivial_on_identity():
    ch, sp = setup(7, 1)
    rng = np.random.default_rng(2)
    l = sp.standard_lagrangian()
    e = sp.identity()
    for _ in range(10):
        g = sp.random_element(rng)
        assert approx_eq(mp_cocycle(ch, e, g, l), 1, 1e-10)
        assert approx_eq(mp_cocycle(ch, g, e, l), 1, 1e-10)


def test_mp_identity_and_inverse():
    ch, sp = setup(5, 1)
    rng = np.random.default_rng(77)
    one = mp_identity(ch, sp)
    assert one.g == sp.identity()
    assert approx_eq(one.t0, 1, 1e-12)
    for _ in range(20):
        e = split_lift(ch, sp.random_element(rng))
        prod = e * e.inverse()
        assert prod.g == sp.identity()
        assert approx_eq(prod.t0, 1, 1e-8)
        back = e.inverse().inverse()
        assert back == e


def test_mp_elements_compare_and_hash_by_value():
    """Character, g, base and t0 decide equality, since every lift value is
    exact: the same lift built twice is equal and hashes alike, and the other
    lift, another base and another psi-scale each differ."""
    f = Fp(5)
    ch, sp = AdditiveCharacter(f), SymplecticSpace(f, 2)
    rng = np.random.default_rng(29)
    other = sp.lagrangian([[0, 0, 1, 0], [0, 0, 0, 1]])
    assert other != sp.standard_lagrangian()
    for _ in range(6):
        g = sp.random_element(rng)
        e = split_lift(ch, g)
        twin = split_lift(AdditiveCharacter(f), sp.element(g.mat.a.copy()))
        assert e is not twin and e == twin and hash(e) == hash(twin)
        assert len({e, twin, -e}) == 2
        assert e != split_lift(ch, g, sign=-1)
        assert e.rebased(other) != e
        assert split_lift(AdditiveCharacter(f, 2), g) != e
        assert e * e.inverse() == mp_identity(ch, sp)
        assert e != g


def test_negative_lift_sign_algebra():
    ch, sp = setup(5, 1)
    rng = np.random.default_rng(3)
    g = sp.random_element(rng)
    h = sp.random_element(rng)
    plus = split_lift(ch, g)
    minus = split_lift(ch, g, sign=-1)
    assert approx_eq(minus.t0, -plus.t0, 1e-12)
    other = split_lift(ch, h)
    assert minus * other == -(plus * other)
    assert -plus == minus


def test_value_transport_consistency():
    ch, sp = setup(7, 1)
    rng = np.random.default_rng(21)
    for _ in range(15):
        e = split_lift(ch, sp.random_element(rng))
        for l in sp.all_lagrangians():
            moved = e.rebased(l)
            assert approx_eq(moved.t0, e.value_at(l), 1e-10)
            # transporting back recovers the original value
            assert approx_eq(moved.value_at(e.base), e.t0, 1e-8)


def test_product_with_mismatched_base_rejected():
    ch, sp = setup(5, 1)
    g = sp.element([[2, 0], [0, 3]])
    a = split_lift(ch, g)
    b = split_lift(ch, g, base=sp.lagrangian([[0, 1]]))
    with pytest.raises(ValueError):
        _ = a * b


def test_theta_frozen_values_p5():
    ch, sp = setup(5, 1)
    assert approx_eq(character_factor(split_lift(ch, sp.element([[2, 0], [0, 3]]))), -1, 1e-9)
    assert approx_eq(character_factor(split_lift(ch, sp.element([[1, 1], [0, 1]]))), -1, 1e-9)
    assert approx_eq(character_factor(mp_identity(ch, sp)), 1, 1e-9)


def test_theta_independent_of_lagrangian():
    for p, n in ((3, 1), (5, 1), (3, 2)):
        ch, sp = setup(p, n)
        rng = np.random.default_rng(41 * p + n)
        for _ in range(8):
            e = split_lift(ch, sp.random_element(rng))
            vals = [character_factor(e, l) for l in sp.all_lagrangians()]
            assert max(abs(v - vals[0]) for v in vals) < 1e-8


def rebuilt_character_factor(e, l):
    """character_factor with graph(g), the diagonal, l + l and g base built
    afresh on every call."""
    sp, w = e.space, e.space.doubled()
    eye = np.eye(sp.dim, dtype=np.int64)

    def doubled_lag(rows):
        return Lagrangian(w, Subspace.from_rows(w.field, w.dim, rows))

    b = l.sub.basis.a
    z = np.zeros_like(b)
    ll = doubled_lag(np.block([[b, z], [z, b]]))
    gamma = maslov_gamma(e.char, doubled_lag(np.hstack([eye, e.g.mat.a.T])),
                         doubled_lag(np.hstack([eye, eye])), ll)
    if l == e.base:
        t = e.t0
    else:
        t = maslov_gamma(e.char, e.base, e.base.transform(e.g), l.transform(e.g), l) * e.t0
    return t * gamma


def test_theta_values_equal_rebuilt_reference():
    ch, sp = setup(3, 2)
    rng = np.random.default_rng(7)
    lags = sp.all_lagrangians()
    for _ in range(3):
        e = split_lift(ch, sp.random_element(rng))
        for _ in range(2):  # the second pass reads the memoized graph, l + l, g base
            assert [character_factor(e, l) for l in lags] == [
                rebuilt_character_factor(e, l) for l in lags
            ]


@pytest.mark.parametrize("p,n,scale", [(3, 1, 1), (11, 1, 1), (3, 2, 1), (5, 2, 1), (5, 1, 2),
                                       (3, 2, 2)])
def test_stacked_character_factors_equal_single_calls(p, n, scale):
    f = Fp(p)
    ch, sp = AdditiveCharacter(f, scale), SymplecticSpace(f, n)
    rng = np.random.default_rng(13 * p + n)
    lags = sp.all_lagrangians()
    elems = [split_lift(ch, g, sign=s) for g in _core_elements(sp) for s in (1, -1)]
    elems += [split_lift(ch, sp.random_element(rng), sign=s) for s in (1, -1)]
    # anchored off the standard Lagrangian, at a Lagrangian in the middle of the list
    elems.append(split_lift(ch, sp.random_element(rng)).rebased(lags[len(lags) // 2]))
    for e in elems:
        row = character_factor_table([e], lags)[0]
        assert row.tolist() == [character_factor(e, l) for l in lags]
    assert character_factor_table(elems[:1], [])[0].shape == (0,)
    with pytest.raises(ValueError):
        character_factor_table(elems[:1], [SymplecticSpace(f, n + 1).standard_lagrangian()])


@pytest.mark.parametrize("p,n,scale", [(5, 1, 1), (3, 2, 1), (5, 1, 2), (3, 2, 2)])
def test_stacked_lifts_equal_single_lifts(p, n, scale):
    f = Fp(p)
    ch, sp = AdditiveCharacter(f, scale), SymplecticSpace(f, n)
    rng = np.random.default_rng(17 * p + n)
    gs = _core_elements(sp) + [sp.random_element(rng) for _ in range(8)]
    for base in (None, sp.random_lagrangian(rng)):
        for sign in (1, -1):
            lifts = split_lifts(ch, gs, base, sign)
            singles = [split_lift(ch, g, base, sign) for g in gs]
            assert [e.t0 for e in lifts] == [e.t0 for e in singles]
            assert all(e.g is g and e.base == s.base for e, g, s in zip(lifts, gs, singles))
    assert split_lifts(ch, []) == []
    with pytest.raises(ValueError):
        split_lifts(ch, gs, sign=2)
    with pytest.raises(DimensionMismatch):
        split_lifts(ch, gs, SymplecticSpace(f, n + 1).standard_lagrangian())


@pytest.mark.parametrize("p,n,scale", [(5, 1, 1), (3, 2, 1), (5, 1, 2), (3, 2, 2)])
def test_stacked_products_equal_single_products(p, n, scale):
    f = Fp(p)
    ch, sp = AdditiveCharacter(f, scale), SymplecticSpace(f, n)
    rng = np.random.default_rng(19 * p + n)
    core = split_lifts(ch, _core_elements(sp))
    drawn = split_lifts(ch, [sp.random_element(rng) for _ in range(12)])
    lefts = [a for a in core for _ in core] + drawn[:6] + [-e for e in drawn[6:]]
    rights = [b for _ in core for b in core] + drawn[6:] + drawn[:6]
    rebase = sp.random_lagrangian(rng)
    for ls, rs in ((lefts, rights), ([e.rebased(rebase) for e in lefts],
                                     [e.rebased(rebase) for e in rights])):
        prods = mp_products(ls, rs)
        singles = [a * b for a, b in zip(ls, rs)]
        assert [e.g for e in prods] == [e.g for e in singles]
        assert [e.t0 for e in prods] == [e.t0 for e in singles]
        assert all(e.base == ls[0].base for e in prods)
    assert mp_products([], []) == []
    other = AdditiveCharacter(f, 3 - scale)
    with pytest.raises(DimensionMismatch):
        mp_products(lefts[:2], [rights[0], split_lift(other, rights[1].g)])
    with pytest.raises(DimensionMismatch):
        mp_products(lefts[:2], [rights[0], rights[1].rebased(rebase)])
    with pytest.raises(DimensionMismatch):
        mp_products(lefts[:2], rights[:1])


def test_factor_table_rows_equal_character_factors():
    for p, n in ((5, 1), (3, 2), (3, 3)):
        ch, sp = setup(p, n)
        rng = np.random.default_rng(23 * p + n)
        lags = sp.all_lagrangians()
        es = split_lifts(ch, _core_elements(sp)[1:3]) + [
            split_lift(ch, sp.random_element(rng), sign=-1),
            split_lift(ch, sp.random_element(rng)).rebased(lags[-1])]
        table = character_factor_table(es, lags)
        assert table.shape == (len(es), len(lags))
        for e, row in zip(es, table):
            assert row.tolist() == character_factor_table([e], lags)[0].tolist()
    # at (3, 3) one element alone crosses the stack bound
    assert len(lags) == 1120 > metaplectic._FACTOR_STACK
    assert character_factor_table([], lags).shape == (0, 1120)
    assert character_factor_table(es, []).shape == (len(es), 0)
    with pytest.raises(DimensionMismatch):
        character_factor_table(es, [setup(3, 2)[1].standard_lagrangian()])
    with pytest.raises(DimensionMismatch):
        character_factor_table([es[0], split_lift(ch, setup(3, 2)[1].identity())], lags)


def test_factor_table_stacks_are_bounded(monkeypatch):
    """At (3, 3), 5 elements times 1,120 Lagrangians go through stacks of at
    most the bound: per stack one `_solvers_many` of its elements, one
    `_null_rows_many` and one `_rank_dets_many` of two forms per pair,
    covering every pair."""
    ch, sp = setup(3, 3)
    lags = sp.all_lagrangians()
    es = split_lifts(ch, _core_elements(sp))
    seen = {name: [] for name in ("_solvers_many", "_null_rows_many", "_rank_dets_many")}
    for name, sizes in seen.items():
        def spy(stack, field, _call=getattr(metaplectic, name), _sizes=sizes):
            _sizes.append(len(stack))
            return _call(stack, field)
        monkeypatch.setattr(metaplectic, name, spy)
    character_factor_table(es, lags)
    pairs = [size // 2 for size in seen["_rank_dets_many"]]
    assert max(pairs) <= metaplectic._FACTOR_STACK
    assert sum(pairs) == 5 * 1120
    assert [size // 2 for size in seen["_null_rows_many"]] == pairs
    # an element's systems are solved once per stack it reaches
    assert len(seen["_solvers_many"]) == len(pairs)
    assert all(size // 2 <= min(k, 5) for size, k in zip(seen["_solvers_many"], pairs))


def test_doubled_factor_stacks_are_bounded(monkeypatch):
    """All 1,320 elements of SL2(F_11) go through doubled stacks of at most
    the bound, whose values equal one unbounded stack's."""
    ch, sp = setup(11, 1)
    es = split_lifts(ch, sp.elements())
    seen = []
    gammas = metaplectic._maslov_gammas

    def spy(char, space, bases):
        seen.append(len(bases))
        return gammas(char, space, bases)

    monkeypatch.setattr(metaplectic, "_maslov_gammas", spy)
    got = character_factors_doubled(es)
    stacks = len(seen)
    assert max(seen) <= metaplectic._FACTOR_STACK < len(es) == sum(seen)
    monkeypatch.setattr(metaplectic, "_FACTOR_STACK", len(es))
    assert got == character_factors_doubled(es)
    assert seen[stacks:] == [len(es)]


def reference_factor_table(es, lags):
    """The polygon-form reference of `character_factor_table`: the Maslov
    forms of (graph(g), diagonal, l + l) and of (base, g base, g l, l) of
    every pair, from `_theta_triples` and the moved bases, in one
    `_maslov_gammas` call each per stack of 200 pairs."""
    char, space = es[0].char, es[0].space
    p = space.field.p
    g_t = np.stack([e.g.mat.a.T for e in es])
    base = np.stack([e.base.sub.basis.a for e in es])
    ends = np.stack([base, base @ g_t % p], axis=1)
    b = np.stack([l.sub.basis.a for l in lags])
    out = np.zeros((len(es), len(lags)), dtype=complex)
    pairs = len(es) * len(lags)
    for start in range(0, pairs, 200):
        ei, li = np.divmod(np.arange(start, min(start + 200, pairs)), len(lags))
        bl = b[li]
        gammas = _maslov_gammas(char, space.doubled(), _theta_triples(g_t[ei], bl))
        four = np.concatenate([ends[ei], (bl @ g_t[ei] % p)[:, None], bl[:, None]], axis=1)
        moves = _maslov_gammas(char, space, four)
        for i, j, t, gamma in zip(ei, li, moves, gammas):
            out[i, j] = t * es[i].t0 * gamma
    return out


def both_lifts_and_rebased(ch, gs, lags, rebased):
    """The lifts of gs, alternately the split lift and its negative, with
    `rebased` of them anchored at Lagrangians spread over lags."""
    es = [e if i % 2 else -e for i, e in enumerate(split_lifts(ch, gs))]
    step = max(len(es) // rebased, 1)
    for k, i in enumerate(range(0, len(es), step)):
        es[i] = es[i].rebased(lags[(7 * k + 1) % len(lags)])
    return es


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("scale", [1, 2])
def test_factor_table_equals_the_polygon_reference_on_sl2(p, scale):
    """Every element of SL2(F_p) at every Lagrangian, both lifts and some
    rebased: the table from 2n x 2n grams equals the polygon forms' (`==`)."""
    f = Fp(p)
    ch, sp = AdditiveCharacter(f, scale), SymplecticSpace(f, 1)
    lags = sp.all_lagrangians()
    es = both_lifts_and_rebased(ch, sp.elements(), lags, 12)
    assert any(e.base != sp.standard_lagrangian() for e in es)
    table = character_factor_table(es, lags)
    assert np.array_equal(table, reference_factor_table(es, lags))


def test_factor_table_equals_the_polygon_reference_on_sp4():
    """2,074 elements of Sp4(F_3), every 25th of the group, at all 40
    Lagrangians with psi-scale 2, both lifts and some rebased."""
    f = Fp(3)
    ch, sp = AdditiveCharacter(f, 2), SymplecticSpace(f, 2)
    lags = sp.all_lagrangians()
    gs = [sp.element(m) for m in sp.element_matrices()[::25]]
    es = both_lifts_and_rebased(ch, gs, lags, 20)
    assert len(es) == 2074
    table = character_factor_table(es, lags)
    assert np.array_equal(table, reference_factor_table(es, lags))


def test_theta_doubled_route_agrees():
    ch, sp = setup(5, 1)
    rng = np.random.default_rng(55)
    for _ in range(20):
        e = split_lift(ch, sp.random_element(rng))
        assert approx_eq(character_factor(e), character_factor_doubled(e), 1e-8)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)])
@pytest.mark.parametrize("scale", [1, 2])
def test_stacked_doubled_factors_equal_single_calls(p, n, scale):
    """Both lifts of the core and random elements, and lifts rebased off
    the standard Lagrangian, in one stack: each stacked doubled factor is
    `==` the single route's."""
    f = Fp(p)
    ch, sp = AdditiveCharacter(f, scale), SymplecticSpace(f, n)
    rng = np.random.default_rng(37 * p + n)
    gs = _core_elements(sp) + [sp.random_element(rng) for _ in range(4)]
    es = [e for sign in (1, -1) for e in split_lifts(ch, gs, sign=sign)]
    rebase = sp.random_lagrangian(rng)
    es += [e.rebased(rebase) for e in es[len(gs) - 2:len(gs) + 2]]
    assert character_factors_doubled(es) == [character_factor_doubled(e) for e in es]
    assert character_factors_doubled([]) == []
    with pytest.raises(DimensionMismatch):
        character_factors_doubled([es[0], split_lift(AdditiveCharacter(f, 3 - scale), gs[1])])
    with pytest.raises(DimensionMismatch):
        character_factors_doubled([es[0], split_lift(ch, SymplecticSpace(f, n + 1).identity())])


def test_embed_doubled_is_homomorphism():
    ch, sp = setup(3, 1)
    rng = np.random.default_rng(61)
    for _ in range(20):
        e1 = split_lift(ch, sp.random_element(rng))
        e2 = split_lift(ch, sp.random_element(rng))
        lhs = embed_doubled(e1) * embed_doubled(e2)
        rhs = embed_doubled(e1 * e2)
        assert lhs == rhs


def test_embed_doubled_respects_sign():
    ch, sp = setup(5, 1)
    e = split_lift(ch, sp.element([[2, 0], [0, 3]]))
    assert embed_doubled(-e) == -embed_doubled(e)
