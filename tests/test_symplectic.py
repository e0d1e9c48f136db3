"""Symplectic spaces, Lagrangian enumeration, group element generation."""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import weilchar
from weilchar import symplectic
from weilchar.characters import AdditiveCharacter
from weilchar.charformula import closed_form_data_many
from weilchar.errors import DimensionMismatch, EnumerationTooLarge, InvariantViolation
from weilchar.field import Fp, FpMatrix, Subspace, _eliminate
from weilchar.symplectic import (
    Lagrangian,
    SymplecticSpace,
    diagonal_lagrangian,
    displacement_disc,
    kernel_of_displacement,
    standard_gram,
)

SP4_F3_ORDER = 51840


def space(p, n):
    return SymplecticSpace(Fp(p), n)


def test_standard_gram_is_alternating_invertible():
    for p, n in ((3, 1), (5, 2), (7, 3)):
        f = Fp(p)
        j = standard_gram(f, n)
        assert not np.any((j.a + j.a.T) % p)
        assert j.det() != 0


def test_form_on_standard_basis():
    sp = space(5, 2)
    e = np.eye(4, dtype=np.int64)
    assert sp.form(e[0], e[2]) == 1
    assert sp.form(e[2], e[0]) == 4
    assert sp.form(e[0], e[1]) == 0
    assert sp.form(e[1], e[3]) == 1


def test_rejects_degenerate_or_odd_gram():
    f = Fp(5)
    with pytest.raises(DimensionMismatch):
        SymplecticSpace(f, gram=FpMatrix(f, np.zeros((2, 2), np.int64)))
    with pytest.raises(DimensionMismatch):
        SymplecticSpace(f, gram=FpMatrix(f, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
    with pytest.raises(DimensionMismatch):
        SymplecticSpace(f, gram=FpMatrix(f, [[1, 1], [-1, 0]]))


def test_lagrangian_validation():
    sp = space(5, 1)
    l = sp.lagrangian([[1, 0]])
    assert l.dim == 1
    with pytest.raises(DimensionMismatch):
        sp.lagrangian([[1, 0], [0, 1]])  # not isotropic at full dim
    sp2 = space(5, 2)
    with pytest.raises(DimensionMismatch):
        sp2.lagrangian([[1, 0, 0, 0]])  # wrong dimension
    with pytest.raises(DimensionMismatch):
        sp2.lagrangian([[1, 0, 0, 0], [0, 0, 1, 0]])  # pairs to 1, not isotropic


def search_lagrangians(sp):
    """Reference enumeration: grow isotropic subspaces one vector of the
    symplectic perp at a time, dedup by canonical basis, sort by its bytes."""
    f, d = sp.field, sp.dim
    level = {Subspace.zero(f, d)}
    for _ in range(sp.n):
        nxt = set()
        for sub in level:
            perp = FpMatrix(f, (sub.basis.a @ sp.gram.a) % f.p).kernel()
            for v in perp.vectors():
                if np.any(v) and not sub.coordinates_many(v[None])[1][0]:
                    nxt.add(sub + Subspace.from_rows(f, d, v[None, :]))
        level = nxt
    return sorted((Lagrangian(sp, sub) for sub in level), key=lambda l: l.sub.basis.a.tobytes())


@pytest.mark.parametrize("p,n,count", [(3, 1, 4), (5, 1, 6), (3, 2, 40), (5, 2, 156),
                                       (7, 2, 400), (3, 3, 1120)])
def test_lagrangian_counts(p, n, count):
    sp = space(p, n)
    assert sp.lagrangian_count() == count
    lags = sp.all_lagrangians()
    assert len(lags) == count
    assert len({l for l in lags}) == count
    for l in lags:
        assert l.dim == n and sp.is_isotropic(l.sub)


@pytest.mark.parametrize("p,n,doubled", [(3, 1, False), (5, 1, False), (7, 1, False),
                                         (3, 2, False), (5, 2, False), (3, 1, True)])
def test_all_lagrangians_matches_reference_search(p, n, doubled):
    sp = space(p, n).doubled() if doubled else space(p, n)
    got = sp.all_lagrangians()
    want = search_lagrangians(sp)
    assert [l.sub.basis.a.tobytes() for l in got] == [l.sub.basis.a.tobytes() for l in want]
    assert [l.sub.pivots for l in got] == [l.sub.pivots for l in want]


def draw_gram_space(p, n, data):
    """The space with gram M^T J M for a drawn invertible basis change M."""
    f = Fp(p)
    d = 2 * n
    m = data.draw(st.lists(st.integers(0, p - 1), min_size=d * d, max_size=d * d))
    m = FpMatrix(f, np.array(m, dtype=np.int64).reshape(d, d))
    assume(m.det() != 0)
    return SymplecticSpace(f, gram=m.T @ standard_gram(f, n) @ m)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([3, 5, 7]), st.integers(1, 2), st.data())
def test_lagrangian_count_on_any_gram(p, n, data):
    """On the gram M^T J M of a random basis change M the enumeration maps
    the standard charts over; the count, distinctness and isotropy hold."""
    sp = draw_gram_space(p, n, data)
    lags = sp.all_lagrangians()
    assert len(lags) == sp.lagrangian_count()
    assert len(set(lags)) == len(lags)
    assert all(sp.is_isotropic(l.sub) for l in lags)


def test_all_lagrangians_cap():
    sp = space(97, 2)  # (97+1)(97^2+1) = 922580 subspaces
    with pytest.raises(EnumerationTooLarge):
        sp.all_lagrangians()


def test_sl2_enumeration_matches_order():
    sp = space(3, 1)
    els = sp.elements()
    assert len(els) == 24 == sp.order()
    seen = {e for e in els}
    assert len(seen) == 24


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_sl2_enumeration_keeps_the_lexicographic_loop_order(p):
    """Reference: every quadruple (a, b, c, d) in lexicographic order, kept
    when ad - bc = 1."""
    sp = space(p, 1)
    want = []
    for a, b, c, d in product(range(p), repeat=4):
        if (a * d - b * c) % p == 1:
            want.append(sp.element([[a, b], [c, d]]))
    assert sp.elements() == want


def test_sp4_f3_order_formula():
    assert space(3, 2).order() == SP4_F3_ORDER


def assert_whole_group(sp, els):
    """A list of validated elements that is distinct and of length order()
    is the whole group; it must also be sorted by matrix bytes."""
    keys = [g.mat.a.tobytes() for g in els]
    assert len(els) == sp.order()
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys)


def test_sp4_f3_enumeration():
    sp = space(3, 2)
    els = sp.elements()
    assert len(els) == SP4_F3_ORDER
    assert_whole_group(sp, els)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2)])
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_enumeration_on_any_gram(p, n, data):
    """The (transverse pair, GL_n) construction serves any gram M^T J M."""
    sp = draw_gram_space(p, n, data)
    assert_whole_group(sp, sp.elements())


def test_group_cap_enforced():
    with pytest.raises(EnumerationTooLarge):
        space(11, 2).elements()
    with pytest.raises(EnumerationTooLarge):
        space(11, 2).element_matrices()


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (13, 1), (3, 2)])
def test_element_matrices_are_the_validated_group_sorted_by_bytes(p, n):
    sp = space(p, n)
    mats = sp.element_matrices()
    assert mats.shape == (sp.order(), sp.dim, sp.dim) and mats.dtype == np.int64
    assert not mats.flags.writeable
    with pytest.raises(ValueError):
        mats[0, 0, 0] = 1
    keys = [g.tobytes() for g in mats]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    if n == 1:
        # the whole group: every validated quadruple with ad - bc = 1
        want = [sp.element([[a, b], [c, d]]).mat.a
                for a, b, c, d in product(range(p), repeat=4) if (a * d - b * c) % p == 1]
        assert np.array_equal(mats, np.stack(want))
    else:
        # the constructor's own check, element by element, on a spread of rows
        for g in mats[:: len(mats) // 500]:
            sp.element(g)
    els = sp.elements()
    assert np.array_equal(np.stack([g.mat.a for g in els]), mats)
    assert els[:50] == [sp.element(g) for g in mats[:50]]


def test_element_matrices_check_the_form_on_the_whole_stack(monkeypatch):
    """A corrupted Darboux inverse 2 B^-1 scales the form by 4 != 1 mod 5."""
    sp = space(5, 1)
    monkeypatch.setattr(SymplecticSpace, "_darboux_inv", lambda self: 2 * np.eye(2, dtype=np.int64))
    with pytest.raises(InvariantViolation):
        sp.element_matrices()
    with pytest.raises(InvariantViolation):
        sp.elements()
    with pytest.raises(InvariantViolation):
        sp.random_element_matrices(5, np.random.default_rng(0))


def test_transvection_is_symplectic_and_fixes_hyperplane():
    sp = space(7, 2)
    v = np.array([1, 2, 3, 4], dtype=np.int64)
    t = sp.transvection(v, 3)
    # symplectic by construction (validated in SpElement); fixes v and its perp
    assert np.array_equal((t.mat.a @ v) % 7, v)
    k = kernel_of_displacement(t)
    assert k.dim == 3
    assert k.coordinates_many(v[None])[1][0]


def test_random_element_is_symplectic_and_spreads():
    rng = np.random.default_rng(2)
    sp = space(5, 2)
    seen = set()
    for _ in range(60):
        g = sp.random_element(rng)  # constructor validates the form
        seen.add(g)
    assert len(seen) > 50


def test_random_lagrangian_valid():
    rng = np.random.default_rng(4)
    sp = space(7, 2)
    for _ in range(20):
        l = sp.random_lagrangian(rng)
        assert sp.is_isotropic(l.sub)
        assert l.dim == 2


def test_random_element_frozen_standard_draw():
    """Draws on the standard gram do not depend on the Darboux correction."""
    g = space(5, 2).random_element(np.random.default_rng(0))
    assert g.mat.tolist() == [[4, 0, 2, 1], [3, 4, 0, 3], [2, 0, 0, 0], [1, 3, 0, 0]]
    assert space(7, 1).random_element(np.random.default_rng(0)).mat.tolist() == [[5, 5], [4, 0]]
    l = space(5, 2).random_lagrangian(np.random.default_rng(0))
    assert l.sub.basis.tolist() == [[1, 0, 3, 0], [0, 1, 0, 2]]


@pytest.mark.parametrize("p,n,digest", [
    (3, 5, "26f7472fcfa01869334b65e89f9bfe5f1958651f19cf35eb9c94eeace8035dc9"),
    (7, 3, "6c67f5356dc377670247e0c162dbedb4a9163cff69c54815295a565587a5b671"),
    (97, 2, "66762ec016980e58eaa68d080ffcab96165576e9370d6d8b57431caae3b94f26"),
])
def test_random_element_frozen_draw_hashes(p, n, digest):
    """200 draws from the seed [p, n], hashed as little-endian int64 bytes."""
    sp = space(p, n)
    rng = np.random.default_rng([p, n])
    draws = np.stack([sp.random_element(rng).mat.a for _ in range(200)])
    assert hashlib.sha256(draws.astype("<i8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize("p,n,digest", [
    (3, 5, "eecfd6a5df86e21d64ac28ae07f78d4dc392b87dd87af863b4238a26da035eee"),
    (7, 3, "d0f4068f65741006d213778cf6f6db1dddac541aeb71d18dd2fb10e67132deaa"),
    (97, 2, "c754af44a739294f8a174b2ae4999c086d2d963ed0fc012df17dcbc18b2e166d"),
])
def test_random_element_matrices_frozen_draw_hashes(p, n, digest):
    """One stacked draw of 200 elements from the seed [p, n], hashed as
    little-endian int64 bytes: the stream of sampled `table` rows."""
    sp = space(p, n)
    mats = sp.random_element_matrices(200, np.random.default_rng([p, n]))
    assert mats.shape == (200, sp.dim, sp.dim) and not mats.flags.writeable
    assert hashlib.sha256(mats.astype("<i8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize("p,n", [(3, 1), (7, 2), (3, 3)])
def test_random_element_matrices_are_validated_group_elements(p, n):
    """Every drawn matrix passes the constructor's own check, and a stack
    of one is the element `random_element` draws from the same rng."""
    sp = space(p, n)
    mats = sp.random_element_matrices(40, np.random.default_rng(p * n))
    for g in mats:
        sp.element(g)
    one = sp.random_element_matrices(1, np.random.default_rng(5))
    assert np.array_equal(one[0], sp.random_element(np.random.default_rng(5)).mat.a)


def test_random_element_matrices_of_no_elements():
    sp = space(5, 2)
    rng = np.random.default_rng(1)
    mats = sp.random_element_matrices(0, rng)
    assert mats.shape == (0, 4, 4) and mats.dtype == np.int64 and not mats.flags.writeable
    # an empty sample takes nothing from the rng
    assert rng.integers(0, 2**62) == np.random.default_rng(1).integers(0, 2**62)


def test_random_element_matrices_draw_in_bounded_stacks(monkeypatch):
    """Past `_DRAW_STACK` the sample is drawn as successive stacks of at
    most that many bases from the one rng; up to it, as one stack."""
    monkeypatch.setattr(symplectic, "_DRAW_STACK", 4)
    sp = space(7, 2)
    sizes = []
    bases = SymplecticSpace._symplectic_bases

    def recording(self, count, rng):
        sizes.append(count)
        return bases(self, count, rng)

    monkeypatch.setattr(SymplecticSpace, "_symplectic_bases", recording)
    mats = sp.random_element_matrices(10, np.random.default_rng(3))
    assert sizes == [4, 4, 2]
    rng = np.random.default_rng(3)
    want = [sp.random_element_matrices(m, rng) for m in (4, 4, 2)]
    assert np.array_equal(mats, np.concatenate(want))
    sizes.clear()
    sp.random_element_matrices(4, np.random.default_rng(3))
    assert sizes == [4]


def test_random_lagrangians_of_none_takes_nothing():
    sp = space(5, 2)
    rng = np.random.default_rng(1)
    assert sp.random_lagrangians(0, rng) == []
    assert rng.integers(0, 2**62) == np.random.default_rng(1).integers(0, 2**62)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 2), (7, 3)])
def test_random_lagrangians_of_one_is_random_lagrangian(p, n):
    """A sample of one is the Lagrangian `random_lagrangian` draws and the
    one `Subspace.from_rows` makes of the span(e) rows of one drawn basis,
    and leaves the rng where both leave it."""
    sp = space(p, n)
    stacked, single, basis = (np.random.default_rng(p + n) for _ in range(3))
    [got] = sp.random_lagrangians(1, stacked)
    assert_same_lagrangian(got, sp.random_lagrangian(single))
    assert_same_lagrangian(got, eliminated(sp, sp._symplectic_bases(1, basis)[0][:, :n].T))
    assert stacked.integers(0, 2**62) == single.integers(0, 2**62) == basis.integers(0, 2**62)


@pytest.mark.parametrize("p,n,digest", [
    (3, 1, "7b1e98339a4e66184028d65d070cea2cb866d25dc819da63d888316e6c631496"),
    (5, 2, "7e1feb8f396a018f8a383a286da2687e3bf4e833c468f40ed4a13befd4ef3283"),
    (7, 3, "36f4664f4c19c527e4ecd725377277a51ec54ed3d200f14d9381a8813af793bc"),
])
def test_random_lagrangians_frozen_draw_hashes(p, n, digest):
    """One stacked draw of 200 Lagrangians from the seed [p, n], their rref
    bases hashed as little-endian int64 bytes: the stream of the `verify`
    suites' sampled Lagrangians."""
    sp = space(p, n)
    lags = sp.random_lagrangians(200, np.random.default_rng([p, n]))
    bases = np.stack([l.sub.basis.a for l in lags])
    assert hashlib.sha256(bases.astype("<i8").tobytes()).hexdigest() == digest


def test_random_lagrangians_draw_in_bounded_stacks(monkeypatch):
    """Past `_DRAW_STACK` the sample is drawn as successive stacks of at
    most that many bases from the one rng, and reduced together."""
    monkeypatch.setattr(symplectic, "_DRAW_STACK", 4)
    sp = space(7, 2)
    got = sp.random_lagrangians(10, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    want = [l for m in (4, 4, 2) for l in sp.random_lagrangians(m, rng)]
    assert len(got) == len(want) == 10
    for a, b in zip(got, want):
        assert_same_lagrangian(a, b)


@pytest.mark.parametrize("make", [lambda: space(3, 1), lambda: space(5, 2), lambda: space(3, 3),
                                  lambda: space(3, 1).doubled(), lambda: congruent_space(7, 2, 1)],
                         ids=["3-1", "5-2", "3-3", "doubled-3-1", "gram-7-2"])
def test_random_lagrangians_equal_their_eliminated_twins(make):
    """Each drawn Lagrangian equals the one `Subspace.from_rows` makes of the
    span(e) rows of the same symplectic basis, byte for byte, pivot for
    pivot, by == and by hash."""
    sp = make()
    got = sp.random_lagrangians(12, np.random.default_rng(sp.dim))
    bases = sp._symplectic_bases(12, np.random.default_rng(sp.dim))
    for l, basis in zip(got, bases):
        assert_same_lagrangian(l, eliminated(sp, basis[:, : sp.n].T))


def test_random_lagrangians_are_uniform_on_sp4_f3():
    """20,000 draws at (3, 2): each of the 40 Lagrangians appears within 5
    sigma of 500 times."""
    sp = space(3, 2)
    counts = Counter(sp.random_lagrangians(20_000, np.random.default_rng(12)))
    assert set(counts) == set(sp.all_lagrangians())
    sigma = np.sqrt(20_000 * (1 / 40) * (39 / 40))
    assert all(abs(c - 500) <= 5 * sigma for c in counts.values()), counts.values()


def test_stacked_draws_are_uniform_on_sl2_f3():
    """24,000 draws at (3, 1): each of the 24 elements appears within 5
    sigma of 1,000 times."""
    sp = space(3, 1)
    mats = sp.random_element_matrices(24_000, np.random.default_rng(11))
    code = 3 ** np.arange(4)  # each matrix as a base-3 number
    group = sp.element_matrices().reshape(24, -1) @ code
    drawn, counts = np.unique(mats.reshape(len(mats), -1) @ code, return_counts=True)
    assert np.array_equal(drawn, np.sort(group))
    sigma = np.sqrt(24_000 * (1 / 24) * (23 / 24))
    assert np.all(np.abs(counts - 1000) <= 5 * sigma), counts


def test_stacked_draws_have_the_exact_kernel_dimension_shares_on_sp4_f3():
    """20,000 draws at (3, 2): the share of each dim ker(g - 1) lies within
    5 sigma of its share of the whole group."""
    sp = space(3, 2)
    char = AdditiveCharacter(sp.field, 1)
    group = [k for k, _, _ in closed_form_data_many(char, sp, sp.element_matrices())]
    exact = np.bincount(group, minlength=5) / len(group)
    draws = sp.random_element_matrices(20_000, np.random.default_rng(12))
    drawn = np.bincount([k for k, _, _ in closed_form_data_many(char, sp, draws)], minlength=5)
    sigma = np.sqrt(20_000 * exact * (1 - exact))
    assert np.all(np.abs(drawn - 20_000 * exact) <= 5 * sigma), (drawn, exact)


def basis_by_all_constraints(sp, draw):
    """Reference: each complement as the kernel of every constraint row so far."""
    p = sp.field.p
    es, fs = [], []
    cons = np.zeros((0, sp.dim), dtype=np.int64)
    for _ in range(sp.n):
        ker = FpMatrix(sp.field, cons).kernel() if len(cons) else Subspace.full(sp.field, sp.dim)
        kb = ker.basis.a
        e = draw(kb, lambda v: bool(np.any(v)))
        f = draw(kb, lambda v: sp.form(e, v) != 0)
        f = (f * sp.field.inv(sp.form(e, f))) % p
        es.append(e)
        fs.append(f)
        cons = np.vstack([cons, (e @ sp.gram.a) % p, (f @ sp.gram.a) % p])
    return np.stack(es + fs, axis=1)


def recording_draw(rng, p, seen):
    """A one-vector draw from rng as `symplectic._pick_rows` makes it for a
    stack of one, recording each kb."""
    def draw(kb, accept):
        seen.append(kb.copy())
        while True:
            v = (rng.integers(0, p, kb.shape[0]) @ kb) % p
            if accept(v):
                return v
    return draw


def recording_picks(monkeypatch, seen):
    """Record the kb stack and the rows of every `_pick_rows` call."""
    pick = symplectic._pick_rows

    def recorder(kb, rng, p, eg=None):
        rows = pick(kb, rng, p, eg)
        seen.append((kb.copy(), rows.copy()))
        return rows

    monkeypatch.setattr(symplectic, "_pick_rows", recorder)


def congruent_space(p, n, seed):
    """F_p^2n with the gram B^T J B for a random invertible B."""
    f = Fp(p)
    rng = np.random.default_rng(seed)
    while True:
        b = rng.integers(0, p, (2 * n, 2 * n))
        if FpMatrix(f, b).det():
            break
    return SymplecticSpace(f, gram=FpMatrix(f, b.T @ standard_gram(f, n).a @ b))


@pytest.mark.parametrize("sp", [space(3, 3), space(5, 2), space(97, 1), space(3, 5),
                                space(5, 1).doubled(), congruent_space(7, 2, 1),
                                congruent_space(3, 3, 2)],
                         ids=["3-3", "5-2", "97-1", "3-5", "doubled-5-1", "gram-7-2", "gram-3-3"])
def test_symplectic_basis_equals_the_kernel_of_all_constraints(sp, monkeypatch):
    """Each complement, taken as R' kb from the last one, is the rref basis
    the kernel of all constraints gives.  A stack of one takes the same kb
    at every step and the same draws as the reference, and leaves the rng
    in the same state; in a stack of seven, each element's rows lie in its
    own complements, which are those the reference builds from that
    element's own e and f."""
    p = sp.field.p
    picks = []
    recording_picks(monkeypatch, picks)
    for seed in range(8):
        got_kbs, want_kbs = [], []
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(4):
            picks.clear()
            got = sp._symplectic_bases(1, rng_got)
            got_kbs += [kb[0] for kb, _ in picks]
            want = basis_by_all_constraints(sp, recording_draw(rng_want, p, want_kbs))
            assert got.shape == (1, sp.dim, sp.dim) and np.array_equal(got[0], want)
        assert len(got_kbs) == len(want_kbs)
        assert all(np.array_equal(a, b) for a, b in zip(got_kbs, want_kbs))
        assert rng_got.integers(0, 2**62) == rng_want.integers(0, 2**62)
    for seed in range(3):
        picks.clear()
        got = sp._symplectic_bases(7, np.random.default_rng(seed))
        assert len(picks) == 2 * sp.n
        for j in range(7):
            fed = iter([rows[j] for _, rows in picks])
            kbs = []

            def draw(kb, accept):
                kbs.append(kb.copy())
                v = next(fed)
                assert accept(v) and sp.subspace(kb).coordinates_many(v[None])[1][0]
                return v

            assert np.array_equal(got[j], basis_by_all_constraints(sp, draw))
            assert all(np.array_equal(a, kb[j]) for a, (kb, _) in zip(kbs, picks, strict=True))
    first = lambda kb, accept: next(v for v in kb if accept(v))
    want = basis_by_all_constraints(sp, first)
    assert np.array_equal(sp._symplectic_bases(1, None)[0], want)
    assert np.array_equal(sp._darboux_basis(), want)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_random_draws_on_the_doubled_space(p):
    w = space(p, 1).doubled()
    gram = w.gram.a
    rng = np.random.default_rng(p)
    seen = set()
    for _ in range(10):
        g = w.random_element(rng)
        assert not np.any((g.mat.a.T @ gram @ g.mat.a - gram) % p)
        seen.add(g)
        l = w.random_lagrangian(rng)
        assert l.dim == 2 and w.is_isotropic(l.sub)
    assert len(seen) == 10


def test_element_transforms_lagrangians():
    sp = space(5, 1)
    g = sp.element([[2, 0], [0, 3]])
    l = sp.standard_lagrangian()
    assert l.transform(g) == l
    h = sp.element([[0, 1], [4, 0]])
    assert l.transform(h) == sp.lagrangian([[0, 1]])


def test_inverse_and_products():
    rng = np.random.default_rng(12)
    sp = space(7, 2)
    eye = sp.identity()
    for _ in range(20):
        g = sp.random_element(rng)
        h = sp.random_element(rng)
        assert (g * g.inv()) == eye
        assert ((g * h).inv()) == (h.inv() * g.inv())


def test_graph_and_diagonal_are_doubled_lagrangians():
    sp = space(5, 2)
    dd = sp.doubled()
    rng = np.random.default_rng(9)
    assert diagonal_lagrangian(sp).sub.dim == 4
    for _ in range(10):
        g = sp.random_element(rng)
        gr = g.graph()
        assert gr.space == dd
        assert dd.is_isotropic(gr.sub)
    assert sp.identity().graph() == diagonal_lagrangian(sp)


def test_graph_doubled_and_diagonal_are_built_once():
    sp = space(5, 2)
    w = sp.doubled()
    g = sp.random_element(np.random.default_rng(3))
    gr = g.graph()
    assert g.graph() is gr
    rows = np.hstack([np.eye(4, dtype=np.int64), g.mat.a.T])
    assert gr == Lagrangian(w, Subspace.from_rows(w.field, w.dim, rows))
    l = sp.random_lagrangian(np.random.default_rng(4))
    ld = l.doubled()
    assert l.doubled() is ld
    b = l.sub.basis.a
    rows = np.block([[b, np.zeros_like(b)], [np.zeros_like(b), b]])
    assert ld == Lagrangian(w, Subspace.from_rows(w.field, w.dim, rows))
    assert diagonal_lagrangian(sp) is diagonal_lagrangian(sp)
    assert diagonal_lagrangian(sp) == sp.identity().graph()


def eliminated(sp, rows):
    return Lagrangian(sp, Subspace.from_rows(sp.field, sp.dim, rows))


def assert_same_lagrangian(got, want):
    assert got.space == want.space
    assert got.sub.basis.shape == want.sub.basis.shape
    assert got.sub.basis.a.tobytes() == want.sub.basis.a.tobytes()
    assert got.sub.pivots == want.sub.pivots
    assert got == want and hash(got) == hash(want)


@pytest.mark.parametrize("make", [lambda: space(3, 1), lambda: space(5, 2), lambda: space(7, 3),
                                  lambda: space(3, 5), lambda: space(3, 1).doubled(),
                                  lambda: space(5, 2).doubled(), lambda: congruent_space(7, 2, 1),
                                  lambda: congruent_space(3, 3, 2)],
                         ids=["3-1", "5-2", "7-3", "3-5", "doubled-3-1", "doubled-5-2",
                              "gram-7-2", "gram-3-3"])
def test_library_built_lagrangians_equal_their_eliminated_twins(make):
    """graph(), the diagonal, l.doubled() and the standard Lagrangian skip
    the elimination of their rows; each equals the Lagrangian that
    `Subspace.from_rows` makes of the same rows, byte for byte and pivot for
    pivot, and the doubled space equals the one a checked gram makes."""
    sp = make()
    f, d = sp.field, sp.dim
    w = sp.doubled()
    assert w.gram.det() != 0
    big = np.zeros((2 * d, 2 * d), dtype=np.int64)
    big[:d, :d] = -sp.gram.a
    big[d:, d:] = sp.gram.a
    assert w == SymplecticSpace(f, gram=FpMatrix(f, big))
    eye = np.eye(d, dtype=np.int64)
    assert_same_lagrangian(diagonal_lagrangian(sp), eliminated(w, np.hstack([eye, eye])))
    standard = np.zeros((sp.n, d), dtype=np.int64)
    standard[:, : sp.n] = np.eye(sp.n, dtype=np.int64)
    if sp.is_isotropic(Subspace.from_rows(f, d, standard)):
        assert_same_lagrangian(sp.standard_lagrangian(), eliminated(sp, standard))
    else:
        with pytest.raises(DimensionMismatch):
            eliminated(sp, standard)
        with pytest.raises(DimensionMismatch):
            sp.standard_lagrangian()
    rng = np.random.default_rng(d)
    for _ in range(4):
        g = sp.random_element(rng)
        assert_same_lagrangian(g.graph(), eliminated(w, np.hstack([eye, g.mat.a.T])))
        l = sp.random_lagrangian(rng)
        b = l.sub.basis.a
        z = np.zeros_like(b)
        assert_same_lagrangian(l.doubled(), eliminated(w, np.block([[b, z], [z, b]])))
        moved = l.transform(g)
        assert_same_lagrangian(moved, eliminated(sp, l.sub.basis.a @ g.mat.a.T))
        b = moved.sub.basis.a
        assert_same_lagrangian(moved.doubled(), eliminated(w, np.block([[b, z], [z, b]])))


@pytest.mark.parametrize("make", [lambda: space(3, 1), lambda: space(5, 2), lambda: space(7, 3),
                                  lambda: space(5, 2).doubled(), lambda: congruent_space(7, 2, 1)],
                         ids=["3-1", "5-2", "7-3", "doubled-5-2", "gram-7-2"])
@pytest.mark.parametrize("count", [0, 1, 7])
def test_stacked_transport_equals_the_scalar_reference(make, count):
    """`_transformed` of a stack of moved bases b g^T equals, pair by pair,
    the Lagrangian built from the scalar loop `_eliminate` of the same rows,
    byte for byte, pivot for pivot, by == and by hash; so does the
    one-element call `Lagrangian.transform`."""
    sp = make()
    f, d = sp.field, sp.dim
    rng = np.random.default_rng(10 * d + count)
    pairs = [(sp.random_element(rng), sp.random_lagrangian(rng)) for _ in range(count)]
    rows = np.zeros((count, sp.n, d), dtype=np.int64)
    for i, (g, l) in enumerate(pairs):
        rows[i] = l.sub.basis.a @ g.mat.a.T % f.p
    got = symplectic._transformed(sp, rows)
    assert len(got) == count
    for moved, (g, l), b in zip(got, pairs, rows):
        red, pivots, _ = _eliminate(b, f)
        want = Lagrangian(sp, Subspace(f, d, FpMatrix(f, red[:len(pivots)]), pivots))
        assert_same_lagrangian(moved, want)
        assert_same_lagrangian(l.transform(g), want)


def test_transport_of_a_non_symplectic_matrix_raises_under_python_O():
    """python -O strips assert: a matrix that sends l to a non-isotropic or a
    smaller subspace still raises DimensionMismatch from the transport."""
    env = dict(os.environ, PYTHONPATH=str(Path(weilchar.__file__).parents[1]))
    script = """
import types
import numpy as np
from weilchar.errors import DimensionMismatch
from weilchar.field import Fp, FpMatrix
from weilchar.symplectic import SymplecticSpace, _transformed
sp = SymplecticSpace(Fp(5), 2)
l = sp.standard_lagrangian()
swap = np.eye(4, dtype=np.int64)[[0, 2, 1, 3]]  # e2 -> f1: span(e1, f1) is not isotropic
flat = np.diag([1, 0, 1, 1])  # e2 -> 0: the image is a line
for bad in (swap, flat):
    for move in (lambda: _transformed(sp, (l.sub.basis.a @ bad.T)[None]),
                 lambda: l.transform(types.SimpleNamespace(mat=FpMatrix(sp.field, bad)))):
        try:
            move()
        except DimensionMismatch:
            continue
        raise SystemExit(f"moved l by {bad.tolist()}")
print("typed")
"""
    run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert (run.returncode, run.stdout.strip(), run.stderr) == (0, "typed", "")


def test_reduced_lagrangian_checks_its_shapes():
    """The trusted rref path still refuses rows whose count, pivot count or
    width does not fit the space, with DimensionMismatch."""
    sp = space(5, 2)
    rows = np.eye(2, 4, dtype=np.int64)
    assert symplectic._reduced_lagrangian(sp, rows, (0, 1)) == sp.standard_lagrangian()
    for bad_rows, pivots in ((rows, (0,)), (rows, (0, 1, 2)), (rows[:1], (0,)),
                             (np.eye(2, 6, dtype=np.int64), (0, 1))):
        with pytest.raises(DimensionMismatch):
            symplectic._reduced_lagrangian(sp, bad_rows, pivots)


def test_user_input_raises_typed_errors_under_python_O():
    """python -O strips assert: a bad gram still raises DimensionMismatch,
    and a non-isotropic --l still exits 2 with its message."""
    env = dict(os.environ, PYTHONPATH=str(Path(weilchar.__file__).parents[1]))
    script = """
import numpy as np
from weilchar.errors import DimensionMismatch
from weilchar.field import Fp, FpMatrix
from weilchar.symplectic import SymplecticSpace
f = Fp(5)
bad = [np.zeros((2, 2), np.int64), [[0, 1, 0], [-1, 0, 0], [0, 0, 0]], [[1, 1], [-1, 0]]]
for gram in bad:
    try:
        SymplecticSpace(f, gram=FpMatrix(f, gram))
    except DimensionMismatch:
        continue
    raise SystemExit(f"accepted {gram}")
print("typed")
"""
    run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert (run.returncode, run.stdout.strip(), run.stderr) == (0, "typed", "")
    eye = ",".join(str(int(i == j)) for i in range(4) for j in range(4))
    run = subprocess.run([sys.executable, "-O", "-m", "weilchar", "trace", "--p", "5", "--n", "2",
                          "--g", eye, "--l", "1,0,0,0,0,0,1,0"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 2
    assert "not isotropic" in run.stderr


def test_displacement_kernel_and_disc():
    sp = space(5, 1)
    g = sp.element([[2, 0], [0, 3]])
    assert kernel_of_displacement(g).dim == 0
    # pairing <(g-1)v, w> on the standard basis: det = 2 mod 5, a nonsquare
    d = displacement_disc(g)
    assert not d.is_square
    assert kernel_of_displacement(sp.identity()).dim == 2
    assert displacement_disc(sp.identity()).is_square  # empty form, unit class


def test_displacement_disc_complement_independent():
    rng = np.random.default_rng(23)
    sp = space(7, 2)
    for _ in range(25):
        g = sp.random_element(rng)
        ker = kernel_of_displacement(g)
        if ker.dim in (0, sp.dim):
            continue
        base = displacement_disc(g)
        # rebuild with an explicitly randomized complement
        comp = ker.complement_std()
        mix = rng.integers(0, 7, (comp.dim, ker.dim))
        rows = (comp.basis.a + mix @ ker.basis.a) % 7
        other = Subspace.from_rows(sp.field, sp.dim, rows)
        assert displacement_disc(g, other) == base


def test_doubled_space_gram_blocks():
    sp = space(3, 1)
    dd = sp.doubled()
    j = sp.gram.a
    expect = np.block([
        [(-j) % 3, np.zeros((2, 2), np.int64)],
        [np.zeros((2, 2), np.int64), j],
    ])
    assert np.array_equal(dd.gram.a, expect % 3)


def test_lagrangian_transform_and_doubling():
    sp = space(5, 1)
    l = sp.standard_lagrangian()
    ld = l.doubled()
    assert ld.space == sp.doubled()
    assert ld.dim == 2
    g = sp.element([[1, 1], [0, 1]])
    assert l.transform(g) == l
    assert sp.lagrangian([[0, 1]]).transform(g) == sp.lagrangian([[1, 1]])


def reference_equal(a, b):
    """Lagrangian equality by the rule before byte keys: the same field and
    gram matrix, and the same rref basis."""
    return (isinstance(b, Lagrangian) and a.space.field == b.space.field
            and a.space.gram == b.space.gram and a.sub == b.sub)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2)])
def test_byte_key_equality_agrees_with_the_reference_rule(p, n):
    """Over every Lagrangian and its image under a random element, == by
    byte key agrees with the reference rule on every pair, equal Lagrangians
    hash alike, and each Lagrangian hashes to its own key's hash."""
    sp = space(p, n)
    lags = sp.all_lagrangians()
    g = sp.random_element(np.random.default_rng(p * n))
    images = [l.transform(g) for l in lags]
    fresh = [eliminated(sp, l.sub.basis.a) for l in lags]
    for a in lags + images:
        for b in lags + images + fresh:
            assert (a == b) == reference_equal(a, b) == (b == a)
            if a == b:
                assert hash(a) == hash(b)
    assert sorted(images, key=lambda l: l.sub.basis.a.tobytes()) == lags
    assert len(set(lags + images + fresh)) == len(lags)
    assert lags[0] != lags[0].sub and sp != lags[0]


def test_byte_key_tells_apart_the_same_basis_in_another_gram():
    """A rref basis that is Lagrangian for both the standard gram and a
    congruent one gives two unequal Lagrangians of unequal spaces."""
    other, std = congruent_space(7, 2, 1), space(7, 2)
    assert other != std and std != other and hash(other) != hash(std)
    shared = [l for l in other.all_lagrangians() if std.is_isotropic(l.sub)]
    assert shared
    for l in shared:
        twin = Lagrangian(std, l.sub)
        assert twin.sub.basis.a.tobytes() == l.sub.basis.a.tobytes()
        assert l != twin and twin != l and not reference_equal(l, twin)
        assert twin not in set(other.all_lagrangians())
