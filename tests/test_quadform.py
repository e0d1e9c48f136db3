"""Quadratic forms: diagonalization, Witt data, Weil index fast vs brute."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilchar.characters import AdditiveCharacter, approx_eq
from weilchar.errors import EnumerationTooLarge
from weilchar.field import Fp, FpMatrix, SquareClass, _rank_dets_many
from weilchar import quadform
from weilchar.quadform import (
    QuadraticSpace,
    WittInvariants,
    _gammas_of,
    weil_index,
    weil_index_bruteforce,
    witt_invariants,
)


def rand_sym(rng, p, dim):
    m = rng.integers(0, p, (dim, dim))
    return (m + m.T) % p


def test_rejects_asymmetric_gram():
    f = Fp(5)
    with pytest.raises(ValueError):
        QuadraticSpace(f, FpMatrix(f, [[0, 1], [2, 0]]))


def test_value_and_pairing_conventions():
    f = Fp(7)
    q = QuadraticSpace(f, FpMatrix(f, [[2, 3], [3, 5]]))
    # value(v) = v gram v, pairing is the full symmetric matrix
    assert q.value([1, 0]) == 2
    assert q.value([0, 1]) == 5
    assert q.value([1, 1]) == (2 + 5 + 2 * 3) % 7
    assert q.pairing([1, 0], [0, 1]) == 3


def test_diagonalize_congruence_random():
    """Random grams, and fixed ones whose spanning rows are all isotropic so
    that an anisotropic vector must be built as the sum of two rows: the
    hyperbolic plane H, H + H and H plus a radical line."""
    h = [[0, 1], [1, 0]]
    hh = np.kron(np.eye(2, dtype=np.int64), h)
    h_rad = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    rng = np.random.default_rng(7)
    for p in (3, 5, 7):
        f = Fp(p)
        grams = [rand_sym(rng, p, int(rng.integers(1, 5))) for _ in range(40)]
        for gram in grams + [h, hh, h_rad]:
            q = QuadraticSpace(f, FpMatrix(f, gram))
            a, diag = q.diagonal_transform()
            got = (a.a @ q.gram.a @ a.a.T) % p
            assert np.array_equal(got, np.diag(diag) % p)
            assert a.det() != 0


def test_diagonalize_strips_radical():
    f = Fp(5)
    gram = FpMatrix(f, [[0, 0, 0], [0, 2, 0], [0, 0, 0]])
    q = QuadraticSpace(f, gram)
    assert q.rank() == 1
    assert q.radical().dim == 2
    assert list(q.diagonalize()) == [2]


def test_disc_of_diagonal_forms():
    f = Fp(7)
    q = QuadraticSpace.diagonal(f, [1, 2, 4])
    assert q.disc().rep == (1 if f.legendre(8) == 1 else f.nonsquare)
    z = QuadraticSpace.zero(f, 3)
    assert z.rank() == 0
    assert z.disc().is_square  # empty product


def test_block_sum_and_negation():
    f = Fp(5)
    a = QuadraticSpace.diagonal(f, [1])
    b = QuadraticSpace.diagonal(f, [2, 3])
    s = a + b
    assert s.dim == 3
    assert sorted(s.diagonalize()) == sorted([1, 2, 3])
    n = -b
    assert sorted(n.diagonalize()) == sorted([(-2) % 5, (-3) % 5])


def test_hyperbolic_plane_invariants():
    for p in (3, 5, 7, 11):
        f = Fp(p)
        ch = AdditiveCharacter(f)
        h = QuadraticSpace(f, [[0, 1], [1, 0]])
        assert h.rank() == 2
        # disc is the class of -1; gamma is 1 on a hyperbolic plane
        assert h.disc().is_square == (f.legendre(-1) == 1)
        assert approx_eq(weil_index(ch, h), 1.0, 1e-10)


@pytest.mark.parametrize("p,dim", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2), (11, 1)])
def test_weil_index_fast_vs_bruteforce(p, dim):
    rng = np.random.default_rng(100 * p + dim)
    f = Fp(p)
    ch = AdditiveCharacter(f)
    for _ in range(25):
        q = QuadraticSpace(f, FpMatrix(f, rand_sym(rng, p, dim)))
        assert approx_eq(weil_index(ch, q), weil_index_bruteforce(ch, q), 1e-8)


def test_bruteforce_degenerate_normalization():
    # a form with a radical still has a unit-modulus index after normalization
    f = Fp(5)
    ch = AdditiveCharacter(f)
    q = QuadraticSpace(f, FpMatrix(f, [[0, 0], [0, 3]]))
    v = weil_index_bruteforce(ch, q)
    assert approx_eq(v, ch.gamma(3), 1e-10)


def test_bruteforce_cap():
    f = Fp(7)
    ch = AdditiveCharacter(f)
    q = QuadraticSpace.zero(f, 8)  # 7^8 points is over the default cap
    with pytest.raises(EnumerationTooLarge):
        weil_index_bruteforce(ch, q)


def test_weil_index_product_rule_on_forms():
    rng = np.random.default_rng(321)
    f = Fp(7)
    ch = AdditiveCharacter(f)
    for _ in range(25):
        entries = [int(x) for x in rng.integers(1, 7, 3)]
        q = QuadraticSpace.diagonal(f, entries)
        det = 1
        for e in entries:
            det = det * e % 7
        want = ch.gamma(1) ** 2 * ch.gamma(det)
        assert approx_eq(weil_index(ch, q), want, 1e-10)


def test_witt_invariants_same_and_sum():
    f = Fp(5)
    ch = AdditiveCharacter(f)
    a = witt_invariants(ch, QuadraticSpace.diagonal(f, [1, 2]))
    b = witt_invariants(ch, QuadraticSpace.diagonal(f, [2, 1]))
    assert a.same(b)
    c = witt_invariants(ch, QuadraticSpace.diagonal(f, [3]))
    s = a + c
    d = witt_invariants(ch, QuadraticSpace.diagonal(f, [1, 2, 3]))
    assert s.same(d)


def test_witt_equal_ignores_hyperbolic_summands():
    f = Fp(7)
    ch = AdditiveCharacter(f)
    base = QuadraticSpace.diagonal(f, [3])
    padded = base + QuadraticSpace(f, [[0, 1], [1, 0]])
    a = witt_invariants(ch, base)
    b = witt_invariants(ch, padded)
    assert not a.same(b)  # ranks differ
    assert a.witt_equal(b)
    assert b.witt_equal(a)


def test_witt_equal_separates_classes():
    f = Fp(5)
    ch = AdditiveCharacter(f)
    a = witt_invariants(ch, QuadraticSpace.diagonal(f, [1]))
    b = witt_invariants(ch, QuadraticSpace.diagonal(f, [2]))
    assert not a.witt_equal(b)
    odd = witt_invariants(ch, QuadraticSpace.diagonal(f, [1, 3]))
    assert not a.witt_equal(odd)  # parity obstruction


def test_nondegenerate_part_preserves_index():
    rng = np.random.default_rng(55)
    f = Fp(3)
    ch = AdditiveCharacter(f)
    for _ in range(30):
        dim = int(rng.integers(1, 5))
        q = QuadraticSpace(f, FpMatrix(f, rand_sym(rng, 3, dim)))
        nd = q.nondegenerate_part()
        assert nd.radical().dim == 0
        assert nd.rank() == q.rank()
        assert approx_eq(weil_index(ch, q), weil_index(ch, nd), 1e-10)
        assert q.disc() == nd.disc()


@st.composite
def symmetric_grams(draw):
    """(p, gram) with gram = B^T (S + S^T) B for a k x k matrix S and a k x dim
    matrix B, so its rank is at most k: degenerate grams come up often."""
    p = draw(st.sampled_from((3, 5, 7, 11)))
    dim = draw(st.integers(0, 6))
    k = draw(st.integers(0, dim))
    entries = st.lists(st.integers(0, p - 1), min_size=k * (k + dim), max_size=k * (k + dim))
    flat = np.array(draw(entries), dtype=np.int64)
    s = flat[: k * k].reshape(k, k)
    b = flat[k * k :].reshape(k, dim)
    return p, (b.T @ (s + s.T) @ b) % p


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(symmetric_grams())
def test_witt_data_from_minor_equals_diagonalization(case):
    """Rank, disc and gamma from det gram[I, I] equal those of the diagonal
    form that `diagonalize` finds, and the Weil index equals the direct sum."""
    p, gram = case
    f = Fp(p)
    ch = AdditiveCharacter(f)
    q = QuadraticSpace(f, gram)
    entries = q.diagonalize()
    det, want = 1, 1 + 0j
    for e in entries:
        det = det * e % p
        want *= ch.gamma(e)
    inv = witt_invariants(ch, q)
    assert inv.rank == len(entries) == q.rank()
    assert inv.disc == q.disc() == SquareClass.of(f, det)
    assert abs(inv.gamma - want) <= 1e-12
    assert abs(weil_index(ch, q) - want) <= 1e-12
    if p ** q.dim <= 10**4:
        assert abs(weil_index_bruteforce(ch, q) - want) <= 1e-9


@pytest.mark.parametrize("scale", [1, 2])
def test_weil_index_is_one_float_per_congruence_class(scale):
    """At p = 97 the Gauss sums of the 48 squares differ in their last bits,
    yet the Weil index of B^T G B is the same float for every invertible B,
    on the single and the stacked route."""
    p = 97
    f = Fp(p)
    ch = AdditiveCharacter(f, scale)
    rng = np.random.default_rng([p, scale])
    for dim in (1, 2, 3, 4):
        gram = rand_sym(rng, p, dim)
        if dim > 2:
            gram[-1] = gram[:, -1] = 0  # a radical direction as well
        want = weil_index(ch, QuadraticSpace(f, gram))
        congruent = []
        while len(congruent) < 30:
            b = rng.integers(0, p, (dim, dim))
            if FpMatrix(f, b).det():
                congruent.append((b.T @ gram @ b) % p)
        for c in congruent:
            q = QuadraticSpace(f, c)
            assert weil_index(ch, q) == want
            assert witt_invariants(ch, q).gamma == want
        assert _gammas_of(ch, *_rank_dets_many(np.array(congruent), f)) == [want] * len(congruent)


@pytest.mark.parametrize("p", [3, 5, 13, 97])
def test_weil_indices_equal_the_single_route(p, monkeypatch):
    """The stacked Weil indices equal `weil_index` under ==, zero grams
    included, with one `_gamma_of` call per distinct (rank, square class)."""
    f = Fp(p)
    ch = AdditiveCharacter(f, 2)
    rng = np.random.default_rng(p)
    grams = [rand_sym(rng, p, 4) for _ in range(40)]
    grams += [np.zeros((4, 4), dtype=np.int64), np.diag([0, 0, 0, 1])]
    for g in grams[:10]:
        g[-1] = g[:, -1] = 0  # rank at most 3
    want = [weil_index(ch, QuadraticSpace(f, g)) for g in grams]
    keys = {(q.rank(), q.disc()) for q in (QuadraticSpace(f, g) for g in grams)}
    calls = []
    gamma_of = quadform._gamma_of
    monkeypatch.setattr(quadform, "_gamma_of",
                        lambda *args: calls.append(args[1:]) or gamma_of(*args))
    assert _gammas_of(ch, *_rank_dets_many(np.array(grams), f)) == want
    assert len(calls) == len(keys)
    assert _gammas_of(ch, *_rank_dets_many(np.zeros((0, 3, 3), dtype=np.int64), f)) == []
