"""Top-level acceptance checks.

Each test covers one headline claim end to end and prints a single
pass/fail summary line; run `pytest tests/test_acceptance.py -v -s`
to see the lines as they are produced.
"""

import itertools
import math
import time

import numpy as np

from weilchar.characters import AdditiveCharacter
from weilchar.charformula import (
    check_inverse_identity,
    check_kernel_dims,
    check_maslov_classes,
    check_transfer_isometry,
    diagonal_forms,
    trace_closed_form,
    trace_from_factor,
)
from weilchar.field import Fp, FpMatrix
from weilchar.maslov import (
    Orientation,
    edge_factors,
    maslov_form,
    maslov_gamma,
    predicted_rank_discs,
)
from weilchar.metaplectic import (
    character_factor,
    character_factor_doubled,
    embed_doubled,
    mp_products,
    split_lift,
    split_lifts,
    split_values,
)
from weilchar.quadform import (
    QuadraticSpace,
    weil_index,
    weil_index_bruteforce,
)
from weilchar.schrodinger import intertwiner, trace_oracle, weil_operator
from weilchar.symplectic import SymplecticSpace, kernel_of_displacement


def _setup(p, n):
    field = Fp(p)
    return AdditiveCharacter(field), SymplecticSpace(field, n)


def _report(ok, label, t0):
    print(f"{'PASS' if ok else 'FAIL'} [{time.perf_counter() - t0:5.1f}s] {label}")


def _seeded(*key):
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def test_1_traces_three_ways_on_all_of_sl2():
    t0 = time.perf_counter()
    worst, witness = 0.0, None
    for p in (3, 5, 7, 11):
        char, sp = _setup(p, 1)
        l0 = sp.standard_lagrangian()
        elems = sp.elements()
        assert len(elems) == p * (p * p - 1)
        tol = 1e-8 * p
        for g in elems:
            e = split_lift(char, g, l0)
            oracle = trace_oracle(e, l0)
            err = max(
                abs(oracle - trace_closed_form(char, g)),
                abs(oracle - trace_from_factor(e, l0)),
            )
            worst = max(worst, err)
            if err > tol and witness is None:
                witness = (p, g.mat.a.tolist(), err)
    ok = witness is None
    _report(ok, "trace identities three ways on all of SL2(F_p), p=3,5,7,11 "
                f"(max err {worst:.1e})", t0)
    assert ok, witness


def test_2_sl2_trace_value_table_and_named_elements():
    t0 = time.perf_counter()
    quarter_turn_signs = {5: -1, 7: -1, 11: 1, 17: 1}
    ok, witness = True, None

    def note(cond, *info):
        nonlocal ok, witness
        if not cond and witness is None:
            ok, witness = False, info

    for p in (5, 7, 11, 17):
        char, sp = _setup(p, 1)
        field = char.field
        g1 = char.gamma(1)
        rt = math.sqrt(p)

        def predicted(mat):
            (a, b), (c, d) = mat
            t = (a + d - 2) % p
            if t:
                return complex(field.legendre(t))
            if b % p:
                return rt * g1 * field.legendre(b)
            if c % p:
                return rt * g1 * field.legendre(-c % p)
            return complex(p)

        # every group element lands in exactly one row of the table
        for g in sp.elements():
            err = abs(trace_closed_form(char, g) - predicted(g.mat.a.tolist()))
            note(err <= 1e-8 * p, "table", p, g.mat.a.tolist(), err)

        # named elements: diagonal-similar, shear, quarter turn; all routes
        named = []
        for a in (2, p - 1):
            for b in (0, 1):
                named.append(([[a, b], [0, field.inv(a)]],
                              complex(field.legendre(a))))
        for b in (1, field.nonsquare):
            named.append(([[1, b], [0, 1]], rt * g1 * field.legendre(b)))
        named.append(([[0, 1], [p - 1, 0]],
                      complex(field.legendre(-2 % p))))
        for mat, want in named:
            g = sp.element(mat)
            e = split_lift(char, g)
            for route in (trace_closed_form(char, g), trace_oracle(e),
                          trace_from_factor(e)):
                note(abs(route - want) <= 1e-8 * p, "named", p, mat,
                     complex(route), complex(want))

        # quarter turn sign depends only on p mod 8
        note(field.legendre(-2 % p) == quarter_turn_signs[p], "mod8", p)

    _report(ok, "SL2 trace table rows and named elements reproduce, p=5,7,11,17", t0)
    assert ok, witness


def test_3_sp4_seeded_traces_with_forced_singular_cases():
    t0 = time.perf_counter()

    def on_planes(sp, m1, m2):
        big = np.zeros((4, 4), dtype=np.int64)
        for i, m in enumerate((m1, m2)):
            big[i][i], big[i][2 + i] = m[0][0], m[0][1]
            big[2 + i][i], big[2 + i][2 + i] = m[1][0], m[1][1]
        return sp.element(big)

    worst, witness = 0.0, None
    for p in (3, 5, 7):
        char, sp = _setup(p, 2)
        shear = [[1, 1], [0, 1]]
        stretch = [[2, 0], [0, pow(2, -1, p)]]
        plane_id = [[1, 0], [0, 1]]
        forced = [
            sp.identity(),
            sp.transvection([1, 0, 0, 0]),
            sp.transvection([0, 1, 1, 1], 2),
            on_planes(sp, stretch, plane_id),
            on_planes(sp, stretch, shear),
            on_planes(sp, shear, shear),
        ]
        assert {1, 2, 3, 4} <= {kernel_of_displacement(g).dim for g in forced}
        rng = _seeded(30, p)
        elems = forced + [sp.random_element(rng) for _ in range(200 - len(forced))]
        tol = 1e-8 * p * p
        for g in elems:
            e = split_lift(char, g)
            oracle = trace_oracle(e)
            err = max(
                abs(oracle - trace_closed_form(char, g)),
                abs(oracle - trace_from_factor(e)),
            )
            worst = max(worst, err)
            if err > tol and witness is None:
                witness = (p, g.mat.a.tolist(), err)
    ok = witness is None
    _report(ok, "Sp4 traces three ways, 200 seeded elements per p=3,5,7 with "
                f"singular displacements forced (max err {worst:.1e})", t0)
    assert ok, witness


def test_4_operator_products_follow_the_group():
    t0 = time.perf_counter()
    worst, witness = 0.0, None

    # exhaustive over both lifts of every element at p = 3; every lift and
    # split value from one stacked call, every product from one more
    char, sp = _setup(3, 1)
    elems = sp.elements()
    plus = split_lifts(char, elems)
    splits = split_values(char, np.stack([g.mat.a for g in elems]), sp.standard_lagrangian())
    cache = {g.mat.a.tobytes(): (weil_operator(e), t) for g, e, t in zip(elems, plus, splits)}

    def op_of(e):
        base_op, t_split = cache[e.g.mat.a.tobytes()]
        return (e.t0 / t_split) * base_op

    lifts = [e if s == 1 else -e for e in plus for s in (1, -1)]
    assert len(lifts) == 48
    ops = [op_of(e) for e in lifts]
    products = iter(mp_products([e1 for e1 in lifts for _ in lifts], lifts * len(lifts)))
    tol = 1e-8 * 3
    for i, e1 in enumerate(lifts):
        for j, e2 in enumerate(lifts):
            err = float(np.max(np.abs(ops[i] @ ops[j] - op_of(next(products)))))
            worst = max(worst, err)
            if err > tol and witness is None:
                witness = (3, 1, i, j, err)

    # seeded pairs on the larger cells: every (s1, s2, g1, g2) drawn first, in
    # the order of the draws, then one stacked lift and one stacked product
    for p, n in ((5, 1), (7, 1), (3, 2)):
        char, sp = _setup(p, n)
        rng = _seeded(40, p, n)
        tol = 1e-8 * p**n
        draws = [(*(1 - 2 * rng.integers(0, 2, 2)), sp.random_element(rng),
                  sp.random_element(rng)) for _ in range(1000)]
        lifted = split_lifts(char, [g for _, _, g1, g2 in draws for g in (g1, g2)])
        lefts = [e if s == 1 else -e for (s, _, _, _), e in zip(draws, lifted[0::2])]
        rights = [e if s == 1 else -e for (_, s, _, _), e in zip(draws, lifted[1::2])]
        for e1, e2, e12 in zip(lefts, rights, mp_products(lefts, rights)):
            got = weil_operator(e1) @ weil_operator(e2)
            err = float(np.max(np.abs(got - weil_operator(e12))))
            worst = max(worst, err)
            if err > tol and witness is None:
                witness = (p, n, e1.g.mat.a.tolist(), e2.g.mat.a.tolist(), err)

    ok = witness is None
    _report(ok, "lifted operators multiply like the group: 48x48 exhaustive at "
                f"p=3 plus 1000 seeded pairs per larger cell (max err {worst:.1e})", t0)
    assert ok, witness


def test_5_intertwiner_loops_collapse_to_the_polygon_scalar():
    t0 = time.perf_counter()
    worst, witness = 0.0, None
    for p, n in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2)):
        char, sp = _setup(p, n)
        rng = _seeded(50, p, n)
        eye = np.eye(p**n)
        for m in (3, 4):
            for _ in range(50):
                lags = [sp.random_lagrangian(rng) for _ in range(m)]
                loop = eye
                for a, b in zip(lags, lags[1:] + lags[:1]):
                    loop = intertwiner(char, a, b) @ loop
                # the loop scalar is the index of the reversed polygon
                want = weil_index(char, -maslov_form(*lags)) * eye
                err = float(np.max(np.abs(loop - want)))
                worst = max(worst, err)
                if err > 1e-8 and witness is None:
                    witness = (p, n, m, err)
    ok = witness is None
    _report(ok, "intertwiner loops of length 3 and 4 equal the reversed-polygon "
                f"scalar, 100 tuples per cell (max err {worst:.1e})", t0)
    assert ok, witness


def test_6_polygon_rank_and_disc_closed_form():
    t0 = time.perf_counter()
    checked, witness = 0, None
    for p, n in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2)):
        char, sp = _setup(p, n)
        rng = _seeded(60, p, n)
        for m in (3, 4, 5):
            for _ in range(34):
                lags = [sp.random_lagrangian(rng) for _ in range(m)]
                orients = [Orientation.random(l, rng) for l in lags]
                q = maslov_form(*lags)
                want_rank, want_disc = predicted_rank_discs([orients])[0]
                checked += 1
                if (q.rank(), q.disc()) != (want_rank, want_disc) and witness is None:
                    witness = (p, n, m, q.rank(), want_rank,
                               q.disc().rep, want_disc.rep)
    ok = witness is None and checked >= 500
    _report(ok, f"polygon form rank and discriminant match the closed form on "
                f"{checked} seeded 3/4/5-gon tuples, exactly", t0)
    assert ok, witness


def test_7_edge_factor_products_equal_the_polygon_index():
    t0 = time.perf_counter()
    checked, worst, witness = 0, 0.0, None
    for p, n in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2)):
        char, sp = _setup(p, n)
        rng = _seeded(70, p, n)
        for m in (3, 4, 5):
            for _ in range(14):
                lags = [sp.random_lagrangian(rng) for _ in range(m)]
                orients = [Orientation.random(l, rng) for l in lags]
                prod = 1 + 0j
                for f in edge_factors(char, orients, orients[1:] + orients[:1]):
                    prod *= f
                err = abs(prod - maslov_gamma(char, *lags))
                checked += 1
                worst = max(worst, err)
                if err > 1e-8 and witness is None:
                    witness = (p, n, m, err)
    ok = witness is None and checked >= 200
    _report(ok, f"oriented edge-factor products equal the polygon index with no "
                f"extra sign on {checked} tuples (max err {worst:.1e})", t0)
    assert ok, witness


def test_8_character_factor_is_model_free_and_matches_the_doubled_route():
    t0 = time.perf_counter()
    worst, witness = 0.0, None

    def scan(char, sp, elems, lags, tag):
        nonlocal worst, witness
        for g in elems:
            e = split_lift(char, g)
            vals = [character_factor(e, l) for l in lags]
            err = max(abs(v - vals[0]) for v in vals)
            err = max(err, abs(character_factor_doubled(e) - vals[0]))
            worst = max(worst, err)
            if err > 1e-8 and witness is None:
                witness = (tag, g.mat.a.tolist(), err)

    for p in (3, 5):
        char, sp = _setup(p, 1)
        scan(char, sp, sp.elements(), sp.all_lagrangians(), f"p={p},n=1")

    char, sp = _setup(3, 2)
    lags = sp.all_lagrangians()
    assert len(lags) == 40
    rng = _seeded(80)
    elems = [sp.identity(), sp.transvection([1, 0, 0, 0])]
    elems += [sp.random_element(rng) for _ in range(12)]
    scan(char, sp, elems, lags, "p=3,n=2")

    # the doubled embedding respects products, over both lifts of everything
    char, sp = _setup(3, 1)
    lifts = [split_lift(char, g, sign=s) for g in sp.elements() for s in (1, -1)]
    embeds = [embed_doubled(e) for e in lifts]
    hom_ok = True
    for i, e1 in enumerate(lifts):
        for j, e2 in enumerate(lifts):
            if embed_doubled(e1 * e2) != embeds[i] * embeds[j]:
                hom_ok = False
                if witness is None:
                    witness = ("embed-hom", i, j)

    ok = witness is None and hom_ok
    _report(ok, "character factor is Lagrangian-free, equals the doubled-space "
                f"route, and the embedding is multiplicative (max err {worst:.1e})", t0)
    assert ok, witness


def test_9_support_form_structure():
    t0 = time.perf_counter()
    checked, witness = 0, None

    def examine(char, pairs):
        nonlocal checked, witness
        field = char.field
        dfs = diagonal_forms([g for g, _ in pairs], [l for _, l in pairs])
        for df, maslov in zip(dfs, check_maslov_classes(char, dfs)):
            g, l = df.g, df.l
            sym = not np.any((df.gram.a - df.gram.a.T) % field.p)
            sym = sym and not np.any((df.dual_gram.a - df.dual_gram.a.T) % field.p)
            reports = {
                "symmetry": sym,
                "transfer-isometry": check_transfer_isometry(df).ok,
                "witt-class": maslov.ok,
                "kernel-dims": check_kernel_dims(df).ok,
            }
            eye = np.eye(g.space.dim, dtype=np.int64)
            if FpMatrix(field, g.mat.a - eye).det() != 0:
                reports["inverse-scalar"] = check_inverse_identity(df).ok
            checked += 1
            for name, good in reports.items():
                if not good and witness is None:
                    witness = (name, field.p, g.mat.a.tolist(), l.sub.basis.a.tolist())

    char5, sp5 = _setup(5, 1)
    lags = sp5.all_lagrangians()
    examine(char5, [(g, l) for g in sp5.elements() for l in lags])

    char3, sp3 = _setup(3, 2)
    rng = _seeded(90)
    examine(char3, [(sp3.random_element(rng), sp3.random_lagrangian(rng)) for _ in range(200)])

    ok = witness is None
    _report(ok, f"support-form structure (symmetry, isometry, Witt class, kernel "
                f"dims, inverse scalar) on {checked} (g, l) pairs", t0)
    assert ok, witness


def test_10_weil_index_identities_and_brute_force():
    t0 = time.perf_counter()
    checked, worst, witness = 0, 0.0, None
    primes = [p for p in range(3, 98) if all(p % d for d in range(2, p))]

    def compare(char, q, tag):
        nonlocal checked, worst, witness
        err = abs(weil_index(char, q) - weil_index_bruteforce(char, q))
        checked += 1
        worst = max(worst, err)
        if err > 1e-8 and witness is None:
            witness = (tag, char.p, q.gram.a.diagonal().tolist(), err)

    # every diagonal square-class pattern within easy brute reach
    for p in primes:
        field = Fp(p)
        char = AdditiveCharacter(field)
        g1 = char.gamma(1)
        dmax = 0
        while p ** (dmax + 1) <= 20_000:
            dmax += 1
        for d in range(1, dmax + 1):
            for entries in itertools.combinations_with_replacement(
                    (0, 1, field.nonsquare), d):
                q = QuadraticSpace.diagonal(field, entries)
                compare(char, q, "pattern")
                gam = weil_index(char, q)
                if q.rank():
                    modulus_ok = abs(abs(gam) - 1) <= 1e-10
                    if not modulus_ok and witness is None:
                        witness = ("modulus", p, entries)
                if 0 not in entries:
                    det = math.prod(entries) % p
                    err = abs(gam - g1 ** (d - 1) * char.gamma(det))
                    worst = max(worst, err)
                    if err > 1e-10 and witness is None:
                        witness = ("det-identity", p, entries, err)

    # frontier cells near the brute-force cap
    for p, d in ((3, 12), (5, 8), (7, 7), (11, 5), (31, 3), (97, 3)):
        field = Fp(p)
        char = AdditiveCharacter(field)
        rng = _seeded(100, p, d)
        entries = rng.integers(1, p, d)
        compare(char, QuadraticSpace.diagonal(field, entries), "frontier")
        entries[rng.integers(0, d)] = 0
        compare(char, QuadraticSpace.diagonal(field, entries), "frontier-degenerate")

    # multiplicativity and invariance, both sides by direct summation
    for p in (3, 5, 7):
        field = Fp(p)
        char = AdditiveCharacter(field)
        rng = _seeded(101, p)
        for _ in range(10):
            q1 = QuadraticSpace(field, _random_sym(rng, p, 3))
            q2 = QuadraticSpace(field, _random_sym(rng, p, 2))
            b1 = weil_index_bruteforce(char, q1)
            b2 = weil_index_bruteforce(char, q2)
            err = abs(weil_index_bruteforce(char, q1 + q2) - b1 * b2)
            c = int(rng.integers(1, p))
            scaled = QuadraticSpace(field, (c * c * q1.gram.a) % p)
            err = max(err, abs(weil_index_bruteforce(char, scaled) - b1))
            a = _random_invertible(rng, field, 3)
            moved = QuadraticSpace(field, (a @ q1.gram.a @ a.T) % p)
            err = max(err, abs(weil_index_bruteforce(char, moved) - b1))
            checked += 3
            worst = max(worst, err)
            if err > 1e-8 and witness is None:
                witness = ("multiplicativity", p, q1.gram.a.tolist(), err)

    ok = witness is None
    _report(ok, f"Weil index: brute-force agreement, unit modulus, determinant "
                f"identity, multiplicativity on {checked} forms (max err {worst:.1e})", t0)
    assert ok, witness


def _random_sym(rng, p, d):
    m = rng.integers(0, p, (d, d))
    return (m + m.T) % p


def _random_invertible(rng, field, d):
    while True:
        a = rng.integers(0, field.p, (d, d)) % field.p
        if FpMatrix(field, a).det():
            return a
