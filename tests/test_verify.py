"""The verification runner: suites, determinism, fault injection."""

import importlib
import importlib.util
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from weilchar import maslov, metaplectic, quadform, verify
from weilchar.characters import AdditiveCharacter
from weilchar.errors import EnumerationTooLarge
from weilchar.field import Fp
from weilchar.symplectic import LAGRANGIAN_CAP, SymplecticSpace
from weilchar.verify import (
    DENSE_SUITES,
    SUITE_ORDER,
    SuiteResult,
    _core_elements,
    _some_lagrangians,
    as_json_complex,
    run_verification,
)


def test_all_suites_pass_on_small_cells():
    results = run_verification([3, 5], [1], seed=1, samples=6)
    assert len(results) == 2 * len(SUITE_ORDER)
    for r in results:
        assert r.ok, (r.suite, r.p, r.witness)
        assert r.checked > 0


def test_results_are_ordered_by_cell_then_suite():
    results = run_verification([5, 3], [1], seed=0, samples=3)
    keys = [(r.p, r.n, r.suite) for r in results]
    want = [(p, 1, s) for p in (3, 5) for s in SUITE_ORDER]
    assert keys == want


def test_suite_filter_restricts_what_runs():
    results = run_verification([5], [1], seed=0, samples=4,
                               suites=("gamma", "loops"))
    assert [r.suite for r in results] == ["gamma", "loops"]


def test_corrupted_cocycle_is_caught_with_witness():
    results = run_verification([5], [1], seed=2, samples=8,
                               corrupt_cocycle=True)
    bad = [r for r in results if not r.ok]
    assert bad, "fault injection must surface somewhere"
    # the cocycle suite exercises the hook directly and must flag it
    assert any(r.suite == "cocycle" for r in bad)
    assert all(r.witness is not None for r in bad)


def test_corrupted_cocycle_fails_the_same_checks():
    """The stacked cocycle suite flags the flipped cocycle on the same 44 of
    64 checks as the one-pair-at-a-time suite did, first at the same pair.
    The splitting identity is an exact `==` check, so its witness carries the
    two sides and no error or tolerance, and max_err stays 0."""
    [r] = run_verification([5], [1], seed=0, samples=6, corrupt_cocycle=True,
                           suites=("cocycle",))
    assert (r.checked, r.failed, r.max_err) == (64, 44, 0.0)
    assert r.witness == {"kind": "splitting",
                         "g": [[1, 4], [0, 1]], "h": [[1, 4], [0, 1]], "l": [[1, 0]],
                         "got": {"re": -1.0, "im": -0.0}, "want": {"re": 1.0, "im": 0.0}}


def test_negated_lift_values_fail_the_cocycle_suite(monkeypatch):
    """Negating the closed-form lift value m_g(l) wherever rank C >= 1 breaks
    the splitting identity, and the cocycle suite must see it.  The stacked
    lifts carry the fault into the trace suite, whose closed form does not
    follow the lift; theta, homomorphism and structural checks are invariant
    under rescaling a lift and must stay ok."""
    lift = metaplectic._phase
    monkeypatch.setattr(metaplectic, "_phase",
                        lambda char, r, x: -lift(char, r, x) if r else lift(char, r, x))
    for p, n in ((5, 1), (3, 2)):
        results = run_verification([p], [n], seed=1, samples=5,
                                   suites=("cocycle", "trace", "theta", "homomorphism",
                                           "structural"))
        by_suite = {r.suite: r for r in results}
        for suite, kind in (("cocycle", "splitting"), ("trace", "three-way")):
            r = by_suite.pop(suite)
            assert not r.ok, (p, n, suite)
            assert r.witness["kind"] == kind
        for r in by_suite.values():
            assert r.ok and r.checked > 0, (p, n, r.suite, r.witness)


def test_faulted_pairing_fails_the_polygon_suite(monkeypatch):
    """Multiplying the first pairing of every stacked call by a nonsquare
    flips one disc factor of the prediction and one edge factor's sign
    (gamma(ns x) = -gamma(x)), so the polygon suite must fail; the gamma and
    theta suites use no pairing and must stay ok."""
    pairings = maslov.orientation_pairings

    def faulted(o1s, o2s, inters=None):
        out = pairings(o1s, o2s, inters)
        if out:
            out[0] = out[0].times(out[0].field.nonsquare)
        return out

    monkeypatch.setattr(maslov, "orientation_pairings", faulted)
    for p, n in ((5, 1), (3, 2)):
        by_suite = {r.suite: r for r in run_verification([p], [n], seed=1, samples=5,
                                                         suites=("polygon", "gamma", "theta"))}
        r = by_suite.pop("polygon")
        assert not r.ok, (p, n)
        assert r.witness["kind"] in ("disc", "edge-product")
        for r in by_suite.values():
            assert r.ok and r.checked > 0, (p, n, r.suite, r.witness)


def test_flipped_gamma_one_fails_the_gamma_suite(monkeypatch):
    """A `_gamma_of` that uses -gamma(1) in place of gamma(1) negates every
    Weil index of even rank.  The gamma suite must fail with a witness: its
    diagonal product rule and its check against the Gauss sum by direct
    summation both see it, the latter as on the hyperbolic plane below.  Every
    suite that evaluates an even-rank index fails too; structural compares
    two invariants from the same faulted rule and stays ok, and at n = 1 the
    triples' forms have rank at most 1, so cocycle and trace stay ok."""
    gamma_of = quadform._gamma_of

    def flipped(char, rank, det):
        g = gamma_of(char, rank, det)
        return -g if rank and rank % 2 == 0 else g

    monkeypatch.setattr(quadform, "_gamma_of", flipped)
    char = AdditiveCharacter(Fp(5))
    plane = quadform.QuadraticSpace(char.field, [[0, 1], [1, 0]])
    assert abs(quadform.weil_index(char, plane)
               - quadform.weil_index_bruteforce(char, plane)) > 1
    failing = {(5, 1): {"gamma", "polygon", "loops", "theta"},
               (3, 2): set(SUITE_ORDER) - {"structural"}}
    for (p, n), want in failing.items():
        results = run_verification([p], [n], seed=1, samples=5)
        assert {r.suite for r in results if not r.ok} == want, (p, n)
        by_suite = {r.suite: r for r in results}
        assert by_suite["gamma"].witness["kind"] in ("diag-product", "fast-vs-brute")
        assert all(r.witness is not None for r in results if not r.ok)
        assert all(r.checked > 0 for r in results)


def test_factor_table_without_the_lift_move_fails_the_theta_suite(monkeypatch):
    """A `character_factor_table` that drops t(l)/t0 at every l other than
    the base makes the factor depend on l, which only the theta suite's
    constancy check can see: the trace suite reads the table at the base
    alone, and the other suites do not read it."""
    table = verify.character_factor_table

    def without_move(es, lags):
        out = table(es, lags)
        for i, e in enumerate(es):
            for j, l in enumerate(lags):
                if l != e.base:
                    out[i, j] *= e.t0 / e.value_at(l)
        return out

    monkeypatch.setattr(verify, "character_factor_table", without_move)
    for p, n in ((3, 1), (5, 1), (3, 2)):
        results = run_verification([p], [n], seed=1, samples=5)
        by_suite = {r.suite: r for r in results}
        r = by_suite.pop("theta")
        assert not r.ok, (p, n)
        assert r.witness["kind"] == "theta-constancy"
        for r in by_suite.values():
            assert r.ok and r.checked > 0, (p, n, r.suite, r.witness)


def test_negated_stacked_doubled_factor_fails_the_theta_suite(monkeypatch):
    """Negating the stacked doubled factor of the second element, which is
    not the cell's single-route oracle, must fail theta's doubled check; no
    other suite reads the doubled route."""
    stacked = verify.character_factors_doubled

    def negated(es):
        out = stacked(es)
        out[1] = -out[1]
        return out

    monkeypatch.setattr(verify, "character_factors_doubled", negated)
    for p, n in ((5, 1), (3, 2)):
        by_suite = {r.suite: r for r in run_verification([p], [n], seed=1, samples=5)}
        r = by_suite.pop("theta")
        assert (r.failed, r.witness["kind"]) == (1, "theta-doubled"), (p, n)
        for r in by_suite.values():
            assert r.ok and r.checked > 0, (p, n, r.suite, r.witness)


def _theta_trace_failures(p, n):
    results = run_verification([p], [n], seed=1, samples=5, suites=("theta", "trace"))
    return {r.suite: (r.failed, r.witness and r.witness["kind"]) for r in results}


def test_doubled_delta_block_fails_theta_and_trace(monkeypatch):
    """The delta-delta block of the reduced (graph, diagonal, l + l) gram
    without its 1/2 scales that block by 2.  Where 2 is a nonsquare (p = 3,
    5) the theta and trace suites fail with a witness; at p = 7, where
    2 = 3^2, diag(1/3, 3) is a congruence from the right gram to the wrong
    one, so no check can see it."""
    grams = metaplectic._triple_grams

    def without_half(bl, alpha, f, field):
        out = grams(bl, alpha, f, field)
        n = bl.shape[1]
        out[:, n:, n:] = 2 * out[:, n:, n:] % field.p
        return out

    monkeypatch.setattr(metaplectic, "_triple_grams", without_half)
    for p, n in ((3, 1), (5, 1), (3, 2), (5, 2)):
        got = _theta_trace_failures(p, n)
        assert got["theta"][0] > 0 and got["theta"][1] == "theta-constancy", (p, n)
        assert got["trace"][0] > 0 and got["trace"][1] == "three-way", (p, n)
    assert _theta_trace_failures(7, 1) == {"theta": (0, None), "trace": (0, None)}


def test_negated_off_diagonal_block_is_a_congruence(monkeypatch):
    """Negating both off-diagonal blocks of the reduced triple gram is the
    congruence by diag(-1, 1), so the factors and every check stay as they
    are: it is no fault."""
    grams = metaplectic._triple_grams

    def negated(bl, alpha, f, field):
        out = grams(bl, alpha, f, field)
        n = bl.shape[1]
        out[:, :n, n:] = -out[:, :n, n:] % field.p
        out[:, n:, :n] = -out[:, n:, :n] % field.p
        return out

    monkeypatch.setattr(metaplectic, "_triple_grams", negated)
    for p, n in ((3, 1), (5, 2)):
        assert _theta_trace_failures(p, n) == {"theta": (0, None), "trace": (0, None)}


def test_four_gon_without_its_second_term_fails_theta(monkeypatch):
    """The reduced four-gon gram without form(x3, x1 + x2), here by x3 = 0,
    changes t(l) away from the base, which theta's constancy check sees;
    the trace suite reads the table at the base alone."""
    grams = metaplectic._fourgon_grams
    monkeypatch.setattr(metaplectic, "_fourgon_grams",
                        lambda x1, x2, x3, y, form, field: grams(x1, x2, 0 * x3, y, form, field))
    for p, n in ((3, 1), (7, 1), (3, 2)):
        got = _theta_trace_failures(p, n)
        assert got["theta"][0] > 0 and got["theta"][1] == "theta-constancy", (p, n)
        assert got["trace"] == (0, None), (p, n)


def test_samples_zero_still_checks_structural_cores():
    results = run_verification([5], [1], seed=0, samples=0)
    for r in results:
        assert r.ok, (r.suite, r.witness)
        assert r.checked > 0, r.suite


@pytest.mark.parametrize("p,n,samples,exhaustive", [(7, 2, 0, True), (3, 3, 0, True),
                                                   (5, 3, 5, False), (5, 3, 0, False)])
def test_theta_enumerates_only_within_budget(p, n, samples, exhaustive):
    """The theta suite evaluates count * elements character factors when it
    enumerates: 400 * 5 and 1120 * 5 fit the factor budget, 19656 * 10 and
    19656 * 5 do not, although the latter fits LAGRANGIAN_CAP."""
    sp = SymplecticSpace(Fp(p), n)
    n_elems = len(_core_elements(sp)) + samples
    rng = np.random.default_rng(0)
    lags = _some_lagrangians(sp, rng, samples, LAGRANGIAN_CAP, n_elems)
    if exhaustive:
        assert lags == sp.all_lagrangians()
    else:
        assert len(lags) == 3 + max(samples, 3)


def test_theta_lagrangians_never_exceed_the_budget():
    """At (3, 2), 40 Lagrangians times 500 elements fit the budget and
    enumerate; from 501 elements on the suite takes as many distinct
    Lagrangians as fit, the standard three first, and one when the elements
    alone exceed it."""
    sp = SymplecticSpace(Fp(3), 2)
    budget = verify._THETA_FACTOR_BUDGET
    assert 40 * 500 == budget
    rng = np.random.default_rng(0)
    assert _some_lagrangians(sp, rng, 495, LAGRANGIAN_CAP, 500) == sp.all_lagrangians()
    std = verify._standard_lagrangians(sp)
    for n_elems, want in ((501, 39), (2005, 9), (budget // 2, 2), (budget + 1, 1)):
        lags = _some_lagrangians(sp, rng, n_elems - 5, LAGRANGIAN_CAP, n_elems)
        assert len(lags) == len(set(lags)) == want, n_elems
        assert lags[:3] == std[:want]
        assert len(lags) * n_elems <= max(budget, n_elems)
    # a smaller max_enum is a smaller budget
    lags = _some_lagrangians(sp, rng, 5, 100, 10)
    assert len(lags) == len(set(lags)) == 8


def test_theta_table_stays_within_the_budget_past_its_edge(monkeypatch):
    """With the budget cut to 400 factors, 40 Lagrangians times 10 elements
    still enumerate at (3, 2), and 11 elements take 9 distinct Lagrangians:
    the standard three and samples draws."""
    monkeypatch.setattr(verify, "_THETA_FACTOR_BUDGET", 400)
    table = verify.character_factor_table
    shapes = []
    monkeypatch.setattr(verify, "character_factor_table",
                        lambda es, lags: shapes.append((len(es), len(set(lags)))) or table(es, lags))
    for samples in (5, 6):
        (r,) = run_verification([3], [2], seed=1, samples=samples, suites=("theta",))
        assert r.ok and r.checked == 2 * (5 + samples)
    assert shapes == [(10, 40), (11, 9)]


def test_determinism_for_fixed_seed():
    a = run_verification([5], [1], seed=7, samples=5)
    b = run_verification([5], [1], seed=7, samples=5)
    strip = lambda r: (r.suite, r.p, r.n, r.checked, r.failed, r.max_err)
    assert [strip(r) for r in a] == [strip(r) for r in b]


def _strip(r):
    return (r.suite, r.p, r.n, r.checked, r.failed, r.max_err, r.witness)


def test_suite_run_alone_matches_its_row_in_full_run():
    full = run_verification([5], [2], seed=1, samples=5)
    for row in full:
        alone = run_verification([5], [2], seed=1, samples=5, suites=(row.suite,))
        assert [_strip(r) for r in alone] == [_strip(row)]


def test_unknown_suite_rejected_before_any_cell_runs(monkeypatch):
    ran = []
    monkeypatch.setitem(verify._SUITES, "gamma",
                        lambda *a: ran.append("gamma") or verify._Tally())
    with pytest.raises(ValueError, match="gama") as exc:
        run_verification([5], [1], samples=1, suites=("gamma", "gama"))
    assert not ran
    assert all(name in str(exc.value) for name in SUITE_ORDER)


def test_threads_variable_is_ignored(monkeypatch):
    monkeypatch.delenv("WEILCHAR_THREADS", raising=False)
    plain = run_verification([3], [1, 2], seed=3, samples=4)
    seen = []
    for name, suite in list(verify._SUITES.items()):
        def recording(*args, _suite=suite):
            seen.append(threading.current_thread())
            return _suite(*args)
        monkeypatch.setitem(verify._SUITES, name, recording)
    monkeypatch.setenv("WEILCHAR_THREADS", "4")
    threaded = run_verification([3], [1, 2], seed=3, samples=4)
    assert seen and all(t is threading.current_thread() for t in seen)
    assert [_strip(r) for r in threaded] == [_strip(r) for r in plain]


def test_dimension_cap_enforced():
    # 7^3 = 343 sits exactly at the cap and is allowed; one step past is not
    with pytest.raises(EnumerationTooLarge, match="exceeds"):
        run_verification([11], [3], samples=1)
    with pytest.raises(EnumerationTooLarge):
        run_verification([7], [4], samples=1)
    for dense in DENSE_SUITES:
        with pytest.raises(EnumerationTooLarge, match=dense):
            run_verification([3], [6], samples=0, suites=("gamma", dense))


def test_suites_without_dense_matrices_run_past_the_cap():
    """3^6 = 729 is past the dense cap, which binds only the dense suites."""
    results = run_verification([3], [6], samples=0, suites=("gamma", "cocycle"))
    assert [r.suite for r in results] == ["gamma", "cocycle"]
    for r in results:
        assert r.ok and r.checked > 0, (r.suite, r.witness)


def test_suite_result_json_shape():
    r = SuiteResult(suite="gamma", p=5, n=1, checked=10, failed=0,
                    max_err=1e-12, seconds=0.01)
    d = r.as_json()
    assert d["ok"] is True
    assert d["witness"] is None
    assert set(d) == {"suite", "p", "n", "checked", "failed", "max_err",
                      "seconds", "ok", "witness"}


def test_json_complex_shape():
    d = as_json_complex(1 - 2j)
    assert d == {"re": 1.0, "im": -2.0}
    # a zero part is written as 0.0, whatever its sign
    zero = as_json_complex(complex(-0.0, -0.0))
    assert [math.copysign(1.0, x) for x in zero.values()] == [1.0, 1.0]


def test_every_name_the_bench_tracer_counts_is_a_traced_boundary(monkeypatch):
    """bench/tracer.py looks up each name of its call, self-time and probe
    tables among the functions it wraps, and a name no layer defines raises
    KeyError only in a traced bench run; here every name is checked against
    `_targets` of its layer, with the tracer loaded from its file as it is."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("weilchar_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wanted = [(metric.split(".")[0], qual)
              for table in (tracer.CALL_METRICS, tracer.SELF_METRICS)
              for metric, quals in table.items() for qual in quals]
    wanted += [(counter.split(".")[0], qual) for qual, (counter, _) in tracer._PROBES.items()]
    assert len(set(wanted)) >= 25
    for layer, qual in wanted:
        mod = importlib.import_module(f"weilchar.{layer}")
        assert qual in {t[0] for t in tracer._targets(mod, layer)}, (layer, qual)
