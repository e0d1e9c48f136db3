"""The verification runner: suites, determinism, fault injection."""

import threading

import numpy as np
import pytest

from weilchar import verify
from weilchar.errors import DimensionMismatch
from weilchar.field import Fp
from weilchar.symplectic import LAGRANGIAN_CAP, SymplecticSpace
from weilchar.verify import (
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
    with pytest.raises(DimensionMismatch):
        run_verification([11], [3], samples=1)
    with pytest.raises(DimensionMismatch):
        run_verification([7], [4], samples=1)


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
