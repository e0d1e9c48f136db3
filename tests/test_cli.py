"""End-to-end CLI behavior: output shapes and exit codes."""

import ast
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weilchar
import weilchar.cli
import weilchar.schrodinger
import weilchar.verify
from weilchar.characters import AdditiveCharacter
from weilchar.charformula import trace_closed_form
from weilchar.cli import main
from weilchar.errors import InvariantViolation
from weilchar.field import Fp, SquareClass
from weilchar.symplectic import SymplecticSpace, displacement_disc, kernel_of_displacement


HEADER = "g,dim_ker,det_sigma_class,trace_re,trace_im,formula_used"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gamma_text_frozen_value(capsys):
    code, out, _ = run(capsys, "gamma", "--p", "5", "--a", "1")
    assert code == 0
    assert "gamma(1) = -1.000000000000+0.000000000000i" in out
    assert "chi(1) = +1" in out


def test_gamma_json_schema(capsys):
    code, out, _ = run(capsys, "gamma", "--p", "5", "--a", "2", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert set(d) == {"gamma", "chi"}
    assert set(d["gamma"]) == {"re", "im"}
    assert d["chi"] == -1  # 2 is not a square mod 5
    assert abs(complex(d["gamma"]["re"], d["gamma"]["im"])) - 1 < 1e-9


def test_gamma_csv_header(capsys):
    code, out, _ = run(capsys, "gamma", "--p", "7", "--a", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "a", "gamma_re", "gamma_im", "chi"]
    assert len(rows) == 2


def test_gamma_rejects_zero(capsys):
    code, _, err = run(capsys, "gamma", "--p", "5", "--a", "0")
    assert code == 2
    assert "error:" in err


def test_trace_three_routes_agree(capsys):
    code, out, _ = run(capsys, "trace", "--p", "5", "--g", "2,0,0,3",
                       "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["agree"] is True
    assert abs(d["oracle"]["re"] - (-1)) < 1e-9
    assert abs(d["oracle"]["im"]) < 1e-9
    for key in ("oracle", "closed_form", "factor_form"):
        assert set(d[key]) == {"re", "im"}


def test_trace_minus_lift_flips_sign(capsys):
    code, out, _ = run(capsys, "trace", "--p", "5", "--g", "2,0,0,3",
                       "--lift", "minus", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert abs(d["oracle"]["re"] - 1) < 1e-9


def test_trace_unipotent_frozen(capsys):
    code, out, _ = run(capsys, "trace", "--p", "5", "--g", "1,1,0,1",
                       "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert abs(d["oracle"]["re"] - (-math.sqrt(5))) < 1e-9


def test_trace_accepts_model_choice(capsys):
    code, out, _ = run(capsys, "trace", "--p", "5", "--g", "2,0,0,3",
                       "--l", "0,1", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["agree"] is True
    assert abs(d["oracle"]["re"] - (-1)) < 1e-9


@pytest.mark.parametrize("argv", [("--p", "3", "--g", "2,2,0,2", "--psi-scale", "2"),
                                  ("--p", "5", "--g", "2,0,0,3")])
def test_trace_prints_the_oracle_zero_unsigned(capsys, argv):
    """The oracle's exact -0.0 imaginary part prints as 0.0 in CSV and as
    +0 in text, as the closed and factor forms do."""
    code, out, _ = run(capsys, "trace", *argv, "--format", "csv")
    assert code == 0
    row = dict(zip(*csv.reader(io.StringIO(out))))
    assert row["oracle_im"] == row["closed_im"] == "0.0"
    code, out, _ = run(capsys, "trace", *argv)
    assert code == 0
    assert "oracle        = -1.000000000000+0.000000000000i" in out


def test_trace_rejects_non_symplectic(capsys):
    code, _, err = run(capsys, "trace", "--p", "5", "--g", "1,1,0,2")
    assert code == 2
    assert "not in Sp" in err


def test_trace_rejects_wrong_entry_count(capsys):
    code, _, err = run(capsys, "trace", "--p", "5", "--g", "1,0,0")
    assert code == 2
    assert "expected 4 entries" in err


def test_trace_rejects_non_integer_matrix(capsys):
    code, _, err = run(capsys, "trace", "--p", "5", "--g", "1,x,0,1")
    assert code == 2
    assert "comma-separated integers" in err


def identity_flag(n):
    return ",".join("1" if i % (2 * n + 1) == 0 else "0" for i in range(4 * n * n))


def test_rep_size_cap(capsys):
    code, _, err = run(capsys, "trace", "--p", "3", "--n", "11", "--g", identity_flag(11))
    assert code == 2
    assert "exceeds the oracle's row cap 117649" in err
    assert "diagonal" in err


@pytest.mark.parametrize("p,n", [(97, 2), (7, 4)])
def test_trace_runs_past_the_dense_cap(capsys, p, n):
    g = SymplecticSpace(Fp(p), n).random_element(np.random.default_rng(p * n)).mat.a
    code, out, err = run(capsys, "trace", "--p", str(p), "--n", str(n),
                         "--g", ",".join(str(x) for x in g.reshape(-1)), "--format", "json")
    assert code == 0, err
    assert json.loads(out)["agree"] is True


def test_table_exhaustive_sl2_f3(capsys):
    code, out, _ = run(capsys, "table", "--p", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "g,dim_ker,det_sigma_class,trace_re,trace_im,formula_used"
    assert len(lines) == 1 + 24
    ident = [ln for ln in lines[1:] if ln.startswith("1 0 0 1,")]
    assert len(ident) == 1
    cells = ident[0].split(",")
    assert cells[1] == "2"          # g - 1 vanishes on the whole plane
    assert cells[3] == "3"          # trace = p^n on the identity
    assert cells[5] == "closed-singular"


def test_table_json_schema(capsys):
    code, out, _ = run(capsys, "table", "--p", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 24
    for row in rows:
        assert set(row) == {"g", "dim_ker", "det_sigma_class", "trace", "formula_used"}
        assert set(row["det_sigma_class"]) == {"rep", "is_square"}
        assert set(row["trace"]) == {"re", "im"}
        assert row["formula_used"] in ("closed", "closed-singular")
        assert (row["dim_ker"] > 0) == (row["formula_used"] == "closed-singular")
    ident = [r for r in rows if r["g"] == [[1, 0], [0, 1]]]
    assert ident and ident[0]["det_sigma_class"]["is_square"] is True


def test_table_rows_match_the_separate_closed_form_routes(capsys):
    code, out, _ = run(capsys, "table", "--p", "7", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    char = AdditiveCharacter(Fp(7))
    elems = SymplecticSpace(Fp(7), 1).elements()
    assert [r["g"] for r in rows] == [g.mat.tolist() for g in elems]
    for row, g in zip(rows, elems):
        k = kernel_of_displacement(g).dim
        tr = trace_closed_form(char, g)
        disc = displacement_disc(g)
        assert row == {
            "g": g.mat.tolist(),
            "dim_ker": k,
            "det_sigma_class": {"rep": disc.rep, "is_square": disc.is_square},
            "trace": {"re": tr.real, "im": tr.imag},
            "formula_used": "closed-singular" if k else "closed",
        }


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_table_traces_are_exact(capsys, p, scale):
    """Every trace is exactly (+-m, 0) or (0, +-m), m = p^(k//2) sqrt(p)^(k mod 2)
    for k = dim ker(g - 1): the Weil indices are exact, so no float noise is
    left, every zero part is +0.0, and the identity's trace is the integer p."""
    code, out, _ = run(capsys, "table", "--p", str(p), "--psi-scale", str(scale),
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == p * (p * p - 1)
    for row in rows:
        k = row["dim_ker"]
        m = p ** (k // 2) * math.sqrt(p) ** (k % 2)
        z = (row["trace"]["re"], row["trace"]["im"])
        assert z in ((m, 0), (-m, 0), (0, m), (0, -m)), (row["g"], z, m)
        assert all(math.copysign(1.0, x) == 1.0 for x in z if x == 0), (row["g"], z)
    [ident] = [r for r in rows if r["g"] == [[1, 0], [0, 1]]]
    assert ident["trace"] == {"re": p, "im": 0}


@pytest.mark.parametrize("p,n", [(3, 1), (7, 1), (11, 1), (3, 2), (5, 2), (3, 3)])
def test_trace_closed_and_factor_forms_are_equal(capsys, p, n):
    """On seeded elements, both lifts and psi-scales 1 and 2, the closed form
    and the factor form print equal floats."""
    sp = SymplecticSpace(Fp(p), n)
    rng = np.random.default_rng(np.random.SeedSequence([23, p, n]))
    for _ in range(4):
        g = ",".join(map(str, sp.random_element(rng).mat.a.ravel()))
        for scale in ("1", "2"):
            for lift in ("plus", "minus"):
                code, out, _ = run(capsys, "trace", "--p", str(p), "--n", str(n), "--g", g,
                                   "--lift", lift, "--psi-scale", scale, "--format", "json")
                assert code == 0
                d = json.loads(out)
                assert json.dumps(d["closed_form"]) == json.dumps(d["factor_form"]), (
                    g, scale, lift, d)
                assert d["agree"] is True


def test_table_with_no_rows_prints_an_empty_list(capsys):
    code, out, err = run(capsys, "table", "--p", "5", "--samples", "0", "--max-enum", "1",
                         "--format", "json")
    assert code == 0, err
    assert json.loads(out) == []


@pytest.mark.parametrize("fmt,want", [("json", "[]\n"), ("csv", HEADER + "\r\n"),
                                      ("text", HEADER + "\n")])
def test_sampled_table_with_no_samples_prints_an_empty_table(capsys, fmt, want):
    code, out, err = run(capsys, "table", "--p", "5", "--n", "2", "--samples", "0",
                         "--format", fmt)
    assert (code, out, err) == (0, want, "")


def test_sampled_table_rows_are_one_stacked_draw(capsys):
    """`table --samples N` lists `random_element_matrices(N, rng)` for rng
    seeded by [seed, p, n]; one sample is the element `random_element` draws."""
    sp = SymplecticSpace(Fp(5), 2)

    def seeded():
        return np.random.default_rng(np.random.SeedSequence([4, 5, 2]))

    for samples in (1, 6):
        code, out, _ = run(capsys, "table", "--p", "5", "--n", "2", "--samples", str(samples),
                           "--seed", "4", "--format", "json")
        assert code == 0
        got = np.array([row["g"] for row in json.loads(out)])
        assert np.array_equal(got, sp.random_element_matrices(samples, seeded()))
        if samples == 1:
            assert np.array_equal(got[0], sp.random_element(seeded()).mat.a)


def _row_dict(g, k, disc, tr, used):
    return {"g": g, "dim_ker": k,
            "det_sigma_class": {"rep": disc.rep, "is_square": disc.is_square},
            "trace": {"re": tr.real, "im": tr.imag}, "formula_used": used}


@pytest.mark.parametrize("rows", [
    [],
    [([[1, 0], [0, 1]], 2, SquareClass(Fp(3), True), complex(3.0, -0.0), "closed-singular")],
    [([[0, 96], [1, 0]], 0, SquareClass(Fp(97), False), complex(-0.0, 2.70542565719e-16),
      "closed"),
     ([[2, 5], [3, 8]], 1, SquareClass(Fp(97), True), complex(1e-300, -9.848857801796104),
      "closed-singular")],
    [([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 4, SquareClass(Fp(5), False),
      complex(25.0, 0.0), "closed-singular"),
     ([[4, 0, 2, 1], [3, 4, 0, 3], [2, 0, 0, 0], [1, 3, 0, 0]], 0, SquareClass(Fp(5), True),
      complex(-0.30901699437494756, 0.9510565162951535), "closed")],
])
def test_table_json_writer_equals_the_stdlib_encoder(rows):
    want = json.dumps([_row_dict(*row) for row in rows], indent=2, sort_keys=True)
    assert weilchar.cli._table_json(rows) == want


def test_table_json_is_the_stdlib_layout(capsys):
    code, out, _ = run(capsys, "table", "--p", "5", "--n", "2", "--samples", "5", "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_table_sampled_when_group_too_big(capsys):
    code, out, _ = run(capsys, "table", "--p", "11", "--max-enum", "100",
                       "--samples", "7", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 7


def test_table_sampling_deterministic(capsys):
    _, out1, _ = run(capsys, "table", "--p", "13", "--max-enum", "10",
                     "--samples", "5", "--seed", "9")
    _, out2, _ = run(capsys, "table", "--p", "13", "--max-enum", "10",
                     "--samples", "5", "--seed", "9")
    assert out1 == out2


def test_verify_passes_and_reports(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3", "--n", "1", "--samples", "4")
    assert code == 0
    assert "verdict: pass" in out
    assert "first witness" not in out


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3", "--n", "1",
                       "--samples", "3", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["ok"] is True
    assert all(r["ok"] for r in d["results"])
    assert {r["suite"] for r in d["results"]} >= {"gamma", "trace", "loops"}


def test_verify_runs_a_repeated_cell_once(capsys):
    def rows(primes):
        code, out, _ = run(capsys, "verify", "--p", primes, "--n", "1",
                           "--samples", "1", "--format", "json")
        assert code == 0
        return [{k: v for k, v in r.items() if k != "seconds"}
                for r in json.loads(out)["results"]]

    once = rows("3")
    assert len(once) == 8
    assert rows("3,3") == once


def test_verify_detects_corrupted_cocycle(capsys):
    code, out, _ = run(capsys, "verify", "--p", "5", "--n", "1",
                       "--samples", "6", "--corrupt-cocycle")
    assert code == 1
    assert "verdict: FAIL" in out
    assert "first witness:" in out


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_failing_structural_check_exits_1_in_every_format(capsys, monkeypatch, fmt):
    """A failed maslov-class check carries complex Weil indices in its
    details; they reach the witness as {"re", "im"}, so no format crashes."""
    check = weilchar.verify.check_maslov_classes
    monkeypatch.setattr(weilchar.verify, "check_maslov_classes",
                        lambda char, dfs: [dataclasses.replace(r, ok=False)
                                           for r in check(char, dfs)])
    code, out, _ = run(capsys, "verify", "--p", "5", "--suites", "structural", "--format", fmt)
    assert code == 1
    if fmt == "json":
        witness = json.loads(out)["results"][0]["witness"]
        assert witness["kind"] == "maslov-class"
        assert set(witness["details"]["support_inv"][2]) == {"re", "im"}
    elif fmt == "text":
        assert "verdict: FAIL" in out and "first witness:" in out


def test_structural_witness_lists_the_failing_diagonal_rows(capsys, monkeypatch):
    """The suite witness keeps the rows of a failed diagonal-kernel report."""
    kernel_diagonal = weilchar.schrodinger._kernel_diagonal
    monkeypatch.setattr(weilchar.schrodinger, "_kernel_diagonal",
                        lambda char, g, l: 2 * kernel_diagonal(char, g, l))
    code, out, _ = run(capsys, "verify", "--p", "5", "--n", "1", "--suites", "structural",
                       "--format", "json")
    assert code == 1
    witness = json.loads(out)["results"][0]["witness"]
    assert witness["kind"] == "diagonal-kernel"
    # the identity at the standard Lagrangian: every one of the 5 rows is 1
    assert [row["x"] for row in witness["witness"]] == [[0, c] for c in range(5)]
    for row in witness["witness"]:
        assert row["got"] == {"re": 2.0, "im": 0.0} and row["want"] == {"re": 1.0, "im": 0.0}


def test_verify_rejects_bad_prime_list(capsys):
    code, _, err = run(capsys, "verify", "--p", "3,x")
    assert code == 2
    assert "error:" in err


def test_verify_rejects_oversized_cell(capsys):
    code, _, err = run(capsys, "verify", "--p", "11", "--n", "3")
    assert code == 2
    assert "exceeds" in err


def test_verify_suites_past_the_dense_cap(capsys):
    """The dense cap binds only the dense suites, so the others run at 3^6 = 729."""
    code, out, err = run(capsys, "verify", "--p", "3", "--n", "6", "--samples", "1",
                         "--suites", "gamma,polygon,cocycle,theta", "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["ok"] is True
    assert [r["suite"] for r in doc["results"]] == ["gamma", "polygon", "cocycle", "theta"]
    code, _, err = run(capsys, "verify", "--p", "3", "--n", "6", "--suites", "gamma,trace")
    assert code == 2 and "exceeds" in err


def test_verify_suites_run_in_the_given_order_with_their_own_seeds(capsys):
    argv = ("verify", "--p", "5", "--n", "1", "--samples", "2", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    every = {r["suite"]: r for r in json.loads(out)["results"]}
    code, out, _ = run(capsys, *argv, "--suites", "theta,gamma,theta")
    assert code == 0
    picked = json.loads(out)["results"]
    assert [r["suite"] for r in picked] == ["theta", "gamma"]
    for r in picked:
        assert {**r, "seconds": 0} == {**every[r["suite"]], "seconds": 0}


@pytest.mark.parametrize("names", ["gamma,bogus", "", " , "])
def test_verify_rejects_unknown_suites_up_front(capsys, names):
    code, out, err = run(capsys, "verify", "--p", "3", "--n", "6", "--suites", names)
    assert code == 2 and out == ""
    assert "valid: gamma, polygon, cocycle, trace, loops, theta, structural, homomorphism" in err


def test_verify_csv_header(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3", "--n", "1",
                       "--samples", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["suite", "p", "n", "checked", "failed", "max_err",
                       "seconds", "ok"]


def test_table_has_no_representation_cap(capsys):
    code, out, _ = run(capsys, "table", "--p", "97", "--n", "2", "--samples", "5",
                       "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 5


def test_gamma_refuses_sampling_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gamma", "--p", "5", "--a", "1", "--seed", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("gamma", "--p", "4", "--a", "1"),
    ("trace", "--p", "4", "--g", "1,0,0,1"),
    ("table", "--p", "4"),
    ("verify", "--p", "3,4"),
    ("gamma", "--p", "5", "--a", "1", "--psi-scale", "5"),
])
def test_bad_field_input_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("verify", "--p", "3", "--samples", "-2"),
    ("verify", "--p", "3", "--max-enum", "-1"),
    ("verify", "--p", "3", "--samples", "-2", "--max-enum", "-1"),
    ("table", "--p", "97", "--n", "2", "--samples", "-3"),
    ("table", "--p", "3", "--max-enum", "-1"),
])
def test_negative_sampling_counts_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "must be >= 0" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--p", "3"),
    ("table", "--p", "5", "--n", "2", "--samples", "2"),
    ("table", "--p", "3"),
])
def test_negative_seed_exits_2(capsys, argv):
    """A negative seed is bad input for verify and for a sampled or an
    exhaustive table, not an internal fault of the seed sequence."""
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert (code, out, err) == (2, "", "error: --seed must be >= 0, got -1\n")


@pytest.mark.parametrize("fault", [ValueError, InvariantViolation])
def test_library_fault_exits_3(capsys, monkeypatch, fault):
    def broken(*args, **kwargs):
        raise fault("injected")

    monkeypatch.setattr(weilchar.cli, "trace_oracle", broken)
    code, _, err = run(capsys, "trace", "--p", "5", "--g", "2,0,0,3")
    assert code == 3
    assert "internal error" in err and "injected" in err


def test_cached_parser_carries_no_state(capsys):
    """Back-to-back calls on the one cached parser print what a fresh parser
    prints for each command line alone."""
    sequence = [
        ("trace", "--p", "5", "--g", "1,1,0,1", "--lift", "minus", "--format", "json"),
        ("trace", "--p", "5", "--g", "1,1,0,1"),
        ("gamma", "--p", "7", "--a", "3", "--format", "csv"),
        ("table", "--p", "3", "--format", "json"),
        ("gamma", "--p", "7", "--a", "3"),
        ("table", "--p", "5", "--n", "2", "--samples", "2", "--seed", "4"),
        ("trace", "--p", "5", "--g", "2,0,0,3", "--l", "0,1", "--psi-scale", "2"),
        ("table", "--p", "3"),
    ]
    assert weilchar.cli.build_parser() is weilchar.cli.build_parser()
    cached = [run(capsys, *argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        weilchar.cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert cached == fresh
    assert len({out for _, out, _ in cached}) == len(sequence)


@pytest.mark.parametrize("buffered", [True, False])
def test_closed_pipe_exits_quietly(buffered):
    """`weilchar table --p 13 --format json | head -1`: the reader closes the
    pipe after one line of about 400 kB, and the writer stops with no
    traceback, whether stdout is block buffered or not."""
    env = dict(os.environ, PYTHONPATH=str(Path(weilchar.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "weilchar", "table", "--p", "13", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == weilchar.cli.PIPE_CLOSED
    assert err == ""


def test_package_has_no_assert_statements():
    src = Path(weilchar.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
