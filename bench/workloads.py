"""The four benchmark workloads: their inputs, one round of ops, and the checks.

Each workload is built from the seed alone.  `build` returns one round: a
list of ops that the runner repeats whole until the run time is spent.  An op
is `run()` (timed), then `error(out)` (a refused op, or None), then
`check(out)` (untimed, raises CheckFailed, returns counters for the trace).
CLI ops call `weilchar.cli.main(argv)` in-process with output captured;
library ops look their functions up on the package at call time, so the
traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import weilchar as wc
import weilchar.cli

from checks import (
    CheckFailed,
    as_complex,
    check_unit_phase,
    close,
    gram_j,
    group_order,
    is_symplectic,
    reference_trace,
    require,
)

WORKLOADS = ("verify-sweep", "table-sweep", "trace-dense", "operator-products")

VERIFY_CELLS = ((3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (5, 2))
VERIFY_SAMPLES = 5
VERIFY_SUITES = {"gamma", "polygon", "cocycle", "trace", "loops", "theta",
                 "structural", "homomorphism"}

TABLE_EXHAUSTIVE = (3, 5, 7, 11, 13)
TABLE_SAMPLED = ((97, 1), (17, 2), (7, 3), (3, 5))
TABLE_SAMPLES = 50
# `table` refuses this cell with the 343 representation cap although it builds
# no matrix.  It fails on every seed, so it runs with a fixed seed.
TABLE_CAP_FAULT = (97, 2)

# Dense cells for trace-dense, with the number of distinct random elements
# per round, each traced with both lifts.  Op times cluster by cell: (97, 1)
# cheap, (17, 2) in the middle, (7, 3) and (3, 5) dear.  Equal op counts in
# the three clusters put the median op in the middle of the (17, 2) cluster,
# not on the edge between two clusters, where it would jump with small changes.
DENSE_CELLS = {(97, 1): 6, (17, 2): 6, (7, 3): 3, (3, 5): 3}
# Product pairs and loops per round for operator-products.  Here the median
# op falls among the (7, 3) and (3, 5) ops instead: whole-matrix ops at
# (17, 2) varied by up to 40 % between runs of one commit, those at the
# larger cells by about 14 %.
OPERATOR_CELLS = {(97, 1): 1, (17, 2): 1, (7, 3): 3, (3, 5): 3}


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], dict]
    error: Callable[[Any], str | None] = lambda out: None


@dataclass
class CliOut:
    rc: int
    stdout: str
    stderr: str


def _cli_run(argv: list[str]) -> Callable[[], CliOut]:
    def run() -> CliOut:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = weilchar.cli.main(argv)
        return CliOut(rc, out.getvalue(), err.getvalue())

    return run


def _cli_error(out: CliOut) -> str | None:
    """Exit 2 is a refused op; exit 0 and 1 produce output that is checked."""
    return (out.stderr.strip() or "exit 2") if out.rc == 2 else None


def _cli_json(out: CliOut):
    try:
        return json.loads(out.stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"exit code {out.rc}, output is not JSON ({exc}): "
                          f"{out.stderr.strip()}") from exc


def _cli_op(label: str, argv: list[str], check: Callable[[Any], dict]) -> Op:
    def checked(out: CliOut) -> dict:
        counts = check(_cli_json(out))
        require(out.rc == 0, f"exit code {out.rc}: {out.stderr.strip()}")
        counts["cli.output_bytes"] = len(out.stdout.encode())
        return counts

    return Op(label, _cli_run(argv), checked, _cli_error)


def _rng(seed: int, workload: str, p: int, n: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload), p, n]))


def random_symplectic(rng: np.random.Generator, p: int, n: int) -> np.ndarray:
    """A product of 4n + 2 random transvections x -> x + c form(x, v) v."""
    d = 2 * n
    j = gram_j(n)
    g = np.eye(d, dtype=np.int64)
    for _ in range(2 * d + 2):
        v = rng.integers(0, p, d)
        c = int(rng.integers(1, p))
        g = ((np.eye(d, dtype=np.int64) + c * np.outer(v, j @ v)) @ g) % p
    if not is_symplectic(g, p):
        raise RuntimeError("generated matrix is not symplectic")
    return g


# -- verify-sweep ------------------------------------------------------------

def _check_verify(p: int, n: int):
    def check(doc) -> dict:
        require(doc["ok"] is True, f"verdict is not pass: {_first_bad(doc)}")
        results = doc["results"]
        require({r["suite"] for r in results} == VERIFY_SUITES and len(results) == 8,
                f"suites run: {sorted(r['suite'] for r in results)}")
        for r in results:
            require((r["p"], r["n"]) == (p, n), f"{r['suite']} ran on ({r['p']}, {r['n']})")
            require(r["checked"] > 0, f"{r['suite']} checked nothing")
            require(r["failed"] == 0 and r["ok"], f"{r['suite']} failed: {r['witness']}")
        return {"verify.checks": sum(r["checked"] for r in results)}

    return check


def _first_bad(doc) -> str:
    bad = [r for r in doc["results"] if not r["ok"]]
    return f"{bad[0]['suite']} witness {bad[0]['witness']}" if bad else "no failed suite"


def verify_op(p: int, n: int, seed: int, *extra: str) -> Op:
    return _cli_op(f"verify p={p} n={n}",
                   ["verify", "--p", str(p), "--n", str(n), "--seed", str(seed),
                    "--samples", str(VERIFY_SAMPLES), "--format", "json", *extra],
                   _check_verify(p, n))


def _verify_ops(seed: int) -> list[Op]:
    return [verify_op(p, n, seed) for p, n in VERIFY_CELLS]


# -- table-sweep -------------------------------------------------------------

def _check_table(p: int, n: int, exhaustive: bool, samples: int):
    def check(rows) -> dict:
        scale = float(p) ** n
        seen = set()
        sq_sum = 0.0
        for row in rows:
            g = np.array(row["g"], dtype=np.int64)
            require(g.shape == (2 * n, 2 * n) and is_symplectic(g, p), f"not in Sp: {row['g']}")
            ref, k, det = reference_trace(g, p)
            chi = as_complex(row["trace"])
            require(row["dim_ker"] == k, f"dim_ker {row['dim_ker']} != {k} for {row['g']}")
            is_sq = pow(det, (p - 1) // 2, p) == 1
            require(row["det_sigma_class"]["is_square"] == is_sq,
                    f"det_sigma class {row['det_sigma_class']} != det {det} for {row['g']}")
            require(row["formula_used"] == ("closed-singular" if k else "closed"),
                    f"formula_used {row['formula_used']} with k={k}")
            check_unit_phase(chi, p, k, f"trace of {row['g']}")
            require(close(chi, ref, 1e-9 * scale), f"trace {chi} != reference {ref} for {row['g']}")
            if k == 2 * n:
                require(close(chi, scale, 1e-9 * scale), f"identity has trace {chi} != p^n")
            seen.add(g.tobytes())
            sq_sum += abs(chi) ** 2
        if exhaustive:
            order = group_order(p, n)
            require(len(rows) == order and len(seen) == order,
                    f"{len(rows)} rows, {len(seen)} distinct, |G| = {order}")
            require(abs(sq_sum - 2 * order) <= 1e-6 * order,
                    f"sum |chi|^2 = {sq_sum} != 2|G| = {2 * order}")
        else:
            require(len(rows) == samples, f"{len(rows)} rows for {samples} samples")
        return {}

    return check


def table_op(p: int, n: int, seed: int | None) -> Op:
    """Exhaustive over SL2(F_p) when seed is None, else TABLE_SAMPLES samples."""
    if seed is None:
        return _cli_op(f"table p={p} n=1", ["table", "--p", str(p), "--format", "json"],
                       _check_table(p, 1, True, 0))
    return _cli_op(f"table p={p} n={n}",
                   ["table", "--p", str(p), "--n", str(n), "--samples", str(TABLE_SAMPLES),
                    "--seed", str(seed), "--format", "json"],
                   _check_table(p, n, False, TABLE_SAMPLES))


def _table_ops(seed: int) -> list[Op]:
    ops = [table_op(p, 1, None) for p in TABLE_EXHAUSTIVE]
    ops += [table_op(p, n, seed) for p, n in TABLE_SAMPLED]
    return ops + [table_op(*TABLE_CAP_FAULT, 0)]


# -- trace-dense -------------------------------------------------------------

def _check_trace(p: int, n: int, g: np.ndarray, sign: int):
    def check(doc) -> dict:
        ref, k, _ = reference_trace(g, p)
        want = sign * ref
        tol = 1e-8 * float(p) ** n
        require(doc["agree"] and doc["oracle_vs_factor"] and doc["oracle_vs_closed"],
                f"routes disagree by their own flags: {doc}")
        vals = {key: as_complex(doc[key]) for key in ("oracle", "closed_form", "factor_form")}
        for key, chi in vals.items():
            check_unit_phase(chi, p, k, key)
            require(close(chi, want, tol), f"{key} {chi} != reference {want}")
        return {}

    return check


def trace_op(p: int, n: int, g: np.ndarray, lift: str) -> Op:
    flat = ",".join(str(int(x)) for x in g.reshape(-1))
    return _cli_op(f"trace p={p} n={n}",
                   ["trace", "--p", str(p), "--n", str(n), "--g", flat, "--lift", lift,
                    "--format", "json"],
                   _check_trace(p, n, g, 1 if lift == "plus" else -1))


def _trace_ops(seed: int) -> list[Op]:
    ops = []
    for (p, n), count in DENSE_CELLS.items():
        rng = _rng(seed, "trace-dense", p, n)
        for _ in range(count):
            g = random_symplectic(rng, p, n)
            ops += [trace_op(p, n, g, "plus"), trace_op(p, n, g, "minus")]
    return ops


# -- operator-products -------------------------------------------------------

def _unitary_err(m: np.ndarray) -> float:
    return float(np.max(np.abs(m @ m.conj().T - np.eye(len(m)))))


def product_op(char, space, g1: np.ndarray, g2: np.ndarray) -> Op:
    p, n = char.p, space.n
    e1g, e2g = space.element(g1), space.element(g2)

    def run():
        e1 = wc.split_lift(char, e1g)
        e2 = wc.split_lift(char, e2g)
        return wc.weil_operator(e1), wc.weil_operator(e2), wc.weil_operator(e1 * e2)

    def check(out) -> dict:
        r1, r2, r12 = out
        tol = 1e-8 * float(p) ** n
        for name, m in (("rho(e1)", r1), ("rho(e2)", r2), ("rho(e1 e2)", r12)):
            require(m.shape == (p**n, p**n), f"{name} has shape {m.shape}")
            err = _unitary_err(m)
            require(err <= tol, f"{name} is not unitary: error {err:.3e}")
        err = float(np.max(np.abs(r1 @ r2 - r12)))
        require(err <= tol, f"rho(e1) rho(e2) != rho(e1 e2): error {err:.3e}")
        for name, m, g in (("rho(e1)", r1, g1), ("rho(e2)", r2, g2)):
            ref = reference_trace(g, p)[0]
            require(close(np.trace(m), ref, tol), f"trace {name} {np.trace(m)} != {ref}")
        return {}

    return Op(f"product p={p} n={n}", run, check)


def loop_op(char, lags) -> Op:
    p, n = char.p, lags[0].space.n

    def run():
        mats = [wc.intertwiner(char, a, b) for a, b in zip(lags, lags[1:] + lags[:1])]
        return mats, wc.maslov_gamma(char, *lags)

    def check(out) -> dict:
        mats, mg = out
        loop = np.eye(p**n)
        for m in mats:
            loop = m @ loop
        c = loop[0, 0]
        require(abs(abs(c) - 1.0) <= 1e-8, f"loop scalar {c} has modulus {abs(c)}")
        err = float(np.max(np.abs(loop - np.conj(mg) * np.eye(p**n))))
        require(err <= 1e-8, f"loop of {len(lags)} != conj(maslov_gamma) {np.conj(mg)}: "
                             f"error {err:.3e}")
        return {}

    return Op(f"loop p={p} n={n}", run, check)


def _operator_ops(seed: int) -> list[Op]:
    ops = []
    for (p, n), count in OPERATOR_CELLS.items():
        rng = _rng(seed, "operator-products", p, n)
        char = wc.AdditiveCharacter(wc.Fp(p))
        space = wc.SymplecticSpace(wc.Fp(p), n)
        std = np.hstack([np.eye(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64)])
        for i in range(count):
            ops.append(product_op(char, space, random_symplectic(rng, p, n),
                                   random_symplectic(rng, p, n)))
            lags = [space.lagrangian((std @ random_symplectic(rng, p, n).T) % p)
                    for _ in range(3 + i % 2)]
            ops.append(loop_op(char, lags))
    return ops


_BUILDERS = {
    "verify-sweep": _verify_ops,
    "table-sweep": _table_ops,
    "trace-dense": _trace_ops,
    "operator-products": _operator_ops,
}


def build(workload: str, seed: int) -> list[Op]:
    """One round of ops for the workload; the same seed gives the same round."""
    return _BUILDERS[workload](seed)

