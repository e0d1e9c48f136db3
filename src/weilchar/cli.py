"""Command-line front end: point queries, character tables, verification.

Exit codes: 0 success, 1 a verification or agreement check failed,
2 bad usage or invalid input, 3 an internal error such as a failed invariant
(a fault in the library, never in the input), 141 (128 + SIGPIPE, as a shell
reports) when the reader closed stdout early, as `| head` does.  Complex
numbers serialize to JSON as {"re": ..., "im": ...}; square classes as
{"rep": ..., "is_square": ...}.
Matrices on the command line are row-major comma-separated residues.

`table` goes from one (N, 2n, 2n) stack of group elements to its output
text: the whole group from `SymplecticSpace.element_matrices` when it fits,
else `--samples` seeded random elements from one
`SymplecticSpace.random_element_matrices` call, which draws them as stacks
of bounded size, and one stacked closed-form call for all rows.  Its JSON
comes from a fixed-shape writer that prints exactly what
`json.dumps(rows, indent=2, sort_keys=True)` prints; every other command
goes through `json.dumps`.  `verify --suites` picks the suites to run, and
the dense cap binds only when a dense suite is picked.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import traceback
from itertools import chain

import numpy as np

from .characters import AdditiveCharacter, approx_eq
from .charformula import _factor_trace, closed_form_data, closed_form_data_many
from .errors import DimensionMismatch, EnumerationTooLarge, ZeroFormClass
from .field import Fp
from .metaplectic import character_factor, split_lift
from .schrodinger import MAX_REP_DIM, trace_oracle
from .symplectic import GROUP_CAP, LAGRANGIAN_CAP, SymplecticSpace
from .verify import DENSE_SUITES, SUITE_ORDER, as_json_complex, run_verification

CHECK_ERROR = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3
PIPE_CLOSED = 141


class InputError(Exception):
    pass


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(";", ",").split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InputError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_suites(text: str) -> tuple[str, ...]:
    """Suite names from a comma list, each once, checked before any suite runs."""
    names = tuple(dict.fromkeys(tok.strip() for tok in text.split(",") if tok.strip()))
    unknown = [name for name in names if name not in SUITE_ORDER]
    if unknown or not names:
        problem = f"unknown suites {', '.join(unknown)}" if unknown else "no suite named"
        raise InputError(f"--suites {text!r}: {problem}; valid: {', '.join(SUITE_ORDER)}")
    return names


def _matrix_from_flag(text: str, rows: int, cols: int) -> np.ndarray:
    vals = _parse_ints(text)
    if len(vals) != rows * cols:
        raise InputError(f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(vals)}")
    return np.array(vals, dtype=np.int64).reshape(rows, cols)


def _field_and_char(p: int, psi_scale: int) -> tuple[Fp, AdditiveCharacter]:
    try:
        field = Fp(p)
        return field, AdditiveCharacter(field, psi_scale)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _check_oracle_rows(p: int, n: int) -> None:
    """The oracle sums p^n kernel rows; allow as many as one dense operator has."""
    if p**n > MAX_REP_DIM**2:
        raise InputError(
            f"p^n = {p**n} exceeds the oracle's row cap {MAX_REP_DIM**2} "
            f"(the kernel diagonal has p^n rows)"
        )


def _check_sampling(args) -> None:
    """--samples and --max-enum count work to do, and --seed seeds the
    draws; a negative value of any is bad input, whether or not the cell
    draws at all."""
    for flag, value in (("--samples", args.samples), ("--max-enum", args.max_enum),
                        ("--seed", args.seed)):
        if value < 0:
            raise InputError(f"{flag} must be >= 0, got {value}")


def _emit(args, text_lines, json_obj, csv_rows=None, csv_header=None) -> None:
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        print(json.dumps(json_obj, indent=2, sort_keys=True))
    elif fmt == "csv":
        out = io.StringIO()
        w = csv.writer(out)
        if csv_header:
            w.writerow(csv_header)
        for row in csv_rows or []:
            w.writerow(row)
        sys.stdout.write(out.getvalue())
    else:
        for line in text_lines:
            print(line)


def cmd_gamma(args) -> int:
    _, char = _field_and_char(args.p, args.psi_scale)
    g = char.gamma(args.a)
    chi_int = int(char.chi(args.a).real)
    _emit(
        args,
        [f"gamma({args.a}) = {g.real:+.12f}{g.imag:+.12f}i", f"chi({args.a}) = {chi_int:+d}"],
        {"gamma": as_json_complex(g), "chi": chi_int},
        csv_rows=[[args.p, args.a, g.real, g.imag, chi_int]],
        csv_header=["p", "a", "gamma_re", "gamma_im", "chi"],
    )
    return 0


def cmd_trace(args) -> int:
    field, char = _field_and_char(args.p, args.psi_scale)
    _check_oracle_rows(args.p, args.n)
    space = SymplecticSpace(field, args.n)
    d = space.dim
    try:
        g = space.element(_matrix_from_flag(args.g, d, d))
    except DimensionMismatch as exc:
        raise InputError(f"not in Sp: {exc}") from exc
    lag = None
    if args.l is not None:
        lag = space.lagrangian(_matrix_from_flag(args.l, space.n, d))
    sign = 1 if args.lift == "plus" else -1
    e = split_lift(char, g, sign=sign)
    oracle = trace_oracle(e, lag) + 0.0
    k, _, closed = closed_form_data(char, g)
    factor = _factor_trace(args.p, k, character_factor(e, lag))
    closed = sign * closed + 0.0
    scale = float(args.p) ** args.n
    ok_of = approx_eq(oracle, factor, scale=scale)
    ok_oc = approx_eq(oracle, closed, scale=scale)
    # the closed and factor forms are exact, so they must be equal
    agree = ok_of and ok_oc and closed == factor
    _emit(
        args,
        [
            f"oracle        = {oracle.real:+.12f}{oracle.imag:+.12f}i",
            f"closed_form   = {closed.real:+.12f}{closed.imag:+.12f}i",
            f"factor_form   = {factor.real:+.12f}{factor.imag:+.12f}i",
            f"agree         = {agree}",
        ],
        {
            "oracle": as_json_complex(oracle),
            "closed_form": as_json_complex(closed),
            "factor_form": as_json_complex(factor),
            "oracle_vs_factor": ok_of,
            "oracle_vs_closed": ok_oc,
            "agree": agree,
        },
        csv_rows=[[oracle.real, oracle.imag, closed.real, closed.imag,
                   factor.real, factor.imag, agree]],
        csv_header=["oracle_re", "oracle_im", "closed_re", "closed_im",
                    "factor_re", "factor_im", "agree"],
    )
    return 0 if agree else CHECK_ERROR


def _table_rows(args, char, space):
    """(g, dim_ker, disc, trace, formula_used) per row, g as nested lists of
    ints read off one (N, dim, dim) stack: the whole group when it fits,
    else the `--samples` stacked random draws of `random_element_matrices`,
    seeded by (seed, p, n); no row builds an `SpElement`."""
    if space.order() <= min(GROUP_CAP, args.max_enum):
        mats = space.element_matrices()
    else:
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, args.p, args.n]))
        mats = space.random_element_matrices(args.samples, rng)
    for g, (k, disc, tr) in zip(mats.tolist(), closed_form_data_many(char, space, mats)):
        yield g, k, disc, tr, "closed-singular" if k else "closed"


def _json_row_template(nrows: int, ncols: int) -> str:
    """One table row as `json.dumps(..., indent=2, sort_keys=True)` lays it
    out inside the top-level list, with a {} for each value."""
    matrix = ",\n".join(
        "      [\n" + ",\n".join(["        {}"] * ncols) + "\n      ]" for _ in range(nrows))
    return (
        '  {{\n    "det_sigma_class": {{\n      "is_square": {},\n      "rep": {}\n    }},\n'
        '    "dim_ker": {},\n    "formula_used": "{}",\n'
        '    "g": [\n' + matrix + "\n    ],\n"
        '    "trace": {{\n      "im": {!r},\n      "re": {!r}\n    }}\n  }}'
    )


def _table_json(rows) -> str:
    """The table rows as `json.dumps(row dicts, indent=2, sort_keys=True)`
    writes them, from one template: keys in sorted order, one list item per
    line, ints through `str` and the (finite) trace parts through
    `float.__repr__`, as `json` writes them."""
    items = []
    template = None
    for g, k, disc, tr, used in rows:
        if template is None:
            template = _json_row_template(len(g), len(g[0]))
        z = complex(tr)
        items.append(template.format("true" if disc.is_square else "false", disc.rep, k, used,
                                     *chain.from_iterable(g), z.imag, z.real))
    return "[\n" + ",\n".join(items) + "\n]" if items else "[]"


def cmd_table(args) -> int:
    _check_sampling(args)
    field, char = _field_and_char(args.p, args.psi_scale)
    space = SymplecticSpace(field, args.n)
    table = _table_rows(args, char, space)
    if args.format == "json":
        # print writes the newline on its own, so a reader that closes the
        # pipe during the document still meets a failed write
        print(_table_json(table))
        return 0
    header = ["g", "dim_ker", "det_sigma_class", "trace_re", "trace_im", "formula_used"]
    rows = [
        [" ".join(map(str, chain.from_iterable(g))), k, disc.rep,
         f"{tr.real:.12g}", f"{tr.imag:.12g}", used]
        for g, k, disc, tr, used in table
    ]
    if args.format == "text":
        _emit(args, [",".join(header)] + [",".join(str(c) for c in r) for r in rows], None)
    else:
        _emit(args, [], None, csv_rows=rows, csv_header=header)
    return 0


def cmd_verify(args) -> int:
    _check_sampling(args)
    ps = _parse_ints(args.p)
    ns = _parse_ints(args.n)
    if not ps or not ns:
        raise InputError("need at least one p and one n")
    for p in ps:
        _field_and_char(p, args.psi_scale)
    suites = SUITE_ORDER if args.suites is None else _parse_suites(args.suites)
    results = run_verification(
        ps,
        ns,
        seed=args.seed,
        samples=args.samples,
        psi_scale=args.psi_scale,
        max_enum=args.max_enum,
        corrupt_cocycle=args.corrupt_cocycle,
        suites=suites,
    )
    ok = all(r.ok for r in results)
    lines = []
    for r in results:
        status = "OK  " if r.ok else "FAIL"
        lines.append(
            f"{status} p={r.p:<3d} n={r.n} {r.suite:<13s} "
            f"checked={r.checked:<6d} failed={r.failed:<4d} "
            f"max_err={r.max_err:.3e} ({r.seconds:.2f}s)"
        )
    lines.append(f"verdict: {'pass' if ok else 'FAIL'}")
    first_bad = next((r for r in results if not r.ok), None)
    if first_bad is not None:
        lines.append("first witness: " + json.dumps(first_bad.witness, sort_keys=True, default=str))
    csv_rows = [[r.suite, r.p, r.n, r.checked, r.failed, r.max_err, round(r.seconds, 3), r.ok]
                for r in results]
    _emit(
        args,
        lines,
        {"results": [r.as_json() for r in results], "ok": ok},
        csv_rows=csv_rows,
        csv_header=["suite", "p", "n", "checked", "failed", "max_err", "seconds", "ok"],
    )
    return 0 if ok else CHECK_ERROR


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Parsing leaves it as it
    was, and `main` looks the command's handler up by name at call time."""
    ap = argparse.ArgumentParser(
        prog="weilchar",
        description="Weil representation over F_p: values, tables, verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, with_n=True):
        sp.add_argument("--psi-scale", type=int, default=1,
                        help="nonzero residue scaling the additive character")
        sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
        if with_n:
            sp.add_argument("--n", type=int, default=1, help="half-dimension of the space")

    def sampling(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--samples", type=int, default=50)
        sp.add_argument("--max-enum", type=int, default=LAGRANGIAN_CAP,
                        help="budget for exhaustive work: table lists the whole group "
                             "when its order fits; verify's theta suite uses every "
                             "Lagrangian when its character factor evaluations "
                             "(Lagrangians x elements) fit, at most 20000 whatever the "
                             "budget, and its gamma suite sums a form directly when "
                             "p^dim fits")

    g = sub.add_parser("gamma", help="normalized Gauss sum and quadratic character")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--a", type=int, required=True, help="nonzero residue")
    common(g, with_n=False)

    t = sub.add_parser("trace", help="character value of one lifted element, three ways")
    t.add_argument("--p", type=int, required=True)
    t.add_argument("--g", type=str, required=True,
                   help="row-major comma-separated entries of a 2n x 2n matrix")
    t.add_argument("--l", type=str, default=None,
                   help="optional Lagrangian: n rows of 2n comma-separated entries")
    t.add_argument("--lift", choices=("plus", "minus"), default="plus")
    common(t)

    tb = sub.add_parser("table", help="character table over the group (CSV)")
    tb.add_argument("--p", type=int, required=True)
    common(tb)
    sampling(tb)

    v = sub.add_parser("verify", help="run the invariant suites")
    v.add_argument("--p", type=str, default="3,5", help="comma-separated primes")
    v.add_argument("--n", type=str, default="1", help="comma-separated half-dimensions")
    common(v, with_n=False)
    sampling(v)
    v.add_argument("--suites", type=str, default=None,
                   help=f"comma-separated suites to run, in this order (default: all of "
                        f"{','.join(SUITE_ORDER)}); the dense cap p^n <= {MAX_REP_DIM} binds "
                        f"only {','.join(DENSE_SUITES)}")
    v.add_argument("--corrupt-cocycle", action="store_true", help=argparse.SUPPRESS)
    return ap


def _drop_stdout() -> None:
    """Point the stdout descriptor at the null device, so the output still
    buffered is discarded when the interpreter flushes it at exit."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, io.UnsupportedOperation):
        return  # stdout is no file descriptor, so nothing flushes to a pipe
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        _drop_stdout()
        return PIPE_CLOSED
    except (InputError, DimensionMismatch, EnumerationTooLarge, ZeroFormClass) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # a library fault must not pass for bad input
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
