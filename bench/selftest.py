#!/usr/bin/env python3
"""Show that each output check of the benchmark rejects a wrong value.

    python3 bench/selftest.py

Runs real ops on small cells, confirms that their true outputs pass, then
feeds each check a corrupted copy and requires a CheckFailed.  The `verify`
case runs with `--corrupt-cocycle`, the package's own fault injection, and
requires exit 1 with the cocycle suite failing and a witness.  Exit code 0
when every corruption was rejected, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import weilchar as wc  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import CliOut  # noqa: E402


def edited(out: CliOut, edit) -> CliOut:
    doc = json.loads(out.stdout)
    edit(doc)
    return CliOut(out.rc, json.dumps(doc), out.stderr)


def negate(z: dict) -> None:
    z["re"], z["im"] = -z["re"], -z["im"]


def scale(z: dict, c: float) -> None:
    z["re"], z["im"] = c * z["re"], c * z["im"]


def identity_row(rows: list) -> dict:
    return next(r for r in rows if r["dim_ker"] == 2)


def cases():
    """(name, op, true output, corrupted outputs by name)."""
    rng = np.random.default_rng(0)
    g = workloads.random_symplectic(rng, 5, 2)
    op = workloads.trace_op(5, 2, g, "minus")
    out = op.run()
    yield "trace", op, out, {
        "trace with its sign flipped": edited(out, lambda d: [negate(d[k]) for k in (
            "oracle", "closed_form", "factor_form")]),
        "oracle alone with its sign flipped": edited(out, lambda d: negate(d["oracle"])),
        "factor off the unit phases": edited(out, lambda d: scale(d["factor_form"], 1.5)),
    }

    op = workloads.table_op(5, 1, None)
    out = op.run()
    yield "table", op, out, {
        "row with a scaled trace": edited(out, lambda d: scale(d[7]["trace"], 2.0)),
        "row with a wrong dim_ker": edited(out, lambda d: d[7].update(dim_ker=d[7]["dim_ker"] ^ 1)),
        "row with a flipped det_sigma class": edited(out, lambda d: d[7]["det_sigma_class"].update(
            is_square=not d[7]["det_sigma_class"]["is_square"])),
        "identity with a negated trace": edited(out, lambda d: negate(identity_row(d)["trace"])),
        "table missing a row": edited(out, lambda d: d.pop(3)),
    }

    op = workloads.verify_op(3, 1, 0, "--corrupt-cocycle")
    out = op.run()
    doc = json.loads(out.stdout)
    cocycle = next(r for r in doc["results"] if r["suite"] == "cocycle")
    if out.rc != 1 or cocycle["ok"] or not cocycle["witness"]:
        raise SystemExit(f"--corrupt-cocycle gave exit {out.rc} and cocycle suite {cocycle}")
    yield "verify --corrupt-cocycle", op, None, {"cocycle suite failing": out}

    char = wc.AdditiveCharacter(wc.Fp(5))
    space = wc.SymplecticSpace(wc.Fp(5), 2)
    g1, g2 = (workloads.random_symplectic(rng, 5, 2) for _ in range(2))
    op = workloads.product_op(char, space, g1, g2)
    r1, r2, r12 = op.run()
    yield "product", op, (r1, r2, r12), {
        "product operator negated": (r1, r2, -r12),
        "non-unitary operator": (1.01 * r1, r2, r12),
        "operators swapped": (r2, r1, r12),
    }

    std = np.hstack([np.eye(2, dtype=np.int64), np.zeros((2, 2), dtype=np.int64)])
    lags = [space.lagrangian((std @ workloads.random_symplectic(rng, 5, 2).T) % 5)
            for _ in range(4)]
    op = workloads.loop_op(char, lags)
    mats, mg = op.run()
    yield "loop", op, (mats, mg), {
        "maslov_gamma rotated by i": (mats, 1j * mg),
        "one intertwiner reversed": ([m.conj().T if i == 0 else m for i, m in enumerate(mats)],
                                     mg),
    }


def main() -> int:
    bad = 0
    for name, op, out, wrong in cases():
        if out is not None:
            op.check(copy.deepcopy(out))
            print(f"accepts {name}: true output")
        for what, corrupted in wrong.items():
            try:
                op.check(corrupted)
            except CheckFailed as exc:
                print(f"rejects {name}: {what}: {str(exc)[:100]}")
            else:
                print(f"MISSED  {name}: {what}")
                bad += 1
    print("self-test:", "pass" if not bad else f"{bad} corruption(s) not rejected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
