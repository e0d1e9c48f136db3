"""Output checks that rest on the benchmark's own arithmetic, never on weilchar.

Everything here is plain Python integer elimination over F_p and a direct
Gauss sum, so a fault in the package's `field`, `characters` or `charformula`
layers cannot hide itself.  Each check raises `CheckFailed` with a message.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

UNIT_PHASES = (1, -1, 1j, -1j)


class CheckFailed(Exception):
    pass


def require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def reduce(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int], int]:
    """(reduced row echelon form, pivot columns, det mod p) over F_p.

    det is 0 unless the matrix is square and invertible.
    """
    a = [[x % p for x in r] for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    det = 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            det = -det
        det = det * a[r][c] % p
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots, (det % p if nrows == ncols == len(pivots) else 0)


def kernel(m: list[list[int]], p: int) -> list[list[int]]:
    """A basis of {x : m x = 0} over F_p."""
    a, pivots, _ = reduce(m, p)
    ncols = len(m[0])
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc] % p
        out.append(v)
    return out


def gram_j(n: int) -> np.ndarray:
    j = np.zeros((2 * n, 2 * n), dtype=np.int64)
    j[:n, n:] = np.eye(n, dtype=np.int64)
    j[n:, :n] = -np.eye(n, dtype=np.int64)
    return j


def is_symplectic(g: np.ndarray, p: int) -> bool:
    j = gram_j(len(g) // 2)
    return not np.any((g.T @ j @ g - j) % p)


def group_order(p: int, n: int) -> int:
    out = p ** (n * n)
    for i in range(1, n + 1):
        out *= p ** (2 * i) - 1
    return out


@lru_cache(maxsize=None)
def gauss_gamma(p: int, a: int) -> complex:
    """p^(-1/2) * sum_x exp(2 pi i * a x^2 / 2 / p), the normalized Weil index."""
    half = (p + 1) // 2
    s = sum(cmath.exp(2j * math.pi * ((half * a * x * x) % p) / p) for x in range(p))
    return s / math.sqrt(p)


def displacement(g: np.ndarray, p: int) -> tuple[int, int]:
    """(dim ker(g - 1), det of (v, w) -> form((g-1)v, w) on a complement)."""
    d = len(g)
    gm1 = (g - np.eye(d, dtype=np.int64)) % p
    ker = kernel(gm1.tolist(), p)
    # the discriminant does not depend on the complement: take standard
    # vectors greedily, each one raising the rank of (ker ; chosen)
    comp: list[list[int]] = []
    for i in range(d):
        e = [int(i == c) for c in range(d)]
        if len(reduce(ker + comp + [e], p)[1]) > len(ker) + len(comp):
            comp.append(e)
    if not comp:
        return len(ker), 1
    b = np.array(comp, dtype=np.int64)
    gram = (b @ gm1.T @ gram_j(d // 2) @ b.T) % p
    det = reduce(gram.tolist(), p)[2]
    require(det != 0, "displacement pairing is degenerate on the complement")
    return len(ker), det


def reference_trace(g: np.ndarray, p: int) -> tuple[complex, int, int]:
    """(p^(k/2) gamma(1)^(2n-k-1) gamma(det sigma_g), k, det) for the plus lift."""
    k, det = displacement(g, p)
    val = math.sqrt(p) ** k * gauss_gamma(p, 1) ** (len(g) - k - 1) * gauss_gamma(p, det)
    return val, k, det


def check_unit_phase(chi: complex, p: int, k: int, what: str) -> None:
    """|chi|^2 = p^k and chi / p^(k/2) in {1, -1, i, -i} within 1e-9."""
    unit = chi / math.sqrt(p) ** k
    require(min(abs(unit - u) for u in UNIT_PHASES) <= 1e-9,
            f"{what}: {chi} / p^(k/2) with k={k} is not in {{1,-1,i,-i}}")


def close(a: complex, b: complex, tol: float) -> bool:
    return abs(a - b) <= tol


def as_complex(obj: dict) -> complex:
    return complex(obj["re"], obj["im"])
