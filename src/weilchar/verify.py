"""Cross-checking harness tying the three routes to the character together.

Each suite runs on one (p, n) cell with its own deterministically derived
RNG, so a suite's draws do not depend on which other suites run.  Every
suite has a small fixed core that runs even with samples=0; the sampled part
scales with the samples argument.  A corrupt_cocycle hook flips the sign of
the two-cocycle on non-identity pairs, which must make the splitting suite
fail with a witness; it exists to prove the harness can catch a wrong
cocycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .characters import AdditiveCharacter
from .charformula import (
    _factor_trace,
    check_inverse_identity,
    check_kernel_dims,
    check_maslov_class,
    check_transfer_isometry,
    closed_form_data,
)
from .errors import DimensionMismatch
from .field import Fp, FpMatrix
from .maslov import Orientation, edge_factor, maslov_form, maslov_gamma, predicted_rank_disc
from .metaplectic import (
    character_factor,
    character_factor_doubled,
    character_factors,
    mp_cocycle,
    split_lift,
    split_value,
)
from .quadform import QuadraticSpace, weil_index, weil_index_bruteforce
from .schrodinger import check_diagonal_kernel, intertwiner, trace_oracle, weil_operator
from .symplectic import LAGRANGIAN_CAP, Lagrangian, SpElement, SymplecticSpace

MAX_REP_DIM = 343  # largest p^n a representation-building suite will touch
# most character factors (Lagrangians x elements) the theta suite evaluates when
# it enumerates every Lagrangian
_THETA_FACTOR_BUDGET = 20_000


def as_json_complex(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    p: int
    n: int
    checked: int
    failed: int
    max_err: float
    seconds: float
    witness: dict | None = None

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def as_json(self) -> dict:
        return {
            "suite": self.suite,
            "p": self.p,
            "n": self.n,
            "checked": self.checked,
            "failed": self.failed,
            "max_err": self.max_err,
            "seconds": round(self.seconds, 3),
            "ok": self.ok,
            "witness": self.witness,
        }


class _Tally:
    """Accumulates check outcomes and keeps the first failure as witness."""

    __slots__ = ("checked", "failed", "max_err", "witness")

    def __init__(self) -> None:
        self.checked = 0
        self.failed = 0
        self.max_err = 0.0
        self.witness: dict | None = None

    def add(self, err: float, tol: float, **info) -> None:
        self.checked += 1
        self.max_err = max(self.max_err, err)
        if not err <= tol:
            self.failed += 1
            if self.witness is None:
                self.witness = {"err": err, "tol": tol, **info}

    def add_flag(self, ok: bool, **info) -> None:
        self.checked += 1
        if not ok:
            self.failed += 1
            if self.witness is None:
                self.witness = info


def _mat_list(g: SpElement) -> list:
    return g.mat.a.tolist()


def _lag_list(l: Lagrangian) -> list:
    return l.sub.basis.a.tolist()


def _standard_lagrangians(space: SymplecticSpace) -> list[Lagrangian]:
    """Three pairwise transverse Lagrangians: span(e), span(f), span(e+f)."""
    n, d = space.n, space.dim
    rows_x = np.zeros((n, d), np.int64)
    rows_y = np.zeros((n, d), np.int64)
    rows_d = np.zeros((n, d), np.int64)
    for i in range(n):
        rows_x[i, i] = 1
        rows_y[i, n + i] = 1
        rows_d[i, i] = rows_d[i, n + i] = 1
    return [space.lagrangian(r) for r in (rows_x, rows_y, rows_d)]


def _core_elements(space: SymplecticSpace) -> list[SpElement]:
    n, d = space.n, space.dim
    e1 = np.zeros(d, np.int64)
    e1[0] = 1
    ef = np.zeros(d, np.int64)
    ef[0] = ef[n] = 1
    f1 = np.zeros(d, np.int64)
    f1[n] = 1
    out = [space.identity(), space.transvection(e1), space.transvection(ef),
           space.transvection(f1, 2)]
    mat = np.eye(d, dtype=np.int64)
    mat[0, 0] = 2
    mat[n, n] = space.field.inv(2)
    out.append(space.element(mat))
    return out


def _some_lagrangians(
    space: SymplecticSpace, rng, samples: int, max_enum: int, n_elems: int
) -> list[Lagrangian]:
    """Every Lagrangian when the n_elems * count character factors the theta
    suite then evaluates fit the budget, else the standard three and samples."""
    if space.lagrangian_count() * n_elems <= min(max_enum, _THETA_FACTOR_BUDGET):
        return list(space.all_lagrangians())
    out = _standard_lagrangians(space)
    for _ in range(max(samples, 3)):
        out.append(space.random_lagrangian(rng))
    return out


def _suite_gamma(char: AdditiveCharacter, space, rng, samples, max_enum, cocycle) -> _Tally:
    t = _Tally()
    p = char.p
    field = char.field
    gam = {a: char.gamma(a) for a in range(1, p)}
    for a in range(1, p):
        t.add(abs(abs(gam[a]) - 1.0), 1e-10, kind="modulus", a=a)
    for a in range(1, p):
        for b in range(1, p):
            err = abs(gam[a] * gam[b] - gam[1] * gam[a * b % p])
            t.add(err, 1e-8, kind="product", a=a, b=b)
        for s in range(1, p):
            t.add(abs(gam[a] - gam[a * s * s % p]), 1e-10, kind="square-class", a=a, s=s)
    # diagonal forms: product rule against dimension and determinant
    count = samples if samples else 4
    for _ in range(count):
        dim = int(rng.integers(1, 5))
        entries = [int(rng.integers(1, p)) for _ in range(dim)]
        q = QuadraticSpace.diagonal(field, entries)
        det = 1
        for e in entries:
            det = det * e % p
        want = gam[1] ** (dim - 1) * gam[det]
        t.add(abs(weil_index(char, q) - want), 1e-8, kind="diag-product", entries=entries)
    # fast path against direct summation on small random symmetric grams
    for _ in range(count):
        dim = int(rng.integers(1, 5))
        if p**dim > max_enum:
            continue
        m = rng.integers(0, p, size=(dim, dim))
        gram = (m + m.T) % p
        q = QuadraticSpace(field, FpMatrix(field, gram))
        err = abs(weil_index(char, q) - weil_index_bruteforce(char, q, cap=max_enum))
        t.add(err, 1e-8, kind="fast-vs-brute", gram=gram.tolist())
    return t


def _suite_polygon(char, space, rng, samples, max_enum, cocycle) -> _Tally:
    t = _Tally()
    base = _standard_lagrangians(space)
    tuples = [(base[0], base[1], base[2]), (base[0], base[1], base[0], base[1]),
              (base[2], base[1], base[0]), (base[0], base[0], base[1])]
    for _ in range(samples):
        m = int(rng.integers(3, 6))
        tuples.append(tuple(space.random_lagrangian(rng) for _ in range(m)))
    for lags in tuples:
        q = maslov_form(*lags)
        orients = [Orientation.default(l) for l in lags]
        want_rank, want_disc = predicted_rank_disc(orients)
        t.add_flag(q.rank() == want_rank, kind="rank", got=q.rank(), want=want_rank,
                   lags=[_lag_list(l) for l in lags])
        if q.rank() == want_rank:
            t.add_flag(q.disc() == want_disc, kind="disc", got=q.disc().rep,
                       want=want_disc.rep, lags=[_lag_list(l) for l in lags])
        # edge-factor product equals the polygon index, randomized orientations
        ro = [Orientation.random(l, rng) for l in lags]
        prod = 1.0 + 0.0j
        for o1, o2 in zip(ro, ro[1:] + ro[:1]):
            prod *= edge_factor(char, o1, o2)
        err = abs(prod - maslov_gamma(char, *lags))
        t.add(err, 1e-8, kind="edge-product", lags=[_lag_list(l) for l in lags])
    return t


def _suite_cocycle(char, space, rng, samples, max_enum, cocycle) -> _Tally:
    t = _Tally()
    core = _core_elements(space)
    pairs = [(a, b) for a in core for b in core]
    for _ in range(samples):
        pairs.append((space.random_element(rng), space.random_element(rng)))
    lags = [space.standard_lagrangian()]
    if samples:
        lags.append(space.random_lagrangian(rng))
    for g, h in pairs:
        gh = g * h
        for l in lags:
            lhs = split_value(char, g, l) * split_value(char, h, l) * cocycle(char, g, h, l)
            rhs = split_value(char, gh, l)
            t.add(abs(lhs - rhs), 1e-8, kind="splitting", g=_mat_list(g), h=_mat_list(h),
                  l=_lag_list(l), got=as_json_complex(lhs), want=as_json_complex(rhs))
    # group law of lifted elements: associativity and inverses
    for _ in range(max(samples // 4, 1)):
        e1 = split_lift(char, space.random_element(rng))
        e2 = split_lift(char, space.random_element(rng))
        e3 = split_lift(char, space.random_element(rng))
        a = (e1 * e2) * e3
        b = e1 * (e2 * e3)
        t.add_flag(a.close_to(b), kind="associativity", g=_mat_list(e1.g))
        inv = e2.inverse()
        prod = e2 * inv
        t.add(abs(prod.t0 - 1.0), 1e-8, kind="inverse", g=_mat_list(e2.g))
    return t


def _suite_trace(char, space, rng, samples, max_enum, cocycle) -> _Tally:
    t = _Tally()
    p, n = char.p, space.n
    tol = 1e-8 * p**n
    elems = _core_elements(space)
    for _ in range(samples):
        elems.append(space.random_element(rng))
    for g in elems:
        k, _, closed = closed_form_data(char, g)
        for sign in (1, -1):
            e = split_lift(char, g, sign=sign)
            to = trace_oracle(e)
            tf = _factor_trace(e, None, k)
            tc = sign * closed
            err = max(abs(to - tf), abs(to - tc))
            t.add(err, tol, kind="three-way", g=_mat_list(g), sign=sign,
                  oracle=as_json_complex(to), factor=as_json_complex(tf),
                  closed=as_json_complex(tc))
    return t


def _suite_loops(char, space, rng, samples, max_enum, cocycle) -> _Tally:
    t = _Tally()
    dim = char.p**space.n
    eye = np.eye(dim)
    tuples = [tuple(_standard_lagrangians(space))]
    for _ in range(samples):
        m = int(rng.integers(3, 5))
        tuples.append(tuple(space.random_lagrangian(rng) for _ in range(m)))
    for lags in tuples:
        loop = eye
        for a, b in zip(lags, lags[1:] + lags[:1]):
            loop = intertwiner(char, a, b) @ loop
        want = np.conj(maslov_gamma(char, *lags)) * eye
        err = float(np.max(np.abs(loop - want)))
        t.add(err, 1e-8, kind="loop", m=len(lags), lags=[_lag_list(l) for l in lags])
    return t


def _suite_theta(char, space, rng, samples, max_enum, cocycle) -> _Tally:
    t = _Tally()
    elems = _core_elements(space)
    for _ in range(samples):
        elems.append(space.random_element(rng))
    lags = _some_lagrangians(space, rng, samples, max_enum, len(elems))
    for g in elems:
        e = split_lift(char, g)
        one = character_factor(e, lags[0])
        err = float(np.max(np.abs(character_factors(e, lags) - one)))
        t.add(err, 1e-8, kind="theta-constancy", g=_mat_list(g))
        err2 = abs(one - character_factor_doubled(e))
        t.add(err2, 1e-8, kind="theta-doubled", g=_mat_list(g))
    return t


def _suite_structural(char, space, rng, samples, max_enum, cocycle) -> _Tally:
    t = _Tally()
    eye = FpMatrix.identity(char.field, space.dim)
    pairs = [(g, space.standard_lagrangian()) for g in _core_elements(space)]
    for _ in range(samples):
        pairs.append((space.random_element(rng), space.random_lagrangian(rng)))
    for g, l in pairs:
        info = {"g": _mat_list(g), "l": _lag_list(l)}
        for chk in (check_kernel_dims, check_transfer_isometry):
            r = chk(g, l)
            t.add_flag(r.ok, kind=r.label, details=r.details, **info)
        r = check_maslov_class(char, g, l)
        t.add_flag(r.ok, kind=r.label, details=r.details, **info)
        if (g.mat - eye).det() != 0:
            r = check_inverse_identity(g, l)
            t.add_flag(r.ok, kind=r.label, **info)
        r = check_diagonal_kernel(split_lift(char, g), l)
        t.add_flag(r.ok, kind=r.label, details=r.details, **info)
    return t


def _suite_homomorphism(char, space, rng, samples, max_enum, cocycle) -> _Tally:
    t = _Tally()
    p, n = char.p, space.n
    tol = 1e-8 * p**n
    core = _core_elements(space)
    pairs = [(a, b) for a in core[:3] for b in core[:3]]
    for _ in range(samples):
        pairs.append((space.random_element(rng), space.random_element(rng)))
    cache: dict = {}

    def op(e):
        key = (e.g, complex(e.t0))
        if key not in cache:
            cache[key] = weil_operator(e)
        return cache[key]

    for g, h in pairs:
        e1 = split_lift(char, g)
        e2 = split_lift(char, h)
        err = float(np.max(np.abs(op(e1) @ op(e2) - weil_operator(e1 * e2))))
        t.add(err, tol, kind="product", g=_mat_list(g), h=_mat_list(h))
    return t


_SUITES = {
    "gamma": _suite_gamma,
    "polygon": _suite_polygon,
    "cocycle": _suite_cocycle,
    "trace": _suite_trace,
    "loops": _suite_loops,
    "theta": _suite_theta,
    "structural": _suite_structural,
    "homomorphism": _suite_homomorphism,
}
SUITE_ORDER = tuple(_SUITES)


def corrupted_cocycle(char, g, h, l):
    """Fault-injection stand-in: wrong sign whenever both factors move."""
    v = mp_cocycle(char, g, h, l)
    if not g.is_identity() and not h.is_identity():
        return -v
    return v


def run_verification(
    ps,
    ns,
    seed: int = 0,
    samples: int = 50,
    psi_scale: int = 1,
    max_enum: int = LAGRANGIAN_CAP,
    corrupt_cocycle: bool = False,
    suites=SUITE_ORDER,
) -> list[SuiteResult]:
    """Run the suites on every (p, n) cell; deterministic for a fixed seed.

    Results come cell by cell in (p, n) order, each cell's suites in the
    order of `suites`.
    """
    unknown = [name for name in suites if name not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suites {unknown}; valid: {', '.join(SUITE_ORDER)}")
    cells = sorted((int(p), int(n)) for p in ps for n in ns)
    for p, n in cells:
        if p**n > MAX_REP_DIM:
            raise DimensionMismatch(f"p^n = {p**n} exceeds {MAX_REP_DIM}")
    cocycle = corrupted_cocycle if corrupt_cocycle else mp_cocycle
    results = []
    for p, n in cells:
        field = Fp(p)
        char = AdditiveCharacter(field, psi_scale)
        space = SymplecticSpace(field, n)
        for name in suites:
            si = SUITE_ORDER.index(name)  # not the index in `suites`
            rng = np.random.default_rng(np.random.SeedSequence([seed, p, n, si]))
            start = time.perf_counter()
            tally = _SUITES[name](char, space, rng, samples, max_enum, cocycle)
            results.append(SuiteResult(
                suite=name,
                p=p,
                n=n,
                checked=tally.checked,
                failed=tally.failed,
                max_err=tally.max_err,
                seconds=time.perf_counter() - start,
                witness=tally.witness,
            ))
    return results
