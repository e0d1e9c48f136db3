"""Cross-checking harness tying the three routes to the character together.

Each suite runs on one (p, n) cell with its own deterministically derived
RNG, so a suite's draws do not depend on which other suites run.  Every
suite has a small fixed core that runs even with samples=0; the sampled part
scales with the samples argument.  A corrupt_cocycle hook flips the sign of
the two-cocycle on non-identity pairs, which must make the splitting suite
fail with a witness; it exists to prove the harness can catch a wrong
cocycle.

A suite evaluates its cell's lifts, products and character factors as
stacks (`split_lifts`, `mp_products`, `character_factor_table`,
`character_factors_doubled`), one call per cell where a loop would make one
per element; the factor table and the doubled factors bound the size of
each stack they evaluate, and the theta suite's table never exceeds
`_THETA_FACTOR_BUDGET` factors (`_some_lagrangians`).
The polygon suite does the same for its tuples: one stack of edge
intersections shared by the predicted rank and disc (`predicted_rank_discs`)
and the edge factors (`edge_factors`), and one stack of polygon forms per
tuple length (`maslov_invariants`).  The trace suite takes its closed forms
from one `closed_form_data_many` call, and the structural suite its forms
from one `diagonal_forms` call and its Maslov classes from one
`check_maslov_classes` call.  The theta suite holds each
table row to its own first entry and that entry to the stacked doubled
factor; only the cell's last element, a random draw when samples > 0, goes
through the single routes `character_factor` and `character_factor_doubled`,
as the cell's independent oracle.  `trace_oracle` stays one call per element.

Values built from gamma are exact (`characters`), so the polygon, cocycle and
theta suites and the trace suite's closed-versus-factor test use `==`, and the
structural suite's kernel diagonal is exact too (`check_diagonal_kernel`).
Only float oracles keep a tolerance: the Gauss sum by direct summation (gamma)
and the dense lattice model (trace, loops, homomorphism).  A failed check's
witness keeps its report's details and witness, complex values as {"re", "im"},
so every output format can print it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .characters import AdditiveCharacter
from .charformula import (
    _factor_trace,
    check_inverse_identity,
    check_kernel_dims,
    check_maslov_classes,
    check_transfer_isometry,
    closed_form_data_many,
    diagonal_forms,
)
from .errors import EnumerationTooLarge
from .field import Fp, FpMatrix
from .maslov import (
    Orientation,
    _edges,
    edge_factors,
    lagrangian_intersections,
    maslov_gamma,
    maslov_invariants,
    predicted_rank_discs,
)
from .metaplectic import (
    character_factor,
    character_factor_doubled,
    character_factor_table,
    character_factors_doubled,
    mp_cocycles,
    mp_products,
    split_lifts,
    split_values,
)
from .quadform import QuadraticSpace, weil_index, weil_index_bruteforce
from .schrodinger import MAX_REP_DIM, check_diagonal_kernel, intertwiner, trace_oracle, weil_operator
from .symplectic import LAGRANGIAN_CAP, Lagrangian, SpElement, SymplecticSpace

# most character factors (Lagrangians x elements) the theta suite evaluates
_THETA_FACTOR_BUDGET = 20_000


def as_json_complex(z: complex) -> dict:
    z = complex(z) + 0.0
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

    def add(self, err: float, tol: float, equal: bool = True, **info) -> None:
        """A check against a float oracle, passed when err <= tol and `equal`."""
        self.max_err = max(self.max_err, err)
        self.add_flag(err <= tol and equal, err=err, tol=tol, **info)

    def add_flag(self, ok: bool, **info) -> None:
        self.checked += 1
        if not ok:
            self.failed += 1
            if self.witness is None:
                self.witness = _json_safe(info)


def _json_safe(obj):
    """obj with each complex as {"re", "im"} and each tuple as a list."""
    if isinstance(obj, complex):
        return as_json_complex(obj)
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


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
    suite then evaluates fit the budget.  Past it, distinct Lagrangians, as
    many as fit the budget but no more than the standard three and
    max(samples, 3) draws: the standard three first, then random draws that
    skip repeats.  One Lagrangian at least, when n_elems alone exceeds it."""
    budget = min(max_enum, _THETA_FACTOR_BUDGET)
    count = space.lagrangian_count()
    if count * n_elems <= budget:
        return list(space.all_lagrangians())
    want = max(1, min(count, budget // n_elems, 3 + max(samples, 3)))
    out = _standard_lagrangians(space)[:want]
    seen = set(out)
    while len(out) < want:
        l = space.random_lagrangian(rng)
        if l not in seen:
            seen.add(l)
            out.append(l)
    return out


def _suite_gamma(char: AdditiveCharacter, space, rng, samples, max_enum, cocycle) -> _Tally:
    t = _Tally()
    p = char.p
    field = char.field
    gam = {a: char.gamma(a) for a in range(1, p)}
    for a in range(1, p):
        t.add_flag(abs(gam[a]) == 1, kind="modulus", a=a)
    for a in range(1, p):  # the closed form against the Gauss sum by direct summation
        gauss = weil_index_bruteforce(char, QuadraticSpace.diagonal(field, [a]))
        t.add(abs(gam[a] - gauss), 1e-10, kind="gauss-sum", a=a, want=gauss)
    for a in range(1, p):
        for b in range(1, p):
            t.add_flag(gam[a] * gam[b] == gam[1] * gam[a * b % p], kind="product", a=a, b=b)
        for s in range(1, p):
            t.add_flag(gam[a] == gam[a * s * s % p], kind="square-class", a=a, s=s)
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
        t.add_flag(weil_index(char, q) == want, kind="diag-product", entries=entries)
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
    # the random orientations come after every tuple, in tuple order
    randoms = [[Orientation.random(l, rng) for l in lags] for lags in tuples]
    # one stack of edges (l_i, l_i+1) over all tuples, shared by both passes
    inters = lagrangian_intersections([e for lags in tuples for e in _edges(lags)])
    wants = predicted_rank_discs([[Orientation.default(l) for l in lags] for lags in tuples],
                                 inters)
    edges = [e for ro in randoms for e in _edges(ro)]
    factors = iter(edge_factors(char, [a for a, _ in edges], [b for _, b in edges], inters))
    for lags, inv, (want_rank, want_disc) in zip(tuples, maslov_invariants(char, tuples), wants):
        t.add_flag(inv.rank == want_rank, kind="rank", got=inv.rank, want=want_rank,
                   lags=[_lag_list(l) for l in lags])
        if inv.rank == want_rank:
            t.add_flag(inv.disc == want_disc, kind="disc", got=inv.disc.rep,
                       want=want_disc.rep, lags=[_lag_list(l) for l in lags])
        # edge-factor product equals the polygon index, randomized orientations
        prod = math.prod(next(factors) for _ in lags)
        t.add_flag(prod == inv.gamma, kind="edge-product", lags=[_lag_list(l) for l in lags],
                   got=prod, want=inv.gamma)
    return t


def _suite_cocycle(char, space, rng, samples, max_enum, cocycle) -> _Tally:
    t = _Tally()
    p = char.p
    core = _core_elements(space)
    pairs = [(a, b) for a in core for b in core]
    for _ in range(samples):
        pairs.append((space.random_element(rng), space.random_element(rng)))
    lags = [space.standard_lagrangian()]
    if samples:
        lags.append(space.random_lagrangian(rng))
    gs = np.array([g.mat.a for g, _ in pairs])
    hs = np.array([h.mat.a for _, h in pairs])
    ghs = gs @ hs % p
    # one split value per distinct matrix and l, one stacked cocycle per l
    stack = np.concatenate([gs, hs, ghs])
    distinct, at = np.unique(stack.reshape(len(stack), -1), axis=0, return_inverse=True)
    at = at.reshape(3, len(pairs))
    values = [split_values(char, distinct, l) for l in lags]
    twists = [cocycle(char, gs, hs, l) for l in lags]
    for i, (g, h) in enumerate(pairs):
        for j, l in enumerate(lags):
            sv = values[j]
            lhs = sv[at[0, i]] * sv[at[1, i]] * twists[j][i]
            rhs = sv[at[2, i]]
            t.add_flag(lhs == rhs, kind="splitting", g=_mat_list(g), h=_mat_list(h),
                       l=_lag_list(l), got=lhs, want=rhs)
    # group law of lifted elements: associativity and inverses, drawn as
    # (e1, e2, e3) per round
    rounds = max(samples // 4, 1)
    lifts = split_lifts(char, [space.random_element(rng) for _ in range(3 * rounds)])
    e1s, e2s, e3s = lifts[0::3], lifts[1::3], lifts[2::3]
    e12s, e23s = _split(mp_products(e1s + e2s, e2s + e3s), 2)
    invs = [e2.inverse() for e2 in e2s]
    lefts, rights, units = _split(mp_products(e12s + e1s + e2s, e3s + e23s + invs), 3)
    for e1, e2, a, b, unit in zip(e1s, e2s, lefts, rights, units):
        t.add_flag(a == b, kind="associativity", g=_mat_list(e1.g))
        t.add_flag(unit.t0 == 1, kind="inverse", g=_mat_list(e2.g))
    return t


def _split(items: list, parts: int) -> list[list]:
    """items cut into `parts` runs of equal length."""
    k = len(items) // parts
    return [items[i * k:(i + 1) * k] for i in range(parts)]


def _suite_trace(char, space, rng, samples, max_enum, cocycle) -> _Tally:
    t = _Tally()
    p, n = char.p, space.n
    tol = 1e-8 * p**n
    elems = _core_elements(space)
    for _ in range(samples):
        elems.append(space.random_element(rng))
    lifts = {sign: split_lifts(char, elems, sign=sign) for sign in (1, -1)}
    # both lifts' factors at the base, the Lagrangian `trace_from_factor` defaults to
    table = character_factor_table(lifts[1] + lifts[-1], [space.standard_lagrangian()])
    factors = dict(zip((1, -1), table.reshape(2, -1).tolist()))
    closeds = closed_form_data_many(char, space, np.stack([g.mat.a for g in elems]))
    for i, (g, (k, _, closed)) in enumerate(zip(elems, closeds)):
        for sign in (1, -1):
            e = lifts[sign][i]
            to = trace_oracle(e)
            tf = _factor_trace(p, k, factors[sign][i])
            tc = sign * closed
            t.add(abs(to - tc), tol, equal=tf == tc, kind="three-way", g=_mat_list(g), sign=sign,
                  oracle=to, factor=tf, closed=tc)
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
    lifts = split_lifts(char, elems)
    table = character_factor_table(lifts, lags)
    ones = table[:, 0].tolist()
    doubled = character_factors_doubled(lifts[:-1])
    # the last element, a random draw when samples > 0, is held to both single
    # routes: one oracle per cell that shares no stack with the others
    ones[-1] = character_factor(lifts[-1], lags[0])
    doubled.append(character_factor_doubled(lifts[-1]))
    for g, row, one, dbl in zip(elems, table, ones, doubled):
        t.add_flag(bool(np.all(row == one)), kind="theta-constancy", g=_mat_list(g))
        t.add_flag(one == dbl, kind="theta-doubled", g=_mat_list(g))
    return t


def _suite_structural(char, space, rng, samples, max_enum, cocycle) -> _Tally:
    t = _Tally()
    pairs = [(g, space.standard_lagrangian()) for g in _core_elements(space)]
    for _ in range(samples):
        pairs.append((space.random_element(rng), space.random_lagrangian(rng)))
    dfs = diagonal_forms([g for g, _ in pairs], [l for _, l in pairs])
    for (g, l), df, maslov in zip(pairs, dfs, check_maslov_classes(char, dfs)):
        info = {"g": _mat_list(g), "l": _lag_list(l)}
        reports = [check_kernel_dims(df), check_transfer_isometry(df), maslov]
        if df.ker.dim == 0:
            reports.append(check_inverse_identity(df))
        reports.append(check_diagonal_kernel(char, df))
        for r in reports:
            t.add_flag(r.ok, kind=r.label, details=r.details, witness=r.witness, **info)
    return t


def _suite_homomorphism(char, space, rng, samples, max_enum, cocycle) -> _Tally:
    t = _Tally()
    p, n = char.p, space.n
    tol = 1e-8 * p**n
    core = _core_elements(space)
    pairs = [(a, b) for a in core[:3] for b in core[:3]]
    for _ in range(samples):
        pairs.append((space.random_element(rng), space.random_element(rng)))
    lefts, rights = _split(split_lifts(char, [g for g, _ in pairs] + [h for _, h in pairs]), 2)
    op = {e: weil_operator(e) for e in dict.fromkeys(lefts + rights)}
    for (g, h), e1, e2, e12 in zip(pairs, lefts, rights, mp_products(lefts, rights)):
        err = float(np.max(np.abs(op[e1] @ op[e2] - weil_operator(e12))))
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
# the suites that build p^n-row kernels or p^n x p^n operators
DENSE_SUITES = ("trace", "loops", "structural", "homomorphism")


def corrupted_cocycle(char, gmats, hmats, l):
    """Fault-injection stand-in for `mp_cocycles`: wrong sign whenever both
    factors move."""
    eye = np.eye(l.space.dim, dtype=np.int64)
    moves = lambda m: bool(np.any(m != eye))
    return [-v if moves(g) and moves(h) else v
            for g, h, v in zip(gmats, hmats, mp_cocycles(char, gmats, hmats, l))]


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
    order of `suites`; a cell named more than once runs once.
    """
    unknown = [name for name in suites if name not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suites {unknown}; valid: {', '.join(SUITE_ORDER)}")
    cells = sorted({(int(p), int(n)) for p in ps for n in ns})
    dense = [name for name in suites if name in DENSE_SUITES]
    for p, n in cells:
        if dense and p**n > MAX_REP_DIM:
            raise EnumerationTooLarge(
                f"p^n = {p**n} exceeds the dense cap {MAX_REP_DIM} of the suites "
                f"{', '.join(dense)}")
    cocycle = corrupted_cocycle if corrupt_cocycle else mp_cocycles
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
