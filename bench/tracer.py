"""Span tracing around the calls into each weilchar layer, from outside the package.

`Tracer.install()` wraps the public functions and methods of every layer
module and rebinds each wrapped name in every `weilchar` module that imported
it, so cross-module calls are caught without touching the package source.
Spans (name, start, end, parent, op) are kept in flat arrays while the run
lasts and written out at the end; a layer's self time is the duration of its
spans minus the part covered by their child spans.
"""

from __future__ import annotations

import array
import functools
import inspect
import sys
import time

import numpy as np

LAYERS = (
    "field",
    "characters",
    "quadform",
    "symplectic",
    "maslov",
    "metaplectic",
    "schrodinger",
    "charformula",
    "verify",
    "cli",
)

# Scalar F_p helpers are called tens of thousands of times per op and cost
# less than a span; their time stays in the calling span's self time.
_SKIP = {"Fp.el", "Fp.neg", "Fp.inv", "Fp.legendre"}

# Non-public methods that a metric counts, or that an op calls directly.
_EXTRA = {
    "field": ("RowSolver.__init__",),
    "metaplectic": ("MpElement.__mul__",),
    "schrodinger": ("_PairKernel.values",),
}


# Work counted at a boundary: qualified name -> (counter, probe(args) -> amount).
_PROBES = {
    "AdditiveCharacter.gamma": (
        "characters.gamma.hits",
        lambda args: int(args[1] % args[0].p in args[0]._gamma_cache),
    ),
    "AdditiveCharacter.psi_array": ("characters.psi_array.elems", lambda args: np.size(args[1])),
    "RowSolver.solve_many": ("field.solve_many.rows", lambda args: len(args[1])),
    "_PairKernel.values": ("schrodinger.kernel_rows", lambda args: len(args[1])),
}

# Per-layer metric -> the qualified names whose spans it counts.
CALL_METRICS = {
    "field.rref.calls": ("FpMatrix.rref",),
    "field.det.calls": ("FpMatrix.det",),
    "field.inv.calls": ("FpMatrix.inv",),
    "field.rowsolver.calls": ("RowSolver.__init__",),
    "field.intersect.calls": ("Subspace.intersect",),
    "characters.gamma.calls": ("AdditiveCharacter.gamma",),
    "quadform.weil_index.calls": ("weil_index",),
    "quadform.diagonalize.calls": ("QuadraticSpace.diagonalize",),
    "symplectic.element.calls": ("SymplecticSpace.element",),
    "symplectic.transform.calls": ("Lagrangian.transform",),
    "symplectic.displacement.calls": ("kernel_of_displacement", "displacement_disc"),
    "maslov.maslov_form.calls": ("maslov_form",),
    "maslov.orientation_pairing.calls": ("orientation_pairing",),
    "metaplectic.split_value.calls": ("split_value",),
    "metaplectic.mp_cocycle.calls": ("mp_cocycle",),
    "metaplectic.character_factor.calls": ("character_factor",),
    "schrodinger.weil_operator.calls": ("weil_operator",),
    "schrodinger.intertwiner.calls": ("intertwiner",),
    "charformula.trace_closed_form.calls": ("trace_closed_form",),
    "charformula.trace_from_factor.calls": ("trace_from_factor",),
    "charformula.diagonal_form.calls": ("diagonal_form",),
}

# Per-layer metric -> the qualified names whose self time it sums.
SELF_METRICS = {
    "field.solve_many.self_ms": ("RowSolver.solve_many",),
    "maslov.maslov_form.self_ms": ("maslov_form",),
}


def _targets(mod, layer: str):
    """(qualname, owner, attribute, raw) for each boundary defined in mod."""
    out = []
    for name, obj in vars(mod).items():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) and not name.startswith("_"):
            out.append((name, mod, name, obj))
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, raw in vars(obj).items():
                qual = f"{name}.{attr}"
                public = not attr.startswith("_")
                if qual in _SKIP or not (public or qual in _EXTRA.get(layer, ())):
                    continue
                if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                    out.append((qual, obj, attr, raw))
    return out


class Tracer:
    """Records spans while `on` is true; `install` patches the package once."""

    def __init__(self) -> None:
        self.on = False
        self.op = -1
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.op_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: dict[str, float] = {}
        self._stack = [-1]

    def _wrap(self, qual: str, layer: str, fn):
        nid = len(self.names)
        self.names.append(qual)
        self.layer_of.append(layer)
        probe = _PROBES.get(qual)
        tr = self
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            i = len(tr.start)
            tr.name_id.append(nid)
            tr.parent.append(stack[-1])
            tr.op_id.append(tr.op)
            tr.start.append(0.0)
            tr.end.append(0.0)
            if probe is not None:
                key, amount = probe
                tr.counters[key] = tr.counters.get(key, 0) + amount(args)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end[i] = clock()
                tr.start[i] = t0
                stack.pop()

        return traced

    def install(self) -> None:
        swaps: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"weilchar.{layer}"]
            for qual, owner, attr, raw in _targets(mod, layer):
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(owner, attr, type(raw)(self._wrap(qual, layer, raw.__func__)))
                elif owner is mod:
                    swaps[id(raw)] = self._wrap(qual, layer, raw)
                else:
                    setattr(owner, attr, self._wrap(qual, layer, raw))
        # rebind every module-level name bound to a wrapped function
        for name, mod in list(sys.modules.items()):
            if name == "weilchar" or name.startswith("weilchar."):
                for attr, val in list(vars(mod).items()):
                    if id(val) in swaps and inspect.isfunction(val):
                        setattr(mod, attr, swaps[id(val)])

    def arrays(self):
        n = len(self.start)
        nid = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        par = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = np.frombuffer(self.end, dtype=np.float64, count=n) - np.frombuffer(
            self.start, dtype=np.float64, count=n
        )
        has = par >= 0
        child = np.bincount(par[has], weights=dur[has], minlength=n)
        return nid, dur, dur - child

    def per_function(self, op_label: list[str]) -> dict:
        """{op label: {qualified name: [calls, inclusive ms, self ms]}}."""
        nid, dur, self_t = self.arrays()
        ops = np.frombuffer(self.op_id, dtype=np.int32, count=len(nid))
        out: dict[str, dict[str, list]] = {}
        keys = ops.astype(np.int64) * len(self.names) + nid
        uniq, inv = np.unique(keys, return_inverse=True)
        calls = np.bincount(inv)
        incl = np.bincount(inv, weights=dur)
        selft = np.bincount(inv, weights=self_t)
        for j, key in enumerate(uniq):
            op, fid = divmod(int(key), len(self.names))
            fn = f"{self.layer_of[fid]}.{self.names[fid]}"
            row = out.setdefault(op_label[op], {}).setdefault(fn, [0, 0.0, 0.0])
            row[0] += int(calls[j])
            row[1] += float(incl[j]) * 1e3
            row[2] += float(selft[j]) * 1e3
        return out

    def layer_metrics(self, attempted: int) -> tuple[dict, float]:
        """Per-layer metrics per attempted op, and the summed self time in s."""
        nid, _, self_t = self.arrays()
        layer_idx = np.array([LAYERS.index(l) for l in self.layer_of], dtype=np.int64)
        by_layer = np.bincount(layer_idx[nid], weights=self_t, minlength=len(LAYERS))
        by_name = np.bincount(nid, weights=self_t, minlength=len(self.names))
        count = np.bincount(nid, minlength=len(self.names))
        ids = {n: i for i, n in enumerate(self.names)}
        per_op = 1.0 / attempted
        out = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.self_ms"] = float(by_layer[i]) * 1e3 * per_op
        for metric, quals in CALL_METRICS.items():
            out[metric] = sum(int(count[ids[q]]) for q in quals) * per_op
        for metric, quals in SELF_METRICS.items():
            out[metric] = sum(float(by_name[ids[q]]) for q in quals) * 1e3 * per_op
        calls = int(count[ids["AdditiveCharacter.gamma"]])
        hits = self.counters.get("characters.gamma.hits", 0)
        out["characters.gamma.hit_ratio"] = hits / calls if calls else 0.0
        for key in ("characters.psi_array.elems", "field.solve_many.rows",
                    "schrodinger.kernel_rows"):
            out[key] = self.counters.get(key, 0) * per_op
        return out, float(by_layer.sum())

    def save(self, path) -> None:
        n = len(self.start)
        np.savez_compressed(
            path,
            names=np.array([f"{l}.{q}" for l, q in zip(self.layer_of, self.names)]),
            name_id=np.frombuffer(self.name_id, dtype=np.int32, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
            op=np.frombuffer(self.op_id, dtype=np.int32, count=n),
            start=np.frombuffer(self.start, dtype=np.float64, count=n),
            end=np.frombuffer(self.end, dtype=np.float64, count=n),
        )
