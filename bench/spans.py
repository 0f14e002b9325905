"""Spans around the package's public functions, recorded from outside it.

``Tracer.installed()`` replaces each traced function with a wrapper in
every module of the package that binds it by name (its own module and
every module that imported it), and ``scipy.optimize.minimize`` where
the estimation and smoother modules bind it, so that solver counts are
read from the result objects.  A span is a list
``[id, name, start, end, parent, op]``; spans stay in memory and are
written out once, when the run ends.  Self time is a span's duration
less the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, function) pairs that are traced, and the per-layer metrics
# read from their spans
TRACED = [
    ("smoothers", "fit_bspline_constrained"),
    ("scaling", "sg_initialize"),
    ("scaling", "classical_mds"),
    ("estimation", "fit"),
    ("estimation", "refine_coords_ml"),
    ("estimation", "step_cov"),
    ("estimation", "step_coords"),
    ("estimation", "loglik"),
    ("estimation", "coef_fisher_information"),
    ("estimation", "normalize_gauge"),
    ("covariance", "covariance_matrix"),
    ("covariance", "fit_variogram"),
    ("covariance", "sample_dispersions"),
    ("basis", "design_matrix"),
    ("deformation", "eval_map_points"),
    ("deformation", "corner_values"),
    ("fields", "krige"),
    ("fields", "conditional_simulate"),
    ("modelio", "ingest"),
    ("modelio", "read_grid_csv"),
    ("modelio", "load_model"),
    ("modelio", "write_prediction_csv"),
    ("modelio", "save_model"),
    ("modelio", "write_deformed_grid_csv"),
]
SOLVER_MODULES = ("estimation", "smoothers")

# metric suffix -> unit
UNITS = {"calls": "count", "s": "s", "self_s": "s", "solver_calls": "count",
         "nit": "count", "nfev": "count", "njev": "count", "not_success": "count",
         "iteration_limit": "count", "smoother_calls": "count", "evals": "count",
         "warm_wins": "count", "outer_passes": "count", "unconverged": "count",
         "below_margin": "count"}

# per-layer metrics, as <module>.<function>.<suffix>
PER_LAYER = [
    "smoothers.fit_bspline_constrained." + s
    for s in ("calls", "s", "solver_calls", "nit", "not_success", "iteration_limit")
] + [
    "scaling.sg_initialize.self_s", "scaling.sg_initialize.smoother_calls",
    "scaling.classical_mds.s",
] + [
    "estimation.refine_coords_ml." + s
    for s in ("calls", "s", "nit", "nfev", "njev", "not_success")
] + [
    "estimation.step_cov.calls", "estimation.step_cov.s", "estimation.step_cov.evals",
    "estimation.loglik.calls", "estimation.loglik.s",
    "estimation.coef_fisher_information.s", "estimation.normalize_gauge.s",
    "estimation.step_coords.calls", "estimation.step_coords.self_s",
    "estimation.step_coords.warm_wins",
    "estimation.fit.s", "estimation.fit.outer_passes", "estimation.fit.unconverged",
    "estimation.fit.below_margin",
    "covariance.covariance_matrix.calls", "covariance.covariance_matrix.s",
    "covariance.fit_variogram.calls", "covariance.fit_variogram.s",
    "covariance.sample_dispersions.s",
    "basis.design_matrix.calls", "basis.design_matrix.s",
    "deformation.eval_map_points.calls", "deformation.eval_map_points.s",
    "deformation.corner_values.calls",
    "fields.krige.calls", "fields.krige.s", "fields.conditional_simulate.s",
] + [
    f"modelio.{f}.s" for f in ("ingest", "read_grid_csv", "load_model",
                               "write_prediction_csv", "save_model",
                               "write_deformed_grid_csv")
]


def self_times(spans) -> dict[int, float]:
    """Span id -> duration less the union of its children's intervals
    (clipped to the span)."""
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered, reach = 0.0, start
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out[sid] = (end - start) - covered
    return out


class Tracer:
    """Records spans, solver results and a few fit outcomes while
    installed; ``op`` is the id of the operation the spans belong to."""

    def __init__(self):
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self.stack: list[int] = []
        self.op: int | None = None
        self.missing: list[str] = []
        self._last_surrogate = None

    def _attrs(self, sid: int) -> dict:
        return self.attrs.setdefault(sid, defaultdict(float))

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            span = [sid, name, time.perf_counter(), None, parent, tracer.op]
            tracer.spans.append(span)
            tracer.stack.append(sid)
            try:
                if name == "smoothers.fit_bspline_constrained":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    tracer._attrs(sid)["iteration_limit"] += sum(
                        issubclass(w.category, RuntimeWarning)
                        and "iteration limit" in str(w.message) for w in caught)
                else:
                    result = fn(*args, **kwargs)
                tracer._note(name, sid, args, kwargs, result)
                return result
            finally:
                span[3] = time.perf_counter()
                tracer.stack.pop()

        return wrapper

    def _note(self, name, sid, args, kwargs, result) -> None:
        """Outcomes that only the call's arguments and result show."""
        if name == "estimation.step_coords":
            self._last_surrogate = result
        elif name == "estimation.refine_coords_ml":
            coef = args[3] if len(args) > 3 else kwargs.get("coef")
            self._attrs(sid)["warm_wins"] += coef is self._last_surrogate
        elif name == "estimation.fit":
            a = self._attrs(sid)
            a["outer_passes"] += result.diagnostics.iterations
            a["unconverged"] += not result.diagnostics.converged
            # the returned map's least corner |J| against its margin ε (the
            # package's default is 1e-3: the identity map's corner values are 1)
            eps = args[1].epsilon if args[1].epsilon is not None else 1e-3
            a["below_margin"] += result.diagnostics.margins[-1] < eps

    def _wrap_minimize(self, fn):
        tracer = self

        @functools.wraps(fn)
        def minimize(*args, **kwargs):
            res = fn(*args, **kwargs)
            if tracer.op is not None and tracer.stack:
                a = tracer._attrs(tracer.stack[-1])
                a["solver_calls"] += 1
                for key in ("nit", "nfev", "njev"):
                    a[key] += int(getattr(res, key, 0) or 0)
                a["not_success"] += not res.success
            return res

        return minimize

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of the traced functions in the loaded
        ``spatdeform`` modules; restore them on exit."""
        mods = {name: m for name, m in sys.modules.items()
                if m is not None and (name == "spatdeform" or name.startswith("spatdeform."))}
        patches = []
        self.missing = []
        for module, func in TRACED:
            home = mods.get(f"spatdeform.{module}")
            original = getattr(home, func, None)
            if original is None:
                self.missing.append(f"{module}.{func}")
                continue
            wrapper = self._wrap(f"{module}.{func}", original)
            for m in mods.values():
                for attr, value in list(vars(m).items()):
                    if value is original:
                        patches.append((m, attr, value))
                        setattr(m, attr, wrapper)
        for module in SOLVER_MODULES:
            m = mods.get(f"spatdeform.{module}")
            if m is not None and hasattr(m, "minimize"):
                patches.append((m, "minimize", m.minimize))
                m.minimize = self._wrap_minimize(m.minimize)
        try:
            yield self
        finally:
            for m, attr, value in reversed(patches):
                setattr(m, attr, value)

    # -- reading -----------------------------------------------------------

    def metrics(self, ops) -> dict[str, float]:
        """Per-layer metrics summed over the spans of the operations ``ops``."""
        ops = set(ops)
        spans = [s for s in self.spans if s[5] in ops]
        selfs = self_times(spans)
        by_id = {s[0]: s for s in spans}
        acc = defaultdict(float)
        for sid, name, start, end, parent, _ in spans:
            acc[f"{name}.calls"] += 1
            acc[f"{name}.s"] += end - start
            acc[f"{name}.self_s"] += selfs[sid]
            for key, v in self.attrs.get(sid, {}).items():
                acc[f"{name}.{key}"] += v
            if parent is not None and by_id[parent][1] == "scaling.sg_initialize" \
                    and name == "smoothers.fit_bspline_constrained":
                acc["scaling.sg_initialize.smoother_calls"] += 1
        acc["estimation.step_cov.evals"] = acc["estimation.step_cov.nfev"]
        return {k: float(acc.get(k, 0.0)) for k in PER_LAYER}

    def write(self, path: Path, ops: list[dict]) -> None:
        """One JSON line per operation, then one per span."""
        with Path(path).open("w") as fh:
            for op in ops:
                fh.write(json.dumps({"op": op}) + "\n")
            for sid, name, start, end, parent, op in self.spans:
                rec = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                if sid in self.attrs:
                    rec["attrs"] = dict(self.attrs[sid])
                fh.write(json.dumps(rec) + "\n")


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: float(np.median([r[k] for r in rows])) for k in rows[0]}
