"""File formats: serialized models, observation CSVs, config files.

The model file is versioned JSON whose floats round-trip bit-exactly.
Observation data travels in a long CSV (one row per station and
period); ingestion applies a complete-case filter and reports dropped
stations.  All CSV output renders floats with 17 significant digits.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .basis import KnotGrid
from .covariance import CovParams
from .deformation import CoefPair, DeformationMap
from .errors import DataError
from .estimation import Dataset, DeformModel, FitDiagnostics

__all__ = [
    "SCHEMA_VERSION",
    "DATA_HEADER",
    "save_model",
    "load_model",
    "ingest",
    "write_long_csv",
    "read_grid_csv",
    "write_prediction_csv",
    "write_deformed_grid_csv",
    "write_map_csv",
    "write_csv",
    "read_config",
    "fmt",
]

SCHEMA_VERSION = 1
DOMAIN_KEYS = ("x1_min", "x1_max", "x2_min", "x2_max")
# FitDiagnostics fields that the model file stores under another name
DIAGNOSTICS_KEYS = {"margins": "constraint_margins"}
DATA_HEADER = ["station_id", "x1", "x2", "time", "value"]

# config keys accepted by the simulate/compare harnesses and the fit
CONFIG_KEYS = {
    "epsilon": float,
    "tol": float,
    "max_outer": int,
    "ridge": float,
    "seed": int,
    "t": int,
    "swirl_strength": float,
    "swirl_radius": float,
    "sigma2": float,
    "phi": float,
    "nugget": float,
    "grid_n": int,
}


def fmt(x: float) -> str:
    """Full-precision decimal rendering (17 significant digits)."""
    return f"{float(x):.17g}"


def write_csv(path, header, rows) -> None:
    """Write a header and rows, every float rendered by ``fmt``."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([fmt(v) if isinstance(v, float) else v for v in row] for row in rows)


def save_model(model: DeformModel, path) -> None:
    """Write a fitted model as versioned JSON (row-major arrays)."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "domain": {k: getattr(model.grid, k) for k in DOMAIN_KEYS},
        "k1": model.grid.k1,
        "k2": model.grid.k2,
        "theta1": model.coef.theta1.tolist(),
        "theta2": model.coef.theta2.tolist(),
        "sigma2": model.cov.sigma2,
        "phi": model.cov.phi,
        "nugget": model.cov.nugget,
        "mean": model.mean,
        "diagnostics": {DIAGNOSTICS_KEYS.get(k, k): v
                        for k, v in dataclasses.asdict(model.diagnostics).items()},
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_model(path) -> DeformModel:
    """Read a model file, rejecting unknown schema versions."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read model file {path}: {e}") from None
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataError(
            f"unsupported model schema version {version!r} (expected {SCHEMA_VERSION})"
        )
    try:
        grid = KnotGrid(*(payload["domain"][k] for k in DOMAIN_KEYS), payload["k1"], payload["k2"])
        coef = CoefPair(
            np.array(payload["theta1"], dtype=float),
            np.array(payload["theta2"], dtype=float),
            validated=True,
        )
        cov = CovParams(payload["sigma2"], payload["phi"], payload["nugget"])
        d = payload["diagnostics"]
        diag = FitDiagnostics(
            loglik=list(d["loglik"]),
            margins=list(d["constraint_margins"]),
            init_stress=d["init_stress"],
            iterations=d["iterations"],
            converged=d["converged"],
            messages=list(d["messages"]),
            # absent from files written before the penalized fit
            penalty_weights=list(d.get("penalty_weights", [])),
            effective_dof=d.get("effective_dof", float("nan")),
        )
        return DeformModel(grid=grid, coef=coef, cov=cov, mean=payload["mean"], diagnostics=diag)
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"malformed model file {path}: {e}") from None


def _csv_rows(path, header: list[str], kind: str):
    """Yield (line number, stripped fields) for every nonblank row of a
    CSV file that must start with ``header``."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{kind} file {path} does not exist")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise DataError(f"{path}: empty file")
        if [h.strip() for h in first] != header:
            raise DataError(f"{path}: header must be {','.join(header)}, got {','.join(first)}")
        for line_no, row in enumerate(reader, start=2):
            fields = [f.strip() for f in row]
            if not any(fields):
                continue
            if len(fields) != len(header):
                raise DataError(f"line {line_no}: expected {len(header)} fields, got {len(row)}")
            yield line_no, fields


def _parse_float(text: str, line_no: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(f"line {line_no}: cannot parse {column} value {text!r}") from None


def ingest(path) -> Dataset:
    """Read a long-format observation CSV into a complete-case Dataset.

    Expects the exact header station_id,x1,x2,time,value.  Stations are
    deduplicated by id (coordinate conflicts are errors), duplicate
    (station, time) rows are errors, and any station missing one of the
    observed periods is dropped (recorded in ``dropped_ids``).  Missing
    values may be spelled as an empty field or ``nan``; they drop the
    station through the complete-case rule.
    """
    coords: dict[str, tuple[float, float]] = {}
    values: dict[str, dict[str, float]] = {}
    times: set[str] = set()
    for line_no, (sid, x1s, x2s, time_label, value_s) in _csv_rows(path, DATA_HEADER, "data"):
        if not sid or not time_label:
            raise DataError(f"line {line_no}: empty station id or time label")
        x1 = _parse_float(x1s, line_no, "x1")
        x2 = _parse_float(x2s, line_no, "x2")
        if sid in coords:
            if coords[sid] != (x1, x2):
                raise DataError(
                    f"line {line_no}: station {sid!r} reappears with different coordinates"
                )
        else:
            coords[sid] = (x1, x2)
            values[sid] = {}
        if time_label in values[sid]:
            raise DataError(f"line {line_no}: duplicate (station, time) pair "
                            f"({sid!r}, {time_label!r})")
        times.add(time_label)
        if value_s == "" or value_s.lower() == "nan":
            value = float("nan")
        else:
            value = _parse_float(value_s, line_no, "value")
        values[sid][time_label] = value

    path = Path(path)
    times = sorted(times)
    if len(times) < 2:
        raise DataError(f"{path}: need at least 2 time periods, found {len(times)}")
    complete, dropped = [], []
    for sid in sorted(coords):
        series = values[sid]
        if all(t in series and math.isfinite(series[t]) for t in times):
            complete.append(sid)
        else:
            dropped.append(sid)
    if len(complete) < 4:
        raise DataError(
            f"{path}: only {len(complete)} complete stations (need >= 4); "
            f"dropped {len(dropped)}"
        )
    sites = np.array([coords[sid] for sid in complete])
    z = np.array([[values[sid][t] for t in times] for sid in complete])
    return Dataset(
        sites=sites, replicates=z, ids=tuple(complete), times=tuple(times),
        dropped_ids=tuple(dropped),
    )


def write_long_csv(path, sites, ids, times, values) -> None:
    """Write observations in the long format understood by ingest."""
    sites = np.asarray(sites, dtype=float)
    values = np.asarray(values, dtype=float)
    write_csv(path, DATA_HEADER, ([sid, *sites[i], t, values[i, j]]
                                  for i, sid in enumerate(ids) for j, t in enumerate(times)))


def read_grid_csv(path) -> np.ndarray:
    """Read prediction sites from a CSV with header x1,x2."""
    pts = [[_parse_float(a, line_no, "x1"), _parse_float(b, line_no, "x2")]
           for line_no, (a, b) in _csv_rows(path, ["x1", "x2"], "grid")]
    if not pts:
        raise DataError(f"{path}: no prediction sites")
    return np.array(pts)


def write_prediction_csv(path, pred_sites, mean, variance) -> None:
    write_csv(path, ["x1", "x2", "mean", "variance"],
              np.column_stack([pred_sites, mean, variance]).tolist())


def write_map_csv(path, points, images) -> None:
    """Geographic points and their deformed images."""
    write_csv(path, ["gx1", "gx2", "dx1", "dx2"], np.hstack([points, images]).tolist())


def write_deformed_grid_csv(path, dmap: DeformationMap, n_side: int = 21) -> None:
    """Regular n x n grid of geographic points and their deformed images."""
    grid = dmap.grid
    g1 = np.linspace(grid.x1_min, grid.x1_max, n_side)
    g2 = np.linspace(grid.x2_min, grid.x2_max, n_side)
    xx, yy = np.meshgrid(g1, g2, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    write_map_csv(path, pts, dmap(pts))


def read_config(path) -> dict:
    """Parse a flat key = value config file (# starts a comment)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"config file {path} does not exist")
    out: dict = {}
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"config line {line_no}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise DataError(f"config line {line_no}: unknown key {key!r}")
        try:
            out[key] = CONFIG_KEYS[key](value)
        except ValueError:
            raise DataError(
                f"config line {line_no}: cannot parse {key} value {value!r}"
            ) from None
    return out
