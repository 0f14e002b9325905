"""File formats: serialized models, observation CSVs, config files.

The model file is versioned JSON whose floats round-trip bit-exactly.
Observation data travels in a long CSV (one row per station and
period); ingestion applies a complete-case filter and reports dropped
stations.

CSV files are read as UTF-8 in one pass, a chunk of CHUNK_ROWS records
at a time, in one of two ways.  A chunk of lines that holds no quote, no
NUL and no line longer than ``csv.field_size_limit()`` is split by one
``str.split`` over its text, each column a slice of the tokens; such lines
are the records, and strip is skipped when the text is ASCII without the
characters it removes.  The first chunk that holds any of these goes,
with the rest of the file, to a ``csv.reader``, which reads quoted fields
(a quoted line break among them), NULs and the field limit as the csv
module does on the running Python.  Each chunk is then converted a column
at a time: floats by ``map(float, ...)``, station ids and time labels
through dict index maps.  One numpy scatter fills the replicate matrix,
and the checks run on the index arrays.  Only when a check fails are the
records walked one by one, to name the first offending record.  Fields
may be quoted and padded with whitespace; lines may end in LF, CRLF or
CR; blank records are skipped.

CSV output is comma-separated with CRLF line ends and no quoting, every
float rendered as ``%.17g`` (17 significant digits, so it reads back
bit-exactly).  Float tables are written by ``write_array_csv``, one
``%``-format per chunk of rows; ``write_csv`` serves tables that mix
text and numbers.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from itertools import chain, islice
from pathlib import Path
from typing import NoReturn

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
    "write_array_csv",
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
    "seed": int,
    "t": int,
    "swirl_strength": float,
    "swirl_radius": float,
    "sigma2": float,
    "phi": float,
    "nugget": float,
    "grid_n": int,
}
# the range of each harness key; FitConfig checks epsilon, tol and max_outer
POSITIVE = ("a finite number > 0", lambda v: 0.0 < v < math.inf)
CONFIG_RANGES = {"sigma2": POSITIVE, "phi": POSITIVE, "swirl_radius": POSITIVE,
                 "nugget": ("a finite number >= 0", lambda v: 0.0 <= v < math.inf),
                 "swirl_strength": ("a finite number", math.isfinite),
                 "grid_n": (">= 3", lambda v: v >= 3), "t": (">= 2", lambda v: v >= 2)}


FLOAT_FORMAT = "%.17g"
# points per side of the grid that write_deformed_grid_csv maps
DEFORMED_GRID_SIDE = 21
# records per chunk of the CSV readers and rows per format call of
# write_array_csv: a chunk's text stays small beside the arrays it becomes
CHUNK_ROWS = 1024
# the ASCII characters besides line ends that str.strip removes: a chunk of
# plain ASCII text without them needs no strip
STRIPPED_ASCII = " \t\x0b\x0c\x1c\x1d\x1e\x1f"


def fmt(x: float) -> str:
    """Full-precision decimal rendering (17 significant digits)."""
    return FLOAT_FORMAT % float(x)


def write_csv(path, header, rows) -> None:
    """Write a header and rows that may mix text and numbers, every float
    rendered by ``fmt``."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([fmt(v) if isinstance(v, float) else v for v in row] for row in rows)


def write_array_csv(path, header, table) -> None:
    """Write a header and a 2-d float table: the bytes ``write_csv`` writes
    for the same values, from one format call per chunk of rows."""
    table = np.asarray(table, dtype=float)
    line = ",".join([FLOAT_FORMAT] * table.shape[1]) + "\r\n"
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(table), CHUNK_ROWS):
            chunk = table[start:start + CHUNK_ROWS]
            fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


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


def _finite_number(payload: dict, key: str) -> float:
    """``payload[key]`` as a float, raising ValueError unless it is a finite
    JSON number (a bool is not one)."""
    value = payload[key]
    try:
        ok = type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _finite_array(payload: dict, key: str) -> np.ndarray:
    """``payload[key]`` as a float array, raising ValueError unless every
    entry is finite."""
    values = np.array(payload[key], dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"{key} has non-finite entries")
    return values


def _diagnostics(d: dict) -> FitDiagnostics:
    """The ``diagnostics`` block of a model file, raising ValueError that
    names the first entry of the wrong JSON type (NaN is a number, a bool
    is not); files written before the penalized fit lack the last two."""
    number, found = (int, float), {}
    for name, what, kind, item in (("loglik", "a list of numbers", (list,), number),
                                   ("margins", "a list of numbers", (list,), number),
                                   ("iterations", "an integer", (int,), None),
                                   ("converged", "true or false", (bool,), None),
                                   ("messages", "a list of strings", (list,), (str,)),
                                   ("penalty_weights", "a list of numbers", (list,), number),
                                   ("effective_dof", "a number", number, None)):
        key = DIAGNOSTICS_KEYS.get(name, name)
        if key in d or name not in ("penalty_weights", "effective_dof"):
            value = found[name] = d[key]
            if type(value) not in kind or (item and any(type(v) not in item for v in value)):
                raise ValueError(f"diagnostics entry {key} must be {what}, got {value!r}")
    return FitDiagnostics(**found)


def load_model(path) -> DeformModel:
    """Read a model file, rejecting unknown schema versions, parameters
    that are not finite numbers and diagnostics of the wrong type."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:  # ValueError: undecodable bytes or bad JSON
        raise DataError(f"cannot read model file {path}: {e}") from None
    if not isinstance(payload, dict):
        raise DataError(f"malformed model file {path}: expected a JSON object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataError(
            f"unsupported model schema version {version!r} (expected {SCHEMA_VERSION})"
        )
    try:
        grid = KnotGrid(*(_finite_number(payload["domain"], k) for k in DOMAIN_KEYS),
                        payload["k1"], payload["k2"])
        coef = CoefPair(*(_finite_array(payload, k) for k in ("theta1", "theta2")))
        coef.check_grid(grid)
        cov = CovParams(*(_finite_number(payload, k) for k in ("sigma2", "phi", "nugget")))
        return DeformModel(grid=grid, coef=coef, cov=cov, mean=_finite_number(payload, "mean"),
                           diagnostics=_diagnostics(payload["diagnostics"]))
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"malformed model file {path}: {e}") from None


def _rows_to_columns(rows: list[list[str]], numbers, width: int):
    """The stripped columns of ``rows`` that have ``width`` fields, their
    record numbers, and the message of the first row of another width
    unless it is blank; the rows end before that one."""
    error = None
    if set(map(len, rows)) - {width}:
        kept = []
        for k, row in enumerate(rows):
            if len(row) == width:
                kept.append(k)
            elif any(map(str.strip, row)):
                error = f"line {numbers[k]}: expected {width} fields, got {len(row)}"
                break
        rows, numbers = [rows[k] for k in kept], [numbers[k] for k in kept]
    return numbers, [list(map(str.strip, col)) for col in zip(*rows)] or [[]] * width, error


def _split_plain(text: str, numbers, width: int):
    """``_rows_to_columns`` for the text of lines that hold no quote, no
    NUL and no field beyond the csv module's limit, which such lines split
    at their commas alike.  One split of the chunk's text leaves a "\n"
    token after every record, so when each record has ``width`` fields
    every (width+1)-th token is one and the columns are slices."""
    # in ASCII text without the other characters that str.strip removes,
    # str.splitlines breaks lines only where the file's lines end
    bare = text.isascii() and not any(c in text for c in STRIPPED_ASCII)
    lines = (text.splitlines() if bare else
             text.replace("\r\n", "\n").replace("\r", "\n").split("\n")[:len(numbers)])
    tokens = (",\n,".join(lines) + ",\n").split(",")
    stride = width + 1
    if len(tokens) != len(numbers) * stride or tokens[width::stride].count("\n") != len(numbers):
        return _rows_to_columns([line.split(",") for line in lines], numbers, width)
    columns = [tokens[j::stride] for j in range(width)]
    return numbers, columns if bare else [list(map(str.strip, col)) for col in columns], None


def _read_chunks(path: Path, header: list[str], kind: str):
    """Read a CSV file that must start with ``header``, in one pass, a
    chunk of records at a time.

    Yields (record numbers, stripped columns, error) for each chunk of up
    to CHUNK_ROWS records, the header being record 1, and at least one
    chunk.  Blank records (every field empty once stripped) are skipped.
    The records end before the first one with another field count; its
    message is the last chunk's ``error`` (None otherwise), for the caller
    to raise once the records before it pass its checks.  Chunks keep the
    text of a large file from being held all at once.

    Chunks of plain lines are split by ``_split_plain``; from the first
    chunk that holds a quote, a NUL or a long line on, a ``csv.reader``
    reads the rest of the file.
    """
    if not path.exists():
        raise DataError(f"{kind} file {path} does not exist")
    width = len(header)
    limit = csv.field_size_limit()
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            first = next(csv.reader(fh), None)
            if first is None:
                raise DataError(f"{path}: empty file")
            if [h.strip() for h in first] != header:
                raise DataError(
                    f"{path}: header must be {','.join(header)}, got {','.join(first)}"
                )
            reader = None
            start, error, full = 2, None, True
            while full and error is None:
                if reader is None:
                    lines = list(islice(fh, CHUNK_ROWS))
                    text = "".join(lines)
                    if '"' in text or "\0" in text or (
                            len(text) > limit and max(map(len, lines)) > limit):
                        reader = csv.reader(chain(lines, fh))
                rows = lines if reader is None else list(islice(reader, CHUNK_ROWS))
                numbers = range(start, start + len(rows))
                start, full = start + len(rows), len(rows) == CHUNK_ROWS
                numbers, columns, error = (_split_plain(text, numbers, width) if reader is None
                                           else _rows_to_columns(rows, numbers, width))
                if "" in columns[0]:  # a blank record is empty in every column
                    kept = [k for k, fields in enumerate(zip(*columns)) if any(fields)]
                    columns = [[col[k] for k in kept] for col in columns]
                    numbers = [numbers[k] for k in kept]
                yield numbers, columns, error
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"cannot read {kind} file {path}: {e}") from None


def _floats(texts: list[str]) -> np.ndarray | None:
    """A column of floats, or None when a field does not parse."""
    try:
        return np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        return None


def _codes(column: list[str], index: dict[str, int]) -> np.ndarray:
    """The code of each entry of ``column`` in ``index``, which numbers
    labels in order of first appearance and gains the new ones."""
    for label in dict.fromkeys(column):
        index.setdefault(label, len(index))
    return np.fromiter(map(index.__getitem__, column), np.intp, len(column))


def _coordinates(texts: list[str]) -> np.ndarray | None:
    """``_floats`` with each distinct text parsed once: a station's
    coordinates repeat in every period, and a grid's along its rows."""
    distinct: dict[str, int] = {}
    codes = _codes(texts, distinct)
    values = _floats(list(distinct))
    return None if values is None else values[codes]


def _sorted_codes(index: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """The labels of ``index`` in sorted order, and each code's position
    among them."""
    labels = sorted(index)
    return labels, np.argsort([index[label] for label in labels])


def _parse_float(text: str, line_no: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(f"line {line_no}: cannot parse {column} value {text!r}") from None


def _reject_data_records(path: Path) -> NoReturn:
    """Raise the DataError of the first record of a data file that fails a
    check, walking the records through the checks in their order.  Called
    once the column checks have found that some record fails."""
    coords: dict[str, tuple[float, float]] = {}
    pairs: set[tuple[str, str]] = set()
    for numbers, columns, error in _read_chunks(path, DATA_HEADER, "data"):
        for line_no, sid, x1, x2, label, value in zip(numbers, *columns):
            if not sid or not label:
                raise DataError(f"line {line_no}: empty station id or time label")
            xy = (_parse_float(x1, line_no, "x1"), _parse_float(x2, line_no, "x2"))
            if coords.setdefault(sid, xy) != xy:
                raise DataError(
                    f"line {line_no}: station {sid!r} reappears with different coordinates"
                )
            if (sid, label) in pairs:
                raise DataError(f"line {line_no}: duplicate (station, time) pair "
                                f"({sid!r}, {label!r})")
            pairs.add((sid, label))
            _parse_float(value or "nan", line_no, "value")
        if error:
            raise DataError(error)
    raise RuntimeError(f"{path}: the column checks flagged a record that passes")


def ingest(path) -> Dataset:
    """Read a long-format observation CSV into a complete-case Dataset.

    Expects the exact header station_id,x1,x2,time,value.  Stations are
    deduplicated by id (coordinate conflicts are errors), duplicate
    (station, time) rows are errors, and any station missing one of the
    observed periods is dropped (recorded in ``dropped_ids``).  Missing
    values may be spelled as an empty field or ``nan``; they drop the
    station through the complete-case rule.  Stations come in sorted id
    order and periods in sorted label order.
    """
    path = Path(path)
    stations: dict[str, int] = {}
    periods: dict[str, int] = {}
    parts = []
    for _, (sids, x1s, x2s, labels, values), error in _read_chunks(path, DATA_HEADER, "data"):
        part = (_codes(sids, stations), _codes(labels, periods),
                _coordinates(x1s), _coordinates(x2s), _floats([v or "nan" for v in values]))
        if error or "" in sids or "" in labels or any(col is None for col in part):
            _reject_data_records(path)
        parts.append(part)
    ids, station_position = _sorted_codes(stations)
    times, period_position = _sorted_codes(periods)
    si, ti, x1, x2, value = (np.concatenate(col) for col in zip(*parts))
    si, ti = station_position[si], period_position[ti]
    first = np.unique(si, return_index=True)[1]  # each station's first record
    head = first[si]
    moved = (x1[head] != x1) | (x2[head] != x2)
    moved[first] = False  # nan != nan, but a first record cannot conflict
    pairs = np.sort(si * len(times) + ti)
    if moved.any() or (pairs[1:] == pairs[:-1]).any():
        _reject_data_records(path)

    if len(times) < 2:
        raise DataError(f"{path}: need at least 2 time periods, found {len(times)}")
    # with no duplicate pairs, T finite values mean every period is there
    complete = np.bincount(si[np.isfinite(value)], minlength=len(ids)) == len(times)
    kept = [sid for sid, ok in zip(ids, complete) if ok]
    dropped = [sid for sid, ok in zip(ids, complete) if not ok]
    if len(kept) < 4:
        raise DataError(
            f"{path}: only {len(kept)} complete stations (need >= 4); "
            f"dropped {len(dropped)}"
        )
    row = np.cumsum(complete) - 1
    keep = complete[si]
    z = np.empty((len(kept), len(times)))
    z[row[si[keep]], ti[keep]] = value[keep]
    sites = np.column_stack([x1[first], x2[first]])[complete]
    return Dataset(
        sites=sites, replicates=z, ids=tuple(kept), times=tuple(times),
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
    parts = []
    for numbers, (x1s, x2s), error in _read_chunks(Path(path), ["x1", "x2"], "grid"):
        x1, x2 = _coordinates(x1s), _coordinates(x2s)
        if x1 is None or x2 is None:
            for line_no, a, b in zip(numbers, x1s, x2s):
                _parse_float(a, line_no, "x1")
                _parse_float(b, line_no, "x2")
        if error:
            raise DataError(error)
        parts.append(np.column_stack([x1, x2]))
    pts = np.concatenate(parts)
    if not len(pts):
        raise DataError(f"{path}: no prediction sites")
    return pts


def write_prediction_csv(path, pred_sites, mean, variance) -> None:
    write_array_csv(path, ["x1", "x2", "mean", "variance"],
                    np.column_stack([pred_sites, mean, variance]))


def write_map_csv(path, points, images) -> None:
    """Geographic points and their deformed images."""
    write_array_csv(path, ["gx1", "gx2", "dx1", "dx2"], np.hstack([points, images]))


def write_deformed_grid_csv(path, dmap: DeformationMap) -> None:
    """Regular DEFORMED_GRID_SIDE^2 grid of geographic points and their
    deformed images."""
    grid = dmap.grid
    g1 = np.linspace(grid.x1_min, grid.x1_max, DEFORMED_GRID_SIDE)
    g2 = np.linspace(grid.x2_min, grid.x2_max, DEFORMED_GRID_SIDE)
    xx, yy = np.meshgrid(g1, g2, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    write_map_csv(path, pts, dmap(pts))


def read_config(path) -> dict:
    """Parse a flat key = value config file (# starts a comment)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"config file {path} does not exist")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read config file {path}: {e}") from None
    out: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
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
        if key in CONFIG_RANGES and not CONFIG_RANGES[key][1](out[key]):
            raise DataError(f"config line {line_no}: {key} must be "
                            f"{CONFIG_RANGES[key][0]}, got {value!r}")
    return out
