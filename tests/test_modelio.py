import csv
import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spatdeform.basis import KnotGrid
from spatdeform.covariance import CovParams
from spatdeform.deformation import CoefPair, identity_coef
from spatdeform.errors import DataError
from spatdeform.estimation import DeformModel, FitDiagnostics
from spatdeform import modelio


def make_model(rng):
    grid = KnotGrid(0.0, 1.0, -1.0, 2.0, 4, 5)
    base = identity_coef(grid)
    coef = CoefPair(
        base.theta1 + 0.01 * rng.uniform(-1, 1, (4, 5)),
        base.theta2 + 0.01 * rng.uniform(-1, 1, (4, 5)),
    )
    diag = FitDiagnostics(
        loglik=[-123.456789012345678, -120.1],
        margins=[0.987654321234567, 0.99],
        iterations=2,
        converged=True,
        messages=["step_cov fallback at iteration 1"],
        penalty_weights=[0.0, 41.123456789012345],
        effective_dof=37.77777777777778,
    )
    return DeformModel(
        grid=grid,
        coef=coef,
        cov=CovParams(1.234567890123456789, 0.25, 0.111111111111111),
        mean=3.3333333333333335,
        diagnostics=diag,
    )


class TestModelFile:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        model = make_model(rng)
        path = tmp_path / "model.json"
        modelio.save_model(model, path)
        loaded = modelio.load_model(path)
        assert np.array_equal(loaded.coef.theta1, model.coef.theta1)
        assert np.array_equal(loaded.coef.theta2, model.coef.theta2)
        assert loaded.cov == model.cov
        assert loaded.mean == model.mean
        assert loaded.grid == model.grid
        assert loaded.diagnostics.loglik == model.diagnostics.loglik
        assert loaded.diagnostics.margins == model.diagnostics.margins
        assert loaded.diagnostics.messages == model.diagnostics.messages
        assert loaded.diagnostics.penalty_weights == model.diagnostics.penalty_weights
        assert loaded.diagnostics.effective_dof == model.diagnostics.effective_dof

    def test_file_without_penalty_record_loads(self, tmp_path):
        import json

        path = tmp_path / "model.json"
        modelio.save_model(make_model(np.random.default_rng(3)), path)
        payload = json.loads(path.read_text())
        del payload["diagnostics"]["penalty_weights"]
        del payload["diagnostics"]["effective_dof"]
        path.write_text(json.dumps(payload))
        loaded = modelio.load_model(path)
        assert loaded.diagnostics.penalty_weights == []
        assert np.isnan(loaded.diagnostics.effective_dof)

    def test_file_with_initialization_stress_loads(self, tmp_path):
        # files written while fit began with the dispersion embedding carry
        # its stress, which the diagnostics no longer hold
        import json

        model = make_model(np.random.default_rng(4))
        path = tmp_path / "model.json"
        modelio.save_model(model, path)
        payload = json.loads(path.read_text())
        payload["diagnostics"]["init_stress"] = 0.0123456789
        path.write_text(json.dumps(payload))
        loaded = modelio.load_model(path)
        assert loaded.diagnostics == model.diagnostics
        assert np.array_equal(loaded.coef.theta1, model.coef.theta1)

    def test_double_roundtrip_stable(self, tmp_path):
        rng = np.random.default_rng(1)
        model = make_model(rng)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        modelio.save_model(model, p1)
        modelio.save_model(modelio.load_model(p1), p2)
        assert p1.read_text() == p2.read_text()

    def test_unknown_schema_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        model = make_model(rng)
        path = tmp_path / "model.json"
        modelio.save_model(model, path)
        text = path.read_text().replace('"schema_version": 1', '"schema_version": 99')
        path.write_text(text)
        with pytest.raises(DataError, match="schema"):
            modelio.load_model(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            modelio.load_model(path)

    def test_json_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(DataError, match="expected a JSON object"):
            modelio.load_model(path)

    def test_coefficients_must_match_the_knot_grid(self, tmp_path):
        path = tmp_path / "model.json"
        modelio.save_model(make_model(np.random.default_rng(5)), path)
        payload = json.loads(path.read_text())
        payload["k1"], payload["k2"] = 2, 2
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=r"shape \(4, 5\) does not match grid \(2, 2\)"):
            modelio.load_model(path)


def write_rows(path, rows, header="station_id,x1,x2,time,value"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


class TestIngest:
    def test_complete_panel(self, tmp_path):
        rows = []
        for i in range(50):
            for t in range(9):
                rows.append(f"st{i:02d},{i * 0.01},{i * 0.02},p{t},{i + 0.1 * t}")
        path = tmp_path / "data.csv"
        write_rows(path, rows)
        ds = modelio.ingest(path)
        assert ds.n == 50 and ds.t == 9
        assert ds.dropped_ids == ()

    def test_incomplete_station_dropped(self, tmp_path):
        rows = []
        for i in range(5):
            for t in range(3):
                if i == 2 and t == 1:
                    continue  # one missing period
                rows.append(f"st{i},{i * 0.1},{i * 0.2},p{t},{i + t}")
        path = tmp_path / "data.csv"
        write_rows(path, rows)
        ds = modelio.ingest(path)
        assert ds.n == 4
        assert ds.dropped_ids == ("st2",)

    def test_nan_value_drops_station(self, tmp_path):
        rows = []
        for i in range(5):
            for t in range(3):
                val = "nan" if (i == 1 and t == 0) else str(i + t)
                rows.append(f"st{i},{i * 0.1},{i * 0.2},p{t},{val}")
        path = tmp_path / "data.csv"
        write_rows(path, rows)
        ds = modelio.ingest(path)
        assert ds.n == 4
        assert ds.dropped_ids == ("st1",)

    def test_nan_coordinates_in_a_single_record_drop_the_station(self, tmp_path):
        # nan never equals itself, yet a station's first record cannot conflict
        rows = [f"st{i},{i},0,p{t},1" for i in range(4) for t in range(2)] + ["x,nan,0,p0,1"]
        path = tmp_path / "data.csv"
        write_rows(path, rows)
        ds = modelio.ingest(path)
        assert ds.n == 4 and ds.dropped_ids == ("x",)

    def test_duplicate_station_period(self, tmp_path):
        rows = [
            "a,0,0,p0,1", "a,0,0,p1,2",
            "b,1,0,p0,1", "b,1,0,p1,2",
            "c,0,1,p0,1", "c,0,1,p1,2",
            "d,1,1,p0,1", "d,1,1,p1,2",
            "a,0,0,p0,9",
        ]
        path = tmp_path / "data.csv"
        write_rows(path, rows)
        with pytest.raises(DataError, match="line 10.*duplicate"):
            modelio.ingest(path)

    def test_malformed_row_reports_line(self, tmp_path):
        rows = ["a,0,0,p0,1", "b,0,zzz,p0,1"]
        path = tmp_path / "data.csv"
        write_rows(path, rows)
        with pytest.raises(DataError, match="line 3"):
            modelio.ingest(path)

    def test_conflicting_coordinates(self, tmp_path):
        rows = ["a,0,0,p0,1", "a,5,0,p1,1"]
        path = tmp_path / "data.csv"
        write_rows(path, rows)
        with pytest.raises(DataError, match="different coordinates"):
            modelio.ingest(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "data.csv"
        write_rows(path, ["a,0,0,p0,1"], header="id,x,y,t,v")
        with pytest.raises(DataError, match="header"):
            modelio.ingest(path)

    def test_too_few_complete_stations(self, tmp_path):
        rows = []
        for i in range(3):
            for t in range(2):
                rows.append(f"st{i},{i * 0.1},{i * 0.2},p{t},{i + t}")
        path = tmp_path / "data.csv"
        write_rows(path, rows)
        with pytest.raises(DataError, match="complete stations"):
            modelio.ingest(path)

    def test_roundtrip_with_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        sites = rng.uniform(0, 1, (6, 2))
        ids = [f"s{i}" for i in range(6)]
        times = [f"t{j}" for j in range(4)]
        z = rng.normal(size=(6, 4))
        path = tmp_path / "data.csv"
        modelio.write_long_csv(path, sites, ids, times, z)
        ds = modelio.ingest(path)
        assert ds.ids == tuple(ids)
        assert np.array_equal(ds.replicates, z)
        assert np.array_equal(ds.sites, sites)


class TestGridCsv:
    def test_read(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("x1,x2\n0.1,0.2\n0.3,0.4\n")
        pts = modelio.read_grid_csv(path)
        assert pts.shape == (2, 2)
        assert pts[1, 1] == 0.4

    def test_bad_header(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("a,b\n0.1,0.2\n")
        with pytest.raises(DataError):
            modelio.read_grid_csv(path)


# Generated CSV files: the columnar readers must give the bit-identical
# Dataset or grid, or the same DataError, as the record-by-record oracles.
# Chunks of 1, 2 or 3 records put checks and errors across chunk edges.
# Each example draws the seed of one Random, which keeps generation cheap.
CHUNK_SIZES = [1, 2, 3, 1024]
# ids and labels that need quoting, padding or sort in a non-obvious order
STATION_IDS = ["a", "b", "s1", "s10", "s2", "c d", "e,f", 'g"h']
TIME_LABELS = ["t1", "t10", "t2", "p0", "2020-01"]
# spellings of one coordinate that parse to equal floats (nan never equals)
COORDINATES = [["0.5", "0.50", "5e-1"], ["0", "-0.0", "0.0"], ["1", "1.0", "+1"],
               ["0.1"], ["-2.75", "-2.750"], ["nan"]]
VALUES = ["inf", "-inf", "5e-324", "1e308", "-0.0", "3", "1_000"]
MISSING = ["", "nan", "NaN", "  "]
UNPARSEABLE = ["abc", "1.2.3", "--1", "0x10"]
BLANK_LINES = ["", ",,,,", " , ,,, ", "   ", ",,"]


def render(rnd, field: str) -> str:
    """One field as a CSV writer might spell it, padded or quoted."""
    quoted = '"' + field.replace('"', '""') + '"'
    if "," in field:
        return quoted
    return rnd.choice([field, field, quoted, f" {field}", f"{field}\t ", f'" {field} "',
                       f"{field}\xa0"])


def write_records(rnd, path, header: str, records: list[list[str]], blanks) -> None:
    lines = [header] + [",".join(render(rnd, f) for f in rec) for rec in records]
    for _ in range(rnd.randint(0, 3)):
        lines.insert(rnd.randint(1, len(lines)), rnd.choice(blanks))
    end = rnd.choice(["\n", "\r\n", "\r"])
    path.write_bytes((end.join(lines) + rnd.choice(["", end])).encode())


def outcome(read, path):
    """What a reader makes of a file: its arrays and labels as bytes and
    tuples, or the message of its DataError."""
    try:
        got = read(path)
    except DataError as e:
        return f"DataError: {e}"
    if isinstance(got, np.ndarray):
        return got.shape, got.dtype, got.tobytes()
    return (got.sites.shape, got.sites.tobytes(), got.replicates.shape,
            got.replicates.tobytes(), got.ids, got.times, got.dropped_ids)


def data_records(rnd) -> list[list[str]]:
    """A shuffled long-format panel with missing values and incomplete
    stations, and up to two of the defects a data file can carry."""
    ids = rnd.sample(STATION_IDS, rnd.randint(4, len(STATION_IDS)))
    times = rnd.sample(TIME_LABELS, rnd.randint(1 if rnd.random() < 0.1 else 2, 4))
    records = []
    for sid in ids:
        spellings = [rnd.choice(COORDINATES[:-1] if rnd.random() < 0.98 else COORDINATES)
                     for _ in range(2)]
        for t in times:
            if rnd.random() < 0.97:  # some stations lack a period
                value = (rnd.choice(MISSING) if rnd.random() < 0.03 else
                         rnd.choice(VALUES) if rnd.random() < 0.2 else repr(rnd.gauss(0, 1)))
                records.append([sid, *map(rnd.choice, spellings), t, value])
    rnd.shuffle(records)
    for _ in range(rnd.choice([0, 0, 1, 2])):
        if not records:
            break
        k = rnd.randrange(len(records))
        rec = list(records[k])
        if len(rec) != len(modelio.DATA_HEADER):  # already cut short
            continue
        defect = rnd.choice(["width", "x1", "x2", "value", "duplicate", "conflict", "empty"])
        if defect == "width":
            records[k] = rec[:rnd.randint(1, 4)] if rnd.random() < 0.5 else rec + ["7"]
        elif defect in ("x1", "x2", "value"):
            rec[{"x1": 1, "x2": 2, "value": 4}[defect]] = rnd.choice(UNPARSEABLE)
            records[k] = rec
        elif defect == "duplicate":
            records.insert(rnd.randint(k + 1, len(records)), rec)
        elif defect == "conflict":
            rec[1], rec[3] = "9.75", "t-extra"
            records.insert(rnd.randint(0, len(records)), rec)
        else:
            rec[rnd.choice([0, 3])] = rnd.choice(["", " "])
            records[k] = rec
    return records


@settings(max_examples=500)
@given(seed=st.integers(0, 2**32 - 1), chunk=st.sampled_from(CHUNK_SIZES))
def test_ingest_matches_the_record_by_record_oracle(tmp_path_factory, seed, chunk):
    rnd = random.Random(seed)
    path = tmp_path_factory.getbasetemp() / "equivalence_data.csv"
    write_records(rnd, path, ",".join(modelio.DATA_HEADER), data_records(rnd), BLANK_LINES)
    with mock.patch.object(modelio, "CHUNK_ROWS", chunk):
        assert outcome(modelio.ingest, path) == outcome(oracles.ingest, path)


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), chunk=st.sampled_from(CHUNK_SIZES))
def test_read_grid_csv_matches_the_record_by_record_oracle(tmp_path_factory, seed, chunk):
    rnd = random.Random(seed)
    path = tmp_path_factory.getbasetemp() / "equivalence_grid.csv"
    spellings = [t for s in COORDINATES for t in s] + VALUES
    records = [[rnd.choice(spellings) if rnd.random() < 0.5 else repr(rnd.uniform(-9, 9))
                for _ in range(2)] for _ in range(rnd.randint(0, 8))]
    if records and rnd.random() < 0.5:
        k = rnd.randrange(len(records))
        records[k] = rnd.choice([records[k][:1], records[k] + ["1"],
                                 [rnd.choice(UNPARSEABLE), records[k][1]],
                                 [records[k][0], rnd.choice(UNPARSEABLE)]])
    write_records(rnd, path, "x1,x2", records, ["", ",", " , "])
    with mock.patch.object(modelio, "CHUNK_ROWS", chunk):
        assert outcome(modelio.read_grid_csv, path) == outcome(oracles.read_grid_csv, path)


def oracle_outcome(read, path, kind: str):
    """``outcome`` of an oracle, whose csv errors stand for the DataError
    that the package's readers raise for them."""
    try:
        return outcome(read, path)
    except csv.Error as e:
        return f"DataError: cannot read {kind} file {path}: {e}"


def panel_lines(n: int = 4, t: int = 3) -> list[str]:
    return [f"s{i},{i},{i % 2},p{j},{i + 0.5 * j}" for i in range(n) for j in range(t)]


class TestReaderHandOff:
    # the readers split plain chunks themselves and leave the first chunk
    # with a quote, a NUL or a long line, and the rest of the file, to
    # the csv module; a special record late in the file puts plain chunks
    # before it
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_nul_in_a_station_id(self, tmp_path, chunk):
        # csv raises "line contains NUL" before Python 3.11 and reads the
        # field from 3.11 on: either way the readers agree with the oracle
        lines = panel_lines(5)
        lines[-2] = lines[-2].replace("s4,", "s\x004,")
        path = tmp_path / "data.csv"
        write_rows(path, lines)
        with mock.patch.object(modelio, "CHUNK_ROWS", chunk):
            assert outcome(modelio.ingest, path) == oracle_outcome(oracles.ingest, path, "data")

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    @pytest.mark.parametrize("kind", ["data", "grid"])
    def test_field_beyond_the_csv_limit(self, tmp_path, kind, chunk):
        if kind == "data":
            lines = panel_lines()
            lines.insert(9, "s9," + "1" * 200_000 + ",0,p0,1")
            read, oracle = modelio.ingest, oracles.ingest
        else:
            lines = ["0.5,0.5"] * 9 + ["2" * 200_000 + ",0.5"]
            read, oracle = modelio.read_grid_csv, oracles.read_grid_csv
        path = tmp_path / f"{kind}.csv"
        write_rows(path, lines, header="station_id,x1,x2,time,value" if kind == "data" else "x1,x2")
        with mock.patch.object(modelio, "CHUNK_ROWS", chunk):
            got = outcome(read, path)
        assert got == oracle_outcome(oracle, path, kind)
        assert got.endswith(f"field larger than field limit ({csv.field_size_limit()})")

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_quoted_line_break_after_plain_chunks(self, tmp_path, end):
        # a quoted id may hold a line break, which only the csv module reads
        lines = [line.replace("s4,", '"s\r\n4",') for line in panel_lines(5)]
        path = tmp_path / "data.csv"
        path.write_bytes(end.join(["station_id,x1,x2,time,value", *lines]).encode())
        with mock.patch.object(modelio, "CHUNK_ROWS", 2):
            got = modelio.ingest(path)
        assert got.ids == ("s\r\n4", "s0", "s1", "s2", "s3")
        assert outcome(modelio.ingest, path) == outcome(oracles.ingest, path)

    def test_peak_memory_holds_one_chunk_of_text(self, tmp_path, traced_peak):
        # 40 000 records, 2.9 MB: the reader of one csv.reader list per
        # record peaked at 5.32 MB here, and loading the whole file at once
        # takes several times that
        rng = np.random.default_rng(0)
        path = tmp_path / "data.csv"
        modelio.write_long_csv(path, rng.uniform(size=(400, 2)), [f"s{i:04d}" for i in range(400)],
                               [f"t{j:03d}" for j in range(100)], rng.normal(size=(400, 100)))
        ds, peak = traced_peak(modelio.ingest, path)
        assert ds.replicates.shape == (400, 100)
        assert peak <= 1.25 * 5.32e6


class TestArrayCsv:
    SPECIAL = [-0.0, 0.0, 5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan, 3.0, -7.0, 2.0**53,
               1 / 3, 0.1, 1e-300, 123456789.125]

    @pytest.mark.parametrize("rows", [1, 2, "chunk", "chunk+1", "2 chunks+3"])
    def test_bytes_match_write_csv(self, tmp_path, rows):
        rows = {"chunk": modelio.CHUNK_ROWS, "chunk+1": modelio.CHUNK_ROWS + 1,
                "2 chunks+3": 2 * modelio.CHUNK_ROWS + 3}.get(rows, rows)
        # every row holds every special value, beside random ones
        special = np.array([np.roll(self.SPECIAL, k) for k in range(rows)])
        table = np.hstack([special, np.random.default_rng(rows).normal(size=(rows, 3))])
        header = [f"c{j}" for j in range(table.shape[1])]
        modelio.write_csv(tmp_path / "rows.csv", header, table.tolist())
        modelio.write_array_csv(tmp_path / "array.csv", header, table)
        assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_dialect(self, tmp_path):
        path = tmp_path / "t.csv"
        modelio.write_array_csv(path, ["a", "b"], [[-0.0, 0.1], [np.inf, 5.0]])
        assert path.read_bytes() == b"a,b\r\n-0,0.10000000000000001\r\ninf,5\r\n"

    def test_empty_table(self, tmp_path):
        path = tmp_path / "t.csv"
        modelio.write_array_csv(path, ["a", "b"], np.empty((0, 2)))
        assert path.read_bytes() == b"a,b\r\n"


class TestConfig:
    def test_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# harness settings\n"
            "grid_n = 4\nmax_outer = 4\nT = 50\nseed = 3\n"
            "swirl_strength = 1.5  # radians\n"
            "swirl_radius = 0.35\n"
        )
        cfg = modelio.read_config(path)
        assert cfg == {
            "grid_n": 4, "max_outer": 4, "t": 50, "seed": 3,
            "swirl_strength": 1.5, "swirl_radius": 0.35,
        }

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(DataError, match="unknown key"):
            modelio.read_config(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("grid_n = four\n")
        with pytest.raises(DataError):
            modelio.read_config(path)


def test_fmt_17_digits():
    assert modelio.fmt(1 / 3) == "0.33333333333333331"
    assert float(modelio.fmt(np.pi)) == np.pi
