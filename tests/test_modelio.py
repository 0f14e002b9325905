import numpy as np
import pytest

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
        validated=True,
    )
    diag = FitDiagnostics(
        loglik=[-123.456789012345678, -120.1],
        margins=[0.987654321234567, 0.99],
        init_stress=0.0123456789,
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
