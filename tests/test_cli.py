import contextlib
import csv
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spatdeform import modelio
from spatdeform.cli import main
from spatdeform.covariance import CovParams
from spatdeform.deformation import default_epsilon, min_jacobian
from spatdeform.errors import FitError
from spatdeform.estimation import FitConfig
from spatdeform.fields import Swirl, simulate_grf

from test_fit_properties import draw_sites


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def sim_config(workdir):
    cfg = workdir / "sim.cfg"
    cfg.write_text(
        "grid_n = 7\n"
        "T = 40\n"
        "seed = 1\n"
        "swirl_strength = 1.0\n"
        "swirl_radius = 0.35\n"
    )
    return cfg


@pytest.fixture(scope="module")
def simulated(workdir, sim_config):
    out = workdir / "sim"
    assert main(["simulate", "--config", str(sim_config), "--out", str(out)]) == 0
    return out


class TestSimulate:
    def test_outputs_exist_and_ingest(self, simulated):
        ds = modelio.ingest(simulated / "data.csv")
        assert ds.n == 49 and ds.t == 40
        truth_map = (simulated / "truth_map.csv").read_text().splitlines()
        assert truth_map[0] == "gx1,gx2,dx1,dx2"
        assert len(truth_map) == 1 + 49
        truth_cov = (simulated / "truth_cov.csv").read_text().splitlines()
        assert len(truth_cov) == 1 + 49 * 48 // 2

    def test_deterministic_given_seed(self, workdir, sim_config, simulated):
        out2 = workdir / "sim2"
        assert main(["simulate", "--config", str(sim_config), "--out", str(out2),
                     "--seed", "1"]) == 0
        assert (simulated / "data.csv").read_text() == (out2 / "data.csv").read_text()

    def test_seed_changes_data(self, workdir, sim_config, simulated):
        out3 = workdir / "sim3"
        assert main(["simulate", "--config", str(sim_config), "--out", str(out3),
                     "--seed", "2"]) == 0
        assert (simulated / "data.csv").read_text() != (out3 / "data.csv").read_text()


@pytest.fixture(scope="module")
def fitted_model(workdir, simulated):
    model_path = workdir / "model.json"
    rc = main([
        "estimate", "--data", str(simulated / "data.csv"), "--k", "4",
        "--out", str(model_path),
    ])
    assert rc == 0
    return model_path


class TestEstimate:
    def test_model_file_and_grid(self, workdir, fitted_model):
        model = modelio.load_model(fitted_model)
        assert min_jacobian(model.mapping()) >= default_epsilon(model.grid)
        assert model.grid.k1 == 4
        grid_csv = workdir / "model_deformed_grid.csv"
        lines = grid_csv.read_text().splitlines()
        assert lines[0] == "gx1,gx2,dx1,dx2"
        assert len(lines) == 1 + 21 * 21

    def test_roundtrip(self, workdir, fitted_model):
        other = workdir / "model2.json"
        modelio.save_model(modelio.load_model(fitted_model), other)
        assert fitted_model.read_text() == other.read_text()

    def test_missing_data_exit_code(self, workdir):
        rc = main(["estimate", "--data", str(workdir / "nope.csv"), "--k", "4",
                   "--out", str(workdir / "x.json")])
        assert rc == 2

    def test_infeasible_epsilon_exit_code(self, workdir, simulated):
        rc = main([
            "estimate", "--data", str(simulated / "data.csv"), "--k", "4",
            "--epsilon", "5.0", "--out", str(workdir / "y.json"),
        ])
        assert rc == 4

    # the ascent may stop short on white noise; only the exit code is checked
    @pytest.mark.filterwarnings("default:likelihood ascent:RuntimeWarning")
    @pytest.mark.parametrize("seed", [0, 8])
    def test_white_noise_stations_end_without_a_traceback(self, workdir, capsys, seed):
        # five white-noise stations: the fitted range can shrink until every
        # off-diagonal correlation underflows and the coefficients carry no
        # information, as at seed 8
        sites = np.random.default_rng(seed).uniform(size=(5, 2))
        z = np.random.default_rng(100 + seed).normal(size=(5, 30))
        data = workdir / f"white_noise{seed}.csv"
        modelio.write_long_csv(data, sites, [f"s{i}" for i in range(5)],
                               [f"t{j:02d}" for j in range(30)], z)
        rc = main(["estimate", "--data", str(data), "--k", "3",
                   "--out", str(workdir / f"white_noise{seed}.json")])
        assert rc in (0, 3)
        assert "Traceback" not in capsys.readouterr().err


    def test_too_few_distinct_distances(self, workdir, capsys):
        # the four corners of a square have two distinct distances, too few
        # for the variogram of the initial covariance
        sites = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        z = np.random.default_rng(3).normal(size=(4, 10))
        data = workdir / "square.csv"
        modelio.write_long_csv(data, sites, [f"s{i}" for i in range(4)],
                               [f"t{j:02d}" for j in range(10)], z)
        rc = main(["estimate", "--data", str(data), "--k", "2",
                   "--out", str(workdir / "square.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error" in err and "distinct" in err and "Traceback" not in err


class TestFitSettings:
    # estimate and compare hand fit FitConfig's own default for each fit
    # setting the user leaves out, and the user's value for the others
    @pytest.fixture
    def handed(self, monkeypatch):
        import spatdeform.cli as cli

        configs = []

        def recording_fit(dataset, config):
            configs.append(config)
            raise FitError("recorded")

        monkeypatch.setattr(cli, "fit", recording_fit)
        return configs

    @pytest.mark.parametrize("flags, given", [
        ([], {}), (["--tol=1e-3"], {"tol": 1e-3}), (["--epsilon=0.01"], {"epsilon": 0.01}),
        (["--epsilon=0.01", "--tol=0"], {"epsilon": 0.01, "tol": 0.0}),
    ])
    def test_estimate(self, workdir, simulated, handed, flags, given):
        rc = main(["estimate", "--data", str(simulated / "data.csv"), "--k", "3",
                   "--out", str(workdir / "handed.json")] + flags)
        assert rc == 3
        assert handed == [FitConfig(3, 3, **given)]

    @pytest.mark.parametrize("keys, given", [
        ("", {}), ("tol = 1e-3\n", {"tol": 1e-3}), ("epsilon = 0.01\n", {"epsilon": 0.01}),
        ("max_outer = 3\n", {"max_outer": 3}),
        ("tol = 0\nepsilon = 0.01\nmax_outer = 3\n", {"tol": 0.0, "epsilon": 0.01, "max_outer": 3}),
    ])
    def test_compare(self, tmp_path, handed, keys, given):
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text("grid_n = 9\nT = 10\n" + keys)
        rc = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert handed == [FitConfig(4, 4, **given)]


# each fit setting as (value or None when absent, whether FitConfig accepts
# it); a setting is absent or valid in two draws of three, so that some runs
# reach the fit
def fit_setting(valid, zero_is_valid, large=None):
    kinds = {"absent": st.just((None, True)), "valid": valid.map(lambda v: (v, True)),
             "zero": st.just((0.0, zero_is_valid)), "nan": st.just((float("nan"), False)),
             "negative": st.floats(-1.0, -1e-12).map(lambda v: (v, False))}
    if large is not None:
        kinds["large"] = large.map(lambda v: (v, True))
    weighted = ["absent", "valid"] * (len(kinds) - 2) + list(kinds)[2:]
    return st.sampled_from(weighted).flatmap(kinds.get)


EPSILONS = fit_setting(st.floats(1e-4, 0.5), False, large=st.floats(1.0, 10.0))
TOLS = fit_setting(st.floats(1e-9, 1e-2), True)


class TestEstimateExitCodes:
    # small odd networks and any fit settings: every run ends in exit 0, 2,
    # 3 or 4 without a traceback; a setting out of range is a data error
    # before the data is read, and a model written is one that does not
    # fold below the margin in effect
    @pytest.mark.filterwarnings("default:likelihood ascent:RuntimeWarning")
    @settings(max_examples=20)
    @example(kind="uniform", n=20, t=15, grf=True, seed=1, k=3, epsilon=(None, True),
             tol=(None, True))
    @example(kind="clustered", n=12, t=8, grf=False, seed=2, k=2, epsilon=(1.0, True),
             tol=(0.0, True))
    @given(kind=st.sampled_from(["uniform", "clustered", "near-collinear"]),
           n=st.integers(3, 25), t=st.integers(2, 20), grf=st.booleans(),
           seed=st.integers(0, 2**32 - 1), k=st.sampled_from([2, 3, 4, 1]),
           epsilon=EPSILONS, tol=TOLS)
    def test_any_network_and_settings(self, workdir, kind, n, t, grf, seed, k, epsilon, tol):
        rng = np.random.default_rng(seed)
        sites = draw_sites(kind, n, rng)
        if grf:
            z = simulate_grf(sites, Swirl(), CovParams(1.0, 0.25, 1.0), t=t, seed=seed)
        else:
            z = rng.standard_normal((n, t))
        data, out = workdir / "any_network.csv", workdir / "any_network.json"
        out.unlink(missing_ok=True)
        modelio.write_long_csv(data, sites, [f"s{i:02d}" for i in range(n)],
                               [f"t{j:02d}" for j in range(t)], z)
        flags = [f"--{name}={value}" for name, (value, _) in
                 (("epsilon", epsilon), ("tol", tol)) if value is not None]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["estimate", "--data", str(data), f"--k={k}", "--out", str(out)] + flags)
        assert rc in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if not (k >= 2 and epsilon[1] and tol[1]):
            assert rc == 2
        if rc == 0:
            model = modelio.load_model(out)
            margin = epsilon[0] if epsilon[0] is not None else default_epsilon(model.grid)
            assert min_jacobian(model.mapping()) >= margin


class TestBadSettings:
    # every setting out of range is a data error: exit code 2, one line on
    # stderr and no traceback
    @pytest.mark.parametrize("extra", [
        ["--k", "1"], ["--epsilon", "-1"], ["--epsilon", "nan"], ["--epsilon", "inf"],
        ["--tol", "-1"], ["--tol", "nan"],
    ])
    def test_estimate(self, workdir, simulated, capsys, extra):
        rc = main(["estimate", "--data", str(simulated / "data.csv"), "--k", "4",
                   "--out", str(workdir / "bad.json")] + extra)
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("setting", [
        "t = 0", "t = 1", "grid_n = -1", "grid_n = 0", "grid_n = 1", "grid_n = 2", "seed = -1",
        "sigma2 = -1", "phi = 0", "nugget = -1", "nugget = nan", "swirl_radius = 0",
        "--seed -3",
    ])
    def test_harness(self, tmp_path, capsys, command, setting):
        # a config line, or an option that overrides the config
        option = setting.startswith("--")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid_n = 5\nT = 10\n" + ("" if option else setting + "\n"))
        out = tmp_path / "out"
        rc = main([command, "--config", str(cfg), "--out", str(out)]
                  + (setting.split() if option else []))
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error" in err and "Traceback" not in err
        assert not out.exists()

    def test_compare(self, workdir, capsys):
        cfg = workdir / "bad.cfg"
        cfg.write_text("grid_n = 5\nT = 10\nmax_outer = 0\n")
        rc = main(["compare", "--config", str(cfg), "--out", str(workdir / "bad_cmp")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error" in err and "max_outer" in err and "Traceback" not in err

    def test_compare_grid_too_small_for_the_baselines(self, workdir, capsys):
        # 36 sites leave no thin-plate baseline with K^2 = 36 dof
        cfg = workdir / "small.cfg"
        cfg.write_text("grid_n = 6\nT = 20\nmax_outer = 2\n")
        rc = main(["compare", "--config", str(cfg), "--out", str(workdir / "small_cmp")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error" in err and "grid_n" in err and "Traceback" not in err

    def test_negative_draws(self, workdir, simulated, fitted_model, pred_grid, capsys):
        rc = main([
            "predict", "--model", str(fitted_model), "--data", str(simulated / "data.csv"),
            "--grid", str(pred_grid), "--time", "t000", "--out", str(workdir / "bad.csv"),
            "--draws", "-2",
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error" in err and "Traceback" not in err
        assert not (workdir / "bad.csv").exists()

    def test_negative_seed(self, workdir, simulated, fitted_model, pred_grid, capsys):
        out = workdir / "bad_seed.csv"
        rc = main([
            "predict", "--model", str(fitted_model), "--data", str(simulated / "data.csv"),
            "--grid", str(pred_grid), "--time", "t000", "--out", str(out),
            "--draws", "2", "--seed", "-1",
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error" in err and "Traceback" not in err
        assert not out.exists()


@pytest.fixture(scope="module")
def pred_grid(workdir):
    path = workdir / "grid.csv"
    g = np.linspace(0.05, 0.95, 5)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2"])
        for a in g:
            for b in g:
                writer.writerow([a, b])
    return path


class TestUnreadableFiles:
    # a file the readers cannot decode is a data error that names the file:
    # exit code 2 and no traceback
    def check(self, capsys, argv, path):
        rc = main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error" in err and str(path) in err and "Traceback" not in err

    def test_data_csv(self, workdir, capsys):
        data = workdir / "bad_bytes.csv"
        data.write_bytes(b"station_id,x1,x2,time,value\ns1,0,0,t\xff,1\n")
        self.check(capsys, ["estimate", "--data", data, "--k", 4, "--out", workdir / "z.json"],
                   data)

    def test_data_csv_field_over_the_csv_limit(self, workdir, capsys):
        data = workdir / "long_field.csv"
        data.write_text("station_id,x1,x2,time,value\n" + "s" * 200_000 + ",0,0,t0,1\n")
        self.check(capsys, ["estimate", "--data", data, "--k", 4, "--out", workdir / "z.json"],
                   data)

    def test_grid_csv(self, workdir, simulated, fitted_model, capsys):
        grid = workdir / "bad_bytes_grid.csv"
        grid.write_bytes(b"x1,x2\n0.5,0.\xff\n")
        self.check(capsys, ["predict", "--model", fitted_model, "--data",
                            simulated / "data.csv", "--grid", grid, "--time", "t000",
                            "--out", workdir / "z.csv"], grid)

    def test_config(self, workdir, capsys):
        cfg = workdir / "bad_bytes.cfg"
        cfg.write_bytes(b"grid_n = 5 # \xff\n")
        self.check(capsys, ["simulate", "--config", cfg, "--out", workdir / "z_sim"], cfg)

    def test_model_file(self, workdir, simulated, pred_grid, capsys):
        model = workdir / "bad_bytes.json"
        model.write_bytes(b'{"schema_version": 1, "k1": "\xff"}')
        self.check(capsys, ["predict", "--model", model, "--data", simulated / "data.csv",
                            "--grid", pred_grid, "--time", "t000", "--out", workdir / "z.csv"],
                   model)

    # a model parameter that is not a finite number is a data error too
    @pytest.mark.parametrize("key, value", [
        ("mean", "abc"), ("mean", [1.0, 2.0]), ("mean", float("nan")), ("mean", float("inf")),
        ("mean", True), ("sigma2", float("inf")), ("sigma2", True), ("phi", float("inf")),
        ("nugget", float("inf")), ("theta1", float("nan")), ("theta2", float("-inf")),
        ("x1_min", float("-inf")), ("x2_max", float("inf")),
    ])
    def test_model_parameter_that_is_not_a_finite_number(self, workdir, simulated, fitted_model,
                                                          pred_grid, capsys, key, value):
        payload = json.loads(fitted_model.read_text())
        if key.startswith("theta"):
            payload[key][1][2] = value
        elif key in payload["domain"]:
            payload["domain"][key] = value
        else:
            payload[key] = value
        model = workdir / f"bad_{key}.json"
        model.write_text(json.dumps(payload))
        rc = main(["predict", "--model", str(model), "--data", str(simulated / "data.csv"),
                   "--grid", str(pred_grid), "--time", "t000", "--out", str(workdir / "z.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error" in err and str(model) in err and "Traceback" not in err
        assert f"{key} must be a finite number" in err or f"{key} has non-finite entries" in err

    def test_model_whose_map_folds(self, workdir, simulated, fitted_model, pred_grid, capsys):
        # two rows of theta1 swapped by hand: the cells between them fold
        payload = json.loads(fitted_model.read_text())
        payload["theta1"][1], payload["theta1"][2] = payload["theta1"][2], payload["theta1"][1]
        model = workdir / "folded.json"
        model.write_text(json.dumps(payload))
        rc = main(["predict", "--model", str(model), "--data", str(simulated / "data.csv"),
                   "--grid", str(pred_grid), "--time", "t000", "--out", str(workdir / "z.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error" in err and str(model) in err and "Traceback" not in err
        assert "folds: its least corner |J| is -" in err


class TestPredict:
    def test_prediction_csv(self, workdir, simulated, fitted_model, pred_grid):
        out = workdir / "pred.csv"
        rc = main([
            "predict", "--model", str(fitted_model), "--data", str(simulated / "data.csv"),
            "--grid", str(pred_grid), "--time", "t000", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x1,x2,mean,variance"
        assert len(lines) == 1 + 25
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.all(rows[:, 3] >= 0.0)

    def test_draws_written_and_seeded(self, workdir, simulated, fitted_model, pred_grid):
        out = workdir / "pred2.csv"
        args = [
            "predict", "--model", str(fitted_model), "--data", str(simulated / "data.csv"),
            "--grid", str(pred_grid), "--time", "t001", "--out", str(out),
            "--draws", "3", "--seed", "7",
        ]
        assert main(args) == 0
        draws = workdir / "pred2_draws.csv"
        first = draws.read_text()
        assert first.splitlines()[0] == "x1,x2,draw000,draw001,draw002"
        assert main(args) == 0
        assert draws.read_text() == first

    def test_draws_share_one_kriging_system(self, workdir, simulated, fitted_model, pred_grid,
                                           monkeypatch):
        from spatdeform import fields
        factor = fields.factor_covariance
        calls = []

        def counting(c):
            calls.append(c.shape)
            return factor(c)

        monkeypatch.setattr(fields, "factor_covariance", counting)
        assert main([
            "predict", "--model", str(fitted_model), "--data", str(simulated / "data.csv"),
            "--grid", str(pred_grid), "--time", "t001", "--out", str(workdir / "pred3.csv"),
            "--draws", "3",
        ]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("x1", ["nan", "1.5", "-inf"])
    def test_grid_point_outside_the_domain(self, workdir, simulated, fitted_model, capsys, x1):
        # the message names the coordinate as a plain float, not a numpy repr
        grid = workdir / "outside_grid.csv"
        grid.write_text(f"x1,x2\n0.5,0.5\n{x1},0.5\n")
        rc = main(["predict", "--model", str(fitted_model), "--data", str(simulated / "data.csv"),
                   "--grid", str(grid), "--time", "t000", "--out", str(workdir / "z.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"coordinate {x1} outside axis-1 bounds" in err and "Traceback" not in err

    def test_unknown_time_label(self, workdir, simulated, fitted_model, pred_grid):
        rc = main([
            "predict", "--model", str(fitted_model), "--data", str(simulated / "data.csv"),
            "--grid", str(pred_grid), "--time", "bogus", "--out", str(workdir / "p.csv"),
        ])
        assert rc == 2


class TestPredictExitCodes:
    # data sites and repeated points make the conditional covariance
    # singular when the nugget is 0; a point outside the domain is a data
    # error.  Every run ends in exit 0, 2 or 3, without a traceback.
    @settings(max_examples=50)
    @given(nugget=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), draws=st.integers(0, 3),
           data=st.data())
    def test_any_model_grid_and_draw_count(self, workdir, simulated, fitted_model,
                                          nugget, draws, data):
        sites = modelio.ingest(simulated / "data.csv").sites
        inside = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
        outside = st.tuples(st.floats(1.01, 3.0), st.floats(0.0, 1.0))
        site = st.integers(0, len(sites) - 1).map(lambda i: tuple(sites[i]))
        points = data.draw(st.lists(st.one_of(site, inside, outside), min_size=1, max_size=12))
        points += data.draw(st.lists(st.sampled_from(points), max_size=3))
        model = modelio.load_model(fitted_model)
        model = dataclasses.replace(model, cov=dataclasses.replace(model.cov, nugget=nugget))
        model_path, grid = workdir / "any_model.json", workdir / "any_grid.csv"
        modelio.save_model(model, model_path)
        modelio.write_array_csv(grid, ["x1", "x2"], points)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["predict", "--model", str(model_path), "--data",
                       str(simulated / "data.csv"), "--grid", str(grid), "--time", "t002",
                       "--out", str(workdir / "any_pred.csv"), "--draws", str(draws)])
        assert rc in (0, 2, 3)
        assert (rc == 2) == any(x1 > 1.0 for x1, _ in points)
        assert "Traceback" not in err.getvalue()


class TestCompare:
    def test_harness_outputs(self, workdir):
        cfg = workdir / "cmp.cfg"
        cfg.write_text("grid_n = 9\nT = 30\nseed = 2\nmax_outer = 3\n")
        out = workdir / "cmp"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        report = (out / "report.csv").read_text().splitlines()
        assert len(report) == 1 + 6  # three spline rows, three baseline rows
        header = report[0].split(",")
        assert "slope" in header and "min_jacobian" in header
        n_pairs = 81 * 80 // 2
        for k in (4, 6, 8):
            scatter = (out / f"scatter_bspline_k{k}.csv").read_text().splitlines()
            assert len(scatter) == 1 + n_pairs
            scatter_tps = (out / f"scatter_tps_dof{k * k}.csv").read_text().splitlines()
            assert len(scatter_tps) == 1 + n_pairs
        rows = list(csv.DictReader((out / "report.csv").open()))
        for row in rows:
            if row["method"] == "bspline":
                assert float(row["min_jacobian"]) > 0
                # effective dof per coordinate of the penalized fit
                assert 0 < float(row["dof"]) <= int(row["k"]) ** 2
