"""Tests of the benchmark's own checks and span arithmetic.

Run with ``python3 -m pytest bench -q`` from the repository root.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import multivariate_normal

import checks
import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent


def identity_model(k1, k2, lo=(0.0, 0.0), hi=(1.0, 1.0)):
    """The identity map with covariance parameters sigma2 1, phi 0.3,
    nugget 0.5 and mean 0.2."""
    return dataclasses.replace(checks.identity_model(k1, k2, lo, hi),
                               phi=0.3, nugget=0.5, mean=0.2)


def test_loglik_matches_dense_gaussian_density():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5))
    cov = a @ a.T + 5 * np.eye(5)
    z = rng.standard_normal((5, 7))
    dense = multivariate_normal(mean=z.mean(axis=1), cov=cov).logpdf(z.T).sum()
    assert checks.loglik(z, cov) == pytest.approx(dense, rel=1e-12)


def test_kriging_matches_the_joint_gaussian_precision_form():
    rng = np.random.default_rng(1)
    model = identity_model(3, 4)
    model = dataclasses.replace(model,
                                theta1=model.theta1 + 0.05 * rng.standard_normal((3, 4)))
    sites, points = rng.uniform(size=(6, 2)), rng.uniform(size=(4, 2))
    values = rng.standard_normal(6)
    y = checks.bilinear_map(model, np.vstack([sites, points]))
    joint = model.sigma2 * np.exp(-checks.distances(y, y) / model.phi)
    joint[np.diag_indices_from(joint)] += model.nugget
    prec = np.linalg.inv(joint)
    cond = np.linalg.inv(prec[6:, 6:])
    mean = model.mean - cond @ prec[6:, :6] @ (values - model.mean)

    got_mean, got_var, *_ = checks.kriging(model, sites, values, points)
    np.testing.assert_allclose(got_mean, mean, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(got_var, np.diag(cond), rtol=1e-10)
    np.testing.assert_allclose(checks.conditional_cov(model, sites, values, points), cond,
                               rtol=1e-9, atol=1e-12)


def test_bilinear_map_of_identity_coefficients_is_the_identity():
    model = identity_model(4, 5, lo=(-1.0, 2.0), hi=(3.0, 2.5))
    rng = np.random.default_rng(2)
    pts = model.lo + rng.uniform(size=(50, 2)) * (model.hi - model.lo)
    pts = np.vstack([pts, model.lo, model.hi])
    np.testing.assert_allclose(checks.bilinear_map(model, pts), pts, rtol=0, atol=1e-14)
    np.testing.assert_allclose(checks.jacobian_at(model, pts), 1.0, rtol=1e-12)
    np.testing.assert_allclose(checks.corner_jacobians(model), 1.0, rtol=1e-12)


def test_folded_coefficients_of_criterion_3_fail_the_non_folding_check():
    model = identity_model(4, 4)
    t1 = model.theta1.copy()
    t1[1, 1] = t1[2, 1] + 0.15
    t1[2, 2] = t1[1, 2] - 0.1
    folded = dataclasses.replace(model, theta1=t1)
    assert checks.min_jacobian(folded) < 0
    assert checks.min_jacobian(model) > 0
    sites = inputs.grid_sites(5)
    truth = inputs.true_cov(sites)
    z = np.random.default_rng(3).standard_normal((len(sites), 10))
    bad, _ = checks.check_model(folded, sites, z, truth)
    assert any("folds" in b for b in bad)


def test_self_time_on_a_synthetic_span_tree():
    tree = [  # id, name, start, end, parent, op
        [0, "root", 0.0, 10.0, None, 0],
        [1, "a", 1.0, 4.0, 0, 0],
        [2, "a1", 2.0, 3.0, 1, 0],
        [3, "b", 5.0, 9.0, 0, 0],
        [4, "b1", 5.0, 7.0, 3, 0],     # b1 and b2 overlap: union 5..8
        [5, "b2", 6.0, 8.0, 3, 0],
        [6, "c", 9.5, 11.0, 0, 0],     # runs past its parent: clipped to 9.5..10
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({0: 10 - 3 - 4 - 0.5, 1: 2.0, 2: 1.0, 3: 1.0, 4: 2.0,
                                 5: 2.0, 6: 1.5})


@pytest.fixture(scope="module")
def package():
    sys.path.insert(0, str(ROOT / "src"))
    import spatdeform.cli
    from spatdeform import modelio
    return spatdeform.cli, modelio


@pytest.fixture(scope="module")
def tiny_fit(package, tmp_path_factory):
    """A K=3 fit on a 6 x 6 grid and one prediction, through the CLI."""
    cli, _ = package
    d = tmp_path_factory.mktemp("tiny")
    sites = inputs.grid_sites(6)
    z = np.linalg.cholesky(inputs.true_cov(sites)) @ \
        np.random.default_rng(4).standard_normal((len(sites), 40))
    inputs.write_long_csv(d / "data.csv", sites, z)
    points = inputs.box_grid(sites.min(axis=0), sites.max(axis=0), 9)
    inputs.write_grid_csv(d / "grid.csv", points)
    assert cli.main(["estimate", "--data", str(d / "data.csv"), "--k", "3",
                     "--out", str(d / "model.json")]) == 0
    assert cli.main(["predict", "--model", str(d / "model.json"), "--data", str(d / "data.csv"),
                     "--grid", str(d / "grid.csv"), "--time", inputs.time_label(5),
                     "--out", str(d / "pred.csv")]) == 0
    return d, sites, z[:, 5], points


@pytest.mark.parametrize("column", [2, 3])
def test_corrupted_prediction_fails_the_kriging_check(tiny_fit, column, tmp_path):
    d, sites, values, points = tiny_fit
    model = checks.read_model(d / "model.json")
    sample = np.arange(0, len(points), 4)
    bad, *_ = checks.check_prediction(model, sites, values, points, d / "pred.csv", sample)
    assert bad == []

    header, rows = checks.read_csv_columns(d / "pred.csv")
    rows[sample[3], column] *= 1 + 1e-6
    corrupt = tmp_path / "pred.csv"
    corrupt.write_text(",".join(header) + "\n" + "\n".join(
        ",".join(repr(float(v)) for v in row) for row in rows) + "\n")
    bad, *_ = checks.check_prediction(model, sites, values, points, corrupt, sample)
    assert len(bad) == 1 and ("mean" if column == 2 else "variance") in bad[0]


def test_tracer_wraps_every_binding_and_restores_it(package):
    cli, modelio = package
    from spatdeform import estimation, fields
    originals = (estimation.fit, cli.fit, fields.krige, cli.krige, modelio.ingest,
                 estimation.minimize)
    tracer = spans.Tracer()
    with tracer.installed():
        assert estimation.fit is cli.fit and estimation.fit is not originals[0]
        assert fields.krige is cli.krige and fields.krige is not originals[2]
        assert modelio.ingest is not originals[4]
        assert estimation.minimize is not originals[5]
        assert tracer.missing == []
    assert (estimation.fit, cli.fit, fields.krige, cli.krige, modelio.ingest,
            estimation.minimize) == originals


def test_traced_estimate_counts_the_fit(package, tiny_fit, tmp_path):
    cli, _ = package
    d = tiny_fit[0]
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.op = 0
        assert cli.main(["estimate", "--data", str(d / "data.csv"), "--k", "3",
                         "--out", str(tmp_path / "model.json")]) == 0
        tracer.op = None
    m = tracer.metrics([0])
    passes = m["estimation.fit.outer_passes"]
    least_corner = checks.corner_jacobians(checks.read_model(tmp_path / "model.json")).min()
    assert passes >= 1 and m["estimation.fit.below_margin"] == (least_corner < 1e-3)
    assert m["estimation.step_coords.calls"] == m["estimation.refine_coords_ml.calls"] == passes
    assert m["estimation.refine_coords_ml.nit"] >= 1 and m["modelio.ingest.s"] > 0
    assert 0 < m["estimation.step_coords.self_s"] < m["estimation.fit.s"]
    assert len({s[5] for s in tracer.spans}) == 1
