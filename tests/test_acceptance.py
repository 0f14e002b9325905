"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL verdict line.  Criteria 4 and 5 share one batch of fits
(10 seeds x K in {4, 6, 8} on the simulation-study configuration).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines for passing criteria too.
"""

import csv
import time

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist, squareform

from spatdeform import modelio
from spatdeform.basis import KnotGrid
from spatdeform.cli import main
from spatdeform.covariance import (
    CovParams,
    DispersionMatrix,
    VariogramModel,
    covariance_matrix,
)
from spatdeform.deformation import (
    CoefPair,
    DeformationMap,
    corner_values,
    eval_map_points,
    identity_coef,
    min_jacobian,
)
from spatdeform.estimation import Dataset, FitConfig, fit, normalize_gauge
from spatdeform.fields import KrigingSystem, Swirl, simulate_grf
from spatdeform.scaling import configuration_stress, procrustes, sg_initialize
from spatdeform.smoothers import (
    fit_bspline_constrained,
    make_tps_smoother,
    unconstrained_bspline_fit,
)

from oracles import IdentityMap, cell_jacobian, eval_map, jacobian_det

EPS = 1e-3
SWIRL = Swirl(center=(0.5, 0.5), strength=1.5, radius=0.35)
COV_TRUE = CovParams(sigma2=1.0, phi=0.25, nugget=1.0)
SEEDS = range(1, 11)


def verdict(num, name, ok, detail=""):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'} - {name}: {detail}")
    return ok


def study_sites():
    g = np.linspace(0.0, 1.0, 11)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def wobbled_coef(grid, rng, wobble=0.5):
    base = identity_coef(grid)
    return CoefPair(
        base.theta1 + wobble * grid.tau1 * rng.uniform(-1, 1, base.shape),
        base.theta2 + wobble * grid.tau2 * rng.uniform(-1, 1, base.shape),
    )


def test_criterion_1_jacobian_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(4, 9))
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, k, k)
        dmap = DeformationMap(grid, wobbled_coef(grid, rng))
        tau = grid.tau1
        h = 1e-6 * tau
        cell = rng.integers(0, k - 1, 2)
        x = (cell + rng.uniform(0.01, 0.99, 2)) * tau
        d1 = (eval_map(dmap, x + [h, 0]) - eval_map(dmap, x - [h, 0])) / (2 * h)
        d2 = (eval_map(dmap, x + [0, h]) - eval_map(dmap, x - [0, h])) / (2 * h)
        fd = d1[0] * d2[1] - d2[0] * d1[1]
        jd = jacobian_det(dmap, x)
        worst = max(worst, abs(jd - fd) / (1.0 + abs(jd)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 1.0
    assert verdict(1, "jacobian bilinear form vs finite differences", ok,
                   f"worst rel err {worst:.2e}, {elapsed:.2f}s"), (worst, elapsed)


def test_criterion_2_corner_minimum_equals_cell_minimum():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    u = np.linspace(0.0, 1.0, 50)
    uu, vv = np.meshgrid(u, u)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(4, 7))
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, k, k)
        dmap = DeformationMap(grid, wobbled_coef(grid, rng, wobble=0.8))
        cv = corner_values(grid, dmap.coef)
        for ci in range(k - 1):
            for cj in range(k - 1):
                dense_min = float(cell_jacobian(dmap, ci, cj, uu, vv).min())
                worst = max(worst, abs(dense_min - cv[ci, cj].min()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    assert verdict(2, "per-cell 50x50 minimum equals 4-corner minimum", ok,
                   f"worst gap {worst:.2e}, {elapsed:.2f}s"), (worst, elapsed)


def test_criterion_3_constraints_prevent_folding():
    grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
    folded = identity_coef(grid)
    t1 = folded.theta1.copy()
    t1[1, 1] = t1[2, 1] + 0.15
    t1[2, 2] = t1[1, 2] - 0.1
    folded = CoefPair(t1, folded.theta2)
    g = np.linspace(0.0, 1.0, 9)
    xx, yy = np.meshgrid(g, g)
    sites = np.column_stack([xx.ravel(), yy.ravel()])
    targets = eval_map_points(DeformationMap(grid, folded), sites)

    unc = unconstrained_bspline_fit(grid, sites, targets)
    mj_unc = min_jacobian(DeformationMap(grid, unc))
    con = fit_bspline_constrained(grid, sites, targets, epsilon=EPS)
    mj_con = min_jacobian(DeformationMap(grid, con))
    ok = mj_unc < 0.0 and mj_con >= EPS - 1e-9
    assert verdict(3, "constrained fit never folds where plain LS folds", ok,
                   f"unconstrained min|J| {mj_unc:.3f}, constrained {mj_con:.4f}"), \
        (mj_unc, mj_con)


@pytest.fixture(scope="module")
def study_fits():
    """10 seeds x K in (4, 6, 8) on the simulation-study setup."""
    sites = study_sites()
    ctrue = covariance_matrix(sites, SWIRL, COV_TRUE)
    iu = np.triu_indices(len(sites), k=1)
    rows = {}
    for seed in SEEDS:
        z = simulate_grf(sites, SWIRL, COV_TRUE, t=100, seed=seed)
        ds = Dataset(sites, z)
        for k in (4, 6, 8):
            model = fit(ds, FitConfig(k1=k, k2=k))
            cest = covariance_matrix(sites, model.mapping(), model.cov)
            te, ee = ctrue[iu], cest[iu]
            rows[(seed, k)] = {
                "slope": float(np.cov(te, ee)[0, 1] / np.var(te)),
                "corr": float(np.corrcoef(te, ee)[0, 1]),
                "mse": float(np.mean((te - ee) ** 2)),
                "min_jac": min_jacobian(model.mapping()),
            }
    return rows


def test_criterion_4_simulation_study_replication(study_fits):
    good = 0
    details = []
    for seed in SEEDS:
        r = study_fits[(seed, 8)]
        ok = 0.8 <= r["slope"] <= 1.2 and r["corr"] >= 0.9 and r["min_jac"] > 0
        good += ok
        details.append(f"seed {seed}: slope {r['slope']:.2f} corr {r['corr']:.3f} "
                       f"min|J| {r['min_jac']:.3g} {'ok' if ok else 'BAD'}")
    ok = good >= 8
    assert verdict(4, "K=8 swirl study: slope/corr/non-folding in >= 8/10 seeds", ok,
                   f"{good}/10 seeds pass"), "\n".join(details)


def test_criterion_5_capacity_trend(study_fits):
    means = {k: float(np.mean([study_fits[(s, k)]["mse"] for s in SEEDS]))
             for k in (4, 6, 8)}
    gaps = [(means[6] - means[4]) / means[4], (means[8] - means[6]) / means[6]]
    violations = [g for g in gaps if g > 0]
    ok = len(violations) == 0 or (len(violations) == 1 and violations[0] <= 0.05)
    detail = (f"mean MSE K=4 {means[4]:.5f}, K=6 {means[6]:.5f}, K=8 {means[8]:.5f}; "
              f"adjacent changes {gaps[0]:+.1%}, {gaps[1]:+.1%}")
    assert verdict(5, "covariance MSE nonincreasing in K", ok, detail), detail


def test_criterion_6_stationary_sanity():
    sites = study_sites()
    z = simulate_grf(sites, IdentityMap(), COV_TRUE, t=400, seed=11)
    model = fit(Dataset(sites, z), FitConfig(k1=8, k2=8))
    fitted = model.mapping()(sites)
    p = np.column_stack([np.ones(len(sites)), sites])
    beta, *_ = np.linalg.lstsq(p, fitted, rcond=None)
    rms = float(np.sqrt(np.mean(np.sum((fitted - p @ beta) ** 2, axis=1))))
    errs = {
        "sigma2": abs(model.cov.sigma2 - 1.0) / 1.0,
        "phi": abs(model.cov.phi - 0.25) / 0.25,
        "nugget": abs(model.cov.nugget - 1.0) / 1.0,
    }
    ok = rms < 0.1 and all(v < 0.25 for v in errs.values())
    assert verdict(6, "identity truth: near-affine map, params within 25%", ok,
                   f"rms-from-affine {rms:.3f}, rel errs " +
                   ", ".join(f"{k} {v:.1%}" for k, v in errs.items())), (rms, errs)


def test_criterion_7_coordinate_loop_recovery():
    rng = np.random.default_rng(107)
    sites = rng.uniform(0.0, 1.0, (30, 2))
    truth = VariogramModel(nugget=1e-9, psill=2.0, range_=0.6)
    d2 = truth(squareform(pdist(sites)))
    np.fill_diagonal(d2, 0.0)
    disp = DispersionMatrix(d2)
    start = time.perf_counter()
    config = sg_initialize(disp, sites, make_tps_smoother(1e-8), max_iter=20)
    elapsed = time.perf_counter() - start
    t = procrustes(config.points, sites, scale=True, allow_reflection=True)
    rms = float(np.sqrt(np.mean(np.sum((t.apply(config.points) - sites) ** 2, axis=1))))
    stress = configuration_stress(disp, config)
    ok = rms < 1e-2 and stress < 1e-4 and elapsed < 5.0
    assert verdict(7, "noiseless dispersions: configuration recovered", ok,
                   f"rms {rms:.2e}, stress {stress:.2e}, {elapsed:.2f}s"), \
        (rms, stress, elapsed)


def test_criterion_8_kriging_correctness():
    from spatdeform.estimation import DeformModel, FitDiagnostics

    rng = np.random.default_rng(108)
    grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
    coef = identity_coef(grid)

    # dense conditional-Gaussian oracle, n=5 data sites, m=3 targets
    cov = CovParams(1.2, 0.35, 0.4)
    model = DeformModel(grid, coef, cov, mean=1.3, diagnostics=FitDiagnostics())
    sites = rng.uniform(0.1, 0.9, (5, 2))
    pred = rng.uniform(0.1, 0.9, (3, 2))
    values = rng.normal(size=5)
    c11 = cov.sigma2 * np.exp(-cdist(sites, sites) / cov.phi) + cov.nugget * np.eye(5)
    c12 = cov.sigma2 * np.exp(-cdist(sites, pred) / cov.phi)
    c22 = cov.sigma2 * np.exp(-cdist(pred, pred) / cov.phi) + cov.nugget * np.eye(3)
    cinv = np.linalg.inv(c11)
    mu = 1.3 + c12.T @ cinv @ (values - 1.3)
    sig = np.diag(c22 - c12.T @ cinv @ c12)
    res = KrigingSystem(model, sites, values, pred).krige()
    oracle_ok = (np.abs(res.mean - mu).max() < 1e-8
                 and np.abs(res.variance - sig).max() < 1e-8)

    # exact interpolation with zero nugget
    cov0 = CovParams(1.0, 0.3, 0.0)
    model0 = DeformModel(grid, coef, cov0, mean=0.0, diagnostics=FitDiagnostics())
    sites0 = rng.uniform(0.1, 0.9, (8, 2))
    vals0 = rng.normal(size=8)
    res0 = KrigingSystem(model0, sites0, vals0, sites0).krige()
    interp_ok = (np.abs(res0.mean - vals0).max() < 1e-8
                 and np.abs(res0.variance).max() < 1e-8)

    # variance bounds at 1000 random prediction sites
    sites1 = rng.uniform(0.0, 1.0, (15, 2))
    vals1 = rng.normal(size=15)
    pred1 = rng.uniform(0.0, 1.0, (1000, 2))
    res1 = KrigingSystem(model, sites1, vals1, pred1).krige()
    bounds_ok = bool(
        np.all(res1.variance >= 0.0)
        and np.all(res1.variance <= cov.sigma2 + cov.nugget + 1e-12)
    )

    ok = oracle_ok and interp_ok and bounds_ok
    assert verdict(8, "kriging oracle, interpolation, variance bounds", ok,
                   f"oracle {oracle_ok}, interpolation {interp_ok}, bounds {bounds_ok}")


def test_criterion_9_gauge_invariance():
    rng = np.random.default_rng(109)
    grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 5, 5)
    base = identity_coef(grid)
    coef = CoefPair(
        1.8 * (base.theta1 + 0.08 * rng.uniform(-1, 1, (5, 5))) + 2.0,
        1.8 * (base.theta2 + 0.08 * rng.uniform(-1, 1, (5, 5))) - 1.0,
    )
    g = np.linspace(0.0, 1.0, 6)
    xx, yy = np.meshgrid(g, g)
    sites = np.column_stack([xx.ravel(), yy.ravel()])
    cov = CovParams(1.0, 0.7, 0.3)
    before = covariance_matrix(sites, DeformationMap(grid, coef), cov)
    dmap, t = normalize_gauge(DeformationMap(grid, coef), sites)
    after = covariance_matrix(sites, dmap, CovParams(cov.sigma2, cov.phi * t.scale, cov.nugget))
    gap = float(np.abs(before - after).max())
    ok = gap < 1e-10
    assert verdict(9, "covariance invariant under gauge normalization", ok,
                   f"max elementwise gap {gap:.2e}"), gap


def test_criterion_10_workflow_smoke(tmp_path):
    rng = np.random.default_rng(110)
    sites = rng.uniform(0.0, 1.0, (50, 2))
    z = simulate_grf(sites, SWIRL, COV_TRUE, t=9, seed=12)
    ids = [f"st{i:02d}" for i in range(50)]
    times = [f"p{j}" for j in range(9)]
    data_csv = tmp_path / "rain.csv"
    modelio.write_long_csv(data_csv, sites, ids, times, z)

    ds = modelio.ingest(data_csv)
    ingest_ok = ds.n == 50 and ds.t == 9

    model_path = tmp_path / "model.json"
    rc = main(["estimate", "--data", str(data_csv), "--k", "4",
               "--out", str(model_path)])
    model = modelio.load_model(model_path)
    roundtrip = tmp_path / "model2.json"
    modelio.save_model(model, roundtrip)
    estimate_ok = (rc == 0 and min_jacobian(model.mapping()) >= EPS
                   and model_path.read_text() == roundtrip.read_text())

    grid_csv = tmp_path / "grid.csv"
    g1 = np.linspace(model.grid.x1_min, model.grid.x1_max, 10)
    g2 = np.linspace(model.grid.x2_min, model.grid.x2_max, 10)
    with grid_csv.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2"])
        for a in g1:
            for b in g2:
                writer.writerow([a, b])
    pred_csv = tmp_path / "pred.csv"
    rc2 = main(["predict", "--model", str(model_path), "--data", str(data_csv),
                "--grid", str(grid_csv), "--time", "p0", "--out", str(pred_csv)])
    lines = pred_csv.read_text().splitlines()
    predict_ok = rc2 == 0 and len(lines) == 1 + 100

    ok = ingest_ok and estimate_ok and predict_ok
    assert verdict(10, "50-station 9-period workflow end to end", ok,
                   f"ingest {ingest_ok}, estimate+roundtrip {estimate_ok}, "
                   f"predict {predict_ok}")


def test_replicate_count_sensitivity_report():
    """Not a criterion: the replicate count is unreported in the source
    material, so record how the K=8 study metrics move with T."""
    sites = study_sites()
    ctrue = covariance_matrix(sites, SWIRL, COV_TRUE)
    iu = np.triu_indices(len(sites), k=1)
    print("replicate-count sensitivity (seed 1, K=8):")
    for t in (25, 100, 400):
        z = simulate_grf(sites, SWIRL, COV_TRUE, t=t, seed=1)
        model = fit(Dataset(sites, z), FitConfig(k1=8, k2=8))
        cest = covariance_matrix(sites, model.mapping(), model.cov)
        te, ee = ctrue[iu], cest[iu]
        slope = float(np.cov(te, ee)[0, 1] / np.var(te))
        corr = float(np.corrcoef(te, ee)[0, 1])
        mse = float(np.mean((te - ee) ** 2))
        print(f"  T={t:4d}: slope {slope:.3f} corr {corr:.3f} mse {mse:.5f}")
