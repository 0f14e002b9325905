"""Command-line front end.

Four subcommands: ``simulate`` draws replicates from a known deformed
field and writes the truth sidecar, ``estimate`` fits a model to a long
CSV, ``predict`` writes Kriging surfaces (optionally with conditional
draws), and ``compare`` runs the simulation-study harness pitting the
constrained B-spline estimator against the thin-plate-spline baseline
at K^2 effective degrees of freedom.

Exit codes: 0 success, 2 data error, 3 numerical error, 4 constraint
infeasibility.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist, pdist

from . import modelio
from .covariance import (
    CovParams,
    covariance_matrix,
    exp_covariance,
    fit_variogram,
    sample_dispersions,
)
from .deformation import min_jacobian
from .errors import (
    DataError,
    DomainError,
    FitError,
    InfeasibilityError,
    NumericalError,
)
from .estimation import Dataset, FitConfig, fit
# krige is bound here only for bench/test_bench.py, which reads cli.krige
from .fields import KrigingSystem, Swirl, krige, simulate_grf  # noqa: F401
from .scaling import sg_initialize
from .smoothers import fit_tps, make_tps_smoother, tps_effective_dof, tps_lambda_for_dof

# simulation-study defaults: 11 x 11 unit grid, unit sill and nugget,
# quarter-unit range, vortex deformation; compare's fits use the FitConfig
# defaults
HARNESS_DEFAULTS = {
    "grid_n": 11,
    "sigma2": 1.0,
    "phi": 0.25,
    "nugget": 1.0,
    "swirl_strength": 1.5,
    "swirl_radius": 0.35,
    "t": 100,
    "seed": 1,
    "epsilon": None,
    "tol": 1e-6,
    "max_outer": 10,
}
COMPARE_K = (4, 6, 8)
# published smoothing parameters quoted for reference next to the
# dof-matched ones
REFERENCE_LAMBDA = {4: 30.0, 6: 7.5, 8: 3.2}
SCATTER_COLUMNS = ["true_cov", "estimated_cov"]


def _simulate_payload(args):
    """Config (defaults filled in), output directory and simulated
    replicates of a harness run."""
    cfg = {**HARNESS_DEFAULTS, **modelio.read_config(args.config)}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    g = np.linspace(0.0, 1.0, cfg["grid_n"])
    xx, yy = np.meshgrid(g, g, indexing="ij")
    sites = np.column_stack([xx.ravel(), yy.ravel()])
    truth = Swirl(center=(0.5, 0.5), strength=cfg["swirl_strength"], radius=cfg["swirl_radius"])
    cov = CovParams(sigma2=cfg["sigma2"], phi=cfg["phi"], nugget=cfg["nugget"])
    seed = args.seed if args.seed is not None else cfg["seed"]
    z = simulate_grf(sites, truth, cov, t=cfg["t"], seed=seed)
    ids = [f"s{i:03d}" for i in range(len(sites))]
    times = [f"t{j:03d}" for j in range(cfg["t"])]
    return cfg, out, sites, truth, cov, z, ids, times


def cmd_simulate(args) -> None:
    _, out, sites, truth, cov, z, ids, times = _simulate_payload(args)

    modelio.write_long_csv(out / "data.csv", sites, ids, times, z)
    modelio.write_map_csv(out / "truth_map.csv", sites, truth(sites))
    ctrue = covariance_matrix(sites, truth, cov)
    _write_pairs(out / "truth_cov.csv", ["cov"], ids, ctrue)
    print(f"wrote {out/'data.csv'} ({len(sites)} stations x {z.shape[1]} periods), "
          f"truth_map.csv, truth_cov.csv")


def cmd_estimate(args) -> None:
    config = FitConfig(
        k1=args.k,
        k2=args.k,
        epsilon=args.epsilon,
        tol=args.tol if args.tol is not None else 1e-6,
    )
    dataset = modelio.ingest(args.data)
    if dataset.dropped_ids:
        print(f"dropped {len(dataset.dropped_ids)} incomplete stations: "
              f"{', '.join(dataset.dropped_ids)}")
    model = fit(dataset, config)
    out = Path(args.out)
    modelio.save_model(model, out)
    grid_csv = out.with_name(out.stem + "_deformed_grid.csv")
    modelio.write_deformed_grid_csv(grid_csv, model.mapping())
    d = model.diagnostics
    print(f"fit {dataset.n} stations x {dataset.t} periods with "
          f"K={args.k}x{args.k}: loglik {d.loglik[-1]:.3f} after {d.iterations} "
          f"iterations (converged: {d.converged}), constraint margin {d.margins[-1]:.3g}")
    print(f"wrote {out} and {grid_csv}")


def cmd_predict(args) -> None:
    if args.draws < 0:
        raise DataError(f"--draws must be >= 0, got {args.draws}")
    model = modelio.load_model(args.model)
    dataset = modelio.ingest(args.data)
    pred_sites = modelio.read_grid_csv(args.grid)
    if args.time not in dataset.times:
        raise DataError(f"time label {args.time!r} not in the data "
                        f"(available: {', '.join(dataset.times)})")
    values = dataset.replicates[:, dataset.times.index(args.time)]
    # the prediction and the draws share one kriging system
    system = KrigingSystem(model, dataset.sites, values, pred_sites)
    result = system.krige()
    out = Path(args.out)
    modelio.write_prediction_csv(out, pred_sites, result.mean, result.variance)
    print(f"wrote {out} ({len(pred_sites)} prediction sites, period {args.time})")
    if args.draws > 0:
        draws = system.simulate(args.draws, args.seed)
        draws_csv = out.with_name(out.stem + "_draws.csv")
        modelio.write_array_csv(draws_csv,
                                ["x1", "x2"] + [f"draw{d:03d}" for d in range(args.draws)],
                                np.hstack([pred_sites, draws]))
        print(f"wrote {draws_csv} ({args.draws} conditional draws)")


def _regression_stats(true_vals, est_vals):
    slope = float(np.cov(true_vals, est_vals)[0, 1] / np.var(true_vals))
    intercept = float(np.mean(est_vals) - slope * np.mean(true_vals))
    corr = float(np.corrcoef(true_vals, est_vals)[0, 1])
    mse = float(np.mean((true_vals - est_vals) ** 2))
    return slope, intercept, corr, mse


def _write_pairs(path, columns, ids, *matrices) -> None:
    """One row per station pair i < j, with the pair's entry of each matrix."""
    iu = np.triu_indices(len(ids), k=1)
    modelio.write_csv(path, ["station_i", "station_j", *columns],
                      zip([ids[i] for i in iu[0]], [ids[j] for j in iu[1]],
                          *(a[iu].tolist() for a in matrices)))


def _tps_fold_count(tps, n_side: int = 100) -> int:
    """Count negative finite-difference Jacobians on an interior grid."""
    g = np.linspace(0.005, 0.995, n_side)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    h = 1e-5
    d1 = (tps(pts + [h, 0.0]) - tps(pts - [h, 0.0])) / (2 * h)
    d2 = (tps(pts + [0.0, h]) - tps(pts - [0.0, h])) / (2 * h)
    jac = d1[:, 0] * d2[:, 1] - d2[:, 0] * d1[:, 1]
    return int(np.sum(jac <= 0.0))


def cmd_compare(args) -> None:
    cfg, out, sites, truth, cov_true, z, ids, _ = _simulate_payload(args)
    dataset = Dataset(sites, z, ids=tuple(ids))
    ctrue = covariance_matrix(sites, truth, cov_true)
    iu = np.triu_indices(len(sites), k=1)
    d2 = sample_dispersions(z)
    configs = [FitConfig(k1=k, k2=k, epsilon=cfg["epsilon"], tol=cfg["tol"],
                         max_outer=cfg["max_outer"]) for k in COMPARE_K]
    # each thin-plate baseline matches the dof K^2, which must lie in (3, n)
    n = len(sites)
    if not all(3 < k * k < n for k in COMPARE_K):
        raise DataError(f"grid_n = {cfg['grid_n']} gives {n} sites, but the baselines "
                        f"need 3 < K^2 < {n} for every K in {COMPARE_K}")

    rows = []
    for k, config in zip(COMPARE_K, configs):
        model = fit(dataset, config)
        cest = covariance_matrix(sites, model.mapping(), model.cov)
        _write_pairs(out / f"scatter_bspline_k{k}.csv", SCATTER_COLUMNS, ids, ctrue, cest)
        slope, intercept, corr, mse = _regression_stats(ctrue[iu], cest[iu])
        # effective dof of the penalized fit, per deformed coordinate
        dof = 0.5 * model.diagnostics.effective_dof
        rows.append({
            "method": "bspline", "k": k, "dof": dof, "lambda": "",
            "reference_lambda": "",
            "slope": slope, "intercept": intercept, "correlation": corr, "mse": mse,
            "min_jacobian": min_jacobian(model.mapping()), "jac_negative_count": "",
        })
        print(f"bspline K={k} (effective dof {dof:.1f}): slope {slope:.3f} "
              f"corr {corr:.3f} mse {mse:.5f} min|J| {rows[-1]['min_jacobian']:.4f}")

    for k in COMPARE_K:
        lam = tps_lambda_for_dof(sites, float(k * k))
        dof = tps_effective_dof(sites, lam)
        smoother = make_tps_smoother(lam)
        config0 = sg_initialize(d2, sites, smoother, max_iter=10)
        tps = fit_tps(sites, config0.points, lam)
        coords = tps(sites)
        vario = fit_variogram(pdist(coords), d2.upper())
        est = exp_covariance(cdist(coords, coords), CovParams(0.5 * vario.psill, vario.range_))
        _write_pairs(out / f"scatter_tps_dof{k*k}.csv", SCATTER_COLUMNS, ids, ctrue, est)
        slope, intercept, corr, mse = _regression_stats(ctrue[iu], est[iu])
        folds = _tps_fold_count(tps)
        rows.append({
            "method": "tps", "k": k, "dof": dof, "lambda": lam,
            "reference_lambda": REFERENCE_LAMBDA[k],
            "slope": slope, "intercept": intercept, "correlation": corr, "mse": mse,
            "min_jacobian": "", "jac_negative_count": folds,
        })
        print(f"tps dof={k*k} (lambda {lam:.4g}, published reference "
              f"{REFERENCE_LAMBDA[k]}): slope {slope:.3f} corr {corr:.3f} "
              f"mse {mse:.5f} negative-|J| points {folds}/10000")

    report = out / "report.csv"
    modelio.write_csv(report, list(rows[0]), ([row[f] for f in rows[0]] for row in rows))
    print(f"wrote {report}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatdeform",
        description="Nonstationary spatial covariance estimation through "
                    "non-folding B-spline deformations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def harness(name, help_text, func):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="flat key = value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
        p.set_defaults(func=func)

    harness("simulate", "simulate replicates from a deformed field", cmd_simulate)

    p = sub.add_parser("estimate", help="fit a deformation model to long-format CSV data")
    p.add_argument("--data", required=True, help="observation CSV (station_id,x1,x2,time,value)")
    p.add_argument("--k", type=int, required=True, help="basis count per axis")
    p.add_argument("--epsilon", type=float, default=None, help="corner-constraint margin")
    p.add_argument("--tol", type=float, default=None, help="relative log-likelihood tolerance")
    p.add_argument("--out", required=True, help="output model file (JSON)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("predict", help="krige a fitted model onto a prediction grid")
    p.add_argument("--model", required=True, help="model file written by estimate")
    p.add_argument("--data", required=True, help="observation CSV the model was fitted to")
    p.add_argument("--grid", required=True, help="prediction sites CSV (x1,x2)")
    p.add_argument("--time", required=True, help="time label of the period to predict")
    p.add_argument("--out", required=True, help="output prediction CSV")
    p.add_argument("--draws", type=int, default=0, help="conditional-simulation draws")
    p.add_argument("--seed", type=int, default=0, help="seed for conditional draws")
    p.set_defaults(func=cmd_predict)

    harness("compare", "simulation-study comparison harness", cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (DataError, DomainError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (NumericalError, FitError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    except InfeasibilityError as e:
        print(f"infeasibility: {e}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
