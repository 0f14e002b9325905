"""The benchmark's own view of the program's outputs.

Every formula here is written from the model's definition with dense
numpy linear algebra, apart from the package: the degree-1 tensor
B-spline map and its Jacobian, the replicate log-likelihood through
``slogdet`` and ``solve``, and simple Kriging and its conditional
covariance from the joint Gaussian.  Each ``check_*`` function returns a
list of failure messages, empty when the output passes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# tolerances of the checks
LOGLIK_RTOL = 1e-9          # last diagnostic loglik against slogdet/solve
KRIGE_TOL = 1e-8            # predict mean and variance, relative to max(1, |ref|)
VARIANCE_SLACK = 1e-12      # relative slack on 0 <= variance <= sigma2 + nugget
SLOPE_RANGE = (0.8, 1.2)    # fitted-against-true covariance slope (criterion 4)
MIN_CORR = 0.9              # and correlation
DRAW_SDS = 6.0              # pooled draw statistics within this many standard deviations
DENSE_SIDE = 201            # dense grid for the non-folding check
KRIGE_SAMPLE = 64           # grid points checked per prediction


@dataclass(frozen=True)
class Model:
    """The fields of a model file that the checks use."""

    lo: np.ndarray           # domain lower corner (x1, x2)
    hi: np.ndarray           # domain upper corner
    theta1: np.ndarray       # (k1, k2)
    theta2: np.ndarray
    sigma2: float
    phi: float
    nugget: float
    mean: float
    loglik: float            # last diagnostic log-likelihood

    @property
    def k(self) -> tuple[int, int]:
        return self.theta1.shape

    @property
    def tau(self) -> np.ndarray:
        return (self.hi - self.lo) / (np.array(self.k) - 1)


def read_model(path: Path) -> Model:
    p = json.loads(Path(path).read_text())
    dom, diag = p["domain"], p["diagnostics"]
    return Model(
        lo=np.array([dom["x1_min"], dom["x2_min"]]),
        hi=np.array([dom["x1_max"], dom["x2_max"]]),
        theta1=np.array(p["theta1"], dtype=float),
        theta2=np.array(p["theta2"], dtype=float),
        sigma2=p["sigma2"], phi=p["phi"], nugget=p["nugget"], mean=p["mean"],
        loglik=diag["loglik"][-1],
    )


def read_csv_columns(path: Path) -> tuple[list[str], np.ndarray]:
    with Path(path).open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


# ---------------------------------------------------------------------------
# the map


def _cells(model: Model, points: np.ndarray):
    """Cell indices and local coordinates in [0, 1]; the last cell is closed."""
    t = (np.asarray(points, dtype=float) - model.lo) / model.tau
    k = np.array(model.k)
    cell = np.clip(np.floor(t).astype(int), 0, k - 2)
    return cell, t - cell


def bilinear_map(model: Model, points: np.ndarray) -> np.ndarray:
    (i, j), (u, v) = (c.T for c in _cells(model, points))
    out = []
    for th in (model.theta1, model.theta2):
        out.append((1 - u) * (1 - v) * th[i, j] + u * (1 - v) * th[i + 1, j]
                   + (1 - u) * v * th[i, j + 1] + u * v * th[i + 1, j + 1])
    return np.column_stack(out)


def _jacobian(model: Model, i, j, u, v) -> np.ndarray:
    t1, t2 = model.tau
    grads = []
    for th in (model.theta1, model.theta2):
        d1 = ((1 - v) * (th[i + 1, j] - th[i, j]) + v * (th[i + 1, j + 1] - th[i, j + 1])) / t1
        d2 = ((1 - u) * (th[i, j + 1] - th[i, j]) + u * (th[i + 1, j + 1] - th[i + 1, j])) / t2
        grads.append((d1, d2))
    (p1, p2), (q1, q2) = grads
    return p1 * q2 - p2 * q1


def jacobian_at(model: Model, points: np.ndarray) -> np.ndarray:
    (i, j), (u, v) = (c.T for c in _cells(model, points))
    return _jacobian(model, i, j, u, v)


def corner_jacobians(model: Model) -> np.ndarray:
    """|J| at the 4 corners of every knot cell, each the limit from inside
    its cell (|J| is affine along each axis within a cell, so these bound
    it over the cell)."""
    k1, k2 = model.k
    i, j = (a.ravel() for a in np.meshgrid(np.arange(k1 - 1), np.arange(k2 - 1), indexing="ij"))
    return np.concatenate([_jacobian(model, i, j, np.full(i.shape, u), np.full(i.shape, v))
                           for u in (0.0, 1.0) for v in (0.0, 1.0)])


def min_jacobian(model: Model) -> float:
    """Least |J| over the cell corners and a dense grid of the domain."""
    g1 = np.linspace(model.lo[0], model.hi[0], DENSE_SIDE)
    g2 = np.linspace(model.lo[1], model.hi[1], DENSE_SIDE)
    dense = np.column_stack([a.ravel() for a in np.meshgrid(g1, g2, indexing="ij")])
    return float(min(corner_jacobians(model).min(), jacobian_at(model, dense).min()))


def identity_model(k1: int, k2: int, lo=(0.0, 0.0), hi=(1.0, 1.0)) -> Model:
    """The identity map: each coefficient is its knot's position."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    t1, t2 = np.meshgrid(np.linspace(lo[0], hi[0], k1), np.linspace(lo[1], hi[1], k2),
                         indexing="ij")
    return Model(lo, hi, t1, t2, sigma2=1.0, phi=1.0, nugget=0.0, mean=0.0,
                 loglik=float("nan"))


# ---------------------------------------------------------------------------
# covariance, likelihood and Kriging


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1), 0.0))


def fitted_cov(model: Model, sites: np.ndarray) -> np.ndarray:
    y = bilinear_map(model, sites)
    c = model.sigma2 * np.exp(-distances(y, y) / model.phi)
    c[np.diag_indices_from(c)] += model.nugget
    return c


def loglik(z: np.ndarray, cov: np.ndarray) -> float:
    """Replicate log-likelihood with per-site means removed."""
    zc = z - z.mean(axis=1, keepdims=True)
    n, t = zc.shape
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        return float("-inf")
    quad = float(np.sum(zc * np.linalg.solve(cov, zc)))
    return -0.5 * (n * t * np.log(2.0 * np.pi) + t * logdet + quad)


def cov_regression(truth: np.ndarray, fitted: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope, correlation and MSE of fitted against true
    covariances over all site pairs i < j."""
    iu = np.triu_indices(truth.shape[0], k=1)
    t, f = truth[iu], fitted[iu]
    tc, fc = t - t.mean(), f - f.mean()
    slope = float(np.sum(tc * fc) / np.sum(tc * tc))
    corr = float(np.sum(tc * fc) / np.sqrt(np.sum(tc * tc) * np.sum(fc * fc)))
    return slope, corr, float(np.mean((t - f) ** 2))


def kriging(model: Model, sites, values, points):
    """Simple-Kriging mean and variance with the model mean as known mean;
    the nugget enters the data covariance and the variance, not the
    cross-covariances."""
    ys, yp = bilinear_map(model, sites), bilinear_map(model, points)
    c = fitted_cov(model, sites)
    cross = model.sigma2 * np.exp(-distances(ys, yp) / model.phi)
    solved = np.linalg.solve(c, np.column_stack([values - model.mean, cross]))
    mean = model.mean + cross.T @ solved[:, 0]
    var = model.sigma2 + model.nugget - np.sum(cross * solved[:, 1:], axis=0)
    return mean, var, cross, solved[:, 1:], yp


def conditional_cov(model: Model, sites, values, points) -> np.ndarray:
    _, _, cross, solved, yp = kriging(model, sites, values, points)
    cpp = model.sigma2 * np.exp(-distances(yp, yp) / model.phi)
    cpp[np.diag_indices_from(cpp)] += model.nugget
    return cpp - cross.T @ solved


# ---------------------------------------------------------------------------
# checks


def check_model(model: Model, sites: np.ndarray, z: np.ndarray,
                truth: np.ndarray) -> tuple[list[str], float]:
    """Non-folding, likelihood and covariance-recovery checks of a fit;
    returns the failures and the covariance MSE."""
    bad = []
    mj = min_jacobian(model)
    if not mj > 0:
        bad.append(f"map folds: min |J| {mj:.3g}")
    ll = loglik(z, fitted_cov(model, sites))
    if not abs(ll - model.loglik) <= LOGLIK_RTOL * abs(ll):
        bad.append(f"loglik {model.loglik!r} against {ll!r}")
    slope, corr, mse = cov_regression(truth, fitted_cov(model, sites))
    if not (SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1] and corr >= MIN_CORR):
        bad.append(f"covariance slope {slope:.3f}, correlation {corr:.3f}")
    return bad, mse


def check_prediction(model: Model, sites, values, points, pred_csv: Path,
                     sample: np.ndarray) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Layout, variance range, and mean and variance at ``sample`` (grid
    indices) against the dense Kriging formulas; also returns the
    predicted mean and variance."""
    header, rows = read_csv_columns(pred_csv)
    if header != ["x1", "x2", "mean", "variance"] or rows.shape != (len(points), 4):
        return [f"{pred_csv.name}: unexpected layout {header} {rows.shape}"], None, None
    bad = []
    if not np.array_equal(rows[:, :2], points):
        bad.append(f"{pred_csv.name}: prediction sites differ from the grid")
    mean, var = rows[:, 2], rows[:, 3]
    total = model.sigma2 + model.nugget
    if not (np.all(var >= 0.0) and np.all(var <= total * (1 + VARIANCE_SLACK))):
        bad.append(f"{pred_csv.name}: variance outside [0, {total}]: "
                   f"{var.min()!r} .. {var.max()!r}")
    ref_mean, ref_var, *_ = kriging(model, sites, values, points[sample])
    for name, got, ref in (("mean", mean[sample], ref_mean), ("variance", var[sample], ref_var)):
        err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        if not np.all(err <= KRIGE_TOL):
            bad.append(f"{pred_csv.name}: {name} off by {err.max():.3g} (relative)")
    return bad, mean, var


def draw_tolerances(cond: np.ndarray, n_draws: int) -> tuple[float, float]:
    """Standard deviations of the pooled mean and pooled mean square of
    standardized draws, from the conditional correlation R: the mean has
    variance sum(R) / (D m^2), the mean square 2 sum(R^2) / (D m^2)."""
    s = np.sqrt(np.diag(cond))
    r = cond / np.outer(s, s)
    m = r.shape[0]
    return (float(np.sqrt(r.sum() / (n_draws * m * m))),
            float(np.sqrt(2.0 * np.sum(r * r) / (n_draws * m * m))))


def check_draws(draws_csv: Path, points, mean, var, n_draws: int, cond: np.ndarray) -> list[str]:
    """Finite draws whose values, standardized by the predicted mean and
    variance, have pooled mean 0 and mean square 1 within DRAW_SDS
    standard deviations of those statistics."""
    header, rows = read_csv_columns(draws_csv)
    if len(header) != 2 + n_draws or rows.shape[0] != len(points):
        return [f"{draws_csv.name}: unexpected layout {len(header)} columns, {rows.shape}"]
    if not np.array_equal(rows[:, :2], points):
        return [f"{draws_csv.name}: draw sites differ from the grid"]
    draws = rows[:, 2:]
    if not np.all(np.isfinite(draws)):
        return [f"{draws_csv.name}: non-finite draws"]
    std = (draws - mean[:, None]) / np.sqrt(var)[:, None]
    sd_mean, sd_sq = draw_tolerances(cond, n_draws)
    bad = []
    if not abs(std.mean()) <= DRAW_SDS * sd_mean:
        bad.append(f"{draws_csv.name}: pooled standardized mean {std.mean():.4f} "
                   f"beyond {DRAW_SDS} x {sd_mean:.4f}")
    if not abs(np.mean(std * std) - 1.0) <= DRAW_SDS * sd_sq:
        bad.append(f"{draws_csv.name}: pooled mean square {np.mean(std * std):.4f} "
                   f"beyond 1 +- {DRAW_SDS} x {sd_sq:.4f}")
    return bad
