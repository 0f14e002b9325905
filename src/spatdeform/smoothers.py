"""Coordinate smoothers.

Two ways to turn noisy target coordinates into a smooth deformation:
the classical thin-plate spline (used as the comparison baseline) and a
tensor-product B-spline least-squares fit with explicit non-folding
corner constraints.  The constrained fit is a convex quadratic in the
2 K1 K2 coefficients under 4 (K1-1)(K2-1) bilinear corner constraints;
it is solved by a dense primal-dual interior-point Newton method (Boyd
& Vandenberghe 2004, ch. 11; Nocedal & Wright 2006, ch. 19) from a
strictly interior blend of the unconstrained optimum and an affine map.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import cho_factor, cho_solve, lapack
from scipy.optimize import brentq
from scipy.spatial.distance import cdist

from .basis import KnotGrid, design_matrix, difference_penalty
from .deformation import (
    CoefPair,
    _corner_tables,
    _corner_values_and_jac,
    affine_coef,
    coef_to_vec,
    corner_values,
    default_epsilon,
    vec_to_coef,
)
from .errors import FitError, InfeasibilityError

__all__ = [
    "TpsModel",
    "fit_tps",
    "tps_effective_dof",
    "tps_lambda_for_dof",
    "make_tps_smoother",
    "unconstrained_bspline_fit",
    "fit_bspline_constrained",
]


# ---------------------------------------------------------------------------
# thin-plate splines


def _tps_kernel(r: np.ndarray) -> np.ndarray:
    """r^2 log r with the removable singularity at 0 filled in."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(r > 0, r * r * np.log(np.where(r > 0, r, 1.0)), 0.0)
    return out


@dataclass(frozen=True)
class TpsModel:
    """Fitted thin-plate spline map (affine part + radial coefficients)."""

    centers: np.ndarray
    alpha: np.ndarray  # (3, 2): intercept, x1, x2 per output dimension
    theta: np.ndarray  # (n, 2) radial coefficients per output dimension
    lam: float

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        k = _tps_kernel(cdist(pts, self.centers))
        p = np.column_stack([np.ones(len(pts)), pts])
        return p @ self.alpha + k @ self.theta


def _tps_null_blocks(sites: np.ndarray):
    """Kernel matrix, affine design and its orthonormal null basis.

    Writing the radial coefficients as theta = Z w enforces the side
    conditions P' theta = 0 exactly and turns the smoothing system into
    the SPD problem (Z'KZ + n lam I) w = Z' y, well conditioned for any
    lam >= 0.
    """
    n = sites.shape[0]
    r = cdist(sites, sites)
    if np.min(r + np.diag(np.full(n, np.inf))) == 0.0:
        raise FitError("thin-plate spline sites must be distinct")
    k = _tps_kernel(r)
    p = np.column_stack([np.ones(n), sites])
    sv = np.linalg.svd(p, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise FitError("thin-plate spline needs non-collinear sites")
    q, _ = np.linalg.qr(p, mode="complete")
    z = q[:, 3:]
    return k, p, z, z.T @ k @ z


def fit_tps(sites, targets, lam: float) -> TpsModel:
    """Solve the thin-plate smoothing system for a 2-output map.

    lam = 0 interpolates; large lam approaches the affine least-squares
    fit.  Collinear or duplicated sites make the system singular and
    raise FitError.
    """
    sites = np.asarray(sites, dtype=float)
    targets = np.asarray(targets, dtype=float)
    n = sites.shape[0]
    if n < 3:
        raise FitError(f"thin-plate spline needs >= 3 sites, got {n}")
    if lam < 0:
        raise ValueError(f"smoothing parameter must be >= 0, got {lam}")
    if targets.shape != (n, 2):
        raise ValueError(f"targets must be ({n}, 2), got {targets.shape}")
    k, p, z, kz = _tps_null_blocks(sites)
    m = kz + n * lam * np.eye(n - 3)
    try:
        w = scipy.linalg.solve(m, z.T @ targets, assume_a="pos")
    except scipy.linalg.LinAlgError as e:
        raise FitError(f"singular thin-plate system (duplicate sites?): {e}") from None
    theta = z @ w
    alpha, *_ = np.linalg.lstsq(p, targets - k @ theta, rcond=None)
    return TpsModel(centers=sites, alpha=alpha, theta=theta, lam=lam)


def _tps_spectrum(sites) -> np.ndarray:
    _, _, _, kz = _tps_null_blocks(np.asarray(sites, dtype=float))
    return np.clip(np.linalg.eigvalsh(0.5 * (kz + kz.T)), 0.0, None)


def _tps_dof(mu: np.ndarray, n_lam: float) -> float:
    return 3.0 + float(np.sum(mu / (mu + n_lam)))


def tps_effective_dof(sites, lam: float) -> float:
    """Trace of the smoother matrix mapping targets to fitted values.

    Equals 3 (the unpenalized affine part) plus sum mu_i/(mu_i + n lam)
    over the spectrum of the projected kernel, so it decreases from n
    at lam = 0 toward 3.
    """
    mu, n = _tps_spectrum(sites), len(sites)
    return float(n) if lam == 0.0 else _tps_dof(mu, n * lam)


def tps_lambda_for_dof(sites, dof: float, lo: float = 1e-14, hi: float = 1e14) -> float:
    """Smoothing parameter whose effective dof matches the target
    (monotone bisection on log lambda)."""
    sites = np.asarray(sites, dtype=float)
    n = sites.shape[0]
    if not 3.0 < dof < n:
        raise ValueError(f"target dof must lie in (3, {n}), got {dof}")
    mu = _tps_spectrum(sites)
    return 10.0 ** brentq(lambda loglam: _tps_dof(mu, n * 10.0**loglam) - dof,
                          np.log10(lo), np.log10(hi), xtol=1e-13)


def make_tps_smoother(lam: float):
    """Coordinate smoother: fit a TPS to the targets, return its fitted
    values at the sites."""

    def smoother(sites, targets):
        return fit_tps(sites, targets, lam)(sites)

    return smoother


# ---------------------------------------------------------------------------
# constrained tensor-product B-spline fit


# a rank-deficient design's Gram matrix gains kappa S, the second-difference
# penalty weighted by kappa = ROUGHNESS_WEIGHT tr(W'W) / tr(S)
ROUGHNESS_WEIGHT = 1e-6


def _nonsingular(gram) -> bool:
    """Whether the Cholesky factorization of ``gram`` succeeds with a
    reciprocal condition number above the unit roundoff.

    The condition test catches the exactly singular Gram matrices whose
    factorization rounding lets through, such as those of collinear
    sites.
    """
    chol, info = lapack.dpotrf(gram)
    return info == 0 and lapack.dpocon(chol, np.linalg.norm(gram, 1))[0] > np.finfo(float).eps


def _normal_equations(grid: KnotGrid, sites, targets):
    """Gram matrix W'W and right-hand sides W' targets.

    A nonsingular W'W is returned as it is.  A singular one (some basis
    function has no site in its support, as in an irregular network
    with empty knot cells) gains kappa S, with S the second-difference
    penalty of ``difference_penalty``: the coefficients of empty cells
    then follow their neighbours, and affine maps stay unpenalized.
    Raises FitError when W'W + kappa S is still singular, for example
    for collinear sites or when S is zero (two knots on both axes).
    """
    w = design_matrix(grid, sites)
    # C order: the product of the sparse factors converts to Fortran order
    gram = np.ascontiguousarray((w.T @ w).toarray())
    rhs = np.asarray(w.T @ targets)
    if _nonsingular(gram):
        return gram, rhs
    s = difference_penalty(grid)
    if s.any():
        gram += (ROUGHNESS_WEIGHT * np.trace(gram) / np.trace(s)) * s
        if _nonsingular(gram):
            return gram, rhs
    raise FitError(
        f"rank-deficient design ({gram.shape[0]} coefficients, {len(sites)} sites): "
        "the sites do not determine the map even with the roughness penalty"
    )


def unconstrained_bspline_fit(grid: KnotGrid, sites, targets) -> CoefPair:
    """Least-squares coefficient fit, roughness-regularized on a
    rank-deficient design (see ``_normal_equations``)."""
    g, rhs = _normal_equations(grid, sites, np.asarray(targets, dtype=float))
    sol = scipy.linalg.solve(g, rhs, assume_a="pos")
    return vec_to_coef(grid, sol.T.ravel())


def _feasible_start(grid, sites, targets, epsilon) -> CoefPair:
    """A coefficient pair strictly clearing every corner constraint.

    Tries the affine least-squares fit of the targets, then a
    similarity (proper rotation + scale) fit, then the identity map
    recentered on the targets.  Affine maps have constant |J|, so
    feasibility is a single determinant check.
    """
    sites = np.asarray(sites, dtype=float)
    targets = np.asarray(targets, dtype=float)
    candidates = []
    p = np.column_stack([np.ones(len(sites)), sites])
    beta, *_ = np.linalg.lstsq(p, targets, rcond=None)
    candidates.append(affine_coef(grid, beta))

    from .scaling import procrustes

    try:
        t = procrustes(sites, targets, scale=True, allow_reflection=False)
        beta_sim = np.vstack([t.shift, t.scale * t.rotation.T])
        candidates.append(affine_coef(grid, beta_sim))
    except FitError:
        pass

    center_shift = targets.mean(axis=0) - sites.mean(axis=0)
    candidates.append(affine_coef(grid, np.vstack([center_shift, np.eye(2)])))

    for cand in candidates:
        if corner_values(grid, cand).min() > epsilon:
            return cand
    raise InfeasibilityError(
        f"no feasible starting coefficients: every affine candidate has "
        f"Jacobian at or below the margin {epsilon}"
    )


# the interior-point solve starts where every corner keeps at least this
# fraction of the affine start's slack |J| - epsilon
START_SLACK_FRACTION = 0.1
# a step may use up at most this fraction of any corner's slack
BOUNDARY_FRACTION = 0.995
# the barrier weight falls by this factor once its subproblem is solved
BARRIER_DECREASE = 0.1
# the solve stops at the barrier weight whose duality gap (weight times
# the number of corners) is this fraction of what the start can gain:
# its objective less the unconstrained minimum
GAP_TOLERANCE = 1e-8


def _boundary_step(slack, slope, curvature) -> float:
    """Largest step in (0, 1] that uses up at most BOUNDARY_FRACTION of
    any slack.

    Along a direction each corner slack is quadratic in the step length
    a: slack + a slope + a^2 curvature.  The bound is its least positive
    crossing of (1 - BOUNDARY_FRACTION) slack, from the root formula
    that does not cancel.
    """
    c = BOUNDARY_FRACTION * slack
    disc = slope * slope - 4.0 * curvature * c
    den = -slope + np.sqrt(np.maximum(disc, 0.0))
    hits = (disc >= 0.0) & (den > 0.0)
    return min(1.0, float(np.min(2.0 * c[hits] / den[hits]))) if hits.any() else 1.0


def _interior_point_ls(grid: KnotGrid, gmat, cvec, y_norm2, z_unc, z0, epsilon,
                       max_iter) -> np.ndarray:
    """Primal-dual interior-point Newton on the non-folding least squares.

    Minimizes f(z) = sum_k (v_k' G v_k - 2 c_k' v_k) + |y|^2 over the
    stacked coefficients z = (v_1, v_2) subject to every corner value
    |J|(z) > epsilon, from the strictly interior point ``z0``.  Each
    Newton step solves (H_L + J' diag(lam / s) J) dz = -grad of the
    barrier f - mu sum log s, with s the corner slacks, J their Jacobian
    and H_L the Hessian of the Lagrangian: the objective's 2 G blocks
    less the dual-weighted constant Hessians of the bilinear corner
    values.  A diagonal shift is added while Cholesky fails.  The step
    length is the exact fraction-to-boundary bound, backtracked on the
    barrier merit; mu falls by BARRIER_DECREASE whenever the Newton
    decrement drops below it.  Warns on every exit that misses the
    stopping test, and never returns a point with a higher objective
    than ``z0``.
    """
    m = grid.k1 * grid.k2
    tables = _corner_tables(grid)
    n_con = tables["u_hi"].size
    scale = 1.0 / (grid.tau1 * grid.tau2)
    # corner value i is scale * ((a_i v1)(b_i v2) - (b_i v1)(a_i v2))
    rows = np.arange(n_con)
    a = np.zeros((n_con, m))
    b = np.zeros((n_con, m))
    a[rows, tables["u_hi"]], a[rows, tables["u_lo"]] = 1.0, -1.0
    b[rows, tables["v_hi"]], b[rows, tables["v_lo"]] = 1.0, -1.0

    def objective(z):
        v = z.reshape(2, m)
        return float(np.einsum("im,mk,ik->", v, gmat, v) - 2.0 * np.sum(v * cvec.T)) + y_norm2

    def corners(z):
        return _corner_values_and_jac(grid, z, tables, want_jac=False)[0]

    def merit(z, mu):
        s = corners(z) - epsilon
        return objective(z) - mu * float(np.sum(np.log(s))) if s.min() > 0 else np.inf

    gain = objective(z0) - objective(z_unc)
    mu, mu_min = BARRIER_DECREASE * gain / n_con, GAP_TOLERANCE * gain / n_con
    z = z0
    lam = mu / (corners(z) - epsilon)
    failure = f"stopped at the iteration limit ({max_iter})"
    for it in range(1, max_iter + 1):
        vals, jac = _corner_values_and_jac(grid, z, tables)
        s = vals - epsilon
        cross = scale * (a.T @ (lam[:, None] * b) - b.T @ (lam[:, None] * a))
        hess = jac.T @ ((lam / s)[:, None] * jac)
        hess[:m, :m] += 2.0 * gmat
        hess[m:, m:] += 2.0 * gmat
        hess[:m, m:] -= cross
        hess[m:, :m] += cross
        shift = 0.0
        while True:
            try:
                factor = cho_factor(hess + shift * np.eye(2 * m), lower=True)
                break
            except np.linalg.LinAlgError:
                shift = max(4.0 * shift, 1e-10 * np.abs(np.diag(hess)).max())
        grad_f = (2.0 * (z.reshape(2, m) @ gmat) - 2.0 * cvec.T).ravel()
        while True:
            grad = grad_f - jac.T @ (mu / s)
            dz = -cho_solve(factor, grad)
            decrement = -float(grad @ dz)
            if decrement > mu or mu <= mu_min:
                break
            mu = max(BARRIER_DECREASE * mu, mu_min)
        if decrement <= mu:
            failure = None
            break
        slope = jac @ dz
        alpha = _boundary_step(s, slope, corners(dz))
        phi = merit(z, mu)
        while alpha >= 1e-12 and merit(z + alpha * dz, mu) > phi - 1e-4 * alpha * decrement:
            alpha *= 0.5
        if alpha < 1e-12:
            failure = f"line search failed after {it} iterations"
            break
        dlam = mu / s - lam - (lam / s) * slope
        shrink = dlam < 0
        dual_step = min(1.0, float(np.min(-BOUNDARY_FRACTION * lam[shrink] / dlam[shrink]))
                        ) if shrink.any() else 1.0
        z = z + alpha * dz
        s = corners(z) - epsilon
        # keep each multiplier within a wide band around mu / s
        lam = np.clip(lam + dual_step * dlam, 1e-10 * mu / s, 1e10 * mu / s)
    if failure is not None:
        warnings.warn(
            f"constrained fit: {failure} at barrier weight {mu:.3g}; "
            "returning the last iterate",
            RuntimeWarning, stacklevel=3,
        )
    return z if objective(z) <= objective(z0) else z0


def fit_bspline_constrained(
    grid: KnotGrid,
    sites,
    targets,
    epsilon: float | None = None,
    max_iter: int = 300,
) -> CoefPair:
    """Least-squares coefficient fit subject to non-folding constraints.

    Minimizes the squared residual of the mapped sites against the
    targets subject to every corner Jacobian being at least ``epsilon``.
    When the unconstrained optimum already satisfies the constraints it
    is returned directly.
    Otherwise a primal-dual interior-point Newton solve
    (``_interior_point_ls``) starts from the blend of the unconstrained
    optimum and the affine feasible start (``_feasible_start``) nearest
    the optimum that keeps START_SLACK_FRACTION of the start's slack.
    The result is strictly feasible, its objective is no higher than the
    feasible start's, and the returned pair is validated.  A
    rank-deficient design is regularized as in ``_normal_equations``.
    """
    sites = np.asarray(sites, dtype=float)
    targets = np.asarray(targets, dtype=float)
    n = sites.shape[0]
    if targets.shape != (n, 2):
        raise ValueError(f"targets must be ({n}, 2), got {targets.shape}")
    if epsilon is None:
        epsilon = default_epsilon(grid)

    unconstrained = unconstrained_bspline_fit(grid, sites, targets)
    if corner_values(grid, unconstrained).min() >= epsilon:
        return CoefPair(unconstrained.theta1, unconstrained.theta2, validated=True)

    gmat, cvec = _normal_equations(grid, sites, targets)
    start = _feasible_start(grid, sites, targets, epsilon)
    start_slack = corner_values(grid, start).min() - epsilon

    # pull the unconstrained optimum toward the feasible start until every
    # corner keeps a fraction of the start's slack
    z_unc, z_start = coef_to_vec(unconstrained), coef_to_vec(start)
    for t in np.geomspace(1e-4, 1.0, 30):
        z0 = (1.0 - t) * z_unc + t * z_start
        slack = corner_values(grid, vec_to_coef(grid, z0)).min() - epsilon
        if slack >= START_SLACK_FRACTION * start_slack:
            break
    z = _interior_point_ls(grid, gmat, cvec, float(np.sum(targets**2)), z_unc, z0,
                           epsilon, max_iter)
    return vec_to_coef(grid, z, validated=True)
