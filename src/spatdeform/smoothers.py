"""Coordinate smoothers.

Two ways to turn noisy target coordinates into a smooth deformation:
the classical thin-plate spline (used as the comparison baseline) and a
tensor-product B-spline least-squares fit with explicit non-folding
corner constraints.  The constrained fit is a convex quadratic in the
2 K1 K2 coefficients under 4 (K1-1)(K2-1) bilinear corner constraints,
solved from an affine map by ``_interior_point``, a dense primal-dual
interior-point Newton method (Boyd & Vandenberghe 2004, ch. 11; Nocedal
& Wright 2006, ch. 19; Waechter & Biegler 2006) that also runs the
likelihood ascent of ``estimation``, on a Hessian model.
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
    CornerRows,
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


# tps_lambda_for_dof searches lambda within these bounds
LAMBDA_BRACKET = (1e-14, 1e14)


def tps_lambda_for_dof(sites, dof: float) -> float:
    """Smoothing parameter whose effective dof matches the target
    (monotone bisection on log lambda within LAMBDA_BRACKET)."""
    sites = np.asarray(sites, dtype=float)
    n = sites.shape[0]
    if not 3.0 < dof < n:
        raise ValueError(f"target dof must lie in (3, {n}), got {dof}")
    mu = _tps_spectrum(sites)
    return 10.0 ** brentq(lambda loglam: _tps_dof(mu, n * 10.0**loglam) - dof,
                          *np.log10(LAMBDA_BRACKET), xtol=1e-13)


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


# a step may use up at most this fraction of any row's slack
BOUNDARY_FRACTION = 0.995
# the barrier weight starts at this fraction of the predicted gain per
# row, and falls by this factor once its subproblem is solved
BARRIER_DECREASE = 0.1
# the solve stops at the duality gap (weight times rows) that is the
# larger of these fractions of the predicted gain and of 1 + |f(start)|
GAP_TOLERANCE, VALUE_TOLERANCE = 1e-8, 1e-10


def _boundary_step(slack, slope, curvature) -> float:
    """Largest step a in (0, 1] that uses up at most BOUNDARY_FRACTION of any
    slack + a slope + a^2 curvature: its least positive crossing of (1 -
    BOUNDARY_FRACTION) slack, by the root formula that does not cancel."""
    c = BOUNDARY_FRACTION * slack
    disc = slope * slope - 4.0 * curvature * c
    den = -slope + np.sqrt(np.maximum(disc, 0.0))
    hits = (disc >= 0.0) & (den > 0.0)
    return min(1.0, float(np.min(2.0 * c[hits] / den[hits]))) if hits.any() else 1.0


def _shifted_cholesky(mat):
    """Cholesky factor of ``mat`` plus the least diagonal shift that factors."""
    shift = 0.0
    while True:
        try:
            return cho_factor(mat + shift * np.eye(len(mat)), lower=True)
        except np.linalg.LinAlgError:
            shift = max(4.0 * shift, 1e-10 * np.abs(np.diag(mat)).max(), np.finfo(float).tiny)


def _interior_point(grid: KnotGrid, fun, hess, x0, epsilon, max_iter, rate=0.0,
                    spread=None, rows=None, gauge=None, flat=None):
    """Primal-dual interior-point Newton method under the non-folding rows.

    Minimizes f over x (its first 2 K1 K2 entries the coefficients z)
    from the strictly interior ``x0``; ``fun(x)`` gives f and its
    gradient, ``hess(x)`` a model of its Hessian.  The rows kept
    positive are |J|(z) - epsilon - rate z'Qz, Q = I2 kron ``spread``, and
    A x - b, ``rows`` = (A, b); ``gauge`` x = ``gauge`` x0 is eliminated.
    Newton steps on the merit f - mu sum log s + mu n_J log z'Qz + mu/2
    (x - x0)'F(x - x0) (s the slacks, n_J corner rows; the log term makes
    the barrier one of |J| / z'Qz - rate, which no scale of the map
    moves, and F = ``flat`` holds the directions on which f is flat) use
    the model less the dual-weighted row Hessians plus J' diag(lam / s)
    J, take the exact fraction-to-boundary length (slacks are quadratic
    along a step), widened by a second-order correction, and backtrack;
    the accepted trial's f and gradient are kept, so ``fun`` sees each
    point once.  BFGS updates the model; it is asked for again after a
    step that gains under a quarter of its prediction or curves under a
    fifth as much.
    mu starts at BARRIER_DECREASE of the predicted gain g'H^-1 g / 2 per
    row and falls by that factor whenever the Newton decrement drops
    below it; no multiplier starts above the one that balances the
    gradient alone.

    Returns a strictly feasible point no worse than ``x0``, and None or
    what stopped the solve short of its stopping test.
    """
    m, corners = grid.k1 * grid.k2, CornerRows(grid)
    n_corner = len(corners.a)
    lin_a, lin_b = rows if rows is not None else (np.zeros((0, x0.size)), np.zeros(0))
    q = scipy.linalg.block_diag(spread, spread) if rate else np.zeros((2 * m, 2 * m))
    flat = np.zeros((x0.size, x0.size)) if flat is None else flat
    # P: I on the free entries, -E_d^-1 E_f on those d the gauge E fixes
    gauge = np.zeros((0, x0.size)) if gauge is None else gauge
    fixed = np.sort(scipy.linalg.qr(gauge, pivoting=True, mode="r")[1][:len(gauge)]
                    if gauge.size else np.arange(0))
    free = np.setdiff1d(np.arange(x0.size), fixed)
    dep = -np.linalg.solve(gauge[:, fixed], gauge[:, free])

    def reduce(v):  # P'v, or P'vP
        if v.ndim == 2:
            v = v[:, free] + v[:, fixed] @ dep
        return v[free] + dep.T @ v[fixed]

    def expand(u):
        out = np.empty(x0.size)
        out[free], out[fixed] = u, dep @ u
        return out

    def slacks(x, want_jac=True):
        z = x[:2 * m]
        vals, jac = corners(z, want_jac)
        s = np.concatenate([vals - epsilon - rate * float(z @ q @ z), lin_a @ x - lin_b])
        if not want_jac:
            return s
        full = np.vstack([np.zeros((n_corner, x.size)), lin_a])
        full[:n_corner, :2 * m] = jac - 2.0 * rate * (q @ z)
        return s, full

    def curvature(dx):  # the rows' second-order part along dx
        return slacks(dx, False) + np.concatenate([np.full(n_corner, epsilon), lin_b - lin_a @ dx])

    def merit(x, f, s):
        log_spread = n_corner * np.log(x[:2 * m] @ q @ x[:2 * m]) if rate else 0.0
        return f + mu * (log_spread - np.sum(np.log(s)) + 0.5 * (x - x0) @ flat @ (x - x0))

    x, (f, grad) = x0, fun(x0)
    f0, model, r0 = f, hess(x0), reduce(grad)
    # at most |f(x0)|: near a flat direction of the model it can be absurd
    gain = min(0.5 * float(r0 @ cho_solve(_shifted_cholesky(reduce(model)), r0)), abs(f0))
    # a gain of rounding is none: on a flat f the barrier alone would move
    if not gain > np.finfo(float).eps * (1.0 + abs(f0)):
        return x0, None
    s, jac = slacks(x)
    mu_min = max(GAP_TOLERANCE * gain, VALUE_TOLERANCE * (1.0 + abs(f0))) / s.size
    mu = max(BARRIER_DECREASE * gain / s.size, mu_min)
    reach = np.linalg.norm(jac[:, free] + jac[:, fixed] @ dep, axis=1)
    lam = np.minimum(mu / s, np.linalg.norm(r0) / np.maximum(reach, 1e-300))
    it, failure = 0, None
    while True:
        cross = corners.hessian_block(lam[:n_corner])
        kkt = model + mu * flat + jac.T @ ((lam / s)[:, None] * jac)
        kkt[:m, m:2 * m] -= cross
        kkt[m:2 * m, :m] += cross
        spread_grad = np.zeros(x.size)
        if rate:
            qz = q @ x[:2 * m]
            spread_now = float(x[:2 * m] @ qz)
            spread_grad[:2 * m] = (2.0 * n_corner / spread_now) * qz
            kkt[:2 * m, :2 * m] += (
                (2.0 * rate * float(np.sum(lam[:n_corner])) + 2.0 * mu * n_corner / spread_now) * q
                - (4.0 * mu * n_corner / spread_now**2) * np.outer(qz, qz))
        factor = _shifted_cholesky(reduce(kkt))
        while True:
            r = reduce(grad - jac.T @ (mu / s) + mu * (flat @ (x - x0) + spread_grad))
            du = -cho_solve(factor, r)
            decrement = -float(r @ du)
            if decrement > mu or mu <= mu_min:
                break
            mu = max(BARRIER_DECREASE * mu, mu_min)
        if decrement <= mu:
            break
        it += 1
        if it > max_iter:
            failure = f"stopped at the iteration limit ({max_iter})"
            break
        dx = expand(du)
        alpha = _boundary_step(s, jac @ dx, curvature(dx))
        if alpha < 1.0:  # second-order correction for the rows' curvature
            du2 = -cho_solve(factor, r + reduce(jac.T @ ((lam / s) * curvature(dx))))
            dx2 = expand(du2)
            alpha2 = _boundary_step(s, jac @ dx2, curvature(dx2))
            if alpha2 > alpha and -float(r @ du2) > 0.0:
                dx, alpha, decrement = dx2, alpha2, -float(r @ du2)
        start = merit(x, f, s)
        while alpha >= 1e-12:
            step = alpha * dx
            trial_s = slacks(x + step, want_jac=False)
            if trial_s.min() > 0:
                trial = fun(x + step)
                if merit(x + step, trial[0], trial_s) <= start - 1e-4 * alpha * decrement:
                    break
            alpha *= 0.5
        if alpha < 1e-12:
            failure = f"line search failed after {it} iterations"
            break
        dlam = mu / s - lam - (lam / s) * (jac @ dx)
        dual_step = _boundary_step(lam, dlam, 0.0)
        old_grad, old_f = grad, f
        x = x + step
        f, grad = trial
        change, hs = grad - old_grad, model @ step
        shs, sy = float(step @ hs), float(step @ change)
        if sy < 0.2 * shs or f - old_f > 0.25 * (old_grad @ step + 0.5 * shs) < 0.0:
            model = hess(x)
        elif shs > 0.0:
            model = model + np.outer(change, change) / sy - np.outer(hs, hs) / shs
        s, jac = slacks(x)
        # keep each multiplier within a wide band around mu / s
        lam = np.clip(lam + dual_step * dlam, 1e-10 * mu / s, 1e10 * mu / s)
    if failure is not None:
        failure += f" at barrier weight {mu:.3g}"
    return (x if f <= f0 else x0), failure


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
    is returned directly.  Otherwise ``_interior_point``, with the exact
    Hessian 2 W'W, starts from the affine feasible start
    (``_feasible_start``) and warns ("constrained fit: ...") when it stops
    short of its stopping test.  The result is strictly feasible, its
    objective is no higher than the feasible start's.  A rank-deficient
    design is regularized as in ``_normal_equations``.
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
        return unconstrained

    gmat, cvec = _normal_equations(grid, sites, targets)
    z0 = coef_to_vec(_feasible_start(grid, sites, targets, epsilon))
    # the squared residual z'Hz / 2 - c'z + |targets|^2, with H = 2 W'W
    hess, c = scipy.linalg.block_diag(2.0 * gmat, 2.0 * gmat), 2.0 * cvec.T.ravel()
    z, failure = _interior_point(
        grid, lambda z: (0.5 * z @ hess @ z - c @ z + float(np.sum(targets**2)), hess @ z - c),
        lambda z: hess, z0, epsilon, max_iter)
    if failure is not None:
        warnings.warn(f"constrained fit: {failure}; returning the last iterate",
                      RuntimeWarning, stacklevel=2)
    return vec_to_coef(grid, z)
