"""Plain, per-point reference implementations that the tests check the
package's vectorized kernels against.

None of these is used by the package itself: the 1-d basis vectors, the
skew-symmetric bilinear form A(x), the per-cell Jacobian, the corner
functionals one by one, single-point map evaluation, the exponential
correlation, a covariance step by finite differences, the
coefficients' Fisher information at given coefficients and a
coordinate smoother backed by the constrained B-spline fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from spatdeform.basis import KnotGrid, cell_and_local
from spatdeform.covariance import CovParams, exp_covariance
from spatdeform.deformation import (
    CORNER_ORDER,
    CoefPair,
    DeformationMap,
    coef_to_vec,
    eval_map_points,
)
from spatdeform.errors import NumericalError
from spatdeform.estimation import coef_objective, replicate_loglik
from spatdeform.smoothers import fit_bspline_constrained


def eval_basis(grid: KnotGrid, axis: int, x: float) -> np.ndarray:
    """All K basis values at a single coordinate on one axis.

    At most two entries are nonzero (the hats flanking the containing
    cell); the values are 1-u and u for local coordinate u, so they sum
    to one.
    """
    cell, u = cell_and_local(grid, axis, x)
    c, uu = int(cell[0]), float(u[0])
    out = np.zeros(grid.axis_count(axis))
    out[c] = 1.0 - uu
    out[c + 1] = uu
    return out


def eval_basis_deriv(grid: KnotGrid, axis: int, x: float) -> np.ndarray:
    """All K basis derivatives at a single coordinate on one axis.

    Derivatives are piecewise constant +-1/tau; at interior knots the
    right-hand limit is returned, at the right boundary the left-hand
    one (half-open cell rule).
    """
    cell, _ = cell_and_local(grid, axis, x)
    c = int(cell[0])
    tau = grid.axis_tau(axis)
    out = np.zeros(grid.axis_count(axis))
    out[c] = -1.0 / tau
    out[c + 1] = 1.0 / tau
    return out


def eval_map(dmap: DeformationMap, x) -> np.ndarray:
    """Map a single point, returned as shape (2,)."""
    return eval_map_points(dmap, np.asarray(x, dtype=float).reshape(1, 2))[0]


def _cell_edge_diffs(theta: np.ndarray, ci: int, cj: int):
    """Edge differences of the 2 x 2 coefficient block of one cell."""
    b = theta[ci : ci + 2, cj : cj + 2]
    du_bottom = b[1, 0] - b[0, 0]
    du_top = b[1, 1] - b[0, 1]
    dv_left = b[0, 1] - b[0, 0]
    dv_right = b[1, 1] - b[1, 0]
    return du_bottom, du_top, dv_left, dv_right


def cell_jacobian(dmap: DeformationMap, ci: int, cj: int, u1, u2) -> np.ndarray:
    """Jacobian determinant inside cell (ci, cj) at local coordinates.

    Evaluates the within-cell limit, so corner and edge values belong to
    the requested cell regardless of the global half-open convention.
    ``u1`` and ``u2`` broadcast; each must lie in [0, 1].
    """
    grid = dmap.grid
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    a_b, a_t, a_l, a_r = _cell_edge_diffs(dmap.coef.theta1, ci, cj)
    b_b, b_t, b_l, b_r = _cell_edge_diffs(dmap.coef.theta2, ci, cj)
    d1f1 = a_b * (1.0 - u2) + a_t * u2
    d2f1 = a_l * (1.0 - u1) + a_r * u1
    d1f2 = b_b * (1.0 - u2) + b_t * u2
    d2f2 = b_l * (1.0 - u1) + b_r * u1
    return (d1f1 * d2f2 - d2f1 * d1f2) / (grid.tau1 * grid.tau2)


def jacobian_det(dmap: DeformationMap, x) -> float:
    """Jacobian determinant at a point (one-sided convention at knots)."""
    x = np.asarray(x, dtype=float).reshape(2)
    c1, u1 = cell_and_local(dmap.grid, 1, x[0])
    c2, u2 = cell_and_local(dmap.grid, 2, x[1])
    return float(cell_jacobian(dmap, int(c1[0]), int(c2[0]), u1[0], u2[0]))


def assemble_A(grid: KnotGrid, x) -> sps.coo_matrix:
    """Skew-symmetric matrix A(x) with |J| = vec(theta1)' A vec(theta2).

    Built as the antisymmetrized outer product of the two
    Kronecker-product derivative vectors; at most a 4 x 4 block is
    nonzero (the bases active at x).
    """
    x = np.asarray(x, dtype=float).reshape(2)
    b1 = eval_basis(grid, 1, x[0])
    b2 = eval_basis(grid, 2, x[1])
    b1p = eval_basis_deriv(grid, 1, x[0])
    b2p = eval_basis_deriv(grid, 2, x[1])
    u = np.kron(b2, b1p)
    v = np.kron(b2p, b1)
    iu = np.nonzero(u)[0]
    iv = np.nonzero(v)[0]
    rows = np.concatenate([np.repeat(iu, iv.size), np.repeat(iv, iu.size)])
    cols = np.concatenate([np.tile(iv, iu.size), np.tile(iu, iv.size)])
    vals = np.concatenate(
        [np.outer(u[iu], v[iv]).ravel(), -np.outer(v[iv], u[iu]).ravel()]
    )
    m = grid.k1 * grid.k2
    a = sps.coo_matrix((vals, (rows, cols)), shape=(m, m))
    a.sum_duplicates()
    return a


@dataclass(frozen=True)
class CornerConstraint:
    """One bilinear corner functional; positive value means locally
    orientation-preserving at that corner."""

    grid: KnotGrid
    cell1: int
    cell2: int
    corner: tuple[int, int]

    def __call__(self, coef: CoefPair) -> float:
        s, t = self.corner
        return float(cell_jacobian(DeformationMap(self.grid, coef), self.cell1, self.cell2, s, t))

    @property
    def knot_indices(self) -> tuple[int, int]:
        """Knot pair (axis-1 knot, axis-2 knot) the corner sits on."""
        return self.cell1 + self.corner[0], self.cell2 + self.corner[1]


def corner_constraints(grid: KnotGrid) -> list[CornerConstraint]:
    """All 4 (K1-1)(K2-1) corner functionals, row-major cells then
    CORNER_ORDER, matching corner_values ravelled in C order."""
    out = []
    for ci in range(grid.k1 - 1):
        for cj in range(grid.k2 - 1):
            for corner in CORNER_ORDER:
                out.append(CornerConstraint(grid, ci, cj, corner))
    return out


@dataclass(frozen=True)
class IdentityMap:
    """Truth map of a stationary field: deformed plane equals the
    geographic plane."""

    def __call__(self, points) -> np.ndarray:
        return np.array(points, dtype=float)


def correlation(h, params: CovParams):
    """Exponential correlation exp(-h / phi); h may be scalar or array."""
    h = np.asarray(h, dtype=float)
    if np.any(h < 0):
        raise ValueError("distances must be nonnegative")
    out = np.exp(-h / params.phi)
    return float(out) if out.ndim == 0 else out


def step_cov_fd(dataset, mapping, cov_init: CovParams) -> CovParams:
    """The covariance step searched directly over (sigma2, phi, nugget).

    L-BFGS-B with finite-difference gradients, from the incumbent and
    from the moment start (half the mean site variance as sill and
    nugget, a quarter of the deformed diameter as range), keeping the
    best of the incumbent and both results.
    """
    y = np.asarray(mapping(dataset.sites), dtype=float)
    d = cdist(y, y)
    diam = float(d.max())
    v = float(np.mean(np.var(dataset.replicates, axis=1, ddof=1)))
    bounds = [(1e-6 * v, 1e3 * v), (1e-4 * diam, 10.0 * diam), (0.0, 1e3 * v)]

    def objective(p):
        try:
            return -replicate_loglik(dataset.replicates, exp_covariance(d, CovParams(*p)))
        except (NumericalError, ValueError):
            return 1e300

    p_init = np.clip([cov_init.sigma2, cov_init.phi, cov_init.nugget], *np.array(bounds).T)
    candidates = [(objective(p_init), p_init)]
    for x0 in (p_init, np.array([0.5 * v, 0.25 * diam, 0.5 * v])):
        res = minimize(objective, x0, method="L-BFGS-B", bounds=bounds)
        candidates.append((res.fun, res.x))
    p = min(candidates, key=lambda c: c[0])[1]
    return CovParams(sigma2=float(p[0]), phi=float(p[1]), nugget=float(max(p[2], 0.0)))


def coef_fisher_information(dataset, cov: CovParams, grid: KnotGrid,
                            coef: CoefPair) -> np.ndarray:
    """Expected information of the replicate likelihood for the stacked
    coefficient vector, at fixed covariance parameters (see
    ``_LikelihoodState.coef_information``)."""
    return coef_objective(dataset, cov, grid).information(coef_to_vec(coef))


def make_bspline_smoother(grid: KnotGrid, epsilon: float | None = None):
    """Coordinate smoother backed by the constrained B-spline fit."""

    def smoother(sites, targets):
        coef = fit_bspline_constrained(grid, sites, targets, epsilon=epsilon)
        return eval_map_points(DeformationMap(grid, coef), sites)

    return smoother
