"""Property test of the interior-point solver through both of its callers:
the non-folding least squares and the likelihood ascent."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spatdeform.basis import KnotGrid, design_matrix
from spatdeform.covariance import CovParams
from spatdeform.deformation import coef_to_vec, corner_values, default_epsilon, identity_coef
from spatdeform.estimation import CoefObjective, Dataset, refine_coords_ml
from spatdeform.fields import Swirl, simulate_grf
from spatdeform.smoothers import _feasible_start, fit_bspline_constrained

from oracles import IdentityMap


def draw_sites(rng, n, clustered):
    if not clustered:
        return rng.uniform(size=(n, 2))
    centres = rng.uniform(0.15, 0.85, (3, 2))
    return centres[rng.integers(0, 3, n)] + 0.05 * rng.standard_normal((n, 2))


def grid_of(sites, k):
    lo, hi = sites.min(axis=0), sites.max(axis=0)
    return KnotGrid(lo[0], hi[0], lo[1], hi[1], k, k)


problems = st.tuples(st.integers(5, 40), st.booleans(), st.integers(2, 5),
                     st.integers(0, 2**32 - 1))


@settings(max_examples=25)
@given(problems)
def test_both_callers_end_strictly_feasible_and_no_worse(problem):
    n, clustered, k, seed = problem
    rng = np.random.default_rng(seed)
    sites = draw_sites(rng, n, clustered)
    grid = grid_of(sites, k)
    eps = default_epsilon(grid)
    w = design_matrix(grid, sites).toarray()

    # least squares: noisy swirl targets, from the affine feasible start
    targets = Swirl((0.5, 0.5), 1.5, 0.35)(sites) + 0.1 * rng.standard_normal(sites.shape)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        coef = fit_bspline_constrained(grid, sites, targets, epsilon=eps)
    assert all(str(c.message).startswith("constrained fit:") for c in caught)
    assert corner_values(grid, coef).min() > eps

    def sse(c):
        z = coef_to_vec(c)
        m = grid.k1 * grid.k2
        return float(np.sum((w @ z[:m] - targets[:, 0]) ** 2 + (w @ z[m:] - targets[:, 1]) ** 2))

    assert sse(coef) <= sse(_feasible_start(grid, sites, targets, eps)) * (1 + 1e-12)

    # likelihood ascent: a Gaussian field on the sites, from the identity
    z = simulate_grf(sites, IdentityMap(), CovParams(1.0, 0.3, 0.5), t=20, seed=seed % 1000)
    objective = CoefObjective(Dataset(sites, z), grid)
    cov = CovParams(1.0, 0.2, 0.5)
    start = identity_coef(grid)
    x0 = np.append(coef_to_vec(start), cov.nugget / cov.sigma2)
    f0 = objective(x0, cov.phi, 0.0)[0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        coef, fitted, x = refine_coords_ml(objective, cov, grid, start, eps)
    assert all(str(c.message).startswith("likelihood ascent") for c in caught)
    assert np.array_equal(x, np.append(coef_to_vec(coef), x[-1]))
    assert objective(x, fitted.phi, 0.0)[0] <= f0
    penalty = objective.penalty
    zz = coef_to_vec(coef).reshape(2, -1).T
    spread = float(np.sum((penalty.wc @ zz) ** 2))
    assert corner_values(grid, coef).min() * penalty.q0 / spread > eps
