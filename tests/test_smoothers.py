import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spatdeform.basis import KnotGrid, design_matrix
from spatdeform.deformation import (
    CoefPair,
    DeformationMap,
    corner_values,
    default_epsilon,
    eval_map_points,
    identity_coef,
    min_jacobian,
)
from spatdeform.errors import FitError, InfeasibilityError
from spatdeform.fields import Swirl
from spatdeform.smoothers import (
    fit_bspline_constrained,
    fit_tps,
    tps_effective_dof,
    tps_lambda_for_dof,
    unconstrained_bspline_fit,
)

from oracles import make_bspline_smoother


def grid_sites(n_side, lo=0.0, hi=1.0):
    g = np.linspace(lo, hi, n_side)
    xx, yy = np.meshgrid(g, g)
    return np.column_stack([xx.ravel(), yy.ravel()])


class TestTps:
    def test_affine_targets_unpenalized(self):
        rng = np.random.default_rng(0)
        sites = rng.uniform(0, 1, (20, 2))
        amat = np.array([[1.2, -0.3], [0.4, 0.9]])
        b = np.array([0.5, -1.0])
        targets = sites @ amat.T + b
        for lam in (0.0, 1.0, 100.0):
            model = fit_tps(sites, targets, lam)
            assert np.abs(model.theta).max() < 1e-8
            assert_allclose(model(sites), targets, atol=1e-8)

    def test_interpolation_at_zero_lambda(self):
        rng = np.random.default_rng(1)
        sites = rng.uniform(0, 1, (15, 2))
        targets = rng.uniform(0, 1, (15, 2))
        model = fit_tps(sites, targets, 0.0)
        assert_allclose(model(sites), targets, atol=1e-8)

    def test_large_lambda_approaches_affine_least_squares(self):
        rng = np.random.default_rng(2)
        sites = rng.uniform(0, 1, (30, 2))
        targets = np.column_stack([
            np.sin(3 * sites[:, 0]) + sites[:, 1],
            sites[:, 0] * sites[:, 1],
        ])
        model = fit_tps(sites, targets, 1e6)
        p = np.column_stack([np.ones(30), sites])
        beta, *_ = np.linalg.lstsq(p, targets, rcond=None)
        assert_allclose(model(sites), p @ beta, atol=1e-4)

    def test_side_conditions(self):
        rng = np.random.default_rng(3)
        sites = rng.uniform(0, 1, (25, 2))
        targets = rng.uniform(0, 1, (25, 2))
        model = fit_tps(sites, targets, 0.5)
        p = np.column_stack([np.ones(25), sites])
        assert np.abs(p.T @ model.theta).max() < 1e-8

    def test_collinear_sites_rejected(self):
        x = np.linspace(0, 1, 10)
        sites = np.column_stack([x, 2 * x + 1])
        with pytest.raises(FitError):
            fit_tps(sites, np.random.default_rng(4).uniform(0, 1, (10, 2)), 0.1)

    def test_duplicate_sites_rejected(self):
        sites = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(FitError):
            fit_tps(sites, np.zeros((4, 2)), 0.0)


class TestTpsDof:
    def test_limits(self):
        sites = grid_sites(5)
        n = sites.shape[0]
        assert_allclose(tps_effective_dof(sites, 0.0), n, atol=1e-6)
        assert_allclose(tps_effective_dof(sites, 1e10), 3.0, atol=1e-3)

    def test_decreasing_in_lambda(self):
        sites = grid_sites(5)
        lams = [1e-6, 1e-4, 1e-2, 1.0, 100.0]
        dofs = [tps_effective_dof(sites, l) for l in lams]
        assert np.all(np.diff(dofs) < 0)

    def test_lambda_matching_on_11x11_grid(self):
        sites = grid_sites(11)
        lam = tps_lambda_for_dof(sites, 16.0)
        assert_allclose(tps_effective_dof(sites, lam), 16.0, atol=1e-6)

    def test_target_out_of_range(self):
        sites = grid_sites(4)
        with pytest.raises(ValueError):
            tps_lambda_for_dof(sites, 2.0)


def wobbled_coef(grid, rng, wobble):
    base = identity_coef(grid)
    t1 = base.theta1 + wobble * grid.tau1 * rng.uniform(-1, 1, base.shape)
    t2 = base.theta2 + wobble * grid.tau2 * rng.uniform(-1, 1, base.shape)
    return CoefPair(t1, t2)


class TestUnconstrainedFit:
    def test_exact_recovery_from_spline_targets(self):
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
        rng = np.random.default_rng(5)
        coef = wobbled_coef(grid, rng, 0.2)
        sites = grid_sites(8)
        targets = eval_map_points(DeformationMap(grid, coef), sites)
        fitted = unconstrained_bspline_fit(grid, sites, targets)
        assert_allclose(fitted.theta1, coef.theta1, atol=1e-9)
        assert_allclose(fitted.theta2, coef.theta2, atol=1e-9)

    def test_rank_deficient_design_recovers_identity(self):
        # 9 sites < 36 coefficients: the roughness penalty fills the empty
        # cells, and costs nothing on the affine identity
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 6, 6)
        sites = grid_sites(3)
        fitted = unconstrained_bspline_fit(grid, sites, sites.copy())
        truth = identity_coef(grid)
        assert_allclose(fitted.theta1, truth.theta1, atol=1e-9)
        assert_allclose(fitted.theta2, truth.theta2, atol=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_collinear_sites_with_two_knots_raise(self):
        # with two knots on both axes the roughness penalty is zero
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 2, 2)
        t = np.linspace(0.0, 1.0, 7)
        sites = np.column_stack([t, t])
        with pytest.raises(FitError, match="rank-deficient"):
            unconstrained_bspline_fit(grid, sites, sites.copy())


class TestConstrainedFit:
    def test_identity_targets_recovered(self):
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
        sites = grid_sites(7)
        coef = fit_bspline_constrained(grid, sites, sites.copy(), epsilon=1e-3)
        assert corner_values(grid, coef).min() >= 1e-3
        w = design_matrix(grid, sites)
        fitted = np.column_stack([
            w @ coef.theta1.ravel(order="F"),
            w @ coef.theta2.ravel(order="F"),
        ])
        assert float(np.sum((fitted - sites) ** 2)) < 1e-10

    def test_gentle_deformation_reproduced(self):
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
        rng = np.random.default_rng(6)
        truth = wobbled_coef(grid, rng, 0.2)
        assert corner_values(grid, truth).min() > 0
        sites = grid_sites(10)
        targets = eval_map_points(DeformationMap(grid, truth), sites)
        coef = fit_bspline_constrained(grid, sites, targets, epsilon=1e-3)
        fitted = eval_map_points(DeformationMap(grid, coef), sites)
        rms = np.sqrt(np.mean(np.sum((fitted - targets) ** 2, axis=1)))
        assert rms < 1e-3
        assert min_jacobian(DeformationMap(grid, coef)) > 0

    def test_folding_targets_constrained_away(self):
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
        folded = identity_coef(grid)
        t1 = folded.theta1.copy()
        t1[1, 1] = t1[2, 1] + 0.15  # push a coefficient past its neighbor
        folded = CoefPair(t1, folded.theta2)
        assert min_jacobian(DeformationMap(grid, folded)) < 0
        sites = grid_sites(9)
        targets = eval_map_points(DeformationMap(grid, folded), sites)

        eps = 1e-3
        unc = unconstrained_bspline_fit(grid, sites, targets)
        assert min_jacobian(DeformationMap(grid, unc)) < 0
        con = fit_bspline_constrained(grid, sites, targets, epsilon=eps)
        assert min_jacobian(DeformationMap(grid, con)) >= eps - 1e-9

    def test_constrained_objective_beats_feasible_start(self):
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
        folded = identity_coef(grid)
        t1 = folded.theta1.copy()
        t1[2, 2] = t1[1, 2] - 0.2
        folded = CoefPair(t1, folded.theta2)
        sites = grid_sites(9)
        targets = eval_map_points(DeformationMap(grid, folded), sites)

        def sse(c):
            fitted = eval_map_points(DeformationMap(grid, c), sites)
            return float(np.sum((fitted - targets) ** 2))

        con = fit_bspline_constrained(grid, sites, targets, epsilon=1e-3)
        # affine feasible start: best-fitting affine map
        p = np.column_stack([np.ones(len(sites)), sites])
        beta, *_ = np.linalg.lstsq(p, targets, rcond=None)
        affine_sse = float(np.sum((p @ beta - targets) ** 2))
        assert sse(con) <= affine_sse + 1e-12

    def test_inactive_constraints_match_unconstrained(self):
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
        rng = np.random.default_rng(7)
        truth = wobbled_coef(grid, rng, 0.15)
        sites = grid_sites(8)
        targets = eval_map_points(DeformationMap(grid, truth), sites)
        con = fit_bspline_constrained(grid, sites, targets, epsilon=1e-6)
        unc = unconstrained_bspline_fit(grid, sites, targets)
        assert np.abs(con.theta1 - unc.theta1).max() < 1e-6
        assert np.abs(con.theta2 - unc.theta2).max() < 1e-6

    def test_feasibility_margin_always_met(self):
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
        rng = np.random.default_rng(8)
        sites = grid_sites(8)
        for wobble in (0.3, 0.8, 1.5):
            truth = wobbled_coef(grid, rng, wobble)
            targets = eval_map_points(DeformationMap(grid, truth), sites)
            eps = 1e-3
            coef = fit_bspline_constrained(grid, sites, targets, epsilon=eps)
            assert corner_values(grid, coef).min() >= eps - 1e-9

    def test_infeasible_margin_raises(self):
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
        sites = grid_sites(6)
        with pytest.raises(InfeasibilityError):
            fit_bspline_constrained(grid, sites, sites.copy(), epsilon=2.0)

    def test_solves_the_noisy_swirl_problem(self):
        # K=8 on 11 x 11 sites: the unconstrained fit of noisy swirl targets
        # folds, and the constrained optimum lies far below the affine start
        g = np.linspace(0.0, 1.0, 11)
        sites = np.column_stack([a.ravel() for a in np.meshgrid(g, g, indexing="ij")])
        noise = 0.3 * np.random.default_rng(3).normal(size=sites.shape)
        targets = Swirl((0.5, 0.5), 1.5, 0.35)(sites) + noise
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 8, 8)
        eps = 1e-3
        unc = unconstrained_bspline_fit(grid, sites, targets)
        assert min_jacobian(DeformationMap(grid, unc)) < eps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coef = fit_bspline_constrained(grid, sites, targets, epsilon=eps)
        p = np.column_stack([np.ones(len(sites)), sites])
        beta, *_ = np.linalg.lstsq(p, targets, rcond=None)
        affine_sse = float(np.sum((p @ beta - targets) ** 2))
        fitted = eval_map_points(DeformationMap(grid, coef), sites)
        assert float(np.sum((fitted - targets) ** 2)) <= 0.8 * affine_sse
        assert corner_values(grid, coef).min() >= eps

    def test_margin_met_and_start_never_worsened(self):
        # every solve ends strictly feasible, below the affine start
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
        rng = np.random.default_rng(8)
        sites = grid_sites(8)
        p = np.column_stack([np.ones(len(sites)), sites])
        for wobble in (0.3, 0.8, 1.5, 3.0):
            truth = wobbled_coef(grid, rng, wobble)
            targets = eval_map_points(DeformationMap(grid, truth), sites)
            beta, *_ = np.linalg.lstsq(p, targets, rcond=None)
            affine_sse = float(np.sum((p @ beta - targets) ** 2))
            for eps in (1e-3, 0.2):
                coef = fit_bspline_constrained(grid, sites, targets, epsilon=eps)
                fitted = eval_map_points(DeformationMap(grid, coef), sites)
                assert corner_values(grid, coef).min() >= eps
                assert float(np.sum((fitted - targets) ** 2)) <= affine_sse

    def test_warns_at_the_iteration_limit(self):
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
        folded = identity_coef(grid)
        t1 = folded.theta1.copy()
        t1[1, 1] = t1[2, 1] + 0.15
        sites = grid_sites(9)
        targets = eval_map_points(DeformationMap(grid, CoefPair(t1, folded.theta2)), sites)
        with pytest.warns(RuntimeWarning, match="iteration limit"):
            coef = fit_bspline_constrained(grid, sites, targets, epsilon=1e-3, max_iter=2)
        assert corner_values(grid, coef).min() >= 1e-3

    def test_underdetermined_fits_through_the_roughness_penalty(self):
        # 9 sites cannot fix 36 coefficients: the singular Gram matrix
        # gains the second-difference penalty
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 6, 6)
        sites = grid_sites(3)
        coef = fit_bspline_constrained(grid, sites, sites.copy())
        assert corner_values(grid, coef).min() >= default_epsilon(grid)
        assert np.all(np.isfinite(coef.theta1))


def test_irregular_networks_with_empty_cells_fit():
    # 60 uniform sites at K=6 leave some basis function without a site in
    # its support in 9 of these 20 draws
    for seed in range(20):
        sites = np.random.default_rng(seed).uniform(size=(60, 2))
        lo, hi = sites.min(axis=0), sites.max(axis=0)
        grid = KnotGrid(lo[0], hi[0], lo[1], hi[1], 6, 6)
        targets = Swirl()(sites)
        fitted = make_bspline_smoother(grid)(sites, targets)
        coef = fit_bspline_constrained(grid, sites, targets)
        assert corner_values(grid, coef).min() >= default_epsilon(grid)
        np.testing.assert_array_equal(fitted, eval_map_points(DeformationMap(grid, coef), sites))


def test_bspline_smoother_returns_fitted_points():
    grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
    sites = grid_sites(7)
    smoother = make_bspline_smoother(grid, epsilon=1e-3)
    fitted = smoother(sites, sites.copy())
    assert fitted.shape == sites.shape
    assert np.sqrt(np.mean((fitted - sites) ** 2)) < 1e-6
