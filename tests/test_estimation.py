from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import cho_factor, cho_solve, lapack
from scipy.optimize import OptimizeResult
from scipy.spatial.distance import cdist

from spatdeform.basis import KnotGrid, design_matrix
from spatdeform.covariance import CovParams, covariance_matrix
from spatdeform.deformation import (
    CoefPair,
    DeformationMap,
    coef_to_vec,
    corner_values,
    default_epsilon,
    identity_coef,
    min_jacobian,
    transform_coef,
)
from spatdeform.errors import DataError, FitError, NumericalError
from spatdeform.estimation import (
    Dataset,
    DeformModel,
    FitConfig,
    FitDiagnostics,
    PENALTY_STEP_REACH,
    SmoothnessPenalty,
    _penalty_update,
    coef_fisher_information,
    coef_objective,
    difference_penalty,
    fit,
    loglik,
    normalize_gauge,
    refine_coords_ml,
    replicate_loglik,
    step_cov,
)
from spatdeform.fields import Swirl, simulate_grf

from oracles import IdentityMap


def grid_sites(n_side, lo=0.0, hi=1.0):
    g = np.linspace(lo, hi, n_side)
    xx, yy = np.meshgrid(g, g)
    return np.column_stack([xx.ravel(), yy.ravel()])


def identity_model_map(k=4):
    grid = KnotGrid(0.0, 1.0, 0.0, 1.0, k, k)
    return DeformationMap(grid, identity_coef(grid))


class TestDataset:
    def test_defaults_and_validation(self):
        sites = grid_sites(2)
        z = np.random.default_rng(0).normal(size=(4, 3))
        ds = Dataset(sites, z)
        assert ds.n == 4 and ds.t == 3
        assert len(ds.ids) == 4 and len(ds.times) == 3

    def test_too_few_sites(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 2)), np.zeros((3, 5)))

    def test_too_few_replicates(self):
        with pytest.raises(DataError):
            Dataset(grid_sites(2), np.zeros((4, 1)))

    def test_missing_values_rejected(self):
        z = np.zeros((4, 3))
        z[1, 2] = np.nan
        with pytest.raises(DataError):
            Dataset(grid_sites(2), z)

    def test_demeaning(self):
        rng = np.random.default_rng(1)
        ds = Dataset(grid_sites(2), rng.normal(size=(4, 10)))
        assert_allclose(ds.demeaned().mean(axis=1), 0.0, atol=1e-12)


class TestReplicateLoglik:
    def test_univariate_reduction(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(1, 20))
        var = 1.7
        ll = replicate_loglik(z, np.array([[var]]))
        zc = z[0] - z[0].mean()
        expected = -0.5 * (20 * np.log(2 * np.pi * var) + np.sum(zc**2) / var)
        assert_allclose(ll, expected, rtol=1e-12)

    def test_duplicated_columns_double(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(5, 8))
        pts = rng.uniform(0, 1, (5, 2))
        c = covariance_matrix(pts, IdentityMap(), CovParams(1.0, 0.4, 0.2))
        ll1 = replicate_loglik(z, c)
        ll2 = replicate_loglik(np.hstack([z, z]), c)
        assert_allclose(ll2, 2 * ll1, rtol=1e-10)

    def test_dense_algebra_oracle(self):
        # explicit inverse and determinant, summed per column
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 1, (5, 2))
        c = covariance_matrix(pts, IdentityMap(), CovParams(1.2, 0.3, 0.15))
        z = rng.normal(size=(5, 3))
        zc = z - z.mean(axis=1, keepdims=True)
        sign, logdet = np.linalg.slogdet(c)
        cinv = np.linalg.inv(c)
        expected = sum(
            -0.5 * (5 * np.log(2 * np.pi) + logdet + zc[:, t] @ cinv @ zc[:, t])
            for t in range(3)
        )
        assert_allclose(replicate_loglik(z, c), expected, atol=1e-8)

    def test_singular_covariance_raises(self):
        with pytest.raises(NumericalError):
            replicate_loglik(np.random.default_rng(5).normal(size=(3, 4)), np.ones((3, 3)))

    def test_loglik_wrapper(self):
        rng = np.random.default_rng(6)
        ds = Dataset(grid_sites(2), rng.normal(size=(4, 6)))
        dmap = identity_model_map()
        cov = CovParams(1.0, 0.5, 0.1)
        c = covariance_matrix(ds.sites, dmap, cov)
        assert_allclose(loglik(ds, dmap, cov), replicate_loglik(ds.replicates, c))


class TestStepCov:
    def test_recovers_simulation_parameters(self):
        sites = grid_sites(11)
        truth = CovParams(sigma2=1.0, phi=0.25, nugget=1.0)
        z = simulate_grf(sites, IdentityMap(), truth, t=200, seed=7)
        ds = Dataset(sites, z)
        est = step_cov(ds, identity_model_map(), CovParams(0.5, 0.1, 0.5))
        assert abs(est.sigma2 - 1.0) < 0.25
        assert abs(est.phi - 0.25) < 0.25 * 0.25
        assert abs(est.nugget - 1.0) < 0.25

    def test_never_decreases_loglik(self):
        rng = np.random.default_rng(8)
        sites = grid_sites(4)
        z = simulate_grf(sites, IdentityMap(), CovParams(1.0, 0.3, 0.5), t=30, seed=9)
        ds = Dataset(sites, z)
        dmap = identity_model_map()
        for _ in range(5):
            init = CovParams(
                rng.uniform(0.1, 2.0), rng.uniform(0.05, 1.0), rng.uniform(0.0, 2.0)
            )
            est = step_cov(ds, dmap, init)
            assert loglik(ds, dmap, est) >= loglik(ds, dmap, init) - 1e-9

    def test_phi_respects_bounds(self):
        sites = grid_sites(4)
        z = simulate_grf(sites, IdentityMap(), CovParams(1.0, 0.3, 0.1), t=40, seed=10)
        ds = Dataset(sites, z)
        dmap = identity_model_map()
        diam = float(cdist(sites, sites).max())
        est = step_cov(ds, dmap, CovParams(1.0, 5.0, 0.1))
        assert 1e-4 * diam <= est.phi <= 10.0 * diam

    def test_already_optimal_start_is_stable(self):
        sites = grid_sites(5)
        z = simulate_grf(sites, IdentityMap(), CovParams(1.0, 0.3, 0.5), t=60, seed=22)
        ds = Dataset(sites, z)
        dmap = identity_model_map()
        first = step_cov(ds, dmap, CovParams(0.7, 0.2, 0.3))
        second = step_cov(ds, dmap, first)
        assert abs(loglik(ds, dmap, second) - loglik(ds, dmap, first)) < 1e-4


class TestRefineCoordsMl:
    @pytest.fixture(scope="class")
    def problem(self):
        sites = grid_sites(7)
        cov = CovParams(1.0, 0.25, 0.5)
        z = simulate_grf(sites, Swirl(strength=1.0), cov, t=80, seed=14)
        return Dataset(sites, z), cov, KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)

    def test_improves_likelihood_and_stays_feasible(self, problem):
        ds, cov, grid = problem
        start = identity_coef(grid)
        eps = 1e-3
        refined = refine_coords_ml(ds, cov, grid, start, epsilon=eps)
        assert refined.validated
        assert corner_values(grid, refined).min() >= eps - 1e-9
        ll_start = loglik(ds, DeformationMap(grid, start), cov)
        ll_ref = loglik(ds, DeformationMap(grid, refined), cov)
        assert ll_ref >= ll_start

    def test_warns_at_the_iteration_cap(self, problem):
        ds, cov, grid = problem
        start = identity_coef(grid)
        with pytest.warns(RuntimeWarning, match=r"iteration limit \(2\)"):
            refined = refine_coords_ml(ds, cov, grid, start, epsilon=1e-3, max_iter=2)
        assert corner_values(grid, refined).min() >= 1e-3 - 1e-9
        assert (loglik(ds, DeformationMap(grid, refined), cov)
                >= loglik(ds, DeformationMap(grid, start), cov))

    def test_warning_carries_the_solver_message(self, problem, monkeypatch):
        # only SLSQP's exit mode 9 is its iteration limit; any other
        # failure is reported in SLSQP's own words
        import spatdeform.estimation as est

        def failing_minimize(fun, x0, **kwargs):
            return OptimizeResult(x=np.zeros_like(x0), success=False, status=8, nit=7,
                                  message="Positive directional derivative for linesearch")

        monkeypatch.setattr(est, "minimize", failing_minimize)
        ds, cov, grid = problem
        start = identity_coef(grid)
        with pytest.warns(RuntimeWarning) as record:
            refined = est.refine_coords_ml(ds, cov, grid, start, epsilon=1e-3)
        messages = [str(w.message) for w in record]
        assert any("after 7 iterations: Positive directional derivative for linesearch" in m
                   for m in messages), messages
        assert not any("iteration limit" in m for m in messages), messages
        assert np.array_equal(coef_to_vec(refined), coef_to_vec(start))


def wobbled(grid, rng, amount=0.05):
    base = identity_coef(grid)
    return CoefPair(base.theta1 + amount * rng.uniform(-1, 1, base.shape),
                    base.theta2 + amount * rng.uniform(-1, 1, base.shape))


@pytest.fixture(scope="module")
def swirl_problem():
    sites = grid_sites(6)
    cov = CovParams(1.0, 0.3, 0.5)
    z = simulate_grf(sites, Swirl(strength=1.0), cov, t=40, seed=19)
    grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
    return Dataset(sites, z), cov, grid


def reference_negloglik_and_grad(ds, cov, grid, solves=False):
    """The unpenalized negative log-likelihood and its gradient, written
    out plainly.  With ``solves``, C^-1 Z and C^-1 come from Cholesky
    solves, as refine_coords_ml computed them before the smoothness
    penalty existed; otherwise from the Cholesky inverse (LAPACK potri),
    as it computes them now."""
    zc = ds.demeaned()
    n, t = zc.shape
    w = design_matrix(grid, ds.sites).toarray()
    m = grid.k1 * grid.k2

    def f(z):
        y = np.column_stack([w @ z[:m], w @ z[m:]])
        d = cdist(y, y)
        expo = cov.sigma2 * np.exp(-d / cov.phi)
        c = expo.copy()
        c[np.diag_indices_from(c)] += cov.nugget
        factor = cho_factor(c, lower=True)
        logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
        if solves:
            cinv_z = cho_solve(factor, zc)
            cinv = cho_solve(factor, np.eye(n))
        else:
            cinv = lapack.dpotri(factor[0], lower=1)[0]
            cinv = np.tril(cinv) + np.tril(cinv, -1).T
            cinv_z = cinv @ zc
        ll = -0.5 * (n * t * np.log(2.0 * np.pi) + t * logdet + float(np.sum(zc * cinv_z)))
        dldc = 0.5 * (cinv_z @ cinv_z.T - t * cinv)
        dldd = -(1.0 / cov.phi) * dldc * expo
        np.fill_diagonal(dldd, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(d > 0, 2.0 * dldd / np.where(d > 0, d, 1.0), 0.0)
        grad_y = ratio.sum(axis=1)[:, None] * y - ratio @ y
        return -ll, -np.concatenate([w.T @ grad_y[:, 0], w.T @ grad_y[:, 1]])

    return f


class TestSmoothnessPenalty:
    def test_difference_penalty_null_space_is_bilinear(self):
        grid = KnotGrid(0.0, 1.0, 0.0, 2.0, 5, 4)
        s = difference_penalty(grid)
        a, b = np.meshgrid(np.arange(5.0), np.arange(4.0), indexing="ij")
        for pattern in (np.ones_like(a), a, b, a * b):
            assert_allclose(s @ pattern.ravel(order="F"), 0.0, atol=1e-12)
        assert np.linalg.matrix_rank(s) == 5 * 4 - 4
        assert SmoothnessPenalty.for_sites(grid, grid_sites(5)).rank == 2 * (5 * 4 - 4)
        assert not difference_penalty(KnotGrid(0.0, 1.0, 0.0, 1.0, 2, 2)).any()

    def test_invariant_under_similarity_transforms(self):
        rng = np.random.default_rng(20)
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 5, 5)
        pen = SmoothnessPenalty.for_sites(grid, grid_sites(7))
        coef = wobbled(grid, rng)
        value = pen.value_and_grad(coef_to_vec(coef))[0]
        assert value > 0
        for angle, shift, scale in ((0.7, (2.0, -1.0), 1.0), (-2.2, (0.0, 0.0), 3.5),
                                    (0.0, (-0.3, 0.4), 0.02)):
            rot = np.array([[np.cos(angle), -np.sin(angle)],
                            [np.sin(angle), np.cos(angle)]])
            moved = transform_coef(coef, rot, np.array(shift), scale)
            assert_allclose(pen.value_and_grad(coef_to_vec(moved))[0], value, rtol=1e-10)

    def test_equals_quadratic_form_at_site_spread(self):
        # once the fitted coordinates have the sites' spread the penalty
        # is the plain z'Sz, the form the weight update works with
        rng = np.random.default_rng(21)
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 5, 5)
        sites = grid_sites(7)
        dmap, _ = normalize_gauge(DeformationMap(grid, wobbled(grid, rng)), sites)
        z = coef_to_vec(dmap.coef)
        pen = SmoothnessPenalty.for_sites(grid, sites)
        s = np.kron(np.eye(2), difference_penalty(grid))
        assert_allclose(pen.value_and_grad(z)[0], z @ s @ z, rtol=1e-10)
        assert_allclose(z @ pen.matrix(z) @ z, z @ s @ z, rtol=1e-10)

    def test_objective_gradient_matches_finite_differences(self, swirl_problem):
        ds, cov, grid = swirl_problem
        rng = np.random.default_rng(22)
        z = coef_to_vec(wobbled(grid, rng))
        objective = coef_objective(ds, cov, grid, lam=50.0)
        f0, g = objective(z)
        h = 1e-6
        fd = np.array([
            (objective(z + h * e)[0] - objective(z - h * e)[0]) / (2 * h)
            for e in np.eye(z.size)
        ])
        assert_allclose(g, fd, rtol=1e-5, atol=1e-5 * np.abs(g).max())
        # the penalty term is what separates it from the likelihood alone
        assert f0 > coef_objective(ds, cov, grid)(z)[0]

    def test_zero_weight_is_the_unpenalized_objective(self, swirl_problem):
        # refine_coords_ml drives SLSQP on this objective: the gradient
        # and the value that comes with it are the plain likelihood's bit
        # for bit, and the value-only path its line search uses agrees to
        # rounding, so lam=0 is the unpenalized ascent up to rounding
        ds, cov, grid = swirl_problem
        rng = np.random.default_rng(23)
        reference = reference_negloglik_and_grad(ds, cov, grid)
        by_solves = reference_negloglik_and_grad(ds, cov, grid, solves=True)
        objective = coef_objective(ds, cov, grid, lam=0.0)
        for _ in range(3):
            z = coef_to_vec(wobbled(grid, rng))
            f_ref, g_ref = reference(z)
            f, g = objective(z)
            assert f == f_ref
            assert np.array_equal(g, g_ref)
            f_value, g_value = objective(z, want_grad=False)
            assert g_value is None
            assert_allclose(f_value, f_ref, rtol=1e-13)
            # the inverse-based evaluation agrees with the solve-based
            # one to rounding
            f_sol, g_sol = by_solves(z)
            assert_allclose(f, f_sol, rtol=1e-13)
            assert_allclose(f_value, f_sol, rtol=1e-13)
            assert_allclose(g, g_sol, rtol=0, atol=1e-10 * np.abs(g_sol).max())

    def test_penalized_refine_is_smoother_and_feasible(self, swirl_problem):
        ds, cov, grid = swirl_problem
        start = identity_coef(grid)
        pen = SmoothnessPenalty.for_sites(grid, ds.sites)
        plain = refine_coords_ml(ds, cov, grid, start, epsilon=1e-3)
        smooth = refine_coords_ml(ds, cov, grid, plain, epsilon=1e-3, lam=1e3)
        assert corner_values(grid, smooth).min() >= 1e-3 - 1e-9
        assert (pen.value_and_grad(coef_to_vec(smooth))[0]
                < pen.value_and_grad(coef_to_vec(plain))[0])


def test_each_state_is_factored_once(swirl_problem, monkeypatch):
    # the ascent's start value and its metric share one factorization, and
    # so does each SLSQP gradient with the value at the same point before it
    import spatdeform.estimation as est

    real_factor = est.factor_covariance
    factored = []

    def recording_factor(c):
        factored.append(np.array(c))
        return real_factor(c)

    monkeypatch.setattr(est, "factor_covariance", recording_factor)
    ds, cov, grid = swirl_problem
    est.refine_coords_ml(ds, cov, grid, identity_coef(grid), epsilon=1e-3)
    assert len(factored) > 10
    assert not any(np.array_equal(a, b) for a, b in zip(factored, factored[1:]))


class TestFisherInformation:
    def test_matches_dense_per_coefficient_reference(self, swirl_problem):
        ds, cov, grid = swirl_problem
        coef = wobbled(grid, np.random.default_rng(24))
        info = coef_fisher_information(ds, cov, grid, coef)

        # dense reference: (t/2) tr(C^-1 dC/dz_p C^-1 dC/dz_q) with one
        # n x n derivative matrix per coefficient
        w = design_matrix(grid, ds.sites).toarray()
        z = coef_to_vec(coef)
        m = grid.k1 * grid.k2
        y = np.column_stack([w @ z[:m], w @ z[m:]])
        diff = y[:, None, :] - y[None, :, :]
        d = np.sqrt(np.sum(diff**2, axis=2))
        expo = cov.sigma2 * np.exp(-d / cov.phi)
        cinv = np.linalg.inv(expo + cov.nugget * np.eye(len(y)))
        derivs = []
        for k in range(2):
            for p in range(m):
                dy = w[:, p][:, None] - w[:, p][None, :]
                dd = np.divide(diff[:, :, k] * dy, d, out=np.zeros_like(d), where=d > 0)
                derivs.append(-(expo / cov.phi) * dd)
        dense = np.array([[0.5 * ds.t * np.trace(cinv @ a @ cinv @ b) for b in derivs]
                          for a in derivs])
        assert_allclose(info, dense, rtol=0, atol=1e-10 * np.abs(dense).max())

    def test_gauge_shifts_carry_no_information(self, swirl_problem):
        ds, cov, grid = swirl_problem
        info = coef_fisher_information(ds, cov, grid, wobbled(grid, np.random.default_rng(25)))
        m = grid.k1 * grid.k2
        for comp in range(2):
            shift = np.zeros(2 * m)
            shift[comp * m:(comp + 1) * m] = 1.0
            assert_allclose(info @ shift, 0.0, atol=1e-9 * np.abs(info).max())

    def test_weight_update_edge_cases(self, swirl_problem):
        ds, cov, grid = swirl_problem
        # an affine map has zero roughness: the weight keeps its value
        coef = identity_coef(grid)
        info = coef_fisher_information(ds, cov, grid, coef)
        pen = SmoothnessPenalty.for_sites(grid, ds.sites)
        lam, edf = _penalty_update(7.0, info, pen, coef_to_vec(coef))
        assert lam == 7.0 and np.isfinite(edf)
        # unpenalized: the effective dof is the rank of the information,
        # 2 K^2 less the shift and rotation gauge directions
        assert_allclose(_penalty_update(0.0, info, pen, coef_to_vec(coef))[1],
                        2 * 16 - 3, atol=1e-6)
        # a 2 x 2 grid has nothing to penalize
        grid2 = KnotGrid(0.0, 1.0, 0.0, 1.0, 2, 2)
        coef2 = wobbled(grid2, np.random.default_rng(26))
        info2 = coef_fisher_information(ds, cov, grid2, coef2)
        pen2 = SmoothnessPenalty.for_sites(grid2, ds.sites)
        assert pen2.rank == 0
        assert _penalty_update(3.0, info2, pen2, coef_to_vec(coef2))[0] == 0.0

    def test_weight_update_is_the_fixed_point_on_the_quadratic_model(self, swirl_problem):
        ds, cov, grid = swirl_problem
        lam = 2.0
        coef = refine_coords_ml(ds, cov, grid, identity_coef(grid), 1e-3, lam=lam)
        coef = normalize_gauge(DeformationMap(grid, coef), ds.sites)[0].coef
        z = coef_to_vec(coef)
        info = coef_fisher_information(ds, cov, grid, coef)
        pen = SmoothnessPenalty.for_sites(grid, ds.sites)
        s = pen.matrix(z)

        def plain_step(l, zl):
            mu, v = np.linalg.eigh(info + l * s)
            keep = mu > 1e-9 * mu.max()
            pinv = (v[:, keep] / mu[keep]) @ v[:, keep].T
            return (pen.rank - l * float(np.sum(pinv * s))) / float(zl @ s @ zl), pinv

        first = plain_step(lam, z)[0]
        # the step is iterated on the model, whose coefficients at weight
        # l are (I + l S)^+ (I + lam S) z, to its fixed point, within the
        # clamp around the single plain step
        fixed = _penalty_update(lam, info, pen, z)[0]
        assert first < fixed < PENALTY_STEP_REACH * first
        pinv = plain_step(fixed, z)[1]
        z_model = pinv @ (info + lam * s) @ z
        assert_allclose(plain_step(fixed, z_model)[0], fixed, rtol=1e-6)


class TestNormalizeGauge:
    def test_aligned_input_is_identity(self):
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
        coef = identity_coef(grid)
        sites = grid_sites(6)
        _, t = normalize_gauge(DeformationMap(grid, coef), sites)
        assert_allclose(t.rotation, np.eye(2), atol=1e-10)
        assert_allclose(t.shift, 0.0, atol=1e-10)
        assert_allclose(t.scale, 1.0, atol=1e-10)

    def test_rotation_restored(self):
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
        rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
        coef = transform_coef(identity_coef(grid), rot90, np.array([0.3, -0.2]))
        sites = grid_sites(6)
        dmap, _ = normalize_gauge(DeformationMap(grid, coef), sites)
        assert_allclose(dmap(sites), sites, atol=1e-10)

    def test_covariance_invariance_with_coscaled_phi(self):
        rng = np.random.default_rng(15)
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
        base = identity_coef(grid)
        coef = CoefPair(
            2.5 * (base.theta1 + 0.05 * rng.uniform(-1, 1, (4, 4))) + 1.0,
            2.5 * (base.theta2 + 0.05 * rng.uniform(-1, 1, (4, 4))) - 0.5,
        )
        sites = grid_sites(6)
        cov = CovParams(1.0, 0.7, 0.2)
        before = covariance_matrix(sites, DeformationMap(grid, coef), cov)
        dmap, t = normalize_gauge(DeformationMap(grid, coef), sites)
        after = covariance_matrix(sites, dmap, CovParams(cov.sigma2, cov.phi * t.scale, cov.nugget))
        assert np.abs(before - after).max() < 1e-10

    def test_degenerate_coordinates(self):
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
        coef = CoefPair(np.full((4, 4), 0.5), np.full((4, 4), 0.5))
        with pytest.raises(FitError):
            normalize_gauge(DeformationMap(grid, coef), grid_sites(5))


@pytest.fixture(scope="module")
def stationary_dataset():
    sites = grid_sites(7)
    z = simulate_grf(sites, IdentityMap(), CovParams(1.0, 0.3, 0.5), t=80, seed=16)
    return Dataset(sites, z)


class TestFit:
    def test_returns_validated_model(self, stationary_dataset):
        model = fit(stationary_dataset, FitConfig(k1=4, k2=4, max_outer=3))
        assert isinstance(model, DeformModel)
        assert model.coef.validated
        assert min_jacobian(model.mapping()) > 0
        assert model.diagnostics.iterations >= 1
        assert len(model.diagnostics.loglik) == model.diagnostics.iterations

    def test_infinite_tol_single_iteration(self, stationary_dataset):
        model = fit(stationary_dataset, FitConfig(k1=4, k2=4, tol=np.inf))
        assert model.diagnostics.iterations == 1
        assert model.diagnostics.converged
        assert model.diagnostics.penalty_weights == [0.0]

    def test_deterministic(self, stationary_dataset):
        cfg = FitConfig(k1=4, k2=4, max_outer=2)
        a = fit(stationary_dataset, cfg)
        b = fit(stationary_dataset, cfg)
        assert a.diagnostics.loglik == b.diagnostics.loglik
        assert np.array_equal(a.coef.theta1, b.coef.theta1)
        assert a.cov == b.cov

    def test_margins_recorded(self, stationary_dataset):
        model = fit(stationary_dataset, FitConfig(k1=4, k2=4, max_outer=2))
        assert len(model.diagnostics.margins) == model.diagnostics.iterations
        assert all(np.isfinite(m) for m in model.diagnostics.margins)

    def test_penalty_weights_recorded(self, stationary_dataset):
        model = fit(stationary_dataset, FitConfig(k1=4, k2=4, tol=0.0, max_outer=3))
        d = model.diagnostics
        assert len(d.penalty_weights) == d.iterations == 3
        # the weight starts unpenalized and is then estimated from the data
        assert d.penalty_weights[0] == 0.0
        assert all(np.isfinite(v) and v > 0 for v in d.penalty_weights[1:])
        assert 0 < d.effective_dof < 2 * 16 - 3

    def test_requires_validated_coef(self):
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
        with pytest.raises(ValueError):
            DeformModel(grid, identity_coef(grid), CovParams(1.0, 1.0), 0.0, FitDiagnostics())

    def test_structureless_dispersions_fail_initialization(self):
        rng = np.random.default_rng(18)
        sites = grid_sites(5)
        z = np.tile(rng.normal(size=60), (25, 1))  # all dispersions exactly zero
        with pytest.raises(FitError, match="initialization"):
            fit(Dataset(sites, z), FitConfig(k1=4, k2=4))

    def test_step_error_carries_iteration_and_best_model(self, stationary_dataset, monkeypatch):
        import spatdeform.estimation as est

        real_step_cov = est.step_cov
        calls = {"n": 0}

        def flaky_step_cov(dataset, mapping, cov_init):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise NumericalError("synthetic failure")
            return real_step_cov(dataset, mapping, cov_init)

        monkeypatch.setattr(est, "step_cov", flaky_step_cov)
        with pytest.raises(FitError, match="outer iteration 2") as excinfo:
            est.fit(stationary_dataset, FitConfig(k1=4, k2=4, tol=0.0, max_outer=5))
        assert isinstance(excinfo.value.best_model, DeformModel)

    def test_best_model_ranked_at_the_last_weight(self, stationary_dataset, monkeypatch):
        # the weight changes between passes, so the iterates are compared
        # by their penalized loglik at the weight of the last pass
        import spatdeform.estimation as est

        real_step_cov, real_normalize = est.step_cov, est.normalize_gauge
        calls = {"n": 0}
        iterates = []

        def flaky_step_cov(dataset, mapping, cov_init):
            calls["n"] += 1
            if calls["n"] >= 4:
                raise NumericalError("synthetic failure")
            return real_step_cov(dataset, mapping, cov_init)

        def recording_normalize(dmap, sites):
            out = real_normalize(dmap, sites)
            iterates.append(out[0].coef)
            return out

        monkeypatch.setattr(est, "step_cov", flaky_step_cov)
        monkeypatch.setattr(est, "normalize_gauge", recording_normalize)
        with pytest.raises(FitError, match="outer iteration 4") as excinfo:
            est.fit(stationary_dataset, FitConfig(k1=4, k2=4, tol=0.0, max_outer=5))
        best = excinfo.value.best_model
        d = best.diagnostics
        assert len(iterates) == len(d.loglik) == 3
        assert d.penalty_weights[-1] > 0
        pen = SmoothnessPenalty.for_sites(best.grid, stationary_dataset.sites)
        pll = [ll - 0.5 * d.penalty_weights[-1] * pen.value_and_grad(coef_to_vec(c))[0]
               for ll, c in zip(d.loglik, iterates)]
        expected = iterates[int(np.argmax(pll))]
        assert np.array_equal(coef_to_vec(best.coef), coef_to_vec(expected))

    def test_no_constrained_least_squares_after_initialization(
            self, stationary_dataset, monkeypatch):
        # the dispersions are re-embedded and smoothed only by sg_initialize;
        # the outer passes start from its affine fit and ascend the likelihood
        import spatdeform.estimation as est
        import spatdeform.smoothers as smoothers

        real_fit_ls, real_init = smoothers.fit_bspline_constrained, est.sg_initialize
        calls = {"n": 0, "after_init": None}

        def counting_fit_ls(*args, **kwargs):
            calls["n"] += 1
            return real_fit_ls(*args, **kwargs)

        def recording_init(*args, **kwargs):
            out = real_init(*args, **kwargs)
            calls["after_init"] = calls["n"]
            return out

        monkeypatch.setattr(smoothers, "fit_bspline_constrained", counting_fit_ls)
        monkeypatch.setattr(est, "sg_initialize", recording_init)
        model = est.fit(stationary_dataset, FitConfig(k1=4, k2=4, tol=0.0, max_outer=3))
        assert model.diagnostics.iterations == 3
        assert calls["after_init"] is not None
        assert calls["n"] == calls["after_init"]

    def test_optimizer_warnings_are_recorded(self, stationary_dataset, monkeypatch,
                                             tmp_path):
        # a warning of the likelihood ascent is issued again and kept in the
        # diagnostics, which the model file carries
        import warnings

        import spatdeform.estimation as est
        from spatdeform import modelio

        real_refine = est.refine_coords_ml
        calls = {"n": 0}

        def warning_refine(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                warnings.warn("likelihood ascent: synthetic stall", RuntimeWarning)
            return real_refine(*args, **kwargs)

        monkeypatch.setattr(est, "refine_coords_ml", warning_refine)
        with pytest.warns(RuntimeWarning, match="synthetic stall"):
            model = est.fit(stationary_dataset,
                            FitConfig(k1=4, k2=4, tol=0.0, max_outer=3))
        assert "pass 2: likelihood ascent: synthetic stall" in model.diagnostics.messages
        path = tmp_path / "model.json"
        modelio.save_model(model, path)
        assert modelio.load_model(path).diagnostics.messages == model.diagnostics.messages

    def test_returned_models_meet_the_margin(self, stationary_dataset, monkeypatch):
        # a gauge that shrinks the plane 100-fold scales every corner |J|
        # by 1e-4, below the margin; the returned model, and the best model
        # of a FitError, are lifted back to it without changing the
        # covariance they imply
        import spatdeform.estimation as est

        real_normalize, real_step_cov = est.normalize_gauge, est.step_cov

        def shrinking_normalize(dmap, sites):
            out, t = real_normalize(dmap, sites)
            centre = np.mean(sites, axis=0)
            coef = transform_coef(out.coef, np.eye(2), 0.99 * centre, 0.01)
            return DeformationMap(out.grid, coef), replace(t, scale=0.01 * t.scale)

        monkeypatch.setattr(est, "normalize_gauge", shrinking_normalize)
        ds = stationary_dataset
        model = est.fit(ds, FitConfig(k1=4, k2=4, tol=0.0, max_outer=2))
        eps = default_epsilon(model.grid)
        margin = corner_values(model.grid, model.coef).min()
        assert model.coef.validated
        assert eps <= margin < 1.01 * eps
        assert model.diagnostics.margins[-1] == margin
        assert_allclose(loglik(ds, model.mapping(), model.cov),
                        model.diagnostics.loglik[-1], rtol=1e-12)

        calls = {"n": 0}

        def flaky_step_cov(dataset, mapping, cov_init):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise NumericalError("synthetic failure")
            return real_step_cov(dataset, mapping, cov_init)

        monkeypatch.setattr(est, "step_cov", flaky_step_cov)
        with pytest.raises(FitError, match="outer iteration 3") as excinfo:
            est.fit(ds, FitConfig(k1=4, k2=4, tol=0.0, max_outer=5))
        best = excinfo.value.best_model
        margin = corner_values(best.grid, best.coef).min()
        assert eps <= margin < 1.01 * eps
        assert margin in best.diagnostics.margins
        assert_allclose(loglik(ds, best.mapping(), best.cov),
                        best.diagnostics.loglik[best.diagnostics.margins.index(margin)],
                        rtol=1e-12)

    def test_likelihood_ascent_converges(self, monkeypatch):
        # the simulation study's K=8 fit of seed 1: every SLSQP ascent of
        # the coefficients ends in success, none at its iteration cap
        import warnings

        import spatdeform.estimation as est

        real_minimize = est.minimize
        outcomes = []

        def recording_minimize(*args, **kwargs):
            res = real_minimize(*args, **kwargs)
            if kwargs.get("method") == "SLSQP":
                outcomes.append((res.success, res.message))
            return res

        monkeypatch.setattr(est, "minimize", recording_minimize)
        g = np.linspace(0.0, 1.0, 11)
        sites = np.column_stack([a.ravel() for a in np.meshgrid(g, g, indexing="ij")])
        swirl = Swirl(center=(0.5, 0.5), strength=1.5, radius=0.35)
        z = simulate_grf(sites, swirl, CovParams(1.0, 0.25, 1.0), t=100, seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = est.fit(Dataset(sites, z), FitConfig(k1=8, k2=8))
        assert len(outcomes) == model.diagnostics.iterations
        assert all(ok for ok, _ in outcomes), outcomes
        assert not [w for w in caught if "likelihood ascent" in str(w.message)]

    def test_k2_degenerate_capacity_on_stationary_data(self):
        # a 2 x 2 coefficient grid can only express bilinear maps; on
        # stationary data it should stay near the identity and still
        # recover the covariance parameters
        sites = grid_sites(8)
        truth = CovParams(1.0, 0.3, 0.5)
        z = simulate_grf(sites, IdentityMap(), truth, t=400, seed=17)
        model = fit(Dataset(sites, z), FitConfig(k1=2, k2=2))
        assert set(model.diagnostics.penalty_weights) == {0.0}
        fitted = model.mapping()(sites)
        rms = np.sqrt(np.mean(np.sum((fitted - sites) ** 2, axis=1)))
        assert rms < 0.1
        assert abs(model.cov.sigma2 - truth.sigma2) / truth.sigma2 < 0.25
        assert abs(model.cov.phi - truth.phi) / truth.phi < 0.25
        assert abs(model.cov.nugget - truth.nugget) / truth.nugget < 0.25
