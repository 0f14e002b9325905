import tracemalloc
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from spatdeform.basis import KnotGrid
from spatdeform.covariance import CovParams, covariance_matrix, exp_covariance
from spatdeform.deformation import CoefPair, identity_coef
from spatdeform.errors import DomainError, NumericalError
from spatdeform.estimation import DeformModel, FitDiagnostics
from spatdeform.fields import (
    KrigingSystem,
    Swirl,
    conditional_simulate,
    krige,
    psd_root,
    simulate_grf,
)

from oracles import IdentityMap


def make_model(cov, k=4, lo=0.0, hi=1.0, mean=0.0):
    grid = KnotGrid(lo, hi, lo, hi, k, k)
    coef = identity_coef(grid)
    coef = CoefPair(coef.theta1, coef.theta2, validated=True)
    return DeformModel(grid=grid, coef=coef, cov=cov, mean=mean, diagnostics=FitDiagnostics())


def dense_conditional_cov(cov, sites, pred):
    """Conditional covariance of the prediction sites from the dense
    formula, C22 - C12^T C11^-1 C12, with the nugget on both diagonals."""
    c11 = cov.sigma2 * np.exp(-cdist(sites, sites) / cov.phi) + cov.nugget * np.eye(len(sites))
    c12 = cov.sigma2 * np.exp(-cdist(sites, pred) / cov.phi)
    c22 = cov.sigma2 * np.exp(-cdist(pred, pred) / cov.phi) + cov.nugget * np.eye(len(pred))
    return c22 - c12.T @ np.linalg.solve(c11, c12)


class TestSwirl:
    def test_center_fixed_point(self):
        s = Swirl((0.5, 0.5), 1.5, 0.35)
        assert_allclose(s([0.5, 0.5]), [0.5, 0.5], atol=1e-15)

    def test_zero_strength_identity(self):
        s = Swirl((0.5, 0.5), 0.0, 0.35)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, (20, 2))
        assert_allclose(s(pts), pts, atol=1e-15)

    def test_area_preserving_jacobian(self):
        s = Swirl((0.5, 0.5), 1.5, 0.35)
        rng = np.random.default_rng(1)
        h = 1e-6
        for x in rng.uniform(0.05, 0.95, (100, 2)):
            d1 = (s(x + [h, 0]) - s(x - [h, 0])) / (2 * h)
            d2 = (s(x + [0, h]) - s(x - [0, h])) / (2 * h)
            det = d1[0] * d2[1] - d2[0] * d1[1]
            assert abs(det - 1.0) < 1e-6

    def test_inverse_composition(self):
        s = Swirl((0.4, 0.6), 1.2, 0.3)
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, (50, 2))
        assert np.abs(s.inverse()(s(pts)) - pts).max() < 1e-10

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            Swirl((0, 0), 1.0, 0.0)


class TestSimulateGrf:
    def test_deterministic_given_seed(self):
        sites = np.random.default_rng(3).uniform(0, 1, (10, 2))
        cov = CovParams(1.0, 0.3, 0.2)
        a = simulate_grf(sites, IdentityMap(), cov, t=5, seed=42)
        b = simulate_grf(sites, IdentityMap(), cov, t=5, seed=42)
        assert np.array_equal(a, b)

    def test_white_noise_limit(self):
        sites = np.random.default_rng(4).uniform(0, 1, (6, 2))
        cov = CovParams(1e-12, 0.3, 1.0)
        z = simulate_grf(sites, IdentityMap(), cov, t=20000, seed=5)
        s = np.cov(z)
        off = s - np.diag(np.diag(s))
        assert np.abs(off).max() < 0.05
        assert_allclose(np.diag(s), 1.0, atol=0.05)

    def test_empirical_covariance_converges(self):
        rng = np.random.default_rng(6)
        sites = rng.uniform(0, 1, (10, 2))
        cov = CovParams(1.0, 0.4, 0.3)
        c = covariance_matrix(sites, IdentityMap(), cov)
        z = simulate_grf(sites, IdentityMap(), cov, t=20000, seed=7)
        s = np.cov(z)
        rel = np.linalg.norm(s - c) / np.linalg.norm(c)
        assert rel < 0.05

    def test_through_deformation(self):
        sites = np.random.default_rng(8).uniform(0, 1, (8, 2))
        z = simulate_grf(sites, Swirl(), CovParams(1.0, 0.25, 0.5), t=3, seed=9)
        assert z.shape == (8, 3)


class TestKrige:
    def test_exact_interpolation_no_nugget(self):
        rng = np.random.default_rng(10)
        sites = rng.uniform(0.1, 0.9, (8, 2))
        model = make_model(CovParams(1.0, 0.3, 0.0))
        values = rng.normal(size=8)
        res = krige(model, sites, values, sites)
        assert_allclose(res.mean, values, atol=1e-8)
        assert_allclose(res.variance, 0.0, atol=1e-8)

    def test_decorrelation_limit(self):
        model = make_model(CovParams(1.5, 0.01, 0.5), lo=0.0, hi=1.0, mean=2.0)
        sites = np.array([[0.05, 0.05], [0.1, 0.05], [0.05, 0.1], [0.1, 0.1]])
        values = np.array([4.0, 5.0, 3.0, 6.0])
        res = krige(model, sites, values, np.array([[0.9, 0.9]]))
        assert_allclose(res.mean, 2.0, atol=1e-6)
        assert_allclose(res.variance, 2.0, atol=1e-6)

    def test_conditional_gaussian_oracle(self):
        # dense conditional-distribution formula on a 5 + 3 split
        rng = np.random.default_rng(11)
        sites = rng.uniform(0.1, 0.9, (5, 2))
        pred = rng.uniform(0.1, 0.9, (3, 2))
        cov = CovParams(1.2, 0.35, 0.4)
        mean = 1.3
        model = make_model(cov, mean=mean)
        values = rng.normal(size=5)

        c11 = cov.sigma2 * np.exp(-cdist(sites, sites) / cov.phi) + cov.nugget * np.eye(5)
        c12 = cov.sigma2 * np.exp(-cdist(sites, pred) / cov.phi)
        c22 = cov.sigma2 * np.exp(-cdist(pred, pred) / cov.phi) + cov.nugget * np.eye(3)
        cinv = np.linalg.inv(c11)
        mu = mean + c12.T @ cinv @ (values - mean)
        sig = c22 - c12.T @ cinv @ c12

        res = krige(model, sites, values, pred)
        assert_allclose(res.mean, mu, atol=1e-8)
        assert_allclose(res.variance, np.diag(sig), atol=1e-8)

    def test_variance_bounds(self):
        rng = np.random.default_rng(12)
        sites = rng.uniform(0.0, 1.0, (15, 2))
        cov = CovParams(1.0, 0.25, 0.5)
        model = make_model(cov)
        values = rng.normal(size=15)
        pred = rng.uniform(0.0, 1.0, (1000, 2))
        res = krige(model, sites, values, pred)
        assert np.all(res.variance >= 0.0)
        assert np.all(res.variance <= cov.sigma2 + cov.nugget + 1e-12)

    def test_out_of_domain_prediction(self):
        model = make_model(CovParams(1.0, 0.3, 0.1))
        sites = np.random.default_rng(13).uniform(0, 1, (5, 2))
        with pytest.raises(DomainError):
            krige(model, sites, np.zeros(5), np.array([[1.5, 0.5]]))

    @pytest.mark.parametrize("sill", [1e6, 1e8])
    def test_exact_prediction_at_large_sill(self, sill):
        # the variance rounds to about 1e-15 of the sill, not to 1e-15
        rng = np.random.default_rng(19)
        sites = rng.uniform(0.05, 0.95, (60, 2))
        model = make_model(CovParams(sill, 0.3, 0.0))
        values = np.sqrt(sill) * rng.normal(size=60)
        res = krige(model, sites, values, sites)
        assert_allclose(res.mean, values, rtol=0, atol=1e-6 * np.sqrt(sill))
        assert np.all(res.variance <= 1e-10 * sill)

    def test_singular_system(self):
        model = make_model(CovParams(1.0, 0.3, 0.0))
        sites = np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.2], [0.8, 0.8]])
        with pytest.raises(NumericalError):
            krige(model, sites, np.zeros(4), np.array([[0.4, 0.4]]))


class TestKrigeAtNetworkScale:
    # V = L^-1 K comes from the explicit inverse factor; a dense Cholesky
    # solve with C is the reference for everything that reads V, on 250
    # sites and a prediction set of every site and 1000 other points
    @pytest.mark.parametrize("nugget, phi, cond", [
        (0.0, 0.05, 1e2), (0.0, 0.5, 2e4), (0.0, 20.0, 2e6), (0.1, 0.1, 2e2), (1e-3, 5.0, 2e5),
    ])
    def test_matches_the_dense_solve(self, nugget, phi, cond):
        rng = np.random.default_rng(31)
        sites = rng.uniform(0.0, 1.0, (250, 2))
        pred = np.vstack([rng.uniform(0.0, 1.0, (1000, 2)), sites])
        cov = CovParams(2.5, phi, nugget)
        scale = cov.sigma2 + cov.nugget
        mean = 1.3
        values = mean + simulate_grf(sites, IdentityMap(), cov, t=1, seed=32).ravel()
        system = KrigingSystem(make_model(cov, mean=mean), sites, values, pred)
        res = system.krige()
        root = system.conditional_root()

        c11 = covariance_matrix(sites, IdentityMap(), cov)
        assert cond / 3 < np.linalg.cond(c11) < 3 * cond
        c12 = cov.sigma2 * np.exp(-cdist(sites, pred) / cov.phi)
        w = cho_solve(cho_factor(c11, lower=True), c12)
        tol = 1e-10 * scale
        assert_allclose(res.mean, mean + w.T @ (values - mean), rtol=0, atol=tol)
        assert_allclose(res.variance, scale - np.einsum("ij,ij->j", c12, w), rtol=0, atol=tol)
        c22 = covariance_matrix(pred, IdentityMap(), cov)
        assert_allclose(root @ root.T, c22 - c12.T @ w, rtol=0, atol=tol)


class TestKrigingMemory:
    def test_cross_covariance_is_multiplied_in_place(self):
        # V overwrites the cross-covariance, so the peak holds it and the
        # distances it is built from, and no copy
        rng = np.random.default_rng(33)
        n, m = 400, 10_000
        sites = rng.uniform(0.0, 1.0, (n, 2))
        pred = rng.uniform(0.0, 1.0, (m, 2))
        built = []

        def record(*args, **kwargs):
            built.append(exp_covariance(*args, **kwargs))
            return built[-1]

        with mock.patch("spatdeform.fields.exp_covariance", side_effect=record):
            tracemalloc.start()
            try:
                system = KrigingSystem(make_model(CovParams(1.0, 0.3, 0.1)), sites,
                                       rng.normal(size=n), pred)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2.5 * n * m * 8
        assert np.shares_memory(system.v, built[-1])


class TestConditionalSimulate:
    def test_deterministic(self):
        rng = np.random.default_rng(14)
        sites = rng.uniform(0.1, 0.9, (6, 2))
        model = make_model(CovParams(1.0, 0.3, 0.2))
        values = rng.normal(size=6)
        pred = rng.uniform(0.1, 0.9, (4, 2))
        a = conditional_simulate(model, sites, values, pred, n_draws=1, seed=3)
        b = conditional_simulate(model, sites, values, pred, n_draws=1, seed=3)
        assert np.array_equal(a, b)

    def test_mean_converges_to_kriging_mean(self):
        rng = np.random.default_rng(15)
        sites = rng.uniform(0.1, 0.9, (6, 2))
        cov = CovParams(1.0, 0.3, 0.2)
        model = make_model(cov)
        values = rng.normal(size=6)
        pred = rng.uniform(0.1, 0.9, (4, 2))
        res = krige(model, sites, values, pred)
        draws = conditional_simulate(model, sites, values, pred, n_draws=10000, seed=16)
        se = np.sqrt(res.variance / 10000)
        assert np.all(np.abs(draws.mean(axis=1) - res.mean) <= 3 * se + 1e-12)

    def test_no_nugget_at_data_site_is_exact(self):
        rng = np.random.default_rng(17)
        sites = rng.uniform(0.1, 0.9, (5, 2))
        model = make_model(CovParams(1.0, 0.3, 0.0))
        values = rng.normal(size=5)
        draws = conditional_simulate(model, sites, values, sites[:2], n_draws=50, seed=18)
        assert np.abs(draws - values[:2, None]).max() < 1e-6


class TestConditionalRoot:
    def test_full_rank_reproduces_the_conditional_covariance(self):
        rng = np.random.default_rng(20)
        sites = rng.uniform(0.1, 0.9, (12, 2))
        pred = rng.uniform(0.1, 0.9, (30, 2))
        cov = CovParams(1.2, 0.35, 0.4)
        system = KrigingSystem(make_model(cov), sites, rng.normal(size=12), pred)
        root = system.conditional_root()
        assert root.shape == (30, 30)
        assert_allclose(root @ root.T, dense_conditional_cov(cov, sites, pred),
                        rtol=0, atol=1e-10 * (cov.sigma2 + cov.nugget))

    def test_rank_deficient_reproduces_the_conditional_covariance(self):
        # no nugget: two prediction sites are data sites and one is repeated
        rng = np.random.default_rng(21)
        sites = rng.uniform(0.1, 0.9, (12, 2))
        other = rng.uniform(0.1, 0.9, (20, 2))
        pred = np.vstack([other[:10], sites[[3, 7]], other[10:], other[4:5]])
        cov = CovParams(1.2, 0.35, 0.0)
        system = KrigingSystem(make_model(cov), sites, rng.normal(size=12), pred)
        root = system.conditional_root()
        assert root.shape == (23, 20)
        assert_allclose(root @ root.T, dense_conditional_cov(cov, sites, pred),
                        rtol=0, atol=1e-10 * cov.sigma2)

    def test_semidefinite_matrix(self):
        q, _ = np.linalg.qr(np.random.default_rng(22).normal(size=(5, 5)))
        a = (q * [1.0, 0.6, 0.3, 0.1, 0.0]) @ q.T
        root = psd_root(a, 1.0)
        assert root.shape == (5, 4)
        assert_allclose(root @ root.T, a, rtol=0, atol=1e-10)

    def test_indefinite_matrix_raises(self):
        q, _ = np.linalg.qr(np.random.default_rng(22).normal(size=(5, 5)))
        a = 3.0 * (q * [1.0, 0.6, 0.3, 0.1, -1e-3]) @ q.T
        with pytest.raises(NumericalError, match="not positive semidefinite"):
            psd_root(a, 3.0)

    def test_draws_have_the_conditional_covariance(self):
        # the 5 + 3 split of test_conditional_gaussian_oracle; a root whose
        # rows are not placed by the pivots has the right variances' mean
        # but the wrong covariance
        rng = np.random.default_rng(11)
        sites = rng.uniform(0.1, 0.9, (5, 2))
        pred = rng.uniform(0.1, 0.9, (3, 2))
        cov = CovParams(1.2, 0.35, 0.4)
        model = make_model(cov, mean=1.3)
        values = rng.normal(size=5)
        n = 40000
        draws = conditional_simulate(model, sites, values, pred, n_draws=n, seed=23)
        sig = dense_conditional_cov(cov, sites, pred)
        d = np.diag(sig)
        se = np.sqrt((np.outer(d, d) + sig**2) / n)
        assert np.all(np.abs(np.cov(draws) - sig) <= 4 * se)

    def test_repeated_sites_draw_alike_without_nugget(self):
        rng = np.random.default_rng(24)
        sites = rng.uniform(0.1, 0.9, (8, 2))
        other = rng.uniform(0.1, 0.9, (4, 2))
        pred = np.vstack([other, other[[2, 0]]])
        model = make_model(CovParams(1.0, 0.3, 0.0))
        draws = conditional_simulate(model, sites, rng.normal(size=8), pred, n_draws=200, seed=25)
        assert np.std(draws[0]) > 0.1
        assert_allclose(draws[[4, 5]], draws[[2, 0]], rtol=0, atol=1e-12)
