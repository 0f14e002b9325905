from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from spatdeform.basis import KnotGrid
from spatdeform.covariance import CovParams, covariance_matrix, exp_covariance
from spatdeform.deformation import identity_coef
from spatdeform.errors import DomainError, NumericalError
from spatdeform.estimation import DeformModel, FitDiagnostics
from spatdeform.fields import KrigingSystem, Swirl, simulate_grf

from oracles import IdentityMap, pivoted_root


def make_model(cov, k=4, lo=0.0, hi=1.0, mean=0.0):
    grid = KnotGrid(lo, hi, lo, hi, k, k)
    coef = identity_coef(grid)
    return DeformModel(grid=grid, coef=coef, cov=cov, mean=mean, diagnostics=FitDiagnostics())


def dense_conditional_cov(cov, sites, pred):
    """Conditional covariance of the prediction sites from the dense
    formula, C22 - C12^T C11^-1 C12, with the nugget on both diagonals."""
    c11 = cov.sigma2 * np.exp(-cdist(sites, sites) / cov.phi) + cov.nugget * np.eye(len(sites))
    c12 = cov.sigma2 * np.exp(-cdist(sites, pred) / cov.phi)
    c22 = cov.sigma2 * np.exp(-cdist(pred, pred) / cov.phi) + cov.nugget * np.eye(len(pred))
    return c22 - c12.T @ np.linalg.solve(c11, c12)


def full_rank_system():
    """12 data sites and 30 prediction sites, with a nugget."""
    rng = np.random.default_rng(20)
    sites = rng.uniform(0.1, 0.9, (12, 2))
    pred = rng.uniform(0.1, 0.9, (30, 2))
    cov = CovParams(1.2, 0.35, 0.4)
    return KrigingSystem(make_model(cov), sites, rng.normal(size=12), pred), sites, pred


def rank_deficient_system():
    """No nugget: of 23 prediction sites two are data sites and one is
    repeated, so the conditional covariance has rank 20."""
    rng = np.random.default_rng(21)
    sites = rng.uniform(0.1, 0.9, (12, 2))
    other = rng.uniform(0.1, 0.9, (20, 2))
    pred = np.vstack([other[:10], sites[[3, 7]], other[10:], other[4:5]])
    cov = CovParams(1.2, 0.35, 0.0)
    return KrigingSystem(make_model(cov), sites, rng.normal(size=12), pred), sites, pred


def system_with_conditional_cov(eigenvalues):
    """A kriging system of 5 prediction sites whose conditional covariance
    is a = Q diag(eigenvalues) Q^T times half the least eigenvalue of the
    prior: V is replaced by a root of K_pp - a, padded to 8 data sites."""
    rng = np.random.default_rng(22)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    cov = CovParams(1.0, 0.3, 0.0)
    system = KrigingSystem(make_model(cov), rng.uniform(0.1, 0.9, (8, 2)), np.zeros(8),
                           rng.uniform(0.1, 0.9, (5, 2)))
    prior = exp_covariance(cdist(system.yp, system.yp), cov)
    a = 0.5 * np.linalg.eigvalsh(prior)[0] * (q * eigenvalues) @ q.T
    system.v = np.vstack([np.linalg.cholesky(prior - a).T, np.zeros((3, 5))])
    return system, a


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
        res = KrigingSystem(model, sites, values, sites).krige()
        assert_allclose(res.mean, values, atol=1e-8)
        assert_allclose(res.variance, 0.0, atol=1e-8)

    def test_decorrelation_limit(self):
        model = make_model(CovParams(1.5, 0.01, 0.5), lo=0.0, hi=1.0, mean=2.0)
        sites = np.array([[0.05, 0.05], [0.1, 0.05], [0.05, 0.1], [0.1, 0.1]])
        values = np.array([4.0, 5.0, 3.0, 6.0])
        res = KrigingSystem(model, sites, values, np.array([[0.9, 0.9]])).krige()
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

        res = KrigingSystem(model, sites, values, pred).krige()
        assert_allclose(res.mean, mu, atol=1e-8)
        assert_allclose(res.variance, np.diag(sig), atol=1e-8)

    def test_variance_bounds(self):
        rng = np.random.default_rng(12)
        sites = rng.uniform(0.0, 1.0, (15, 2))
        cov = CovParams(1.0, 0.25, 0.5)
        model = make_model(cov)
        values = rng.normal(size=15)
        pred = rng.uniform(0.0, 1.0, (1000, 2))
        res = KrigingSystem(model, sites, values, pred).krige()
        assert np.all(res.variance >= 0.0)
        assert np.all(res.variance <= cov.sigma2 + cov.nugget + 1e-12)

    def test_out_of_domain_prediction(self):
        model = make_model(CovParams(1.0, 0.3, 0.1))
        sites = np.random.default_rng(13).uniform(0, 1, (5, 2))
        with pytest.raises(DomainError):
            KrigingSystem(model, sites, np.zeros(5), np.array([[1.5, 0.5]])).krige()

    @pytest.mark.parametrize("sill", [1e6, 1e8])
    def test_exact_prediction_at_large_sill(self, sill):
        # the variance rounds to about 1e-15 of the sill, not to 1e-15
        rng = np.random.default_rng(19)
        sites = rng.uniform(0.05, 0.95, (60, 2))
        model = make_model(CovParams(sill, 0.3, 0.0))
        values = np.sqrt(sill) * rng.normal(size=60)
        res = KrigingSystem(model, sites, values, sites).krige()
        assert_allclose(res.mean, values, rtol=0, atol=1e-6 * np.sqrt(sill))
        assert np.all(res.variance <= 1e-10 * sill)

    def test_singular_system(self):
        model = make_model(CovParams(1.0, 0.3, 0.0))
        sites = np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.2], [0.8, 0.8]])
        with pytest.raises(NumericalError):
            KrigingSystem(model, sites, np.zeros(4), np.array([[0.4, 0.4]])).krige()


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
        root = pivoted_root(*system.conditional_factor())

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
    # each guard bounds the peak that numpy allocates in one call; a second
    # full-size array in the call would exceed its bound
    def test_cross_covariance_is_multiplied_in_place(self, traced_peak):
        # K is built over the (m, n) distances and V over K: the peak holds
        # one array of that size
        rng = np.random.default_rng(33)
        n, m = 400, 10_000
        sites = rng.uniform(0.0, 1.0, (n, 2))
        pred = rng.uniform(0.0, 1.0, (m, 2))
        built = []

        def record(*args):
            built.append(cdist(*args))
            return built[-1]

        with mock.patch("spatdeform.fields.cdist", side_effect=record):
            system, peak = traced_peak(KrigingSystem, make_model(CovParams(1.0, 0.3, 0.1)),
                                       sites, rng.normal(size=n), pred)
        assert peak < 1.5 * n * m * 8
        assert np.shares_memory(system.v, built[-1])

    def test_draws_factor_the_conditional_covariance_in_place(self, traced_peak):
        # the prior, the conditional covariance and its pivoted factor share
        # one (m, m) array, and no root of it is formed
        rng = np.random.default_rng(35)
        n, m = 400, 1500
        system = KrigingSystem(make_model(CovParams(1.0, 0.3, 0.1)), rng.uniform(0.0, 1.0, (n, 2)),
                               rng.normal(size=n), rng.uniform(0.0, 1.0, (m, 2)))
        draws, peak = traced_peak(system.simulate, 20, 36)
        assert draws.shape == (m, 20)
        assert peak < 1.5 * m * m * 8


class TestConditionalSimulate:
    def test_deterministic(self):
        rng = np.random.default_rng(14)
        sites = rng.uniform(0.1, 0.9, (6, 2))
        model = make_model(CovParams(1.0, 0.3, 0.2))
        values = rng.normal(size=6)
        pred = rng.uniform(0.1, 0.9, (4, 2))
        a = KrigingSystem(model, sites, values, pred).simulate(1, 3)
        b = KrigingSystem(model, sites, values, pred).simulate(1, 3)
        assert np.array_equal(a, b)

    def test_mean_converges_to_kriging_mean(self):
        rng = np.random.default_rng(15)
        sites = rng.uniform(0.1, 0.9, (6, 2))
        cov = CovParams(1.0, 0.3, 0.2)
        model = make_model(cov)
        values = rng.normal(size=6)
        pred = rng.uniform(0.1, 0.9, (4, 2))
        system = KrigingSystem(model, sites, values, pred)
        res, draws = system.krige(), system.simulate(10000, 16)
        se = np.sqrt(res.variance / 10000)
        assert np.all(np.abs(draws.mean(axis=1) - res.mean) <= 3 * se + 1e-12)

    def test_no_nugget_at_data_site_is_exact(self):
        rng = np.random.default_rng(17)
        sites = rng.uniform(0.1, 0.9, (5, 2))
        model = make_model(CovParams(1.0, 0.3, 0.0))
        values = rng.normal(size=5)
        draws = KrigingSystem(model, sites, values, sites[:2]).simulate(50, 18)
        assert np.abs(draws - values[:2, None]).max() < 1e-6


class TestConditionalRoot:
    # R is the root that the oracle rebuilds from the pivoted factor
    def test_full_rank_reproduces_the_conditional_covariance(self):
        system, sites, pred = full_rank_system()
        root = pivoted_root(*system.conditional_factor())
        assert root.shape == (30, 30)
        assert_allclose(root @ root.T, dense_conditional_cov(system.cov, sites, pred),
                        rtol=0, atol=1e-10 * system.scale)

    def test_rank_deficient_reproduces_the_conditional_covariance(self):
        system, sites, pred = rank_deficient_system()
        root = pivoted_root(*system.conditional_factor())
        assert root.shape == (23, 20)
        assert_allclose(root @ root.T, dense_conditional_cov(system.cov, sites, pred),
                        rtol=0, atol=1e-10 * system.scale)

    @pytest.mark.parametrize("make", [full_rank_system, rank_deficient_system])
    def test_draws_apply_the_factor(self, make):
        # the draws are the mean plus R N, with N the same standard normals
        system = make()[0]
        root = pivoted_root(*system.conditional_factor())
        normal = np.random.default_rng(37).standard_normal((root.shape[1], 4))
        assert_allclose(system.simulate(4, 37), system.mean[:, None] + root @ normal,
                        rtol=0, atol=1e-12 * system.scale)

    def test_semidefinite_matrix(self):
        system, a = system_with_conditional_cov([1.0, 0.6, 0.3, 0.1, 0.0])
        root = pivoted_root(*system.conditional_factor())
        assert root.shape == (5, 4)
        # 1e-10 of the largest eigenvalue
        assert_allclose(root @ root.T, a, rtol=0, atol=1e-10 * np.linalg.norm(a, 2))

    def test_indefinite_matrix_raises(self):
        system, _ = system_with_conditional_cov([1.0, 0.6, 0.3, 0.1, -1e-3])
        with pytest.raises(NumericalError, match="not positive semidefinite"):
            system.simulate(3, 38)

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
        draws = KrigingSystem(model, sites, values, pred).simulate(n, 23)
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
        draws = KrigingSystem(model, sites, rng.normal(size=8), pred).simulate(200, 25)
        assert np.std(draws[0]) > 0.1
        assert_allclose(draws[[4, 5]], draws[[2, 0]], rtol=0, atol=1e-12)
