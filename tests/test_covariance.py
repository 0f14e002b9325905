import numpy as np
import pytest
from numpy.testing import assert_allclose

from spatdeform import covariance
from spatdeform.basis import KnotGrid
from spatdeform.covariance import (
    CovParams,
    DispersionMatrix,
    VariogramModel,
    covariance_matrix,
    distinct_distances,
    factor_covariance,
    fit_variogram,
    sample_dispersions,
    variogram_inverse,
)
from spatdeform.deformation import DeformationMap, identity_coef
from spatdeform.errors import DataError, FitError, NumericalError

from oracles import correlation


def identity_map(pts):
    return np.asarray(pts, dtype=float)


class TestCovParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CovParams(sigma2=0.0, phi=1.0)
        with pytest.raises(ValueError):
            CovParams(sigma2=1.0, phi=-1.0)
        with pytest.raises(ValueError):
            CovParams(sigma2=1.0, phi=1.0, nugget=-0.1)


class TestCorrelation:
    def test_zero_distance(self):
        assert correlation(0.0, CovParams(1.0, 0.5)) == 1.0

    def test_at_range(self):
        assert_allclose(correlation(0.5, CovParams(1.0, 0.5)), np.exp(-1.0))

    def test_paper_range_quarter(self):
        assert_allclose(correlation(0.25, CovParams(1.0, 0.25)), np.exp(-1.0))

    def test_negative_distance(self):
        with pytest.raises(ValueError):
            correlation(-0.1, CovParams(1.0, 1.0))

    def test_strictly_decreasing(self):
        p = CovParams(1.0, 0.3)
        h = np.linspace(0, 2, 50)
        assert np.all(np.diff(correlation(h, p)) < 0)


class TestCovarianceMatrix:
    def test_coincident_sites_no_nugget(self):
        c = covariance_matrix([[0.3, 0.3], [0.3, 0.3]], identity_map, CovParams(2.0, 0.5))
        assert_allclose(c, 2.0 * np.ones((2, 2)))

    def test_diagonal_is_sill_plus_nugget(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, (6, 2))
        c = covariance_matrix(pts, identity_map, CovParams(1.5, 0.25, nugget=0.7))
        assert_allclose(np.diag(c), 2.2)

    def test_collinear_sites_hand_values(self):
        sites = [[0.0, 0.0], [0.25, 0.0], [0.5, 0.0]]
        c = covariance_matrix(sites, identity_map, CovParams(1.0, 0.25))
        assert_allclose(c[0, 1], np.exp(-1.0))
        assert_allclose(c[1, 2], np.exp(-1.0))
        assert_allclose(c[0, 2], np.exp(-2.0))

    def test_through_deformation_map(self):
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
        dmap = DeformationMap(grid, identity_coef(grid))
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, (8, 2))
        a = covariance_matrix(pts, dmap, CovParams(1.0, 0.25, 0.5))
        b = covariance_matrix(pts, identity_map, CovParams(1.0, 0.25, 0.5))
        assert_allclose(a, b, atol=1e-12)

    def test_positive_definite_and_cholesky(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, (30, 2))
        c = covariance_matrix(pts, identity_map, CovParams(1.0, 0.3, 0.1))
        factor_covariance(c)

    def test_cholesky_raises_on_singular(self):
        with pytest.raises(NumericalError):
            factor_covariance(np.ones((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_factor_raises_on_non_finite_entries(self, bad):
        pts = np.random.default_rng(3).uniform(0, 1, (6, 2))
        c = covariance_matrix(pts, identity_map, CovParams(1.0, 0.3, 0.1))
        factor_covariance(c)
        c[0, 1] = c[1, 0] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            factor_covariance(c)

    def test_built_over_the_distances(self, traced_peak):
        # no second array of the covariance's size is made
        m = 2000
        sites = np.random.default_rng(34).uniform(0.0, 1.0, (m, 2))
        c, peak = traced_peak(covariance_matrix, sites, identity_map, CovParams(1.0, 0.3, 0.1))
        assert peak < 1.5 * m * m * 8
        assert_allclose(c[0, 1], np.exp(-np.linalg.norm(sites[0] - sites[1]) / 0.3))


class TestSampleDispersions:
    def test_identical_rows_give_zero(self):
        rng = np.random.default_rng(3)
        row = rng.normal(size=50)
        z = np.vstack([row, row, rng.normal(size=50)])
        d = sample_dispersions(z)
        assert d.values[0, 1] == 0.0

    def test_anticorrelated_unit_variance_rows(self):
        rng = np.random.default_rng(4)
        row = rng.normal(size=2000)
        row = (row - row.mean()) / row.std(ddof=1)
        z = np.vstack([row, -row])
        d = sample_dispersions(z)
        assert_allclose(d.values[0, 1], 4.0, rtol=1e-10)

    def test_equals_variance_of_difference_series(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(6, 40))
        d = sample_dispersions(z)
        for i in range(6):
            for j in range(6):
                assert_allclose(d.values[i, j], np.var(z[i] - z[j], ddof=1), atol=1e-12)

    def test_rejects_single_replicate(self):
        with pytest.raises(DataError):
            sample_dispersions(np.zeros((5, 1)))

    def test_constant_series_ok(self):
        z = np.ones((4, 10))
        d = sample_dispersions(z)
        assert_allclose(d.values, 0.0)

    def test_convergence_to_population_dispersion(self):
        # long-run check against 2 (sigma2 + nugget - C_ij)
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 1, (8, 2))
        params = CovParams(1.0, 0.4, nugget=0.25)
        c = covariance_matrix(pts, identity_map, params)
        ell = np.linalg.cholesky(c)
        z = ell @ rng.standard_normal((8, 10000))
        d = sample_dispersions(z)
        expected = 2.0 * (params.sigma2 + params.nugget - c)
        np.fill_diagonal(expected, 0.0)
        assert np.abs(d.values - expected).max() < 0.1


class TestDispersionMatrix:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            DispersionMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            DispersionMatrix(np.array([[1.0, 0.5], [0.5, 0.0]]))


class TestFitVariogram:
    def test_noiseless_recovery(self):
        truth = VariogramModel(nugget=1.0, psill=1.0, range_=0.25)
        h = np.linspace(0.02, 0.75, 15)
        model = fit_variogram(h, truth(h))
        assert_allclose(
            [model.nugget, model.psill, model.range_], [1.0, 1.0, 0.25], atol=1e-4
        )

    def test_zero_nugget_recovery(self):
        truth = VariogramModel(nugget=1e-12, psill=2.0, range_=0.4)
        h = np.linspace(0.05, 1.2, 15)
        model = fit_variogram(h, truth(h))
        assert model.nugget < 1e-6
        assert_allclose([model.psill, model.range_], [2.0, 0.4], rtol=1e-4)

    def test_flat_dispersions_error(self):
        h = np.linspace(0.1, 1.0, 20)
        with pytest.raises(FitError):
            fit_variogram(h, np.full(20, 3.0))

    def test_all_distances_equal_error(self):
        with pytest.raises(FitError):
            fit_variogram(np.full(10, 0.5), np.linspace(0, 1, 10))

    def test_distinct_distances(self):
        assert distinct_distances(np.full(4, 0.5)) == 1
        assert distinct_distances(np.array([1.0, 2.0, 1.0, 2.0])) == 2
        assert distinct_distances(np.array([2.0, 1.0, 3.0, 3.0])) == 3
        assert distinct_distances(np.linspace(0.0, 1.0, 50)) == 3  # at least 3

    def test_bins_pool_the_pairs_of_each_distance_class(self):
        rng = np.random.default_rng(3)
        h, d2 = rng.uniform(0.1, 2.0, 500), rng.uniform(0.0, 3.0, 500)
        h[:40] = 0.7  # a bin of repeated distances, and some bins left empty
        h[40:] = np.where(h[40:] < 1.2, h[40:], 1.9)
        edges = np.linspace(h.min(), h.max(), covariance.VARIOGRAM_BINS + 1)
        idx = np.clip(np.digitize(h, edges[1:-1]), 0, covariance.VARIOGRAM_BINS - 1)
        masks = [idx == b for b in range(covariance.VARIOGRAM_BINS) if (idx == b).any()]
        hb, gb, nb = covariance._bin_pairs(h, d2)
        assert_allclose(hb, [h[m].mean() for m in masks], rtol=1e-14)
        assert_allclose(gb, [d2[m].mean() for m in masks], rtol=1e-14)
        assert nb.tolist() == [m.sum() for m in masks]

    def test_jacobian_matches_central_differences(self, monkeypatch):
        # checked at each start and at each solution, one of which leaves
        # the nugget at its bound 0
        errors = []

        def check(fun, jac, x):
            step = 1e-6 * np.maximum(np.abs(x), 1e-3)
            fd = np.column_stack([(fun(x + e) - fun(x - e)) / (2 * e[j])
                                  for j, e in enumerate(np.diag(step))])
            errors.append(np.abs(jac(x) - fd).max() / np.abs(fd).max())

        def spy(fun, x0, jac, **kwargs):
            check(fun, jac, np.asarray(x0, dtype=float))
            sol = least_squares(fun, x0, jac=jac, **kwargs)
            check(fun, jac, sol.x + 1e-6 * sol.x.max())  # inside the bounds
            return sol

        least_squares = covariance.least_squares
        monkeypatch.setattr(covariance, "least_squares", spy)
        rng = np.random.default_rng(7)
        h = rng.uniform(0.02, 1.0, 300)
        for truth in (VariogramModel(0.5, 1.0, 0.3), VariogramModel(1e-12, 2.0, 0.4)):
            fit_variogram(h, truth(h) + 0.05 * rng.normal(size=300))
        assert len(errors) == 12 and max(errors) < 1e-6

    def test_reports_rss(self):
        rng = np.random.default_rng(7)
        truth = VariogramModel(nugget=0.5, psill=1.0, range_=0.3)
        h = rng.uniform(0.02, 1.0, 300)
        model = fit_variogram(h, truth(h) + 0.05 * rng.normal(size=300))
        assert np.isfinite(model.rss)


class TestVariogramInverse:
    def test_at_nugget(self):
        g = VariogramModel(nugget=0.5, psill=1.0, range_=0.25)
        assert variogram_inverse(g, 0.5) == 0.0
        assert variogram_inverse(g, 0.1) == 0.0

    def test_exact_inverse(self):
        g = VariogramModel(nugget=0.0, psill=1.0, range_=0.25)
        assert_allclose(variogram_inverse(g, 1.0 - np.exp(-1.0)), 0.25)

    def test_clamped_above_sill(self):
        g = VariogramModel(nugget=0.0, psill=1.0, range_=0.25)
        assert variogram_inverse(g, 5.0) == 0.75
        assert variogram_inverse(g, 1.0) == 0.75

    def test_roundtrip_in_invertible_range(self):
        g = VariogramModel(nugget=0.3, psill=2.0, range_=0.5)
        h = np.linspace(0.01, 1.49, 100)
        assert_allclose(variogram_inverse(g, g(h)), h, atol=1e-10)

    def test_vectorized(self):
        g = VariogramModel(nugget=0.0, psill=1.0, range_=1.0)
        d2 = np.array([[0.0, 0.5], [0.5, 0.0]])
        h = variogram_inverse(g, d2)
        assert h.shape == (2, 2)
        assert_allclose(h[0, 1], -np.log(0.5))
