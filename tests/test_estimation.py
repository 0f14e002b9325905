import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import blas, cho_factor, cho_solve, lapack, solve_triangular
from scipy.spatial.distance import cdist

from spatdeform.basis import KnotGrid, design_matrix, difference_penalty
from spatdeform.covariance import (
    INVERSE_BLOCK,
    CovParams,
    covariance_matrix,
    factor_covariance,
    invert_lower,
)
from spatdeform.deformation import (
    CoefPair,
    DeformationMap,
    coef_to_vec,
    corner_values,
    default_epsilon,
    eval_map_points,
    identity_coef,
    min_jacobian,
    transform_coef,
    vec_to_coef,
)
from spatdeform.errors import DataError, FitError, NumericalError
from spatdeform.estimation import (
    Dataset,
    DeformModel,
    FitConfig,
    FitDiagnostics,
    PENALTY_STEP_REACH,
    G_MAX,
    SmoothnessPenalty,
    CoefObjective,
    _LikelihoodState,
    _penalty_update,
    fit,
    refine_coords_ml,
)
from spatdeform.fields import Swirl, simulate_grf
from spatdeform.smoothers import unconstrained_bspline_fit

from oracles import (
    IdentityMap,
    coef_fisher_information,
    loglik,
    procrustes_gauge,
    replicate_loglik,
    step_cov_fd,
)


def grid_sites(n_side, lo=0.0, hi=1.0):
    g = np.linspace(lo, hi, n_side)
    xx, yy = np.meshgrid(g, g)
    return np.column_stack([xx.ravel(), yy.ravel()])


def identity_model_map(k=4):
    grid = KnotGrid(0.0, 1.0, 0.0, 1.0, k, k)
    return DeformationMap(grid, identity_coef(grid))


def ascent(ds, cov, grid, coef, epsilon, **kwargs):
    """The map, covariance and failure message of one likelihood ascent
    of ``refine_coords_ml`` on a fresh objective, from ``coef`` and
    ``cov``."""
    objective = CoefObjective(ds, grid)
    x = np.append(coef_to_vec(coef), cov.nugget / cov.sigma2)
    x, phi, failure = refine_coords_ml(objective, grid, x, cov.phi, epsilon, **kwargs)
    sill = objective.state(x, phi).sill
    return vec_to_coef(grid, x[:-1]), CovParams(sill, phi, x[-1] * sill), failure


def ascend(ds, cov, grid, coef, epsilon, **kwargs):
    """The map and covariance of an ``ascent`` that meets its stopping
    test."""
    coef, cov, failure = ascent(ds, cov, grid, coef, epsilon, **kwargs)
    assert failure is None, failure
    return coef, cov


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
    """The replicate log-likelihood: the dense reference
    ``oracles.replicate_loglik`` against closed forms, and the package's
    on a singular covariance."""

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

    def test_singular_covariance_raises(self, swirl_problem):
        # the likelihood state raises on a singular covariance, and the
        # ascent's objective reads a covariance that is not positive
        # definite as 1e300 with a zero gradient
        with pytest.raises(NumericalError):
            _LikelihoodState(np.random.default_rng(5).normal(size=(3, 4)), np.ones((3, 3)))
        ds, cov, grid = swirl_problem
        x = np.append(coef_to_vec(identity_coef(grid)), -1.0)  # C = R - I, a zero diagonal
        f, grad = CoefObjective(ds, grid)(x, cov.phi, 0.0)
        assert f == 1e300 and not grad.any()


class TestStepCov:
    """The covariance the likelihood ascent returns, with the range
    moved in the ascent and the map's scale held."""

    def test_recovers_simulation_parameters(self):
        sites = grid_sites(11)
        truth = CovParams(sigma2=1.0, phi=0.25, nugget=1.0)
        z = simulate_grf(sites, IdentityMap(), truth, t=200, seed=7)
        ds = Dataset(sites, z)
        grid = identity_model_map().grid
        coef, cov = ascend(ds, CovParams(0.5, 0.1, 0.5), grid, identity_coef(grid),
                           epsilon=1e-3)
        # the gauge gives the map the sites' spread, with phi co-scaled
        _, scale = procrustes_gauge(DeformationMap(grid, coef), sites)
        est = CovParams(cov.sigma2, cov.phi * scale, cov.nugget)
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
            coef, est = ascend(ds, init, dmap.grid, dmap.coef, epsilon=1e-3)
            assert (loglik(ds, DeformationMap(dmap.grid, coef), est)
                    >= loglik(ds, dmap, init) - 1e-9)

    def test_phi_respects_bounds(self, monkeypatch):
        # the range moves from a far-off start toward the truth, 0.3, by
        # at most a factor RANGE_REACH; the nugget ratio stays within
        # [0, G_MAX]
        sites = grid_sites(4)
        z = simulate_grf(sites, IdentityMap(), CovParams(1.0, 0.3, 0.1), t=40, seed=10)
        ds = Dataset(sites, z)
        dmap = identity_model_map()
        init = CovParams(1.0, 5.0, 0.1)
        _, est = ascend(ds, init, dmap.grid, dmap.coef, epsilon=1e-3)
        assert 0.15 < est.phi < 0.6
        assert 0.0 <= est.nugget <= G_MAX * est.sigma2
        import spatdeform.estimation as estimation

        monkeypatch.setattr(estimation, "RANGE_REACH", 4.0)
        _, held = ascend(ds, init, dmap.grid, dmap.coef, epsilon=1e-3)
        assert init.phi / 4.0 < held.phi < 1.1 * init.phi / 4.0

    def test_already_optimal_start_is_stable(self):
        sites = grid_sites(5)
        z = simulate_grf(sites, IdentityMap(), CovParams(1.0, 0.3, 0.5), t=60, seed=22)
        ds = Dataset(sites, z)
        dmap = identity_model_map()
        coef, first = ascend(ds, CovParams(0.7, 0.2, 0.3), dmap.grid, dmap.coef,
                             epsilon=1e-3)
        again, second = ascend(ds, first, dmap.grid, coef, epsilon=1e-3)
        assert abs(loglik(ds, DeformationMap(dmap.grid, again), second)
                   - loglik(ds, DeformationMap(dmap.grid, coef), first)) < 1e-4


@pytest.fixture(scope="module")
def step_cov_problems():
    """(dataset, map, incumbent) of each TestStepCov problem, and a K=8
    spline map of the swirl study with replicates from the true swirl."""
    out = []
    sites = grid_sites(11)
    z = simulate_grf(sites, IdentityMap(), CovParams(1.0, 0.25, 1.0), t=200, seed=7)
    out.append((Dataset(sites, z), identity_model_map(), CovParams(0.5, 0.1, 0.5)))
    rng = np.random.default_rng(8)
    sites = grid_sites(4)
    z = simulate_grf(sites, IdentityMap(), CovParams(1.0, 0.3, 0.5), t=30, seed=9)
    for _ in range(5):
        init = CovParams(rng.uniform(0.1, 2.0), rng.uniform(0.05, 1.0), rng.uniform(0.0, 2.0))
        out.append((Dataset(sites, z), identity_model_map(), init))
    z = simulate_grf(sites, IdentityMap(), CovParams(1.0, 0.3, 0.1), t=40, seed=10)
    out.append((Dataset(sites, z), identity_model_map(), CovParams(1.0, 5.0, 0.1)))
    sites = grid_sites(5)
    z = simulate_grf(sites, IdentityMap(), CovParams(1.0, 0.3, 0.5), t=60, seed=22)
    out.append((Dataset(sites, z), identity_model_map(), CovParams(0.7, 0.2, 0.3)))
    sites = grid_sites(11)
    swirl = Swirl(center=(0.5, 0.5), strength=1.5, radius=0.35)
    grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 8, 8)
    dmap = DeformationMap(grid, unconstrained_bspline_fit(grid, sites, swirl(sites)))
    z = simulate_grf(sites, swirl, CovParams(1.0, 0.25, 1.0), t=100, seed=1)
    out.append((Dataset(sites, z), dmap, CovParams(0.6, 0.2, 0.7)))
    return out


class TestProfiledCovStep:
    """The profiled likelihood over the coefficients and the nugget ratio
    that the ascent climbs."""

    @pytest.fixture(scope="class")
    def problem(self):
        sites = grid_sites(6)
        z = simulate_grf(sites, Swirl(strength=1.0), CovParams(1.0, 0.3, 0.5), t=50, seed=31)
        ds = Dataset(sites, z)
        grid = identity_model_map().grid
        return ds, grid, design_matrix(grid, sites).toarray()

    @staticmethod
    def state(ds, w, x, phi):
        # the nugget ratio enters unclamped, so that central differences
        # can step below g = 0
        return _LikelihoodState.at(ds.demeaned(), w, x[:-1], x[-1], phi)

    @pytest.mark.parametrize("x", [(0.3, 0.0, 0.0), (0.05, 0.4, 0.05), (2.0, 3.0, 0.1)])
    def test_gradient_matches_central_differences(self, problem, x):
        # (phi, g, wobble of the map)
        ds, grid, w = problem
        phi, g, amount = x
        z = coef_to_vec(wobbled(grid, np.random.default_rng(32), amount))
        point = np.append(z, g)
        grad = self.state(ds, w, point, phi).profiled_grad
        fd = np.empty(point.size)
        for i in range(point.size):
            h = np.zeros(point.size)
            h[i] = 1e-5
            fd[i] = (self.state(ds, w, point + h, phi).profiled_value
                     - self.state(ds, w, point - h, phi).profiled_value) / 2e-5
        assert_allclose(grad, fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())

    def test_value_is_the_loglik_at_the_profiled_sill(self, problem):
        ds, grid, w = problem
        phi, g = 0.3, 0.7
        coef = wobbled(grid, np.random.default_rng(33))
        state = self.state(ds, w, np.append(coef_to_vec(coef), g), phi)
        ll, s2 = state.profiled_value, state.sill
        dmap = DeformationMap(grid, coef)
        assert ll == pytest.approx(loglik(ds, dmap, CovParams(s2, phi, g * s2)), rel=1e-12)
        for scale in (1.0 - 1e-3, 1.0 + 1e-3):
            assert ll > loglik(ds, dmap, CovParams(scale * s2, phi, g * scale * s2))

    @pytest.mark.parametrize("case", range(9))
    def test_at_least_the_finite_difference_optimum(self, step_cov_problems, case):
        # at the map the ascent returns, no search over (sigma2, phi,
        # nugget) beats the covariance it returns with it: the range is a
        # variable of the ascent, free of the corner margin
        ds, dmap, init = step_cov_problems[case]
        coef, cov = ascend(ds, init, dmap.grid, dmap.coef, epsilon=default_epsilon(dmap.grid))
        fitted = DeformationMap(dmap.grid, coef)
        assert (loglik(ds, fitted, cov)
                >= loglik(ds, fitted, step_cov_fd(ds, fitted, cov)) - 1e-6)

    def test_searches_with_the_analytic_gradient_and_factors_each_matrix_once(
            self, stationary_dataset, monkeypatch):
        # one interior-point ascent per pass over (z, g, log phi), with the
        # analytic gradient and the metric, and no matrix factored twice in
        # a row: each pass starts from the state that ended the one before
        import spatdeform.estimation as est

        real_factor, real_solver = est.factor_covariance, est._interior_point
        factored, calls = [], []

        def recording_factor(c):
            factored.append(np.array(c))
            return real_factor(c)

        def recording_solver(grid, fun, hess, x0, *args, **kwargs):
            calls.append((fun(x0)[1].shape, hess(x0).shape))
            return real_solver(grid, fun, hess, x0, *args, **kwargs)

        monkeypatch.setattr(est, "factor_covariance", recording_factor)
        monkeypatch.setattr(est, "_interior_point", recording_solver)
        model = est.fit(stationary_dataset, FitConfig(k1=4, k2=4, tol=0.0, max_outer=3))
        assert model.diagnostics.iterations == 3
        assert calls == [((34,), (34, 34))] * 3
        assert len(factored) > 3
        assert not any(np.array_equal(a, b) for a, b in zip(factored, factored[1:]))


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
        refined, refined_cov = ascend(ds, cov, grid, start, epsilon=eps)
        assert corner_values(grid, refined).min() >= eps - 1e-9
        # the trace of sum (y_i - ybar)(s_i - sbar)' is held, so the range
        # moves instead of the map's scale
        y, centred = DeformationMap(grid, refined)(ds.sites), ds.sites - ds.sites.mean(axis=0)
        assert (np.sum((y - y.mean(axis=0)) * centred)
                == pytest.approx(np.sum(centred * centred), rel=1e-9))
        assert refined_cov.phi != cov.phi
        ll_start = loglik(ds, DeformationMap(grid, start), cov)
        ll_ref = loglik(ds, DeformationMap(grid, refined), refined_cov)
        assert ll_ref >= ll_start

    def test_warns_at_the_iteration_cap(self, problem, monkeypatch):
        # the ascent returns the cap as its failure, and fit warns of it
        import spatdeform.estimation as est

        monkeypatch.setattr(est, "ASCENT_MAX_ITER", 2)
        ds, cov, grid = problem
        start = identity_coef(grid)
        refined, refined_cov, failure = ascent(ds, cov, grid, start, epsilon=1e-3)
        assert failure.startswith("stopped at the iteration limit (2)")
        assert corner_values(grid, refined).min() >= 1e-3 - 1e-9
        assert (loglik(ds, DeformationMap(grid, refined), refined_cov)
                >= loglik(ds, DeformationMap(grid, start), cov))
        with pytest.warns(RuntimeWarning, match=r"iteration limit \(2\)"):
            fit(ds, FitConfig(k1=4, k2=4, max_outer=1))

    def test_warning_carries_the_solver_message(self, problem, monkeypatch):
        # a solve that stops short comes back, with the start, as the
        # solver's own words and no warning; fit warns with them
        import warnings

        import spatdeform.estimation as est

        message = "line search failed after 7 iterations at barrier weight 0.001"

        def failing_solver(grid, fun, hess, x0, *args, **kwargs):
            return x0, message

        monkeypatch.setattr(est, "_interior_point", failing_solver)
        ds, cov, grid = problem
        start = identity_coef(grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            refined, _, failure = ascent(ds, cov, grid, start, epsilon=1e-3)
        assert failure == message
        assert np.array_equal(coef_to_vec(refined), coef_to_vec(start))
        with pytest.warns(RuntimeWarning) as record:
            fit(ds, FitConfig(k1=4, k2=4, max_outer=1))
        assert [str(w.message) for w in record] == [
            f"likelihood ascent did not succeed: {message}; returning the best feasible iterate"]

    def test_zero_information_returns_the_start(self, problem):
        # a range far below the site spacing underflows every off-diagonal
        # correlation: no coefficient moves the covariance
        ds, _, grid = problem
        cov = CovParams(1.0, 1e-4, 0.5)
        start = wobbled(grid, np.random.default_rng(27))
        assert not coef_fisher_information(ds, cov, grid, start).any()
        refined, refined_cov = ascend(ds, cov, grid, start, epsilon=1e-3)
        assert corner_values(grid, refined).min() >= 1e-3
        assert np.array_equal(coef_to_vec(refined), coef_to_vec(start))
        assert refined_cov.nugget / refined_cov.sigma2 == pytest.approx(0.5)

    def test_correlations_below_rounding_keep_the_start(self):
        # three clusters of white-noise stations: the variogram's range,
        # 6.3e-5, leaves every correlation below rounding, so the
        # likelihood is flat in the coefficients, the nugget ratio and the
        # range; the ascent keeps its start rather than let the barrier
        # alone move it (which stalls, warns and runs the fit to max_outer)
        import warnings

        rng = np.random.default_rng(4192282927)
        centres = rng.uniform(0.15, 0.85, (3, 2))
        sites = centres[rng.integers(0, 3, 22)] + 0.05 * rng.standard_normal((22, 2))
        z = rng.standard_normal((22, 26))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit(Dataset(sites, z), FitConfig(k1=2, k2=2))
        assert model.diagnostics.iterations == 1 and model.diagnostics.converged


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


@pytest.fixture(scope="module")
def colocated_problem():
    # above twice the inverse's block size, so that it recurses twice, and
    # with two stations at the same coordinates, whose distance stays 0
    sites = np.random.default_rng(40).uniform(size=(130, 2))
    sites[1] = sites[0]
    cov = CovParams(1.0, 0.3, 0.5)
    z = simulate_grf(sites, Swirl(strength=1.0), cov, t=30, seed=41)
    return Dataset(sites, z), cov, KnotGrid(0.0, 1.0, 0.0, 1.0, 3, 3)


def reference_negloglik_and_grad(ds, phi, grid, solves=False):
    """The unpenalized negative profiled log-likelihood over x = (z, g) at
    range ``phi``, and its gradient, written out plainly.  With ``solves``
    the value takes sigma2 from one triangular solve, and C^-1 Z and C^-1
    come from Cholesky solves and the full n x n derivative kernel;
    otherwise they come in the package's order: the lower triangle of
    C^-1 from the shared triangular inverse and LAPACK lauum, C^-1 Z from
    BLAS symm, which also gives the value's sigma2, and the strictly lower
    triangle of the kernel from BLAS syrk."""
    zc = ds.demeaned()
    n, t = zc.shape
    w = design_matrix(grid, ds.sites).toarray()
    m = grid.k1 * grid.k2

    def f(x):
        z, g = x[:-1], x[-1]
        y = np.column_stack([w @ z[:m], w @ z[m:]])
        d = cdist(y, y)
        corr = np.exp(-d / phi)
        c = corr + g * np.eye(n)
        factor = cho_factor(c, lower=True)
        logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
        white = solve_triangular(factor[0], zc, lower=True)
        s2 = float(np.sum(white * white)) / (n * t)
        ll = -0.5 * (n * t * (np.log(2.0 * np.pi * s2) + 1.0) + t * logdet)
        if solves:
            cinv_z = cho_solve(factor, zc)
            cinv = cho_solve(factor, np.eye(n))
            s2 = float(np.sum(zc * cinv_z)) / (n * t)
            dldc = 0.5 * (cinv_z @ cinv_z.T / s2 - t * cinv)
            dldd = -(1.0 / phi) * dldc * corr
            np.fill_diagonal(dldd, 0.0)
            ratio = np.divide(2.0 * dldd, d, out=np.zeros_like(d), where=d > 0)
            grad_y = ratio.sum(axis=1)[:, None] * y - ratio @ y
        else:
            cinv = lapack.dlauum(invert_lower(factor[0].copy(order="F")), lower=1)[0]
            cinv_z = blas.dsymm(1.0, cinv, zc, lower=1)
            s2 = float(np.sum(zc * cinv_z)) / (n * t)
            ll = -0.5 * (n * t * (np.log(2.0 * np.pi * s2) + 1.0) + t * logdet)
            kernel = np.tril(np.divide(corr, d, out=np.zeros_like(d), where=d > 0), -1)
            kernel *= -1.0 / phi
            ratio = blas.dsyrk(1.0 / s2, cinv_z, beta=-t, c=cinv, lower=1)
            ratio *= kernel
            grad_y = ((ratio.sum(axis=1) + ratio.sum(axis=0))[:, None] * y
                      - ratio @ y - ratio.T @ y)
        d_g = 0.5 * (float(np.sum(cinv_z * cinv_z)) / s2 - t * np.trace(cinv))
        return -ll, -np.concatenate([w.T @ grad_y[:, 0], w.T @ grad_y[:, 1], [d_g]])

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
        dmap, _ = procrustes_gauge(DeformationMap(grid, wobbled(grid, rng)), sites)
        z = coef_to_vec(dmap.coef)
        pen = SmoothnessPenalty.for_sites(grid, sites)
        s = np.kron(np.eye(2), difference_penalty(grid))
        assert_allclose(pen.value_and_grad(z)[0], z @ s @ z, rtol=1e-10)
        assert_allclose(z @ pen.matrix(z) @ z, z @ s @ z, rtol=1e-10)

    def test_objective_gradient_matches_finite_differences(self, swirl_problem):
        ds, cov, grid = swirl_problem
        rng = np.random.default_rng(22)
        x = np.append(coef_to_vec(wobbled(grid, rng)), 0.4)
        objective = CoefObjective(ds, grid)
        f0, g = objective(x, cov.phi, 50.0)
        h = 1e-6
        fd = np.array([
            (objective(x + h * e, cov.phi, 50.0)[0] - objective(x - h * e, cov.phi, 50.0)[0])
            / (2 * h)
            for e in np.eye(x.size)
        ])
        assert_allclose(g, fd, rtol=1e-5, atol=1e-5 * np.abs(g).max())
        # the penalty term is what separates it from the likelihood alone
        assert f0 > objective(x, cov.phi, 0.0)[0]

    def test_zero_weight_is_the_unpenalized_objective(self, swirl_problem, colocated_problem):
        # refine_coords_ml's interior-point ascent runs on this objective:
        # at lam=0 the value and the gradient are the plain profiled
        # likelihood's bit for bit, and the solve-based ones agree to rounding
        rng = np.random.default_rng(23)
        for ds, cov, grid in (swirl_problem, colocated_problem):
            reference = reference_negloglik_and_grad(ds, cov.phi, grid)
            by_solves = reference_negloglik_and_grad(ds, cov.phi, grid, solves=True)
            objective = CoefObjective(ds, grid)
            for _ in range(3):
                x = np.append(coef_to_vec(wobbled(grid, rng)), rng.uniform(0.1, 1.0))
                f_ref, g_ref = reference(x)
                f, g = objective(x, cov.phi, 0.0)
                assert f == f_ref
                assert np.array_equal(g, g_ref)
                f_sol, g_sol = by_solves(x)
                assert_allclose(f, f_sol, rtol=1e-13)
                assert_allclose(g, g_sol, rtol=0, atol=1e-10 * np.abs(g_sol).max())

    def test_penalized_refine_is_smoother_and_feasible(self, swirl_problem):
        ds, cov, grid = swirl_problem
        start = identity_coef(grid)
        pen = SmoothnessPenalty.for_sites(grid, ds.sites)
        plain, plain_cov = ascend(ds, cov, grid, start, epsilon=1e-3)
        smooth, _ = ascend(ds, plain_cov, grid, plain, epsilon=1e-3, lam=1e3)
        assert corner_values(grid, smooth).min() >= 1e-3 - 1e-9
        assert (pen.value_and_grad(coef_to_vec(smooth))[0]
                < pen.value_and_grad(coef_to_vec(plain))[0])


@pytest.mark.parametrize("ill", [False, True], ids=["well", "cond1e8"])
@pytest.mark.parametrize("n", [1, 2, 7, 121, INVERSE_BLOCK - 1, INVERSE_BLOCK, INVERSE_BLOCK + 1,
                               2 * INVERSE_BLOCK + 1, 400])
def test_shared_inverse_matches_lapack(n, ill):
    # invert_lower hands blocks up to INVERSE_BLOCK to dtrtri and joins
    # larger ones by triangular products; the state turns it into C^-1
    # with lauum, where LAPACK's potri would run dtrtri on the whole factor
    rng = np.random.default_rng(n)
    if ill:
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        c = (q * np.logspace(0, -8, n)) @ q.T
        c = 0.5 * (c + c.T)
    else:
        c = covariance_matrix(rng.uniform(size=(n, 2)), IdentityMap(), CovParams(1.0, 0.3, 0.2))
    state = _LikelihoodState(np.zeros((n, 2)), c)
    lower = factor_covariance(c)[0]
    low = np.tril(lower)
    inv = np.tril(invert_lower(lower.copy(order="F")))
    assert_allclose(low @ inv, np.eye(n), rtol=0, atol=1e-12)
    potri = np.tril(lapack.dpotri(lower, lower=1)[0])
    bound = 1e-13 * np.linalg.cond(c) * np.abs(potri).max()
    assert np.abs(np.tril(state.cinv) - potri).max() <= bound


def test_each_state_is_factored_once(swirl_problem, monkeypatch):
    # the ascent's start value and its metric share one factorization, and
    # each interior-point step's value, gradient and metric share another
    import spatdeform.estimation as est

    real_factor = est.factor_covariance
    factored = []

    def recording_factor(c):
        factored.append(np.array(c))
        return real_factor(c)

    monkeypatch.setattr(est, "factor_covariance", recording_factor)
    ds, cov, grid = swirl_problem
    ascend(ds, cov, grid, identity_coef(grid), epsilon=1e-3)
    assert len(factored) > 10
    assert not any(np.array_equal(a, b) for a, b in zip(factored, factored[1:]))


def test_each_point_is_evaluated_once(swirl_problem, monkeypatch):
    # the interior-point line search keeps the accepted trial's value and
    # gradient, so neither of its callers is asked for a point twice: the
    # likelihood ascent nor the least squares on folded targets, whose
    # corner rows are active at the solution
    import spatdeform.smoothers as smoothers

    real_call, real_solver = CoefObjective.__call__, smoothers._interior_point
    seen = []

    def recording_call(self, x, phi, *args):
        seen.append((np.asarray(x, dtype=float).tobytes(), phi))
        return real_call(self, x, phi, *args)

    monkeypatch.setattr(CoefObjective, "__call__", recording_call)
    ds, cov, grid = swirl_problem
    ascend(ds, cov, grid, identity_coef(grid), epsilon=1e-3)
    assert len(seen) > 10 and len(seen) - len(set(seen)) == 0

    def recording_solver(grid, fun, *args, **kwargs):
        def recorded(z, *more):
            seen.append(z.tobytes())
            return fun(z, *more)

        return real_solver(grid, recorded, *args, **kwargs)

    seen.clear()
    monkeypatch.setattr(smoothers, "_interior_point", recording_solver)
    # criterion 3's folded map, sampled on a 9 x 9 grid
    grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
    t1 = identity_coef(grid).theta1.copy()
    t1[1, 1] = t1[2, 1] + 0.15
    t1[2, 2] = t1[1, 2] - 0.1
    folded = DeformationMap(grid, CoefPair(t1, identity_coef(grid).theta2))
    sites = grid_sites(9)
    coef = smoothers.fit_bspline_constrained(grid, sites, eval_map_points(folded, sites),
                                             epsilon=1e-3)
    assert corner_values(grid, coef).min() <= 1.01e-3
    assert len(seen) > 10 and len(seen) - len(set(seen)) == 0


def test_no_pass_refactors_a_rescaled_covariance(stationary_dataset, monkeypatch):
    # every pass stays in the ascent's chart: the pass's loglik, the weight
    # update's information and the next ascent's start reuse the ascent's
    # last factorization, not that of a gauge-normalized copy, which equals
    # it up to the scale and rounding
    import spatdeform.estimation as est

    real_factor = est.factor_covariance
    factored = []

    def recording_factor(c):
        factored.append(np.array(c) / c[0, 0])
        return real_factor(c)

    monkeypatch.setattr(est, "factor_covariance", recording_factor)
    model = est.fit(stationary_dataset, FitConfig(k1=4, k2=4, tol=0.0, max_outer=3))
    assert model.diagnostics.iterations == 3
    repeats = [i for i in range(1, len(factored))
               if np.abs(factored[i] - factored[i - 1]).max() <= 1e-12]
    assert repeats == []


class TestLikelihoodMemory:
    # peaks of one call on a fresh state at n = 400, in n x n arrays of
    # doubles; the state's own C, D and factor exist before the call
    @pytest.fixture(scope="class")
    def fresh_state(self):
        n = 400
        rng = np.random.default_rng(42)
        sites = rng.uniform(size=(n, 2))
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
        zc = Dataset(sites, rng.normal(size=(n, 30))).demeaned()
        x = np.append(coef_to_vec(wobbled(grid, rng, 0.02)), 0.3)
        w = design_matrix(grid, sites).toarray()
        return lambda: _LikelihoodState.at(zc, w, x[:-1], x[-1], 0.3)

    def test_gradient_reads_one_triangle(self, fresh_state, traced_peak):
        # C^-1, the kernel G and one copy of C^-1's triangle: a mirrored
        # C^-1 or a full-size temporary more would exceed the bound
        state = fresh_state()
        n = len(state.d)
        _, peak = traced_peak(lambda: state.profiled_grad)
        assert peak < 4 * n * n * 8

    def test_information_forms_no_inverse_square(self, fresh_state, traced_peak):
        state = fresh_state()
        n = len(state.d)
        _, peak = traced_peak(lambda: state.information)
        assert peak <= 9 * n * n * 8


class TestFisherInformation:
    def test_matches_dense_per_coefficient_reference(self, swirl_problem, colocated_problem):
        for ds, cov, grid in (swirl_problem, colocated_problem):
            coef = wobbled(grid, np.random.default_rng(24))
            info = coef_fisher_information(ds, cov, grid, coef)

            # dense reference: (t/2) tr(C^-1 dC/dx_p C^-1 dC/dx_q) with one
            # n x n derivative matrix per coefficient, and sigma2 I for the
            # nugget ratio g of C = sigma2 (R + g I); each C^-1 dC/dx_p is
            # formed once
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
                    derivs.append(cinv @ (-(expo / cov.phi) * dd))
            derivs.append(cov.sigma2 * cinv)
            dense = np.array([[0.5 * ds.t * np.sum(a * b.T) for b in derivs] for a in derivs])
            assert_allclose(info, dense[:-1, :-1], rtol=0, atol=1e-10 * np.abs(dense).max())
            # the nugget row, and the part u u' that profiling sigma2 out
            # removes, u_p = sqrt(t / 2n) tr(C^-1 dC/dx_p)
            x = np.append(z, cov.nugget / cov.sigma2)
            info_x, sill_part = CoefObjective(ds, grid).state(x, cov.phi).information
            assert_allclose(info_x, dense, rtol=0, atol=1e-10 * np.abs(dense).max())
            traces = np.sqrt(0.5 * ds.t / len(y)) * np.array([np.trace(a) for a in derivs])
            assert_allclose(sill_part, traces, rtol=0, atol=1e-10 * np.abs(traces).max())

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

    def test_weight_update_without_information_keeps_the_weight(self, swirl_problem):
        # zero information (every off-diagonal correlation underflowed) and
        # information so small that the weights it implies overflow
        ds, _, grid = swirl_problem
        coef = wobbled(grid, np.random.default_rng(28))
        pen = SmoothnessPenalty.for_sites(grid, ds.sites)
        z = coef_to_vec(coef)
        info = coef_fisher_information(ds, CovParams(1.0, 1e-4, 0.5), grid, coef)
        assert not info.any() and z @ pen.matrix(z) @ z > 0
        assert _penalty_update(7.0, info, pen, z) == (7.0, 0.0)
        tiny = 1e-310 * coef_fisher_information(ds, CovParams(1.0, 0.3, 0.5), grid, coef)
        assert _penalty_update(7.0, tiny, pen, z) == (7.0, 0.0)

    @pytest.mark.parametrize("k", [4, 6, 8])
    @pytest.mark.parametrize("lam", [0.0, 5.0])
    def test_weight_update_keeps_the_weight_at_the_identity(self, k, lam):
        # at an affine map z'Sz is rounding noise (about 1e-15), whose plain
        # Fellner-Schall step is a weight near 1e15
        sites = np.random.default_rng(29).uniform(size=(30, 2))
        z = simulate_grf(sites, IdentityMap(), CovParams(1.0, 0.3, 0.5), t=40, seed=30)
        ds = Dataset(sites, z)
        lo, hi = sites.min(axis=0), sites.max(axis=0)
        grid = KnotGrid(lo[0], hi[0], lo[1], hi[1], k, k)
        coef = identity_coef(grid)
        info = coef_fisher_information(ds, CovParams(1.0, 0.3, 0.5), grid, coef)
        pen = SmoothnessPenalty.for_sites(grid, sites)
        vec = coef_to_vec(coef)
        assert vec @ pen.matrix(vec) @ vec != 0.0
        next_lam, edf = _penalty_update(lam, info, pen, vec)
        assert next_lam == lam
        assert np.isfinite(edf)

    def test_weight_update_is_the_fixed_point_on_the_quadratic_model(self, swirl_problem):
        ds, cov, grid = swirl_problem
        lam = 2.0
        coef, _ = ascend(ds, cov, grid, identity_coef(grid), 1e-3, lam=lam)
        coef = procrustes_gauge(DeformationMap(grid, coef), ds.sites)[0].coef
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


@pytest.fixture(scope="module")
def stationary_dataset():
    sites = grid_sites(7)
    z = simulate_grf(sites, IdentityMap(), CovParams(1.0, 0.3, 0.5), t=80, seed=16)
    return Dataset(sites, z)


class TestFit:
    def test_returns_validated_model(self, stationary_dataset):
        model = fit(stationary_dataset, FitConfig(k1=4, k2=4, max_outer=3))
        assert isinstance(model, DeformModel)
        assert min_jacobian(model.mapping()) >= default_epsilon(model.grid)
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fits_a_network_with_empty_knot_cells(self):
        # at K=6 some basis function of this draw has no site in its support
        sites = np.random.default_rng(4).uniform(size=(60, 2))
        z = simulate_grf(sites, Swirl(), CovParams(1.0, 0.25, 1.0), t=100, seed=4)
        model = fit(Dataset(sites, z), FitConfig(k1=6, k2=6))
        assert model.diagnostics.converged
        assert corner_values(model.grid, model.coef).min() >= default_epsilon(model.grid)

    def test_rejects_a_folding_map(self):
        # the model checks the corner values itself: the identity passes,
        # and a map folded by reflecting one component does not
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
        coef = identity_coef(grid)
        DeformModel(grid, coef, CovParams(1.0, 1.0), 0.0, FitDiagnostics())
        folded = CoefPair(coef.theta1, -coef.theta2)
        with pytest.raises(DataError, match=r"least corner \|J\| is -1"):
            DeformModel(grid, folded, CovParams(1.0, 1.0), 0.0, FitDiagnostics())

    def test_structureless_dispersions_fail_initialization(self):
        rng = np.random.default_rng(18)
        sites = grid_sites(5)
        z = np.tile(rng.normal(size=60), (25, 1))  # all dispersions exactly zero
        with pytest.raises(FitError, match="initialization"):
            fit(Dataset(sites, z), FitConfig(k1=4, k2=4))

    def test_step_error_carries_iteration_and_best_model(self, stationary_dataset, monkeypatch):
        import spatdeform.estimation as est

        real_refine = est.refine_coords_ml
        calls = {"n": 0}

        def flaky_refine(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise NumericalError("synthetic failure")
            return real_refine(*args, **kwargs)

        monkeypatch.setattr(est, "refine_coords_ml", flaky_refine)
        with pytest.raises(FitError, match="outer iteration 2") as excinfo:
            est.fit(stationary_dataset, FitConfig(k1=4, k2=4, tol=0.0, max_outer=5))
        assert isinstance(excinfo.value.best_model, DeformModel)

    def test_best_model_ranked_at_the_last_weight(self, stationary_dataset, monkeypatch):
        # the weight changes between passes, so the iterates are compared
        # by their penalized loglik at the weight of the last pass
        import spatdeform.estimation as est

        real_refine = est.refine_coords_ml
        iterates = []

        def flaky_refine(*args, **kwargs):
            if len(iterates) >= 3:
                raise NumericalError("synthetic failure")
            out = real_refine(*args, **kwargs)
            iterates.append(out[:2])  # the pass's point x = (z, g) and range
            return out

        monkeypatch.setattr(est, "refine_coords_ml", flaky_refine)
        with pytest.raises(FitError, match="outer iteration 4") as excinfo:
            est.fit(stationary_dataset, FitConfig(k1=4, k2=4, tol=0.0, max_outer=5))
        best = excinfo.value.best_model
        d = best.diagnostics
        assert len(iterates) == len(d.loglik) == 3
        assert d.penalty_weights[-1] > 0
        pen = SmoothnessPenalty.for_sites(best.grid, stationary_dataset.sites)
        pll = [ll - 0.5 * d.penalty_weights[-1] * pen.value_and_grad(x[:-1])[0]
               for ll, (x, _) in zip(d.loglik, iterates)]
        # the passes run in the ascent's chart; the model is made from the
        # best pass's point alone
        index = int(np.argmax(pll))
        expected = est._returned_model(
            best.grid, CoefObjective(stationary_dataset, best.grid), *iterates[index],
            best.mean, FitDiagnostics(margins=list(d.margins)), default_epsilon(best.grid), index)
        assert np.array_equal(coef_to_vec(best.coef), coef_to_vec(expected.coef))
        assert best.cov == expected.cov

    def test_no_constrained_least_squares_after_initialization(self, stationary_dataset):
        # fit starts from the identity map: it neither embeds the dispersions
        # nor solves a constrained least-squares problem
        import sys

        from spatdeform.scaling import sg_initialize
        from spatdeform.smoothers import fit_bspline_constrained

        called = set()

        def record(frame, event, arg):
            if event == "call":
                called.add(frame.f_code)

        sys.setprofile(record)
        try:
            model = fit(stationary_dataset, FitConfig(k1=4, k2=4, tol=0.0, max_outer=3))
        finally:
            sys.setprofile(None)
        assert model.diagnostics.iterations == 3
        assert refine_coords_ml.__code__ in called
        assert sg_initialize.__code__ not in called
        assert fit_bspline_constrained.__code__ not in called

    def test_optimizer_warnings_are_recorded(self, stationary_dataset, monkeypatch,
                                             tmp_path):
        # a failure of the likelihood ascent is warned about and kept in
        # the diagnostics, which the model file carries
        import spatdeform.estimation as est
        from spatdeform import modelio

        real_refine = est.refine_coords_ml
        calls = {"n": 0}

        def failing_refine(*args, **kwargs):
            calls["n"] += 1
            x, phi, failure = real_refine(*args, **kwargs)
            return x, phi, "synthetic stall" if calls["n"] == 2 else failure

        monkeypatch.setattr(est, "refine_coords_ml", failing_refine)
        with pytest.warns(RuntimeWarning, match="synthetic stall"):
            model = est.fit(stationary_dataset,
                            FitConfig(k1=4, k2=4, tol=0.0, max_outer=3))
        assert model.diagnostics.messages == [
            "pass 2: likelihood ascent did not succeed: synthetic stall; "
            "returning the best feasible iterate"]
        path = tmp_path / "model.json"
        modelio.save_model(model, path)
        assert modelio.load_model(path).diagnostics.messages == model.diagnostics.messages

    def test_a_pass_whose_ascent_warned_does_not_converge(self, stationary_dataset,
                                                          monkeypatch):
        # an ascent that stalls at its start leaves the objective where it
        # was, which is no sign that the fit has settled
        import spatdeform.estimation as est

        def stalled_solver(grid, fun, hess, x0, *args, **kwargs):
            return x0, "line search failed after 1 iterations at barrier weight 0.1"

        monkeypatch.setattr(est, "_interior_point", stalled_solver)
        with pytest.warns(RuntimeWarning) as record:
            model = est.fit(stationary_dataset, FitConfig(k1=4, k2=4, max_outer=3))
        d = model.diagnostics
        assert d.iterations == 3
        assert not d.converged
        assert [m.split(":")[0] for m in d.messages] == ["pass 1", "pass 2", "pass 3"]
        # each failure is warned about once, in the words it is recorded in
        assert [w.category for w in record] == [RuntimeWarning] * 3
        assert [str(w.message) for w in record] == [m.split(": ", 1)[1] for m in d.messages]

    def test_only_a_failed_ascent_blocks_convergence(self, stationary_dataset, monkeypatch):
        # a warning raised inside a pass whose ascent met its stopping test
        # reaches the caller, but it is no ascent failure: it is neither
        # recorded nor keeps the fit from converging
        import warnings

        import spatdeform.estimation as est

        real_solver = est._interior_point

        def noisy_solver(*args, **kwargs):
            warnings.warn("synthetic noise", RuntimeWarning)
            return real_solver(*args, **kwargs)

        monkeypatch.setattr(est, "_interior_point", noisy_solver)
        with pytest.warns(RuntimeWarning, match="synthetic noise"):
            model = est.fit(stationary_dataset, FitConfig(k1=4, k2=4))
        assert model.diagnostics.converged
        assert model.diagnostics.messages == []

    def test_returned_models_meet_the_margin(self, stationary_dataset, monkeypatch):
        # the ascents run at the default margin while fit is given one
        # above every pass's margin: the returned model, and the best model
        # of a FitError, are lifted to it without changing the covariance
        # they imply
        import spatdeform.estimation as est

        real_refine = est.refine_coords_ml
        eps = 0.95  # below the identity's corner |J| = 1, which the fit starts from
        calls = {"n": 0, "fail": np.inf}

        def refine_at_the_default_margin(objective, grid, x, phi, epsilon, **kwargs):
            calls["n"] += 1
            if calls["n"] >= calls["fail"]:
                raise NumericalError("synthetic failure")
            return real_refine(objective, grid, x, phi, default_epsilon(grid), **kwargs)

        monkeypatch.setattr(est, "refine_coords_ml", refine_at_the_default_margin)
        ds = stationary_dataset
        model = est.fit(ds, FitConfig(k1=4, k2=4, epsilon=eps, tol=0.0, max_outer=2))
        margin = corner_values(model.grid, model.coef).min()
        assert model.diagnostics.margins[0] < eps <= margin < 1.01 * eps
        assert model.diagnostics.margins[-1] == margin
        assert_allclose(loglik(ds, model.mapping(), model.cov),
                        model.diagnostics.loglik[-1], rtol=1e-12)

        calls.update(n=0, fail=3)
        with pytest.raises(FitError, match="outer iteration 3") as excinfo:
            est.fit(ds, FitConfig(k1=4, k2=4, epsilon=eps, tol=0.0, max_outer=5))
        best = excinfo.value.best_model
        margin = corner_values(best.grid, best.coef).min()
        assert eps <= margin < 1.01 * eps
        assert margin in best.diagnostics.margins
        assert_allclose(loglik(ds, best.mapping(), best.cov),
                        best.diagnostics.loglik[best.diagnostics.margins.index(margin)],
                        rtol=1e-12)

    def test_every_pass_ends_with_no_rotation_left(self, swirl_problem, monkeypatch):
        # the returned model's similarity has no rotation because every
        # pass ends, in the ascent's chart, with the fitted centroid at 0
        # and M = sum (y_i - ybar)(s_i - sbar)' symmetric with trace q0,
        # also a pass whose ascent stops at the iteration cap
        import spatdeform.estimation as est

        ds = swirl_problem[0]
        real_refine, real_cap = est.refine_coords_ml, est.ASCENT_MAX_ITER
        points = []

        def capped_refine(*args, **kwargs):
            monkeypatch.setattr(est, "ASCENT_MAX_ITER", 3 if len(points) == 1 else real_cap)
            x, phi, failure = real_refine(*args, **kwargs)
            points.append(x)
            return x, phi, failure

        monkeypatch.setattr(est, "refine_coords_ml", capped_refine)
        with pytest.warns(RuntimeWarning, match=r"iteration limit \(3\)"):
            model = est.fit(ds, FitConfig(k1=4, k2=4, tol=0.0, max_outer=4))
        assert [m.split(":")[0] for m in model.diagnostics.messages] == ["pass 2"]
        assert len(points) == 4
        centred = ds.sites - ds.sites.mean(axis=0)
        q0 = float(np.sum(centred * centred))
        for x in points:
            y = eval_map_points(DeformationMap(model.grid, vec_to_coef(model.grid, x[:-1])),
                                ds.sites)
            m = (y - y.mean(axis=0)).T @ centred
            assert np.linalg.norm(y.mean(axis=0)) <= 1e-12 * np.sqrt(q0 / ds.n)
            assert abs(m[0, 1] - m[1, 0]) / 2 <= 1e-12 * q0
            assert abs(np.trace(m) - q0) <= 1e-12 * q0

    def test_likelihood_ascent_converges(self, monkeypatch):
        # the simulation study's K=8 fit of seed 1: every interior-point
        # ascent of the coefficients meets its stopping test
        import warnings

        import spatdeform.estimation as est

        real_solver = est._interior_point
        outcomes = []

        def recording_solver(*args, **kwargs):
            x, failure = real_solver(*args, **kwargs)
            outcomes.append(failure)
            return x, failure

        monkeypatch.setattr(est, "_interior_point", recording_solver)
        g = np.linspace(0.0, 1.0, 11)
        sites = np.column_stack([a.ravel() for a in np.meshgrid(g, g, indexing="ij")])
        swirl = Swirl(center=(0.5, 0.5), strength=1.5, radius=0.35)
        z = simulate_grf(sites, swirl, CovParams(1.0, 0.25, 1.0), t=100, seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = est.fit(Dataset(sites, z), FitConfig(k1=8, k2=8))
        assert len(outcomes) == model.diagnostics.iterations
        assert outcomes == [None] * len(outcomes)
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
