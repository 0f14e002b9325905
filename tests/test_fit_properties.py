"""Property test of the whole fit on small, odd networks.

Whatever the sites and replicates, ``fit`` either raises a package
error or returns a model that does not fold and carries the gauge of
every returned model: the sites' centroid and spread.  The passes run in
the ascent's chart, whose scale the ascent holds while the range moves;
a chart that drifted in scale would leave coefficients far off the
sites once the gauge is normalized, so the test also bounds them.  The
pinned examples are small structureless networks on which a chart free
to drift collapsed within one pass.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spatdeform.covariance import CovParams
from spatdeform.deformation import default_epsilon, min_jacobian
from spatdeform.errors import SpatdeformError
from spatdeform.estimation import Dataset, DeformModel, FitConfig, fit
from spatdeform.fields import Swirl, simulate_grf


def draw_sites(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "uniform":
        return rng.uniform(size=(n, 2))
    if kind == "clustered":
        centres = rng.uniform(0.15, 0.85, (3, 2))
        return centres[rng.integers(0, 3, n)] + 0.05 * rng.standard_normal((n, 2))
    x = rng.uniform(size=n)  # near-collinear: a line with a little scatter
    return np.column_stack([x, 0.3 + 0.5 * x + 1e-3 * rng.standard_normal(n)])


@pytest.mark.filterwarnings("default:likelihood ascent:RuntimeWarning")
@settings(max_examples=30)
@example(kind="near-collinear", n=38, t=30, k=5, grf=False, seed=3022224239)
@example(kind="near-collinear", n=27, t=39, k=4, grf=False, seed=3899360805)
@example(kind="near-collinear", n=6, t=28, k=4, grf=False, seed=2805345600)
@example(kind="uniform", n=5, t=24, k=4, grf=True, seed=4282661277)
@example(kind="uniform", n=6, t=11, k=5, grf=False, seed=1309922419)
@example(kind="uniform", n=5, t=5, k=3, grf=False, seed=5)
@given(kind=st.sampled_from(["uniform", "clustered", "near-collinear"]),
       n=st.integers(5, 40), t=st.integers(5, 40), k=st.integers(2, 5),
       grf=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_fit_returns_a_gauged_non_folding_model_or_a_package_error(kind, n, t, k, grf, seed):
    rng = np.random.default_rng(seed)
    sites = draw_sites(kind, n, rng)
    if grf:
        z = simulate_grf(sites, Swirl(), CovParams(1.0, 0.25, 1.0), t=t, seed=seed)
    else:
        z = rng.standard_normal((n, t))
    try:
        model = fit(Dataset(sites, z), FitConfig(k, k))
    except SpatdeformError:
        return
    assert isinstance(model, DeformModel)
    assert np.isfinite([model.cov.sigma2, model.cov.phi, model.cov.nugget, model.mean]).all()
    assert np.isfinite(model.coef.theta1).all() and np.isfinite(model.coef.theta2).all()
    assert min_jacobian(model.mapping()) >= default_epsilon(model.grid)
    fitted = model.mapping()(sites)
    centred = sites - sites.mean(axis=0)
    q0 = float(np.sum(centred**2))
    assert np.abs(fitted.mean(axis=0) - sites.mean(axis=0)).max() <= 1e-9 * np.sqrt(q0 / n)
    offsets = np.stack([model.coef.theta1, model.coef.theta2], axis=-1) - sites.mean(axis=0)
    assert np.abs(offsets).max() <= 1e6 * np.sqrt(q0 / n)
    spread = float(np.sum((fitted - fitted.mean(axis=0)) ** 2))
    assert spread == pytest.approx(q0, rel=1e-9)
