"""Gaussian random fields under a deformed covariance, and prediction.

Provides the analytic truth map used by the simulation harness (an
area-preserving vortex), replicate simulation through
the Cholesky factor, and simple Kriging with conditional simulation for
a fitted deformation model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.spatial.distance import cdist

from .covariance import (
    CovParams,
    cholesky_or_raise,
    covariance_matrix,
    exp_covariance,
    factor_covariance,
)
from .errors import NumericalError

__all__ = [
    "Swirl",
    "simulate_grf",
    "krige",
    "conditional_simulate",
    "KrigeResult",
]


@dataclass(frozen=True)
class Swirl:
    """Gaussian-windowed rotation about a center point.

    Each point is rotated by strength * exp(-|x - c|^2 / (2 radius^2))
    radians.  Rotating along circles preserves radii, so the map is
    bijective with unit Jacobian everywhere, and the inverse is the
    swirl of opposite strength.
    """

    center: tuple[float, float] = (0.5, 0.5)
    strength: float = 1.5
    radius: float = 0.35

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        rel = pts - np.asarray(self.center)
        r2 = np.sum(rel**2, axis=1)
        ang = self.strength * np.exp(-r2 / (2.0 * self.radius**2))
        ca, sa = np.cos(ang), np.sin(ang)
        out = np.column_stack([
            ca * rel[:, 0] - sa * rel[:, 1],
            sa * rel[:, 0] + ca * rel[:, 1],
        ]) + np.asarray(self.center)
        return out[0] if single else out

    def inverse(self) -> "Swirl":
        return Swirl(self.center, -self.strength, self.radius)


def simulate_grf(sites, truth, cov: CovParams, t: int, seed: int) -> np.ndarray:
    """Simulate T i.i.d. replicate columns of a zero-mean Gaussian field.

    ``truth`` is any map taking (n, 2) points to deformed points; the
    covariance between sites is the deformed exponential with the given
    parameters.  Deterministic for a fixed seed.
    """
    if t < 1:
        raise ValueError(f"need at least one replicate, got {t}")
    c = covariance_matrix(sites, truth, cov)
    ell = cholesky_or_raise(c)
    rng = np.random.default_rng(seed)
    return ell @ rng.standard_normal((c.shape[0], t))


@dataclass(frozen=True)
class KrigeResult:
    mean: np.ndarray
    variance: np.ndarray


def _kriging_system(model, sites, values, pred_sites):
    dmap = model.mapping()
    y = dmap(sites)
    yp = dmap(pred_sites)
    factor = factor_covariance(exp_covariance(cdist(y, y), model.cov))
    cross = exp_covariance(cdist(y, yp), model.cov, cross=True)
    z = np.asarray(values, dtype=float).ravel()
    if z.shape[0] != y.shape[0]:
        raise ValueError(f"expected {y.shape[0]} observed values, got {z.shape[0]}")
    resid = z - model.mean
    alpha = cho_solve(factor, resid, check_finite=False)
    cross_solved = cho_solve(factor, cross, check_finite=False)
    mean = model.mean + cross.T @ alpha
    return yp, cross, cross_solved, mean


def krige(model, sites, values, pred_sites) -> KrigeResult:
    """Simple Kriging at prediction sites under a fitted model.

    The stored global mean plays the known mean; the nugget enters the
    data covariance but not the cross-covariances, so predictions target
    the noise-free field value plus a nugget term in the variance.
    """
    _, cross, cross_solved, mean = _kriging_system(model, sites, values, pred_sites)
    total = model.cov.sigma2 + model.cov.nugget
    var = total - np.sum(cross * cross_solved, axis=0)
    if np.any(var < -1e-10):
        raise NumericalError(f"negative kriging variance {var.min()}")
    return KrigeResult(mean=mean, variance=np.clip(var, 0.0, None))


def conditional_simulate(model, sites, values, pred_sites, n_draws: int, seed: int) -> np.ndarray:
    """Draws from the conditional Gaussian at the prediction sites.

    Returns an (m, n_draws) matrix whose empirical mean converges to
    the Kriging mean.  The conditional covariance may be singular
    (e.g. predicting at a data site with no nugget), so sampling uses
    the eigendecomposition with clipped nonnegative eigenvalues.
    """
    if n_draws < 1:
        raise ValueError(f"need at least one draw, got {n_draws}")
    yp, cross, cross_solved, mean = _kriging_system(model, sites, values, pred_sites)
    cond = exp_covariance(cdist(yp, yp), model.cov) - cross.T @ cross_solved
    cond = 0.5 * (cond + cond.T)
    vals, vecs = np.linalg.eigh(cond)
    scale = max(abs(vals).max(), 1.0)
    if vals.min() < -1e-8 * scale:
        raise NumericalError(f"conditional covariance has negative eigenvalue {vals.min()}")
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    rng = np.random.default_rng(seed)
    draws = root @ rng.standard_normal((len(mean), n_draws))
    return mean[:, None] + draws
