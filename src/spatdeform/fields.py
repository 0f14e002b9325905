"""Gaussian random fields under a deformed covariance, and prediction.

Provides the analytic truth map used by the simulation harness (an
area-preserving vortex), replicate simulation through
the Cholesky factor, and simple Kriging with conditional simulation for
a fitted deformation model.

Prediction builds one kriging system per call: the Cholesky factor L of
the data covariance, its inverse from ``covariance.invert_lower``, and
V = L^-1 K from one in-place triangular product (BLAS ``dtrmm``) with
the cross-covariance K.  With one OpenBLAS thread that product runs 2-3x
faster than the triangular solve ``dtrsm`` on the same shape (n = 400
data sites, m = 10^4 prediction sites), and its results agree with a
dense Cholesky solve to 1e-10 of the sill up to cond(C) = 2e6
(tests/test_fields.py, TestKrigeAtNetworkScale).  The mean is
mu + V^T L^-1 (z - mu), the variance sigma2 + nugget - colsum(V o V),
and the conditional covariance K_pp - V^T V.  Each full-size array
exists once: K is built over the (m, n) distances and V over K, and K_pp
over the (m, m) distances, less V^T V (BLAS ``dsyrk``), then factored by
pivoted Cholesky (LAPACK ``dpstrf``), all in place.  Draws apply the
pivoted factor to standard normals, which also covers prediction sites
at data sites, or repeated, with no nugget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack
from scipy.spatial.distance import cdist

from .covariance import (
    CovParams,
    covariance_matrix,
    exp_covariance,
    factor_covariance,
    invert_lower,
)
from .errors import NumericalError

__all__ = [
    "Swirl",
    "simulate_grf",
    "KrigeResult",
    "KrigingSystem",
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
    ell = np.tril(factor_covariance(c)[0])
    rng = np.random.default_rng(seed)
    return ell @ rng.standard_normal((c.shape[0], t))


@dataclass(frozen=True)
class KrigeResult:
    mean: np.ndarray
    variance: np.ndarray


# a kriging variance below -VARIANCE_SLACK (sigma2 + nugget) is an error,
# not rounding; exact predictions round to about 1e-15 of that scale
VARIANCE_SLACK = 1e-10
# a trailing Schur complement entry above ROOT_SLACK times the scale marks
# a conditional covariance that is not positive semidefinite
ROOT_SLACK = 1e-8


class KrigingSystem:
    """Simple Kriging of one data vector onto prediction sites.

    Holds V = L^-1 K for the lower Cholesky factor L of the data
    covariance C and the cross-covariance K.  L is inverted once
    (``invert_lower``), and L^-1 multiplies K in place (``dtrmm``) and whitens
    the data, L^-1 (z - mu): a triangular product runs faster than the
    triangular solve with as many right-hand sides.  The mean, the
    variance and the conditional covariance all read from V.  The
    stored global mean plays the known mean; the nugget enters the data
    covariance but not the cross-covariances, so predictions target the
    noise-free field value plus a nugget term in the variance.
    """

    def __init__(self, model, sites, values, pred_sites):
        dmap = model.mapping()
        y = dmap(sites)
        z = np.asarray(values, dtype=float).ravel()
        if z.shape[0] != y.shape[0]:
            raise ValueError(f"expected {y.shape[0]} observed values, got {z.shape[0]}")
        self.cov = model.cov
        self.scale = model.cov.sigma2 + model.cov.nugget
        self.yp = dmap(pred_sites)
        inv = invert_lower(factor_covariance(exp_covariance(cdist(y, y), self.cov))[0])
        # K over the (m, n) distances, transposed: Fortran order, so V
        # overwrites it in place
        cross = exp_covariance(cdist(self.yp, y), self.cov, cross=True).T
        self.v = blas.dtrmm(1.0, inv, cross, lower=1, overwrite_b=1)
        white = blas.dtrmv(inv, z - model.mean, lower=1)
        self.mean = model.mean + self.v.T @ white

    def krige(self) -> KrigeResult:
        """Mean and variance, sigma2 + nugget - colsum(V o V)."""
        var = self.scale - np.einsum("ij,ij->j", self.v, self.v)
        if np.any(var < -VARIANCE_SLACK * self.scale):
            raise NumericalError(f"negative kriging variance {var.min()}")
        return KrigeResult(mean=self.mean, variance=np.clip(var, 0.0, None))

    def conditional_factor(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Pivoted Cholesky factor (low, piv, rank) of K_pp - V^T V, as
        ``dpstrf`` leaves it: P^T (K_pp - V^T V) P = L L^T, with L the
        first ``rank`` columns of the lower triangle of ``low`` and site
        piv[i] at row i.  When it stops at rank r < m, the trailing Schur
        complement is recomputed from the model; an entry above
        ``ROOT_SLACK`` times the scale raises NumericalError."""
        m = self.yp.shape[0]
        # Fortran order, so dsyrk and dpstrf overwrite the prior in place
        prior = exp_covariance(cdist(self.yp, self.yp), self.cov).T
        cond = blas.dsyrk(-1.0, self.v, beta=1.0, c=prior, trans=1, lower=1, overwrite_c=1)
        low, piv, rank, _ = lapack.dpstrf(cond, tol=m * np.finfo(float).eps * self.scale,
                                          lower=1, overwrite_a=1)
        piv -= 1
        if rank < m:
            rest = piv[rank:]
            y_rest, v_rest, tail = self.yp[rest], self.v[:, rest], low[rank:, :rank]
            schur = exp_covariance(cdist(y_rest, y_rest), self.cov)
            schur -= v_rest.T @ v_rest + tail @ tail.T
            worst = np.abs(schur).max()
            if not worst <= ROOT_SLACK * self.scale:
                raise NumericalError(f"covariance is not positive semidefinite: Schur complement "
                                     f"entry {worst:.3g} at rank {rank} of {m}")
        return low, piv, rank

    def simulate(self, n_draws: int, seed: int) -> np.ndarray:
        """(m, n_draws) conditional draws, mean + P L N for the factor of
        ``conditional_factor`` and N standard normal, (rank, n_draws).
        Fewer normals than sites are drawn when a prediction site is a
        data site or is repeated and there is no nugget: such sites then
        draw the data value or each other's value."""
        if n_draws < 1:
            raise ValueError(f"need at least one draw, got {n_draws}")
        low, piv, rank = self.conditional_factor()
        normal = np.random.default_rng(seed).standard_normal((rank, n_draws))
        draws = np.empty((piv.size, n_draws))
        # low[:, :rank] is contiguous, and dtrmm reads its leading triangle
        # with leading dimension m: the factor is not copied
        draws[piv] = np.vstack([blas.dtrmm(1.0, low[:, :rank], normal, lower=1),
                                low[rank:, :rank] @ normal])
        draws += self.mean[:, None]
        return draws
