"""Gaussian random fields under a deformed covariance, and prediction.

Provides the analytic truth map used by the simulation harness (an
area-preserving vortex), replicate simulation through
the Cholesky factor, and simple Kriging with conditional simulation for
a fitted deformation model.

Prediction builds one kriging system per call: the Cholesky factor L of
the data covariance, its inverse from LAPACK ``dtrtri``, and V = L^-1 K
from one in-place triangular product (BLAS ``dtrmm``) with the
cross-covariance K.  With one OpenBLAS thread that product runs 2-3x
faster than the triangular solve ``dtrsm`` on the same shape (n = 400
data sites, m = 10^4 prediction sites), and its results agree with a
dense Cholesky solve to 1e-10 of the sill up to cond(C) = 2e6
(tests/test_fields.py, TestKrigeAtNetworkScale).  The mean is
mu + V^T L^-1 (z - mu), the variance sigma2 + nugget - colsum(V o V),
and the conditional covariance K_pp - V^T V.  Conditional draws come
from the pivoted Cholesky root of that covariance (LAPACK ``dpstrf``),
which also covers the singular case of prediction sites at data sites,
or repeated, with no nugget.
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
)
from .errors import NumericalError

__all__ = [
    "Swirl",
    "simulate_grf",
    "KrigeResult",
    "KrigingSystem",
    "psd_root",
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
# a matrix that is not positive semidefinite
ROOT_SLACK = 1e-8


def psd_root(a: np.ndarray, scale: float) -> np.ndarray:
    """Root R, (m, rank), with R R^T = a for a positive semidefinite a.

    Reads the lower triangle of ``a``.  LAPACK's pivoted Cholesky
    (``dpstrf``) factors P^T a P = L L^T, stopping at the first pivot
    below m eps ``scale``; row i of L becomes row piv[i] of R, so one
    path serves full-rank and singular matrices.  When it stops at rank
    r < m, the trailing (m - r)^2 Schur complement is formed from ``a``
    and L; an entry above ``ROOT_SLACK * scale`` means ``a`` is not
    positive semidefinite and raises NumericalError.
    """
    m = a.shape[0]
    low, piv, rank, _ = lapack.dpstrf(a, tol=m * np.finfo(float).eps * scale, lower=1)
    piv -= 1
    if rank < m:
        rest = piv[rank:]
        tail = low[rank:, :rank]
        schur = a[np.maximum.outer(rest, rest), np.minimum.outer(rest, rest)] - tail @ tail.T
        worst = np.abs(schur).max()
        if not worst <= ROOT_SLACK * scale:
            raise NumericalError(f"covariance is not positive semidefinite: Schur complement "
                                 f"entry {worst:.3g} at rank {rank} of {m}")
    head = low[:rank, :rank]
    head *= np.tri(rank, dtype=bool)
    root = np.empty((m, rank))
    root[piv] = low[:, :rank]
    return root


class KrigingSystem:
    """Simple Kriging of one data vector onto prediction sites.

    Holds V = L^-1 K for the lower Cholesky factor L of the data
    covariance C and the cross-covariance K.  L is inverted once
    (``dtrtri``), and L^-1 multiplies K in place (``dtrmm``) and whitens
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
        chol, _ = factor_covariance(exp_covariance(cdist(y, y), self.cov))
        # the upper triangle still holds C, so only the lower one is read
        inv, info = lapack.dtrtri(chol, lower=1, overwrite_c=1)
        if info != 0:
            raise NumericalError(f"cannot invert the Cholesky factor: dtrtri info {info}")
        # built (m, n) and transposed: Fortran order, so it is multiplied in place
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

    def conditional_root(self) -> np.ndarray:
        """Pivoted root (``psd_root``) of the conditional covariance
        K_pp - V^T V."""
        # Fortran order, so dsyrk updates the lower triangle in place
        prior = exp_covariance(cdist(self.yp, self.yp), self.cov).T
        cond = blas.dsyrk(-1.0, self.v, beta=1.0, c=prior, trans=1, lower=1, overwrite_c=1)
        return psd_root(cond, self.scale)

    def simulate(self, n_draws: int, seed: int) -> np.ndarray:
        """(m, n_draws) conditional draws, mean + R N for the conditional
        root R, (m, rank), and N standard normal, (rank, n_draws).  R has
        fewer columns than sites when a prediction site is a data site or
        is repeated and there is no nugget: such sites then draw the data
        value or each other's value."""
        if n_draws < 1:
            raise ValueError(f"need at least one draw, got {n_draws}")
        root = self.conditional_root()
        rng = np.random.default_rng(seed)
        return self.mean[:, None] + root @ rng.standard_normal((root.shape[1], n_draws))
