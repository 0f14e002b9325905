"""Stationary exponential covariance in deformed coordinates, sample
dispersions from temporal replicates, and variogram fitting/inversion.

The link between the two worlds: for sites i, j with deformed distance
h, the dispersion d2_ij (the sample variogram) estimates the full
variogram g(h) = 2 nugget + 2 sill (1 - exp(-h / range)), so a fitted g
can be inverted to turn dispersions back into deformed-plane distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, cho_factor, lapack
from scipy.optimize import least_squares
from scipy.spatial.distance import cdist

from .errors import DataError, FitError, NumericalError

__all__ = [
    "CovParams",
    "VariogramModel",
    "DispersionMatrix",
    "exp_covariance",
    "covariance_matrix",
    "factor_covariance",
    "invert_lower",
    "sample_dispersions",
    "fit_variogram",
    "variogram_inverse",
]


@dataclass(frozen=True)
class CovParams:
    """Partial sill, range and nugget of the deformed exponential model."""

    sigma2: float
    phi: float
    nugget: float = 0.0

    def __post_init__(self):
        if not (self.sigma2 > 0):
            raise ValueError(f"sigma2 must be > 0, got {self.sigma2}")
        if not (self.phi > 0):
            raise ValueError(f"phi must be > 0, got {self.phi}")
        if not (self.nugget >= 0):
            raise ValueError(f"nugget must be >= 0, got {self.nugget}")


@dataclass(frozen=True)
class VariogramModel:
    """Exponential variogram g(h) = nugget + psill * (1 - exp(-h/range))."""

    nugget: float
    psill: float
    range_: float
    rss: float = float("nan")

    def __post_init__(self):
        if self.nugget < 0 or self.psill <= 0 or self.range_ <= 0:
            raise ValueError(
                f"variogram parameters out of range: nugget={self.nugget}, "
                f"psill={self.psill}, range={self.range_}"
            )

    def __call__(self, h):
        h = np.asarray(h, dtype=float)
        return self.nugget + self.psill * (1.0 - np.exp(-h / self.range_))


@dataclass(frozen=True)
class DispersionMatrix:
    """Symmetric nonnegative matrix of pairwise sample dispersions."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"dispersion matrix must be square, got {v.shape}")
        if not np.allclose(v, v.T, atol=1e-10):
            raise ValueError("dispersion matrix must be symmetric")
        if np.any(v < 0) or np.any(np.diag(v) != 0):
            raise ValueError("dispersions must be >= 0 with a zero diagonal")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def upper(self) -> np.ndarray:
        """Strictly upper-triangular entries, row-major."""
        iu = np.triu_indices(self.n, k=1)
        return self.values[iu]


def exp_covariance(d, params: CovParams, cross: bool = False) -> np.ndarray:
    """Exponential covariance sigma2 exp(-d / phi), written over the
    distances ``d`` and returned: a caller that reads them later passes a copy.

    ``d`` holds the interdistances of one point set, whose covariance
    carries the nugget on its diagonal; with ``cross`` it holds the
    distances between two sets, whose covariance has no nugget.
    """
    np.exp(np.divide(d, -params.phi, out=d), out=d)
    d *= params.sigma2
    if not cross:
        d[np.diag_indices_from(d)] += params.nugget
    return d


def covariance_matrix(sites, mapping, params: CovParams) -> np.ndarray:
    """Deformed-exponential covariance matrix of the given sites.

    ``mapping`` is any callable taking (n, 2) points to (n, 2) deformed
    points (a DeformationMap or an analytic truth map).
    """
    y = np.asarray(mapping(np.asarray(sites, dtype=float)), dtype=float)
    return exp_covariance(cdist(y, y), params)


def factor_covariance(c: np.ndarray) -> tuple[np.ndarray, bool]:
    """Lower Cholesky factor in ``scipy.linalg.cho_factor`` form, raising
    NumericalError when the matrix is not finite or not positive
    definite."""
    if not np.isfinite(c).all():
        raise NumericalError("covariance matrix has non-finite entries")
    try:
        return cho_factor(c, lower=True, check_finite=False)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"covariance matrix is not positive definite: {e}") from None


# LAPACK dtrtri inverts blocks up to this order. With one OpenBLAS thread on a
# 2-vCPU Xeon, 32-96 run alike, and n = 400 takes 1 ms against dtrtri's 2.6 ms
INVERSE_BLOCK = 64


def invert_lower(a: np.ndarray) -> np.ndarray:
    """Overwrite the lower triangle of the Fortran-ordered Cholesky factor
    ``a`` with its inverse and return ``a``: [[A, 0], [B, D]] inverts as
    [[A^-1, 0], [-D^-1 B A^-1, D^-1]] by two dtrmm (Du Croz & Higham 1992)."""
    n = a.shape[0]
    if n <= INVERSE_BLOCK:
        # a diagonal block is not contiguous, so dtrtri inverts a copy
        a[...] = lapack.dtrtri(a, lower=1, overwrite_c=1)[0]
        return a
    k = n // 2
    head, tail = invert_lower(a[:k, :k]), invert_lower(a[k:, k:])
    a[k:, :k] = blas.dtrmm(-1.0, tail, blas.dtrmm(1.0, head, a[k:, :k], side=1, lower=1),
                           lower=1, overwrite_b=1)
    return a


def sample_dispersions(replicates) -> DispersionMatrix:
    """Pairwise dispersions d2_ij = s_ii + s_jj - 2 s_ij from replicates.

    ``replicates`` is (n, T); s is the sample covariance across the T
    columns (divisor T-1, per-site means removed).  Equivalently d2_ij
    is the sample variance of the difference series Z_i - Z_j.
    """
    z = np.asarray(replicates, dtype=float)
    if z.ndim != 2:
        raise ValueError(f"replicates must be (n, T), got shape {z.shape}")
    n, t = z.shape
    if t < 2:
        raise DataError(f"need at least 2 temporal replicates, got {t}")
    s = np.cov(z)
    s = np.atleast_2d(s)
    diag = np.diag(s)
    d2 = diag[:, None] + diag[None, :] - 2.0 * s
    d2 = 0.5 * (d2 + d2.T)
    np.clip(d2, 0.0, None, out=d2)
    np.fill_diagonal(d2, 0.0)
    return DispersionMatrix(d2)


# every variogram fit pools the pairs into this many equal-width distance bins
VARIOGRAM_BINS = 15
# variogram_inverse caps distances at this many ranges, where the
# exponential variogram is numerically flat
INVERSE_CAP_RANGES = 3.0


def _bin_pairs(h: np.ndarray, d2: np.ndarray):
    """VARIOGRAM_BINS equal-width distance bins; returns (mean h, mean d2,
    count) per nonempty bin."""
    lo, hi = h.min(), h.max()
    edges = np.linspace(lo, hi, VARIOGRAM_BINS + 1)
    idx = np.clip(np.digitize(h, edges[1:-1]), 0, VARIOGRAM_BINS - 1)
    hb, gb, nb = [], [], []
    for b in range(VARIOGRAM_BINS):
        mask = idx == b
        if not np.any(mask):
            continue
        hb.append(h[mask].mean())
        gb.append(d2[mask].mean())
        nb.append(mask.sum())
    return np.array(hb), np.array(gb), np.array(nb)


def fit_variogram(h, d2) -> VariogramModel:
    """Weighted least-squares exponential variogram fit.

    Pairs are pooled into VARIOGRAM_BINS equal-width distance bins
    (empty bins dropped) and the residuals are weighted Cressie-style by
    sqrt(N_j) / g(h_j).  Raises FitError when the pairs carry no usable
    structure (fewer than 3 distinct distances, or a flat d2 profile
    driving the sill to zero).
    """
    h = np.asarray(h, dtype=float).ravel()
    d2 = np.asarray(d2, dtype=float).ravel()
    if h.shape != d2.shape:
        raise ValueError("h and d2 must have equal length")
    if np.unique(h).size < 3:
        raise FitError(f"variogram fit needs >= 3 distinct distances, got {np.unique(h).size}")
    hb, gb, nb = _bin_pairs(h, d2)
    gmax = gb.max()
    if gmax <= 0 or (gb.max() - gb.min()) <= 1e-12 * max(gmax, 1.0):
        raise FitError("dispersions show no spatial structure (flat variogram)")

    hscale = hb.max()
    tiny = 1e-10 * gmax

    def residuals(p):
        a, b, r = p
        g = a + b * (1.0 - np.exp(-hb / r))
        g = np.maximum(g, tiny)
        return np.sqrt(nb) * (gb - g) / g

    a0 = max(min(gb.min(), gb[0]), 0.0)
    b0 = max(gmax - a0, 0.1 * gmax)
    # finite upper bounds keep the fit out of the unidentifiable ridge
    # b, r -> inf with b/r fixed (a straight-line variogram segment)
    upper = [2.0 * gmax, 10.0 * gmax, 100.0 * hscale]
    best = None
    for r0 in (hscale / 10.0, hscale / 3.0, hscale):
        sol = least_squares(
            residuals,
            x0=[min(a0, upper[0]), min(b0, upper[1]), r0],
            bounds=([0.0, tiny, 1e-8 * hscale], upper),
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
        )
        if best is None or sol.cost < best.cost:
            best = sol
    a, b, r = best.x
    if b <= 10 * tiny:
        raise FitError("variogram sill collapsed to zero (no spatial structure)")
    return VariogramModel(nugget=a, psill=b, range_=r, rss=2.0 * best.cost)


def variogram_inverse(model: VariogramModel, d2):
    """Distance at which the variogram reaches d2, clamped to be total.

    Values at or below the nugget map to 0; values beyond the
    numerically flat part (INVERSE_CAP_RANGES ranges) map to the cap.
    Accepts scalars or arrays.
    """
    d2 = np.asarray(d2, dtype=float)
    a, b, r = model.nugget, model.psill, model.range_
    hmax = INVERSE_CAP_RANGES * r
    frac = (d2 - a) / b
    frac_cap = 1.0 - np.exp(-hmax / r)
    with np.errstate(invalid="ignore", divide="ignore"):
        h = -r * np.log1p(-np.clip(frac, 0.0, frac_cap))
    h = np.where(frac <= 0.0, 0.0, np.where(frac >= frac_cap, hmax, h))
    return float(h) if h.ndim == 0 else h
