"""Non-metric multidimensional scaling machinery.

Classical (Torgerson) scaling provides the deterministic embeddings;
isotonic regression supplies the monotone transformation between
dispersions and configuration distances; the coordinate-update loop
alternates smoothing, variogram fitting and re-embedding until the
Kruskal stress stabilizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import isotonic_regression
from scipy.spatial.distance import pdist, squareform

from .covariance import DispersionMatrix, fit_variogram, variogram_inverse
from .errors import FitError

__all__ = [
    "Configuration",
    "classical_mds",
    "isotonic_fit",
    "kruskal_stress",
    "procrustes",
    "ProcrustesTransform",
    "configuration_stress",
    "sg_initialize",
]

Smoother = Callable[[np.ndarray, np.ndarray], np.ndarray]
# sg_initialize stops once the stress changes by at most this fraction
STRESS_TOL = 1e-6


@dataclass(frozen=True)
class Configuration:
    """An n x 2 set of artificial coordinates, centered on construction."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"configuration must be (n, 2), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("configuration contains non-finite coordinates")
        object.__setattr__(self, "points", pts - pts.mean(axis=0))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def distances(self) -> np.ndarray:
        """Condensed pairwise distances (same order as pdist)."""
        return pdist(self.points)


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so the largest-magnitude entry is positive
    (bit-reproducible embeddings)."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0:
            out[:, j] = -out[:, j]
    return out


def classical_mds(distances) -> Configuration:
    """Torgerson scaling of a symmetric zero-diagonal distance matrix.

    Double-centers the squared distances and takes the top-2 eigenpairs.
    A non-positive leading eigenvalue (all points indistinguishable)
    raises FitError; a non-positive second eigenvalue is clamped to
    zero, collapsing the configuration onto a line.
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got {d.shape}")
    if not np.allclose(d, d.T, atol=1e-10):
        raise ValueError("distance matrix must be symmetric")
    if np.any(d < 0) or np.any(np.abs(np.diag(d)) > 0):
        raise ValueError("distances must be nonnegative with a zero diagonal")
    n = d.shape[0]
    d2 = d**2
    row = d2.mean(axis=0)
    b = -0.5 * (d2 - row[None, :] - row[:, None] + d2.mean())
    vals, vecs = np.linalg.eigh(0.5 * (b + b.T))
    lead, second = vals[-1], vals[-2]
    scale = max(abs(vals).max(), 1.0)
    if lead <= 1e-12 * scale:
        raise FitError("degenerate distances: leading MDS eigenvalue is not positive")
    second = max(second, 0.0)
    vecs = _canonical_signs(vecs[:, [-1, -2]])
    pts = vecs * np.sqrt([lead, second])
    return Configuration(pts)


def isotonic_fit(d2, h) -> np.ndarray:
    """Monotone (in d2) least-squares fit to h, by pool-adjacent-violators.

    Ties in d2 share one fitted value.  The result is returned in the
    original pair order.
    """
    d2 = np.asarray(d2, dtype=float).ravel()
    h = np.asarray(h, dtype=float).ravel()
    if d2.shape != h.shape:
        raise ValueError("d2 and h must have equal length")
    if d2.size == 0:
        return np.empty(0)
    order = np.argsort(d2, kind="stable")
    ds = d2[order]
    # pool exact ties so tied dispersions share a fitted value
    boundaries = np.concatenate([[0], np.nonzero(np.diff(ds))[0] + 1, [ds.size]])
    counts = np.diff(boundaries)
    sums = np.add.reduceat(h[order], boundaries[:-1])
    means = sums / counts
    iso = isotonic_regression(means, weights=counts, increasing=True)
    fitted_sorted = np.repeat(iso.x, counts)
    out = np.empty_like(fitted_sorted)
    out[order] = fitted_sorted
    return out


def kruskal_stress(delta, hstar) -> float:
    """sqrt(sum (delta - h*)^2 / sum h*^2)."""
    delta = np.asarray(delta, dtype=float).ravel()
    hstar = np.asarray(hstar, dtype=float).ravel()
    if delta.shape != hstar.shape:
        raise ValueError("delta and hstar must have equal length")
    denom = float(np.sum(hstar**2))
    if denom == 0.0:
        raise ValueError("all configuration distances are zero")
    return float(np.sqrt(np.sum((delta - hstar) ** 2) / denom))


@dataclass(frozen=True)
class ProcrustesTransform:
    """Similarity y = scale * R x + shift (R proper unless reflective)."""

    rotation: np.ndarray
    shift: np.ndarray
    scale: float

    def apply(self, points: np.ndarray) -> np.ndarray:
        return self.scale * (np.asarray(points) @ self.rotation.T) + self.shift


def procrustes(source, target, scale: bool = True,
               allow_reflection: bool = False) -> ProcrustesTransform:
    """Best similarity transform taking source points onto target points.

    The rotation is the Kabsch solution; with ``scale`` the factor
    matches the RMS spreads of the two clouds, so the transformed source
    shares the target's centroid and spread.  With ``allow_reflection``
    the orthogonal factor may have determinant -1 when that fits better.
    """
    x = np.asarray(source, dtype=float)
    y = np.asarray(target, dtype=float)
    xm, ym = x.mean(axis=0), y.mean(axis=0)
    xc, yc = x - xm, y - ym
    nx = float(np.linalg.norm(xc))
    ny = float(np.linalg.norm(yc))
    if nx <= 1e-300:
        raise FitError("cannot align a degenerate (coincident) point set")
    u, _, vt = np.linalg.svd(yc.T @ xc)
    d = np.sign(np.linalg.det(u @ vt))
    if not allow_reflection and d < 0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
    r = u @ vt
    s = ny / nx if scale else 1.0
    shift = ym - s * (r @ xm)
    return ProcrustesTransform(rotation=r, shift=shift, scale=s)


def configuration_stress(dispersions: DispersionMatrix, config: Configuration) -> float:
    """Kruskal stress of a configuration against a dispersion matrix."""
    hstar = config.distances()
    delta = isotonic_fit(dispersions.upper(), hstar)
    return kruskal_stress(delta, hstar)


def sg_initialize(
    dispersions: DispersionMatrix,
    sites,
    smoother: Smoother,
    max_iter: int = 50,
) -> Configuration:
    """Coordinate-update loop producing a deformed configuration (Sampson
    & Guttorp 1992), the baseline that ``compare`` runs with a thin-plate
    smoother.

    Starting from classical scaling of the isotonically rescaled
    dispersions, each pass smooths the coordinates over the geographic
    sites, refits the variogram on the smoothed interdistances, and
    re-embeds the variogram-inverted dispersions.  Stress is monitored;
    the loop stops on a relative stress change of at most STRESS_TOL,
    after two consecutive stress increases (best configuration so far is
    kept), or at ``max_iter``.  The result is aligned to the sites by
    full Procrustes.
    """
    sites = np.asarray(sites, dtype=float)
    n = sites.shape[0]
    if n < 4:
        raise ValueError(f"need at least 4 sites, got {n}")
    if dispersions.n != n:
        raise ValueError("dispersion matrix size does not match the sites")

    d2u = dispersions.upper()
    geo = pdist(sites)

    def normalized(config: Configuration) -> Configuration:
        t = procrustes(config.points, sites, scale=True, allow_reflection=True)
        return Configuration(t.apply(config.points))

    # step 1: classical scaling of dispersions rescaled monotonically
    # onto the geographic distance scale
    delta0 = isotonic_fit(d2u, geo)
    config = normalized(classical_mds(squareform(delta0)))
    stress = configuration_stress(dispersions, config)

    best, best_stress = config, stress
    increases = 0
    for it in range(max_iter):
        try:
            smoothed = np.asarray(smoother(sites, config.points), dtype=float)
            model = fit_variogram(pdist(smoothed), d2u)
            h = variogram_inverse(model, dispersions.values)
            np.fill_diagonal(h, 0.0)
            new_config = normalized(classical_mds(h))
        except FitError as e:
            raise FitError(f"coordinate-update iteration {it + 1}: {e}") from e
        new_stress = configuration_stress(dispersions, new_config)
        if new_stress < best_stress:
            best, best_stress = new_config, new_stress
        if new_stress > stress:
            increases += 1
            if increases >= 2:
                break
        else:
            increases = 0
        done = abs(new_stress - stress) <= STRESS_TOL * max(stress, 1e-300)
        config, stress = new_config, new_stress
        if done:
            break
    return best if best_stress < stress else config
