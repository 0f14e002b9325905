"""Alternating estimation of the deformation and its covariance.

The fit starts from the identity map, with the covariance of the
variogram that the sample dispersions trace against the sites' own
distances.  One outer iteration then ascends the likelihood over the
coefficient matrices, the nugget-to-sill ratio and the range together,
from the incumbent ones.  Sampson & Guttorp's (1992) dispersion
embedding is not run: its configuration could reach the passes only as
an affine start, which the first pass and the gauge normalization reduce
to the identity.

The ascent writes the covariance as sigma2 (R_phi + g I), with g the
nugget-to-sill ratio, and profiles sigma2 out in closed form (Mardia &
Marshall 1984).  A common scale of the coefficients and of phi gives the
same covariance, so the ascent holds the map's scale and moves phi.  It
runs the interior-point method of the constrained least squares, with
the fitted centroid, rotation and scale held by four linear gauge rows.
Its non-folding margin, its penalty and the weight update are
scale-free, so every pass runs in the ascent's chart: the sites'
centroid at the origin of the deformed plane, and a fitted spread of at
least the sites'.  The model is made once, at the end: the gauge
normalization gives the map the sites' centroid and spread, shrinking it
and phi together.

The ascent maximizes a penalized likelihood: a scale-free
second-difference roughness of the coefficients (P-splines, Eilers &
Marx 1996) keeps the 2 K1 K2 coefficients from spending their capacity
on noise.  Its weight is estimated inside the fit from the data alone by
the generalized Fellner-Schall update (Wood & Fasiolo 2017).
"""

from __future__ import annotations

import contextlib
import functools
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, block_diag, lapack
from scipy.spatial.distance import cdist, pdist

from .basis import KnotGrid, design_matrix, difference_penalty
from .covariance import (
    CovParams,
    DispersionMatrix,
    covariance_matrix,
    distinct_distances,
    exp_covariance,
    factor_covariance,
    fit_variogram,
    invert_lower,
    sample_dispersions,
)
from .deformation import (
    CoefPair,
    DeformationMap,
    coef_to_vec,
    corner_values,
    default_epsilon,
    fitted_coords,
    identity_coef,
    transform_coef,
    vec_to_coef,
)
from .errors import (
    DataError,
    FitError,
    InfeasibilityError,
    NumericalError,
    SpatdeformError,
)
from .scaling import ProcrustesTransform, procrustes
from .smoothers import _interior_point

__all__ = [
    "Dataset",
    "DeformModel",
    "FitConfig",
    "FitDiagnostics",
    "SmoothnessPenalty",
    "CoefObjective",
    "difference_penalty",
    "replicate_loglik",
    "loglik",
    "refine_coords_ml",
    "normalize_gauge",
    "fit",
]


@dataclass(frozen=True)
class Dataset:
    """Complete-case site coordinates with temporal replicates."""

    sites: np.ndarray
    replicates: np.ndarray
    ids: tuple[str, ...] = ()
    times: tuple[str, ...] = ()
    dropped_ids: tuple[str, ...] = ()

    def __post_init__(self):
        sites = np.asarray(self.sites, dtype=float)
        z = np.asarray(self.replicates, dtype=float)
        if sites.ndim != 2 or sites.shape[1] != 2:
            raise DataError(f"sites must be (n, 2), got {sites.shape}")
        n = sites.shape[0]
        if z.shape[:1] != (n,) or z.ndim != 2:
            raise DataError(f"replicates must be ({n}, T), got {z.shape}")
        if n < 4:
            raise DataError(f"need at least 4 sites, got {n}")
        if z.shape[1] < 2:
            raise DataError(f"need at least 2 replicates, got {z.shape[1]}")
        if not (np.all(np.isfinite(sites)) and np.all(np.isfinite(z))):
            raise DataError("sites and replicates must be finite (complete cases only)")
        ids = tuple(self.ids) if self.ids else tuple(f"s{i:03d}" for i in range(n))
        if len(ids) != n or len(set(ids)) != n:
            raise DataError("ids must be unique and match the number of sites")
        times = tuple(self.times) if self.times else tuple(
            f"t{j:03d}" for j in range(z.shape[1])
        )
        if len(times) != z.shape[1] or len(set(times)) != z.shape[1]:
            raise DataError("time labels must be unique and match the replicate count")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "replicates", z)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "times", times)

    @property
    def n(self) -> int:
        return self.sites.shape[0]

    @property
    def t(self) -> int:
        return self.replicates.shape[1]

    def site_means(self) -> np.ndarray:
        return self.replicates.mean(axis=1)

    def demeaned(self) -> np.ndarray:
        return self.replicates - self.site_means()[:, None]


@dataclass
class FitDiagnostics:
    """Raw per-iteration record of the outer loop (no smoothing)."""

    loglik: list[float] = field(default_factory=list)
    margins: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    # each optimizer warning raised inside fit, as "pass N: <message>"
    messages: list[str] = field(default_factory=list)
    # smoothness-penalty weight used in each outer iteration, and the
    # effective degrees of freedom tr((I + lam S)^+ I) of the returned fit
    penalty_weights: list[float] = field(default_factory=list)
    effective_dof: float = float("nan")


@dataclass(frozen=True)
class DeformModel:
    """Fitted deformation, covariance parameters and metadata.

    The map must not fold: a least corner |J| that is not positive
    raises DataError, which names it.
    """

    grid: KnotGrid
    coef: CoefPair
    cov: CovParams
    mean: float
    diagnostics: FitDiagnostics

    def __post_init__(self):
        low = float(corner_values(self.grid, self.coef).min())
        if not low > 0:
            raise DataError(f"the deformation folds: its least corner |J| is {low:.6g}")

    def mapping(self) -> DeformationMap:
        return DeformationMap(self.grid, self.coef)


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the alternating fit; a value out of range raises
    DataError."""

    k1: int
    k2: int
    epsilon: float | None = None
    tol: float = 1e-6
    max_outer: int = 10

    def __post_init__(self):
        if not (self.k1 >= 2 and self.k2 >= 2):
            raise DataError(f"basis counts must be >= 2, got K1={self.k1}, K2={self.k2}")
        if self.epsilon is not None and not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise DataError(f"corner margin epsilon must be finite and > 0, got {self.epsilon}")
        if not self.tol >= 0:
            raise DataError(f"tolerance must be >= 0, got {self.tol}")
        if not self.max_outer >= 1:
            raise DataError(f"max_outer must be >= 1, got {self.max_outer}")


class _LikelihoodState:
    """Gaussian log-likelihood of demeaned replicate columns ``zc`` under
    one covariance matrix ``c``.

    A state built by ``at`` is a unit-sill one, C = R_phi + g I at the
    coordinates y = W z of the stacked coefficients z.  It also gives the
    log-likelihood of sigma2 C maximized over sigma2, that profiled
    log-likelihood's gradient in x = (z, g), and the information of x.
    The state forms once what these share: the log-determinant from
    ``factor_covariance``'s L, C^-1 = L^-T L^-1 over L in place
    (``invert_lower``, then LAPACK lauum) in ``cinv``'s lower triangle,
    V = C^-1 Z and the quadratic form tr(Z' V).  The gradient and the
    information share ``kernel``, formed on first use; a gradient adds a
    copy of C^-1's triangle, an information R_k and R_k C^-1, and mirrors
    C^-1 into ``cinv``'s upper triangle, which held C's until then.
    """

    def __init__(self, zc, c, w=None, y=None, d=None, phi=None):
        self.zc, self.c, self.w, self.y, self.d, self.phi = zc, c, w, y, d, phi
        lower = factor_covariance(c)[0]
        self.logdet = 2.0 * float(np.sum(np.log(np.diag(lower))))
        self.cinv = lapack.dlauum(invert_lower(lower), lower=1, overwrite_c=1)[0]
        self.v = blas.dsymm(1.0, self.cinv, zc, lower=1)
        self.quad = float(np.sum(zc * self.v))

    @classmethod
    def at(cls, zc, w, z, g: float, phi: float) -> "_LikelihoodState":
        y = fitted_coords(w, z)
        d = cdist(y, y)
        c = exp_covariance(d.copy(), CovParams(1.0, phi))  # the kernel reads d
        c[np.diag_indices_from(c)] += g
        return cls(zc, c, w, y, d, phi)

    @property
    def value(self) -> float:
        n, t = self.zc.shape
        return -0.5 * (n * t * np.log(2.0 * np.pi) + t * self.logdet + self.quad)

    @property
    def sill(self) -> float:
        """The sigma2 that maximizes the likelihood of sigma2 C, in closed
        form tr(Z' C^-1 Z) / (n T)."""
        return self.quad / self.zc.size

    @property
    def profiled_value(self) -> float:
        """The log-likelihood of sigma2 C at sigma2 = ``sill``."""
        n, t = self.zc.shape
        return -0.5 * (n * t * (np.log(2.0 * np.pi * self.sill) + 1.0) + t * self.logdet)

    @functools.cached_property
    def kernel(self) -> np.ndarray:
        """G = -C / (phi D) strictly below the diagonal, 0 elsewhere and at
        co-located stations (D = 0): dC_ij / dy_i = (G + G')_ij (y_i - y_j)."""
        g = np.zeros_like(self.d)
        np.divide(self.c, self.d, out=g, where=np.tri(len(g), k=-1, dtype=bool) & (self.d > 0))
        return np.multiply(g, -1.0 / self.phi, out=g)

    @functools.cached_property
    def profiled_grad(self) -> np.ndarray:
        """Gradient of ``profiled_value`` in x = (z, g).

        With V = C^-1 Z, the log-likelihood of sigma2 C changes along dC
        by (1/2)[tr(V' dC V) / sigma2 - T tr(C^-1 dC)] (Mardia & Marshall
        1984); at the maximizing sigma2 the profiled one changes by the
        same.  dC is I for g.  For z it chains through C_ij = exp(-D_ij /
        phi) off the diagonal and D_ij = |y_i - y_j|: dl/dy_i is sum_j A_ij
        (y_i - y_j), A = (V V' / sigma2 - T C^-1) o (G + G') (lower half).
        """
        t, y, v, s2 = self.zc.shape[1], self.y, self.v, self.sill
        ratio = blas.dsyrk(1.0 / s2, v, beta=-t, c=self.cinv.copy("F"), lower=1, overwrite_c=1)
        ratio *= self.kernel  # the entries on and above the diagonal meet its zeros
        grad_y = (ratio.sum(axis=1) + ratio.sum(axis=0))[:, None] * y - ratio @ y - ratio.T @ y
        d_g = 0.5 * (float(np.sum(v * v)) / s2 - t * np.trace(self.cinv))
        return np.concatenate([self.w.T @ grad_y[:, 0], self.w.T @ grad_y[:, 1], [d_g]])

    @functools.cached_property
    def information(self) -> tuple[np.ndarray, np.ndarray]:
        """Expected information of x = (z, g) at fixed sigma2, and the
        vector u whose rank-one u u' profiling sigma2 out removes from it.

        Entry (p, q) is (T/2) tr(Ch C_p Ch C_q), with Ch = C^-1 and C_p =
        dC/dx_p, and u_p = sqrt(T / 2n) tr(Ch C_p): the information of
        (sigma2, x) less its sigma2 part (Schur complement) is I - u u'.
        Let R_k[i, j] = dC_ij / dy_ik, the antisymmetric derivative kernel
        of component k, and P_k = R_k Ch.  The coefficient blocks (k, l)
        are then (T/2) W' X W with X = 2 [P_k o P_l' - Ch o (P_k R_l)], and
        tr(B C_p) for a symmetric B is 2 (W' rowsum(B o R_k))_p, so the
        2 K1 K2 derivative matrices are never formed.  The nugget column
        takes rowsum((Ch Ch) o R_k) as rowsum(Ch o P_k).
        """
        y, w, cinv = self.y, self.w, self.cinv
        # R_k' = (y_j - y_i)(G + G')_ij in C order is R_k in Fortran order, read uncopied
        kernel = self.kernel + self.kernel.T
        r = [(np.subtract.outer(-y[:, k], -y[:, k]) * kernel).T for k in range(2)]
        del kernel
        p = [blas.dsymm(1.0, cinv, rk, side=1, lower=1) for rk in r]
        for j in range(len(y) - 1):
            cinv[j, j + 1:] = cinv[j + 1:, j]
        m = w.shape[1]
        info = np.empty((2 * m + 1, 2 * m + 1))
        for k in range(2):
            for l in range(k, 2):
                block = 2.0 * (w.T @ (p[k] * p[l].T - p[k] @ r[l] * cinv) @ w)
                info[k * m:(k + 1) * m, l * m:(l + 1) * m] = block
                info[l * m:(l + 1) * m, k * m:(k + 1) * m] = block.T
            info[k * m:(k + 1) * m, -1] = 2.0 * (w.T @ np.sum(cinv * p[k], axis=1))
        info[-1, :-1] = info[:-1, -1]
        info[-1, -1] = np.sum(cinv * cinv)
        trace = np.concatenate([2.0 * (w.T @ np.sum(cinv * rk, axis=1)) for rk in r]
                               + [[np.trace(cinv)]])
        t = self.zc.shape[1]
        return 0.5 * t * info, np.sqrt(0.5 * t / len(y)) * trace


def replicate_loglik(replicates, cov_matrix) -> float:
    """Zero-mean Gaussian log-likelihood of i.i.d. replicate columns.

    Per-site sample means are removed first (the model mean is profiled
    out), so the quadratic form uses the (T-1)/T-scaled sample
    covariance.  Computed through one Cholesky factorization.
    """
    z = np.atleast_2d(np.asarray(replicates, dtype=float))
    return _LikelihoodState(z - z.mean(axis=1, keepdims=True), cov_matrix).value


def loglik(dataset: Dataset, mapping, cov: CovParams) -> float:
    """Replicate log-likelihood of a dataset under a deformation model."""
    c = covariance_matrix(dataset.sites, mapping, cov)
    return replicate_loglik(dataset.replicates, c)


# the likelihood ascent holds the nugget-to-sill ratio g within [0, G_MAX]
G_MAX = 1e6


@dataclass(frozen=True, eq=False)
class SmoothnessPenalty:
    """Scale-free roughness ``q0 * (z'Sz) / (z'Qz)`` of stacked coefficients.

    ``S`` applies the second-difference penalty to both coefficient
    matrices, ``z'Qz`` is the spread sum |y_i - ybar|^2 of the fitted
    coordinates at the sites and ``q0`` the spread of the sites.  The
    value is unchanged by any shift, rotation or scaling of the deformed
    plane, so the penalty does not pull the map inward; once the gauge
    is normalized (fitted spread equal to the sites' spread) it equals
    ``z'Sz``.
    """

    s: np.ndarray     # (m, m) per-component difference penalty
    wc: np.ndarray    # (n, m) design matrix with column means removed
    q0: float
    rank: int         # rank of S on both components together

    @classmethod
    def for_sites(cls, grid: KnotGrid, sites) -> "SmoothnessPenalty":
        sites = np.asarray(sites, dtype=float)
        w = design_matrix(grid, sites).toarray()
        q0 = float(np.sum((sites - sites.mean(axis=0)) ** 2))
        nullity = min(grid.k1, 2) * min(grid.k2, 2)
        return cls(difference_penalty(grid), w - w.mean(axis=0), q0,
                   2 * (grid.k1 * grid.k2 - nullity))

    def _parts(self, z):
        zz = np.asarray(z, dtype=float).reshape(2, -1).T
        wz = self.wc @ zz
        return zz, self.s @ zz, wz, float(np.sum(wz * wz))

    def value_and_grad(self, z) -> tuple[float, np.ndarray]:
        zz, sz, wz, spread = self._parts(z)
        ratio = float(np.sum(zz * sz)) / spread
        grad = (2.0 * self.q0 / spread) * (sz - ratio * (self.wc.T @ wz))
        return self.q0 * ratio, grad.T.ravel()

    def spread(self, z) -> float:
        """The fitted spread z'Qz."""
        return self._parts(z)[3]

    def matrix(self, z) -> np.ndarray:
        """Quadratic form equal to the penalty at ``z``: z' M z = value."""
        return (self.q0 / self.spread(z)) * np.kron(np.eye(2), self.s)


class CoefObjective:
    """Negative penalized profiled log-likelihood over x = (z, g), the
    stacked coefficients and the nugget-to-sill ratio.

    ``f(x, phi, lam) -> (value, gradient)`` is ``-l(x) + lam / 2 *
    penalty(z)``, where l is the profiled log-likelihood of the state at
    x and range phi.  Non-positive-definite covariances give 1e300 and a
    zero gradient.  The state of the last point is kept, so the
    information asked for there reuses its C^-1.
    """

    def __init__(self, dataset: Dataset, grid: KnotGrid):
        self.zc = dataset.demeaned()
        self.sites = dataset.sites
        self.w = design_matrix(grid, dataset.sites).toarray()
        self.penalty = SmoothnessPenalty.for_sites(grid, dataset.sites)
        self._key, self._state = None, None

    def state(self, x: np.ndarray, phi: float) -> _LikelihoodState:
        x = np.asarray(x, dtype=float)
        key = (x.tobytes(), phi)
        if key != self._key:
            self._state = _LikelihoodState.at(self.zc, self.w, x[:-1], x[-1], phi)
            self._key = key
        return self._state

    def __call__(self, x: np.ndarray, phi: float, lam: float):
        try:
            state = self.state(x, phi)
        except NumericalError:
            return 1e300, np.zeros(x.size)
        pen = self.penalty.value_and_grad(x[:-1]) if lam > 0 else (0.0, 0.0)
        f = -state.profiled_value + 0.5 * lam * pen[0]
        grad = -state.profiled_grad
        grad[:-1] += 0.5 * lam * pen[1]
        return f, grad


# the weight update may move at most this factor away from its single
# Fellner-Schall step per outer pass: decades per pass, yet bounded while
# the quadratic model it iterates on is only local.  Fits agree for
# factors from 3 to 100; unbounded, the weight diverges on stationary data
PENALTY_STEP_REACH = 10.0
# z'Sz at or below this fraction of ||S||_2 |z|^2 is rounding noise
ROUNDING_FLOOR = 1e-10


def _penalty_update(lam: float, info: np.ndarray, penalty: SmoothnessPenalty,
                    z: np.ndarray) -> tuple[float, float]:
    """Generalized Fellner-Schall update of the penalty weight.

    One step maps a weight l to (r - l tr((I + l S)^+ S)) / z(l)'S z(l),
    with r = rank S.  The steps are iterated on the quadratic model of
    the likelihood around the current fit, whose penalized optimum at
    weight l is z(l) = (I + l S)^+ (I + lam S) z.  Since z(lam) = z, the
    first step is the plain update; iterating lets the weight follow the
    smoothing of the coefficients within one outer pass instead of one
    step per pass, and the outer loop re-linearizes.  The iterates are
    held within a factor PENALTY_STEP_REACH of the first step, since the
    model is only local (roughness that vanishes as the weight grows
    would send the weight off to infinity in one pass).

    Returns the next weight and the effective degrees of freedom
    tr((I + lam S)^+ I) at the current weight.  The pseudo-inverses
    drop the gauge directions (shifts) on which both I and S vanish.
    The weight stays 0 when S is zero and keeps its value when z'Sz is 0
    up to rounding (ROUNDING_FLOOR), as at an affine map, where its noise
    would give a weight near 1e15.
    It also keeps its value, with 0 effective degrees of freedom, when I
    is zero (every off-diagonal correlation underflowed) or so small that
    the weights it implies overflow.
    """
    s = penalty.matrix(z)
    # simultaneous diagonalization: in the basis g, I + l S is
    # diag(a + l sig), with I and S positive semi-definite
    alpha = np.abs(info).max() / np.abs(s).max() if s.any() else 1.0
    beta, v = np.linalg.eigh(info + alpha * s)
    keep = beta > 1e-9 * beta.max()
    whiten = v[:, keep] / np.sqrt(beta[keep])
    with np.errstate(over="ignore", invalid="ignore"):
        whitened = whiten.T @ s @ whiten
    if not (keep.any() and np.all(np.isfinite(whitened))):
        return lam, 0.0
    sig, u = np.linalg.eigh(whitened)
    sig = np.clip(sig, 0.0, 1.0 / alpha)
    g = whiten @ u
    a = 1.0 - alpha * sig

    def pinv_diag(l):
        d = a + l * sig
        return np.where(d > 1e-9 * d.max(), 1.0 / np.where(d > 0, d, 1.0), 0.0)

    edf = float(np.sum(a * pinv_diag(lam)))
    if penalty.rank == 0:
        return 0.0, edf
    quad = float(z @ s @ z)
    if quad <= ROUNDING_FLOOR * np.linalg.norm(s, 2) * float(z @ z):
        return lam, edf
    c = g.T @ ((info + lam * s) @ z)

    def step(l, quad):
        inv = pinv_diag(l)
        return max(penalty.rank - l * float(np.sum(sig * inv)), 0.0) / quad

    first = step(lam, quad)
    lo, hi = first / PENALTY_STEP_REACH, first * PENALTY_STEP_REACH
    l = first
    for _ in range(200):
        model_quad = float(np.sum(sig * (c * pinv_diag(l)) ** 2))
        if model_quad <= 0.0:
            break
        nxt = min(max(step(l, model_quad), lo), hi)
        settled = abs(nxt - l) <= 1e-8 * nxt
        l = nxt
        if settled:
            break
    return l, edf


# the metric gains this fraction of its trace along S, a curvature for
# coefficients with no site in their support, and the barrier this weight
# of S / (tau1 tau2), so that it does not drive them off
ROUGHNESS_CURVATURE = 1e-3
BARRIER_ROUGHNESS = 0.1
G_START = 1e-8  # where a nugget ratio that starts on its bound g = 0 starts
# the likelihood ascent moves the range by at most this factor either way,
# in at most ASCENT_MAX_ITER Newton steps
RANGE_REACH = 1e6
ASCENT_MAX_ITER = 200


def refine_coords_ml(
    objective: CoefObjective,
    cov: CovParams,
    grid: KnotGrid,
    coef: CoefPair,
    epsilon: float,
    lam: float = 0.0,
) -> tuple[CoefPair, CovParams, np.ndarray]:
    """Ascend the penalized replicate likelihood over the coefficients,
    the nugget-to-sill ratio and the range.

    The covariance is sigma2 (R_phi + g I), sigma2 profiled out.
    ``smoothers._interior_point`` maximizes ``l - lam / 2 * penalty``
    over (z, g, log phi) from ``coef`` and ``cov`` (g at least G_START)
    on the model I - u u' + lam M(z) (sigma2 profiled out of the
    information), under the margin |J| - epsilon spread / q0 >= 0 of the
    returned model's gauge (q0 the sites' spread), 0 <= g <= G_MAX, phi
    within a factor RANGE_REACH of its start, and four gauge rows held
    at the start: the fitted centroid and the antisymmetric part and
    trace of sum (y_i - ybar)(s_i - sbar)'.  Returns feasible
    coefficients no worse than the start, in its chart, the covariance
    (sigma2, phi, g sigma2) and the exact point x = (z, g), whose state
    at phi is the last of ``objective``; warns when the solver stops short.
    """
    phi0, penalty, wc = cov.phi, objective.penalty, objective.penalty.wc
    x0 = np.append(coef_to_vec(coef), [max(cov.nugget / cov.sigma2, G_START), 0.0])
    start = objective.state(x0[:-1], phi0)
    # every correlation below rounding: keep the start of a flat likelihood
    if lam == 0 and np.tril(start.c, -1).max(initial=0.0) <= np.finfo(float).eps:
        return coef, CovParams(start.sill, phi0, float(x0[-2] * start.sill)), x0[:-1]
    roughness = np.kron(np.eye(2), penalty.s)

    def chart(x):
        # x = (z, g, log(phi / phi0)); as l(c z, c phi) = l(z, phi), a step
        # (dz, dg, dt) changes l as the step (dz - z dt, dg) at phi does
        out = np.eye(x.size - 1, x.size)
        out[:-1, -1] = -x[:-2]
        return x[:-1], phi0 * np.exp(x[-1]), out

    def fun(x):
        point, phi, tangent = chart(x)
        f, grad = objective(point, phi, lam)
        return f, grad @ tangent

    def metric(x):
        point, phi, tangent = chart(x)
        info, sill_part = objective.state(point, phi).information
        fisher = info - np.outer(sill_part, sill_part)
        out = tangent.T @ fisher @ tangent
        out[:-2, :-2] += lam * penalty.matrix(x[:-2]) + roughness * (
            ROUGHNESS_CURVATURE * np.trace(fisher) / (np.trace(roughness) or 1.0))
        return out

    centred, wbar = objective.sites - objective.sites.mean(axis=0), objective.w.mean(axis=0)
    gauge = np.zeros((4, x0.size))
    gauge[0, :wbar.size], gauge[1, wbar.size:-2] = wbar, wbar
    gauge[2, :-2] = np.concatenate([wc.T @ centred[:, 1], -(wc.T @ centred[:, 0])])
    gauge[3, :-2] = np.concatenate([wc.T @ centred[:, 0], wc.T @ centred[:, 1]])
    box = np.zeros((4, x0.size))
    box[:2, -2], box[2:, -1] = (1.0, -1.0), (1.0, -1.0)
    # symmetric about the start, so that the range's barrier does not push it
    bounds = np.array([0.0, -G_MAX, -np.log(RANGE_REACH), -np.log(RANGE_REACH)])
    # scaled to the start's spread, so that no scale of the map moves it
    weight = BARRIER_ROUGHNESS / (grid.tau1 * grid.tau2) * penalty.q0 / penalty.spread(x0[:-2])
    flat = block_diag(weight * roughness, 0.0, 0.0)
    x, failure = _interior_point(
        grid, fun, metric, x0, 0.0, ASCENT_MAX_ITER, rate=epsilon / penalty.q0, spread=wc.T @ wc,
        rows=(box, bounds), gauge=gauge, flat=flat)
    if failure is not None:
        warnings.warn(f"likelihood ascent did not succeed: {failure}; "
                      "returning the best feasible iterate", RuntimeWarning, stacklevel=2)
    point, phi, _ = chart(x)
    sill = objective.state(point, phi).sill
    return (vec_to_coef(grid, point[:-1]),
            CovParams(float(sill), float(phi), float(point[-1] * sill)), point)


def normalize_gauge(dmap: DeformationMap, sites) -> tuple[DeformationMap, ProcrustesTransform]:
    """Remove the gauge freedom by full Procrustes onto the sites.

    Applies the proper rotation, shift and positive scale that give the
    fitted coordinates the sites' centroid and RMS spread.  The caller
    must co-scale the range parameter by the returned scale to keep the
    covariance unchanged.
    """
    fitted = dmap(np.asarray(sites, dtype=float))
    t = procrustes(fitted, sites, scale=True, allow_reflection=False)
    coef = transform_coef(dmap.coef, t.rotation, t.shift, t.scale)
    return DeformationMap(dmap.grid, coef), t


def _grid_from_sites(sites: np.ndarray, k1: int, k2: int) -> KnotGrid:
    lo = sites.min(axis=0)
    hi = sites.max(axis=0)
    if not (lo[0] < hi[0] and lo[1] < hi[1]):
        raise DataError("sites are degenerate (no spatial extent on some axis)")
    return KnotGrid(lo[0], hi[0], lo[1], hi[1], k1, k2)


def _initial_cov(dataset: Dataset, dispersions: DispersionMatrix) -> CovParams:
    """Covariance of the variogram fitted to the dispersions against the
    sites' own distances, the starting covariance of the identity map.

    The full variogram is twice the covariance's, so its partial sill and
    nugget are halved; the range is held within [1e-4, 10] times the
    sites' diameter.  Raises DataError when the sites have fewer than 3
    distinct distances, and FitError when the variogram fit fails.
    """
    v = float(np.mean(np.var(dataset.replicates, axis=1, ddof=1)))
    h = pdist(dataset.sites)
    distinct = distinct_distances(h)
    if distinct < 3:
        raise DataError(f"the variogram needs >= 3 distinct station distances, got {distinct}")
    diam = float(h.max())
    try:
        g = fit_variogram(h, dispersions.upper())
    except FitError as e:
        raise FitError(f"initialization failed: {e}") from e
    return CovParams(
        sigma2=max(0.5 * g.psill, 1e-4 * v),
        phi=min(max(g.range_, 1e-4 * diam), 10.0 * diam),
        nugget=max(0.5 * g.nugget, 0.0),
    )


# the margin lift aims this factor above epsilon, so that rounding in the
# corner values cannot leave the lifted map just below it
MARGIN_HEADROOM = 1.0 + 1e-9


def _returned_model(grid: KnotGrid, coef: CoefPair, cov: CovParams, mean: float,
                    diag: FitDiagnostics, epsilon: float, sites: np.ndarray,
                    index: int) -> DeformModel:
    """The model of the iterate of outer pass ``index + 1``, the one place
    where a fitted map gets its gauge.

    ``normalize_gauge`` shrinks the ascent's chart (whose spread is at
    least the sites') to the sites' centroid and spread, with the range
    co-scaled.  The ascent's margin is taken in this gauge; a map that
    rounding leaves short of it is lifted by the similarity of scale
    sqrt(epsilon / min |J|) about the sites' centroid, with the range
    co-scaled.  Its margin replaces entry ``index`` of ``diag.margins``.
    """
    dmap, gauge = normalize_gauge(DeformationMap(grid, coef), sites)
    coef, cov = dmap.coef, CovParams(cov.sigma2, cov.phi * gauge.scale, cov.nugget)
    low = float(corner_values(grid, coef).min())
    if low < epsilon:
        scale = float(np.sqrt(MARGIN_HEADROOM * epsilon / low))
        coef = transform_coef(coef, np.eye(2), (1.0 - scale) * sites.mean(axis=0), scale)
        cov = CovParams(cov.sigma2, cov.phi * scale, cov.nugget)
        low = float(corner_values(grid, coef).min())
    diag.margins[index] = low
    return DeformModel(grid=grid, coef=coef, cov=cov, mean=mean, diagnostics=diag)


@contextlib.contextmanager
def _noted_warnings(messages: list[str], label: str):
    """Append every RuntimeWarning raised inside the block to ``messages``
    as "<label>: <message>", then issue each warning again."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield
    finally:
        for w in caught:
            if issubclass(w.category, RuntimeWarning):
                messages.append(f"{label}: {w.message}")
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                                   source=w.source)


def fit(dataset: Dataset, config: FitConfig) -> DeformModel:
    """Full alternating fit on a dataset.

    Starts from the identity map, whose corner |J| = 1 must clear
    epsilon (else InfeasibilityError), and from the covariance of
    ``_initial_cov`` (a DataError when the sites have fewer than 3
    distinct distances, a FitError when its variogram fit fails).  Each
    pass then runs the likelihood ascent from the incumbent coefficients,
    nugget ratio and range, in the ascent's chart (the sites' centroid at
    the origin, the map's scale held); its last state, at its exact
    point, gives the pass's loglik, the information for the
    Fellner-Schall update of the penalty weight (which starts at 0) and
    the next pass's start.  The passes stop once the relative change of
    the penalized loglik drops below ``tol`` on a pass whose ascent
    raised no warning, or after ``max_outer``.  ``_returned_model``
    makes the returned model, and the best model of a FitError; the
    per-pass margins are taken in its gauge.  Each optimizer warning
    raised inside is issued again and recorded in the diagnostics'
    ``messages`` as "pass N: <message>".  Raises FitError carrying the
    iteration index (and the best model so far) on failure.
    """
    grid = _grid_from_sites(dataset.sites, config.k1, config.k2)
    epsilon = config.epsilon if config.epsilon is not None else default_epsilon(grid)
    sites = dataset.sites
    # the ascent's chart puts the sites' centroid at the origin
    coef = transform_coef(identity_coef(grid), np.eye(2), -sites.mean(axis=0))
    if not corner_values(grid, coef).min() > epsilon:
        raise InfeasibilityError(
            f"the identity map's corner |J| = 1 does not clear the margin {epsilon}")
    diag = FitDiagnostics()
    mean = float(dataset.site_means().mean())

    objective = CoefObjective(dataset, grid)
    penalty = objective.penalty
    lam = 0.0

    def roughness(c):
        return 0.5 * lam * penalty.value_and_grad(coef_to_vec(c))[0] if lam > 0 else 0.0

    def margin(c):
        # min corner |J| once the fitted spread is scaled to the sites' q0
        return float(corner_values(grid, c).min()) * penalty.q0 / penalty.spread(coef_to_vec(c))

    cov = _initial_cov(dataset, sample_dispersions(dataset.replicates))
    # each ascent starts at the last one's exact (z, g, phi): z and (1, phi, g)
    phi, g = cov.phi, cov.nugget / cov.sigma2
    prev_pll = objective.state(np.append(coef_to_vec(coef), g), phi).profiled_value
    # (loglik, coef, cov, pass) of the iterate with the highest penalized
    # loglik, its penalty taken at the current weight
    best: tuple[float, CoefPair, CovParams, int] | None = None

    for it in range(1, config.max_outer + 1):
        label = f"pass {it}"
        try:
            with _noted_warnings(diag.messages, label):
                coef, cov, point = refine_coords_ml(objective, CovParams(1.0, phi, g), grid,
                                                    coef, epsilon, lam=lam)
            g, phi = float(point[-1]), cov.phi
            state = objective.state(point, phi)
            ll = state.profiled_value
            pll = ll - roughness(coef)
            info = state.information[0][:-1, :-1]
        except InfeasibilityError:
            raise
        except SpatdeformError as e:
            err = FitError(f"outer iteration {it}: {e}")
            if best is not None:
                err.best_model = _returned_model(  # type: ignore[attr-defined]
                    grid, best[1], best[2], mean, diag, epsilon, sites, best[3] - 1)
            raise err from e
        diag.loglik.append(ll)
        diag.margins.append(margin(coef))
        diag.penalty_weights.append(lam)
        diag.iterations = it
        next_lam, diag.effective_dof = _penalty_update(lam, info, penalty, coef_to_vec(coef))
        if best is None or pll > best[0] - roughness(best[1]):
            best = (ll, coef, cov, it)
        # a pass whose ascent warned has not shown that the fit settled
        warned = any(m.startswith(f"{label}: ") for m in diag.messages)
        if not warned and abs(pll - prev_pll) <= config.tol * (1.0 + abs(prev_pll)):
            diag.converged = True
            break
        prev_pll = pll
        lam = next_lam

    return _returned_model(grid, coef, cov, mean, diag, epsilon, sites, -1)
