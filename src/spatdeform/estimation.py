"""Alternating estimation of the deformation and its covariance.

The fit starts from the identity map, with the covariance of the
variogram that the sample dispersions trace against the sites' own
distances.  One outer iteration then ascends the likelihood over the
coefficient matrices and the nugget-to-sill ratio together, from the
incumbent ones, and finally removes the gauge freedom
(shift/rotation/scale of the deformed plane, with the range co-scaled)
by aligning the fitted coordinates to the sites.  Sampson & Guttorp's
(1992) dispersion embedding is not run: its configuration could reach
the passes only as an affine start, which the first pass and the gauge
normalization reduce to the identity.

The ascent writes the covariance as sigma2 (R_phi + g I), with g the
nugget-to-sill ratio, and profiles sigma2 out in closed form (Mardia &
Marshall 1984).  The range phi is held within the ascent: a common
scale of the coefficients and of phi gives the same covariance, so the
scale of the map carries the range, and the gauge normalization hands
it back to phi.  The non-folding margin is taken in the normalized
gauge, so it bars no scale of the map, and with it no range.

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
from scipy.linalg import lapack, solve_triangular
from scipy.optimize import minimize
from scipy.spatial.distance import cdist, pdist

from .basis import KnotGrid, design_matrix, difference_penalty
from .covariance import (
    CovParams,
    DispersionMatrix,
    covariance_matrix,
    exp_covariance,
    factor_covariance,
    fit_variogram,
    sample_dispersions,
)
from .deformation import (
    CoefPair,
    DeformationMap,
    _corner_tables,
    _corner_values_and_jac,
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
    """Fitted deformation, covariance parameters and metadata."""

    grid: KnotGrid
    coef: CoefPair
    cov: CovParams
    mean: float
    diagnostics: FitDiagnostics

    def __post_init__(self):
        if not self.coef.validated:
            raise ValueError("DeformModel requires validated coefficients")

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
    one covariance matrix ``c``, factored once by ``factor_covariance``.

    A state built by ``at`` is a unit-sill one, C = R_phi + g I at the
    coordinates y = W z of the stacked coefficients z.  It also gives the
    log-likelihood of sigma2 C maximized over sigma2, that profiled
    log-likelihood's gradient in x = (z, g), and the information of x.
    C^-1 is formed on first use, which only the gradient and the
    information make.
    """

    def __init__(self, zc, c, w=None, y=None, d=None, phi=None):
        self.zc, self.c, self.w, self.y, self.d, self.phi = zc, c, w, y, d, phi
        self.lower = factor_covariance(c)[0]
        self.logdet = 2.0 * float(np.sum(np.log(np.diag(self.lower))))

    @classmethod
    def at(cls, zc, w, z, g: float, phi: float) -> "_LikelihoodState":
        y = fitted_coords(w, z)
        d = cdist(y, y)
        c = exp_covariance(d, CovParams(1.0, phi))
        c[np.diag_indices_from(c)] += g
        return cls(zc, c, w, y, d, phi)

    @functools.cached_property
    def _quad(self) -> float:
        white = solve_triangular(self.lower, self.zc, lower=True, check_finite=False)
        return float(np.sum(white * white))

    @property
    def value(self) -> float:
        n, t = self.zc.shape
        return -0.5 * (n * t * np.log(2.0 * np.pi) + t * self.logdet + self._quad)

    @property
    def sill(self) -> float:
        """The sigma2 that maximizes the likelihood of sigma2 C, in closed
        form tr(Z' C^-1 Z) / (n T)."""
        return self._quad / self.zc.size

    @property
    def profiled_value(self) -> float:
        """The log-likelihood of sigma2 C at sigma2 = ``sill``."""
        n, t = self.zc.shape
        return -0.5 * (n * t * (np.log(2.0 * np.pi * self.sill) + 1.0) + t * self.logdet)

    @functools.cached_property
    def cinv(self) -> np.ndarray:
        # LAPACK potri: about a third of the work of solving against I;
        # it fills only the lower triangle of C^-1
        inv = lapack.dpotri(self.lower, lower=1)[0]
        return np.tril(inv) + np.tril(inv, -1).T

    @functools.cached_property
    def profiled_grad(self) -> np.ndarray:
        """Gradient of ``profiled_value`` in x = (z, g).

        With V = C^-1 Z, the log-likelihood of sigma2 C changes along dC
        by (1/2)[tr(V' dC V) / sigma2 - T tr(C^-1 dC)] (Mardia & Marshall
        1984); at the maximizing sigma2 the profiled one changes by the
        same.  dC is I for g.  For z it chains through C_ij = exp(-D_ij /
        phi) off the diagonal and D_ij = |y_i - y_j|.
        """
        t = self.zc.shape[1]
        v = self.cinv @ self.zc
        s2 = float(np.sum(self.zc * v)) / self.zc.size
        dldc = 0.5 * (v @ v.T / s2 - t * self.cinv)
        dldd = -(1.0 / self.phi) * dldc * self.c
        np.fill_diagonal(dldd, 0.0)
        d, y = self.d, self.y
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(d > 0, 2.0 * dldd / np.where(d > 0, d, 1.0), 0.0)
        grad_y = ratio.sum(axis=1)[:, None] * y - ratio @ y
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
        2 K1 K2 derivative matrices are never formed.
        """
        d, y, cinv, w = self.d, self.y, self.cinv, self.w
        safe = np.where(d > 0, d, 1.0)
        r = [np.where(d > 0, -(self.c / self.phi) * (y[:, k, None] - y[None, :, k]) / safe,
                      0.0) for k in range(2)]
        p = [rk @ cinv for rk in r]
        cinv2 = cinv @ cinv
        m = w.shape[1]
        info = np.empty((2 * m + 1, 2 * m + 1))
        for k in range(2):
            for l in range(k, 2):
                block = 2.0 * (w.T @ (p[k] * p[l].T - cinv * (p[k] @ r[l])) @ w)
                info[k * m:(k + 1) * m, l * m:(l + 1) * m] = block
                info[l * m:(l + 1) * m, k * m:(k + 1) * m] = block.T
            info[k * m:(k + 1) * m, -1] = 2.0 * (w.T @ np.sum(cinv2 * r[k], axis=1))
        info[-1, :-1] = info[:-1, -1]
        info[-1, -1] = np.sum(cinv * cinv)
        trace = np.concatenate([2.0 * (w.T @ np.sum(cinv * rk, axis=1)) for rk in r]
                               + [[np.trace(cinv)]])
        t = self.zc.shape[1]
        return 0.5 * t * info, np.sqrt(0.5 * t / len(d)) * trace


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

    def matrix(self, z) -> np.ndarray:
        """Quadratic form equal to the penalty at ``z``: z' M z = value."""
        spread = self._parts(z)[3]
        return (self.q0 / spread) * np.kron(np.eye(2), self.s)


class CoefObjective:
    """Negative penalized profiled log-likelihood over x = (z, g), the
    stacked coefficients and the nugget-to-sill ratio.

    ``f(x, phi, lam, want_grad=True) -> (value, gradient)`` is
    ``-l(x) + lam / 2 * penalty(z)``, where l is the profiled
    log-likelihood of the state at x and range phi.  With
    ``want_grad=False`` the gradient is None and the value costs one
    factorization and one triangular solve.  Non-positive-definite
    covariances give 1e300.  The state of the last point is kept, so the
    gradient or information asked for there (SLSQP asks for the gradient
    where it took its last value, and the next pass starts where the last
    one ended) reuses its factorization.
    """

    def __init__(self, dataset: Dataset, grid: KnotGrid):
        self.zc = dataset.demeaned()
        self.w = design_matrix(grid, dataset.sites).toarray()
        self.penalty = SmoothnessPenalty.for_sites(grid, dataset.sites)
        self._key, self._state = None, None

    def state(self, x: np.ndarray, phi: float) -> _LikelihoodState:
        key = (np.asarray(x, dtype=float).tobytes(), phi)
        if key != self._key:
            # SLSQP keeps to the rows g >= 0 only up to rounding
            self._state = _LikelihoodState.at(self.zc, self.w, x[:-1], max(x[-1], 0.0), phi)
            self._key = key
        return self._state

    def __call__(self, x: np.ndarray, phi: float, lam: float, want_grad: bool = True):
        try:
            state = self.state(x, phi)
        except NumericalError:
            return 1e300, (np.zeros(x.size) if want_grad else None)
        pen = self.penalty.value_and_grad(x[:-1]) if lam > 0 else (0.0, 0.0)
        f = -state.profiled_value + 0.5 * lam * pen[0]
        if not want_grad:
            return f, None
        grad = -state.profiled_grad
        grad[:-1] += 0.5 * lam * pen[1]
        return f, grad


# the weight update may move at most this factor away from its single
# Fellner-Schall step per outer pass: decades per pass, yet bounded while
# the quadratic model it iterates on is only local.  Fits agree for
# factors from 3 to 100; unbounded, the weight diverges on stationary data
PENALTY_STEP_REACH = 10.0


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
    The weight stays 0 when S is zero and keeps its value when z'Sz = 0.
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
    if quad <= 0.0:
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


# eigenvalues of the preconditioning metric are floored at this fraction
# of the largest: the shift and rotation gauge directions, on which the
# likelihood is flat to first order, get a large but finite scale.  With
# the range held, a long step along the rotation tangent also grows the
# map, which the likelihood feels; at 1e-6 such steps stalled ascents
# that must rescale the map far
PRECONDITION_FLOOR = 1e-4


def refine_coords_ml(
    objective: CoefObjective,
    cov: CovParams,
    grid: KnotGrid,
    coef: CoefPair,
    epsilon: float,
    max_iter: int = 200,
    lam: float = 0.0,
) -> tuple[CoefPair, CovParams]:
    """Ascend the penalized replicate likelihood over the coefficients and
    the nugget-to-sill ratio.

    The covariance is written sigma2 (R_phi + g I), with sigma2 profiled
    out in closed form and the range phi held at ``cov.phi``: a common
    scale of the coefficients and phi gives the same covariance, so the
    scale of the map carries the range.  Maximizes ``l - lam / 2 *
    penalty`` over x = (z, g), the stacked coefficient matrices and g,
    starting from ``coef`` and the ratio of ``cov``, under the non-folding
    corner constraints and 0 <= g <= G_MAX (two linear rows), by SLSQP
    with the analytic gradient; ``lam == 0`` is plain maximum likelihood.
    The corner margin is taken in the gauge that ``normalize_gauge``
    gives, corner |J| q0 / spread >= epsilon with q0 the sites' spread and
    spread the fitted one's, so it bars no scale of the map, and with it
    no range.
    SLSQP starts from an identity quasi-Newton matrix, so it runs in
    variables u with x = x0 + V diag(beta)^-1/2 u, where V diag(beta) V'
    is the metric H = I(x0) + lam * M(z0): the information of x with
    sigma2 profiled out, at the start, plus the penalty's quadratic form
    on z.  The eigenvalues beta are floored at PRECONDITION_FLOOR of the
    largest, which covers the gauge directions (shift and rotation) where
    the likelihood is flat.  Returns the best feasible coefficients
    found, never worse than the start and not yet gauge-normalized, with
    the covariance (sigma2, phi, g sigma2) at them, sigma2 the profiled
    one; warns when SLSQP does not report success.  ``objective`` holds
    the dataset on ``grid``; its last state is reused, so a caller that
    evaluates the same point elsewhere pays for one factorization.
    """
    tables = _corner_tables(grid)
    phi = cov.phi

    def value(x):
        # most points SLSQP visits are line-search trials that need no gradient
        return objective(x, phi, lam, want_grad=False)[0]

    def result(x, sill):
        return (vec_to_coef(grid, x[:-1], validated=True),
                CovParams(float(sill), float(phi), float(max(x[-1], 0.0) * sill)))

    x0 = np.append(coef_to_vec(coef), cov.nugget / cov.sigma2)
    start = objective.state(x0, phi)
    best = {"x": x0.copy(), "f": value(x0), "sill": start.sill}

    info, sill_part = start.information
    metric = info - np.outer(sill_part, sill_part)
    if lam > 0:
        metric[:-1, :-1] += lam * objective.penalty.matrix(x0[:-1])
    if not metric[:-1].any():
        # no coefficient moves the objective: zero information means that
        # every off-diagonal correlation underflowed, so C = (1 + g) I
        # whatever x, and the profiled objective is flat, with no ascent
        return result(x0, best["sill"])
    beta, v = np.linalg.eigh(metric)
    scale = v / np.sqrt(np.maximum(beta, PRECONDITION_FLOOR * beta.max()))

    def to_x(u):
        return x0 + scale @ u

    # the margin |J| q0 / spread >= epsilon, written |J| - epsilon spread /
    # q0 >= 0: both terms are quadratic in z, and spread = |wc z|^2
    wc, rate = objective.penalty.wc, epsilon / objective.penalty.q0

    def excess(z, want_jac):
        vals, jac = _corner_values_and_jac(grid, z, tables, want_jac)
        spread_grad = (wc.T @ (wc @ z.reshape(2, -1).T)).T.ravel()
        vals = vals - rate * float(z @ spread_grad)
        return vals, (jac - 2.0 * rate * spread_grad if want_jac else None)

    def constraint_fun(u):
        x = to_x(u)
        vals = excess(x[:-1], False)[0]
        if vals.min() >= -1e-9:
            f = value(x)
            if f < best["f"]:
                best.update(x=x.copy(), f=f, sill=objective.state(x, phi).sill)
        return np.concatenate([vals, [x[-1], G_MAX - x[-1]]])

    def constraint_jac(u):
        jac = excess(to_x(u)[:-1], True)[1]
        return np.vstack([jac @ scale[:-1], scale[-1], -scale[-1]])

    res = minimize(
        lambda u: value(to_x(u)),
        np.zeros(x0.size),
        jac=lambda u: scale.T @ objective(to_x(u), phi, lam)[1],
        method="SLSQP",
        constraints=[{"type": "ineq", "fun": constraint_fun, "jac": constraint_jac}],
        options={"maxiter": max_iter, "ftol": 1e-10},
    )
    if not res.success:
        # SLSQP's exit mode 9 is its iteration limit
        limit = f", iteration limit ({max_iter})" if res.status == 9 else ""
        warnings.warn(
            f"likelihood ascent did not succeed after {res.nit} iterations{limit}: "
            f"{res.message}; returning the best feasible iterate",
            RuntimeWarning,
            stacklevel=2,
        )
    constraint_fun(res.x)  # keeps the solver's answer if it is the best feasible point
    return result(best["x"], best["sill"])


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
    sites' diameter.  Raises FitError when the variogram fit fails.
    """
    v = float(np.mean(np.var(dataset.replicates, axis=1, ddof=1)))
    h = pdist(dataset.sites)
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
                    diag: FitDiagnostics, epsilon: float, centre: np.ndarray,
                    index: int) -> DeformModel:
    """The model built from the iterate of outer pass ``index + 1``.

    Gauge normalization scales every corner |J| by the square of its
    scale, so an iterate that met the margin before it can fall short
    after.  Such a map is lifted by the similarity of scale
    sqrt(epsilon / min |J|) about ``centre``, with the range co-scaled,
    so the covariance it implies is unchanged; its margin replaces entry
    ``index`` of ``diag.margins``.
    """
    low = diag.margins[index]
    if low < epsilon:
        scale = float(np.sqrt(MARGIN_HEADROOM * epsilon / low))
        coef = transform_coef(coef, np.eye(2), (1.0 - scale) * centre, scale)
        cov = CovParams(cov.sigma2, cov.phi * scale, cov.nugget)
        diag.margins[index] = float(corner_values(grid, coef).min())
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
    ``_initial_cov`` (a FitError when its variogram fit fails).  Then it
    alternates the likelihood ascent over the coefficients and the
    nugget-to-sill ratio from the incumbent ones, at the incumbent range,
    and gauge normalization, which co-scales the range, until the
    relative change of the penalized log-likelihood drops below ``tol``
    on a pass whose ascent raised no warning, or ``max_outer`` is
    reached.  The smoothness-penalty weight starts at 0 and is
    re-estimated after every gauge normalization by the generalized
    Fellner-Schall update, using the coefficients' information at the
    end of the pass; the state that gives it also starts the next
    ascent.  Every returned model, the best model of a FitError
    included, has min corner |J| >= epsilon.  Each optimizer warning
    raised inside is issued again and recorded in the diagnostics'
    ``messages`` as "pass N: <message>".  Raises FitError carrying the
    iteration index (and the best model so far, when one exists) on
    failure.
    """
    grid = _grid_from_sites(dataset.sites, config.k1, config.k2)
    epsilon = config.epsilon if config.epsilon is not None else default_epsilon(grid)
    coef = identity_coef(grid)
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

    def end_state(c, cov):
        return objective.state(np.append(coef_to_vec(c), cov.nugget / cov.sigma2), cov.phi)

    cov = _initial_cov(dataset, sample_dispersions(dataset.replicates))
    prev_pll = end_state(coef, cov).profiled_value
    centre = dataset.sites.mean(axis=0)
    # (loglik, coef, cov, pass) of the iterate with the highest penalized
    # loglik, its penalty taken at the current weight
    best: tuple[float, CoefPair, CovParams, int] | None = None

    for it in range(1, config.max_outer + 1):
        label = f"pass {it}"
        try:
            with _noted_warnings(diag.messages, label):
                coef, cov = refine_coords_ml(objective, cov, grid, coef, epsilon, lam=lam)
            dmap, gauge = normalize_gauge(DeformationMap(grid, coef), dataset.sites)
            coef = dmap.coef
            cov = CovParams(cov.sigma2, cov.phi * gauge.scale, cov.nugget)
            # the pass's loglik, the information and the next pass's start
            # come from one state
            state = end_state(coef, cov)
            ll = state.profiled_value
            pll = ll - roughness(coef)
            info = state.information[0][:-1, :-1]
        except InfeasibilityError:
            raise
        except SpatdeformError as e:
            err = FitError(f"outer iteration {it}: {e}")
            if best is not None:
                err.best_model = _returned_model(  # type: ignore[attr-defined]
                    grid, best[1], best[2], mean, diag, epsilon, centre, best[3] - 1)
            raise err from e
        diag.loglik.append(ll)
        diag.margins.append(float(corner_values(grid, coef).min()))
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

    return _returned_model(grid, coef, cov, mean, diag, epsilon, centre, -1)
