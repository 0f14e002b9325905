"""Alternating estimation of covariance parameters and deformation.

The fit starts from the identity map, with the covariance of the
variogram that the sample dispersions trace against the sites' own
distances.  One outer iteration then holds the deformation fixed while
maximizing the Gaussian replicate likelihood over the covariance
parameters, then holds those fixed while ascending the likelihood over
the coefficient matrices from the incumbent ones, and finally removes
the gauge freedom (shift/rotation/scale of the deformed plane, with the
range co-scaled) by aligning the fitted coordinates to the sites.
Sampson & Guttorp's (1992) dispersion embedding is not run: its
configuration could reach the passes only as an affine start, which
the first pass and the gauge normalization reduce to the identity.

The covariance step writes the covariance as sigma2 (R_phi + g I), with
g the nugget-to-sill ratio, profiles sigma2 out in closed form and
searches (log phi, g) in a box with the exact gradient of the profiled
likelihood (Mardia & Marshall 1984).

The likelihood step maximizes a penalized likelihood: a scale-free
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
from scipy.linalg import blas, lapack, solve_triangular
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
    "difference_penalty",
    "coef_objective",
    "replicate_loglik",
    "loglik",
    "step_cov",
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

    C^-1 is formed on first use, which only the gradient and the
    information make.  They chain through the coordinates, their
    interdistances and the covariance parameters, which a state built by
    ``at`` holds.
    """

    def __init__(self, zc, c, y=None, d=None, cov=None):
        self.zc, self.c, self.y, self.d, self.cov = zc, c, y, d, cov
        self.lower = factor_covariance(c)[0]
        self.logdet = 2.0 * float(np.sum(np.log(np.diag(self.lower))))

    @classmethod
    def at(cls, zc, y, cov: CovParams) -> "_LikelihoodState":
        d = cdist(y, y)
        return cls(zc, exp_covariance(d, cov), y, d, cov)

    def _loglik(self, quad: float) -> float:
        n, t = self.zc.shape
        return -0.5 * (n * t * np.log(2.0 * np.pi) + t * self.logdet + quad)

    @functools.cached_property
    def value(self) -> float:
        white = solve_triangular(self.lower, self.zc, lower=True, check_finite=False)
        return self._loglik(float(np.sum(white * white)))

    @functools.cached_property
    def _cinv_lower(self) -> np.ndarray:
        # LAPACK potri: about a third of the work of solving against I;
        # only the lower triangle holds C^-1
        return lapack.dpotri(self.lower, lower=1)[0]

    @functools.cached_property
    def cinv(self) -> np.ndarray:
        inv = self._cinv_lower
        return np.tril(inv) + np.tril(inv, -1).T

    def profiled_value_and_grad(self) -> tuple[float, np.ndarray, float]:
        """For a unit-sill state, C = R_phi + g I built with ``cov`` =
        (1, phi, g): the log-likelihood of sigma2 C maximized over sigma2,
        its gradient in (log phi, g), and the maximizing sigma2.

        sigma2 = tr(Z' C^-1 Z) / (n T) in closed form.  With W = C^-1 Z
        each derivative is (1/2)[tr(W' dC W) / sigma2 - T tr(C^-1 dC)]
        (Mardia & Marshall 1984), where dC is R o D / phi for log phi and
        I for g.
        """
        n, t = self.zc.shape
        inv = self._cinv_lower
        w = blas.dsymm(1.0, inv, self.zc, lower=1)
        s2 = float(np.sum(self.zc * w)) / (n * t)
        ll = -0.5 * (n * t * (np.log(2.0 * np.pi * s2) + 1.0) + t * self.logdet)
        dc = self.c * self.d / self.cov.phi
        # dC has a zero diagonal, so tr(C^-1 dC) is twice its lower sum
        d_phi = np.sum(w * (dc @ w)) / s2 - 2.0 * t * np.sum(np.tril(inv) * dc)
        d_g = np.sum(w * w) / s2 - t * np.trace(inv)
        return ll, 0.5 * np.array([d_phi, d_g]), s2

    def value_and_coord_grad(self) -> tuple[float, np.ndarray]:
        """The log-likelihood read from C^-1 Z, and its (n, 2) gradient in
        the coordinates."""
        cinv_z = self.cinv @ self.zc
        ll = self._loglik(float(np.sum(self.zc * cinv_z)))
        # d ll / dC, then chain through C_ij = sigma2 exp(-D_ij/phi) off
        # the diagonal and D_ij = |y_i - y_j|
        dldc = 0.5 * (cinv_z @ cinv_z.T - self.zc.shape[1] * self.cinv)
        dldd = -(1.0 / self.cov.phi) * dldc * self.c
        np.fill_diagonal(dldd, 0.0)
        d, y = self.d, self.y
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(d > 0, 2.0 * dldd / np.where(d > 0, d, 1.0), 0.0)
        return ll, ratio.sum(axis=1)[:, None] * y - ratio @ y

    def coef_information(self, w: np.ndarray) -> np.ndarray:
        """Expected information of the stacked coefficients whose dense
        design at the sites is ``w``.

        Entry (p, q) is (t/2) tr(Ch dC/dz_p Ch dC/dz_q) with Ch = C^-1.  It
        is assembled per component pair (k, l) as (t/2) W' X W with
        X = (R_k Ch) o (R_l Ch)' - Ch o (R_k Ch R_l) - Ch o (R_l Ch R_k)'
        + (Ch R_l) o (Ch R_k)', where R_k[i, j] = dC_ij / dy_ik is the
        antisymmetric derivative kernel of component k, so the 2 K1 K2
        derivative matrices are never formed.
        """
        d, y, cinv = self.d, self.y, self.cinv
        safe = np.where(d > 0, d, 1.0)
        r = [np.where(d > 0, -(self.c / self.cov.phi) * (y[:, k, None] - y[None, :, k]) / safe,
                      0.0) for k in range(2)]
        rc = [rk @ cinv for rk in r]
        cr = [cinv @ rk for rk in r]
        m = w.shape[1]
        info = np.empty((2 * m, 2 * m))
        for k in range(2):
            for l in range(2):
                x = (rc[k] * rc[l].T - cinv * (rc[k] @ r[l])
                     - cinv * (rc[l] @ r[k]).T + cr[l] * cr[k].T)
                info[k * m:(k + 1) * m, l * m:(l + 1) * m] = \
                    0.5 * self.zc.shape[1] * (w.T @ x @ w)
        return info


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


# the covariance step searches the nugget-to-sill ratio g within [0, G_MAX]
G_MAX = 1e6


def step_cov(dataset: Dataset, mapping, cov_init: CovParams) -> CovParams:
    """Maximize the replicate likelihood over (sigma2, phi, nugget).

    The covariance is written sigma2 (R_phi + g I), with g the
    nugget-to-sill ratio, and sigma2 is profiled out in closed form.
    L-BFGS-B then searches (log phi, g) over phi in [1e-4, 10] times the
    deformed diameter and g in [0, G_MAX], with the exact gradient of the
    profiled log-likelihood, from the incumbent and from a moment start
    (phi a quarter of the diameter, g = 1).  Never returns parameters with
    lower likelihood than ``cov_init``; warns when neither start reports
    success.
    """
    y = np.asarray(mapping(dataset.sites), dtype=float)
    d = cdist(y, y)
    diam = float(d.max())
    if diam <= 0:
        raise FitError("mapped sites are coincident; cannot estimate a range")
    if float(np.mean(np.var(dataset.replicates, axis=1, ddof=1))) <= 0:
        raise FitError("replicates are constant; cannot estimate a variance")
    phi_box = (1e-4 * diam, 10.0 * diam)
    bounds = [tuple(np.log(phi_box)), (0.0, G_MAX)]
    zc = dataset.demeaned()
    # every evaluated point, so that the incumbent's value and L-BFGS-B's
    # first evaluation, and the returned point and its sigma2, share one
    # factorization
    evaluated: dict[bytes, tuple[float, np.ndarray, float]] = {}

    def profiled(x):
        key = x.tobytes()
        if key not in evaluated:
            unit = CovParams(1.0, float(np.exp(x[0])), float(x[1]))
            try:
                ll, grad, s2 = _LikelihoodState(zc, exp_covariance(d, unit), d=d,
                                                cov=unit).profiled_value_and_grad()
                evaluated[key] = (-ll, -grad, s2)
            except NumericalError:
                evaluated[key] = (1e300, np.zeros(2), np.nan)
        return evaluated[key]

    x_init = np.clip([np.log(cov_init.phi), cov_init.nugget / cov_init.sigma2],
                     *np.array(bounds).T)
    candidates = [(profiled(x_init)[0], x_init)]
    failures = []
    for x0 in (x_init, np.array([np.log(0.25 * diam), 1.0])):
        res = minimize(lambda x: profiled(x)[:2], x0, jac=True, method="L-BFGS-B",
                       bounds=bounds)
        candidates.append((res.fun, res.x))
        if not res.success:
            failures.append(str(res.message))
    # min keeps the incumbent, the first candidate, unless a result is
    # strictly better
    fbest, xbest = min(candidates, key=lambda c: c[0])
    if not fbest < 1e300:
        raise NumericalError("likelihood is not finite anywhere in the search box")
    if len(failures) == 2:
        warnings.warn(f"covariance step: neither start converged ({'; '.join(failures)})",
                      RuntimeWarning, stacklevel=2)
    s2 = profiled(xbest)[2]
    phi = float(np.clip(np.exp(xbest[0]), *phi_box))
    return CovParams(sigma2=s2, phi=phi, nugget=float(xbest[1]) * s2)


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


class _CoefObjective:
    """Negative penalized log-likelihood over the stacked coefficients.

    ``f(z, want_grad=True) -> (value, gradient)`` is ``-loglik(z) + lam /
    2 * penalty(z)`` at fixed covariance parameters, the plain negative
    log-likelihood when ``lam == 0``.  With ``want_grad=False`` the
    gradient is None and the value costs one factorization and one
    triangular solve.  Non-positive-definite covariances give 1e300.  The
    state of the last point is kept, so the gradient or information asked
    for there (SLSQP asks for the gradient where it took its last value)
    reuses its factorization.
    """

    def __init__(self, dataset: Dataset, cov: CovParams, grid: KnotGrid, lam: float):
        self.zc = dataset.demeaned()
        self.w = design_matrix(grid, dataset.sites).toarray()
        self.cov, self.lam = cov, lam
        self.penalty = SmoothnessPenalty.for_sites(grid, dataset.sites) if lam > 0 else None
        self._z, self._state = None, None

    def state(self, z: np.ndarray) -> _LikelihoodState:
        if self._z is None or not np.array_equal(z, self._z):
            self._state = _LikelihoodState.at(self.zc, fitted_coords(self.w, z), self.cov)
            self._z = np.array(z, dtype=float)
        return self._state

    def information(self, z: np.ndarray) -> np.ndarray:
        return self.state(z).coef_information(self.w)

    def __call__(self, z: np.ndarray, want_grad: bool = True):
        try:
            state = self.state(z)
        except NumericalError:
            return 1e300, (np.zeros(z.size) if want_grad else None)
        pen = self.penalty.value_and_grad(z) if self.lam > 0 else (0.0, 0.0)
        if not want_grad:
            return -state.value + 0.5 * self.lam * pen[0], None
        ll, grad_y = state.value_and_coord_grad()
        grad_z = np.concatenate([self.w.T @ grad_y[:, 0], self.w.T @ grad_y[:, 1]])
        if self.lam > 0:
            return -ll + 0.5 * self.lam * pen[0], -grad_z + 0.5 * self.lam * pen[1]
        return -ll, -grad_z


def coef_objective(dataset: Dataset, cov: CovParams, grid: KnotGrid, lam: float = 0.0):
    """The negative penalized log-likelihood of ``_CoefObjective``."""
    return _CoefObjective(dataset, cov, grid, lam)


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
# likelihood is flat, get a large but finite scale
PRECONDITION_FLOOR = 1e-6


def refine_coords_ml(
    dataset: Dataset,
    cov: CovParams,
    grid: KnotGrid,
    coef: CoefPair,
    epsilon: float,
    max_iter: int = 150,
    lam: float = 0.0,
) -> CoefPair:
    """Ascend the penalized replicate likelihood over the coefficients.

    Maximizes ``loglik - lam / 2 * penalty`` directly over both
    coefficient matrices, starting from ``coef``, under the non-folding
    corner constraints (SLSQP with the analytic gradient); ``lam == 0``
    is plain maximum likelihood.  SLSQP starts from an identity
    quasi-Newton matrix, so it runs in variables u with
    z = z0 + V diag(beta)^-1/2 u, where V diag(beta) V' is the metric
    H = I(z0) + lam * M(z0): the coefficients' Fisher information at the
    incoming coefficients plus the penalty's quadratic form.  The
    eigenvalues beta are floored at PRECONDITION_FLOOR of the largest,
    which covers the gauge directions (shift and rotation) where the
    likelihood is flat.  Returns the best feasible coefficients found,
    never worse than the input, and warns when SLSQP does not report
    success.
    """
    tables = _corner_tables(grid)
    evaluate = coef_objective(dataset, cov, grid, lam)

    def value(z):
        # most points SLSQP visits are line-search trials that need no gradient
        return evaluate(z, want_grad=False)[0]

    z0 = coef_to_vec(coef)
    best = {"z": z0.copy(), "f": value(z0)}

    metric = evaluate.information(z0)
    if lam > 0:
        metric += lam * evaluate.penalty.matrix(z0)
    beta, v = np.linalg.eigh(metric)
    if not beta.max() > 0:
        # zero information means every dC/dz vanishes (the off-diagonal
        # correlations underflowed): the objective is flat, with no ascent
        return vec_to_coef(grid, z0, validated=True)
    scale = v / np.sqrt(np.maximum(beta, PRECONDITION_FLOOR * beta.max()))

    def to_z(u):
        return z0 + scale @ u

    def constraint_fun(u):
        z = to_z(u)
        vals, _ = _corner_values_and_jac(grid, z, tables, want_jac=False)
        if vals.min() >= epsilon - 1e-9:
            f = value(z)
            if f < best["f"]:
                best["z"] = z.copy()
                best["f"] = f
        return vals - epsilon

    def constraint_jac(u):
        return _corner_values_and_jac(grid, to_z(u), tables, want_jac=True)[1] @ scale

    res = minimize(
        lambda u: value(to_z(u)),
        np.zeros(z0.size),
        jac=lambda u: scale.T @ evaluate(to_z(u))[1],
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
    return vec_to_coef(grid, best["z"], validated=True)


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
    alternates the covariance step, the likelihood ascent over the
    coefficients from the incumbent ones and gauge normalization until
    the relative change of the penalized log-likelihood drops below
    ``tol`` or ``max_outer`` is reached.  The smoothness-penalty weight
    starts at 0 and is re-estimated after every gauge normalization by
    the generalized Fellner-Schall update, using the coefficients'
    Fisher information at the current covariance parameters.  Every
    returned model, the best model of a FitError included, has min
    corner |J| >= epsilon.  Each optimizer warning raised inside is
    issued again and recorded in the diagnostics' ``messages`` as
    "pass N: <message>".  Raises FitError carrying the iteration index
    (and the best model so far, when one exists) on failure.
    """
    grid = _grid_from_sites(dataset.sites, config.k1, config.k2)
    epsilon = config.epsilon if config.epsilon is not None else default_epsilon(grid)
    coef = identity_coef(grid)
    if not corner_values(grid, coef).min() > epsilon:
        raise InfeasibilityError(
            f"the identity map's corner |J| = 1 does not clear the margin {epsilon}")
    diag = FitDiagnostics()
    mean = float(dataset.site_means().mean())

    penalty = SmoothnessPenalty.for_sites(grid, dataset.sites)
    lam = 0.0

    def roughness(c):
        return 0.5 * lam * penalty.value_and_grad(coef_to_vec(c))[0] if lam > 0 else 0.0

    cov = _initial_cov(dataset, sample_dispersions(dataset.replicates))
    prev_pll = loglik(dataset, DeformationMap(grid, coef), cov)
    centre = dataset.sites.mean(axis=0)
    # (loglik, coef, cov, pass) of the iterate with the highest penalized
    # loglik, its penalty taken at the current weight
    best: tuple[float, CoefPair, CovParams, int] | None = None

    for it in range(1, config.max_outer + 1):
        try:
            with _noted_warnings(diag.messages, f"pass {it}"):
                cov = step_cov(dataset, DeformationMap(grid, coef), cov)
                coef = refine_coords_ml(dataset, cov, grid, coef, epsilon, lam=lam)
            dmap, gauge = normalize_gauge(DeformationMap(grid, coef), dataset.sites)
            coef = dmap.coef
            cov = CovParams(cov.sigma2, cov.phi * gauge.scale, cov.nugget)
            # the pass's loglik and the information come from one state
            ends, z = coef_objective(dataset, cov, grid), coef_to_vec(coef)
            ll = ends.state(z).value
            pll = ll - roughness(coef)
            info = ends.information(z)
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
        if abs(pll - prev_pll) <= config.tol * (1.0 + abs(prev_pll)):
            diag.converged = True
            break
        prev_pll = pll
        lam = next_lam

    return _returned_model(grid, coef, cov, mean, diag, epsilon, centre, -1)
