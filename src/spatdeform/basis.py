"""Degree-1 B-spline bases on equally spaced knots.

Each axis of the rectangular domain carries K hat functions centered on
K equally spaced knots (spacing ``tau = length / (K - 1)``).  Basis k is
supported on the two cells adjacent to knot k, evaluates to 1 at its own
knot and to 0 at every other knot, and the family forms a partition of
unity.  Tensor products of the two axes give the bivariate design used
by the deformation map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from .errors import DomainError

__all__ = ["KnotGrid", "design_matrix"]


@dataclass(frozen=True)
class KnotGrid:
    """Rectangular domain with per-axis basis counts for degree-1 B-splines.

    Knot m on axis 1 sits at ``x1_min + m * tau1`` for m = 0..k1-1, and
    analogously for axis 2.  Cells are half-open ``[m*tau, (m+1)*tau)``
    with the last cell closed, which fixes the one-sided derivative
    convention: right-hand derivatives everywhere except at the right
    domain boundary.
    """

    x1_min: float
    x1_max: float
    x2_min: float
    x2_max: float
    k1: int
    k2: int

    def __post_init__(self):
        if self.k1 < 2 or self.k2 < 2:
            raise ValueError(f"basis counts must be >= 2, got K1={self.k1}, K2={self.k2}")
        if not (self.x1_min < self.x1_max and self.x2_min < self.x2_max):
            raise ValueError(
                "domain bounds must be strictly ordered per axis, got "
                f"x1 in [{self.x1_min}, {self.x1_max}], x2 in [{self.x2_min}, {self.x2_max}]"
            )

    @property
    def tau1(self) -> float:
        return (self.x1_max - self.x1_min) / (self.k1 - 1)

    @property
    def tau2(self) -> float:
        return (self.x2_max - self.x2_min) / (self.k2 - 1)

    def axis_bounds(self, axis: int) -> tuple[float, float]:
        if axis == 1:
            return self.x1_min, self.x1_max
        if axis == 2:
            return self.x2_min, self.x2_max
        raise ValueError(f"axis must be 1 or 2, got {axis}")

    def axis_count(self, axis: int) -> int:
        return self.k1 if axis == 1 else self.k2

    def axis_tau(self, axis: int) -> float:
        return self.tau1 if axis == 1 else self.tau2

    def knot_positions(self, axis: int) -> np.ndarray:
        """Knot coordinates along one axis, length K."""
        lo, hi = self.axis_bounds(axis)
        return np.linspace(lo, hi, self.axis_count(axis))


def cell_and_local(grid: KnotGrid, axis: int, x) -> tuple[np.ndarray, np.ndarray]:
    """Cell index and local coordinate for points on one axis.

    Returns integer cells in 0..K-2 (half-open membership, last cell
    closed) and local coordinates u in [0, 1].  Raises DomainError for
    out-of-bounds points.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = grid.axis_bounds(axis)
    bad = (x < lo) | (x > hi) | ~np.isfinite(x)
    if np.any(bad):
        i = int(np.argmax(bad))
        where = f" (index {i})" if x.size > 1 else ""
        raise DomainError(
            f"coordinate {x.flat[i]!r} outside axis-{axis} bounds [{lo}, {hi}]{where}"
        )
    t = (x - lo) / grid.axis_tau(axis)
    cell = np.clip(np.floor(t).astype(int), 0, grid.axis_count(axis) - 2)
    return cell, np.clip(t - cell, 0.0, 1.0)


def design_matrix(grid: KnotGrid, sites) -> sps.csr_matrix:
    """Sparse n x (K1*K2) tensor-product design matrix.

    Row i is the Kronecker product of the axis-2 and axis-1 basis
    vectors at site i, so ``W @ theta.ravel(order="F")`` evaluates the
    spline surface with coefficient matrix theta at every site.  Each
    row has at most 4 nonzeros and sums to 1.
    """
    pts = np.atleast_2d(np.asarray(sites, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"sites must be an (n, 2) array, got shape {pts.shape}")
    n = pts.shape[0]
    try:
        c1, u1 = cell_and_local(grid, 1, pts[:, 0])
        c2, u2 = cell_and_local(grid, 2, pts[:, 1])
    except DomainError as e:
        raise DomainError(f"site out of domain: {e}") from None

    k1 = grid.k1
    # column of coefficient (a, b) in vec order is a + K1 * b
    cols = np.empty((n, 4), dtype=int)
    vals = np.empty((n, 4))
    cols[:, 0] = c1 + k1 * c2
    cols[:, 1] = (c1 + 1) + k1 * c2
    cols[:, 2] = c1 + k1 * (c2 + 1)
    cols[:, 3] = (c1 + 1) + k1 * (c2 + 1)
    vals[:, 0] = (1.0 - u1) * (1.0 - u2)
    vals[:, 1] = u1 * (1.0 - u2)
    vals[:, 2] = (1.0 - u1) * u2
    vals[:, 3] = u1 * u2
    rows = np.repeat(np.arange(n), 4)
    w = sps.csr_matrix((vals.ravel(), (rows, cols.ravel())), shape=(n, grid.k1 * grid.k2))
    w.eliminate_zeros()
    return w
