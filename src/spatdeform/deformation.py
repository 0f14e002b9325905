"""Tensor-product B-spline plane deformations and their Jacobian control.

A deformation maps geographic points to "deformed" coordinates through
two coefficient matrices, one per output component.  Because the basis
has degree 1, the Jacobian determinant is affine inside every knot cell,
so its sign over the whole domain is controlled by its values at the
4 corners of each cell.  Keeping all corner values positive keeps the
map orientation-preserving and non-folding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import KnotGrid, design_matrix

__all__ = [
    "CoefPair",
    "CornerRows",
    "DeformationMap",
    "affine_coef",
    "identity_coef",
    "fitted_coords",
    "eval_map_points",
    "corner_values",
    "min_jacobian",
    "default_epsilon",
    "transform_coef",
    "coef_to_vec",
    "vec_to_coef",
]

# local corner order within a cell: (u1, u2) corners, matching the
# flattened layout of corner_values
CORNER_ORDER = ((0, 0), (1, 0), (0, 1), (1, 1))


@dataclass(frozen=True)
class CoefPair:
    """The two K1 x K2 coefficient matrices of a deformation, which may
    fold: ``estimation.DeformModel`` checks the corner values."""

    theta1: np.ndarray
    theta2: np.ndarray

    def __post_init__(self):
        t1 = np.asarray(self.theta1, dtype=float)
        t2 = np.asarray(self.theta2, dtype=float)
        if t1.shape != t2.shape or t1.ndim != 2:
            raise ValueError(
                f"coefficient matrices must share a 2-d shape, got {t1.shape} and {t2.shape}"
            )
        object.__setattr__(self, "theta1", t1)
        object.__setattr__(self, "theta2", t2)

    @property
    def shape(self) -> tuple[int, int]:
        return self.theta1.shape

    def check_grid(self, grid: KnotGrid) -> None:
        if self.shape != (grid.k1, grid.k2):
            raise ValueError(
                f"coefficient shape {self.shape} does not match grid ({grid.k1}, {grid.k2})"
            )


@dataclass(frozen=True)
class DeformationMap:
    """A knot grid together with a coefficient pair; callable on points."""

    grid: KnotGrid
    coef: CoefPair

    def __post_init__(self):
        self.coef.check_grid(self.grid)

    def __call__(self, sites) -> np.ndarray:
        return eval_map_points(self, sites)


def affine_coef(grid: KnotGrid, beta: np.ndarray) -> CoefPair:
    """Coefficients reproducing the affine map x -> beta[0] + beta[1:]' x
    (the basis reproduces affine functions exactly)."""
    g1, g2 = np.meshgrid(grid.knot_positions(1), grid.knot_positions(2), indexing="ij")
    return CoefPair(*(beta[0, k] + beta[1, k] * g1 + beta[2, k] * g2 for k in range(2)))


def identity_coef(grid: KnotGrid) -> CoefPair:
    """Coefficients reproducing the identity map (theta = knot position)."""
    return affine_coef(grid, np.vstack([np.zeros(2), np.eye(2)]))


def fitted_coords(w, z: np.ndarray) -> np.ndarray:
    """Deformed coordinates (W v1, W v2) of the points whose design rows
    are ``w``, from the stacked coefficients z = (v1, v2).

    The one evaluator of fitted coordinates: callers pass the dense
    design, so every path agrees to the last bit.
    """
    m = w.shape[1]
    return np.column_stack([w @ z[:m], w @ z[m:]])


def eval_map_points(dmap: DeformationMap, sites) -> np.ndarray:
    """Map an (n, 2) array of points through the deformation."""
    return fitted_coords(design_matrix(dmap.grid, sites).toarray(), coef_to_vec(dmap.coef))


def corner_values(grid: KnotGrid, coef: CoefPair) -> np.ndarray:
    """Jacobian determinant at all cell corners, shape (K1-1, K2-1, 4).

    The last axis follows CORNER_ORDER.  Values are within-cell limits:
    each entry is the affine in-cell Jacobian evaluated at that corner,
    so the minimum over the last axis is the exact minimum of |J| over
    the closed cell.
    """
    coef.check_grid(grid)
    return CornerRows(grid)(coef_to_vec(coef), False)[0].reshape(grid.k1 - 1, grid.k2 - 1, 4)


def min_jacobian(dmap: DeformationMap) -> float:
    """Exact global minimum of |J| over the domain (corner minimum)."""
    return float(corner_values(dmap.grid, dmap.coef).min())


def default_epsilon(grid: KnotGrid) -> float:
    """Constraint margin: 1e-3 times the median corner value of the
    identity map on this grid."""
    return 1e-3 * float(np.median(corner_values(grid, identity_coef(grid))))


class CornerRows:
    """The non-folding rows of a knot grid, from the dense difference
    operators A and B, each (n_corner, K1 K2).  Row i (cells row-major,
    corners in CORNER_ORDER) is |J| at a cell corner, ((A v1)(B v2) -
    (B v1)(A v2))_i / (tau1 tau2), bilinear in z = (v1, v2): A takes
    P[ci+1, cj+s2] - P[ci, cj+s2] (along axis 1), and B P[ci+s1, cj+1] -
    P[ci+s1, cj] (along axis 2)."""

    def __init__(self, grid: KnotGrid):
        k1 = grid.k1
        ci, cj, corner = np.indices((k1 - 1, grid.k2 - 1, len(CORNER_ORDER))).reshape(3, -1)
        s1, s2 = np.array(CORNER_ORDER)[corner].T
        rows = np.arange(ci.size)
        self.a, self.b = np.zeros((2, ci.size, k1 * grid.k2))
        self.a[rows, ci + 1 + k1 * (cj + s2)], self.a[rows, ci + k1 * (cj + s2)] = 1.0, -1.0
        self.b[rows, ci + s1 + k1 * (cj + 1)], self.b[rows, ci + s1 + k1 * cj] = 1.0, -1.0
        self.area = grid.tau1 * grid.tau2

    def __call__(self, z: np.ndarray, want_jac: bool = True):
        """Row values, and their (n_corner, 2 K1 K2) Jacobian if ``want_jac``."""
        m, scale = self.a.shape[1], 1.0 / self.area
        dpu, dpv = self.a @ z[:m], self.b @ z[:m]
        dqu, dqv = self.a @ z[m:], self.b @ z[m:]
        vals = (dpu * dqv - dpv * dqu) * scale
        if not want_jac:
            return vals, None
        # scaled before they meet the operators: where A and B share a column,
        # at corners (0, 0) and (1, 1), two scaled differences are summed
        return vals, np.hstack([(scale * dqv)[:, None] * self.a - (scale * dqu)[:, None] * self.b,
                                (scale * dpu)[:, None] * self.b - (scale * dpv)[:, None] * self.a])

    def hessian_block(self, w: np.ndarray) -> np.ndarray:
        """X = (A' diag(w) B - B' diag(w) A) / (tau1 tau2).  The Hessian of
        w' rows(z) is [[0, X], [-X, 0]]: each row is linear in v1 and in v2."""
        w = w[:, None]
        return (self.a.T @ (w * self.b) - self.b.T @ (w * self.a)) / self.area


def coef_to_vec(coef: CoefPair) -> np.ndarray:
    """Stacked column-major coefficient vector [vec(theta1); vec(theta2)]."""
    return np.concatenate([coef.theta1.ravel(order="F"), coef.theta2.ravel(order="F")])


def vec_to_coef(grid: KnotGrid, z: np.ndarray) -> CoefPair:
    """Inverse of coef_to_vec."""
    m = grid.k1 * grid.k2
    th1 = z[:m].reshape((grid.k1, grid.k2), order="F")
    th2 = z[m:].reshape((grid.k1, grid.k2), order="F")
    return CoefPair(th1, th2)


def transform_coef(coef: CoefPair, rotation: np.ndarray, translation: np.ndarray,
                   scale: float = 1.0) -> CoefPair:
    """Apply the similarity y -> scale * R y + t to the deformed plane.

    Because the basis is a partition of unity, transforming the
    coefficient vectors transforms the mapped points identically.
    """
    th = np.stack([coef.theta1, coef.theta2], axis=-1)
    r = np.asarray(rotation, dtype=float).reshape(2, 2)
    t = np.asarray(translation, dtype=float).reshape(2)
    new = scale * (th @ r.T) + t
    return CoefPair(new[..., 0], new[..., 1])
