"""Tensor-product B-spline plane deformations and their Jacobian control.

A deformation maps geographic points to "deformed" coordinates through
two coefficient matrices, one per output component.  Because the basis
has degree 1, the Jacobian determinant is affine inside every knot cell,
so its sign over the whole domain is controlled by its values at the
4 corners of each cell.  Keeping all corner values positive keeps the
map orientation-preserving and non-folding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import KnotGrid, design_matrix

__all__ = [
    "CoefPair",
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
    """The two K1 x K2 coefficient matrices of a deformation.

    ``validated`` marks coefficient pairs whose corner constraints have
    been checked to clear the positivity margin.
    """

    theta1: np.ndarray
    theta2: np.ndarray
    validated: bool = False

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
    vals, _ = _corner_values_and_jac(grid, coef_to_vec(coef), _corner_tables(grid),
                                     want_jac=False)
    return vals.reshape(grid.k1 - 1, grid.k2 - 1, 4)


def min_jacobian(dmap: DeformationMap) -> float:
    """Exact global minimum of |J| over the domain (corner minimum)."""
    return float(corner_values(dmap.grid, dmap.coef).min())


def default_epsilon(grid: KnotGrid) -> float:
    """Constraint margin: 1e-3 times the median corner value of the
    identity map on this grid."""
    vals = corner_values(grid, identity_coef(grid))
    return 1e-3 * float(np.median(vals))


def _corner_tables(grid: KnotGrid) -> dict[str, np.ndarray]:
    """Flat coefficient indices touched by each corner functional.

    Constraint m (cells row-major, corners in CORNER_ORDER) has value
    (dPu * dQv - dPv * dQu) / (tau1 tau2) with
    dPu = P[ci+1, cj+s2] - P[ci, cj+s2]  (difference along axis 1)
    dPv = P[ci+s1, cj+1] - P[ci+s1, cj]  (difference along axis 2)
    and the same slots in Q.  Used by the constrained optimizers.
    """
    k1 = grid.k1
    ci, cj, corner = np.indices((k1 - 1, grid.k2 - 1, len(CORNER_ORDER))).reshape(3, -1)
    s1, s2 = np.array(CORNER_ORDER)[corner].T

    def flat(a, b):
        return a + k1 * b

    return {
        "u_hi": flat(ci + 1, cj + s2),
        "u_lo": flat(ci, cj + s2),
        "v_hi": flat(ci + s1, cj + 1),
        "v_lo": flat(ci + s1, cj),
    }


def _corner_values_and_jac(grid: KnotGrid, z: np.ndarray, tables, want_jac=True):
    """Corner values (and Jacobian) from stacked coefficient vectors.

    ``z`` concatenates vec(theta1) and vec(theta2) (column-major); the
    values are corner_values(...).ravel().  Each row of the dense
    Jacobian has 8 nonzeros, one per index slot; within a slot every row
    names one column, so one fancy-indexed assignment fills it.
    """
    m = grid.k1 * grid.k2
    v1, v2 = z[:m], z[m:]
    scale = 1.0 / (grid.tau1 * grid.tau2)
    dpu = v1[tables["u_hi"]] - v1[tables["u_lo"]]
    dpv = v1[tables["v_hi"]] - v1[tables["v_lo"]]
    dqu = v2[tables["u_hi"]] - v2[tables["u_lo"]]
    dqv = v2[tables["v_hi"]] - v2[tables["v_lo"]]
    vals = (dpu * dqv - dpv * dqu) * scale
    if not want_jac:
        return vals, None
    jac = np.zeros((vals.size, 2 * m))
    rows = np.arange(vals.size)
    for offset, slot, weight in (
        (0, "u_hi", dqv), (0, "u_lo", -dqv), (0, "v_hi", -dqu), (0, "v_lo", dqu),
        (m, "v_hi", dpu), (m, "v_lo", -dpu), (m, "u_hi", -dpv), (m, "u_lo", dpv),
    ):
        jac[rows, offset + tables[slot]] += weight * scale
    return vals, jac


def coef_to_vec(coef: CoefPair) -> np.ndarray:
    """Stacked column-major coefficient vector [vec(theta1); vec(theta2)]."""
    return np.concatenate([coef.theta1.ravel(order="F"), coef.theta2.ravel(order="F")])


def vec_to_coef(grid: KnotGrid, z: np.ndarray, validated: bool = False) -> CoefPair:
    """Inverse of coef_to_vec."""
    m = grid.k1 * grid.k2
    th1 = z[:m].reshape((grid.k1, grid.k2), order="F")
    th2 = z[m:].reshape((grid.k1, grid.k2), order="F")
    return CoefPair(th1, th2, validated=validated)


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
    # orientation-reversing transforms flip |J| signs, voiding validation
    preserves = scale > 0 and float(np.linalg.det(r)) > 0
    return replace(
        coef,
        theta1=new[..., 0],
        theta2=new[..., 1],
        validated=coef.validated and preserves,
    )
