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
import scipy.sparse as sps

from .basis import KnotGrid, cell_and_local, design_matrix, eval_basis, eval_basis_deriv

__all__ = [
    "CoefPair",
    "DeformationMap",
    "identity_coef",
    "eval_map",
    "eval_map_points",
    "jacobian_det",
    "cell_jacobian",
    "assemble_A",
    "corner_values",
    "corner_constraints",
    "CornerConstraint",
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


def identity_coef(grid: KnotGrid) -> CoefPair:
    """Coefficients reproducing the identity map (theta = knot position)."""
    p1 = grid.knot_positions(1)
    p2 = grid.knot_positions(2)
    theta1 = np.tile(p1[:, None], (1, grid.k2))
    theta2 = np.tile(p2[None, :], (grid.k1, 1))
    return CoefPair(theta1, theta2)


def eval_map_points(dmap: DeformationMap, sites) -> np.ndarray:
    """Map an (n, 2) array of points through the deformation."""
    w = design_matrix(dmap.grid, sites)
    y1 = w @ dmap.coef.theta1.ravel(order="F")
    y2 = w @ dmap.coef.theta2.ravel(order="F")
    return np.column_stack([y1, y2])


def eval_map(dmap: DeformationMap, x) -> np.ndarray:
    """Map a single point, returned as shape (2,)."""
    return eval_map_points(dmap, np.asarray(x, dtype=float).reshape(1, 2))[0]


def _cell_edge_diffs(theta: np.ndarray, ci: int, cj: int):
    """Edge differences of the 2 x 2 coefficient block of one cell."""
    b = theta[ci : ci + 2, cj : cj + 2]
    du_bottom = b[1, 0] - b[0, 0]
    du_top = b[1, 1] - b[0, 1]
    dv_left = b[0, 1] - b[0, 0]
    dv_right = b[1, 1] - b[1, 0]
    return du_bottom, du_top, dv_left, dv_right


def cell_jacobian(dmap: DeformationMap, ci: int, cj: int, u1, u2) -> np.ndarray:
    """Jacobian determinant inside cell (ci, cj) at local coordinates.

    Evaluates the within-cell limit, so corner and edge values belong to
    the requested cell regardless of the global half-open convention.
    ``u1`` and ``u2`` broadcast; each must lie in [0, 1].
    """
    grid = dmap.grid
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    a_b, a_t, a_l, a_r = _cell_edge_diffs(dmap.coef.theta1, ci, cj)
    b_b, b_t, b_l, b_r = _cell_edge_diffs(dmap.coef.theta2, ci, cj)
    d1f1 = a_b * (1.0 - u2) + a_t * u2
    d2f1 = a_l * (1.0 - u1) + a_r * u1
    d1f2 = b_b * (1.0 - u2) + b_t * u2
    d2f2 = b_l * (1.0 - u1) + b_r * u1
    return (d1f1 * d2f2 - d2f1 * d1f2) / (grid.tau1 * grid.tau2)


def jacobian_det(dmap: DeformationMap, x) -> float:
    """Jacobian determinant at a point (one-sided convention at knots)."""
    x = np.asarray(x, dtype=float).reshape(2)
    c1, u1 = cell_and_local(dmap.grid, 1, x[0])
    c2, u2 = cell_and_local(dmap.grid, 2, x[1])
    return float(cell_jacobian(dmap, int(c1[0]), int(c2[0]), u1[0], u2[0]))


def assemble_A(grid: KnotGrid, x) -> sps.coo_matrix:
    """Skew-symmetric matrix A(x) with |J| = vec(theta1)' A vec(theta2).

    Built as the antisymmetrized outer product of the two
    Kronecker-product derivative vectors; at most a 4 x 4 block is
    nonzero (the bases active at x).
    """
    x = np.asarray(x, dtype=float).reshape(2)
    b1 = eval_basis(grid, 1, x[0])
    b2 = eval_basis(grid, 2, x[1])
    b1p = eval_basis_deriv(grid, 1, x[0])
    b2p = eval_basis_deriv(grid, 2, x[1])
    u = np.kron(b2, b1p)
    v = np.kron(b2p, b1)
    iu = np.nonzero(u)[0]
    iv = np.nonzero(v)[0]
    rows = np.concatenate([np.repeat(iu, iv.size), np.repeat(iv, iu.size)])
    cols = np.concatenate([np.tile(iv, iu.size), np.tile(iu, iv.size)])
    vals = np.concatenate(
        [np.outer(u[iu], v[iv]).ravel(), -np.outer(v[iv], u[iu]).ravel()]
    )
    m = grid.k1 * grid.k2
    a = sps.coo_matrix((vals, (rows, cols)), shape=(m, m))
    a.sum_duplicates()
    return a


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


@dataclass(frozen=True)
class CornerConstraint:
    """One bilinear corner functional; positive value means locally
    orientation-preserving at that corner."""

    grid: KnotGrid
    cell1: int
    cell2: int
    corner: tuple[int, int]

    def __call__(self, coef: CoefPair) -> float:
        s, t = self.corner
        return float(cell_jacobian(DeformationMap(self.grid, coef), self.cell1, self.cell2, s, t))

    @property
    def knot_indices(self) -> tuple[int, int]:
        """Knot pair (axis-1 knot, axis-2 knot) the corner sits on."""
        return self.cell1 + self.corner[0], self.cell2 + self.corner[1]


def corner_constraints(grid: KnotGrid) -> list[CornerConstraint]:
    """All 4 (K1-1)(K2-1) corner functionals, row-major cells then
    CORNER_ORDER, matching corner_values ravelled in C order."""
    out = []
    for ci in range(grid.k1 - 1):
        for cj in range(grid.k2 - 1):
            for corner in CORNER_ORDER:
                out.append(CornerConstraint(grid, ci, cj, corner))
    return out


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
