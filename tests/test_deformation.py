import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from spatdeform.basis import KnotGrid
from spatdeform.deformation import (
    CORNER_ORDER,
    CoefPair,
    CornerRows,
    DeformationMap,
    corner_values,
    default_epsilon,
    eval_map_points,
    identity_coef,
    min_jacobian,
    transform_coef,
    vec_to_coef,
)
from spatdeform.errors import DomainError

from oracles import assemble_A, cell_jacobian, corner_constraints, eval_map, jacobian_det


def random_map(rng, k1=4, k2=4, wobble=0.25):
    """Identity coefficients plus a bounded perturbation (may fold)."""
    grid = KnotGrid(0.0, 1.0, 0.0, 1.0, k1, k2)
    base = identity_coef(grid)
    t1 = base.theta1 + wobble * grid.tau1 * rng.uniform(-1, 1, (k1, k2))
    t2 = base.theta2 + wobble * grid.tau2 * rng.uniform(-1, 1, (k1, k2))
    return DeformationMap(grid, CoefPair(t1, t2))


def fd_jacobian(dmap, x, h=1e-6):
    """Central finite-difference determinant of the mapped point."""
    x = np.asarray(x, dtype=float)
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    d1 = (eval_map(dmap, x + e1) - eval_map(dmap, x - e1)) / (2 * h)
    d2 = (eval_map(dmap, x + e2) - eval_map(dmap, x - e2)) / (2 * h)
    return d1[0] * d2[1] - d2[0] * d1[1]


@pytest.fixture
def unit_grid():
    return KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)


class TestEvalMap:
    def test_identity(self, unit_grid):
        dmap = DeformationMap(unit_grid, identity_coef(unit_grid))
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, (50, 2))
        assert_allclose(eval_map_points(dmap, pts), pts, atol=1e-12)

    def test_zero_coefficients(self, unit_grid):
        z = CoefPair(np.zeros((4, 4)), np.zeros((4, 4)))
        dmap = DeformationMap(unit_grid, z)
        assert_allclose(eval_map(dmap, [0.3, 0.8]), [0.0, 0.0])

    def test_linear_in_coefficients(self, unit_grid):
        rng = np.random.default_rng(1)
        coef = CoefPair(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
        scaled = CoefPair(3.5 * coef.theta1, 3.5 * coef.theta2)
        x = [0.21, 0.77]
        a = eval_map(DeformationMap(unit_grid, coef), x)
        b = eval_map(DeformationMap(unit_grid, scaled), x)
        assert_allclose(b, 3.5 * a, rtol=1e-13)

    def test_out_of_domain(self, unit_grid):
        dmap = DeformationMap(unit_grid, identity_coef(unit_grid))
        with pytest.raises(DomainError):
            eval_map(dmap, [1.2, 0.5])

    def test_shape_mismatch_rejected(self, unit_grid):
        with pytest.raises(ValueError):
            DeformationMap(unit_grid, CoefPair(np.zeros((3, 4)), np.zeros((3, 4))))


class TestJacobianDet:
    def test_identity_is_one(self, unit_grid):
        dmap = DeformationMap(unit_grid, identity_coef(unit_grid))
        rng = np.random.default_rng(2)
        for x in rng.uniform(0.01, 0.99, (50, 2)):
            assert_allclose(jacobian_det(dmap, x), 1.0, atol=1e-12)

    def test_axis_swap_is_minus_one(self, unit_grid):
        base = identity_coef(unit_grid)
        swapped = CoefPair(base.theta2, base.theta1)
        dmap = DeformationMap(unit_grid, swapped)
        rng = np.random.default_rng(3)
        for x in rng.uniform(0, 1, (20, 2)):
            assert_allclose(jacobian_det(dmap, x), -1.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            k = int(rng.integers(4, 9))
            dmap = random_map(rng, k, k)
            tau = dmap.grid.tau1
            # keep the FD stencil strictly inside one cell
            cell = rng.integers(0, k - 1, 2)
            u = rng.uniform(0.01, 0.99, 2)
            x = (cell + u) * tau
            jd = jacobian_det(dmap, x)
            fd = fd_jacobian(dmap, x, h=1e-6 * tau)
            assert abs(jd - fd) / (1.0 + abs(jd)) < 1e-6

    def test_matches_bilinear_form(self, unit_grid):
        rng = np.random.default_rng(5)
        for _ in range(20):
            coef = CoefPair(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
            dmap = DeformationMap(unit_grid, coef)
            x = rng.uniform(0, 1, 2)
            a = assemble_A(unit_grid, x)
            bf = coef.theta1.ravel(order="F") @ (a @ coef.theta2.ravel(order="F"))
            assert_allclose(jacobian_det(dmap, x), bf, rtol=1e-10, atol=1e-12)


class TestAssembleA:
    def test_skew_symmetric(self, unit_grid):
        rng = np.random.default_rng(6)
        for x in rng.uniform(0, 1, (20, 2)):
            a = assemble_A(unit_grid, x).toarray()
            assert_allclose(a + a.T, 0.0, atol=1e-15)

    def test_published_block_entries(self):
        # hand evaluation of the known closed-form 4x4 block: with the
        # cell at 0-based index (ci, cj), the closed forms use labels
        # i = ci + 2, j = cj + 2 so that the cell is
        # [(i-2) tau, (i-1) tau] x [(j-2) tau, (j-1) tau]
        k = 5
        tau = 0.5
        grid = KnotGrid(0.0, (k - 1) * tau, 0.0, (k - 1) * tau, k, k)
        rng = np.random.default_rng(7)
        for _ in range(10):
            ci, cj = rng.integers(0, k - 1, 2)
            u = rng.uniform(0.05, 0.95, 2)
            x1 = (ci + u[0]) * tau
            x2 = (cj + u[1]) * tau
            i, j = ci + 2, cj + 2
            a = -tau * (x2 - (j - 1) * tau)
            b = tau * (x1 - (i - 1) * tau)
            c = tau * (x2 - x1 - tau * (j - i))
            d = -tau * (x1 + x2 - tau * (i + j - 3))
            e = tau * (x1 - (i - 2) * tau)
            f = -tau * (x2 - (j - 2) * tau)
            expected = np.array(
                [[0, a, b, c], [-a, 0, d, e], [-b, -d, 0, f], [-c, -e, -f, 0]]
            ) / tau**4
            idx = [ci + k * cj, ci + 1 + k * cj, ci + k * (cj + 1), ci + 1 + k * (cj + 1)]
            block = assemble_A(grid, [x1, x2]).toarray()[np.ix_(idx, idx)]
            assert_allclose(block, expected, atol=1e-12)

    def test_at_most_one_4x4_block(self, unit_grid):
        a = assemble_A(unit_grid, [0.15, 0.45]).toarray()
        nz_rows = np.nonzero(np.any(a != 0, axis=1))[0]
        nz_cols = np.nonzero(np.any(a != 0, axis=0))[0]
        assert nz_rows.size <= 4 and nz_cols.size <= 4

    def test_identity_contraction_is_one(self, unit_grid):
        coef = identity_coef(unit_grid)
        a = assemble_A(unit_grid, [0.39, 0.61])
        val = coef.theta1.ravel(order="F") @ (a @ coef.theta2.ravel(order="F"))
        assert_allclose(val, 1.0, atol=1e-12)


class TestCornerConstraints:
    def test_count_and_indexing(self):
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 5)
        cons = corner_constraints(grid)
        assert len(cons) == 4 * 3 * 4
        # row-major cells, CORNER_ORDER within a cell
        assert (cons[0].cell1, cons[0].cell2, cons[0].corner) == (0, 0, (0, 0))
        assert (cons[5].cell1, cons[5].cell2, cons[5].corner) == (0, 1, (1, 0))

    def test_identity_constant(self, unit_grid):
        coef = identity_coef(unit_grid)
        vals = np.array([c(coef) for c in corner_constraints(unit_grid)])
        assert np.all(vals > 0)
        assert_allclose(vals, vals[0], atol=1e-12)

    def test_swap_negates(self, unit_grid):
        rng = np.random.default_rng(8)
        coef = CoefPair(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
        swapped = CoefPair(coef.theta2, coef.theta1)
        v = corner_values(unit_grid, coef)
        vs = corner_values(unit_grid, swapped)
        assert_allclose(vs, -v, atol=1e-12)

    def test_functionals_match_corner_values_array(self, unit_grid):
        rng = np.random.default_rng(9)
        coef = CoefPair(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
        flat = corner_values(unit_grid, coef).ravel()
        vals = np.array([c(coef) for c in corner_constraints(unit_grid)])
        assert_allclose(vals, flat, atol=1e-14)

    def test_corner_min_equals_dense_cell_min(self):
        rng = np.random.default_rng(10)
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 5, 5)
        u = np.linspace(0.0, 1.0, 50)
        uu, vv = np.meshgrid(u, u)
        for _ in range(10):
            dmap = random_map(rng, 5, 5, wobble=0.6)
            cv = corner_values(grid, dmap.coef)
            for ci in range(4):
                for cj in range(4):
                    dense = cell_jacobian(dmap, ci, cj, uu, vv)
                    assert abs(dense.min() - cv[ci, cj].min()) < 1e-10


class TestPlaneProperty:
    def test_affine_interpolant_reproduces_cell_values(self):
        rng = np.random.default_rng(11)
        grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)
        for _ in range(20):
            coef = CoefPair(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
            dmap = DeformationMap(grid, coef)
            cv = corner_values(grid, coef)
            u = rng.uniform(0, 1, (25, 2))
            for ci in range(3):
                for cj in range(3):
                    c00, c10, c01, c11 = cv[ci, cj]
                    interp = (
                        c00 * (1 - u[:, 0]) * (1 - u[:, 1])
                        + c10 * u[:, 0] * (1 - u[:, 1])
                        + c01 * (1 - u[:, 0]) * u[:, 1]
                        + c11 * u[:, 0] * u[:, 1]
                    )
                    vals = cell_jacobian(dmap, ci, cj, u[:, 0], u[:, 1])
                    assert_allclose(vals, interp, atol=1e-10)


class TestMinJacobian:
    def test_identity_positive(self, unit_grid):
        dmap = DeformationMap(unit_grid, identity_coef(unit_grid))
        assert min_jacobian(dmap) > 0

    def test_folded_cell_detected(self, unit_grid):
        coef = identity_coef(unit_grid)
        t1 = coef.theta1.copy()
        # push an interior coefficient past its right neighbor
        t1[1, 1] = t1[2, 1] + 0.1
        folded = DeformationMap(unit_grid, CoefPair(t1, coef.theta2))
        assert min_jacobian(folded) < 0

    def test_lower_bounds_dense_samples(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            dmap = random_map(rng, 4, 4, wobble=0.8)
            mj = min_jacobian(dmap)
            pts = rng.uniform(0, 1, (500, 2))
            dets = np.array([jacobian_det(dmap, x) for x in pts])
            assert mj <= dets.min() + 1e-12


class TestGaugeCovariance:
    def test_translation_invariance(self, unit_grid):
        rng = np.random.default_rng(13)
        coef = CoefPair(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
        shifted = CoefPair(coef.theta1 + 3.2, coef.theta2 - 1.7)
        x = rng.uniform(0, 1, 2)
        a = jacobian_det(DeformationMap(unit_grid, coef), x)
        b = jacobian_det(DeformationMap(unit_grid, shifted), x)
        assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_rotation_invariance(self, unit_grid):
        rng = np.random.default_rng(14)
        coef = CoefPair(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
        ang = 0.77
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        rotated = transform_coef(coef, rot, np.zeros(2))
        x = rng.uniform(0, 1, 2)
        a = jacobian_det(DeformationMap(unit_grid, coef), x)
        b = jacobian_det(DeformationMap(unit_grid, rotated), x)
        assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_scaling_multiplies_by_alpha_squared(self, unit_grid):
        rng = np.random.default_rng(15)
        coef = CoefPair(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
        alpha = 2.5
        scaled = transform_coef(coef, np.eye(2), np.zeros(2), scale=alpha)
        x = rng.uniform(0, 1, 2)
        a = jacobian_det(DeformationMap(unit_grid, coef), x)
        b = jacobian_det(DeformationMap(unit_grid, scaled), x)
        assert_allclose(b, alpha**2 * a, rtol=1e-10)


def test_default_epsilon(unit_grid):
    # identity corners are all 1, so the margin is 1e-3
    assert_allclose(default_epsilon(unit_grid), 1e-3)


def test_corner_order_constant():
    assert CORNER_ORDER == ((0, 0), (1, 0), (0, 1), (1, 1))


@st.composite
def grids_and_coefs(draw):
    """A knot grid of 2..6 knots per axis on a random box, and a stacked
    coefficient vector for it."""
    k1, k2 = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    lo1, lo2 = draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))
    w1, w2 = draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))
    grid = KnotGrid(lo1, lo1 + w1, lo2, lo2 + w2, k1, k2)
    z = draw(arrays(float, 2 * k1 * k2, elements=st.floats(-10.0, 10.0)))
    return grid, z


class TestCornerKernel:
    @given(grids_and_coefs())
    def test_values_match_cell_jacobian_at_every_corner(self, case):
        grid, z = case
        coef = vec_to_coef(grid, z)
        dmap = DeformationMap(grid, coef)
        vals, _ = CornerRows(grid)(z, want_jac=False)
        expected = [
            float(cell_jacobian(dmap, ci, cj, s1, s2))
            for ci in range(grid.k1 - 1)
            for cj in range(grid.k2 - 1)
            for s1, s2 in CORNER_ORDER
        ]
        assert_allclose(vals, expected, rtol=1e-12, atol=0.0)
        assert np.array_equal(corner_values(grid, coef).ravel(), vals)

    @given(grids_and_coefs())
    def test_jacobian_matches_central_differences(self, case):
        # each corner value is bilinear in z, so central differences are
        # exact up to rounding
        grid, z = case
        rows = CornerRows(grid)
        _, jac = rows(z)
        h = 1e-4
        fd = np.empty_like(jac)
        for j in range(z.size):
            e = np.zeros(z.size)
            e[j] = h
            plus, _ = rows(z + e, want_jac=False)
            minus, _ = rows(z - e, want_jac=False)
            fd[:, j] = (plus - minus) / (2.0 * h)
        scale = 1.0 / (grid.tau1 * grid.tau2)
        assert_allclose(jac, fd, rtol=0.0, atol=1e-8 * scale * (1.0 + np.abs(z).max()) ** 2)
        assert np.all(np.count_nonzero(jac, axis=1) <= 8)

    @given(grids_and_coefs(), st.integers(0, 2**32 - 1))
    def test_hessian_block_matches_central_differences(self, case, seed):
        # the Hessian of w' rows(z) is [[0, X], [-X, 0]], and J is linear
        # in z, so central differences of w'J are exact up to rounding
        grid, z = case
        rows = CornerRows(grid)
        w = np.random.default_rng(seed).uniform(0.0, 1.0, len(rows.a))
        x = rows.hessian_block(w)
        m = z.size // 2
        hess = np.block([[np.zeros((m, m)), x], [-x, np.zeros((m, m))]])
        h = 1e-4
        fd = np.empty_like(hess)
        for j in range(z.size):
            e = np.zeros(z.size)
            e[j] = h
            fd[:, j] = w @ (rows(z + e)[1] - rows(z - e)[1]) / (2.0 * h)
        scale = 1.0 / (grid.tau1 * grid.tau2)
        assert_allclose(hess, fd, rtol=0.0, atol=1e-8 * scale * (1.0 + np.abs(z).max()))
