import numpy as np
import pytest
from numpy.testing import assert_allclose

from spatdeform.basis import KnotGrid, design_matrix
from spatdeform.errors import DomainError

from oracles import eval_basis, eval_basis_deriv


@pytest.fixture
def unit_grid():
    return KnotGrid(0.0, 1.0, 0.0, 1.0, 4, 4)


def test_grid_validation():
    with pytest.raises(ValueError):
        KnotGrid(0.0, 1.0, 0.0, 1.0, 1, 4)
    with pytest.raises(ValueError):
        KnotGrid(1.0, 0.0, 0.0, 1.0, 4, 4)
    g = KnotGrid(0.0, 1.0, -2.0, 2.0, 4, 5)
    assert_allclose(g.tau1, 1.0 / 3.0)
    assert_allclose(g.tau2, 1.0)
    assert_allclose(g.knot_positions(2), [-2.0, -1.0, 0.0, 1.0, 2.0])


def test_basis_at_left_knots(unit_grid):
    assert_allclose(eval_basis(unit_grid, 1, 0.0), [1, 0, 0, 0])
    tau = unit_grid.tau1
    assert_allclose(eval_basis(unit_grid, 1, tau), [0, 1, 0, 0])


def test_basis_closure_at_right_boundary(unit_grid):
    assert_allclose(eval_basis(unit_grid, 1, 1.0), [0, 0, 0, 1])


def test_basis_partition_of_unity(unit_grid):
    rng = np.random.default_rng(42)
    for x in rng.uniform(0, 1, 1000):
        b = eval_basis(unit_grid, 1, x)
        assert abs(b.sum() - 1.0) < 1e-12
        assert np.all(b >= 0) and np.all(b <= 1)
        assert 1 <= np.count_nonzero(b) <= 2


def test_basis_out_of_domain(unit_grid):
    with pytest.raises(DomainError, match="axis-1"):
        eval_basis(unit_grid, 1, -0.01)
    with pytest.raises(DomainError, match="axis-2"):
        eval_basis(unit_grid, 2, 1.01)


def test_deriv_first_cell(unit_grid):
    # inside (0, tau) only the first two bases are active
    assert_allclose(eval_basis_deriv(unit_grid, 1, 0.1), [-3, 3, 0, 0])


def test_deriv_second_cell(unit_grid):
    # differentiating the hat formulas by hand over (tau, 2 tau)
    assert_allclose(eval_basis_deriv(unit_grid, 1, 0.5), [0, -3, 3, 0])


def test_deriv_sums_to_zero(unit_grid):
    rng = np.random.default_rng(3)
    for x in rng.uniform(0, 1, 200):
        d = eval_basis_deriv(unit_grid, 1, x)
        assert abs(d.sum()) < 1e-12
        nz = d[d != 0]
        assert nz.size == 2
        assert_allclose(np.sort(nz), [-3.0, 3.0])


def test_deriv_one_sided_convention(unit_grid):
    tau = unit_grid.tau1
    # at an interior knot: right-hand derivative (cell to the right)
    assert_allclose(eval_basis_deriv(unit_grid, 1, tau), [0, -3, 3, 0])
    # at the right boundary: left-hand derivative (last cell)
    assert_allclose(eval_basis_deriv(unit_grid, 1, 1.0), [0, 0, -3, 3])


def test_reproduction_of_linears():
    grid = KnotGrid(-1.0, 3.0, 0.0, 2.0, 6, 5)
    rng = np.random.default_rng(7)
    for axis in (1, 2):
        knots = grid.knot_positions(axis)
        lo, hi = grid.axis_bounds(axis)
        for x in rng.uniform(lo, hi, 300):
            assert abs(eval_basis(grid, axis, x) @ knots - x) < 1e-12


def test_deriv_matches_finite_difference():
    grid = KnotGrid(0.0, 1.0, 0.0, 1.0, 5, 5)
    rng = np.random.default_rng(11)
    theta = rng.normal(size=5)
    tau = grid.tau1
    h = 1e-7 * tau
    # sample away from knots so the FD stencil stays inside one cell
    for x in rng.uniform(2 * h, tau - 2 * h, 50) + tau * rng.integers(0, 4, 50):
        fd = (eval_basis(grid, 1, x + h) @ theta - eval_basis(grid, 1, x - h) @ theta) / (2 * h)
        an = eval_basis_deriv(grid, 1, x) @ theta
        assert abs(fd - an) < 1e-6


class TestDesignMatrix:
    def test_one_hot_at_knot_intersections(self, unit_grid):
        tau = unit_grid.tau1
        w = design_matrix(unit_grid, [[2 * tau, tau]])
        row = w.toarray()[0]
        assert np.count_nonzero(row) == 1
        # vec ordering is column-major over (k1, k2)
        assert row[2 + 4 * 1] == 1.0

    def test_cell_center_quarters(self, unit_grid):
        tau = unit_grid.tau1
        w = design_matrix(unit_grid, [[tau / 2, tau / 2]])
        row = w.toarray()[0]
        assert_allclose(np.sort(row[row != 0]), [0.25, 0.25, 0.25, 0.25])

    def test_rows_sum_to_one_max_four_nonzeros(self, unit_grid):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, (200, 2))
        w = design_matrix(unit_grid, pts)
        assert_allclose(np.asarray(w.sum(axis=1)).ravel(), 1.0, atol=1e-12)
        assert max(np.diff(w.indptr)) <= 4

    def test_reproduces_coordinates_with_identity_coef(self):
        from spatdeform.deformation import identity_coef

        grid = KnotGrid(0.0, 2.0, -1.0, 1.0, 5, 4)
        coef = identity_coef(grid)
        rng = np.random.default_rng(9)
        pts = np.column_stack([rng.uniform(0, 2, 100), rng.uniform(-1, 1, 100)])
        w = design_matrix(grid, pts)
        y1 = w @ coef.theta1.ravel(order="F")
        y2 = w @ coef.theta2.ravel(order="F")
        assert_allclose(np.column_stack([y1, y2]), pts, atol=1e-12)

    def test_out_of_domain_reports_site(self, unit_grid):
        pts = np.array([[0.5, 0.5], [1.5, 0.5]])
        with pytest.raises(DomainError, match="site"):
            design_matrix(unit_grid, pts)
