"""Tube construction, projection, verification, and the closed-form center."""

import math

import numpy as np
import pytest

import thermistor as th
from thermistor.solver import oracle_solve
from thermistor.cli import iter_margin_lines
from thermistor.tube import default_condition_tol

from conftest import constant_problem, ramp_problem, sin_problem, u_star


def make_tube(grid, v_value, m_value):
    return th.Tube(
        th.GridFunction.constant(grid, v_value),
        th.GridFunction.constant(grid, m_value),
    )


class TestTubeContainer:
    def test_rejects_mismatched_grids(self):
        v = th.GridFunction.constant(th.Grid(1.0, 2.0, 11), 0.0)
        m = th.GridFunction.constant(th.Grid(1.0, 2.0, 21), 1.0)
        with pytest.raises(ValueError):
            th.Tube(v, m)

    def test_rejects_negative_radius(self):
        grid = th.Grid(1.0, 2.0, 11)
        mvals = np.ones(11)
        mvals[4] = -0.1
        with pytest.raises(ValueError, match="node 4"):
            th.Tube(th.GridFunction.constant(grid, 0.0), th.GridFunction(grid, mvals))

    def test_zero_radius_allowed(self):
        grid = th.Grid(1.0, 2.0, 11)
        tube = make_tube(grid, 0.0, 0.0)
        assert tube.grid == grid


class TestTruncate:
    def test_inside_passes_through_bitwise(self):
        grid = th.Grid(1.0, 2.0, 51)
        tube = make_tube(grid, 0.0, 1.0)
        u = th.GridFunction(grid, 0.99 * np.sin(9.0 * grid.nodes))
        out = th.truncate(u, tube)
        assert out is u

    def test_outside_lands_on_boundary(self):
        grid = th.Grid(1.0, 2.0, 5)
        tube = make_tube(grid, 1.0, 0.5)
        u = th.GridFunction(grid, np.array([3.0, -3.0, 1.2, 1.0, 0.4]))
        out = th.truncate(u, tube)
        assert out.values[0] == 1.5
        assert out.values[1] == 0.5
        assert out.values[2] == 1.2
        assert out.values[3] == 1.0
        assert out.values[4] == 0.5

    def test_boundary_sum_never_overshoots(self):
        # v + M rounds outward here; the projection must repair the ulp
        grid = th.Grid(1.0, 2.0, 3)
        tube = make_tube(grid, 0.1, 0.2)
        out = th.truncate(th.GridFunction.constant(grid, 5.0), tube)
        assert np.all(np.abs(out.values - 0.1) <= 0.2)

    def test_idempotent_bitwise(self):
        grid = th.Grid(1.0, 2.0, 101)
        tube = make_tube(grid, 0.1, 0.2)
        u = th.GridFunction(grid, 3.0 * np.sin(17.0 * grid.nodes))
        once = th.truncate(u, tube)
        twice = th.truncate(once, tube)
        assert np.array_equal(once.values, twice.values)

    def test_contraction_toward_center(self):
        grid = th.Grid(1.0, 2.0, 101)
        tube = make_tube(grid, 0.3, 0.4)
        u = th.GridFunction(grid, 2.0 * np.cos(5.0 * grid.nodes))
        out = th.truncate(u, tube)
        assert np.all(np.abs(out.values - 0.3) <= np.abs(u.values - 0.3))
        assert np.all(np.abs(out.values - 0.3) <= 0.4)

    def test_grid_mismatch_rejected(self):
        tube = make_tube(th.Grid(1.0, 2.0, 11), 0.0, 1.0)
        u = th.GridFunction.constant(th.Grid(1.0, 2.0, 21), 0.0)
        with pytest.raises(ValueError):
            th.truncate(u, tube)


class TestMembership:
    def test_boundary_counts_as_inside(self):
        grid = th.Grid(1.0, 2.0, 5)
        tube = make_tube(grid, 0.0, 0.5)
        assert th.membership(th.GridFunction.constant(grid, 0.5), tube)
        assert not th.membership(th.GridFunction.constant(grid, 0.5000001), tube)
        assert th.membership(th.GridFunction.constant(grid, 0.5000001), tube, slack=1e-6)

    def test_slack_validation(self):
        grid = th.Grid(1.0, 2.0, 5)
        tube = make_tube(grid, 0.0, 0.5)
        u = th.GridFunction.constant(grid, 0.0)
        with pytest.raises(ValueError):
            th.membership(u, tube, slack=-1e-3)

    def test_default_tol_is_ten_h_squared(self):
        grid = th.Grid(1.0, 2.0, 101)
        assert default_condition_tol(grid) == 10.0 * grid.h * grid.h


class TestVerifyTube:
    def test_exact_center_with_constant_radius_is_valid(self):
        p = constant_problem()
        grid = p.grid(201)
        report = th.verify_tube(th.Tube(u_star(grid), th.GridFunction.constant(grid, 0.5)), p)
        assert report.valid
        assert report.boundary_ok and report.pinch_ok and report.initial_ok
        assert report.initial_margin == -0.5
        assert report.pinch_margin == -math.inf and report.pinch_node == -1

    def test_flat_center_fails_boundary_condition(self):
        # v = 0 is not a solution: the flow leaves the tube at full speed g = 1
        p = constant_problem()
        tube = make_tube(p.grid(101), 0.0, 0.5)
        report = th.verify_tube(tube, p)
        assert not report.valid
        assert not report.boundary_ok
        assert report.boundary_margin == pytest.approx(0.5, abs=1e-12)
        assert report.boundary_node == 0
        assert report.boundary_side == 1

    def test_pinched_tube_requires_center_to_solve(self):
        p = constant_problem()
        grid = p.grid(201)
        report = th.verify_tube(th.Tube(u_star(grid), th.GridFunction.constant(grid, 0.0)), p)
        assert report.valid
        assert report.pinch_ok
        assert 0.0 <= report.pinch_margin <= report.tol
        assert report.pinch_node >= 0

    def test_pinched_tube_rejects_non_solution_center(self):
        p = constant_problem()
        report = th.verify_tube(make_tube(p.grid(201), 0.0, 0.0), p)
        assert not report.valid
        assert not report.pinch_ok
        assert report.pinch_margin == pytest.approx(1.0, abs=1e-10)

    def test_initial_condition_violation(self):
        p = constant_problem()
        grid = p.grid(101)
        shifted = th.Tube(th.GridFunction(grid, u_star(grid).values + 1.0),
                          th.GridFunction.constant(grid, 0.5))
        report = th.verify_tube(shifted, p)
        assert not report.initial_ok
        assert report.initial_margin == pytest.approx(0.5, abs=1e-12)
        assert not report.valid

    def test_growing_radius_absorbs_source_variation(self):
        # radius growing like the exponential of the weight exponent gives a
        # strictly negative boundary margin for the bounded u-dependent source
        p = sin_problem()
        grid = p.grid(201)
        v = oracle_solve(p, th.SolveOptions(grid_n=201))
        m = th.GridFunction(grid, 0.3 * np.exp((grid.nodes**0.7 - 1.0) / 0.7))
        report = th.verify_tube(th.Tube(v, m), p)
        assert report.valid
        assert report.boundary_margin < 0.0

    def test_sheet_positivity_failure_raises(self):
        # source is positive on the center but crosses zero on the lower sheet
        f = th.parse_expr("u + 0.6")
        p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.5), 0.1, f)
        tube = make_tube(p.grid(51), 0.1, 1.0)
        with pytest.raises(th.SourcePositivityError, match="H1 violated"):
            th.verify_tube(tube, p)

    def test_interval_mismatch(self):
        p = constant_problem()
        tube = make_tube(th.Grid(1.0, 3.0, 51), 0.0, 1.0)
        with pytest.raises(ValueError, match="interval"):
            th.verify_tube(tube, p)

    def test_report_lines(self):
        p = constant_problem()
        grid = p.grid(101)
        report = th.verify_tube(th.Tube(u_star(grid), th.GridFunction.constant(grid, 0.5)), p)
        assert report.tol == default_condition_tol(grid)
        lines = list(iter_margin_lines(report))
        assert len(lines) == 4
        assert lines[0] == f"tube valid: true (tol={report.tol!r})"
        assert lines[1] == (
            f"  boundary: ok=true margin={report.boundary_margin!r} "
            f"node={report.boundary_node} side={report.boundary_side:+d}"
        )


class TestClosedFormCenter:
    def test_matches_antiderivative_for_constant_source(self):
        p = constant_problem()
        grid = p.grid(101)
        center = th.closed_form_center(p, grid)
        expected = (np.sqrt(grid.nodes) - 1.0) / 0.5
        assert np.max(np.abs(center.values - expected)) <= 1e-5
        assert float(center.values[0]) == p.u_a

    def test_matches_oracle_for_ramp_source(self):
        p = ramp_problem()
        for n, cap in ((101, 1e-5), (401, 1e-6)):
            center = th.closed_form_center(p, p.grid(n))
            reference = oracle_solve(p, th.SolveOptions(grid_n=n))
            assert np.max(np.abs(center.values - reference.values)) <= cap

    def test_interval_mismatch_rejected(self):
        p = constant_problem()
        with pytest.raises(ValueError):
            th.closed_form_center(p, th.Grid(1.0, 3.0, 51))
