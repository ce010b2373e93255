"""Tube construction, projection, verification, and the closed-form center."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import thermistor as th
from thermistor.solver import oracle_solve
from thermistor.cli import iter_margin_lines
from thermistor.conformable import _check_finite, trapezoid
from thermistor.model import _check_span, nonlocal_rhs, sample_source
from thermistor.tube import TubeReport, default_condition_tol

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

    def test_u_on_another_grid_is_rejected(self):
        tube = make_tube(th.Grid(1.0, 2.0, 5), 0.0, 0.5)
        u = th.GridFunction.constant(th.Grid(1.0, 2.0, 9), 0.0)
        with pytest.raises(ValueError, match="^membership: u is not on the tube's grid$"):
            th.membership(u, tube)

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

    def test_nan_margin_is_a_violation_at_its_node(self):
        # lambda * f overflows at t = 2 only and D**2 overflows: g is
        # inf/inf there and 0 elsewhere, where every margin is then 0
        p = th.ThermistorProblem(
            1.0, 2.0, 10.0, th.Alpha(1.0), 0.0, lambda t, u: np.where(t == 2.0, 1e308, 1.0) + 0.0 * u
        )
        report = th.verify_tube(make_tube(p.grid(101), 0.0, 0.5), p)
        assert not report.valid and not report.boundary_ok
        assert (report.boundary_margin, report.boundary_node, report.boundary_side) == (math.inf, 100, 1)

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

    @pytest.mark.parametrize("name", ["center", "radius"])
    def test_overflowing_derivative_is_named(self, name):
        # 1e308 next to 0 overflows the difference quotients at nodes 39 and
        # 41; pytest turns any numpy RuntimeWarning into an error
        p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.5), 0.1, th.parse_expr("2 + sin(u)"))
        grid = p.grid(101)
        spike = np.zeros(grid.n)
        spike[40] = 1e308
        v, m = (spike, np.full(grid.n, 0.5)) if name == "center" else (np.zeros(grid.n), spike)
        with pytest.raises(ValueError, match=rf"^tube {name} derivative overflowed at node 39 \(t="):
            th.verify_tube(th.Tube(th.GridFunction(grid, v), th.GridFunction(grid, m)), p)

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


class TestOverflowingSheet:
    @pytest.mark.parametrize("v_value, sheet", [(1e308, "+"), (-1e308, "-")])
    def test_sheet_that_overflows_is_named(self, v_value, sheet):
        # v and M are finite, but v + M (or v - M) is not at any node
        p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.5), 0.1, th.parse_expr("2 + sin(u)"))
        tube = make_tube(p.grid(21), v_value, 1e308)
        with pytest.raises(ValueError) as raised:
            th.verify_tube(tube, p)
        assert str(raised.value) == f"tube sheet v {sheet} M overflowed at node 0 (t=1.0)"


def _reference_stencil(values, h):
    d = np.empty_like(values)
    d[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    d[0] = (4.0 * (values[1] - values[0]) - (values[2] - values[0])) / (2.0 * h)
    d[-1] = (4.0 * (values[-1] - values[-2]) - (values[-1] - values[-3])) / (2.0 * h)
    return d


def _reference_derivative(values, grid, alpha, what):
    with np.errstate(all="ignore"):
        d = np.power(grid.nodes, 1.0 - alpha) * _reference_stencil(values, grid.h)
    return _check_finite(d, grid.nodes, what)


def _reference_verify_tube(tube, problem):
    """``verify_tube`` as it was before its arrays were formed in place: a
    GridFunction per sheet, ``t**(1 - alpha)`` once per derivative, the sheet
    arithmetic in temporaries and ``g`` on the center formed on every call.
    Only the error of a sheet that overflows has changed since."""
    _check_span(problem, tube.grid, "tube grid")
    grid = tube.grid
    tol = default_condition_tol(grid)

    v = tube.v
    m = tube.M
    dv = _reference_derivative(v.values, grid, problem.alpha.value, "tube center derivative")
    dm = _reference_derivative(m.values, grid, problem.alpha.value, "tube radius derivative")

    weights = np.full(grid.n, grid.h)
    weights[0] = weights[-1] = 0.5 * grid.h

    boundary_margin = -math.inf
    boundary_node = -1
    boundary_side = 0
    with np.errstate(all="ignore"):
        f_center = sample_source(problem, v)
        base = trapezoid(f_center, grid.h)
        g_center = nonlocal_rhs(problem.lam, f_center, base)
        for side in (1, -1):
            y = th.GridFunction(grid, v.values + side * m.values)
            f_side = sample_source(problem, y)
            perturbed = base + weights * (f_side - f_center)
            g_side = nonlocal_rhs(problem.lam, f_side, perturbed)
            margins = side * m.values * (g_side - dv) - m.values * dm
            margins[np.isnan(margins)] = math.inf
            worst = int(np.argmax(margins))
            if margins[worst] > boundary_margin:
                boundary_margin = float(margins[worst])
                boundary_node = worst
                boundary_side = side

    pinched = np.flatnonzero(m.values <= tol)
    if pinched.size:
        res = np.maximum(np.abs(dv - g_center), np.abs(dm))[pinched]
        worst = int(np.argmax(res))
        pinch_margin = float(res[worst])
        pinch_node = int(pinched[worst])
    else:
        pinch_margin = -math.inf
        pinch_node = -1

    initial_margin = abs(problem.u_a - float(v.values[0])) - float(m.values[0])

    boundary_ok = boundary_margin <= tol
    pinch_ok = pinch_margin <= tol
    initial_ok = initial_margin <= tol
    return TubeReport(
        valid=bool(boundary_ok and pinch_ok and initial_ok),
        tol=tol,
        boundary_ok=bool(boundary_ok),
        boundary_margin=boundary_margin,
        boundary_node=boundary_node,
        boundary_side=boundary_side,
        pinch_ok=bool(pinch_ok),
        pinch_margin=pinch_margin,
        pinch_node=pinch_node,
        initial_ok=bool(initial_ok),
        initial_margin=float(initial_margin),
    )


# Sources for the drawn tubes: bounded ones; one that turns nonpositive on a
# sheet; one that overflows to inf for u above about 18; one whose integral
# squared underflows to 0, so that g = inf and a margin is 0 * inf = NaN
# where M = 0; one whose lam * f overflows while its integral squared does,
# so that g = inf / inf = NaN; and a masking one, whose value without the
# node checks is 2 where exp(1000*u) overflows and which raises its EvalError there.
_TUBE_SOURCES = [
    "2 + sin(u)", "1 + u^2", "exp(-u) + t", "u + 0.6", "1e300*exp(u)", "1e-170 + 0*u", "1e308 + 0*u",
    "2 + 1/exp(1000*u)",
]


def _tube_case(src, v, m, a=1.0, T=2.0, lam=1.0, alpha=0.5, u_a=0.0):
    p = th.ThermistorProblem(a, T, lam, th.Alpha(alpha), u_a, th.parse_expr(src))
    grid = p.grid(len(v))
    return p, th.Tube(th.GridFunction(grid, np.array(v, dtype=float)), th.GridFunction(grid, np.array(m, dtype=float)))


@st.composite
def _tube_cases(draw):
    n = draw(st.integers(3, 40))
    a = draw(st.floats(0.1, 2.0))
    T = a + draw(st.floats(0.5, 3.0))
    v = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    m = draw(st.lists(st.floats(0.01, 3.0), min_size=n, max_size=n))
    for i in draw(st.sets(st.integers(0, n - 1))):
        m[i] = draw(st.sampled_from([0.0, 1e-300]))  # pinched: below any tol
    if draw(st.sampled_from([False] * 7 + [True])):
        # a radius whose differences overflow on up to 40 nodes; v + M stays finite
        m[draw(st.integers(0, n - 1))] = 1.7e308
    return _tube_case(
        draw(st.sampled_from(_TUBE_SOURCES)), v, m, a, T,
        lam=draw(st.floats(0.1, 10.0)), alpha=draw(st.floats(0.05, 1.0)), u_a=draw(st.floats(-3.0, 3.0)),
    )


def _verdict(check, tube, problem):
    """``check(tube, problem)`` as comparable text: the report's repr, whose
    floats are their reprs, or the error's type and message."""
    try:
        return repr(check(tube, problem))
    except ValueError as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(case=_tube_cases())
# pinched everywhere, on a center that solves the constant problem
@example(case=_tube_case("1", 2.0 * (np.sqrt(np.linspace(1.0, 2.0, 11)) - 1.0), [0.0] * 11))
# M = 0 where g = inf: NaN margins, and a pinch residual of inf
@example(case=_tube_case("1e-170 + 0*u", [0.0] * 9, [0.0, 0.5, 0.0, 1.0, 0.0, 0.5, 0.0, 1.0, 0.0]))
# g = inf / inf on both sheets and the center
@example(case=_tube_case("1e308 + 0*u", [0.0] * 9, [0.5] * 4 + [0.0] + [0.5] * 4, lam=2.0))
# the masking source, whose sheet u = 1 overflows exp(1000*u)
@example(case=_tube_case("2 + 1/exp(1000*u)", [0.5] * 9, [0.5] * 9))
def test_verify_tube_matches_the_reference(case):
    problem, tube = case
    assert _verdict(th.verify_tube, tube, problem) == _verdict(_reference_verify_tube, tube, problem)
