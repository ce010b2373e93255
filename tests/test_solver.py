"""Fixed-point solver, equation residual, and the RK4 reference path."""

import collections
import functools
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import thermistor as th
from thermistor.expressions import Expr
from thermistor.linear import _plan
from thermistor.model import sample_source
from thermistor.solver import _picard_rows, equation_residual

from conftest import constant_problem, ramp_problem, sin_offset_source, sin_problem, u_star
from test_expressions import _reference_eval


def _reference_oracle_parts(problem, opts):
    """The denominator D and the RK4 pass of ``oracle_solve`` written out,
    with expression sources evaluated by the reference tree walk instead of
    compiled, and the starting trajectory ``u = u_a``."""
    f = problem.f
    if isinstance(f, Expr):
        f = functools.partial(_reference_eval, f)
    grid = problem.grid(opts.grid_n)
    t, h = grid.nodes, grid.h
    al = problem.alpha.value
    sampled = replace(problem, f=f)

    def denominator(u):
        integral = np.trapezoid(sample_source(sampled, th.GridFunction(grid, u)), dx=h)
        return float(integral * integral)

    def trajectory(d_sq):
        scale = problem.lam / d_sq

        def rate(ti, yi):
            return scale * ti ** (al - 1.0) * float(f(ti, yi))

        u = np.empty(grid.n)
        u[0] = problem.u_a
        yi = float(problem.u_a)
        for i in range(grid.n - 1):
            ti = float(t[i])
            k1 = rate(ti, yi)
            k2 = rate(ti + 0.5 * h, yi + 0.5 * h * k1)
            k3 = rate(ti + 0.5 * h, yi + 0.5 * h * k2)
            k4 = rate(ti + h, yi + h * k3)
            yi = yi + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            u[i + 1] = yi
        return u

    return denominator, trajectory, np.full(grid.n, problem.u_a)


def _reference_oracle(problem, opts, start=None):
    """The safeguarded secant loop of ``oracle_solve`` written out: the
    secant step if it is finite and strictly inside the sign bracket, else
    the plain step if that is, else the bracket's midpoint.

    Starts from ``u = u_a``, or from ``start = (D, (dD, dF))``: a frozen D
    and the differences behind a secant slope, which the first step uses.
    Returns the settled trajectory, its frozen D and the differences behind
    the last secant (``None`` if there was none)."""
    denominator, trajectory, u = _reference_oracle_parts(problem, opts)
    d_sq, diffs = (denominator(u), None) if start is None else start
    lo, hi = 0.0, math.inf
    last = None
    for _ in range(opts.max_iter):
        u = trajectory(d_sq)
        new_d = denominator(u)
        step = new_d - d_sq
        if last is not None:
            diffs = (d_sq - last[0], step - last[1])
        if abs(step) <= opts.tol_fp * min(1.0, d_sq):
            return u, d_sq, diffs
        if step > 0.0:
            lo = d_sq
        else:
            hi = d_sq
        candidates = [new_d, 0.5 * (lo + hi)]
        if diffs is not None and diffs[1] != 0.0:
            candidates.insert(0, d_sq - step * diffs[0] / diffs[1])
        last = (d_sq, step)
        d_sq = next((c for c in candidates if math.isfinite(c) and lo < c < hi), None)
        if d_sq is None:
            raise th.ConvergenceError("reference oracle bracket collapsed")
    raise th.ConvergenceError("reference oracle did not settle")


def _nested_reference_oracle(problem, opts):
    """``_reference_oracle`` started from the settled D and last secant of
    the same loop on a 10 times coarser grid, recursively, when that grid
    has at least 101 nodes and its loop settles; from ``u = u_a`` otherwise."""
    start = None
    coarse_n = (opts.grid_n - 1) // 10 + 1
    if coarse_n >= 101:
        try:
            _, *start = _nested_reference_oracle(problem, replace(opts, grid_n=coarse_n))
        except (th.ConvergenceError, th.SourcePositivityError):
            start = None
    return _reference_oracle(problem, opts, start)


def _plain_reference_oracle(problem, opts):
    """The plain substitution ``D <- D(traj(D))`` that ``oracle_solve`` ran
    before its secant loop."""
    denominator, trajectory, u = _reference_oracle_parts(problem, opts)
    d_sq = None
    for _ in range(opts.max_iter):
        new_d = denominator(u)
        if d_sq is not None and abs(new_d - d_sq) <= opts.tol_fp:
            return u
        d_sq = new_d
        u = trajectory(d_sq)
    raise AssertionError("plain reference oracle did not settle")


# the last two sources drive the outer loop off the secant step at n = 401
# and at n = 201: one to the bracket's midpoint once, the other to the plain
# step 12 times; at n = 2001 every first step is the coarse-slope secant
REFERENCE_SOURCES = pytest.mark.parametrize(
    "f",
    [
        th.parse_expr("t*(2 + sin(u))"),
        sin_offset_source,
        th.parse_expr("0.1 + 0.09*sin(3*u)"),
        th.parse_expr("1 + 0.9*sin(5*u)"),
    ],
    ids=["t*(2 + sin(u))", "sin_offset", "bisects", "plain-steps"],
)


class TestSolveOptions:
    def test_defaults(self):
        opts = th.SolveOptions()
        assert opts.damping == 1.0
        assert opts.tol_fp == 1e-10
        assert opts.max_iter == 200
        assert opts.grid_n == 101

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"damping": 0.0},
            {"damping": 1.5},
            {"tol_fp": 0.0},
            {"tol_fp": -1e-10},
            {"max_iter": 0},
            {"grid_n": 2},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            th.SolveOptions(**kwargs)

    @pytest.mark.parametrize(
        "name, value", [("max_iter", 2.5), ("max_iter", 200.0), ("grid_n", 51.0), ("grid_n", "51")]
    )
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            th.SolveOptions(**{name: value})

    def test_numpy_integers_are_counts(self):
        opts = th.SolveOptions(max_iter=np.int64(5), grid_n=np.int32(11))
        assert (opts.max_iter, opts.grid_n) == (5, 11)


class TestApplyK:
    def test_output_starts_at_u_a_bitwise(self):
        p = sin_problem()
        grid = p.grid(51)
        tube = th.Tube(th.GridFunction.constant(grid, p.u_a), th.GridFunction.constant(grid, 1.0))
        u = th.GridFunction(grid, 0.3 * np.sin(grid.nodes))
        out = th.apply_k(u, tube, p)
        assert float(out.values[0]) == p.u_a

    def test_factors_through_truncation_bitwise(self):
        p = sin_problem()
        grid = p.grid(51)
        tube = th.Tube(th.GridFunction.constant(grid, 0.1), th.GridFunction.constant(grid, 0.2))
        u = th.GridFunction(grid, 5.0 * np.cos(7.0 * grid.nodes))
        direct = th.apply_k(u, tube, p)
        projected = th.apply_k(th.truncate(u, tube), tube, p)
        assert np.array_equal(direct.values, projected.values)

    def test_grid_checks(self):
        p = sin_problem()
        tube = th.Tube(
            th.GridFunction.constant(p.grid(51), 0.1),
            th.GridFunction.constant(p.grid(51), 1.0),
        )
        stray = th.GridFunction.constant(p.grid(11), 0.1)
        with pytest.raises(ValueError):
            th.apply_k(stray, tube, p)
        off_interval = th.Tube(
            th.GridFunction.constant(th.Grid(1.0, 3.0, 51), 0.1),
            th.GridFunction.constant(th.Grid(1.0, 3.0, 51), 1.0),
        )
        with pytest.raises(ValueError):
            th.apply_k(th.GridFunction.constant(th.Grid(1.0, 3.0, 51), 0.1), off_interval, p)


class TestOdeResidual:
    def test_constant_iterate_has_unit_residual(self):
        # u = u_a constant: derivative 0, g = 1, so the residual is exactly 1
        p = constant_problem()
        u = th.GridFunction.constant(p.grid(101), p.u_a)
        assert th.ode_residual(u, p) == pytest.approx(1.0, rel=1e-13)

    def test_near_solution_residual_refines_at_second_order(self):
        p = ramp_problem()
        errs = []
        for n in (101, 201, 401):
            center = th.closed_form_center(p, p.grid(n))
            errs.append(th.ode_residual(center, p))
        assert errs[0] <= 1e-5
        orders = [math.log(errs[i] / errs[i + 1]) / math.log(2.0) for i in range(2)]
        assert min(orders) >= 1.8

    def test_detects_point_defects(self):
        p = constant_problem()
        grid = p.grid(101)
        bumped = u_star(grid).values.copy()
        bumped[50] += 1.0
        assert th.ode_residual(th.GridFunction(grid, bumped), p) >= 0.25 / grid.h

    def test_per_node_residual_is_derivative_minus_g(self):
        p = sin_problem()
        grid = p.grid(101)
        u = th.GridFunction(grid, 0.1 + 0.3 * (grid.nodes - 1.0) ** 2)
        g, residual = equation_residual(u, p)
        assert g.tobytes() == th.evaluate_g(p, u).values.tobytes()
        expected = th.conformable_derivative(u, p.alpha).values - g
        assert residual.tobytes() == expected.tobytes()
        assert th.ode_residual(u, p) == float(np.max(np.abs(residual[1:-1])))

    def test_unsampleable_source_gives_nan_not_an_error(self):
        # f = 1 - u is nonpositive at u = 2
        p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.5), 0.0, th.parse_expr("1 - u"))
        u = th.GridFunction.constant(p.grid(11), 2.0)
        g, residual = equation_residual(u, p)
        assert np.all(np.isnan(g)) and np.all(np.isnan(residual))
        assert math.isnan(th.ode_residual(u, p))


class TestPicardSolve:
    def test_constant_source_converges_immediately(self):
        # the rescaled right-hand side is linear in the weight exponent, so
        # the panel quadrature is exact and the first iterate is the
        # solution to rounding
        p = constant_problem()
        grid = p.grid(201)
        tube = th.Tube(u_star(grid), th.GridFunction.constant(grid, 0.5))
        report = th.picard_solve(p, tube, th.SolveOptions())
        assert report.converged
        assert report.iterations <= 3
        assert report.member_of_tube
        assert report.tube_report.valid
        exact_end = 2.0 * (math.sqrt(2.0) - 1.0)
        assert abs(float(report.u.values[-1]) - exact_end) <= 1e-10
        assert len(report.fp_residuals) == report.iterations
        assert report.fp_residuals[-1] <= 1e-10

    def test_pinched_tube_pins_iterates_to_center(self):
        p = constant_problem()
        grid = p.grid(201)
        tube = th.Tube(u_star(grid), th.GridFunction.constant(grid, 0.0))
        report = th.picard_solve(p, tube, th.SolveOptions())
        assert report.converged
        assert report.member_of_tube
        assert np.max(np.abs(report.u.values - u_star(grid).values)) <= 1e-10

    def test_invalid_tube_reports_but_still_solves(self):
        # an oversized constant-radius tube breaks the boundary condition;
        # the solve must proceed and report the verdict, without a warning
        p = ramp_problem()
        grid = p.grid(101)
        tube = th.Tube(th.GridFunction.constant(grid, 1.0), th.GridFunction.constant(grid, 3.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = th.picard_solve(p, tube, th.SolveOptions())
        assert caught == []
        assert not report.tube_report.valid
        assert report.converged
        assert report.member_of_tube
        assert report.iterations <= 40
        # undamped contraction: updates shrink geometrically
        resids = report.fp_residuals
        assert all(resids[i + 1] <= 0.7 * resids[i] for i in range(len(resids) - 1))

    def test_starved_budget_reports_without_raising(self):
        p = ramp_problem()
        grid = p.grid(101)
        tube = th.Tube(th.closed_form_center(p, grid), th.GridFunction.constant(grid, 0.4))
        report = th.picard_solve(p, tube, th.SolveOptions(max_iter=1))
        assert not report.converged
        assert report.iterations == 1

    def test_damping_still_converges(self):
        p = sin_problem()
        grid = p.grid(101)
        v = th.closed_form_center(p, grid)
        m = th.GridFunction(grid, 0.3 * np.exp((grid.nodes**0.7 - 1.0) / 0.7))
        tube = th.Tube(v, m)
        full = th.picard_solve(p, tube, th.SolveOptions())
        damped = th.picard_solve(p, tube, th.SolveOptions(damping=0.5))
        assert full.converged and damped.converged
        assert np.max(np.abs(full.u.values - damped.u.values)) <= 1e-8
        assert damped.iterations >= full.iterations

    def test_positivity_failure_mid_iteration_names_the_pass(self):
        # positive at the seed and on both sheets, but iterates climb
        # through the dead zone around u = 0.5
        f = th.parse_expr("(2*u - 1)^2 - 0.01")
        p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.5), 0.0, f)
        grid = p.grid(101)
        tube = th.Tube(th.GridFunction.constant(grid, 0.0), th.GridFunction.constant(grid, 1.0))
        with pytest.raises(th.SourcePositivityError) as exc:
            th.picard_solve(p, tube, th.SolveOptions())
        assert exc.value.iteration == 2
        assert str(exc.value).startswith("iteration 2: H1 violated")
        assert exc.value.node is not None

    def test_final_iterate_outside_the_positivity_region_is_reported(self):
        # exp(-u) is positive on the valid tube, but the third iterate is
        # never truncated and reaches u ~ 2767, where exp(-u) underflows to 0
        f = th.parse_expr("exp(-u)")
        p = th.ThermistorProblem(1.0, 2.0, 8.0, th.Alpha(1.0), 0.1, f)
        grid = p.grid(401)
        tube = th.Tube(th.closed_form_center(p, grid), th.GridFunction.constant(grid, 5.0))
        report = th.picard_solve(p, tube, th.SolveOptions(max_iter=3))
        assert report.tube_report.valid
        assert report.iterations == 3
        assert not report.converged and not report.member_of_tube
        assert math.isnan(report.ode_residual)

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("lam", [1.0, 8.0])
    def test_solution_refines_at_second_order(self, lam, alpha):
        # nested grids share the nodes of the coarsest one; the observed
        # order comes from the differences of successive solves there
        p = replace(sin_problem(), lam=lam, alpha=th.Alpha(alpha))
        coarse = []
        for n, stride in ((101, 1), (201, 2), (401, 4)):
            grid = p.grid(n)
            tube = th.Tube(th.closed_form_center(p, grid), th.GridFunction(grid, np.exp(grid.nodes - 1.0)))
            # the tube fails verification at lambda = 8; the solve still runs
            report = th.picard_solve(p, tube, th.SolveOptions())
            assert report.converged and report.member_of_tube
            coarse.append(report.u.values[::stride])
        e_coarse = np.max(np.abs(coarse[1] - coarse[0]))
        e_fine = np.max(np.abs(coarse[2] - coarse[1]))
        assert math.log2(e_coarse / e_fine) >= 1.8

    def test_tight_tube_clips_and_matches_uncached_apply_k_loop(self):
        # at lambda = 8 the first iterate stays inside this narrow tube and
        # every later one is clipped, so both truncate paths run in one solve
        p = replace(sin_problem(), lam=8.0)
        grid = p.grid(201)
        tube = th.Tube(th.closed_form_center(p, grid), th.GridFunction(grid, 0.02 * np.exp(grid.nodes - 1.0)))
        opts = th.SolveOptions()
        report = th.picard_solve(p, tube, opts)

        u = tube.v
        residuals = []
        passed_through = clipped = 0
        for _ in range(opts.max_iter):
            if th.truncate(u, tube) is u:
                passed_through += 1
            else:
                clipped += 1
            _plan.cache_clear()
            ku = th.apply_k(u, tube, p)
            nxt = (1.0 - opts.damping) * u.values + opts.damping * ku.values
            residuals.append(float(np.max(np.abs(nxt - u.values))))
            u = th.GridFunction(grid, nxt)
            if residuals[-1] <= opts.tol_fp:
                break
        assert passed_through >= 1 and clipped >= 1
        assert report.converged
        assert report.iterations == len(residuals)
        assert report.fp_residuals == residuals
        assert report.u.values.tobytes() == u.values.tobytes()

    def test_report_carries_bounds_diagnostics(self):
        p = constant_problem()
        grid = p.grid(101)
        tube = th.Tube(u_star(grid), th.GridFunction.constant(grid, 0.5))
        report = th.picard_solve(p, tube, th.SolveOptions())
        assert report.bounds == (1.0, 1.0, 1.0)
        assert report.ode_residual <= 1e-4


def _solve_fields(report):
    """Everything a solve reports, as values that compare bit for bit."""
    return (
        report.u.values.tobytes(),
        repr(report.fp_residuals),
        report.iterations,
        repr(report.ode_residual),
        report.member_of_tube,
        repr(report.bounds),
        repr(report.tube_report),
    )


def _sin_rows(alpha, n, rows):
    """``2 + sin(u)`` problems at one alpha, one per ``(lambda, scale)`` row,
    each with the closed-form center and the radius ``scale * exp(t - 1)``."""
    problems, tubes = [], []
    for lam, scale in rows:
        p = replace(sin_problem(), lam=lam, alpha=th.Alpha(alpha))
        grid = p.grid(n)
        problems.append(p)
        tubes.append(th.Tube(th.closed_form_center(p, grid), th.GridFunction(grid, scale * np.exp(grid.nodes - 1.0))))
    return problems, tubes


# lambda, and the scale of the radius exp(t - 1): at 0.02 the iterates of
# larger lambdas are clipped, at 1.0 none is
_ROWS = st.lists(st.tuples(st.floats(0.5, 8.0), st.sampled_from([1.0, 0.02])), min_size=1, max_size=5)


class TestPicardRows:
    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(0.3, 1.0),
        n=st.sampled_from([201, 2001]),
        damping=st.sampled_from([1.0, 0.5]),
        rows=_ROWS,
    )
    def test_each_row_equals_its_one_row_solve(self, alpha, n, damping, rows):
        problems, tubes = _sin_rows(alpha, n, rows)
        opts = th.SolveOptions(damping=damping)
        batch = _picard_rows(problems, tubes, opts)
        for p, tube, report in zip(problems, tubes, batch):
            assert _solve_fields(report) == _solve_fields(th.picard_solve(p, tube, opts))

    @pytest.mark.parametrize("n", [201, 2001])
    def test_rows_that_finish_and_clip_apart(self, n):
        # clipped rows (radius 0.02*exp(t - 1), lambda >= 2) and free ones
        # converge after 6, 7, 12 and 30 iterations; the order puts the
        # longest row first and last
        rows = [(8.0, 1.0), (8.0, 0.02), (0.5, 1.0), (2.0, 0.02), (8.0, 1.0)]
        problems, tubes = _sin_rows(0.7, n, rows)
        opts = th.SolveOptions()
        batch = _picard_rows(problems, tubes, opts)
        singles = [th.picard_solve(p, tube, opts) for p, tube in zip(problems, tubes)]
        assert [_solve_fields(r) for r in batch] == [_solve_fields(r) for r in singles]
        assert [r.iterations for r in batch] == [30, 6, 12, 7, 30]
        # a converged row whose last iterate lies outside its tube was clipped
        clipped = [th.truncate(r.u, tube) is not r.u for r, tube in zip(batch, tubes)]
        assert clipped == [False, True, False, True, False]

    def test_fine_grid_batch_of_three(self):
        problems, tubes = _sin_rows(0.3, 20001, [(8.0, 0.02), (0.5, 1.0), (8.0, 1.0)])
        opts = th.SolveOptions()
        batch = _picard_rows(problems, tubes, opts)
        for p, tube, report in zip(problems, tubes, batch):
            assert report.converged
            assert _solve_fields(report) == _solve_fields(th.picard_solve(p, tube, opts))

    def test_failing_rows_get_their_standalone_errors(self):
        # the dead zone of f around u = 0.5 is reached at iteration 7 for
        # lambda = 0.2 and at iteration 2 for lambda = 1; lambda = 0.01 stays
        # below it
        f = th.parse_expr("(2*u - 1)^2 - 0.01")
        problems = [th.ThermistorProblem(1.0, 2.0, lam, th.Alpha(0.5), 0.0, f) for lam in (0.2, 0.01, 1.0)]
        grid = problems[0].grid(101)
        tube = th.Tube(th.GridFunction.constant(grid, 0.0), th.GridFunction.constant(grid, 1.0))
        opts = th.SolveOptions()
        failed, solved, early = _picard_rows(problems, [tube] * 3, opts)
        for p, outcome in ((problems[0], failed), (problems[2], early)):
            with pytest.raises(th.SourcePositivityError) as alone:
                th.picard_solve(p, tube, opts)
            assert type(outcome) is type(alone.value)
            assert (str(outcome), outcome.node, outcome.iteration) == (
                str(alone.value), alone.value.node, alone.value.iteration
            )
        assert (failed.iteration, early.iteration) == (7, 2)
        assert _solve_fields(solved) == _solve_fields(th.picard_solve(problems[1], tube, opts))

    def test_a_step_that_only_warns_warns_for_its_row(self):
        # at lambda = 0.5 the second iterate reaches u ~ 1.5, where f is near
        # 1e307 at enough nodes for the trapezoid sum to overflow: numpy warns
        # and the integral is inf, which no check rejects; at lambda = 0.01
        # the iterates stay near u = 1
        f = th.parse_expr("1 + 1e308*(u*(2 - u)*(1 - u))^2")
        problems = [th.ThermistorProblem(1.0, 2.0, lam, th.Alpha(1.0), 1.0, f) for lam in (0.01, 0.5)]
        grid = problems[0].grid(101)
        tube = th.Tube(th.GridFunction.constant(grid, 1.0), th.GridFunction.constant(grid, 1.0))
        opts = th.SolveOptions()
        # under this suite's error::RuntimeWarning filter the warning is the outcome
        with pytest.raises(RuntimeWarning) as alone:
            th.picard_solve(problems[1], tube, opts)
        quiet, warned = _picard_rows(problems, [tube, tube], opts)
        assert type(warned) is RuntimeWarning
        assert str(warned) == str(alone.value) == "overflow encountered in reduce"
        assert _solve_fields(quiet) == _solve_fields(th.picard_solve(problems[0], tube, opts))

        def solve_recording(solve):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                reports = solve()
            return [_solve_fields(r) for r in reports], [str(w.message) for w in caught]

        batch = solve_recording(lambda: _picard_rows(problems, [tube, tube], opts))
        assert batch == solve_recording(lambda: [th.picard_solve(p, tube, opts) for p in problems])
        assert batch[1] == ["overflow encountered in reduce"]

    def test_one_row_passes_f_the_nodes_as_apply_k_does(self):
        # u[-1] is the last node of a row of nodes but the whole row of a
        # (1, n) array, so this f tells the two calls apart
        p = replace(sin_problem(), lam=2.0, f=lambda t, u: 2.0 + np.sin(u) + 0.25 * u[-1])
        grid = p.grid(201)
        tube = th.Tube(th.closed_form_center(p, grid), th.GridFunction(grid, np.exp(grid.nodes - 1.0)))
        opts = th.SolveOptions()
        report = th.picard_solve(p, tube, opts)

        u = tube.v
        residuals = []
        while len(residuals) < opts.max_iter:
            nxt = th.apply_k(u, tube, p)
            residuals.append(float(np.max(np.abs(nxt.values - u.values))))
            u = nxt
            if residuals[-1] <= opts.tol_fp:
                break
        assert report.converged
        assert report.fp_residuals == residuals
        assert report.u.values.tobytes() == u.values.tobytes()


class TestOracle:
    def test_matches_closed_form_on_constant_source(self):
        p = constant_problem()
        out = th.oracle_solve(p, th.SolveOptions(grid_n=401))
        exact = 2.0 * (np.sqrt(out.grid.nodes) - 1.0)
        assert np.max(np.abs(out.values - exact)) <= 1e-10

    def test_agrees_with_picard_on_u_dependent_source(self):
        p = sin_problem()
        opts = th.SolveOptions(grid_n=1001)
        reference = th.oracle_solve(p, opts)
        tube = th.Tube(reference, th.GridFunction.constant(reference.grid, 1.0))
        report = th.picard_solve(p, tube, opts)
        assert report.converged
        assert np.max(np.abs(report.u.values - reference.values)) <= 1e-6

    @REFERENCE_SOURCES
    def test_bit_identical_to_reference_loop(self, f):
        p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.6), 0.1, f)
        opts = th.SolveOptions(grid_n=401)
        out = th.oracle_solve(p, opts)
        assert out.values.tobytes() == _reference_oracle(p, opts)[0].tobytes()

    @REFERENCE_SOURCES
    def test_nested_start_bit_identical_to_reference_loop(self, f):
        # n = 2001 settles on n = 201 first and starts from its D and slope
        p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.6), 0.1, f)
        opts = th.SolveOptions(grid_n=2001)
        out = th.oracle_solve(p, opts)
        assert out.values.tobytes() == _nested_reference_oracle(p, opts)[0].tobytes()

    def test_rk4_stages_skip_the_expression_dispatch(self, monkeypatch):
        # the RK4 stages call the generated scalar function; Expr.__call__
        # sees only the array evaluation of each sample_source
        calls = collections.Counter()
        samples = []
        call = Expr.__call__

        def counting_call(e, t, u):
            calls["array" if isinstance(t, np.ndarray) or isinstance(u, np.ndarray) else "float"] += 1
            return call(e, t, u)

        def counting_sample_source(problem, u):
            samples.append(u.grid.n)
            return sample_source(problem, u)

        monkeypatch.setattr(Expr, "__call__", counting_call)
        monkeypatch.setattr(th.solver, "sample_source", counting_sample_source)
        p = replace(sin_problem(), f=th.parse_expr("2 + sin(u)"))
        out = th.oracle_solve(p, th.SolveOptions(grid_n=2001))
        assert calls["float"] == 0
        assert calls["array"] == len(samples) > 0
        assert set(samples) == {201, 2001}
        assert out.values.tobytes() == _nested_reference_oracle(p, th.SolveOptions(grid_n=2001))[0].tobytes()

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    @pytest.mark.parametrize("lam", [20.0, 40.0])
    def test_failed_coarse_solve_leaves_the_answer_unchanged(self, lam, alpha):
        # the coarse grid (n = 201) collapses its bracket here, so n = 2001
        # starts from the constant u_a
        f = th.parse_expr("0.01 + 0.005*sin(u)")
        p = th.ThermistorProblem(1.0, 2.0, lam, th.Alpha(alpha), 0.1, f)
        opts = th.SolveOptions(grid_n=2001)
        with pytest.raises(th.ConvergenceError, match="collapsed"):
            th.oracle_solve(p, replace(opts, grid_n=201))
        out = th.oracle_solve(p, opts)
        assert out.values.tobytes() == _reference_oracle(p, opts)[0].tobytes()

    def test_nested_start_halves_the_fine_grid_passes(self, monkeypatch):
        # each pass samples the source once, and so does each constant start
        counts = collections.Counter()

        def counting_sample_source(problem, u):
            counts[u.grid.n] += 1
            return sample_source(problem, u)

        monkeypatch.setattr(th.solver, "sample_source", counting_sample_source)
        corners = [
            replace(sin_problem(), lam=lam, alpha=th.Alpha(alpha))
            for lam in (0.5, 8.0)
            for alpha in (0.3, 1.0)
        ]
        opts = th.SolveOptions(grid_n=2001)
        nested = [th.oracle_solve(p, opts).values for p in corners]
        nested_fine = counts.pop(2001)
        assert set(counts) == {201}
        monkeypatch.setattr(th.solver, "_NEST_FLOOR", math.inf)
        counts.clear()
        constant = [th.oracle_solve(p, opts).values for p in corners]
        assert set(counts) == {2001}
        assert nested_fine <= 0.5 * (counts[2001] - len(corners))
        for u, v in zip(nested, constant):
            assert np.max(np.abs(u - v)) <= 1e-9

    @settings(max_examples=10, deadline=None)
    @given(lam=st.floats(0.5, 8.0), alpha=st.floats(0.3, 1.0))
    def test_nested_start_agrees_with_constant_start(self, lam, alpha):
        # n = 1001 is the smallest grid with a coarse level (n = 101)
        p = replace(sin_problem(), lam=lam, alpha=th.Alpha(alpha))
        opts = th.SolveOptions(grid_n=1001)
        out = th.oracle_solve(p, opts)
        assert np.max(np.abs(out.values - _reference_oracle(p, opts)[0])) <= 1e-9

    def test_nested_start_agrees_with_constant_start_when_f_is_close_to_zero(self):
        # D is about 7.6e-5 here; with the settle test absolute in D the two
        # starts return trajectories about 4e-5 apart
        f = th.parse_expr("0.01 + 0.005*sin(u)")
        p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.7), 0.1, f)
        opts = th.SolveOptions(grid_n=2001)
        out = th.oracle_solve(p, opts)
        assert np.max(np.abs(out.values - _reference_oracle(p, opts)[0])) <= 1e-7

    @settings(max_examples=25, deadline=None)
    @given(lam=st.floats(0.5, 8.0), alpha=st.floats(0.3, 1.0))
    def test_agrees_with_plain_substitution(self, lam, alpha):
        # the benchmark box; the two loops stop at different D within tol_fp
        p = replace(sin_problem(), lam=lam, alpha=th.Alpha(alpha))
        opts = th.SolveOptions(grid_n=201)
        out = th.oracle_solve(p, opts)
        assert np.max(np.abs(out.values - _plain_reference_oracle(p, opts))) <= 1e-9

    def test_converges_when_f_is_close_to_zero(self):
        # the plain substitution oscillates with growing amplitude here and
        # does not settle within 400 passes
        f = th.parse_expr("0.01 + 0.005*sin(u)")
        p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.7), 0.1, f)
        coarse = []
        for n, stride in ((401, 1), (801, 2), (1601, 4)):
            out = th.oracle_solve(p, th.SolveOptions(grid_n=n, max_iter=10))
            coarse.append(out.values[::stride])
        e_coarse = np.max(np.abs(coarse[1] - coarse[0]))
        e_fine = np.max(np.abs(coarse[2] - coarse[1]))
        assert math.log2(e_coarse / e_fine) >= 1.8

    def test_every_pass_is_checked(self):
        # with a constant source D never moves, so the first pass settles
        p = constant_problem()
        out = th.oracle_solve(p, th.SolveOptions(max_iter=1))
        assert out.values.tobytes() == th.oracle_solve(p, th.SolveOptions()).values.tobytes()

    def test_exhausted_outer_loop_raises(self):
        p = sin_problem()
        with pytest.raises(
            th.ConvergenceError, match=r"did not settle within 2 passes \(last D = \S+ gave D = \S+\)$"
        ):
            th.oracle_solve(p, th.SolveOptions(max_iter=2))

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    @pytest.mark.parametrize("lam", [20.0, 40.0])
    def test_collapsed_bracket_fails_fast(self, lam, alpha, monkeypatch):
        # the RK4 step is outside its stability region here (n = 201), so
        # D(traj(D)) jumps across its root and bisection runs out of floats
        # long before max_iter; each pass samples the source once, after
        # one sample of the constant start
        samples = []

        def counting_sample_source(*args):
            samples.append(args)
            return sample_source(*args)

        monkeypatch.setattr(th.solver, "sample_source", counting_sample_source)
        f = th.parse_expr("0.01 + 0.005*sin(u)")
        p = th.ThermistorProblem(1.0, 2.0, lam, th.Alpha(alpha), 0.1, f)
        with pytest.raises(th.ConvergenceError) as exc:
            th.oracle_solve(p, th.SolveOptions(grid_n=201, max_iter=100))
        passes = len(samples) - 1
        assert passes < 100
        m = re.fullmatch(
            r"oracle denominator bracket \((\S+), (\S+)\) collapsed after (\d+) passes without "
            r"settling; a larger grid_n is the likely remedy",
            str(exc.value),
        )
        assert m is not None, str(exc.value)
        lo, hi = float(m[1]), float(m[2])
        assert math.nextafter(lo, math.inf) == hi
        assert int(m[3]) == passes

    def test_coarse_denominator_overflow_leaves_the_fine_error(self, monkeypatch):
        # the coarse grid's (n = 201) integral of f overflows when squared;
        # that collapses its bracket without a RuntimeWarning, and the fine
        # grid's own error is the one raised
        f = th.parse_expr("1 + u^2")
        p = th.ThermistorProblem(1.0, 2.0, 1.76, th.Alpha(0.6), 0.1, f)
        opts = th.SolveOptions(grid_n=2001)
        with pytest.raises(th.ConvergenceError, match="collapsed"):
            th.solver._oracle_settle(p, 201, opts)
        with pytest.raises(th.EvalError) as nested:
            th.oracle_solve(p, opts)
        monkeypatch.setattr(th.solver, "_NEST_FLOOR", math.inf)
        with pytest.raises(th.EvalError) as constant:
            th.oracle_solve(p, opts)
        assert nested.value.span == constant.value.span == (4, 7)
        assert str(nested.value) == str(constant.value)

    def test_positivity_checked_along_trajectory(self):
        f = th.parse_expr("1 - u")
        p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.5), 2.0, f)
        with pytest.raises(th.SourcePositivityError):
            th.oracle_solve(p, th.SolveOptions())

    def test_positivity_failure_names_a_fine_grid_node(self):
        # f = 2 - t*u vanishes at t = 2 on u = u_a = 1, the last node of the
        # coarse grid (n = 201) and of the fine one (n = 2001)
        f = th.parse_expr("2 - t*u")
        p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.5), 1.0, f)
        opts = th.SolveOptions(grid_n=2001)
        with pytest.raises(th.SourcePositivityError) as exc:
            th.oracle_solve(p, opts)
        with pytest.raises(th.SourcePositivityError) as ref:
            _reference_oracle(p, opts)
        assert exc.value.node == 2000
        assert str(exc.value) == str(ref.value)
