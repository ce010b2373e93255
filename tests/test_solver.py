"""Fixed-point solver, equation residual, and the RK4 reference path."""

import collections
import functools
import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import thermistor as th
from thermistor.expressions import EvalError, Expr, _Body
from thermistor.linear import _plan
from thermistor.conformable import trapezoid
from thermistor.model import sample_source
from thermistor.solver import _RK4_PASS, _picard_rows, equation_residual

from conftest import constant_problem, ramp_problem, sin_offset_source, sin_problem, u_star
from test_expressions import _SCALARS, _reference_eval, _sources, _with_guard_test


def _reference_oracle_parts(problem, opts, numpy_d=False):
    """A function of no arguments that gives the start D, from ``u = u_a``,
    and the RK4 pass of ``oracle_solve`` written out, with expression sources
    evaluated by the reference tree walk instead of compiled.  ``rk4(D)`` gives the trajectory of a pass at the
    frozen D and the D of the pass's own samples of f: the squared trapezoid
    rule in Python floats over each step's stage-1 value and f at the last
    node, or over ``sample_source`` along the trajectory when a sample is not
    positive or that integral is not finite.

    With ``numpy_d``, the pass is the one ``oracle_solve`` ran before it took
    D from its samples: each stage's weight formed in place, the update
    ``h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0``, and every D, the start's
    too, from ``np.trapezoid`` of ``sample_source`` along the trajectory."""
    f = problem.f
    if isinstance(f, Expr):
        f = functools.partial(_reference_eval, f)
    grid = problem.grid(opts.grid_n)
    t, h = grid.nodes, grid.h
    al = problem.alpha.value
    sampled = replace(problem, f=f)

    def integral(samples):
        return h * (float(sum(samples)) - 0.5 * (float(samples[0]) + float(samples[-1])))

    def denominator(u):
        fv = sample_source(sampled, th.GridFunction(grid, u))
        value = np.trapezoid(fv, dx=h) if numpy_d else integral(fv.tolist())
        return float(value * value)

    def numpy_d_trajectory(d_sq):
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

    def rk4(d_sq):
        if numpy_d:
            u = numpy_d_trajectory(d_sq)
            return u, denominator(u)
        args = (t[:-1].tolist(), float(t[-1]), h, problem.lam / d_sq, al - 1.0, float(problem.u_a))
        traj, samples = _reference_rk4_pass(f, *args)
        u = np.array(traj)
        value = integral(samples)
        return u, value * value if min(samples) > 0.0 and math.isfinite(value) else denominator(u)

    return lambda: denominator(np.full(grid.n, problem.u_a)), rk4


def _reference_rk4_pass(f, starts, end, h, scale, exponent, yi):
    """One RK4 pass of ``u' = scale * t**exponent * f(t, u)`` from ``u = yi``
    over the steps that start at ``starts``, with the last node at ``end``:
    the trajectory, one float per node, and the samples of f along it, each
    step's stage-1 value and ``f(end, u(end))``.  A step's stage-4 weight is
    the next step's stage-1 weight, and the update is
    ``yi + h / 6.0 * (k1 + k4 + 2.0 * (k2 + k3))``."""
    traj, samples = [yi], []
    weight = scale * starts[0] ** exponent
    for ti in starts:
        te = ti + h
        w_mid, w_end = scale * (ti + 0.5 * h) ** exponent, scale * te**exponent
        samples.append(f(ti, yi))
        k1 = weight * samples[-1]
        k2 = w_mid * f(ti + 0.5 * h, yi + 0.5 * h * k1)
        k3 = w_mid * f(ti + 0.5 * h, yi + 0.5 * h * k2)
        k4 = w_end * f(te, yi + h * k3)
        yi = yi + h / 6.0 * (k1 + k4 + 2.0 * (k2 + k3))
        traj.append(yi)
        weight = w_end
    samples.append(f(end, yi))
    return traj, samples


def _reference_oracle(problem, opts, start=None, numpy_d=False):
    """The safeguarded secant loop of ``oracle_solve`` written out: the
    secant step if it is finite and strictly inside the sign bracket, else
    the plain step if that is, else the bracket's midpoint.

    Starts from ``u = u_a``, or from ``start = (D, (dD, dF))``: a frozen D
    and the differences behind a secant slope, which the first step uses.
    Returns the settled trajectory, its frozen D and the differences behind
    the last secant (``None`` if there was none).  ``numpy_d`` selects the
    pass of ``_reference_oracle_parts``."""
    start_d, rk4 = _reference_oracle_parts(problem, opts, numpy_d)
    d_sq, diffs = (start_d(), None) if start is None else start
    lo, hi = 0.0, math.inf
    last = None
    for _ in range(opts.max_iter):
        u, new_d = rk4(d_sq)
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


def _nested_reference_oracle(problem, opts, numpy_d=False):
    """``_reference_oracle``, with the pass that ``numpy_d`` selects, on the
    chain of grids 10, 50, 100, 500, ... times coarser with at least 21
    nodes, coarsest first, then on ``opts.grid_n`` nodes.

    A coarse level gets at most ``min(max_iter, 25)`` passes.  A level starts
    from ``u = u_a`` when the level below it raised anything or there is none;
    from the settled D and last secant of the level below when that level had no
    settled level below it; and otherwise from the same secant and the
    Richardson extrapolation of the settled D of the last two or three levels
    below, ``_reference_extrapolation``, unless that is not finite and
    positive."""
    n = opts.grid_n
    sizes = []
    scale = 10
    while (n - 1) // scale + 1 >= 21:
        sizes += [m for m in ((n - 1) // scale + 1, (n - 1) // (5 * scale) + 1) if m >= 21]
        scale *= 10
    below = []  # (spacing, D, secant differences) of the settled levels just below, finest first
    for m in sorted(sizes) + [n]:
        h = (problem.T - problem.a) / (m - 1)
        start = None
        if below:
            (_, d1, diffs), *_ = below
            start = (d1, diffs)
            d = _reference_extrapolation(h, [(h_i, d_i) for h_i, d_i, _ in below])
            if math.isfinite(d) and d > 0.0:
                start = (d, diffs)
        if m == n:
            return _reference_oracle(problem, opts, start, numpy_d)
        try:
            level = replace(opts, grid_n=m, max_iter=min(opts.max_iter, 25))
            _, d_sq, diffs = _reference_oracle(problem, level, start, numpy_d)
        except Exception:
            below = []
        else:
            below = [(h, d_sq, diffs), *below[:2]]


def _reference_extrapolation(h, settled):
    """The value at spacing ``h`` from the ``(h_i, D_i)`` of one to three
    settled levels, finest first: ``D1`` alone; ``r(D1, D2, h1, h2)`` with
    ``r(x1, x2, h1, h2) = x1 + (h**2 - h1**2) / (h1**2 - h2**2) * (x1 - x2)``,
    the Richardson extrapolation that cancels an O(h**2) error; and
    ``r(r(D1, D2, h1, h2), r(D2, D3, h2, h3), h1, h3)``, the step repeated,
    which cancels the O(h**4) error as well."""

    def r(x1, x2, h1, h2):
        return x1 + (h**2 - h1**2) / (h1**2 - h2**2) * (x1 - x2)

    if len(settled) == 1:
        return settled[0][1]
    if len(settled) == 2:
        (h1, d1), (h2, d2) = settled
        return r(d1, d2, h1, h2)
    (h1, d1), (h2, d2), (h3, d3) = settled
    return r(r(d1, d2, h1, h2), r(d2, d3, h2, h3), h1, h3)


def _plain_reference_oracle(problem, opts):
    """The plain substitution ``D <- D(traj(D))`` that ``oracle_solve`` ran
    before its secant loop."""
    start_d, rk4 = _reference_oracle_parts(problem, opts)
    new_d = start_d()
    u = d_sq = None
    for _ in range(opts.max_iter):
        if d_sq is not None and abs(new_d - d_sq) <= opts.tol_fp:
            return u
        d_sq = new_d
        u, new_d = rk4(d_sq)
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
        "name, value",
        [("max_iter", 2.5), ("max_iter", 200.0), ("max_iter", True), ("grid_n", 51.0), ("grid_n", "51"), ("grid_n", True)],
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


class TestUncheckedSource:
    # exp(1000*u) overflows at u = 1, and 1/inf masks it: without its checks
    # the array mode's value would be 2.0, but its guard sum is inf, so the
    # checks run and raise at exp
    MASKING = th.parse_expr("2 + 1/exp(1000*u)")
    MESSAGE = "evaluation error at bytes 6..17 ('exp(1000*u)'): exp left its domain or overflowed"

    def problem(self):
        return th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.5), 1.0, self.MASKING)

    def test_unguarded_value_would_pass(self):
        # with its guard's test forced to pass, the array mode returns 2.0;
        # the sum the test sees is inf, so the real test fails and raises
        seen = []
        unguarded = _with_guard_test(self.MASKING, lambda total: seen.append(total) or True)
        t = np.linspace(1.0, 2.0, 5)[None]
        with np.errstate(all="ignore"):
            value = unguarded(t, np.ones_like(t))
            with pytest.raises(EvalError) as raised:
                self.MASKING.array(t, np.ones_like(t))
        assert value.tolist() == [[2.0] * 5]
        assert seen == [math.inf]
        assert str(raised.value) == self.MESSAGE

    def test_unguarded_float_value_would_pass(self):
        # on floats exp(1000*u) is inf at u = inf, and 1/inf masks it to 2.0
        # unless the guard's test fails; at u = 1 exp raises, so the checks
        # run whatever the test says
        seen = []
        unguarded = _with_guard_test(self.MASKING, lambda total: seen.append(total) or True, "scalar")
        assert unguarded(1.0, math.inf) == 2.0
        assert seen == [math.inf]
        with pytest.raises(EvalError) as raised:
            self.MASKING.scalar(1.0, math.inf)
        assert str(raised.value) == "evaluation error at bytes 10..16 ('1000*u'): multiplication overflowed"
        with pytest.raises(EvalError) as raised:
            unguarded(1.0, 1.0)
        assert str(raised.value) == self.MESSAGE
        assert seen == [math.inf]

    def test_picard_step_raises_the_checked_error(self):
        p = self.problem()
        grid = p.grid(11)
        tube = th.Tube(th.GridFunction.constant(grid, 1.0), th.GridFunction.constant(grid, 0.5))
        with pytest.raises(EvalError) as raised:
            th.apply_k(tube.v, tube, p)
        assert str(raised.value) == self.MESSAGE
        v, m = tube.v.values[None], tube.M.values[None]
        (outcome,) = th.solver._iterate(p, grid, np.ones((1, 1)), v, m, v.copy(), th.SolveOptions())
        assert type(outcome) is EvalError and str(outcome) == self.MESSAGE

    def test_closed_form_center_raises_the_checked_error(self):
        p = self.problem()
        with pytest.raises(EvalError) as raised:
            th.closed_form_center(p, p.grid(11))
        assert str(raised.value) == self.MESSAGE


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

    def test_source_overflowing_on_the_band_gives_infinite_bounds_without_a_warning(self):
        # the solution stays near 0, but f overflows on the band near u = 7,
        # where only the bounds lattice samples it
        def f(t, u):
            return 1.0 + np.exp(800.0 * np.exp(-((u - 7.0) ** 2)))

        p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.5), 0.0, f)
        grid = p.grid(201)
        tube = th.Tube(th.GridFunction.constant(grid, 0.0), th.GridFunction.constant(grid, 15.0))
        report = th.picard_solve(p, tube, th.SolveOptions())
        assert report.converged
        assert report.bounds.f_max == report.bounds.g_sup == math.inf


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
        # lambda = 0.2 and at iteration 2 for lambda = 1; lambda = 0.01 and
        # 0.005 stay below it; at lambda = 1e308, lambda * f overflows on the
        # center -1 (f = 8.99) in the first step
        f = th.parse_expr("(2*u - 1)^2 - 0.01")
        problems = [th.ThermistorProblem(1.0, 2.0, lam, th.Alpha(0.5), 0.0, f) for lam in (0.2, 0.01, 1e308, 0.005, 1.0)]
        grid = problems[0].grid(101)
        tube = th.Tube(th.GridFunction.constant(grid, 0.0), th.GridFunction.constant(grid, 1.0))
        high = th.Tube(th.GridFunction.constant(grid, -1.0), th.GridFunction.constant(grid, 1.0))
        tubes = [tube, tube, high, tube, tube]
        opts = th.SolveOptions()
        failed, solved, overflowed, also_solved, early = _picard_rows(problems, tubes, opts)
        for p, row_tube, outcome in ((problems[0], tube, failed), (problems[2], high, overflowed), (problems[4], tube, early)):
            with pytest.raises(ValueError) as alone:
                th.picard_solve(p, row_tube, opts)
            assert type(outcome) is type(alone.value)
            assert str(outcome) == str(alone.value)
            if isinstance(outcome, th.SourcePositivityError):
                assert (outcome.node, outcome.iteration) == (alone.value.node, alone.value.iteration)
        assert (failed.iteration, early.iteration) == (7, 2)
        assert type(overflowed) is ValueError
        assert str(overflowed) == "evaluate_g: g = lambda*f/D**2 overflowed at node 0 (t=1.0)"
        assert _solve_fields(solved) == _solve_fields(th.picard_solve(problems[1], tube, opts))
        assert _solve_fields(also_solved) == _solve_fields(th.picard_solve(problems[3], tube, opts))

    def test_a_step_that_only_warns_warns_for_its_row(self):
        # at lambda = 0.5 the second iterate reaches u ~ 1.5, where f is near
        # 1e307 at enough nodes for the trapezoid sum to overflow; at both
        # lambdas the last iterates lie near u = 1, where f ~ 1e285 and D**2
        # overflows.  Either way g is exactly 0 there, and nothing warns
        f = th.parse_expr("1 + 1e308*(u*(2 - u)*(1 - u))^2")
        problems = [th.ThermistorProblem(1.0, 2.0, lam, th.Alpha(1.0), 1.0, f) for lam in (0.01, 0.5)]
        grid = problems[0].grid(101)
        tube = th.Tube(th.GridFunction.constant(grid, 1.0), th.GridFunction.constant(grid, 1.0))
        opts = th.SolveOptions()

        def solve_recording(solve):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                reports = solve()
            return [_solve_fields(r) for r in reports], [str(w.message) for w in caught]

        batch = solve_recording(lambda: _picard_rows(problems, [tube, tube], opts))
        assert batch == solve_recording(lambda: [th.picard_solve(p, tube, opts) for p in problems])
        assert batch[1] == []
        # the sums at u = 1.5 and near u = 1 overflow, D itself at u = 1.5
        reports = _picard_rows(problems, [tube, tube], opts)
        for u in [th.GridFunction.constant(grid, 1.5)] + [r.u for r in reports]:
            with np.errstate(over="ignore"):
                integral = trapezoid(sample_source(problems[1], u), grid.h)
            assert integral * integral == math.inf
            assert th.evaluate_g(problems[1], u).values.tolist() == [0.0] * grid.n


def _reference_loop(problem, tube, level, start, opts):
    """The damped ``apply_k`` loop on ``level``, in the tube's ``np.interp``
    onto it (the tube itself on its own grid), from ``start`` or, if that is
    None, from the center.  Returns the last iterate and the update norms."""
    grid = tube.grid

    def restrict(w):
        return th.GridFunction(level, np.interp(level.nodes, grid.nodes, w.values))

    level_tube = tube if level == grid else th.Tube(restrict(tube.v), restrict(tube.M))
    u = th.GridFunction(level, level_tube.v.values if start is None else start)
    residuals = []
    while len(residuals) < opts.max_iter:
        ku = th.apply_k(u, level_tube, problem)
        nxt = (1.0 - opts.damping) * u.values + opts.damping * ku.values
        residuals.append(float(np.max(np.abs(nxt - u.values))))
        u = th.GridFunction(level, nxt)
        if residuals[-1] <= opts.tol_fp:
            break
    return u.values, residuals


def _nested_levels(grid):
    """The two coarse levels of a nested solve on ``grid`` (10001 <= n < 100001),
    the grids 10 and 100 times coarser."""
    mid = th.Grid(grid.a, grid.T, (grid.n - 1) // 10 + 1)
    coarse = th.Grid(grid.a, grid.T, (mid.n - 1) // 10 + 1)
    assert (coarse.n - 1) // 10 + 1 < 101 <= coarse.n
    return mid, coarse


def _nested_reference_picard(problem, tube, opts):
    """``picard_solve``'s nested start written out for two coarse levels
    (10001 <= n < 100001): the damped ``apply_k`` loop on the tube's
    ``np.interp`` onto the grid 100 times coarser, from its center; then on
    the grid 10 times coarser, from that iterate prolonged by ``np.interp``;
    then on the tube's grid, from the Richardson extrapolation of the two,
    prolonged.  Both coarse loops must converge.  Returns the last iterate
    and the update norms on the tube's grid."""
    grid = tube.grid
    mid, coarse = _nested_levels(grid)
    u2, residuals = _reference_loop(problem, tube, coarse, None, opts)
    assert residuals[-1] <= opts.tol_fp
    u2 = np.interp(mid.nodes, coarse.nodes, u2)
    u1, residuals = _reference_loop(problem, tube, mid, u2, opts)
    assert residuals[-1] <= opts.tol_fp
    c = (grid.h**2 - mid.h**2) / (mid.h**2 - coarse.h**2)
    u, residuals = _reference_loop(problem, tube, grid, np.interp(grid.nodes, mid.nodes, u1 + c * (u1 - u2)), opts)
    return th.GridFunction(grid, u), residuals


def _sin_corners(n):
    """The box corners lambda in {0.5, 8} x alpha in {0.3, 1} of the ``2 + sin(u)``
    family, with the closed-form center and the radius ``exp(t - 1)``."""
    return [_sin_rows(alpha, n, [(lam, 1.0)]) for lam in (0.5, 8.0) for alpha in (0.3, 1.0)]


def _outcome(result):
    """A report's fields, or an exception's type, message, node and iteration."""
    if isinstance(result, Exception):
        return type(result), str(result), result.node, result.iteration
    return _solve_fields(result)


def _solve_or_error(problem, tube, opts):
    try:
        return th.picard_solve(problem, tube, opts)
    except th.SourcePositivityError as err:
        return err


class TestNestedStart:
    @pytest.mark.parametrize(
        "floor, n, sizes",
        [
            (101, 9991, [1000]),
            (101, 10001, [101, 1001]),
            (101, 12346, [124, 1235]),
            (101, 20001, [201, 2001]),
            (101, 100001, [101, 1001, 10001]),
            (21, 101, []),
            (21, 201, [21]),
            (21, 1001, [21, 101]),
            (21, 2001, [21, 41, 201]),
            (21, 20001, [21, 41, 201, 401, 2001]),
            (21, 401, [41]),
        ],
    )
    def test_levels_of_a_grid(self, floor, n, sizes):
        # floor 101 is picard_solve's ladder, the grids 10, 100, ... times
        # coarser; floor 21 the oracle's, 10, 50, 100, 500, ... times coarser
        divisors = {101: th.solver._PICARD_DIVISORS, 21: th.solver._ORACLE_DIVISORS}[floor]
        grid = th.Grid(1.0, 2.0, n)
        levels = th.solver._levels(grid, floor, divisors)
        assert [level.n for level in levels] == sizes
        assert all((level.a, level.T) == (grid.a, grid.T) for level in levels)

    @pytest.mark.parametrize("damping", [1.0, 0.5])
    def test_bit_identical_to_reference_loop(self, damping):
        problems, tubes = _sin_rows(0.6, 10001, [(4.0, 1.0)])
        opts = th.SolveOptions(damping=damping)
        report = th.picard_solve(problems[0], tubes[0], opts)
        u, residuals = _nested_reference_picard(problems[0], tubes[0], opts)
        assert report.converged
        assert report.fp_residuals == residuals
        assert report.u.values.tobytes() == u.values.tobytes()

    def test_halves_the_fine_iterations(self, monkeypatch):
        opts = th.SolveOptions()
        nested = [th.picard_solve(p, tube, opts) for (p,), (tube,) in _sin_corners(20001)]
        monkeypatch.setattr(th.solver, "_PICARD_NEST_FLOOR", math.inf)
        plain = [th.picard_solve(p, tube, opts) for (p,), (tube,) in _sin_corners(20001)]
        assert sum(r.iterations for r in nested) <= 0.5 * sum(r.iterations for r in plain)
        for a, b in zip(nested, plain):
            assert np.max(np.abs(a.u.values - b.u.values)) <= 1e-9
            assert (a.converged, a.member_of_tube) == (b.converged, b.member_of_tube) == (True, True)

    @pytest.mark.parametrize("n, most", [(20001, 2), (12346, 3)])
    def test_few_fine_iterations_from_the_extrapolated_start(self, n, most, monkeypatch):
        # the corners measured 2, 2, 2, 2 fine iterations at 20001 nodes and
        # 2, 2, 2, 3 at 12346, whose levels (1235 and 124 nodes) lie off the
        # fine nodes; from the plain start they take 12 to 45
        opts = th.SolveOptions()
        nested = [th.picard_solve(p, tube, opts) for (p,), (tube,) in _sin_corners(n)]
        monkeypatch.setattr(th.solver, "_PICARD_NEST_FLOOR", math.inf)
        plain = [th.picard_solve(p, tube, opts) for (p,), (tube,) in _sin_corners(n)]
        assert max(r.iterations for r in nested) <= most
        for a, b in zip(nested, plain):
            assert np.max(np.abs(a.u.values - b.u.values)) <= 1e-9
            assert (a.converged, a.member_of_tube) == (b.converged, b.member_of_tube) == (True, True)

    def test_batch_rows_equal_their_standalone_solves(self):
        # the rows measured 3, 2 and 3 fine iterations; from the plain
        # start they take 6, 12 and 21
        problems, tubes = _sin_rows(0.3, 10001, [(8.0, 0.02), (0.5, 1.0), (8.0, 1.0)])
        opts = th.SolveOptions()
        batch = [_solve_fields(r) for r in _picard_rows(problems, tubes, opts)]
        alone = [th.picard_solve(p, tube, opts) for p, tube in zip(problems, tubes)]
        assert batch == [_solve_fields(r) for r in alone]
        assert max(r.iterations for r in alone) <= 3

    @pytest.mark.parametrize("failing", ["coarse", "mid"])
    def test_a_level_that_fails_drops_only_its_own_iterate(self, failing):
        # f turns negative only within 1e-9 of one node of the failing level,
        # which no node of the other two grids comes near, so only that
        # level's loop raises: with the coarse level gone the fine grid starts
        # from the middle iterate alone, with the middle one gone from v
        problems, tubes = _sin_rows(0.3, 12346, [(0.5, 1.0), (8.0, 1.0)])
        grid = tubes[0].grid
        mid, coarse = _nested_levels(grid)
        level = {"coarse": coarse, "mid": mid}[failing]
        others = np.concatenate([g.nodes for g in (grid, mid, coarse) if g != level])
        spots = level.nodes[1:-1]
        gaps = np.min(np.abs(spots[:, None] - others[None, :]), axis=1)
        spot = spots[np.argmax(gaps)]
        assert gaps.max() > 1e-6

        def f(t, u):
            return 2.0 + np.sin(u) - 4.0 * (np.abs(t - spot) < 1e-9)

        problems = [replace(p, f=f) for p in problems]
        opts = th.SolveOptions()
        batch = [_solve_fields(r) for r in _picard_rows(problems, tubes, opts)]
        alone = [th.picard_solve(p, tube, opts) for p, tube in zip(problems, tubes)]
        assert batch == [_solve_fields(r) for r in alone]
        for p, tube, report in zip(problems, tubes, alone):
            if failing == "coarse":
                with pytest.raises(th.SourcePositivityError):
                    _reference_loop(p, tube, coarse, None, opts)
                u1, residuals = _reference_loop(p, tube, mid, None, opts)
                assert residuals[-1] <= opts.tol_fp
                start = np.interp(grid.nodes, mid.nodes, u1)
            else:
                u2, residuals = _reference_loop(p, tube, coarse, None, opts)
                assert residuals[-1] <= opts.tol_fp
                with pytest.raises(th.SourcePositivityError):
                    _reference_loop(p, tube, mid, np.interp(mid.nodes, coarse.nodes, u2), opts)
                start = None
            u, residuals = _reference_loop(p, tube, grid, start, opts)
            assert report.converged
            assert report.fp_residuals == residuals
            assert report.u.values.tobytes() == u.tobytes()

    def test_failing_coarse_rows_start_from_the_center(self, monkeypatch, capsys):
        # the dead zone of f around u = 0.5 is reached at iteration 7 for
        # lambda = 0.2 and at iteration 2 for lambda = 1; lambda = 0.01 stays
        # below it
        f = th.parse_expr("(2*u - 1)^2 - 0.01")
        problems = [th.ThermistorProblem(1.0, 2.0, lam, th.Alpha(0.5), 0.0, f) for lam in (0.2, 0.01, 1.0)]
        grid = problems[0].grid(10001)
        tube = th.Tube(th.GridFunction.constant(grid, 0.0), th.GridFunction.constant(grid, 1.0))
        opts = th.SolveOptions()

        def solve_all():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outcomes = [_outcome(_solve_or_error(p, tube, opts)) for p in problems]
                batch = [_outcome(r) for r in _picard_rows(problems, [tube] * 3, opts)]
            return outcomes, batch, [str(w.message) for w in caught], capsys.readouterr()

        nested, nested_batch, nested_warned, nested_out = solve_all()
        monkeypatch.setattr(th.solver, "_PICARD_NEST_FLOOR", math.inf)
        plain, _, plain_warned, plain_out = solve_all()
        failed, solved, early = nested
        assert (failed[0], failed[3], early[3]) == (th.SourcePositivityError, 7, 2)
        assert [failed, early] == [plain[0], plain[2]]
        assert solved[2] < plain[1][2]  # iterations: the row below the dead zone nests
        assert nested_batch == nested
        assert nested_warned == plain_warned == []
        assert nested_out == plain_out == ("", "")

    def test_a_coarse_row_that_only_warns_is_quiet(self, monkeypatch, capsys):
        # the overflowing source of test_a_step_that_only_warns_warns_for_its_row:
        # g is 0 where the integral of f overflows, so the coarse row settles
        # and the fine loop starts from it, quietly
        f = th.parse_expr("1 + 1e308*(u*(2 - u)*(1 - u))^2")
        p = th.ThermistorProblem(1.0, 2.0, 0.5, th.Alpha(1.0), 1.0, f)
        grid = p.grid(10001)
        tube = th.Tube(th.GridFunction.constant(grid, 1.0), th.GridFunction.constant(grid, 1.0))
        opts = th.SolveOptions()

        def solve():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = th.picard_solve(p, tube, opts)
            assert caught == []
            assert capsys.readouterr() == ("", "")
            return report

        nested = solve()
        monkeypatch.setattr(th.solver, "_PICARD_NEST_FLOOR", math.inf)
        plain = solve()
        assert nested.iterations < plain.iterations
        assert (nested.converged, nested.member_of_tube) == (plain.converged, plain.member_of_tube) == (True, True)
        assert np.max(np.abs(nested.u.values - plain.u.values)) <= opts.tol_fp

    def test_a_source_that_overflows_on_one_level_only_is_quiet(self, monkeypatch, capsys):
        # c = 1.1219999999999999 is a node of the 1001-node level of a
        # 10001-node solve on [1, 2], and of neither other grid: there the
        # division by (t - c)^2 = 0 overflows, and an ulp away the term is
        # below 1e-268.  The source's array mode runs in the errstate that
        # _iterate enters once for its whole loop, so the level ends with the
        # node's EvalError, the fine grid starts from v, and nothing warns
        c = 1.1219999999999999
        f = th.parse_expr(f"2 + sin(u) + 1e-300/(t - {c!r})^2")
        problems, tubes = _sin_rows(0.7, 10001, [(1.0, 1.0)])
        mid, coarse = _nested_levels(tubes[0].grid)
        assert c in mid.nodes and c not in coarse.nodes and c not in tubes[0].grid.nodes
        outcomes = {}
        iterate = th.solver._iterate

        def recording(problem, grid, *args):
            outcomes[grid.n] = iterate(problem, grid, *args)
            return outcomes[grid.n]

        monkeypatch.setattr(th.solver, "_iterate", recording)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = th.picard_solve(replace(problems[0], f=f), tubes[0], th.SolveOptions())
        assert caught == []
        assert capsys.readouterr() == ("", "")
        (failed,) = outcomes[mid.n]
        assert type(failed) is EvalError and str(failed).endswith("division by zero or overflow")
        assert outcomes[coarse.n][0][2] and report.converged and report.member_of_tube

    def test_unconverged_coarse_rows_start_from_the_center(self, monkeypatch):
        # at lambda = 8 and alpha = 1 the loop needs about 45 iterations on
        # either grid, so five leave both levels unconverged
        problems, tubes = _sin_rows(1.0, 10001, [(8.0, 1.0), (8.0, 0.02)])
        opts = th.SolveOptions(max_iter=5)
        nested = _picard_rows(problems, tubes, opts)
        monkeypatch.setattr(th.solver, "_PICARD_NEST_FLOOR", math.inf)
        plain = _picard_rows(problems, tubes, opts)
        assert [_solve_fields(r) for r in nested] == [_solve_fields(r) for r in plain]
        assert [(r.converged, r.iterations) for r in nested] == [(False, 5)] * 2

    def test_a_row_that_fails_verification_keeps_the_others_in_place(self, monkeypatch):
        # the first row's center -100 is where f < 0, so verify_tube raises
        # for it; the others run each level, coarsest first, as one array
        def f(t, u):
            return np.where(u < -50.0, -1.0, 2.0 + np.sin(u))

        problems, tubes = _sin_rows(0.5, 10001, [(1.0, 1.0), (0.5, 1.0), (8.0, 0.02), (2.0, 1.0)])
        problems = [replace(p, f=f) for p in problems]
        grid = tubes[0].grid
        tubes[0] = th.Tube(th.GridFunction.constant(grid, -100.0), tubes[0].M)
        opts = th.SolveOptions()
        calls = []
        iterate = th.solver._iterate

        def counting(problem, grid, lam, v, m, u, opts):
            calls.append((grid.n, lam[:, 0].tolist()))
            return iterate(problem, grid, lam, v, m, u, opts)

        monkeypatch.setattr(th.solver, "_iterate", counting)
        batch = [_outcome(r) for r in _picard_rows(problems, tubes, opts)]
        assert calls == [(n, [0.5, 8.0, 2.0]) for n in (101, 1001, 10001)]
        alone = [_outcome(_solve_or_error(p, tube, opts)) for p, tube in zip(problems, tubes)]
        assert batch == alone
        assert batch[0][0] is th.SourcePositivityError
        assert all(isinstance(outcome[0], bytes) for outcome in batch[1:])

    def test_a_radius_restricted_below_zero_is_clamped(self, monkeypatch):
        # a radius of 1.2 * h * (largest float) at the node before a zero
        # keeps its central difference finite, but np.interp's slope
        # overflows there and a coarse node just left of the zero gets -inf;
        # the clamp gives it radius 0 instead of a projection that never ends
        problems, tubes = _sin_rows(0.5, 10001, [(1.0, 1.0), (2.0, 1.0)])
        grid = tubes[0].grid
        mid, _ = _nested_levels(grid)
        k = next(k for k in range(1, mid.n - 1) if mid.nodes[k] < grid.nodes[10 * k])
        m = np.exp(grid.nodes - 1.0)
        m[10 * k - 1], m[10 * k] = 1.2 * grid.h * np.finfo(float).max, 0.0
        assert np.interp(mid.nodes, grid.nodes, m)[k] == -math.inf
        tubes[0] = th.Tube(tubes[0].v, th.GridFunction(grid, m))
        opts = th.SolveOptions()
        batch = _picard_rows(problems, tubes, opts)
        alone = [th.picard_solve(p, tube, opts) for p, tube in zip(problems, tubes)]
        assert [_solve_fields(r) for r in batch] == [_solve_fields(r) for r in alone]
        monkeypatch.setattr(th.solver, "_PICARD_NEST_FLOOR", math.inf)
        plain = th.picard_solve(problems[0], tubes[0], opts)
        assert alone[0].converged and plain.converged
        assert np.max(np.abs(alone[0].u.values - plain.u.values)) <= 1e-9

    def test_below_the_floor_is_unchanged(self, monkeypatch):
        problems, tubes = _sin_rows(0.3, 9991, [(8.0, 0.02), (0.5, 1.0), (8.0, 1.0)])
        opts = th.SolveOptions()
        nested = [_solve_fields(r) for r in _picard_rows(problems, tubes, opts)]
        monkeypatch.setattr(th.solver, "_PICARD_NEST_FLOOR", math.inf)
        assert nested == [_solve_fields(r) for r in _picard_rows(problems, tubes, opts)]


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
    def test_bit_identical_to_reference_loop(self, f, monkeypatch):
        # n = 401 nests on n = 41; without the coarse level the loop starts
        # from the constant u_a and takes the midpoint and plain steps
        monkeypatch.setattr(th.solver, "_NEST_FLOOR", math.inf)
        p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.6), 0.1, f)
        opts = th.SolveOptions(grid_n=401)
        out = th.oracle_solve(p, opts)
        assert out.values.tobytes() == _reference_oracle(p, opts)[0].tobytes()

    @REFERENCE_SOURCES
    def test_nested_start_bit_identical_to_reference_loop(self, f):
        # n = 2001 settles on n = 21, 41 and 201, and starts from the
        # extrapolated D of the three and the last slope of n = 201
        p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.6), 0.1, f)
        opts = th.SolveOptions(grid_n=2001)
        out = th.oracle_solve(p, opts)
        assert out.values.tobytes() == _nested_reference_oracle(p, opts)[0].tobytes()

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    @pytest.mark.parametrize("lam", [0.5, 8.0])
    def test_agrees_with_the_numpy_d_loop(self, lam, alpha):
        # D from the pass's own samples moves the answer by rounding only
        p = replace(sin_problem(), lam=lam, alpha=th.Alpha(alpha))
        opts = th.SolveOptions(grid_n=2001)
        out = th.oracle_solve(p, opts)
        assert np.max(np.abs(out.values - _nested_reference_oracle(p, opts, numpy_d=True)[0])) <= 1e-12

    @staticmethod
    def _bad_sample_error(bad, node, reference, every_u=False):
        """The SourcePositivityError of ``oracle_solve`` at n = 2001 on [1, 2.2]
        for ``f = 2 + sin(u)``, but ``bad`` at the ``node``-th time off the
        constant start ``u = u_a`` (for every ``u`` with ``every_u``), so that
        an RK4 pass's own sample sees it first.  It must name the node, say
        what the ``reference`` loop says, which takes f along the trajectory
        again by ``sample_source``, and take no such sample itself: every
        ``sample_source`` call is along a constant start."""
        grid = th.Grid(1.0, 2.2, 2001)
        t_bad = float(grid.nodes[node])

        def source(t, u):
            at_bad = (np.asarray(t) == t_bad) & (every_u | (np.asarray(u) != 0.1))
            with np.errstate(invalid="ignore"):  # sin(inf) after a coarse stage 4 at t = 2.2
                return np.where(at_bad, bad, sin_offset_source(t, u))

        p = th.ThermistorProblem(1.0, 2.2, 1.0, th.Alpha(0.6), 0.1, source)
        opts = th.SolveOptions(grid_n=2001)
        with pytest.raises(th.SourcePositivityError) as expected:
            reference(p, opts)
        along = []
        sample = th.solver.sample_source

        def recording_sample(problem, u):
            along.append(set(u.values.tolist()))
            return sample(problem, u)

        with pytest.MonkeyPatch.context() as patch, pytest.raises(th.SourcePositivityError) as exc:
            patch.setattr(th.solver, "sample_source", recording_sample)
            th.oracle_solve(p, opts)
        assert exc.value.node == node
        assert str(exc.value) == str(expected.value)
        assert along and all(values == {p.u_a} for values in along)
        return str(exc.value)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_a_source_bad_only_at_the_last_node_names_it(self, bad):
        # only a pass's last sample, f(T, u(T)), sees the bad value: on
        # [1, 2.2] the last step's stage 4 is at t = 2.1999999999999997; every
        # coarse level fails there too, so n = 2001 starts from u = u_a
        grid = th.Grid(1.0, 2.2, 2001)
        assert grid.nodes[-2] + grid.h != grid.nodes[-1] == 2.2
        message = self._bad_sample_error(bad, 2000, _reference_oracle)
        fault = "overflowed" if bad == math.inf else "must be strictly positive"
        assert message.startswith(f"H1 violated: f(t, u) {fault}, got f(2.2, ")
        assert message.endswith(f") = {bad!r} at node 2000")

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_a_source_bad_only_at_a_middle_node_names_it(self, bad):
        # only the stage-1 sample of node 1004 sees the bad value: the stage 4
        # of the step before it ends just off that node, and no coarse level
        # has a node there; an inf or NaN stage would overflow the trajectory.
        # Bad for every u, it is still first seen by the fine grid's first
        # pass: that grid starts from the settled coarse D, not from u = u_a
        grid = th.Grid(1.0, 2.2, 2001)
        assert grid.nodes[1003] + grid.h != grid.nodes[1004]
        for every_u in (False, True):
            message = self._bad_sample_error(bad, 1004, _nested_reference_oracle, every_u)
            assert message.startswith(f"H1 violated: f(t, u) must be strictly positive, got f({float(grid.nodes[1004])!r}, ")
            assert message.endswith(f") = {bad!r} at node 1004")
            assert ", 0.1) = " not in message

    @pytest.mark.parametrize(
        "f, lam, alpha, constant_starts",
        [
            (sin_offset_source, 1.0, 0.7, [21]),
            (th.parse_expr("0.01 + 0.005*sin(u)"), 1.0, 0.7, [21, 41]),
            (th.parse_expr("0.01 + 0.005*sin(u)"), 20.0, 0.3, [21, 41, 201, 2001]),
        ],
        ids=["all-settle", "coarsest-fails", "all-coarse-fail"],
    )
    def test_sample_source_is_called_once_per_constant_start(self, f, lam, alpha, constant_starts, monkeypatch):
        # a level with no settled level below starts from u = u_a; the
        # benchmark counts the oracle's passes by these sample_source calls
        p = th.ThermistorProblem(1.0, 2.0, lam, th.Alpha(alpha), 0.1, f)
        starts, sampled = [], []
        settle, sample = th.solver._oracle_settle, th.solver.sample_source

        def recording_settle(problem, grid, max_iter, opts, below, slope):
            if not below:
                starts.append(grid.n)
            return settle(problem, grid, max_iter, opts, below, slope)

        def recording_sample(problem, u):
            sampled.append(u.grid.n)
            return sample(problem, u)

        monkeypatch.setattr(th.solver, "_oracle_settle", recording_settle)
        monkeypatch.setattr(th.solver, "sample_source", recording_sample)
        th.oracle_solve(p, th.SolveOptions(grid_n=2001))
        assert starts == constant_starts
        assert sampled == starts

    def test_rk4_stages_skip_the_expression_dispatch(self, monkeypatch, rk4_passes):
        # the RK4 passes inline f and take D from their own samples; the
        # generated functions see only the array evaluation of the one
        # constant start, on the 21-node level
        calls = collections.Counter()

        def counting(mode, generated):
            def fn(e):
                run = generated.fget(e)

                def counted(t, u):
                    calls[mode] += 1
                    return run(t, u)

                return counted

            return property(fn)

        for mode in ("scalar", "array"):
            monkeypatch.setattr(Expr, mode, counting(mode, Expr.__dict__[mode]))
        p = replace(sin_problem(), f=th.parse_expr("2 + sin(u)"))
        out = th.oracle_solve(p, th.SolveOptions(grid_n=2001))
        assert calls["scalar"] == 0
        assert calls["array"] == 1
        assert set(rk4_passes) == {21, 41, 201, 2001}
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

    @pytest.mark.parametrize("singular", ["1.1500000000000001", "1.4000000000000001", "1.6500000000000001"])
    def test_a_coarse_level_that_raises_anything_settles_nothing(self, singular):
        # 1/(t - singular) divides by zero only at a stage time of the 21-node
        # level, which no 2001-node pass takes, so only that level raises:
        # an EvalError from the expression, ZeroDivisionError from the callable
        t_bad = float(singular)
        expr = th.parse_expr(f"2 + 0*(1/(t - {singular}))")

        def plain(t, u):
            return 2.0 + 0.0 * (1.0 / (t - t_bad))

        opts = th.SolveOptions(grid_n=2001)
        for alpha in (0.3, 0.7, 1.0):
            p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(alpha), 0.1, th.parse_expr("2"))
            with pytest.raises(EvalError, match="division by zero"):
                th.oracle_solve(replace(p, f=expr), replace(opts, grid_n=21))
            with pytest.raises(ZeroDivisionError):
                th.oracle_solve(replace(p, f=plain), replace(opts, grid_n=21))
            want = th.oracle_solve(p, opts).values.tobytes()
            for f in (expr, plain):
                assert th.oracle_solve(replace(p, f=f), opts).values.tobytes() == want
                assert _nested_reference_oracle(replace(p, f=f), opts)[0].tobytes() == want

    def test_nested_start_halves_the_fine_grid_passes(self, monkeypatch, rk4_passes):
        counts = rk4_passes
        corners = [
            replace(sin_problem(), lam=lam, alpha=th.Alpha(alpha))
            for lam in (0.5, 8.0)
            for alpha in (0.3, 1.0)
        ]
        opts = th.SolveOptions(grid_n=2001)
        nested = [th.oracle_solve(p, opts).values for p in corners]
        nested_fine = counts.pop(2001)
        assert set(counts) == {21, 41, 201}
        monkeypatch.setattr(th.solver, "_NEST_FLOOR", math.inf)
        counts.clear()
        constant = [th.oracle_solve(p, opts).values for p in corners]
        assert set(counts) == {2001}
        # measured: 5 fine passes nested (7 from two levels), 30 from u_a
        assert nested_fine <= 0.25 * counts[2001]
        for u, v in zip(nested, constant):
            assert np.max(np.abs(u - v)) <= 1e-9

    @settings(max_examples=10, deadline=None)
    @given(lam=st.floats(0.5, 8.0), alpha=st.floats(0.3, 1.0))
    def test_nested_start_agrees_with_constant_start(self, lam, alpha):
        # n = 1001 nests on n = 21 and n = 101, the grids 50 and 10 times
        # coarser (its 11-node grid, 100 times coarser, is below the floor);
        # n = 201 is the smallest grid with a coarse level (n = 21)
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

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lam=st.floats(0.5, 8.0), alpha=st.floats(0.3, 1.0))
    def test_extrapolated_start_settles_in_two_fine_passes(self, lam, alpha, rk4_passes):
        # n = 2001 starts from the extrapolated D of n = 21, 41 and 201; the
        # counter is shared by the examples, so each clears it first
        rk4_passes.clear()
        p = replace(sin_problem(), lam=lam, alpha=th.Alpha(alpha))
        opts = th.SolveOptions(grid_n=2001)
        out = th.oracle_solve(p, opts)
        assert rk4_passes[2001] <= 2
        assert np.max(np.abs(out.values - _reference_oracle(p, opts)[0])) <= 1e-9

    def test_failed_coarsest_level_starts_the_middle_one_from_u_a(self, monkeypatch):
        # the 21-node level runs out of passes here, and the 41-node level
        # settles from the constant start; n = 201 then starts from its D
        # alone, and n = 2001 from the extrapolated D of n = 41 and 201
        f = th.parse_expr("0.01 + 0.005*sin(u)")
        p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.7), 0.1, f)
        opts = th.SolveOptions(grid_n=2001)
        with pytest.raises(th.ConvergenceError, match="within 25 passes"):
            th.solver._oracle_settle(p, p.grid(21), 25, opts, [], (math.nan, math.nan))
        middle = th.oracle_solve(p, replace(opts, grid_n=201, max_iter=25))
        settled = th.solver._oracle_settle(p, p.grid(201), 25, opts, [], (math.nan, math.nan))[0]
        assert middle.values.tobytes() == np.array(settled).tobytes()
        # a level with no settled level below it starts from u = u_a
        below = {}
        settle = th.solver._oracle_settle

        def recording_settle(problem, grid, max_iter, opts, settled_below, slope):
            below[grid.n] = [level.n for level, _ in settled_below]
            return settle(problem, grid, max_iter, opts, settled_below, slope)

        monkeypatch.setattr(th.solver, "_oracle_settle", recording_settle)
        out = th.oracle_solve(p, opts)
        assert below == {21: [], 41: [], 201: [41], 2001: [201, 41]}
        assert out.values.tobytes() == _nested_reference_oracle(p, opts)[0].tobytes()

    @settings(max_examples=50, deadline=None)
    @given(d0=st.floats(1e-3, 1e3), c2=st.floats(-1e3, 1e3), c4=st.floats(-1e5, 1e5), n=st.sampled_from([2001, 20001]))
    def test_three_level_extrapolation_is_exact_on_a_quartic_in_h(self, d0, c2, c4, n):
        # the last three levels of the oracle's ladder, finest first; the
        # worst of 40000 random draws was 2 ulps of the scale
        grid = th.Grid(1.0, 2.0, n)
        levels = th.solver._levels(grid, th.solver._NEST_FLOOR, th.solver._ORACLE_DIVISORS)[:-4:-1]

        def d(h):
            return d0 + c2 * h**2 + c4 * h**4

        below = [(level, d(level.h)) for level in levels]
        scale = d0 + abs(c2) * levels[-1].h ** 2 + abs(c4) * levels[-1].h ** 4
        assert abs(th.solver._extrapolate(below, grid.h) - d(grid.h)) <= 16 * sys.float_info.epsilon * scale

    @settings(max_examples=50, deadline=None)
    @given(d1=st.floats(1e-300, 1e300), d2=st.floats(1e-300, 1e300), n=st.integers(3, 200), ratio=st.integers(2, 60))
    def test_two_level_extrapolation_is_the_richardson_step(self, d1, d2, n, ratio):
        level1, level2 = th.Grid(1.0, 2.0, (n - 1) * ratio + 1), th.Grid(1.0, 2.0, n)
        h = level1.h / ratio
        below = [(level1, d1), (level2, d2)]
        expected = d1 + (h**2 - level1.h**2) / (level1.h**2 - level2.h**2) * (d1 - d2)
        assert th.solver._extrapolate(below, h).hex() == expected.hex()
        assert th.solver._extrapolate(below[:1], h) == d1

    def test_three_level_start_takes_few_fine_passes_on_the_box(self, rk4_passes):
        # measured: 10 fine passes for the 9 problems (16 from two levels)
        opts = th.SolveOptions(grid_n=2001)
        for lam in (0.5, 3.0, 8.0):
            for alpha in (0.3, 0.65, 1.0):
                th.oracle_solve(replace(sin_problem(), lam=lam, alpha=th.Alpha(alpha)), opts)
        assert rk4_passes[2001] <= 10

    @pytest.mark.parametrize(
        "a, T, lam, alpha",
        [(0.01, 10.0, 1.0, 0.05), (0.1, 10.0, 1.0, 0.7), (1.0, 2.0, 40.0, 1.0)],
        ids=["large-T/a-small-alpha", "large-T/a", "large-lambda"],
    )
    def test_edge_box_agrees_with_constant_start_in_few_fine_passes(self, a, T, lam, alpha, monkeypatch, rk4_passes):
        # measured: 3 fine passes each (4, 3 and 3 from two levels), and
        # within 2.6e-15, 0 and 1.7e-11 of the constant start
        p = th.ThermistorProblem(a, T, lam, th.Alpha(alpha), 0.1, th.parse_expr("2 + sin(u)"))
        opts = th.SolveOptions(grid_n=2001)
        nested = th.oracle_solve(p, opts)
        assert rk4_passes[2001] <= 3
        monkeypatch.setattr(th.solver, "_NEST_FLOOR", math.inf)
        assert np.max(np.abs(nested.values - th.oracle_solve(p, opts).values)) <= 1e-10

    def test_failed_middle_level_leaves_the_fine_error(self, monkeypatch):
        # the 21- and 41-node levels settle, but n = 201 leaves the positivity
        # region (exp(-u) underflows to 0); the fine grid raises its own error
        p = th.ThermistorProblem(1.0, 2.0, 4.0, th.Alpha(0.7), 0.1, th.parse_expr("exp(-u)"))
        opts = th.SolveOptions(grid_n=2001)
        th.solver._oracle_settle(p, p.grid(21), 25, opts, [], (math.nan, math.nan))
        with pytest.raises(th.SourcePositivityError):
            th.oracle_solve(p, replace(opts, grid_n=201, max_iter=25))
        with pytest.raises(th.SourcePositivityError) as nested:
            th.oracle_solve(p, opts)
        monkeypatch.setattr(th.solver, "_NEST_FLOOR", math.inf)
        with pytest.raises(th.SourcePositivityError) as constant:
            th.oracle_solve(p, opts)
        assert nested.value.node == constant.value.node
        assert str(nested.value) == str(constant.value)

    def test_overflowing_extrapolation_starts_from_the_coarse_d(self):
        # D lies within 3e-7 of the largest float here, so the extrapolation
        # of D1, D2 and D3 overflows (to NaN, through inf - inf) and n = 2001
        # starts from D1 of n = 201; its own D overflows too, which collapses
        # the bracket at (D1, inf), not (0, inf)
        grid = th.Grid(1.0, 2.0, 201)
        scale = math.sqrt(sys.float_info.max * (1 - 3e-7)) / trapezoid(np.sqrt(grid.nodes), grid.h)
        p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.6), 0.1, th.parse_expr(f"{scale!r}*sqrt(t)"))
        opts = th.SolveOptions(grid_n=2001)
        below, slope = [], (math.nan, math.nan)
        for n in (21, 41, 201):
            _, d, slope = th.solver._oracle_settle(p, p.grid(n), 25, opts, below, slope)
            below = [(p.grid(n), d), *below]
        d1 = below[0][1]
        assert not math.isfinite(_reference_extrapolation(p.grid(2001).h, [(level.h, d) for level, d in below]))
        with pytest.raises(th.ConvergenceError, match=re.escape(f"bracket ({d1!r}, inf) collapsed after 1 passes")):
            th.oracle_solve(p, opts)

    def test_coarse_levels_get_a_pass_budget(self, rk4_passes):
        # unbudgeted, n = 201 spends about 48 passes here before its bracket
        # collapses; with 25 it gives up sooner and n = 2001 starts from u_a
        f = th.parse_expr("0.01 + 0.005*sin(u)")
        p = th.ThermistorProblem(1.0, 2.0, 20.0, th.Alpha(0.3), 0.1, f)
        th.oracle_solve(p, th.SolveOptions(grid_n=2001))
        assert rk4_passes[201] <= 25
        assert rk4_passes[41] <= 25
        assert rk4_passes[21] <= 25

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
    def test_collapsed_bracket_fails_fast(self, lam, alpha, rk4_passes):
        # the RK4 step is outside its stability region here (n = 201), so
        # D(traj(D)) jumps across its root and bisection runs out of floats
        # long before max_iter
        f = th.parse_expr("0.01 + 0.005*sin(u)")
        p = th.ThermistorProblem(1.0, 2.0, lam, th.Alpha(alpha), 0.1, f)
        with pytest.raises(th.ConvergenceError) as exc:
            th.oracle_solve(p, th.SolveOptions(grid_n=201, max_iter=100))
        passes = rk4_passes[201]
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
            th.oracle_solve(p, replace(opts, grid_n=201))
        with pytest.raises(th.EvalError) as nested:
            th.oracle_solve(p, opts)
        monkeypatch.setattr(th.solver, "_NEST_FLOOR", math.inf)
        with pytest.raises(th.EvalError) as constant:
            th.oracle_solve(p, opts)
        assert nested.value.span == constant.value.span == (4, 7)
        assert str(nested.value) == str(constant.value)

    def test_underflowing_denominator_leaves_the_fine_error(self, monkeypatch):
        # (int f)^2 = 1e-400 underflows to 0 on the constant start of every
        # level; each coarse level fails, and the fine grid raises its own
        # error, the constant start's, not a ZeroDivisionError
        p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.5), 0.1, th.parse_expr("1e-200 + 0*u"))
        opts = th.SolveOptions(grid_n=2001)
        with pytest.raises(th.ConvergenceError, match="underflowed to D = 0.0") as nested:
            th.oracle_solve(p, opts)
        monkeypatch.setattr(th.solver, "_NEST_FLOOR", math.inf)
        with pytest.raises(th.ConvergenceError) as constant:
            th.oracle_solve(p, opts)
        assert str(nested.value) == str(constant.value)

    def test_overflowing_trajectory_names_a_fine_grid_node(self, monkeypatch):
        # u' = 50 u / D overflows on every level (at node 74 when n = 201 is
        # the fine grid); no coarse level settles, and the fine grid raises
        # its own error, the constant start's, not a GridFunction ValueError
        p = th.ThermistorProblem(1.0, 2.0, 50.0, th.Alpha(0.5), 0.1, th.parse_expr("u"))
        opts = th.SolveOptions(grid_n=2001)
        with pytest.raises(th.ConvergenceError, match="overflowed at node 74 "):
            th.oracle_solve(p, replace(opts, grid_n=201))
        with pytest.raises(th.ConvergenceError) as nested:
            th.oracle_solve(p, opts)
        monkeypatch.setattr(th.solver, "_NEST_FLOOR", math.inf)
        with pytest.raises(th.ConvergenceError) as constant:
            th.oracle_solve(p, opts)
        assert str(nested.value) == str(constant.value)
        pattern = r"oracle trajectory overflowed at node (\d+) \(t=(\S+)\) with D = \S+ frozen"
        m = re.fullmatch(pattern, str(nested.value))
        assert m is not None, str(nested.value)
        assert int(m[1]) > 200 and float(m[2]) == p.grid(2001).nodes[int(m[1])]

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


# atoms that overflow or raise once u grows past about 0.02, often under a
# masking operation (1/inf, exp(-inf) and 1^inf are finite)
_PASS_SOURCES = _sources("(u*1e308*100)", "exp(u*1000)", "(1e300*u)^2", "1/(u - 0.5)")


class TestInlinedPass:
    """The RK4 pass with ``f`` inlined and unchecked against ``_reference_rk4_pass``."""

    @settings(max_examples=400, deadline=None)
    @given(
        src=_PASS_SOURCES,
        a=st.sampled_from([1e-3, 0.5, 1.0]),
        n=st.integers(3, 30),
        scale=st.one_of(st.sampled_from([0.0, 1e-300, 1e300, math.inf]), st.floats(0.0, 100.0)),
        alpha=st.floats(0.05, 1.0),
        u_a=_SCALARS,
    )
    @example(src="2 + 1/(u*1e308*100)", a=1.0, n=30, scale=0.25, alpha=0.5, u_a=1e-300)
    @example(src="2 + exp(-(u*1e308*100))", a=1.0, n=30, scale=0.25, alpha=0.5, u_a=1e-300)
    @example(src="2 + 1^(u*1e308*100)", a=1.0, n=30, scale=0.25, alpha=0.5, u_a=1e-300)
    @example(src="t", a=1.0, n=5, scale=math.inf, alpha=0.5, u_a=0.1)
    def test_agrees_with_the_checked_pass(self, src, a, n, scale, alpha, u_a):
        e = th.parse_expr(src)
        grid = th.Grid(a, a + 1.0, n)
        args = (grid.nodes[:-1].tolist(), float(grid.nodes[-1]), grid.h, scale, alpha - 1.0, u_a)
        try:
            got, got_samples, guard = e.inlined(_RK4_PASS)(*args)
        except (ZeroDivisionError, ValueError, OverflowError):
            guard = math.nan
        # oracle_solve keeps the inlined pass only where its guard sum is
        # finite, which covers the last sample too
        kept = math.isfinite(guard)
        try:
            want, want_samples = _reference_rk4_pass(e.scalar, *args)
        except EvalError:
            assert not kept
            return
        if kept:
            assert [x.hex() for x in got] == [x.hex() for x in want]
            assert [x.hex() for x in got_samples] == [x.hex() for x in want_samples]

    @pytest.mark.parametrize(
        "src, span",
        [("2 + 1/(u*1e308*100)", "6..19"), ("2 + exp(-(u*1e308*100))", "9..22"), ("2 + 1^(u*1e308*100)", "6..19")],
        ids=["divisor", "exp", "power"],
    )
    def test_a_masked_overflow_raises_the_checked_error(self, src, span):
        e = th.parse_expr(src)
        grid = th.Grid(1.0, 2.0, 2001)
        traj, _, guard = e.inlined(_RK4_PASS)(grid.nodes[:-1].tolist(), 2.0, grid.h, 0.25, -0.5, 1e-300)
        # unguarded, the pass would return a finite trajectory
        assert all(map(math.isfinite, traj)) and max(traj) > 0.1
        assert not math.isfinite(guard)
        p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.5), 1e-300, e)
        with pytest.raises(EvalError) as err:
            th.oracle_solve(p, th.SolveOptions(grid_n=2001))
        assert str(err.value) == f"evaluation error at bytes {span} ('(u*1e308*100)'): multiplication overflowed"

    @pytest.mark.parametrize("alpha", [0.5, 0.3])
    def test_a_last_sample_that_overflows_raises_the_checked_error(self, alpha):
        # f is 2 at every stage, and overflows only at the last node on u_end,
        # the answer for f = 2, so that only the last sample f(T, u_end) sees it
        p = th.ThermistorProblem(1.0, 2.2, 1.0, th.Alpha(alpha), 0.1, th.parse_expr("2"))
        opts = th.SolveOptions(grid_n=201)
        u_end = float(th.oracle_solve(p, opts).values[-1])
        e = th.parse_expr(f"2 + 1e308*exp(-abs((u - {u_end!r})*1e14))*exp(-abs((t - 2.2)*1e17))*2")
        # a plain callable, not an Expr, runs every pass checked
        with pytest.raises(EvalError) as checked:
            th.oracle_solve(replace(p, f=lambda t, u: e(t, u)), opts)
        with pytest.raises(EvalError) as err:
            th.oracle_solve(replace(p, f=e), opts)
        assert str(err.value) == str(checked.value)
        assert str(err.value).endswith("): multiplication overflowed")

    def test_the_deepest_division_chain_solves_as_its_value(self):
        # (2 + sin(u))/(1 + 0*u)/... is 2 + sin(u) bit for bit, 700 levels
        # high, and each stage adds its 697 divisors to the guard
        chain = th.parse_expr("/".join(["(2 + sin(u))"] + ["(1 + 0*u)"] * 697))
        opts = th.SolveOptions(grid_n=201)
        out = th.oracle_solve(replace(sin_problem(), f=chain), opts)
        assert out.values.tobytes() == th.oracle_solve(sin_problem(), opts).values.tobytes()

    def test_is_generated_once_per_expression(self, monkeypatch):
        inlined = []
        inline = _Body.inline

        def counting_inline(body, expr, template):
            inlined.append(expr)
            return inline(body, expr, template)

        monkeypatch.setattr(_Body, "inline", counting_inline)
        f = th.parse_expr("2 + sin(u)")
        for lam in (0.5, 8.0):
            th.oracle_solve(replace(sin_problem(), lam=lam, f=f), th.SolveOptions(grid_n=2001))
        # two solves of four levels and many passes each
        assert len(inlined) == 1 and inlined[0] is f

    def test_checked_pass_is_bound_once_per_level(self, monkeypatch):
        bound = []
        bind = _Body.bound

        def counting_bound(template, f):
            bound.append(f)
            return bind(template, f)

        monkeypatch.setattr(_Body, "bound", counting_bound)
        opts = th.SolveOptions(grid_n=2001)
        # a plain callable runs every pass checked: one binding per level, for
        # n = 21, 41, 201 and 2001
        th.oracle_solve(replace(sin_problem(), f=sin_offset_source), opts)
        assert bound == [sin_offset_source] * 4
        # an expression whose inlined passes all stay finite redoes none
        bound.clear()
        th.oracle_solve(sin_problem(), opts)
        assert bound == []

