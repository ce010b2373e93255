"""Problem container, source sampling, and the nonlocal right-hand side."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import thermistor as th
from thermistor.config import TubeSpec
from thermistor.conformable import trapezoid
from thermistor.model import _g_rows, _source, nonlocal_rhs, sample_source

from conftest import constant_problem, ones_source, ramp_problem, sin_problem, u_star


class TestProblemValidation:
    def test_coerces_bare_float_alpha(self):
        p = th.ThermistorProblem(1.0, 2.0, 1.0, 0.5, 0.0, ones_source)
        assert isinstance(p.alpha, th.Alpha)
        assert p.alpha.value == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"a": 0.0},
            {"a": -1.0},
            {"T": 1.0},
            {"T": 0.5},
            {"lam": 0.0},
            {"lam": -2.0},
            {"u_a": math.inf},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        base = dict(a=1.0, T=2.0, lam=1.0, alpha=th.Alpha(0.5), u_a=0.0, f=ones_source)
        base.update(kwargs)
        with pytest.raises(ValueError):
            th.ThermistorProblem(**base)

    def test_grid_helper(self):
        p = constant_problem()
        grid = p.grid(51)
        assert (grid.a, grid.T, grid.n) == (p.a, p.T, 51)


class TestSourceSampling:
    def test_positive_source_passes_through(self):
        p = ramp_problem()
        grid = p.grid(11)
        fv = sample_source(p, th.GridFunction.constant(grid, 1.0))
        assert np.array_equal(fv, grid.nodes)

    def test_nonpositive_source_names_first_bad_node(self):
        # f = t - 1.5 is already negative at t = a, so node 0 is blamed
        f = th.parse_expr("t - 1.5")
        p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.5), 0.0, f)
        grid = p.grid(101)
        with pytest.raises(th.SourcePositivityError) as exc:
            sample_source(p, th.GridFunction.constant(grid, 0.0))
        assert "H1 violated" in str(exc.value)
        assert exc.value.node == 0
        assert f"node {exc.value.node}" in str(exc.value)

    def test_non_finite_source_rejected(self):
        p = replace(constant_problem(), f=lambda t, u: np.full_like(t, math.inf))
        grid = p.grid(11)
        with pytest.raises(th.SourcePositivityError):
            sample_source(p, th.GridFunction.constant(grid, 0.0))

    @pytest.mark.parametrize(
        "f",
        [th.parse_expr("1.5"), lambda t, u: 1.5, lambda t, u: np.float64(1.5), lambda t, u: np.full(u.shape[-1:], 1.5)],
        ids=["constant-expr", "python-float", "numpy-scalar", "one-row-of-values"],
    )
    @pytest.mark.parametrize("shape", [(11,), (3, 11)])
    def test_sources_of_other_shapes_fill_the_shape_of_u(self, f, shape):
        t = np.broadcast_to(np.linspace(1.0, 2.0, 11), shape)
        u = np.linspace(-1.0, 1.0, 33)[: math.prod(shape)].reshape(shape)
        fv = _source(f, t, u)
        assert fv.shape == shape and fv.dtype == np.float64
        assert np.all(fv == 1.5)

    def test_a_source_returning_u_leaves_u_unchanged(self):
        p = replace(constant_problem(), u_a=1.0, f=lambda t, u: u)
        grid = p.grid(11)
        u = th.GridFunction(grid, np.linspace(1.0, 2.0, 11))
        assert sample_source(p, u) is u.values
        assert np.array_equal(th.evaluate_g(p, u).values, nonlocal_rhs(p.lam, u.values, trapezoid(u.values, grid.h)))
        rows = np.array([np.linspace(1.0, 2.0, 11), np.linspace(2.0, 3.0, 11)])
        before = rows.copy()
        g = _g_rows(p.f, np.tile(grid.nodes, (2, 1)), rows, np.array([[1.0], [2.0]]), grid.h)
        assert rows.tobytes() == before.tobytes()
        assert g.tobytes() == np.array([th.evaluate_g(replace(p, lam=lam), th.GridFunction(grid, row)).values
                                        for lam, row in ((1.0, before[0]), (2.0, before[1]))]).tobytes()

    @pytest.mark.parametrize("node", [0, 5, 10])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.0, -2.5])
    def test_first_bad_node_and_message(self, bad, node):
        values = np.linspace(1.0, 2.0, 11)
        values[node] = bad
        p = replace(constant_problem(), f=lambda t, u: values)
        grid = p.grid(11)
        u = th.GridFunction(grid, np.linspace(-1.0, 1.0, 11))
        with pytest.raises(th.SourcePositivityError) as exc:
            sample_source(p, u)
        assert exc.value.node == node
        fault = "overflowed" if bad == math.inf else "must be strictly positive"
        assert str(exc.value) == (
            f"H1 violated: f(t, u) {fault}, got "
            f"f({float(grid.nodes[node])!r}, {float(u.values[node])!r}) = {bad!r} at node {node}"
        )


class TestDenominator:
    def test_linear_source_integrates_exactly(self):
        # trapezoid is exact on linear data: integral of t over [1, 3] is 4
        p = ramp_problem()
        u = th.GridFunction.constant(p.grid(101), 1.0)
        assert trapezoid(sample_source(p, u), u.grid.h) == pytest.approx(4.0, rel=1e-13)

    def test_denominator_is_square_of_integral(self):
        p = sin_problem()
        u = th.GridFunction.constant(p.grid(101), 0.1)
        fv = sample_source(p, u)
        integral = trapezoid(fv, u.grid.h)
        g = th.evaluate_g(p, u).values
        assert np.array_equal(g, p.lam * fv / (integral * integral))
        # one integral per node gives the same quotient as the shared scalar
        assert np.array_equal(nonlocal_rhs(p.lam, fv, np.full(fv.size, integral)), g)


class TestEvaluateG:
    def test_constant_source_gives_constant_g(self):
        # f = 1, lambda = 2 on [1, 3]: integral 2, denominator 4, g = 1/2
        p = th.ThermistorProblem(1.0, 3.0, 2.0, th.Alpha(0.5), 0.0, ones_source)
        g = th.evaluate_g(p, th.GridFunction.constant(p.grid(101), 0.0))
        assert np.max(np.abs(g.values - 0.5)) <= 1e-13

    def test_ramp_source_endpoints(self):
        p = ramp_problem()
        g = th.evaluate_g(p, th.GridFunction.constant(p.grid(101), 1.0))
        assert float(g.values[0]) == pytest.approx(0.125, rel=1e-12)
        assert float(g.values[-1]) == pytest.approx(0.375, rel=1e-12)

    def test_scaling_the_source_scales_g_inversely(self):
        p = sin_problem()
        grid = p.grid(101)
        u = th.GridFunction(grid, np.cos(grid.nodes))
        g1 = th.evaluate_g(p, u)
        c = 5.0
        scaled = replace(p, f=lambda t, uu: c * p.f(t, uu))
        g2 = th.evaluate_g(scaled, u)
        assert np.max(np.abs(g2.values * c - g1.values) / np.abs(g1.values)) <= 1e-12

    def test_g_is_positive(self):
        p = sin_problem()
        g = th.evaluate_g(p, th.GridFunction.constant(p.grid(51), 0.1))
        assert np.all(g.values > 0.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p, u, tube: th.evaluate_g(p, u), "evaluate_g: grid"),
        (lambda p, u, tube: th.ode_residual(u, p), "evaluate_g: grid"),
        (lambda p, u, tube: th.apply_k(u, tube, p), "apply_k: tube grid"),
        (lambda p, u, tube: th.verify_tube(tube, p), "tube grid"),
        (lambda p, u, tube: th.closed_form_center(p, u.grid), "closed_form_center: grid"),
    ],
    ids=["evaluate_g", "ode_residual", "apply_k", "verify_tube", "closed_form_center"],
)
@pytest.mark.parametrize("a, T", [(1.0, 3.0), (0.5, 2.0)])
def test_each_caller_names_a_grid_off_the_interval(call, message, a, T):
    # on [1, 3] the integral of f doubles, so g = lambda*f/D**2 along u = 0.1
    # would read 0.119 instead of the 0.476 of the problem's own [1, 2]
    p = sin_problem()
    grid = th.Grid(a, T, 51)
    u = th.GridFunction.constant(grid, 0.1)
    tube = th.Tube(u, th.GridFunction.constant(grid, 1.0))
    with pytest.raises(ValueError, match=rf"^{re.escape(message)} does not span the problem interval$"):
        call(p, u, tube)


def band(grid, v_value, m_value):
    return th.GridFunction.constant(grid, v_value), th.GridFunction.constant(grid, m_value)


class TestBoundsEstimate:
    def test_constant_source_bounds(self):
        p = constant_problem()
        grid = p.grid(101)
        b = th.bounds_estimate(p, u_star(grid), th.GridFunction.constant(grid, 0.5))
        assert b == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("f", [th.parse_expr("2"), lambda t, u: 2.0], ids=["constant-expr", "python-float"])
    def test_constant_source_fills_the_lattice(self, f):
        p = replace(constant_problem(), f=f)
        b = th.bounds_estimate(p, *band(p.grid(101), 0.0, 1.0))
        assert b == (2.0, 2.0, 0.5)

    def test_formula_consistency_on_monotone_source(self):
        p = ramp_problem()
        b = th.bounds_estimate(p, *band(p.grid(101), 0.0, 1.0))
        assert b.f_min == 1.0
        assert b.f_max == 3.0
        assert b.g_sup == p.lam * b.f_max / (b.f_min**2 * (p.T - p.a) ** 2)

    def test_doubling_lambda_doubles_the_sup_bound(self):
        p = sin_problem()
        v, m = band(p.grid(101), 0.0, 1.0)
        b1 = th.bounds_estimate(p, v, m)
        b2 = th.bounds_estimate(replace(p, lam=2.0 * p.lam), v, m)
        assert b2.g_sup == 2.0 * b1.g_sup

    def test_band_reaching_nonpositive_source_reports_infinite_sup(self):
        # f = u + 0.5 is positive on the band 1 +/- 0.3 but not on 0 +/- 1
        p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.5), 1.0, th.parse_expr("u + 0.5"))
        grid = p.grid(101)
        inside = th.bounds_estimate(p, *band(grid, 1.0, 0.3))
        assert inside.f_min == pytest.approx(1.2, rel=1e-15)
        assert math.isfinite(inside.g_sup)
        crossing = th.bounds_estimate(p, *band(grid, 0.0, 1.0))
        assert crossing.f_min == -0.5
        assert crossing.g_sup == math.inf
        # a source that cannot be evaluated on the band is not an error either
        p_sqrt = replace(p, f=th.parse_expr("sqrt(u)"))
        failed = th.bounds_estimate(p_sqrt, *band(grid, 0.0, 1.0))
        assert math.isnan(failed.f_min)
        assert failed.g_sup == math.inf

    def test_underflowing_denominator_reports_infinite_sup(self):
        # A = exp(-500) is positive, but A**2 underflows to 0
        p = th.ThermistorProblem(1.0, 2.0, 0.1, th.Alpha(1.0), 0.0, th.parse_expr("exp(-500*u^2)"))
        b = th.bounds_estimate(p, *band(p.grid(101), 0.0, 1.0))
        assert b.f_min == math.exp(-500.0) > 0.0
        assert b.f_min * b.f_min == 0.0
        assert b.g_sup == math.inf

    def test_overflowing_denominator_reports_zero_sup(self):
        # (T - a)**2 overflows here: as a float power it would raise OverflowError
        p = th.ThermistorProblem(1.0, 1e200, 1.0, th.Alpha(1.0), 0.0, th.parse_expr("2"))
        b = th.bounds_estimate(p, *band(p.grid(101), 0.0, 1.0))
        assert b == (2.0, 2.0, 0.0)


_OVERFLOWED = "evaluation error at bytes 0..11 ('exp(1000*{})'): exp left its domain or overflowed"


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda p, u, tube: sample_source(p, u), _OVERFLOWED.format("u")),
        (lambda p, u, tube: th.verify_tube(tube, p), _OVERFLOWED.format("u")),
        (lambda p, u, tube: th.bounds_estimate(p, tube.v, tube.M), None),
        (lambda p, u, tube: th.evaluate_g(p, u), _OVERFLOWED.format("u")),
        (lambda p, u, tube: th.closed_form_center(p, u.grid), _OVERFLOWED.format("u")),
        (lambda p, u, tube: th.apply_k(u, tube, p), _OVERFLOWED.format("u")),
        (
            lambda p, u, tube: TubeSpec(None, th.parse_expr("1"), th.parse_expr("exp(1000*t)")).build(p, u.grid),
            "[tube] M: " + _OVERFLOWED.format("t"),
        ),
    ],
    ids=["sample_source", "verify_tube", "bounds_estimate", "evaluate_g", "closed_form_center", "apply_k", "TubeSpec.build"],
)
def test_each_source_caller_keeps_numpy_quiet(call, error):
    # exp(1000*u) overflows along u = 1 and on the band 1 +/- 0.5, and the
    # radius exp(1000*t) on [1, 2]: each caller turns numpy's warnings off
    # around the array mode, which names the node, or reports NaN bounds
    p = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.5), 1.0, th.parse_expr("exp(1000*u)"))
    grid = p.grid(11)
    u = th.GridFunction.constant(grid, 1.0)
    tube = th.Tube(u, th.GridFunction.constant(grid, 0.5))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if error is None:
            bounds = call(p, u, tube)
            assert math.isnan(bounds.f_min) and math.isnan(bounds.f_max)
        else:
            with pytest.raises(ValueError) as raised:
                call(p, u, tube)
            assert str(raised.value) == error
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
