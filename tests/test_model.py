"""Problem container, source sampling, and the nonlocal right-hand side."""

import math
from dataclasses import replace

import numpy as np
import pytest

import thermistor as th
from thermistor.conformable import trapezoid
from thermistor.model import nonlocal_rhs, sample_source

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


def band(grid, v_value, m_value):
    return th.GridFunction.constant(grid, v_value), th.GridFunction.constant(grid, m_value)


class TestBoundsEstimate:
    def test_constant_source_bounds(self):
        p = constant_problem()
        grid = p.grid(101)
        b = th.bounds_estimate(p, u_star(grid), th.GridFunction.constant(grid, 0.5))
        assert b == (1.0, 1.0, 1.0)

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
