"""Grids, grid functions, and the weighted derivative/integral operators."""

import dataclasses
import math

import numpy as np
import pytest

import thermistor as th
from thermistor.conformable import _alpha_value, trapezoid, weight_exponent


def plain_stencil(values, h):
    # same difference-combination arrangement the library promises at alpha = 1
    d = np.empty_like(values)
    d[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    d[0] = (4.0 * (values[1] - values[0]) - (values[2] - values[0])) / (2.0 * h)
    d[-1] = (4.0 * (values[-1] - values[-2]) - (values[-1] - values[-3])) / (2.0 * h)
    return d


def conformable_derivative_limit(f, t, alpha, eps):
    """One-sided difference quotient straight from the limit definition.

    Evaluates ``(f(t + eps * t**(1 - alpha)) - f(t)) / eps``.  Kept
    deliberately naive as an independent check of the grid stencil;
    accuracy is only O(eps).
    """
    a = _alpha_value(alpha)
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"limit quotient needs t > 0, got {t!r}")
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"limit quotient needs eps > 0, got {eps!r}")
    shifted = float(f(t + eps * t ** (1.0 - a)))
    base = float(f(t))
    if not (math.isfinite(shifted) and math.isfinite(base)):
        raise ValueError("function returned a non-finite value in the limit quotient")
    return (shifted - base) / eps


class TestAlpha:
    def test_accepts_interior_and_one(self):
        assert th.Alpha(0.5).value == 0.5
        assert th.Alpha(1.0).value == 1.0
        assert th.Alpha(1e-6).value == 1e-6

    @pytest.mark.parametrize("bad", [0.0, -0.3, 1.0000001, 2.0, math.nan, math.inf])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            th.Alpha(bad)

    def test_frozen(self):
        al = th.Alpha(0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            al.value = 0.7

    def test_functions_accept_bare_floats(self):
        grid = th.Grid(1.0, 2.0, 11)
        u = th.GridFunction(grid, np.sin(grid.nodes))
        via_float = th.conformable_derivative(u, 0.5)
        via_alpha = th.conformable_derivative(u, th.Alpha(0.5))
        assert np.array_equal(via_float.values, via_alpha.values)
        with pytest.raises(ValueError):
            th.conformable_derivative(u, 1.5)


class TestGrid:
    def test_nodes_and_h(self):
        grid = th.Grid(1.0, 2.0, 101)
        assert grid.n == 101
        assert grid.h == pytest.approx(0.01, rel=1e-15)
        assert grid.nodes[0] == 1.0
        assert grid.nodes[-1] == 2.0
        assert grid.nodes.shape == (101,)

    def test_nodes_are_read_only(self):
        grid = th.Grid(1.0, 2.0, 11)
        with pytest.raises(ValueError):
            grid.nodes[0] = 5.0

    @pytest.mark.parametrize(
        "a, T, n",
        [(0.0, 2.0, 11), (-1.0, 2.0, 11), (1.0, 1.0, 11), (2.0, 1.0, 11), (1.0, 2.0, 2), (math.nan, 2.0, 11)],
    )
    def test_rejects_bad_parameters(self, a, T, n):
        with pytest.raises(ValueError):
            th.Grid(a, T, n)

    def test_equality_ignores_node_array(self):
        assert th.Grid(1.0, 2.0, 101) == th.Grid(1.0, 2.0, 101)
        assert th.Grid(1.0, 2.0, 101) != th.Grid(1.0, 2.0, 51)
        assert th.Grid(1.0, 2.0, 101) != th.Grid(1.0, 3.0, 101)


class TestGridFunction:
    def test_values_are_copied_and_read_only(self):
        grid = th.Grid(1.0, 2.0, 5)
        raw = np.zeros(5)
        u = th.GridFunction(grid, raw)
        raw[0] = 99.0
        assert u.values[0] == 0.0
        with pytest.raises(ValueError):
            u.values[0] = 1.0

    def test_rejects_wrong_shape_and_non_finite(self):
        grid = th.Grid(1.0, 2.0, 5)
        with pytest.raises(ValueError):
            th.GridFunction(grid, np.zeros(4))
        bad = np.zeros(5)
        bad[3] = math.inf
        with pytest.raises(ValueError, match="node 3"):
            th.GridFunction(grid, bad)

    def test_sample_and_constant(self):
        grid = th.Grid(1.0, 2.0, 5)
        u = th.GridFunction(grid, np.sin(grid.nodes))
        assert np.array_equal(u.values, np.sin(grid.nodes))
        c = th.GridFunction.constant(grid, 3.5)
        assert np.all(c.values == 3.5)


class TestDerivative:
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("n", [3, 101, 1001])
    def test_constants_annihilated_exactly(self, alpha, n):
        grid = th.Grid(1.0, 4.0, n)
        d = th.conformable_derivative(th.GridFunction.constant(grid, 3.7), alpha)
        assert np.all(d.values == 0.0)

    def test_quadratic_is_exact_to_rounding(self):
        grid = th.Grid(1.0, 4.0, 101)
        t = grid.nodes
        d = th.conformable_derivative(th.GridFunction(grid, t**2), 0.5)
        expected = 2.0 * t * np.sqrt(t)
        assert np.max(np.abs(d.values - expected) / expected) <= 1e-12

    def test_power_rule_gives_constant_alpha(self):
        # derivative of t**alpha is alpha * t**(alpha-1), so the weighted
        # derivative is the constant alpha up to stencil error
        grid = th.Grid(1.0, 4.0, 101)
        d = th.conformable_derivative(th.GridFunction(grid, grid.nodes**0.5), 0.5)
        assert np.max(np.abs(d.values - 0.5)) <= 5e-4

    def test_second_order_on_smooth_data(self):
        errs = []
        for n in (101, 401):
            grid = th.Grid(1.0, 4.0, n)
            t = grid.nodes
            d = th.conformable_derivative(th.GridFunction(grid, np.sin(t)), 0.5)
            errs.append(np.max(np.abs(d.values - np.sqrt(t) * np.cos(t))))
        order = math.log(errs[0] / errs[1]) / math.log(4.0)
        assert order >= 1.8

    def test_alpha_one_matches_plain_stencil_bitwise(self):
        grid = th.Grid(1.0, 4.0, 401)
        u = th.GridFunction(grid, np.sin(grid.nodes))
        conf = th.conformable_derivative(u, 1.0)
        assert np.array_equal(conf.values, plain_stencil(u.values, grid.h))

    def test_alpha_one_agrees_with_numpy_gradient(self):
        grid = th.Grid(1.0, 4.0, 401)
        u = th.GridFunction(grid, np.sin(grid.nodes))
        conf = th.conformable_derivative(u, 1.0)
        grad = np.gradient(u.values, grid.h, edge_order=2)
        assert np.max(np.abs(conf.values - grad)) <= 1e-12


class TestLimitQuotient:
    def test_identity_function_is_exact_in_binary(self):
        # t + eps * t**0.5 is exactly representable for t=4, eps=2**-10,
        # so the quotient comes out exact
        out = conformable_derivative_limit(lambda s: s, 4.0, 0.5, 2.0**-10)
        assert out == 2.0

    def test_agrees_with_grid_stencil(self):
        grid = th.Grid(1.0, 4.0, 401)
        u = th.GridFunction(grid, np.sin(grid.nodes))
        d = th.conformable_derivative(u, 0.7)
        j = 200
        lim = conformable_derivative_limit(math.sin, float(grid.nodes[j]), 0.7, 1e-6)
        assert abs(lim - float(d.values[j])) <= 1e-3

    def test_input_validation(self):
        with pytest.raises(ValueError):
            conformable_derivative_limit(math.sin, -1.0, 0.5, 1e-6)
        with pytest.raises(ValueError):
            conformable_derivative_limit(math.sin, 1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            conformable_derivative_limit(lambda s: math.inf, 1.0, 0.5, 1e-6)


class TestIntegral:
    def test_weighted_constant_has_closed_form(self):
        # integral of tau**(alpha-1) over [1, 4] is (4**alpha - 1) / alpha
        grid = th.Grid(1.0, 4.0, 401)
        ones = th.GridFunction.constant(grid, 1.0)
        out = th.conformable_cumulative_integral(ones, 0.5)
        assert abs(float(out.values[-1]) - 2.0) <= 1e-5

    def test_weight_cancelling_integrand_is_exact(self):
        # u = tau**(1-alpha) makes the weighted integrand identically 1
        grid = th.Grid(1.0, 4.0, 101)
        u = th.GridFunction(grid, grid.nodes**0.7)
        out = th.conformable_cumulative_integral(u, 0.3)
        assert np.max(np.abs(out.values - (grid.nodes - 1.0))) <= 1e-12

    def test_partial_range_and_degenerate_range(self):
        # the integral over [t_i, t_j] is the difference of two running values
        grid = th.Grid(1.0, 4.0, 101)
        u = th.GridFunction(grid, grid.nodes**0.7)
        out = th.conformable_cumulative_integral(u, 0.3).values
        assert abs((out[50] - out[20]) - (grid.nodes[50] - grid.nodes[20])) <= 1e-12
        assert out[0] == 0.0

    def test_alpha_one_is_plain_trapezoid(self):
        grid = th.Grid(1.0, 4.0, 101)
        u = th.GridFunction(grid, np.sin(grid.nodes))
        ours = float(th.conformable_cumulative_integral(u, 1.0).values[-1])
        ref = float(np.trapezoid(u.values, dx=grid.h))
        assert ours == pytest.approx(ref, rel=1e-13)

    def test_cumulative_matches_full_integral(self):
        grid = th.Grid(1.0, 4.0, 101)
        u = th.GridFunction(grid, np.sin(grid.nodes))
        cum = th.conformable_cumulative_integral(u, 0.5)
        assert cum.values[0] == 0.0
        full = trapezoid(u.values * grid.nodes**-0.5, grid.h)
        assert abs(float(cum.values[-1]) - full) <= 1e-12

    def test_cumulative_monotone_for_positive_data(self):
        grid = th.Grid(1.0, 4.0, 101)
        cum = th.conformable_cumulative_integral(th.GridFunction.constant(grid, 2.0), 0.5)
        assert np.all(np.diff(cum.values) > 0.0)

    def test_roundtrip_recovers_integrand_at_second_order(self):
        errs = []
        for n in (101, 401):
            grid = th.Grid(1.0, 4.0, n)
            f = th.GridFunction(grid, np.sin(grid.nodes))
            running = th.conformable_cumulative_integral(f, 0.5)
            recovered = th.conformable_derivative(running, 0.5)
            errs.append(np.max(np.abs(recovered.values - f.values)))
        order = math.log(errs[0] / errs[1]) / math.log(4.0)
        assert order >= 1.8
        assert errs[1] <= 1e-4


class TestWeights:
    def test_exponent_at_left_endpoint(self):
        assert weight_exponent(1.5, 0.4, 1.5) == 1.0 / 0.4

    def test_exp_weight_values_and_monotonicity(self):
        # the decay weight exp(-exponent) that solve_linear's equation has as its solution
        grid = th.Grid(1.0, 3.0, 101)
        w = np.exp(-weight_exponent(grid.nodes, 0.5, 1.0))
        assert isinstance(w, np.ndarray)
        assert w[0] == pytest.approx(math.exp(-2.0), rel=1e-15)
        assert np.all(np.diff(w) < 0.0)
        assert math.exp(-weight_exponent(2.0, 0.5, 1.0)) == pytest.approx(float(w[50]), rel=1e-15)

    def test_scalar_in_scalar_out(self):
        out = weight_exponent(2.0, 0.5, 1.0)
        assert isinstance(out, float)
        assert out == 2.0 * math.sqrt(2.0)

    def test_rejects_nonpositive_anchor(self):
        with pytest.raises(ValueError):
            weight_exponent(2.0, 0.5, 0.0)
