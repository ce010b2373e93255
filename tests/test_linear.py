"""Closed-form linear solve: exactness classes, convergence, and guards."""

import math

import numpy as np
import pytest

import thermistor as th
from thermistor.conformable import exp_weight


def manufactured_rhs(grid, alpha, a):
    # right-hand side whose exact solution is sin(t):
    # g = T_alpha(sin) + sin / a**alpha
    t = grid.nodes
    return th.GridFunction(grid, t ** (1.0 - alpha) * np.cos(t) + np.sin(t) / a**alpha)


def test_initial_value_is_bitwise():
    grid = th.Grid(1.0, 2.0, 101)
    x0 = 0.1 + 0.2  # deliberately not a round binary value
    x = th.solve_linear(th.GridFunction.sample(grid, np.sin), x0, 0.5)
    assert float(x.values[0]) == x0


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("a, T", [(1.0, 2.0), (0.5, 3.0)])
def test_constant_solution_reproduced_to_rounding(alpha, a, T):
    # g = c / a**alpha with x0 = c keeps the solution constant
    c = 3.7
    grid = th.Grid(a, T, 101)
    g = th.GridFunction.constant(grid, c / a**alpha)
    x = th.solve_linear(g, c, alpha)
    assert np.max(np.abs(x.values - c)) <= 1e-12
    assert th.linear_residual(x, g, alpha) <= 1e-10


def test_pure_decay_matches_weight_function():
    grid = th.Grid(1.0, 2.0, 101)
    zero = th.GridFunction.constant(grid, 0.0)
    x = th.solve_linear(zero, 2.0, 0.5)
    w = exp_weight(grid.nodes, 0.5, 1.0)
    expected = 2.0 * np.asarray(w) / float(w[0])
    assert np.max(np.abs(x.values - expected)) <= 1e-14


def test_linear_in_exponent_rhs_is_exact():
    # at alpha = 1 on a = 1 the rescaled rhs 1 + t is linear in the
    # integration variable, so the panel rule is exact: x(t) = t
    grid = th.Grid(1.0, 2.0, 101)
    g = th.GridFunction(grid, 1.0 + grid.nodes)
    x = th.solve_linear(g, 1.0, 1.0)
    assert np.max(np.abs(x.values - grid.nodes)) <= 1e-12


def test_manufactured_solution_converges_at_second_order():
    errs = []
    for n in (101, 201, 401):
        grid = th.Grid(1.0, 2.0, n)
        x = th.solve_linear(manufactured_rhs(grid, 0.7, 1.0), math.sin(1.0), 0.7)
        errs.append(float(np.max(np.abs(x.values - np.sin(grid.nodes)))))
    assert errs[0] <= 2e-5
    orders = [math.log(errs[i] / errs[i + 1]) / math.log(2.0) for i in range(2)]
    assert min(orders) >= 1.8


def test_residual_ladder_shows_second_order():
    resids = []
    for n in (101, 201, 401):
        grid = th.Grid(1.0, 2.0, n)
        g = th.GridFunction.sample(grid, np.sin)
        x = th.solve_linear(g, 1.0, 0.7)
        resids.append(th.linear_residual(x, g, 0.7))
    orders = [math.log(resids[i] / resids[i + 1]) / math.log(2.0) for i in range(2)]
    assert min(orders) >= 1.8


def test_residual_detects_point_defects():
    grid = th.Grid(1.0, 2.0, 101)
    g = manufactured_rhs(grid, 0.5, 1.0)
    x = th.solve_linear(g, math.sin(1.0), 0.5)
    base = th.linear_residual(x, g, 0.5)
    assert base <= 1e-4
    bumped = x.values.copy()
    bumped[50] += 1.0
    assert th.linear_residual(th.GridFunction(grid, bumped), g, 0.5) >= 0.25 / grid.h


def test_overflow_is_reported_with_node():
    grid = th.Grid(1.0, 2.0, 101)
    vals = np.zeros(101)
    vals[0] = -1e308
    vals[1] = 1e308
    with pytest.raises(ValueError, match="overflowed at node 1"):
        th.solve_linear(th.GridFunction(grid, vals), 0.0, 0.5)


def test_residual_rejects_mismatched_grids():
    x = th.GridFunction.constant(th.Grid(1.0, 2.0, 11), 1.0)
    g = th.GridFunction.constant(th.Grid(1.0, 2.0, 21), 1.0)
    with pytest.raises(ValueError):
        th.linear_residual(x, g, 0.5)
