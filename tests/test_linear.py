"""Closed-form linear solve: exactness classes, convergence, and guards."""

import math

import numpy as np
import pytest
from hypothesis import event, example, find, given, settings, strategies as st

import thermistor as th
from thermistor.conformable import _alpha_value, weight_exponent
from thermistor.linear import _BLOCK_SPAN, _plan


def _reference_solve_linear(g, x0, alpha):
    """Node-by-node evaluation of the recurrence that ``solve_linear`` scans.

    ``expm1`` comes from numpy's array routine, as in the scan: it and
    ``math.expm1`` can differ by an ulp, and the slope term's cancellation
    amplifies that by about ``1 / delta``, which would hide the summation
    order that this reference is here to check.
    """
    grid = g.grid
    al = _alpha_value(alpha)
    a = grid.a

    phi = np.asarray(weight_exponent(grid.nodes, al, a), dtype=float)
    big_g = (a**al) * g.values

    x = np.empty(grid.n)
    x[0] = x0
    phis = phi.tolist()
    gs = big_g.tolist()
    ems = np.expm1(-np.diff(phi)).tolist()
    running = 0.0
    for i in range(grid.n - 1):
        delta = phis[i + 1] - phis[i]
        em = ems[i]
        decay = em + 1.0
        slope_term = ((delta + 1.0) * em + delta) / delta
        panel = -gs[i + 1] * em + (gs[i + 1] - gs[i]) * slope_term
        running = running * decay + panel
        x[i + 1] = x0 * math.exp(phis[0] - phis[i + 1]) + running
        if not math.isfinite(x[i + 1]):
            raise ValueError(
                f"solve_linear: solution overflowed at node {i + 1} "
                f"(t={float(grid.nodes[i + 1])!r})"
            )
    return th.GridFunction(grid, x)


def _reference_array_scan(g, x0, alpha):
    """The whole-array scan that rebuilt every weight on each call.

    ``solve_linear`` now builds the grid-only weights once per
    ``(grid, alpha)`` and scans in place; it must match this bit for bit.
    """
    grid = g.grid
    al = _alpha_value(alpha)
    a = grid.a

    phi = np.asarray(weight_exponent(grid.nodes, al, a), dtype=float)
    tail = phi[1:]
    # Overflow shows up as inf or nan in x and is reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        # G is g rescaled so that d(phi) absorbs the t**(alpha-1) integration weight.
        big_g = (a**al) * g.values
        delta = np.diff(phi)
        em = np.expm1(-delta)  # exp(-delta) - 1, exact near zero
        # integral over each panel of (linear G in phi) * exp(phi - phi_{i+1})
        slope_term = ((delta + 1.0) * em + delta) / delta
        panel = -big_g[1:] * em + np.diff(big_g) * slope_term

        running = np.empty(grid.n - 1)
        carry = 0.0
        start = 0
        while start < tail.size:
            stop = np.searchsorted(tail, tail[start] + _BLOCK_SPAN, side="right")
            top = tail[stop - 1]
            block = tail[start:stop]
            scan = np.cumsum(panel[start:stop] * np.exp(block - top))
            scan += carry * math.exp(phi[start] - top)
            running[start:stop] = scan * np.exp(top - block)
            carry = running[stop - 1]
            start = stop
        x = np.empty(grid.n)
        x[0] = x0
        x[1:] = x0 * np.exp(phi[0] - tail) + running

    bad = np.flatnonzero(~np.isfinite(x[1:]))
    if bad.size:
        i = int(bad[0]) + 1
        raise ValueError(f"solve_linear: solution overflowed at node {i} (t={float(grid.nodes[i])!r})")
    return th.GridFunction(grid, x)


def manufactured_rhs(grid, alpha, a):
    # right-hand side whose exact solution is sin(t):
    # g = T_alpha(sin) + sin / a**alpha
    t = grid.nodes
    return th.GridFunction(grid, t ** (1.0 - alpha) * np.cos(t) + np.sin(t) / a**alpha)


def test_initial_value_is_bitwise():
    grid = th.Grid(1.0, 2.0, 101)
    x0 = 0.1 + 0.2  # deliberately not a round binary value
    x = th.solve_linear(th.GridFunction(grid, np.sin(grid.nodes)), x0, 0.5)
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
    w = np.exp(-weight_exponent(grid.nodes, 0.5, 1.0))
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
        g = th.GridFunction(grid, np.sin(grid.nodes))
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


@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_non_finite_initial_value_is_rejected(x0):
    g = th.GridFunction.constant(th.Grid(1.0, 2.0, 11), 0.0)
    with pytest.raises(ValueError) as raised:
        th.solve_linear(g, x0, 0.5)
    assert str(raised.value) == f"initial value must be finite, got {x0!r}"


def test_residual_rejects_mismatched_grids():
    x = th.GridFunction.constant(th.Grid(1.0, 2.0, 11), 1.0)
    g = th.GridFunction.constant(th.Grid(1.0, 2.0, 21), 1.0)
    with pytest.raises(ValueError):
        th.linear_residual(x, g, 0.5)


def test_overflow_in_a_later_block_names_its_node():
    # phi = t spans 999 here, so node 57 lies in about the 9th scan block
    grid = th.Grid(1.0, 1000.0, 201)
    vals = np.zeros(201)
    vals[56] = -1e308
    vals[57] = 1e308
    with pytest.raises(ValueError, match="overflowed at node 57 "):
        th.solve_linear(th.GridFunction(grid, vals), 0.0, 1.0)


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_constant_solution_exact_across_many_blocks(alpha):
    # T/a = 1000 makes phi span hundreds, far more than one scan block
    a, c = 0.1, 3.7
    grid = th.Grid(a, 100.0, 20001)
    x = th.solve_linear(th.GridFunction.constant(grid, c / a**alpha), c, alpha)
    assert np.max(np.abs(x.values - c)) <= 1e-12


exponents = st.floats(min_value=-300.0, max_value=308.0)


@st.composite
def linear_cases(draw):
    """Grids up to T/a = 1000 and data with magnitudes from 1e-300 to 1e308."""
    a = draw(st.floats(min_value=0.05, max_value=3.0))
    ratio = draw(st.floats(min_value=1.01, max_value=1000.0))
    alpha = draw(st.floats(min_value=0.05, max_value=1.0))
    n = draw(st.integers(min_value=3, max_value=400))
    grid = th.Grid(a, a * ratio, n)
    lo = draw(exponents)
    hi = draw(st.floats(min_value=lo, max_value=308.0))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        # independent signs and magnitudes at every node
        vals = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(lo, hi, n)
    else:
        vals = 10.0**hi * np.cos(rng.uniform(0.0, 10.0) * (grid.nodes - a) / (grid.T - a))
    x0 = draw(st.sampled_from([-1.0, 0.0, 1.0])) * 10.0 ** draw(exponents)
    return th.GridFunction(grid, vals), x0, alpha


def _phi_span(case):
    g, _, alpha = case
    phi = weight_exponent(g.grid.nodes, alpha, g.grid.a)
    return float(phi[-1] - phi[0])


def test_strategy_reaches_multi_block_grids():
    case = find(linear_cases(), lambda c: _phi_span(c) > _BLOCK_SPAN, settings=settings(database=None))
    assert _phi_span(case) > _BLOCK_SPAN


def _multi_block_case(a, T, alpha, n, x0):
    grid = th.Grid(a, T, n)
    return th.GridFunction(grid, np.sin(grid.nodes) / a**alpha), x0, alpha


@settings(max_examples=400, deadline=None)
@given(case=linear_cases())
@example(case=_multi_block_case(0.05, 50.0, 1.0, 400, 1e300))
@example(case=_multi_block_case(0.1, 90.0, 0.6, 301, -2.5))
def test_scan_matches_reference_loop(case):
    g, x0, alpha = case
    event("multi-block" if _phi_span(case) > _BLOCK_SPAN else "single block")
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            ref = _reference_solve_linear(g, x0, alpha)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                th.solve_linear(g, x0, alpha)
            assert str(raised.value) == str(exc)
            return
    x = th.solve_linear(g, x0, alpha)
    assert x.values[:1].tobytes() == np.float64(x0).tobytes()
    scale = max(1.0, float(np.max(np.abs(ref.values))))
    assert np.max(np.abs(x.values - ref.values)) <= 1e-12 * scale


@settings(max_examples=300, deadline=None)
@given(case=linear_cases())
@example(case=_multi_block_case(0.05, 50.0, 1.0, 400, 1e300))
@example(case=_multi_block_case(0.1, 90.0, 0.6, 301, -2.5))
# all-negative-zero data: only the carry add of the first block makes the sum +0.0
@example(case=(th.GridFunction.constant(th.Grid(1.0, 2.0, 11), -0.0), -0.0, 0.5))
def test_scan_is_bit_identical_to_the_array_reference(case):
    g, x0, alpha = case
    event("multi-block" if _phi_span(case) > _BLOCK_SPAN else "single block")
    try:
        ref = _reference_array_scan(g, x0, alpha)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            th.solve_linear(g, x0, alpha)
        assert str(raised.value) == str(exc)
        return
    assert th.solve_linear(g, x0, alpha).values.tobytes() == ref.values.tobytes()


def _solve_each(keys, solve=th.solve_linear):
    """Solve on each (a, T, n, alpha) key in turn, on a fresh Grid every time."""
    out = []
    for a, T, n, alpha in keys:
        grid = th.Grid(a, T, n)
        g = th.GridFunction(grid, np.sin(3.0 * grid.nodes))
        out.append(solve(g, 0.25, alpha).values.tobytes())
    return out


def test_plan_cache_serves_equal_grids_and_replaces_its_entry():
    # neighbours differ in alpha only, in the interval only, or in n only
    keys = [(0.1, 60.0, 501, 0.6), (0.1, 60.0, 501, 0.9), (1.0, 2.0, 501, 0.9), (1.0, 2.0, 201, 0.9)] * 2
    _plan.cache_clear()
    interleaved = _solve_each(keys)
    cold = []
    for key in keys:
        _plan.cache_clear()
        cold += _solve_each([key])
    assert interleaved == cold == _solve_each(keys, _reference_array_scan)
    info = _plan.cache_info()
    assert info.maxsize == 3 and info.currsize == 1

    # equal-but-distinct grids hit the same entry
    _plan.cache_clear()
    _solve_each([keys[0]] * 3)
    assert _plan.cache_info().hits == 2

    # three keys in turn, as the levels of a nested Picard solve, keep
    # their entries; a cycle of four keys replaces an entry every time
    _plan.cache_clear()
    _solve_each(keys[1:4] * 3)
    assert _plan.cache_info()[:2] == (6, 3)
    _plan.cache_clear()
    _solve_each(keys)
    assert _plan.cache_info()[:2] == (0, 8)


def test_plan_arrays_are_read_only():
    plan = _plan(th.Grid(0.1, 60.0, 501), 0.6)
    assert len(plan.blocks) > 1
    arrays = [plan.em, plan.slope, plan.decay]
    for _, _, down, up, _ in plan.blocks:
        arrays += [down, up]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_overflow_leaves_the_next_solve_unchanged():
    grid = th.Grid(1.0, 1000.0, 201)
    g = th.GridFunction(grid, np.cos(grid.nodes))
    _plan.cache_clear()
    before = th.solve_linear(g, 1.5, 1.0).values.tobytes()
    vals = np.zeros(201)
    vals[56] = -1e308
    vals[57] = 1e308
    with pytest.raises(ValueError, match="overflowed at node 57 "):
        th.solve_linear(th.GridFunction(grid, vals), 0.0, 1.0)
    assert th.solve_linear(g, 1.5, 1.0).values.tobytes() == before
    _plan.cache_clear()
    assert th.solve_linear(g, 1.5, 1.0).values.tobytes() == before
