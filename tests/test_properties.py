"""Randomized invariants: projection algebra, operator anchoring, scaling."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import thermistor as th

from conftest import sin_problem

N = 17
GRID = th.Grid(1.0, 2.0, N)
P3 = sin_problem()
TUBE = th.Tube(th.GridFunction.constant(GRID, 0.1), th.GridFunction.constant(GRID, 0.25))

finite_values = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
vectors = arrays(np.float64, N, elements=finite_values)
radii = arrays(np.float64, N, elements=st.floats(min_value=0.0, max_value=10.0))


@settings(max_examples=120, deadline=None)
@given(u=vectors, v=vectors, m=radii)
def test_truncation_projects_inward(u, v, m):
    tube = th.Tube(th.GridFunction(GRID, v), th.GridFunction(GRID, m))
    once = th.truncate(th.GridFunction(GRID, u), tube)
    assert np.all(np.abs(once.values - v) <= m)
    assert np.all(np.abs(once.values - v) <= np.abs(u - v))
    assert th.membership(once, tube)
    twice = th.truncate(once, tube)
    assert np.array_equal(once.values, twice.values)
    inside = np.abs(u - v) <= m
    assert np.array_equal(once.values[inside], u[inside])


@settings(max_examples=110, deadline=None)
@given(u=vectors)
def test_operator_anchors_and_factors_through_projection(u):
    raw = th.GridFunction(GRID, u)
    direct = th.apply_k(raw, TUBE, P3)
    projected = th.apply_k(th.truncate(raw, TUBE), TUBE, P3)
    assert np.array_equal(direct.values, projected.values)
    assert float(direct.values[0]) == P3.u_a


@settings(max_examples=100, deadline=None)
@given(c=st.floats(min_value=0.01, max_value=1000.0), u=vectors)
def test_g_scales_inversely_with_the_source(c, u):
    traj = th.GridFunction(GRID, u)
    base = th.evaluate_g(P3, traj)
    scaled_problem = replace(P3, f=lambda t, uu: c * P3.f(t, uu))
    scaled = th.evaluate_g(scaled_problem, traj)
    assert np.all(base.values > 0.0)
    assert np.max(np.abs(scaled.values * c - base.values) / base.values) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(
    c=st.floats(min_value=-100.0, max_value=100.0).filter(lambda x: abs(x) > 1e-6),
    alpha=st.floats(min_value=0.05, max_value=1.0),
    a=st.floats(min_value=0.5, max_value=3.0),
    span=st.floats(min_value=0.5, max_value=3.0),
)
def test_constant_solutions_survive_any_grid(c, alpha, a, span):
    grid = th.Grid(a, a + span, 33)
    g = th.GridFunction.constant(grid, c / a**alpha)
    x = th.solve_linear(g, c, alpha)
    assert np.max(np.abs(x.values - c)) <= 1e-11 * max(1.0, abs(c))
