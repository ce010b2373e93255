"""Shared problem builders for the test suite."""

from __future__ import annotations

import numpy as np

import thermistor as th
from thermistor.expressions import parse_expr


def ones_source(t, u):
    return np.ones_like(np.asarray(t, dtype=float) + np.asarray(u, dtype=float))


def ramp_source(t, u):
    return np.asarray(t, dtype=float) + 0.0 * np.asarray(u, dtype=float)


def sin_offset_source(t, u):
    """2 + sin(u) as a plain numpy callable rather than an ``Expr``."""
    return 2.0 + np.sin(np.asarray(u, dtype=float)) + 0.0 * np.asarray(t, dtype=float)


SIN_OFFSET = parse_expr("2 + sin(u)")


def constant_problem() -> th.ThermistorProblem:
    """f = 1 on [1, 2]: solution 2*(sqrt(t) - 1) for alpha = 1/2."""
    return th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.5), 0.0, ones_source)


def ramp_problem() -> th.ThermistorProblem:
    """f = t on [1, 3], u-independent but t-varying."""
    return th.ThermistorProblem(1.0, 3.0, 2.0, th.Alpha(0.7), 1.0, ramp_source)


def sin_problem() -> th.ThermistorProblem:
    """f = 2 + sin(u) on [1, 2]: genuinely nonlocal and u-dependent."""
    return th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.7), 0.1, SIN_OFFSET)


def u_star(grid: th.Grid) -> th.GridFunction:
    """Exact solution of the constant problem at alpha = 1/2."""
    return th.GridFunction(grid, 2.0 * (np.sqrt(grid.nodes) - 1.0))


def tube_corpus(n: int = 201) -> list[tuple[str, th.ThermistorProblem, th.Tube]]:
    """Six tubes across the three reference problems, all passing verification.

    Radii exercise three shapes: constant, linearly growing, pinched to
    zero, and (for the u-dependent source) growing like the exponential
    of the weight exponent so the boundary condition holds with room.
    """
    out = []
    p1 = constant_problem()
    g1 = p1.grid(n)
    out.append(("constant-radius", p1, th.Tube(u_star(g1), th.GridFunction.constant(g1, 0.5))))
    out.append(("growing-radius", p1,
                th.Tube(u_star(g1), th.GridFunction(g1, 0.05 + 0.2 * (g1.nodes - 1.0)))))
    out.append(("pinched", p1, th.Tube(u_star(g1), th.GridFunction.constant(g1, 0.0))))
    p2 = ramp_problem()
    g2 = p2.grid(n)
    c2 = th.closed_form_center(p2, g2)
    out.append(("ramp-constant", p2, th.Tube(c2, th.GridFunction.constant(g2, 0.4))))
    out.append(("ramp-growing", p2,
                th.Tube(c2, th.GridFunction(g2, 0.1 + 0.2 * (g2.nodes - 1.0)))))
    p3 = sin_problem()
    g3 = p3.grid(n)
    v3 = th.oracle_solve(p3, th.SolveOptions(grid_n=n))
    m3 = th.GridFunction(g3, 0.3 * np.exp((g3.nodes**0.7 - 1.0) / 0.7))
    out.append(("weighted-radius", p3, th.Tube(v3, m3)))
    return out
