"""Tube enclosures: center/radius pairs that trap solutions.

A tube is a center profile v with a nonnegative radius M on the same
grid.  A valid tube pushes the flow inward at its boundary, degenerates
to an exact solution wherever the radius pinches to zero, and contains
the initial value.  The solver only needs two cheap operations on it:
projecting an iterate into the tube and checking membership.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conformable import Grid, GridFunction, _check_finite, _derivative, conformable_cumulative_integral, trapezoid
from .model import ThermistorProblem, _check_span, _g_row, _samples, nonlocal_rhs

__all__ = [
    "Tube",
    "TubeReport",
    "closed_form_center",
    "default_condition_tol",
    "membership",
    "truncate",
    "verify_tube",
]


@dataclass(frozen=True)
class Tube:
    """Center v and radius M >= 0 on a shared grid."""

    v: GridFunction
    M: GridFunction

    def __post_init__(self) -> None:
        if self.v.grid != self.M.grid:
            raise ValueError("tube center and radius live on different grids")
        if np.any(self.M.values < 0.0):
            bad = int(np.flatnonzero(self.M.values < 0.0)[0])
            raise ValueError(f"tube radius is negative at node {bad}")

    @property
    def grid(self) -> Grid:
        return self.v.grid


def truncate(u: GridFunction, tube: Tube) -> GridFunction:
    """Project ``u`` onto the tube, node by node.

    Nodes already inside pass through bitwise unchanged, and ``u`` itself
    is returned when no node is outside.  Outside nodes are moved to the
    boundary point ``v + M * sign(u - v)``.  When that sum
    rounds outward by an ulp it is nudged back toward the center, so the
    result always satisfies ``|result - v| <= M`` exactly and the
    projection is idempotent bit for bit.
    """
    if u.grid != tube.grid:
        raise ValueError("truncate: u is not on the tube's grid")
    out = _project(u.values, tube.v.values, tube.M.values)
    return u if out is u.values else GridFunction(u.grid, out)


def _project(u: np.ndarray, v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The node-by-node projection of ``truncate`` on arrays of one shape,
    one row or ``(rows, n)``; ``u`` itself when no node is outside."""
    d = u - v
    inside = np.abs(d) <= m
    if inside.all():
        return u
    out = np.where(inside, u, v + np.clip(d, -m, m))
    over = np.abs(out - v) > m
    while np.any(over):
        out[over] = np.nextafter(out[over], v[over])
        over = np.abs(out - v) > m
    return out


def membership(u: GridFunction, tube: Tube, slack: float = 0.0) -> bool:
    """Whether ``|u - v| <= M + slack`` holds at every node."""
    if u.grid != tube.grid:
        raise ValueError("membership: u is not on the tube's grid")
    if not (math.isfinite(slack) and slack >= 0.0):
        raise ValueError(f"membership slack must be nonnegative, got {slack!r}")
    return bool(np.all(np.abs(u.values - tube.v.values) <= tube.M.values + slack))


def default_condition_tol(grid: Grid) -> float:
    """Discretisation allowance used by tube checks: 10 * h**2."""
    return 10.0 * grid.h * grid.h


@dataclass(frozen=True)
class TubeReport:
    """Worst margins of the three tube conditions (violation iff > tol).

    ``boundary_margin`` is the largest value of
    ``(y - v) * (g(t, y) - v^(alpha)) - M * M^(alpha)`` over both boundary
    sheets ``y = v +/- M``, with the nonlocal denominator recomputed for
    each node-local boundary excursion; a margin that is NaN at a node
    (``0 * inf`` where ``M = 0``, or ``g = inf / inf``) counts there as
    ``inf``.  ``pinch_margin`` is the largest residual of the degenerate
    conditions at nodes where the radius is below tol (-inf when there are
    none), and ``initial_margin`` is ``|u_a - v(a)| - M(a)``.
    """

    valid: bool
    tol: float
    boundary_ok: bool
    boundary_margin: float
    boundary_node: int
    boundary_side: int
    pinch_ok: bool
    pinch_margin: float
    pinch_node: int
    initial_ok: bool
    initial_margin: float


def verify_tube(tube: Tube, problem: ThermistorProblem) -> TubeReport:
    """Check the three tube conditions on the grid.

    Boundary condition: at every node and both boundary values
    ``y = v +/- M``, the outward component of the flow must not exceed
    the radius growth, ``(y - v)(g(t, y) - v^(alpha)) <= M * M^(alpha)``.
    Because ``g`` is nonlocal, evaluating it at an off-center ``y`` is a
    modelling choice: here the trajectory inside the integral is the
    center with the single node under test moved to ``y`` (the integral
    updates in O(1) since the trapezoidal rule is linear in nodal
    values).

    Every condition is checked at ``tol = default_condition_tol(grid)``.

    Pinch condition: wherever ``M <= tol`` the center must satisfy the
    equation (``|v^(alpha) - g(t, v)| <= tol``) and the radius must be
    stationary (``|M^(alpha)| <= tol``).

    Initial condition: ``|u_a - v(a)| <= M(a) + tol``.

    Raises ValueError if the grid does not span [a, T], a derivative
    overflows (naming "tube center derivative" or "tube radius derivative"
    and the node) or a boundary sheet does (naming "tube sheet v + M" or
    "tube sheet v - M" and the node), and SourcePositivityError if ``f`` is
    nonpositive along the center or either boundary sheet, where the
    model's hypothesis fails.
    """
    _check_span(problem, tube.grid, "tube grid")
    grid = tube.grid
    nodes = grid.nodes
    tol = default_condition_tol(grid)

    v = tube.v.values
    m = tube.M.values
    dv, dm = _derivative(grid, problem.alpha.value, (v, "tube center derivative"), (m, "tube radius derivative"))

    weights = np.full(grid.n, grid.h)
    weights[0] = weights[-1] = 0.5 * grid.h

    boundary_margin = -math.inf
    boundary_node = -1
    boundary_side = 0
    # quiet: a g that overflows is inf, and fails the boundary condition
    with np.errstate(all="ignore"):
        f_center = _samples(problem.f, nodes, v)
        base = trapezoid(f_center, grid.h)
        growth = m * dm
        for side in (1, -1):
            y = _check_finite(v + side * m, nodes, f"tube sheet v {'+' if side > 0 else '-'} M")
            f_side = _samples(problem.f, nodes, y)
            perturbed = np.subtract(f_side, f_center)
            perturbed *= weights
            perturbed += base
            margins = nonlocal_rhs(problem.lam, f_side, perturbed)  # g on this sheet
            margins -= dv
            margins *= side * m
            margins -= growth
            margins[np.isnan(margins)] = math.inf  # a violation at its own node
            worst = int(np.argmax(margins))
            if margins[worst] > boundary_margin:
                boundary_margin = float(margins[worst])
                boundary_node = worst
                boundary_side = side

        pinched = np.flatnonzero(m <= tol)
        if pinched.size:
            g_center = nonlocal_rhs(problem.lam, f_center, base)
            res = np.maximum(np.abs(dv - g_center), np.abs(dm))[pinched]
            worst = int(np.argmax(res))
            pinch_margin = float(res[worst])
            pinch_node = int(pinched[worst])
        else:
            pinch_margin = -math.inf
            pinch_node = -1

    initial_margin = abs(problem.u_a - float(v[0])) - float(m[0])

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


def closed_form_center(problem: ThermistorProblem, grid: Grid) -> GridFunction:
    """Exact-solution center for sources that do not depend on u.

    For ``f = f(t)`` the right-hand side ``g`` is a fixed function of t,
    so the solution is ``u_a`` plus the running conformable integral of
    ``g``.  The source is sampled along ``u = u_a``; with a u-dependent
    source this returns the center of the frozen-trajectory linearisation
    instead of an exact solution.
    """
    _check_span(problem, grid, "closed_form_center: grid")
    g = _g_row(problem, grid, np.full(grid.n, float(problem.u_a)))
    integral = conformable_cumulative_integral(GridFunction(grid, g), problem.alpha)
    return GridFunction(grid, problem.u_a + integral.values)

