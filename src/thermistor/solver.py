"""Fixed-point solver for the nonlocal problem, plus an independent oracle.

The operator behind the iteration rewrites ``u^(alpha) = g(t, u)`` with a
damping term on both sides,

    K(u) = solve_linear(g(., u~) + u~ / a**alpha,  u_a),

where ``u~`` is the iterate truncated into the tube.  Fixed points inside
the tube solve the original problem.  ``oracle_solve`` answers the same
question through a completely separate route: classical RK4 on
``u' = lambda * t**(alpha-1) * f(t, u) / D`` with the nonlocal
denominator D frozen per pass and updated in an outer loop.  It shares no
stencils, quadrature weights, or exponential identities with the main
path, which is what makes the cross-checks in the test suite meaningful.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .conformable import GridFunction, conformable_derivative
from .model import (
    SourceBounds,
    SourcePositivityError,
    ThermistorProblem,
    bounds_estimate,
    evaluate_g,
    sample_source,
)
from .linear import solve_linear
from .tube import Tube, TubeReport, default_condition_tol, membership, truncate, verify_tube

__all__ = [
    "ConvergenceError",
    "SolveOptions",
    "SolveReport",
    "apply_k",
    "equation_residual",
    "ode_residual",
    "oracle_solve",
    "picard_solve",
]


class ConvergenceError(RuntimeError):
    """An iteration that must converge to be usable did not."""


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for the fixed-point iteration and the oracle.

    damping is the fraction of the new operator value mixed into the
    iterate (1.0 is the undamped map).  grid_n sets the size of
    ``oracle_solve``'s grid and of the grids the CLI builds;
    ``picard_solve`` always runs on the tube's grid.
    """

    damping: float = 1.0
    tol_fp: float = 1e-10
    max_iter: int = 200
    grid_n: int = 101

    def __post_init__(self) -> None:
        if not (math.isfinite(self.damping) and 0.0 < self.damping <= 1.0):
            raise ValueError(f"damping must lie in (0, 1], got {self.damping!r}")
        if not (math.isfinite(self.tol_fp) and self.tol_fp > 0.0):
            raise ValueError(f"tol_fp must be positive, got {self.tol_fp!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")
        if self.grid_n < 3:
            raise ValueError(f"grid_n must be at least 3, got {self.grid_n!r}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of ``picard_solve``.

    Non-convergence is an outcome, not an exception: ``converged`` is set
    iff the final fixed-point residual dropped to ``tol_fp`` within the
    iteration budget.
    """

    u: GridFunction
    iterations: int
    fp_residuals: list[float]
    converged: bool
    ode_residual: float
    member_of_tube: bool
    bounds: SourceBounds
    tube_report: TubeReport = field(repr=False)


def apply_k(u: GridFunction, tube: Tube, problem: ThermistorProblem) -> GridFunction:
    """One application of the truncated, damped solution operator.

    Truncates ``u`` into the tube, forms the right-hand side
    ``g(., u~) + u~ / a**alpha``, and returns the closed-form solve with
    initial value ``u_a``.  Because truncation is idempotent bit for bit,
    ``apply_k(u) == apply_k(truncate(u))`` exactly, and the output starts
    at ``u_a`` exactly.
    """
    if u.grid != tube.grid:
        raise ValueError("apply_k: u is not on the tube's grid")
    if tube.grid.a != problem.a or tube.grid.T != problem.T:
        raise ValueError("apply_k: tube grid does not span the problem interval")
    trunc = truncate(u, tube)
    g = evaluate_g(problem, trunc)
    al = problem.alpha.value
    rhs = GridFunction(u.grid, g.values + trunc.values / (problem.a**al))
    return solve_linear(rhs, problem.u_a, problem.alpha)


def equation_residual(u: GridFunction, problem: ThermistorProblem) -> tuple[np.ndarray, np.ndarray]:
    """``g(t, u)`` and the per-node residual ``u^(alpha) - g(t, u)``; both are
    NaN if ``f`` cannot be sampled along ``u`` (the final iterate of a solve is
    not truncated, so it may leave the region where ``f`` is positive)."""
    try:
        g = evaluate_g(problem, u).values
    except ValueError:
        nan = np.full(u.grid.n, math.nan)
        return nan, nan
    return g, conformable_derivative(u, problem.alpha).values - g


def ode_residual(u: GridFunction, problem: ThermistorProblem) -> float:
    """Sup norm of ``u^(alpha) - g(t, u)`` over the interior nodes, or NaN."""
    return float(np.max(np.abs(equation_residual(u, problem)[1][1:-1])))


def picard_solve(problem: ThermistorProblem, tube: Tube, opts: SolveOptions) -> SolveReport:
    """Iterate the truncated operator from the tube center.

    Starts at ``u = v``, applies
    ``u <- (1 - damping) * u + damping * K(u)`` until the sup-norm update
    drops to ``tol_fp`` or the budget runs out, then reports the final
    equation residual, tube membership (with the discretisation slack),
    and the bounds of ``f`` over the tube band (diagnostics that never
    raise).  An invalid tube downgrades to a warning: the iteration
    still runs, the report carries the verdict.

    Raises SourcePositivityError if the source turns nonpositive along
    any truncated iterate; the error names the iteration and node.
    """
    grid = tube.grid
    tube_report = verify_tube(tube, problem)
    if not tube_report.valid:
        warnings.warn(
            "tube conditions not satisfied "
            f"(boundary margin {tube_report.boundary_margin!r} at node "
            f"{tube_report.boundary_node}); solving anyway",
            stacklevel=2,
        )

    u = tube.v
    residuals: list[float] = []
    converged = False
    for k in range(1, opts.max_iter + 1):
        try:
            ku = apply_k(u, tube, problem)
        except SourcePositivityError as err:
            raise SourcePositivityError(
                f"iteration {k}: {err}", node=err.node, iteration=k
            ) from err
        nxt = GridFunction(grid, (1.0 - opts.damping) * u.values + opts.damping * ku.values)
        r = float(np.max(np.abs(nxt.values - u.values)))
        residuals.append(r)
        u = nxt
        if r <= opts.tol_fp:
            converged = True
            break

    slack = default_condition_tol(grid)
    return SolveReport(
        u=u,
        iterations=len(residuals),
        fp_residuals=residuals,
        converged=converged,
        ode_residual=ode_residual(u, problem),
        member_of_tube=membership(u, tube, slack),
        bounds=bounds_estimate(problem, tube.v, tube.M),
        tube_report=tube_report,
    )


def oracle_solve(problem: ThermistorProblem, opts: SolveOptions) -> GridFunction:
    """Reference solution by RK4 with an outer frozen-denominator loop.

    Each pass integrates ``u' = lambda * t**(alpha-1) * f(t, u) / D`` from
    ``u(a) = u_a`` with classical fourth-order Runge-Kutta on a fresh
    uniform grid of ``opts.grid_n`` nodes, holding the squared integral D
    fixed; D is then recomputed from the new trajectory (trapezoid, with
    the positivity check) and the pass repeats until D moves by less than
    ``tol_fp``.  No conformable operators or exponential weights appear
    anywhere on this path.

    Raises ConvergenceError if D fails to settle within ``max_iter``
    passes, and SourcePositivityError if a trajectory leaves the
    positivity region of ``f``.
    """
    grid = problem.grid(opts.grid_n)
    t = grid.nodes
    h = grid.h
    lam = problem.lam
    al = problem.alpha.value
    f = problem.f

    u = np.full(grid.n, problem.u_a)
    d_sq = None
    for _ in range(opts.max_iter):
        integral = np.trapezoid(
            sample_source(problem, GridFunction(grid, u)), dx=h
        )
        new_d = float(integral * integral)
        if d_sq is not None and abs(new_d - d_sq) <= opts.tol_fp:
            return GridFunction(grid, u)
        d_sq = new_d

        scale = lam / d_sq

        def rate(ti: float, yi: float) -> float:
            return scale * ti ** (al - 1.0) * float(f(ti, yi))

        nxt = np.empty(grid.n)
        nxt[0] = problem.u_a
        yi = float(problem.u_a)
        for i in range(grid.n - 1):
            ti = float(t[i])
            k1 = rate(ti, yi)
            k2 = rate(ti + 0.5 * h, yi + 0.5 * h * k1)
            k3 = rate(ti + 0.5 * h, yi + 0.5 * h * k2)
            k4 = rate(ti + h, yi + h * k3)
            yi = yi + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            nxt[i + 1] = yi
        u = nxt

    raise ConvergenceError(
        f"oracle denominator did not settle within {opts.max_iter} passes "
        f"(last D = {d_sq!r})"
    )
