"""Fixed-point solver for the nonlocal problem, plus an independent oracle.

The operator behind the iteration rewrites ``u^(alpha) = g(t, u)`` with a
damping term on both sides,

    K(u) = solve_linear(g(., u~) + u~ / a**alpha,  u_a),

where ``u~`` is the iterate truncated into the tube.  Fixed points inside
the tube solve the original problem.  One loop, ``_picard_rows``, iterates
K on a ``(rows, n)`` array of iterates that share the grid, alpha and
source, through the private array cores of ``truncate``, ``evaluate_g``
and ``solve_linear``; it builds no GridFunction inside an iteration.
``picard_solve`` is a batch of one row, and the CLI's sweep passes the
points of one alpha as the rows.  ``oracle_solve`` answers the same
question through a completely separate route: classical RK4 on
``u' = lambda * t**(alpha-1) * f(t, u) / D`` with the nonlocal
denominator D frozen per pass, and an outer loop that finds the D whose
trajectory reproduces it (within ``tol_fp``, relative to D when D < 1) by a
secant step kept inside a sign bracket.  The loop starts by nested
iteration: on grids of at least 1001 nodes it first settles D on a grid 10
times coarser and starts from that D and its last secant slope, falling
back to the constant start ``u = u_a`` if the coarse loop fails.  It
shares no stencils, quadrature weights, or exponential identities with
the main path, which is what makes the cross-checks in the test suite
meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conformable import Grid, GridFunction, conformable_derivative
from .expressions import Expr
from .model import (
    SourceBounds,
    SourcePositivityError,
    ThermistorProblem,
    _g_rows,
    bounds_estimate,
    evaluate_g,
    sample_source,
)
from .linear import _plan, _scan, solve_linear
from .tube import Tube, TubeReport, _project, default_condition_tol, membership, truncate, verify_tube

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
    iterate (1.0 is the undamped map).  max_iter bounds the iterations of
    ``picard_solve`` and the RK4 passes of ``oracle_solve`` on each grid
    level of its nested start; both check every one of them for
    convergence.  tol_fp bounds the last update of ``picard_solve`` and
    the change in the oracle's D over one pass, ``tol_fp * min(1, D)``:
    absolute for ``D >= 1`` and relative below.  grid_n sets the size of
    ``oracle_solve``'s finest grid and of the grids the CLI builds;
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
        for name in ("max_iter", "grid_n"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
    rhs = GridFunction(u.grid, _rhs(problem, g.values, trunc.values))
    return solve_linear(rhs, problem.u_a, problem.alpha)


def _rhs(
    problem: ThermistorProblem, g: np.ndarray, trunc: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The right-hand side ``g + u~ / a**alpha`` that ``K`` solves with,
    written into ``out`` when given."""
    return np.add(g, trunc / (problem.a**problem.alpha.value), out=out)


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
    raise).  An invalid tube does not stop the iteration; only
    ``report.tube_report.valid`` carries the verdict.

    The solve is a batch of one row through ``_picard_rows``, the loop
    that also solves the points of a sweep together; each of those rows
    equals this function's result bit for bit.

    Raises SourcePositivityError if the source turns nonpositive along
    any truncated iterate; the error names the iteration and node.
    """
    (outcome,) = _picard_rows([problem], [tube], opts)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _picard_rows(
    problems: list[ThermistorProblem], tubes: list[Tube], opts: SolveOptions
) -> list[SolveReport | Exception]:
    """``picard_solve`` on each (problem, tube) row, iterated as one array.

    The rows must share the grid, ``alpha``, ``a``, ``T``, ``u_a`` and
    ``f``; only ``lambda``, the center and the radius vary.  Returns, per
    row, the report or the exception that ``picard_solve`` gives for that
    row alone.

    The iterates form a ``(rows, n)`` array, and a row leaves it when it
    converges or fails.  Each step runs every check of ``apply_k`` once
    over the whole array, with numpy's floating-point warnings routed to a
    flag.  When a check fails or the flag is raised, the step is redone row
    by row through ``apply_k``, which gives each row its own warnings and
    its own exception, as in a standalone solve.  Every operation of the
    step acts on each row alone, so the rows' bits do not depend on which
    other rows share the array.
    """
    outcomes: list = [None] * len(problems)
    tube_reports = {}
    for i, (problem, tube) in enumerate(zip(problems, tubes)):
        try:
            tube_reports[i] = verify_tube(tube, problem)
        except Exception as err:  # this row's outcome, as picard_solve would raise it
            outcomes[i] = err
    live = list(tube_reports)
    if not live:
        return outcomes
    problem = problems[live[0]]
    grid = tubes[live[0]].grid
    # f is called with t and u of one shape, as ThermistorProblem says
    t = np.tile(grid.nodes, (len(live), 1))
    v = np.array([tubes[i].v.values for i in live])
    u, spare = v.copy(), np.empty_like(v)  # a step writes its iterate into spare
    m = np.array([tubes[i].M.values for i in live])
    lam = np.array([[problems[i].lam] for i in live], dtype=float)
    residuals: dict[int, list[float]] = {i: [] for i in live}
    finals: dict[int, tuple[np.ndarray, bool]] = {}
    events: list = []

    def record(kind: str, flag: int) -> None:
        events.append(kind)

    for k in range(1, opts.max_iter + 1):
        with np.errstate(all="call", under="ignore", call=record):
            ku = _k_rows(problem, grid, t[: len(live)], u, v, m, lam)
            if ku is not None:
                nxt = np.multiply(u, 1.0 - opts.damping, out=spare)
                ku *= opts.damping
                nxt += ku
                r = np.max(np.abs(np.subtract(nxt, u, out=ku), out=ku), axis=1)
        if ku is None or events:
            events.clear()
            nxt, r = np.empty_like(u), np.empty(len(live))
            for j, i in enumerate(live):
                try:
                    nxt[j], r[j] = _picard_step(GridFunction(grid, u[j]), tubes[i], problems[i], opts, k)
                except Exception as err:  # this row's outcome, as picard_solve would raise it
                    outcomes[i] = err
        for j, i in enumerate(live):
            if outcomes[i] is None:
                residuals[i].append(float(r[j]))
                if r[j] <= opts.tol_fp:
                    finals[i] = (nxt[j].copy(), True)
        keep = np.array([outcomes[i] is None and i not in finals for i in live])
        if not keep.all():
            live = [i for i, kept in zip(live, keep) if kept]
            nxt, v, m, lam, u = nxt[keep], v[keep], m[keep], lam[keep], u[keep]
        u, spare = nxt, u
        if not live:
            break
    for j, i in enumerate(live):
        finals[i] = (u[j], False)

    for i, (values, converged) in finals.items():
        problem, tube = problems[i], tubes[i]
        try:
            u_i = GridFunction(tube.grid, values)
            outcomes[i] = SolveReport(
                u=u_i,
                iterations=len(residuals[i]),
                fp_residuals=residuals[i],
                converged=converged,
                ode_residual=ode_residual(u_i, problem),
                member_of_tube=membership(u_i, tube, default_condition_tol(tube.grid)),
                bounds=bounds_estimate(problem, tube.v, tube.M),
                tube_report=tube_reports[i],
            )
        except Exception as err:  # this row's outcome, as picard_solve would raise it
            outcomes[i] = err
    return outcomes


def _k_rows(
    problem: ThermistorProblem,
    grid: Grid,
    t: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    m: np.ndarray,
    lam: np.ndarray,
) -> np.ndarray | None:
    """``apply_k`` on each row of ``u``, with centers ``v``, radii ``m`` and
    couplings ``lam`` (shape ``(rows, 1)``); None when a check that
    ``apply_k`` makes fails on any row: ``f`` raises or is not positive and
    finite, ``g`` is not finite, or the solve overflows (as it does when the
    right-hand side is not finite)."""
    trunc = _project(u, v, m)
    g = _g_rows(problem.f, t, trunc, lam, grid.h)
    if g is None:
        return None
    x = _scan(_plan(grid, problem.alpha.value), _rhs(problem, g, trunc, out=g), problem.u_a)
    return x if np.isfinite(x).all() else None


def _picard_step(
    u: GridFunction, tube: Tube, problem: ThermistorProblem, opts: SolveOptions, k: int
) -> tuple[np.ndarray, float]:
    """Picard step ``k`` of one row through ``apply_k``: the next iterate and
    its update's sup norm."""
    try:
        ku = apply_k(u, tube, problem)
    except SourcePositivityError as err:
        raise SourcePositivityError(f"iteration {k}: {err}", node=err.node, iteration=k) from err
    nxt = GridFunction(u.grid, (1.0 - opts.damping) * u.values + opts.damping * ku.values)
    return nxt.values, float(np.max(np.abs(nxt.values - u.values)))


# The oracle first settles D on a grid this many times coarser, when that grid
# has at least _NEST_FLOOR nodes, and starts the finer loop from its answer.
_NEST_RATIO = 10
_NEST_FLOOR = 101


def oracle_solve(problem: ThermistorProblem, opts: SolveOptions) -> GridFunction:
    """Reference solution by RK4 with an outer loop on the denominator D.

    Each pass integrates ``u' = lambda * t**(alpha-1) * f(t, u) / D`` from
    ``u(a) = u_a`` with classical fourth-order Runge-Kutta on a fresh
    uniform grid of ``opts.grid_n`` nodes, holding the squared integral D
    fixed, then recomputes D from the new trajectory (trapezoid, with the
    positivity check).  The trajectory is returned once its frozen D
    reproduces itself within ``tol_fp * min(1, D)``: an absolute test for
    ``D >= 1`` and a relative one below, so that a source close to zero
    still settles to the same trajectory from any start.  No conformable
    operators or exponential weights appear anywhere on this path.  The
    RK4 stages call ``f.scalar`` when ``f`` is an ``Expr`` (``f`` itself
    otherwise), and step over Python floats and lists; each pass builds
    one array, for D.

    The outer loop solves ``F(D) = D(traj(D)) - D = 0`` by a safeguarded
    secant method.  A sign bracket ``lo < D* < hi`` starts as ``(0, inf)``
    (F is positive for small D and negative for large D) and shrinks with
    the sign of F after every pass.  The next D is the secant step through
    the last two passes if it lies strictly inside the bracket, else the
    plain step ``D(traj(D))`` if that does, else the bracket's midpoint.
    The plain step alone diverges when ``f`` is close to zero.

    The loop starts by nested iteration.  When a grid 10 times coarser
    (``(grid_n - 1) // 10 + 1`` nodes) has at least 101 nodes, the same
    loop runs there first, recursively, and the fine loop starts from the
    coarse grid's settled D; its first step is the secant step with the
    coarse grid's last secant slope, under the same bracket test.  If the
    coarse solve raises ConvergenceError or SourcePositivityError, or the
    coarse grid is too small, the first D comes from the constant ``u_a``
    and the first step is the plain one.  Only the fine grid's outcome is
    returned or raised.

    Raises ConvergenceError if D fails to settle within ``max_iter``
    passes, naming the last frozen D and the D its trajectory gave.  It is
    raised at once, naming the bracket, when bisection is due but the
    bracket has no midpoint strictly inside it (its ends are adjacent
    floats, or ``hi`` is still infinite): ``D(traj(D))`` then jumps across
    its root, which happens when the RK4 step is too coarse for the
    problem.  Raises SourcePositivityError if a trajectory leaves the
    positivity region of ``f``.
    """
    return _oracle_settle(problem, opts.grid_n, opts)[0]


def _oracle_settle(
    problem: ThermistorProblem, n: int, opts: SolveOptions
) -> tuple[GridFunction, float, float, float]:
    """The secant loop of ``oracle_solve`` on ``n`` nodes.

    Returns the settled trajectory, its frozen D, and the differences in D
    and in ``F(D)`` that give the last secant slope (NaN without one).
    """
    grid = problem.grid(n)
    starts = grid.nodes[:-1].tolist()  # each RK4 step's start time, as a float
    h = grid.h
    half = 0.5 * h
    lam = problem.lam
    power = problem.alpha.value - 1.0
    f = problem.f.scalar if isinstance(problem.f, Expr) else problem.f

    def denominator(u: np.ndarray) -> float:
        # squared as a Python float, which overflows to inf without a warning
        integral = float(np.trapezoid(sample_source(problem, GridFunction(grid, u)), dx=h))
        return integral * integral

    start = None
    coarse_n = (n - 1) // _NEST_RATIO + 1
    if coarse_n >= _NEST_FLOOR:
        try:
            start = _oracle_settle(problem, coarse_n, opts)
        except (ConvergenceError, SourcePositivityError):
            pass
    if start is None:
        d_sq = denominator(np.full(grid.n, problem.u_a))
        dd = df = math.nan
    else:
        _, d_sq, dd, df = start

    lo, hi = 0.0, math.inf
    prev_d = prev_step = math.nan
    for passes in range(1, opts.max_iter + 1):
        scale = lam / d_sq
        yi = float(problem.u_a)
        traj = [yi]
        for ti in starts:
            tm = ti + half
            te = ti + h
            w_mid = scale * tm**power
            k1 = scale * ti**power * f(ti, yi)
            k2 = w_mid * f(tm, yi + half * k1)
            k3 = w_mid * f(tm, yi + half * k2)
            k4 = scale * te**power * f(te, yi + h * k3)
            yi = yi + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            traj.append(yi)
        u = np.array(traj, dtype=float)

        new_d = denominator(u)
        step = new_d - d_sq
        if passes > 1:
            dd, df = d_sq - prev_d, step - prev_step
        if abs(step) <= opts.tol_fp * min(1.0, d_sq):
            return GridFunction(grid, u), d_sq, dd, df
        if step > 0.0:
            lo = d_sq
        else:
            hi = d_sq
        prev_d, prev_step = d_sq, step
        # NaN (a first pass with no coarse slope) and infinities fail the
        # strict bracket test
        secant = d_sq - step * dd / df if df != 0.0 else math.nan
        if lo < secant < hi:
            d_sq = secant
        elif lo < new_d < hi:
            d_sq = new_d
        else:
            d_sq = 0.5 * (lo + hi)
            if not lo < d_sq < hi:
                raise ConvergenceError(
                    f"oracle denominator bracket ({lo!r}, {hi!r}) collapsed after {passes} "
                    "passes without settling; a larger grid_n is the likely remedy"
                )

    raise ConvergenceError(
        f"oracle denominator did not settle within {opts.max_iter} passes "
        f"(last D = {prev_d!r} gave D = {new_d!r})"
    )
