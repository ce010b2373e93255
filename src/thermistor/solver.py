"""Fixed-point solver for the nonlocal problem, plus an independent oracle.

The operator behind the iteration rewrites ``u^(alpha) = g(t, u)`` with a
damping term on both sides,

    K(u) = solve_linear(g(., u~) + u~ / a**alpha,  u_a),

where ``u~`` is the iterate truncated into the tube.  Fixed points inside
the tube solve the original problem.  One step, ``_k_rows``, applies K
to a ``(rows, n)`` array of iterates that share the grid, alpha and
source, through the private array cores of ``truncate``, ``evaluate_g``
and ``solve_linear``; each failure is a named error, never a numpy
warning.  ``apply_k`` is its one-row call, and one loop, ``_iterate``,
runs it: ``picard_solve`` is a batch of one row, and the CLI's sweep
passes the points of one alpha as the rows.  The loop turns numpy's
warnings off once for all its steps, and a step makes few temporaries:
``_scan`` solves in place in the right-hand side it is given, and a
source that is an ``Expr`` runs its one array mode, ``Expr.array``, as
every array caller does, which runs its per-node checks only when its
guard sum is not finite.  ``oracle_solve`` answers
the same question through a completely separate route: classical RK4 on
``u' = lambda * t**(alpha-1) * f(t, u) / D`` with the nonlocal
denominator D frozen per pass, and an outer loop that finds the D whose
trajectory reproduces it (within ``tol_fp``, relative to D when D < 1) by
a secant step kept inside a sign bracket.  Its one RK4 pass, ``_RK4_PASS``,
runs in Python floats and returns, with the trajectory, its own samples of
``f`` at the nodes, from which the next D is formed; it runs with an
expression's ``f`` inlined and unchecked, and is redone with ``f`` bound to
``f.scalar`` when it raises or its guard sum is not finite, so each pass
kept is the checked pass bit for bit.

Both solvers start by nested iteration on a ladder of levels from one
function, ``_levels``: the grids ``d * 10**k`` times coarser
(``n -> (n - 1) // (d * 10**k) + 1`` nodes), for each of a solver's
divisors ``d``, that have at least its floor of nodes.  A solver runs its
loop on each level, coarsest first, and then on its own grid, and starts
each from what the levels just below settled by one step,
``_extrapolate``: with two, the Richardson extrapolation
``x1 + c * (x1 - x2)`` with ``c = (h**2 - h1**2) / (h1**2 - h2**2)`` (0.01
at ratio 10), which cancels the O(h**2) error of the values ``x1`` and
``x2`` settled on spacings ``h1`` and ``h2``; with three, the same step
repeated, which cancels the O(h**4) error as well; with one, its value;
with none, the solver's plain start.  A level that fails settles nothing
and clears what the levels below it settled.  ``picard_solve`` settles
iterates, prolonged by ``np.interp``, on the grids 10, 100, ... times
coarser with at least 101 nodes, and nests only when there are two of
them (n >= 10001).  ``oracle_solve`` settles D on the grids 10, 50, 100,
500, ... times coarser with at least 21 nodes (n >= 201), from up to
three levels.  Each runs its levels in one loop: ``_picard_rows`` calls
``_iterate`` once per level on plain ``(rows, n)`` arrays,
``oracle_solve`` calls ``_oracle_settle``.  The oracle shares no
stencils, quadrature weights, or exponential identities with the main
path (only the ladder and the step that pick a starting value, and
``sample_source`` and ``_check_positive`` for its start and error names),
which is what makes the cross-checks in the test suite meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conformable import Grid, GridFunction, _check_integer, _derivative
from .expressions import Expr, _Body
from .model import (
    SourceBounds,
    SourcePositivityError,
    ThermistorProblem,
    _check_positive,
    _check_span,
    _g_row,
    _g_rows,
    bounds_estimate,
    sample_source,
)
from .linear import _scan
from .tube import Tube, TubeReport, _project, default_condition_tol, membership, verify_tube

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


# picard_solve's coarse levels are the _levels of these divisors and this
# floor, the grids 10, 100, ... times coarser, and it nests when there are two
# of them (n >= 10001): a step costs ~0.1 ms at any n, so a single coarse
# level did not pay below 10001 nodes (BENCH_17.json).
_PICARD_DIVISORS = (10,)
_PICARD_NEST_FLOOR = 101


class ConvergenceError(RuntimeError):
    """An iteration that must converge to be usable did not."""


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for the fixed-point iteration and the oracle.

    damping is the fraction of the new operator value mixed into the
    iterate (1.0 is the undamped map).  max_iter bounds the iterations of
    ``picard_solve`` on each grid level of its nested start, and the RK4
    passes of ``oracle_solve`` on its finest grid; the oracle's coarse
    levels get at most ``min(max_iter, 25)`` passes each.  Both check every
    iteration and pass for convergence.  tol_fp bounds the last update of
    ``picard_solve`` and the change in the oracle's D over one pass,
    ``tol_fp * min(1, D)``: absolute for ``D >= 1`` and relative below.
    grid_n sets the size of ``oracle_solve``'s finest grid and of the
    grids the CLI builds; ``picard_solve`` always runs on the tube's grid.
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
        _check_integer("max_iter", self.max_iter)
        _check_integer("grid_n", self.grid_n)
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")
        if self.grid_n < 3:
            raise ValueError(f"grid_n must be at least 3, got {self.grid_n!r}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of ``picard_solve``.

    Non-convergence is an outcome, not an exception: ``converged`` is set
    iff the final fixed-point residual dropped to ``tol_fp`` within the
    iteration budget.  ``g`` and ``residual`` are the read-only arrays that
    ``equation_residual`` gives on ``u``, ``g(t, u)`` and ``u^(alpha) - g``
    per node (both NaN where ``f`` cannot be sampled along ``u``), and
    ``ode_residual`` is the sup of ``|residual|`` over the interior nodes,
    as ``ode_residual(u, problem)`` gives it.
    """

    u: GridFunction
    iterations: int
    fp_residuals: list[float]
    converged: bool
    ode_residual: float
    member_of_tube: bool
    bounds: SourceBounds
    tube_report: TubeReport = field(repr=False)
    g: np.ndarray = field(repr=False, compare=False)
    residual: np.ndarray = field(repr=False, compare=False)


def apply_k(u: GridFunction, tube: Tube, problem: ThermistorProblem) -> GridFunction:
    """One application of the truncated, damped solution operator.

    Truncates ``u`` into the tube, forms the right-hand side
    ``g(., u~) + u~ / a**alpha``, and returns the closed-form solve with
    initial value ``u_a``.  Because truncation is idempotent bit for bit,
    ``apply_k(u) == apply_k(truncate(u))`` exactly, and the output starts
    at ``u_a`` exactly.  The one-row call of ``_k_rows``, whose errors it raises.
    """
    if u.grid != tube.grid:
        raise ValueError("apply_k: u is not on the tube's grid")
    _check_span(problem, tube.grid, "apply_k: tube grid")
    rows = (row[None] for row in (u.grid.nodes, u.values, tube.v.values, tube.M.values))
    with np.errstate(all="ignore"):
        return GridFunction(u.grid, _k_rows(problem, u.grid, *rows, problem.lam)[0])


def equation_residual(u: GridFunction, problem: ThermistorProblem) -> tuple[np.ndarray, np.ndarray]:
    """``g(t, u)`` and the per-node residual ``u^(alpha) - g(t, u)``; both are
    NaN if ``f`` cannot be sampled along ``u`` (the final iterate of a solve is
    not truncated, so it may leave the region where ``f`` is positive), but a
    grid off [a, T] raises the ValueError of ``evaluate_g``."""
    _check_span(problem, u.grid, "evaluate_g: grid")  # an error, not NaN
    try:
        g = _g_row(problem, u.grid, u.values)
    except ValueError:
        nan = np.full(u.grid.n, math.nan)
        return nan, nan
    (du,) = _derivative(u.grid, problem.alpha.value, (u.values, "conformable derivative"))
    return g, du - g


def ode_residual(u: GridFunction, problem: ThermistorProblem) -> float:
    """Sup norm of ``u^(alpha) - g(t, u)`` over the interior nodes, or NaN."""
    return _interior_sup(equation_residual(u, problem)[1])


def _interior_sup(residual: np.ndarray) -> float:
    """The sup of ``|residual|`` over the interior nodes; NaN if one is NaN."""
    return float(np.max(np.abs(residual[1:-1])))


def picard_solve(problem: ThermistorProblem, tube: Tube, opts: SolveOptions) -> SolveReport:
    """Iterate the truncated operator from the tube center.

    Starts at ``u = v``, applies
    ``u <- (1 - damping) * u + damping * K(u)`` until the sup-norm update
    drops to ``tol_fp`` or the budget runs out, then reports the final
    equation residual, tube membership (with the discretisation slack),
    and the bounds of ``f`` over the tube band (diagnostics that never
    raise).  An invalid tube does not stop the iteration; only
    ``report.tube_report.valid`` carries the verdict.

    On a grid of at least 10001 nodes the start is nested: the loop first
    runs, with no report, on each of the ``_levels`` of floor 101, coarsest
    first, in the ``np.interp`` of the tube (its radius clamped at zero),
    and the tube's grid starts from the ``_extrapolate`` step of the fixed
    points on the two levels just below, prolonged by ``np.interp``.  A row
    that raises or does not converge on a level starts the next one from
    ``v``.  The report counts the iterations on the tube's grid, and
    ``max_iter`` bounds each level.

    The solve is a batch of one row through ``_picard_rows``, the loop
    that also solves the points of a sweep together; each of those rows
    equals this function's result bit for bit.

    Raises SourcePositivityError if the source turns nonpositive along
    any truncated iterate, naming the iteration and node, and the
    ValueError of ``apply_k`` if ``g`` or a step's solve is not finite.
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
    row alone.  The rows whose tube verifies run ``_iterate`` on each
    level, coarsest first, and then on the tubes' grid, as ``picard_solve``
    says, on plain ``(rows, n)`` arrays; the reports are built last.
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
    problem, grid = problems[live[0]], tubes[live[0]].grid
    lam = np.array([[problems[i].lam] for i in live], dtype=float)
    v = np.array([tubes[i].v.values for i in live])
    m = np.array([tubes[i].M.values for i in live])
    levels = _levels(grid, _PICARD_NEST_FLOOR, _PICARD_DIVISORS)
    # per row, its settled iterates on the last one or two levels, finest first
    settled: list[list[tuple[Grid, np.ndarray]]] = [[] for _ in live]
    for level in levels if len(levels) >= 2 else []:
        v_level = np.array([np.interp(level.nodes, grid.nodes, row) for row in v])
        # np.interp gives -inf where a radius step overflows, and a radius < 0 would hang tube._project
        m_level = np.maximum([np.interp(level.nodes, grid.nodes, row) for row in m], 0.0)
        start = np.array([_from_coarse(s, level, row) for s, row in zip(settled, v_level)])
        for j, result in enumerate(_iterate(problem, level, lam, v_level, m_level, start, opts)):
            converged = isinstance(result, tuple) and result[2]
            settled[j] = [(level, result[0]), *settled[j][:1]] if converged else []
    start = np.array([_from_coarse(s, grid, row) for s, row in zip(settled, v)])
    for i, result in zip(live, _iterate(problem, grid, lam, v, m, start, opts)):
        if isinstance(result, Exception):
            outcomes[i] = result
            continue
        values, residuals, converged = result
        problem, tube = problems[i], tubes[i]
        try:
            u_i = GridFunction(tube.grid, values)
            g, residual = equation_residual(u_i, problem)
            g.flags.writeable = residual.flags.writeable = False
            outcomes[i] = SolveReport(
                u=u_i,
                iterations=len(residuals),
                fp_residuals=residuals,
                converged=converged,
                ode_residual=_interior_sup(residual),
                member_of_tube=membership(u_i, tube, default_condition_tol(tube.grid)),
                bounds=bounds_estimate(problem, tube.v, tube.M),
                tube_report=tube_reports[i],
                g=g,
                residual=residual,
            )
        except Exception as err:  # this row's outcome, as picard_solve would raise it
            outcomes[i] = err
    return outcomes


def _iterate(
    problem: ThermistorProblem, grid: Grid, lam: np.ndarray, v: np.ndarray, m: np.ndarray, u: np.ndarray, opts: SolveOptions
) -> list[tuple[np.ndarray, list[float], bool] | Exception]:
    """The Picard loop on ``grid`` for rows with couplings ``lam`` (shape
    ``(rows, 1)``), centers ``v`` and radii ``m``, from the iterates ``u``.

    Returns, per row, the last iterate, the update norms and whether the
    last one reached ``tol_fp``, or the exception that a standalone solve
    raises for the row.  The loop overwrites ``u``.

    The iterates form a ``(rows, n)`` array, and a row leaves it when it
    converges or fails.  Each step is one ``_k_rows`` call on the whole
    array; when it raises, the step is redone one row at a time through
    ``_k_rows``, which gives each row the error of its standalone solve.
    Every operation of the step acts on each row alone, so the rows' bits
    do not depend on which other rows share the array.
    """
    live = list(range(len(u)))
    # f is called with t and u of one shape, as ThermistorProblem says
    t = np.tile(grid.nodes, (len(live), 1))
    spare = np.empty_like(u)  # a step writes its iterate into spare
    residuals: list[list[float]] = [[] for _ in live]
    results: list = [None] * len(live)
    damping, tol_fp = opts.damping, opts.tol_fp

    with np.errstate(all="ignore"):
        for k in range(1, opts.max_iter + 1):
            ended = False  # whether a row finished or failed on this step
            try:
                ku = _k_rows(problem, grid, t[: len(live)], u, v, m, lam)
            except Exception:  # redone below one row at a time, outside this handler
                ku = None
            if ku is None:
                ku = np.empty_like(u)
                ended = True
                for j, i in enumerate(live):
                    row = slice(j, j + 1)
                    try:
                        ku[row] = _k_rows(problem, grid, t[:1], u[row], v[row], m[row], lam[row])
                    except SourcePositivityError as err:
                        results[i] = SourcePositivityError(f"iteration {k}: {err}", node=err.node, iteration=k)
                        results[i].__cause__ = err
                    except Exception as err:  # this row's outcome, as picard_solve would raise it
                        results[i] = err
            # ku * 1.0 is ku, so damping = 1.0 skips that pass; u * 0.0 stays, as it sets the sign of a zero
            nxt = np.multiply(u, 1.0 - damping, out=spare)
            if damping != 1.0:
                ku *= damping
            nxt += ku
            r = np.abs(np.subtract(nxt, u, out=ku), out=ku).max(axis=1).tolist()
            for j, i in enumerate(live):
                if results[i] is None:
                    residuals[i].append(r[j])
                    if r[j] <= tol_fp:
                        results[i] = (nxt[j].copy(), residuals[i], True)
                        ended = True
            if ended:
                keep = np.array([results[i] is None for i in live])
                if not keep.all():
                    live = [i for i, kept in zip(live, keep) if kept]
                    nxt, v, m, lam, u = nxt[keep], v[keep], m[keep], lam[keep], u[keep]
            u, spare = nxt, u
            if not live:
                break
    for j, i in enumerate(live):
        results[i] = (u[j], residuals[i], False)
    return results


def _from_coarse(settled: list[tuple[Grid, np.ndarray]], grid: Grid, v: np.ndarray) -> np.ndarray:
    """A row's first iterate on ``grid`` from its settled iterates on the one or two
    levels below, finest first: their ``_extrapolate`` step (``u2`` prolonged to
    the grid of ``u1``), prolonged; with none, ``v``.  Iterates are prolonged by
    ``np.interp``."""
    if not settled:
        return v
    (grid1, u1), *rest = settled
    prolonged = [(level, np.interp(grid1.nodes, level.nodes, u)) for level, u in rest]
    return np.interp(grid.nodes, grid1.nodes, _extrapolate([(grid1, u1), *prolonged], grid.h))


def _levels(grid: Grid, floor: float, divisors: tuple[int, ...]) -> list[Grid]:
    """The grids ``d * 10**k`` times coarser than ``grid`` (``n -> (n - 1) // (d * 10**k) + 1``
    nodes), for each ``d`` of the ascending ``divisors`` and ``k = 0, 1, ...``,
    that have at least ``floor`` nodes, coarsest first."""
    sizes: list[int] = []
    scale = 1
    while decade := [n for d in divisors if (n := (grid.n - 1) // (d * scale) + 1) >= floor]:
        sizes += decade
        scale *= 10
    return [Grid(grid.a, grid.T, n) for n in sorted(sizes)]


def _extrapolate(settled: list[tuple[Grid, float | np.ndarray]], h: float) -> float | np.ndarray:
    """The value at spacing ``h`` of the polynomial in ``h**2`` through the
    ``(grid, value)`` of the ``settled`` levels, finest first, with float values
    or arrays on one grid: Neville's recursion of the Richardson step
    ``x1 + c * (x1 - x2)``, ``c = (h**2 - h1**2) / (h1**2 - h2**2)``, which the
    module docstring describes.  One level gives its value."""
    spacings = [level.h for level, _ in settled]
    values = [value for _, value in settled]
    for k in range(1, len(settled)):
        values = [
            x1 + (h**2 - spacings[i] ** 2) / (spacings[i] ** 2 - spacings[i + k] ** 2) * (x1 - x2)
            for i, (x1, x2) in enumerate(zip(values, values[1:]))
        ]
    return values[0]


def _k_rows(
    problem: ThermistorProblem,
    grid: Grid,
    t: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    m: np.ndarray,
    lam: float | np.ndarray,
) -> np.ndarray:
    """``apply_k`` on each row of ``u``, with nodes ``t``, centers ``v``, radii
    ``m`` and couplings ``lam`` (shape ``(rows, 1)``).  Raises the error of
    ``_g_rows``, or that of ``_scan`` if the solve is not finite, for the
    first row that fails.  Callers turn numpy's warnings off."""
    trunc = _project(u, v, m)
    g = _g_rows(problem.f, t, trunc, lam, grid.h)
    g += trunc / (problem.a**problem.alpha.value)  # the right-hand side g + u~ / a**alpha
    return _scan(grid, problem.alpha.value, g, problem.u_a)


# The oracle settles D on the _levels of these divisors and this floor, the
# grids 10, 50, 100, 500, ... times coarser, before its own grid; a coarse
# level gets at most _COARSE_PASSES passes.
_ORACLE_DIVISORS = (10, 50)
_NEST_FLOOR = 21
_COARSE_PASSES = 25


# One RK4 pass of u' = scale * t**exponent * f(t, u) from u = yi over the steps
# that start at the times starts, each of length h, up to the last node, end.
# It returns the trajectory, one float per node; the samples of f along it, one
# per node: each step's stage-1 value and f(end, u(end)), the last sample; and
# the guard plus the last value and the last sample.  A step's stage-4 weight
# is the next step's stage-1 weight.  It runs as Expr.inlined, with f's
# float-mode code unchecked at its five calls, or with f bound to a callable
# that raises its own errors (_Body.bound).  Once a stage value is not finite,
# every later one and the last value are not either, as inf and NaN survive +
# and *; the last sample does not reach the last value, so the returned sum
# adds it too.  So a finite sum from the inlined pass means that the pass with
# f bound to f.scalar would return the same trajectory and samples and raise
# nothing.
_RK4_PASS = """\
def fn(starts, end, h, scale, exponent, yi):
    half = 0.5 * h
    sixth = h / 6.0
    traj = [yi]
    samples = []
    traj_append = traj.append
    samples_append = samples.append
    guard = 0.0
    w_start = scale * starts[0]**exponent
    for ti in starts:
        tm = ti + half
        te = ti + h
        w_mid = scale * tm**exponent
        w_end = scale * te**exponent
        s1 = f(ti, yi)
        samples_append(s1)
        k1 = w_start * s1
        y2 = yi + half * k1
        k2 = w_mid * f(tm, y2)
        y3 = yi + half * k2
        k3 = w_mid * f(tm, y3)
        y4 = yi + h * k3
        k4 = w_end * f(te, y4)
        yi = yi + sixth * (k1 + k4 + 2.0 * (k2 + k3))
        traj_append(yi)
        w_start = w_end
    last = f(end, yi)
    samples_append(last)
    return traj, samples, guard + yi + last
"""


def oracle_solve(problem: ThermistorProblem, opts: SolveOptions) -> GridFunction:
    """Reference solution by RK4 with an outer loop on the denominator D.

    Each pass integrates ``u' = lambda * t**(alpha-1) * f(t, u) / D`` from
    ``u(a) = u_a`` with classical fourth-order Runge-Kutta on a fresh
    uniform grid of ``opts.grid_n`` nodes, holding the squared integral D
    fixed, then recomputes D from the new trajectory: the square of the
    trapezoid rule, in Python floats, over the pass's own samples of ``f``,
    each step's stage-1 value and ``f`` at the last node.  A sample that is
    not positive and finite raises ``_check_positive``'s SourcePositivityError
    naming its node, and an integral of good samples that overflows gives an
    overflowed D.  The first D, from the constant ``u_a``, is the samples of
    ``sample_source``, its only call, through the same trapezoid rule.
    The trajectory is returned once its frozen D reproduces itself within
    ``tol_fp * min(1, D)``: an absolute test for ``D >= 1`` and a relative
    one below, so that a source close to zero still settles to the same
    trajectory from any start.  No conformable operators or exponential
    weights appear anywhere on this path.  A pass steps over Python floats
    and lists, and the fine grid's answer is the one array built.  When
    ``f`` is an ``Expr`` a pass runs ``f.inlined(_RK4_PASS)``, whose calls of
    ``f`` are its float-mode code without its checks, and tests the pass's
    guard sum once at the end; if that is not finite, or the pass raised,
    the same template redoes it with its calls of ``f`` running ``f.scalar``,
    which returns the same trajectory and samples or raises the failing
    node's EvalError.  A plain callable ``f`` always runs that checked pass,
    calling ``f`` on floats; it is built once per grid, on the first redo.

    The outer loop solves ``F(D) = D(traj(D)) - D = 0`` by a safeguarded
    secant method.  A sign bracket ``lo < D* < hi`` starts as ``(0, inf)``
    (F is positive for small D and negative for large D) and shrinks with
    the sign of F after every pass.  The next D is the secant step through
    the last two passes if it lies strictly inside the bracket, else the
    plain step ``D(traj(D))`` if that does, else the bracket's midpoint.
    The plain step alone diverges when ``f`` is close to zero.

    The loop starts by nested iteration: the same loop first runs on each
    of the ``_levels`` of divisors 10 and 50 and floor 21 (the grids 10,
    50, 100, 500, ... times coarser with at least 21 nodes: 21 and 101
    nodes for n = 1001, 21, 41 and 201 for n = 2001), with at most
    ``min(max_iter, 25)`` passes.  A level starts from the ``_extrapolate``
    step of the settled D of the last two or three settled levels below,
    or from the finest one's D when only it settled or the step is not
    finite and positive, and its first step is then the secant step with
    the last secant slope of that level, under the same bracket test.
    With no settled level below, the first D comes from the constant
    ``u_a`` and the first step is the plain one.  A coarse level settles
    nothing, and clears the levels settled below it, when it raises
    anything (running out of passes included), such as an EvalError at a
    stage time that no fine pass samples.  Only the fine grid's outcome is
    returned or raised.

    Raises ConvergenceError if D fails to settle within ``max_iter``
    passes, naming the last frozen D and the D its trajectory gave.  It is
    raised at once, naming the bracket, when bisection is due but the
    bracket has no midpoint strictly inside it (its ends are adjacent
    floats, or ``hi`` is still infinite): ``D(traj(D))`` then jumps across
    its root, which happens when the RK4 step is too coarse for the
    problem.  It is also raised when the first D from ``u_a`` underflows
    to 0, and when a trajectory overflows, naming the first node that is
    not finite and the frozen D.  Raises SourcePositivityError if a
    trajectory leaves the positivity region of ``f``.
    """
    grid = problem.grid(opts.grid_n)
    below: list[tuple[Grid, float]] = []  # the last one to three settled levels, finest first
    slope = (math.nan, math.nan)  # the last secant slope of below[0], as (dD, dF)
    for level in _levels(grid, _NEST_FLOOR, _ORACLE_DIVISORS):
        try:
            _, d_sq, slope = _oracle_settle(problem, level, min(opts.max_iter, _COARSE_PASSES), opts, below, slope)
            below = [(level, d_sq), *below[:2]]
        except Exception:  # a coarse level's failure; only the fine grid's is raised
            below, slope = [], (math.nan, math.nan)
    return GridFunction(grid, np.array(_oracle_settle(problem, grid, opts.max_iter, opts, below, slope)[0]))


def _oracle_settle(
    problem: ThermistorProblem,
    grid: Grid,
    max_iter: int,
    opts: SolveOptions,
    below: list[tuple[Grid, float]],
    slope: tuple[float, float],
) -> tuple[list[float], float, tuple[float, float]]:
    """The secant loop of ``oracle_solve`` on ``grid``, within ``max_iter`` passes.

    Starts from the ``(grid, D)`` of the one to three settled levels
    ``below``, finest first, and the differences ``slope = (dD, dF)`` in D
    and in ``F(D)`` that give the last secant slope of ``below[0]`` (NaN
    without one), as ``oracle_solve`` says; returns the settled trajectory,
    one float per node, its frozen D, and its own last ``slope``.  One
    closure forms and checks every D; ``sample_source`` runs only at a start.
    """
    starts = grid.nodes[:-1].tolist()  # each RK4 step's start time, as a float
    end = float(grid.nodes[-1])
    h = grid.h
    lam = problem.lam
    exponent = problem.alpha.value - 1.0
    source = problem.f
    inlined = source.inlined(_RK4_PASS) if isinstance(source, Expr) else None
    f = source.scalar if isinstance(source, Expr) else source
    checked = None  # _RK4_PASS with f bound, built on the first redo

    def denominator(u, samples: list) -> float:
        # the squared trapezoid rule in Python floats, which overflow to inf
        # and turn inf - inf into NaN without a warning (a plain f may give
        # numpy floats); _check_positive raises the named error of a sample
        # that is not positive and finite, and good samples may overflow D
        value = h * (float(sum(samples)) - 0.5 * (float(samples[0]) + float(samples[-1])))
        if not (min(samples) > 0.0 and math.isfinite(value)):
            _check_positive(grid.nodes, np.array(u), np.array(samples, dtype=float))
        return value * value

    dd, df = slope
    if below:
        d_sq = below[0][1]
        extrapolated = _extrapolate(below, h)
        if math.isfinite(extrapolated) and extrapolated > 0.0:
            d_sq = extrapolated
    else:
        constant = GridFunction.constant(grid, problem.u_a)
        d_sq = denominator(constant.values, sample_source(problem, constant).tolist())
        if not d_sq > 0.0:
            raise ConvergenceError(f"oracle denominator underflowed to D = {d_sq!r} on the start u = u_a")

    lo, hi = 0.0, math.inf
    prev_d = prev_step = math.nan
    for passes in range(1, max_iter + 1):
        args = (starts, end, h, lam / d_sq, exponent, float(problem.u_a))
        try:
            traj, samples, guard = inlined(*args) if inlined else (None, None, math.nan)
        except (ZeroDivisionError, ValueError, OverflowError):
            guard = math.nan
        if not math.isfinite(guard):  # a plain callable, or a check may fail: redo it checked
            checked = checked or _Body.bound(_RK4_PASS, f)
            traj, samples, _ = checked(*args)
        if not math.isfinite(traj[-1]):  # inf and NaN survive every later step
            i = next(i for i, y in enumerate(traj) if not math.isfinite(y))
            raise ConvergenceError(
                f"oracle trajectory overflowed at node {i} (t={float(grid.nodes[i])!r}) with D = {d_sq!r} frozen"
            )

        new_d = denominator(traj, samples)
        step = new_d - d_sq
        if passes > 1:
            dd, df = d_sq - prev_d, step - prev_step
        if abs(step) <= opts.tol_fp * min(1.0, d_sq):
            return traj, d_sq, (dd, df)
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
        f"oracle denominator did not settle within {max_iter} passes "
        f"(last D = {prev_d!r} gave D = {new_d!r})"
    )
