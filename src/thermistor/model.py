"""Nonlocal thermistor problem data and its right-hand side.

The model couples a pointwise source ``f(t, u)`` to the square of its own
integral over the full time window:

    u^(alpha)(t) = lambda * f(t, u(t)) / (integral_a^T f(x, u(x)) dx)**2

Everything here assumes the positivity hypothesis: ``f`` must stay
strictly positive on the trajectory, otherwise the denominator loses its
lower bound and the quotient is meaningless.  Violations are reported as
"H1 violated" errors naming the offending node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .conformable import Alpha, Grid, GridFunction, _check_finite, trapezoid
from .expressions import Expr

__all__ = [
    "SourceBounds",
    "SourcePositivityError",
    "ThermistorProblem",
    "bounds_estimate",
    "evaluate_g",
    "nonlocal_rhs",
    "sample_source",
]

SourceFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


class SourcePositivityError(ValueError):
    """The source ``f`` was sampled at or below zero somewhere."""

    def __init__(self, message: str, node: int | None = None, iteration: int | None = None):
        super().__init__(message)
        self.node = node
        self.iteration = iteration


@dataclass(frozen=True)
class ThermistorProblem:
    """One instance of the nonlocal problem on [a, T].

    Attributes:
        a: left endpoint, strictly positive.
        T: right endpoint, strictly greater than ``a``.
        lam: coupling constant, strictly positive.
        alpha: conformable derivative order in (0, 1].
        u_a: initial value at ``t = a``.
        f: source term; called with (t, u) arrays of equal shape, of
            any number of dimensions, and expected to act node by node:
            the value at a node may depend only on ``t`` and ``u`` there
            (config expressions qualify).  ``picard_solve``, ``apply_k``
            and ``evaluate_g`` pass a ``(1, n)`` array, ``sample_source``
            one row of nodes, and ``bounds_estimate`` a lattice; the CLI's
            sweep passes a ``(rows, n)`` array of iterates, one row per
            point, where a reduction such as ``u.max()`` would mix the
            points.
    """

    a: float
    T: float
    lam: float
    alpha: Alpha
    u_a: float
    f: SourceFn

    def __post_init__(self) -> None:
        if not isinstance(self.alpha, Alpha):
            object.__setattr__(self, "alpha", Alpha(self.alpha))
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"problem needs a > 0, got a={self.a!r}")
        if not (math.isfinite(self.T) and self.T > self.a):
            raise ValueError(f"problem needs T > a, got T={self.T!r}")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"problem needs lambda > 0, got {self.lam!r}")
        if not math.isfinite(self.u_a):
            raise ValueError(f"initial value must be finite, got {self.u_a!r}")

    def grid(self, n: int) -> Grid:
        return Grid(self.a, self.T, n)


def _check_span(problem: ThermistorProblem, grid: Grid, what: str) -> None:
    """Raises ValueError, "``what`` does not span the problem interval", unless ``grid`` spans [a, T]."""
    if grid.a != problem.a or grid.T != problem.T:
        raise ValueError(f"{what} does not span the problem interval")


def _source(f: SourceFn, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``f`` on the nodes ``t`` along ``u``, one row of values or a
    ``(rows, n)`` array of them, as a float array of the shape of ``u``.

    An ``Expr`` runs its one array mode, ``f.array``, without the dispatch
    of ``Expr.__call__``: every caller turns numpy's warnings off.
    """
    fv = np.asarray(f.array(t, u) if isinstance(f, Expr) else f(t, u), dtype=float)
    # broadcasting a constant or a scalar costs a pass, and an array of u's
    # shape needs none
    return fv if fv.shape == u.shape else fv * np.ones(u.shape)


def _check_positive(t: np.ndarray, u: np.ndarray, fv: np.ndarray) -> np.ndarray:
    """``fv``, the samples of ``f`` along ``u``; raises SourcePositivityError
    at the first node, in row order, where one is not positive and finite
    (NaN is neither), saying that ``f`` overflowed where the sample is inf
    and that it is zero or underflowed where the sample is +-0.0."""
    if not (fv.min() > 0.0 and fv.max() < math.inf):
        j = int(np.flatnonzero(~(fv > 0.0) | ~np.isfinite(fv))[0])
        node = j % fv.shape[-1]
        value = float(fv.flat[j])
        fault = {math.inf: "overflowed", 0.0: "is zero or underflowed"}.get(value, "must be strictly positive")
        raise SourcePositivityError(
            f"H1 violated: f(t, u) {fault}, got "
            f"f({float(t.flat[j])!r}, {float(u.flat[j])!r}) = {value!r} at node {node}",
            node=node,
        )
    return fv


def sample_source(problem: ThermistorProblem, u: GridFunction) -> np.ndarray:
    """Evaluate ``f`` along the trajectory and enforce strict positivity,
    with numpy's floating-point warnings off."""
    with np.errstate(all="ignore"):
        return _samples(problem.f, u.grid.nodes, u.values)


def _samples(f: SourceFn, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``sample_source`` on the nodes ``t`` along ``u``, one row or ``(rows, n)``:
    ``f`` sampled by ``_source``, under the caller's ``np.errstate``, and its
    samples checked by ``_check_positive``."""
    return _check_positive(t, u, _source(f, t, u))


def nonlocal_rhs(lam: float, fv: np.ndarray, integral: float | np.ndarray) -> np.ndarray:
    """The quotient ``lam * fv / integral**2``.

    ``integral`` is the unsquared integral of ``f`` over [a, T]: a scalar,
    one value per node when each node sees its own trajectory, or one per
    row (shape ``(rows, 1)``) when ``fv`` holds a row per trajectory.
    """
    return lam * fv / (integral * integral)


def evaluate_g(problem: ThermistorProblem, u: GridFunction) -> GridFunction:
    """Right-hand side ``lambda * f(t, u) / (integral_a^T f)**2`` along ``u``.

    The integral is the plain trapezoidal one, with no conformable weight.
    Scaling ``f`` by a constant ``c`` scales the output by ``1/c``: the
    numerator gains ``c`` and the squared integral gains ``c**2``.  Where
    the integral or its square overflows, ``g = 0`` exactly: the true ``g``
    is then below ``lambda * f / 1.8e308``.  Raises ValueError for a grid off
    [a, T]; otherwise the one-row call of ``_g_rows``, with numpy's
    floating-point warnings off, whose errors it raises.
    """
    _check_span(problem, u.grid, "evaluate_g: grid")
    return GridFunction(u.grid, _g_row(problem, u.grid, u.values))


def _g_row(problem: ThermistorProblem, grid: Grid, u: np.ndarray) -> np.ndarray:
    """The values of ``evaluate_g`` along the nodal values ``u`` on ``grid``,
    which the caller has checked spans [a, T]: the one-row call of
    ``_g_rows``, with numpy's warnings off, whose errors it raises."""
    with np.errstate(all="ignore"):
        return _g_rows(problem.f, grid.nodes[None], u[None], problem.lam, grid.h)[0]


def _g_rows(f: SourceFn, t: np.ndarray, u: np.ndarray, lam: float | np.ndarray, h: float) -> np.ndarray:
    """``evaluate_g`` on each row of the ``(rows, n)`` array ``u``, with
    couplings ``lam`` of shape ``(rows, 1)`` and ``t`` of the shape of ``u``.

    Raises, for the first row that fails the first check that fails, what
    ``f`` raises, SourcePositivityError if ``f`` is not positive and
    finite, or ValueError naming the node if ``g`` is not finite.  Callers
    turn numpy's warnings off, for the samples of ``f`` and so that an
    integral that overflows is inf and gives 0.
    """
    fv = _samples(f, t, u)
    g = nonlocal_rhs(lam, fv, trapezoid(fv, h)[:, None])
    return _check_finite(g, t[0], "evaluate_g: g = lambda*f/D**2")


class SourceBounds(NamedTuple):
    """Lattice bounds on ``f`` and the induced sup bound on ``g``."""

    f_min: float  # A: smallest sampled f
    f_max: float  # B: largest sampled f
    g_sup: float  # G = lambda * B / (A**2 * (T - a)**2), inf unless A > 0


_BAND_SAMPLES = 64


def bounds_estimate(problem: ThermistorProblem, v: GridFunction, M: GridFunction) -> SourceBounds:
    """Bounds of ``f`` on a lattice of the tube band ``|u - v| <= M``.

    Samples 64 evenly picked grid nodes times 64 offsets ``s * M`` with
    ``s`` in [-1, 1], and returns (A, B, G) with
    ``G = lambda * B / (A**2 * (T - a)**2)``, the crude sup bound on the
    right-hand side for trajectories inside the band.  A diagnostic only:
    it never raises, and samples with numpy's warnings off.  G is infinite
    unless A > 0 and ``A**2 * (T - a)**2`` does not underflow to 0, and G
    is 0 when that product overflows to inf (``T - a`` above about
    1.3e154).  If ``f`` fails to evaluate on the lattice every sample
    counts as NaN.
    """
    idx = np.linspace(0, v.grid.n - 1, _BAND_SAMPLES).round().astype(int)
    tt, ss = np.meshgrid(v.grid.nodes[idx], np.linspace(-1.0, 1.0, _BAND_SAMPLES))
    with np.errstate(all="ignore"):
        uu = v.values[idx] + ss * M.values[idx]
        try:
            fv = _source(problem.f, tt, uu)
        except Exception:  # a plain callable f may raise anything on the band
            fv = np.full_like(uu, math.nan)
    f_min = float(fv.min())
    f_max = float(fv.max())
    span = problem.T - problem.a
    # span * span, unlike span ** 2, overflows to inf instead of raising
    denominator = f_min * f_min * (span * span) if f_min > 0.0 else 0.0
    if not denominator > 0.0:  # the product underflows to 0 for a tiny A
        return SourceBounds(f_min, f_max, math.inf)
    return SourceBounds(f_min, f_max, problem.lam * f_max / denominator)
