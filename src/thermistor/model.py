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

from .conformable import Alpha, Grid, GridFunction, trapezoid

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
        f: source term; called with (t, u) arrays of equal shape and
            expected to broadcast (expression trees qualify).
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


def sample_source(problem: ThermistorProblem, u: GridFunction) -> np.ndarray:
    """Evaluate ``f`` along the trajectory and enforce strict positivity."""
    t = u.grid.nodes
    fv = np.asarray(problem.f(t, u.values), dtype=float) * np.ones(u.grid.n)
    bad = np.flatnonzero(~(fv > 0.0) | ~np.isfinite(fv))
    if bad.size:
        j = int(bad[0])
        raise SourcePositivityError(
            f"H1 violated: f(t, u) must be strictly positive, got "
            f"f({float(t[j])!r}, {float(u.values[j])!r}) = {float(fv[j])!r} at node {j}",
            node=j,
        )
    return fv


def nonlocal_rhs(lam: float, fv: np.ndarray, integral: float | np.ndarray) -> np.ndarray:
    """The quotient ``lam * fv / integral**2``.

    ``integral`` is the unsquared integral of ``f`` over [a, T]: a scalar,
    or one value per node when each node sees its own trajectory.
    """
    return lam * fv / (integral * integral)


def evaluate_g(problem: ThermistorProblem, u: GridFunction) -> GridFunction:
    """Right-hand side ``lambda * f(t, u) / (integral_a^T f)**2`` along ``u``.

    The integral is the plain trapezoidal one, with no conformable weight.
    Scaling ``f`` by a constant ``c`` scales the output by ``1/c``: the
    numerator gains ``c`` and the squared integral gains ``c**2``.
    """
    fv = sample_source(problem, u)
    return GridFunction(u.grid, nonlocal_rhs(problem.lam, fv, trapezoid(fv, u.grid.h)))


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
    it never raises.  G is infinite unless A > 0, and if ``f`` fails to
    evaluate on the lattice every sample counts as NaN.
    """
    idx = np.linspace(0, v.grid.n - 1, _BAND_SAMPLES).round().astype(int)
    tt, ss = np.meshgrid(v.grid.nodes[idx], np.linspace(-1.0, 1.0, _BAND_SAMPLES))
    uu = v.values[idx] + ss * M.values[idx]
    try:
        fv = np.asarray(problem.f(tt, uu), dtype=float) * np.ones_like(uu)
    except ValueError:
        fv = np.full_like(uu, math.nan)
    f_min = float(fv.min())
    f_max = float(fv.max())
    if not f_min > 0.0:
        return SourceBounds(f_min, f_max, math.inf)
    g_sup = problem.lam * f_max / (f_min * f_min * (problem.T - problem.a) ** 2)
    return SourceBounds(f_min, f_max, g_sup)
