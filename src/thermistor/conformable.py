"""Grid types and conformable calculus primitives.

The conformable derivative of order ``alpha`` in (0, 1] acts on a function
``u`` defined for t > 0 as ``t**(1 - alpha) * u'(t)``; its inverse on
[a, t] is the weighted integral of ``u(tau) * tau**(alpha - 1)``.  Both are
realised here on uniform grids with second-order finite differences and
trapezoidal quadrature.  At ``alpha = 1`` every operation collapses to its
classical counterpart node for node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Alpha",
    "Grid",
    "GridFunction",
    "abs_alpha_derivative",
    "conformable_cumulative_integral",
    "conformable_derivative",
    "conformable_derivative_limit",
    "conformable_integral",
    "exp_weight",
    "trapezoid",
    "weight_exponent",
]


@dataclass(frozen=True)
class Alpha:
    """Derivative order, restricted to (0, 1].

    ``alpha = 1`` is admitted so classical behaviour is reachable as a
    degenerate case; orders above 1 are out of scope.
    """

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not math.isfinite(v) or not 0.0 < v <= 1.0:
            raise ValueError(f"derivative order must lie in (0, 1], got {self.value!r}")
        object.__setattr__(self, "value", v)


def _alpha_value(alpha: Alpha | float) -> float:
    """Accept either an Alpha or a bare float and return the validated order."""
    if isinstance(alpha, Alpha):
        return alpha.value
    return Alpha(alpha).value


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``n`` nodes on [a, T] with 0 < a < T and n >= 3.

    The lower endpoint must be strictly positive: every weight in this
    module involves a power of t and the closed-form solves divide by
    powers of ``a``.
    """

    a: float
    T: float
    n: int
    nodes: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.T)):
            raise ValueError("grid endpoints must be finite")
        if self.a <= 0.0:
            raise ValueError(f"grid start must be positive, got a={self.a!r}")
        if self.T <= self.a:
            raise ValueError(f"grid needs T > a, got a={self.a!r}, T={self.T!r}")
        if self.n < 3:
            raise ValueError(f"grid needs at least 3 nodes, got n={self.n!r}")
        nodes = np.linspace(self.a, self.T, self.n)
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def h(self) -> float:
        """Node spacing (T - a) / (n - 1)."""
        return (self.T - self.a) / (self.n - 1)


@dataclass(frozen=True)
class GridFunction:
    """Finite real values sampled on the nodes of a Grid."""

    grid: Grid
    values: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"expected {self.grid.n} values for this grid, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise ValueError(f"grid function has non-finite value at node {bad}")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def sample(cls, grid: Grid, fn: Callable[[np.ndarray], np.ndarray]) -> "GridFunction":
        """Sample ``fn`` (vectorised over t) on the grid nodes."""
        return cls(grid, np.asarray(fn(grid.nodes), dtype=float) * np.ones(grid.n))

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "GridFunction":
        return cls(grid, np.full(grid.n, float(c)))

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.grid, -self.values)

    def _check_same_grid(self, other: "GridFunction") -> None:
        if self.grid != other.grid:
            raise ValueError("grid functions live on different grids")


def _stencil_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order first derivative: central inside, one-sided at the ends.

    Every stencil is written as a combination of node differences, so
    constant data yields exactly zero at every node regardless of h.
    """
    d = np.empty_like(values)
    d[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    d[0] = (4.0 * (values[1] - values[0]) - (values[2] - values[0])) / (2.0 * h)
    d[-1] = (4.0 * (values[-1] - values[-2]) - (values[-1] - values[-3])) / (2.0 * h)
    return d


def conformable_derivative(u: GridFunction, alpha: Alpha | float) -> GridFunction:
    """Conformable derivative of ``u`` on its grid.

    Computes ``t**(1 - alpha)`` times the second-order finite-difference
    derivative.  Constants are annihilated exactly, and at ``alpha = 1``
    the output is bitwise identical to the plain difference stencil.
    """
    a = _alpha_value(alpha)
    d = _stencil_derivative(u.values, u.grid.h)
    return GridFunction(u.grid, np.power(u.grid.nodes, 1.0 - a) * d)


def conformable_derivative_limit(
    f: Callable[[float], float], t: float, alpha: Alpha | float, eps: float
) -> float:
    """One-sided difference quotient straight from the limit definition.

    Evaluates ``(f(t + eps * t**(1 - alpha)) - f(t)) / eps``.  Kept
    deliberately naive so it can cross-check the grid stencil; accuracy is
    only O(eps).
    """
    a = _alpha_value(alpha)
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"limit quotient needs t > 0, got {t!r}")
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"limit quotient needs eps > 0, got {eps!r}")
    shifted = float(f(t + eps * t ** (1.0 - a)))
    base = float(f(t))
    if not (math.isfinite(shifted) and math.isfinite(base)):
        raise ValueError("function returned a non-finite value in the limit quotient")
    return (shifted - base) / eps


def _node_index(grid: Grid, t: float, what: str) -> int:
    """Locate ``t`` as a grid node, rejecting anything off the lattice."""
    idx = int(round((t - grid.a) / grid.h))
    if idx < 0 or idx >= grid.n or abs(float(grid.nodes[idx]) - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"{what}={t!r} is not a node of the grid")
    return idx


def trapezoid(values: np.ndarray, h: float) -> float:
    """Trapezoidal rule for nodal ``values`` at uniform spacing ``h``."""
    return float(h * (values.sum() - 0.5 * (values[0] + values[-1])))


def _weighted_values(u: GridFunction, a: float) -> np.ndarray:
    return u.values * np.power(u.grid.nodes, a - 1.0)


def conformable_integral(
    u: GridFunction, alpha: Alpha | float, t_lo: float, t_hi: float
) -> float:
    """Weighted integral of ``u(tau) * tau**(alpha - 1)`` over [t_lo, t_hi].

    Both endpoints must be grid nodes (no interpolation) with
    ``t_lo <= t_hi``.  Uses the trapezoidal rule, so smooth integrands
    converge at second order and ``u = tau**(1 - alpha)`` integrates
    exactly to ``t_hi - t_lo``.
    """
    a = _alpha_value(alpha)
    i = _node_index(u.grid, t_lo, "t_lo")
    j = _node_index(u.grid, t_hi, "t_hi")
    if i > j:
        raise ValueError(f"integration range is reversed: t_lo={t_lo!r} > t_hi={t_hi!r}")
    if i == j:
        return 0.0
    return trapezoid(_weighted_values(u, a)[i : j + 1], u.grid.h)


def conformable_cumulative_integral(u: GridFunction, alpha: Alpha | float) -> GridFunction:
    """Running weighted integral from the grid start to every node."""
    a = _alpha_value(alpha)
    w = _weighted_values(u, a)
    panels = 0.5 * u.grid.h * (w[1:] + w[:-1])
    out = np.concatenate(([0.0], np.cumsum(panels)))
    return GridFunction(u.grid, out)


def weight_exponent(t: np.ndarray | float, alpha: Alpha | float, a: float) -> np.ndarray | float:
    """Positive exponent ``(1/alpha) * (t/a)**alpha`` of the decay weight."""
    al = _alpha_value(alpha)
    if a <= 0.0:
        raise ValueError(f"weight needs a > 0, got a={a!r}")
    ts = np.asarray(t, dtype=float)
    out = (1.0 / al) * (ts / a) ** al
    return out if ts.ndim else float(out)


def exp_weight(t: np.ndarray | float, alpha: Alpha | float, a: float) -> np.ndarray | float:
    """Decay weight ``exp(-(1/alpha) * (t/a)**alpha)``.

    Strictly decreasing in t, equal to ``exp(-1/alpha)`` at ``t = a``, and
    bounded between its endpoint values on any [a, T].
    """
    e = weight_exponent(t, alpha, a)
    out = np.exp(-np.asarray(e))
    return out if isinstance(e, np.ndarray) else float(out)


def abs_alpha_derivative(u: GridFunction, alpha: Alpha | float) -> GridFunction:
    """Conformable derivative of ``|u|`` for sign-definite nodal data.

    Returns ``u * du / |u|`` pointwise, i.e. ``sign(u)`` times the
    conformable derivative.  Any node with ``u = 0`` makes the quotient
    meaningless and is rejected.
    """
    if np.any(u.values == 0.0):
        bad = int(np.flatnonzero(u.values == 0.0)[0])
        raise ValueError(
            f"sign-degenerate input: u vanishes at node {bad} "
            f"(t={float(u.grid.nodes[bad])!r}), |u| is not differentiable there"
        )
    d = conformable_derivative(u, alpha)
    return GridFunction(u.grid, np.sign(u.values) * d.values)
