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

import numpy as np

__all__ = [
    "Alpha",
    "Grid",
    "GridFunction",
    "conformable_cumulative_integral",
    "conformable_derivative",
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
        _check_integer("n", self.n)
        if self.n < 3:
            raise ValueError(f"grid needs at least 3 nodes, got n={self.n!r}")
        nodes = np.linspace(self.a, self.T, self.n)
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def h(self) -> float:
        """Node spacing (T - a) / (n - 1)."""
        return (self.T - self.a) / (self.n - 1)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Finite real values sampled on the nodes of a Grid; equal only to itself."""

    grid: Grid
    values: np.ndarray

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
    def constant(cls, grid: Grid, c: float) -> "GridFunction":
        return cls(grid, np.full(grid.n, float(c)))


def _check_integer(name: str, value: object) -> None:
    """Raises ValueError naming ``name`` unless ``value`` is a Python or numpy
    integer; ``bool`` is not one, as ``np.bool_`` is not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_finite(values: np.ndarray, nodes: np.ndarray, what: str) -> np.ndarray:
    """``values``, one row of nodal values or a ``(rows, n)`` array of them;
    raises ValueError naming ``what`` and the first node, in row order,
    where a value is not finite."""
    if not np.isfinite(values).all():
        i = int(np.flatnonzero(~np.isfinite(values))[0]) % values.shape[-1]
        raise ValueError(f"{what} overflowed at node {i} (t={float(nodes[i])!r})")
    return values


def _stencil_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order first derivative: central inside, one-sided at the ends.

    Every stencil is written as a combination of node differences, so
    constant data yields exactly zero at every node regardless of h.
    """
    d = np.empty_like(values)
    np.subtract(values[2:], values[:-2], out=d[1:-1])
    d[1:-1] /= 2.0 * h
    d[0] = (4.0 * (values[1] - values[0]) - (values[2] - values[0])) / (2.0 * h)
    d[-1] = (4.0 * (values[-1] - values[-2]) - (values[-1] - values[-3])) / (2.0 * h)
    return d


def conformable_derivative(u: GridFunction, alpha: Alpha | float) -> GridFunction:
    """Conformable derivative of ``u`` on its grid.

    Computes ``t**(1 - alpha)`` times the second-order finite-difference
    derivative.  Constants are annihilated exactly, and at ``alpha = 1``
    the output is bitwise identical to the plain difference stencil.
    Raises the ValueError of ``_derivative``, named "conformable
    derivative", where a difference overflows.
    """
    (d,) = _derivative(u.grid, _alpha_value(alpha), (u.values, "conformable derivative"))
    return GridFunction(u.grid, d)


def _derivative(grid: Grid, alpha: float, *named: tuple[np.ndarray, str]) -> list[np.ndarray]:
    """The nodal values of ``conformable_derivative`` of each ``(values, what)``
    in ``named``, computed with numpy's warnings off and one ``t**(1 - alpha)``;
    raises ValueError naming the first ``what``, in the order given, and the
    first node, and its ``t``, where a difference overflows."""
    out = []
    with np.errstate(all="ignore"):
        weight = np.power(grid.nodes, 1.0 - alpha)
        for values, _ in named:
            d = _stencil_derivative(values, grid.h)
            out.append(np.multiply(weight, d, out=d))
    return [_check_finite(d, grid.nodes, what) for d, (_, what) in zip(out, named)]


def trapezoid(values: np.ndarray, h: float) -> float | np.ndarray:
    """Trapezoidal rule for nodal ``values`` at uniform spacing ``h``.

    Integrates over the last axis: a float for one row of values, one
    integral per row for a ``(rows, n)`` array.
    """
    out = h * (values.sum(axis=-1) - 0.5 * (values[..., 0] + values[..., -1]))
    return float(out) if values.ndim == 1 else out


def conformable_cumulative_integral(u: GridFunction, alpha: Alpha | float) -> GridFunction:
    """Running weighted integral from the grid start to every node."""
    a = _alpha_value(alpha)
    w = u.values * np.power(u.grid.nodes, a - 1.0)
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
