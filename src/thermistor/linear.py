"""Closed-form solution of the damped linear conformable equation.

``solve_linear`` evaluates the variation-of-constants formula for

    x^(alpha)(t) + x(t) / a**alpha = g(t),   x(a) = x0,

whose solution is the decay weight ``exp(-(1/alpha)(t/a)**alpha)`` times
the weighted running integral of ``g`` against the reciprocal weight.
The running integral is a first-order linear recurrence over panels of
``g`` interpolated linearly in the weight exponent.  It is evaluated as a
prefix scan (a ``cumsum``), re-based at each block's top exponent, in
O(n) array passes.

The solve has two parts.  ``_plan`` builds everything that depends only
on the grid and ``alpha`` (the panel weights, the scan blocks with their
rescaling factors, and the decay of ``x0``) as read-only arrays, and
keeps the last three plans in a cache: the Picard iteration solves on one
grid and order many times in a row, and a nested Picard solve runs on
three grids in turn from 10001 nodes.  ``_scan`` does the work that depends
on ``g``, one row or a ``(rows, n)`` array, in place in the array it is
given, and names a node that overflows.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .conformable import Alpha, Grid, GridFunction, _alpha_value, _check_finite, conformable_derivative, weight_exponent

__all__ = ["solve_linear", "linear_residual"]

# Growth of the weight exponent within one scan block: every rescaling
# factor exp(top - phi) stays below exp(32) ~ 8e13, far from overflow.
_BLOCK_SPAN = 32.0


class _Plan(NamedTuple):
    """The grid-only part of a solve; every array is read-only."""

    scale: float  # a**alpha
    em: np.ndarray  # expm1(-delta) per panel
    slope: np.ndarray  # ((delta + 1) * em + delta) / delta per panel
    # per block: (start, stop, exp(block - top), exp(top - block), exp(phi[start] - top))
    blocks: tuple[tuple[int, int, np.ndarray, np.ndarray, float], ...]
    decay: np.ndarray  # exp(phi[0] - phi[1:])


def _frozen(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@functools.lru_cache(maxsize=3)
def _plan(grid: Grid, al: float) -> _Plan:
    """Panel weights, scan blocks and decay for ``grid`` and order ``al``."""
    a = grid.a
    phi = np.asarray(weight_exponent(grid.nodes, al, a), dtype=float)
    tail = phi[1:]
    # Non-finite weights show up as inf or nan in x and are reported there;
    # each array is made once and then updated in place.
    with np.errstate(over="ignore", invalid="ignore"):
        delta = np.subtract(tail, phi[:-1])
        em = np.negative(delta)
        np.expm1(em, out=em)  # exp(-delta) - 1, exact near zero
        # integral over each panel of (linear G in phi) * exp(phi - phi_{i+1})
        slope = np.add(delta, 1.0)
        slope *= em
        slope += delta
        slope /= delta
        blocks = []
        start = 0
        while start < tail.size:
            stop = int(np.searchsorted(tail, tail[start] + _BLOCK_SPAN, side="right"))
            top = tail[stop - 1]
            block = tail[start:stop]
            down = np.subtract(block, top)
            np.exp(down, out=down)
            up = np.subtract(top, block)
            np.exp(up, out=up)
            blocks.append((start, stop, _frozen(down), _frozen(up), math.exp(phi[start] - top)))
            start = stop
        decay = np.subtract(phi[0], tail)
        np.exp(decay, out=decay)
    return _Plan(a**al, _frozen(em), _frozen(slope), tuple(blocks), _frozen(decay))


def _scan(grid: Grid, al: float, g_values: np.ndarray, x0: float) -> np.ndarray:
    """``solve_linear`` on ``grid`` at order ``al``, through the cached ``_plan``, for
    each row of ``g_values``, which it overwrites with the solution; raises
    ValueError naming the first node, in row order, where the solution is not
    finite.  Callers turn numpy's warnings off."""
    plan = _plan(grid, al)
    # G is g rescaled so that d(phi) absorbs the t**(alpha-1) integration weight.
    big_g = np.multiply(g_values, plan.scale, out=g_values)
    panel = np.subtract(big_g[..., 1:], big_g[..., :-1])
    panel *= plan.slope
    head = big_g[..., 1:]
    head *= plan.em
    panel -= head
    carry = 0.0
    for start, stop, down, up, rebase in plan.blocks:
        scan = panel[..., start:stop]
        scan *= down
        np.cumsum(scan, axis=-1, out=scan)
        scan += carry * rebase
        scan *= up
        carry = scan[..., -1:]
    x = big_g  # spent; its buffer takes the solution
    x[..., 0] = x0
    np.multiply(plan.decay, x0, out=x[..., 1:])
    x[..., 1:] += panel
    return _check_finite(x, grid.nodes, "solve_linear: solution")


def solve_linear(g: GridFunction, x0: float, alpha: Alpha | float) -> GridFunction:
    """Solve ``x^(alpha) + x / a**alpha = g`` with ``x(a) = x0`` on the grid.

    Writing ``phi`` for the weight exponent, each panel integrates
    ``G(phi) * exp(phi)`` with ``G`` interpolated linearly in ``phi``.
    That rule is second order for smooth ``g`` and reproduces constant
    solutions (``g = c / a**alpha``, ``x0 = c``) to rounding, because
    constants make the panel exact.

    The running integral at node ``k`` is
    ``sum_{j<k} panel[j] * exp(phi[j+1] - phi[k])``, a prefix scan.  It is
    summed with ``cumsum`` in blocks over which ``phi`` grows by at most
    ``_BLOCK_SPAN``.  Each block is re-based at its top exponent, so every
    scaled term ``panel * exp(phi - top)`` shrinks and nothing overflows
    that the exact sum would not; a scalar carry crosses block boundaries.

    The weights, blocks and rescaling factors depend only on the grid and
    ``alpha``.  They come from ``_plan``, which caches the last three
    ``(grid, alpha)`` it built (grids compare by ``(a, T, n)``), so
    repeated solves on one grid and order pay only for the scan.

    Args:
        g: right-hand side sampled on the grid.
        x0: initial value at ``t = a``; returned bit-for-bit at node 0.
        alpha: derivative order.

    Returns:
        The solution as a GridFunction on the same grid.

    Raises:
        ValueError: if ``x0`` is not finite, or the error of ``_scan`` if
            the solution stops being finite (the first offending node is
            named).
    """
    if not math.isfinite(x0):
        raise ValueError(f"initial value must be finite, got {x0!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        return GridFunction(g.grid, _scan(g.grid, _alpha_value(alpha), g.values.copy(), x0))


def linear_residual(x: GridFunction, g: GridFunction, alpha: Alpha | float) -> float:
    """Sup norm of ``x^(alpha) + x / a**alpha - g`` over the interior nodes.

    The endpoints use one-sided stencils with a different error constant,
    so they are excluded; interior decay of this residual at second order
    is the acceptance yardstick for ``solve_linear``.
    """
    if x.grid != g.grid:
        raise ValueError("linear_residual: x and g live on different grids")
    al = _alpha_value(alpha)
    d = conformable_derivative(x, al)
    res = d.values + x.values / (x.grid.a**al) - g.values
    return float(np.max(np.abs(res[1:-1])))
