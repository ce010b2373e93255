"""Closed-form solution of the damped linear conformable equation.

``solve_linear`` evaluates the variation-of-constants formula for

    x^(alpha)(t) + x(t) / a**alpha = g(t),   x(a) = x0,

whose solution is the decay weight ``exp(-(1/alpha)(t/a)**alpha)`` times
the weighted running integral of ``g`` against the reciprocal weight.
The running integral is a first-order linear recurrence over panels of
``g`` interpolated linearly in the weight exponent.  It is evaluated as a
prefix scan (a ``cumsum``), re-based at each block's top exponent, in
O(n) array passes.
"""

from __future__ import annotations

import math

import numpy as np

from .conformable import Alpha, GridFunction, _alpha_value, conformable_derivative, weight_exponent

__all__ = ["solve_linear", "linear_residual"]

# Growth of the weight exponent within one scan block: every rescaling
# factor exp(top - phi) stays below exp(32) ~ 8e13, far from overflow.
_BLOCK_SPAN = 32.0


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

    Args:
        g: right-hand side sampled on the grid.
        x0: initial value at ``t = a``; returned bit-for-bit at node 0.
        alpha: derivative order.

    Returns:
        The solution as a GridFunction on the same grid.

    Raises:
        ValueError: if the solution stops being finite (the first
            offending node is named).
    """
    grid = g.grid
    al = _alpha_value(alpha)
    a = grid.a

    phi = np.asarray(weight_exponent(grid.nodes, al, a), dtype=float)
    tail = phi[1:]
    # Overflow shows up as inf or nan in x and is reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        # G is g rescaled so that d(phi) absorbs the t**(alpha-1) integration weight.
        big_g = (a**al) * g.values
        delta = np.diff(phi)
        em = np.expm1(-delta)  # exp(-delta) - 1, exact near zero
        # integral over each panel of (linear G in phi) * exp(phi - phi_{i+1})
        slope_term = ((delta + 1.0) * em + delta) / delta
        panel = -big_g[1:] * em + np.diff(big_g) * slope_term

        running = np.empty(grid.n - 1)
        carry = 0.0
        start = 0
        while start < tail.size:
            stop = np.searchsorted(tail, tail[start] + _BLOCK_SPAN, side="right")
            top = tail[stop - 1]
            block = tail[start:stop]
            scan = np.cumsum(panel[start:stop] * np.exp(block - top))
            scan += carry * math.exp(phi[start] - top)
            running[start:stop] = scan * np.exp(top - block)
            carry = running[stop - 1]
            start = stop
        x = np.empty(grid.n)
        x[0] = x0
        x[1:] = x0 * np.exp(phi[0] - tail) + running

    bad = np.flatnonzero(~np.isfinite(x[1:]))
    if bad.size:
        i = int(bad[0]) + 1
        raise ValueError(f"solve_linear: solution overflowed at node {i} (t={float(grid.nodes[i])!r})")
    return GridFunction(grid, x)


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
