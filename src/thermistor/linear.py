"""Closed-form solution of the damped linear conformable equation.

``solve_linear`` evaluates the variation-of-constants formula for

    x^(alpha)(t) + x(t) / a**alpha = g(t),   x(a) = x0,

whose solution is the decay weight ``exp(-(1/alpha)(t/a)**alpha)`` times
the weighted running integral of ``g`` against the reciprocal weight.
"""

from __future__ import annotations

import math

import numpy as np

from .conformable import Alpha, GridFunction, _alpha_value, conformable_derivative, weight_exponent

__all__ = ["solve_linear", "linear_residual"]


def solve_linear(g: GridFunction, x0: float, alpha: Alpha | float) -> GridFunction:
    """Solve ``x^(alpha) + x / a**alpha = g`` with ``x(a) = x0`` on the grid.

    The weight ratio between any two nodes is formed as a single
    exponential of the exponent difference, so it never overflows even
    when the exponents themselves are large.  The running integral is
    accumulated node to node in O(n): writing ``phi`` for the weight
    exponent, each panel integrates ``G(phi) * exp(phi)`` with ``G``
    interpolated linearly in ``phi``.  That rule is second order for
    smooth ``g`` and reproduces constant solutions (``g = c / a**alpha``,
    ``x0 = c``) to rounding, because constants make the panel exact.

    Args:
        g: right-hand side sampled on the grid.
        x0: initial value at ``t = a``; returned bit-for-bit at node 0.
        alpha: derivative order.

    Returns:
        The solution as a GridFunction on the same grid.

    Raises:
        ValueError: if the accumulated solution stops being finite (the
            offending node is named).
    """
    grid = g.grid
    al = _alpha_value(alpha)
    a = grid.a

    phi = np.asarray(weight_exponent(grid.nodes, al, a), dtype=float)
    # G is g rescaled so that d(phi) absorbs the t**(alpha-1) integration weight.
    big_g = (a**al) * g.values

    x = np.empty(grid.n)
    x[0] = x0
    phis = phi.tolist()
    gs = big_g.tolist()
    running = 0.0
    for i in range(grid.n - 1):
        delta = phis[i + 1] - phis[i]
        em = math.expm1(-delta)  # exp(-delta) - 1, exact near zero
        decay = em + 1.0
        # integral over the panel of (linear G in phi) * exp(phi - phi_{i+1})
        slope_term = ((delta + 1.0) * em + delta) / delta
        panel = -gs[i + 1] * em + (gs[i + 1] - gs[i]) * slope_term
        running = running * decay + panel
        x[i + 1] = x0 * math.exp(phis[0] - phis[i + 1]) + running
        if not math.isfinite(x[i + 1]):
            raise ValueError(
                f"solve_linear: solution overflowed at node {i + 1} "
                f"(t={float(grid.nodes[i + 1])!r})"
            )
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
