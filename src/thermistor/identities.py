"""Self-checks of the calculus identities on refinement ladders.

Four identities, each with a grid-resolution story:

* constant rule: the conformable derivative of a constant is exactly zero;
* roundtrip: differentiating the running conformable integral of ``sin``
  recovers ``sin`` at second order;
* linear residual: the closed-form linear solve's equation residual decays
  at second order;
* classical limit: at ``alpha = 1`` the conformable derivative equals
  numpy's central difference, ``np.gradient``, bitwise at the interior
  nodes.  That stencil is numpy's own, so a changed stencil here shows; the
  ends, where numpy uses another one-sided formula, are left out.

``identity_table`` evaluates all of them over an (alpha, n) lattice, one
ladder of grid sizes per alpha, and ``table_passes`` applies the acceptance
thresholds (orders >= 1.8, constant rule <= 1e-12, exact classical match).
"""

from __future__ import annotations

import math

import numpy as np

from .conformable import Grid, GridFunction, conformable_cumulative_integral, conformable_derivative
from .linear import linear_residual, solve_linear

__all__ = [
    "DEFAULT_ALPHAS",
    "DEFAULT_SIZES",
    "identity_table",
    "table_passes",
]

DEFAULT_ALPHAS = (0.3, 0.5, 0.7, 1.0)
DEFAULT_SIZES = (101, 201, 401)

CSV_COLUMNS = (
    "alpha",
    "n",
    "h",
    "constant_rule_error",
    "roundtrip_error",
    "roundtrip_order",
    "linear_residual",
    "linear_residual_order",
    "classical_match_error",
)

# fixed instances: sin is smooth, nonpolynomial, and sign-changing
_ROUNDTRIP_SPAN = (1.0, 4.0)
_LINEAR_SPAN = (1.0, 2.0)
_LINEAR_X0 = 1.0
_CONSTANT = 3.7
# each order's error column, its own column and the span of its grids
_ORDERS = (
    ("roundtrip_error", "roundtrip_order", _ROUNDTRIP_SPAN),
    ("linear_residual", "linear_residual_order", _LINEAR_SPAN),
)


def _order(err_coarse: float, err_fine: float, h_coarse: float, h_fine: float) -> float:
    if err_fine == 0.0 or err_coarse == 0.0:
        return math.inf
    return math.log(err_coarse / err_fine) / math.log(h_coarse / h_fine)


def _rung(alpha: float, n: int) -> dict[str, object]:
    """One row of the table: the four identity errors on ``n`` nodes, with
    empty order cells and, off ``alpha = 1``, an empty classical cell."""
    grid = Grid(*_ROUNDTRIP_SPAN, n)
    f = GridFunction(grid, np.sin(grid.nodes))
    recovered = conformable_derivative(conformable_cumulative_integral(f, alpha), alpha)
    constant = conformable_derivative(GridFunction.constant(grid, _CONSTANT), alpha)
    grid_lin = Grid(*_LINEAR_SPAN, n)
    g = GridFunction(grid_lin, np.sin(grid_lin.nodes))
    residual = linear_residual(solve_linear(g, _LINEAR_X0, alpha), g, alpha)
    classical = ""
    if alpha == 1.0:
        # numpy's stencil, not this package's; at the ends numpy's formula is another one
        interior = (conformable_derivative(f, 1.0).values - np.gradient(f.values, grid.h))[1:-1]
        classical = float(np.max(np.abs(interior)))
    return {
        "alpha": alpha,
        "n": n,
        "h": grid.h,
        "constant_rule_error": float(np.max(np.abs(constant.values))),
        "roundtrip_error": float(np.max(np.abs(recovered.values - f.values))),
        "roundtrip_order": "",
        "linear_residual": residual,
        "linear_residual_order": "",
        "classical_match_error": classical,
    }


def check_sizes(sizes: tuple[int, ...]) -> None:
    """Raise ValueError unless ``sizes`` are two or more distinct grid sizes."""
    if len(sizes) < 2:
        raise ValueError("identity table needs at least two grid sizes for orders")
    if len(set(sizes)) != len(sizes):
        # a repeated rung adds nothing, and next to its twin the order's log(h/h) is 0
        raise ValueError(f"identity table grid sizes must be distinct, got {tuple(sizes)}")


def identity_table(
    alphas: tuple[float, ...] = DEFAULT_ALPHAS,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
) -> list[dict[str, object]]:
    """One row per (alpha, n) with errors and empirical orders.

    Each alpha's rows are one ladder over ``sizes``; a rung's orders come
    from its errors and those of the rung before, on each identity's own
    grids.  Order cells are empty strings on the first rung of each ladder;
    the classical-match column is filled only at ``alpha = 1``.
    """
    check_sizes(sizes)
    rows: list[dict[str, object]] = []
    for alpha in alphas:
        ladder = [_rung(alpha, n) for n in sizes]
        for coarse, fine in zip(ladder, ladder[1:]):
            for error, order, span in _ORDERS:
                fine[order] = _order(coarse[error], fine[error], Grid(*span, coarse["n"]).h, Grid(*span, fine["n"]).h)
        rows += ladder
    return rows


def table_passes(rows: list[dict[str, object]]) -> bool:
    """Acceptance thresholds over a full table."""
    for row in rows:
        if row["constant_rule_error"] > 1e-12:
            return False
        for key in ("roundtrip_order", "linear_residual_order"):
            if row[key] != "" and row[key] < 1.8:
                return False
        if row["classical_match_error"] != "" and row["classical_match_error"] != 0.0:
            return False
    return True
