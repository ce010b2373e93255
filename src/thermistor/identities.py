"""Self-checks of the calculus identities on refinement ladders.

Four identities, each with a grid-resolution story:

* constant rule: the derivative of a constant is exactly zero;
* roundtrip: differentiating the running integral recovers the integrand
  at second order;
* closed form: the linear solve's equation residual decays at second
  order;
* classical limit: at ``alpha = 1`` the conformable derivative equals the
  plain difference stencil output bitwise.

``identity_table`` evaluates all of them over an (alpha, n) lattice and
``table_passes`` applies the acceptance thresholds (orders >= 1.8,
constant rule <= 1e-12, exact classical match).
"""

from __future__ import annotations

import math

import numpy as np

from .conformable import Grid, GridFunction, _stencil_derivative, conformable_cumulative_integral, conformable_derivative
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


def _order(err_coarse: float, err_fine: float, h_coarse: float, h_fine: float) -> float:
    if err_fine == 0.0 or err_coarse == 0.0:
        return math.inf
    return math.log(err_coarse / err_fine) / math.log(h_coarse / h_fine)


def identity_table(
    alphas: tuple[float, ...] = DEFAULT_ALPHAS,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
) -> list[dict[str, object]]:
    """One row per (alpha, n) with errors and empirical orders.

    Order cells are empty strings on the first rung of each ladder; the
    classical-match column is filled only at ``alpha = 1``.
    """
    if len(sizes) < 2:
        raise ValueError("identity table needs at least two grid sizes for orders")
    if len(set(sizes)) != len(sizes):
        # a repeated rung adds nothing, and next to its twin the order's log(h/h) is 0
        raise ValueError(f"identity table grid sizes must be distinct, got {tuple(sizes)}")
    rows: list[dict[str, object]] = []
    for alpha in alphas:
        prev: dict[str, float] | None = None
        for n in sizes:
            grid_rt = Grid(_ROUNDTRIP_SPAN[0], _ROUNDTRIP_SPAN[1], n)
            f = GridFunction(grid_rt, np.sin(grid_rt.nodes))
            running = conformable_cumulative_integral(f, alpha)
            recovered = conformable_derivative(running, alpha)
            roundtrip_err = float(np.max(np.abs(recovered.values - f.values)))

            const = GridFunction.constant(grid_rt, _CONSTANT)
            const_err = float(np.max(np.abs(conformable_derivative(const, alpha).values)))

            grid_lin = Grid(_LINEAR_SPAN[0], _LINEAR_SPAN[1], n)
            g = GridFunction(grid_lin, np.sin(grid_lin.nodes))
            x = solve_linear(g, _LINEAR_X0, alpha)
            lin_err = linear_residual(x, g, alpha)

            classical = ""
            if alpha == 1.0:
                plain = _stencil_derivative(f.values, grid_rt.h)
                conf = conformable_derivative(f, 1.0).values
                classical = float(np.max(np.abs(conf - plain)))

            row: dict[str, object] = {
                "alpha": alpha,
                "n": n,
                "h": grid_rt.h,
                "constant_rule_error": const_err,
                "roundtrip_error": roundtrip_err,
                "roundtrip_order": "",
                "linear_residual": lin_err,
                "linear_residual_order": "",
                "classical_match_error": classical,
            }
            if prev is not None:
                row["roundtrip_order"] = _order(
                    prev["roundtrip_error"], roundtrip_err, prev["h_rt"], grid_rt.h
                )
                row["linear_residual_order"] = _order(
                    prev["linear_residual"], lin_err, prev["h_lin"], grid_lin.h
                )
            prev = {
                "roundtrip_error": roundtrip_err,
                "linear_residual": lin_err,
                "h_rt": grid_rt.h,
                "h_lin": grid_lin.h,
            }
            rows.append(row)
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
