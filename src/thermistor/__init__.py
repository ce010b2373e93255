"""Conformable-calculus solver for a nonlocal thermistor model.

The package is organised around small, separately testable pieces:

* :mod:`thermistor.conformable` - grids and the weighted derivative and
  integral operators;
* :mod:`thermistor.linear` - closed-form solve of the damped linear
  equation;
* :mod:`thermistor.model` - the nonlocal problem and its right-hand side;
* :mod:`thermistor.tube` - enclosure profiles, their verification, and
  the projection used by the solver;
* :mod:`thermistor.solver` - the fixed-point iteration and an RK4-based
  reference oracle;
* :mod:`thermistor.expressions` - the expression language used in
  configuration files;
* :mod:`thermistor.config` - the configuration file loader;
* :mod:`thermistor.identities` - self-checks of the calculus identities;
* :mod:`thermistor.cli` - the ``thermistor`` command.
"""

from .conformable import (
    Alpha,
    Grid,
    GridFunction,
    conformable_cumulative_integral,
    conformable_derivative,
)
from .expressions import EvalError, ParseError, parse_expr
from .linear import linear_residual, solve_linear
from .model import (
    SourceBounds,
    SourcePositivityError,
    ThermistorProblem,
    bounds_estimate,
    evaluate_g,
)
from .solver import (
    ConvergenceError,
    SolveOptions,
    SolveReport,
    apply_k,
    ode_residual,
    oracle_solve,
    picard_solve,
)
from .tube import (
    Tube,
    TubeReport,
    closed_form_center,
    membership,
    truncate,
    verify_tube,
)

__all__ = [
    "Alpha",
    "ConvergenceError",
    "EvalError",
    "Grid",
    "GridFunction",
    "ParseError",
    "SolveOptions",
    "SolveReport",
    "SourceBounds",
    "SourcePositivityError",
    "ThermistorProblem",
    "Tube",
    "TubeReport",
    "apply_k",
    "bounds_estimate",
    "closed_form_center",
    "conformable_cumulative_integral",
    "conformable_derivative",
    "evaluate_g",
    "linear_residual",
    "membership",
    "ode_residual",
    "oracle_solve",
    "parse_expr",
    "picard_solve",
    "solve_linear",
    "truncate",
    "verify_tube",
]

__version__ = "0.1.0"
