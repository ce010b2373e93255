"""Flat sectioned key=value configuration for the command-line tools.

Example::

    [problem]
    a = 1.0
    T = 2.0
    lambda = 1.0
    alpha = 0.5
    u_a = 0.0
    f = 2 + sin(u)

    [tube]
    generator = closed_form_center
    M = 0.5

    [solve]
    grid_n = 201
    tol_fp = 1e-10

    [sweep]
    lambda = 0.5, 1.0, 2.0
    alpha = 0.5, 0.9

The tube center is either an expression in t (key ``v``) or the built-in
generator ``closed_form_center``; the radius ``M`` is an expression in t.
Unknown keys, malformed numbers, and expressions that fail to parse are
configuration errors.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conformable import Alpha, Grid, GridFunction
from .expressions import Expr, ParseError, parse_expr
from .model import SOURCE_REGISTRY, ThermistorProblem, resolve_source
from .solver import SolveOptions
from .tube import Tube, closed_form_center

__all__ = ["ConfigError", "LoadedConfig", "TubeSpec", "float_list", "load_config", "whole_number"]

_GENERATORS = ("closed_form_center",)


class ConfigError(ValueError):
    """Configuration file could not be understood."""


@dataclass(frozen=True)
class TubeSpec:
    """Deferred tube construction: profiles are sampled once a grid exists."""

    generator: str | None
    v_expr: Expr | None
    m_expr: Expr

    def build(self, problem: ThermistorProblem, grid: Grid) -> Tube:
        if self.generator is not None:
            v = closed_form_center(problem, grid)
        else:
            v = _sample_profile(grid, self.v_expr)
        m = _sample_profile(grid, self.m_expr)
        try:
            return Tube(v, m)
        except ValueError as err:
            raise ConfigError(f"tube profiles are unusable: {err}") from err


def _sample_profile(grid: Grid, expr: Expr) -> GridFunction:
    zeros = np.zeros(grid.n)
    return GridFunction(grid, np.asarray(expr(grid.nodes, zeros), dtype=float) * np.ones(grid.n))


@dataclass(frozen=True)
class LoadedConfig:
    problem: ThermistorProblem
    source_text: str
    tube: TubeSpec | None
    options: SolveOptions
    sweep_lambdas: list[float] | None
    sweep_alphas: list[float] | None


def _require(parser: configparser.ConfigParser, section: str, path: str) -> configparser.SectionProxy:
    if not parser.has_section(section):
        raise ConfigError(f"{path}: missing required section [{section}]")
    return parser[section]


def _known_keys(section: configparser.SectionProxy, name: str, allowed: set[str], path: str) -> None:
    unknown = set(section.keys()) - allowed
    if unknown:
        raise ConfigError(
            f"{path}: unknown key(s) in [{name}]: {', '.join(sorted(unknown))}"
        )


def _get_float(section: configparser.SectionProxy, name: str, key: str, path: str) -> float:
    if key not in section:
        raise ConfigError(f"{path}: missing required key '{key}' in [{name}]")
    raw = section[key].strip()
    try:
        return float(raw)
    except ValueError as err:
        raise ConfigError(f"{path}: [{name}] {key} = {raw!r} is not a number") from err


def _get_expr(raw: str, name: str, key: str, path: str, allow_u: bool) -> Expr:
    try:
        expr = parse_expr(raw)
    except ParseError as err:
        raise ConfigError(f"{path}: [{name}] {key}: {err}") from err
    if not allow_u and expr.uses_u:
        raise ConfigError(
            f"{path}: [{name}] {key} must be a function of t only, but uses u"
        )
    return expr


def float_list(raw: str, what: str) -> list[float]:
    """Parse a comma list of numbers; ``what`` names the key or flag in errors."""
    items = [piece.strip() for piece in raw.split(",")]
    if items == [""]:
        raise ConfigError(f"{what} is an empty list")
    out = []
    for piece in items:
        if not piece:
            raise ConfigError(f"{what} has an empty entry")
        try:
            out.append(float(piece))
        except ValueError as err:
            raise ConfigError(f"{what} entry {piece!r} is not a number") from err
    return out


def whole_number(value: float, what: str) -> int:
    """Convert a count to int, refusing fractions rather than truncating them."""
    if not value.is_integer():
        raise ConfigError(f"{what}: {value!r} is not a whole number")
    return int(value)


def load_config(path: str | Path) -> LoadedConfig:
    """Read and validate a configuration file.

    Raises ConfigError on anything unreadable: missing sections or keys,
    unknown keys, malformed numbers or expressions, tube profiles that
    depend on u, or empty sweep lists.
    """
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive: T and t differ
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as err:
        raise ConfigError(f"{path}: cannot read config: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"{path}: malformed config: {err}") from err

    for section in parser.sections():
        if section not in ("problem", "tube", "solve", "sweep"):
            raise ConfigError(f"{path}: unknown section [{section}]")

    prob = _require(parser, "problem", str(path))
    _known_keys(prob, "problem", {"a", "T", "lambda", "alpha", "u_a", "f"}, str(path))
    if "f" not in prob:
        raise ConfigError(f"{path}: missing required key 'f' in [problem]")
    source_text = prob["f"].strip()
    if source_text not in SOURCE_REGISTRY:
        # parse errors surface now, with positions, rather than mid-solve
        _get_expr(source_text, "problem", "f", str(path), allow_u=True)
    try:
        problem = ThermistorProblem(
            a=_get_float(prob, "problem", "a", str(path)),
            T=_get_float(prob, "problem", "T", str(path)),
            lam=_get_float(prob, "problem", "lambda", str(path)),
            alpha=Alpha(_get_float(prob, "problem", "alpha", str(path))),
            u_a=_get_float(prob, "problem", "u_a", str(path)),
            f=resolve_source(source_text),
        )
    except ValueError as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"{path}: [problem] is inconsistent: {err}") from err

    tube_spec: TubeSpec | None = None
    if parser.has_section("tube"):
        sect = parser["tube"]
        _known_keys(sect, "tube", {"v", "M", "generator"}, str(path))
        if "M" not in sect:
            raise ConfigError(f"{path}: missing required key 'M' in [tube]")
        m_expr = _get_expr(sect["M"].strip(), "tube", "M", str(path), allow_u=False)
        has_v = "v" in sect
        has_gen = "generator" in sect
        if has_v == has_gen:
            raise ConfigError(
                f"{path}: [tube] needs exactly one of 'v' (expression) or 'generator'"
            )
        if has_gen:
            gen = sect["generator"].strip()
            if gen not in _GENERATORS:
                raise ConfigError(
                    f"{path}: [tube] generator {gen!r} is not one of {_GENERATORS}"
                )
            tube_spec = TubeSpec(generator=gen, v_expr=None, m_expr=m_expr)
        else:
            v_expr = _get_expr(sect["v"].strip(), "tube", "v", str(path), allow_u=False)
            tube_spec = TubeSpec(generator=None, v_expr=v_expr, m_expr=m_expr)

    defaults = SolveOptions()
    damping, tol_fp = defaults.damping, defaults.tol_fp
    max_iter, grid_n = defaults.max_iter, defaults.grid_n
    if parser.has_section("solve"):
        sect = parser["solve"]
        _known_keys(sect, "solve", {"damping", "tol_fp", "max_iter", "grid_n"}, str(path))
        if "damping" in sect:
            damping = _get_float(sect, "solve", "damping", str(path))
        if "tol_fp" in sect:
            tol_fp = _get_float(sect, "solve", "tol_fp", str(path))
        if "max_iter" in sect:
            max_iter = whole_number(
                _get_float(sect, "solve", "max_iter", str(path)), f"{path}: [solve] max_iter"
            )
        if "grid_n" in sect:
            grid_n = whole_number(
                _get_float(sect, "solve", "grid_n", str(path)), f"{path}: [solve] grid_n"
            )
    try:
        options = SolveOptions(damping=damping, tol_fp=tol_fp, max_iter=max_iter, grid_n=grid_n)
    except ValueError as err:
        raise ConfigError(f"{path}: [solve] is inconsistent: {err}") from err

    sweep_lambdas = sweep_alphas = None
    if parser.has_section("sweep"):
        sect = parser["sweep"]
        _known_keys(sect, "sweep", {"lambda", "alpha"}, str(path))
        if "lambda" in sect:
            sweep_lambdas = float_list(sect["lambda"], f"{path}: [sweep] lambda")
        if "alpha" in sect:
            sweep_alphas = float_list(sect["alpha"], f"{path}: [sweep] alpha")

    return LoadedConfig(
        problem=problem,
        source_text=source_text,
        tube=tube_spec,
        options=options,
        sweep_lambdas=sweep_lambdas,
        sweep_alphas=sweep_alphas,
    )
