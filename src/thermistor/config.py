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
The ``[solve]`` keys are the fields of ``SolveOptions``, and each one
that is omitted keeps its default there.  Unknown keys, malformed
numbers, and expressions that fail to parse are configuration errors.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .conformable import Alpha, Grid, GridFunction
from .expressions import Expr, parse_expr
from .model import ThermistorProblem
from .solver import SolveOptions
from .tube import Tube, closed_form_center

__all__ = ["ConfigError", "LoadedConfig", "TubeSpec", "float_list", "load_config", "prefixed", "whole_number"]

_GENERATORS = ("closed_form_center",)


class ConfigError(ValueError):
    """Configuration file could not be understood."""


def prefixed(where: object, build, *args, catch: type[ValueError] = ValueError, **kwargs):
    """``build(*args, **kwargs)``, with a ``catch`` error re-raised as a
    ConfigError prefixed by ``where``, the key or flag the value came from."""
    try:
        return build(*args, **kwargs)
    except catch as err:
        raise ConfigError(f"{where}: {err}") from err


@dataclass(frozen=True)
class TubeSpec:
    """Deferred tube construction: profiles are sampled once a grid exists."""

    generator: str | None
    v_expr: Expr | None
    m_expr: Expr

    def build(self, problem: ThermistorProblem, grid: Grid) -> Tube:
        """Sample the profiles on ``grid``; errors name the [tube] key."""
        if self.generator is not None:
            v = closed_form_center(problem, grid)
        else:
            v = _sample_profile(grid, self.v_expr, "v")
        m = _sample_profile(grid, self.m_expr, "M")
        return prefixed("tube profiles are unusable", Tube, v, m)


def _sample_profile(grid: Grid, expr: Expr, key: str) -> GridFunction:
    values = prefixed(f"[tube] {key}", expr, grid.nodes, np.zeros(grid.n))
    return GridFunction(grid, np.asarray(values, dtype=float) * np.ones(grid.n))


@dataclass(frozen=True)
class LoadedConfig:
    problem: ThermistorProblem
    tube: TubeSpec | None
    options: SolveOptions
    sweep_lambdas: list[float] | None
    sweep_alphas: list[float] | None


def _known_keys(section: configparser.SectionProxy, allowed: set[str], path: Path) -> None:
    unknown = set(section.keys()) - allowed
    if unknown:
        raise ConfigError(
            f"{path}: unknown key(s) in [{section.name}]: {', '.join(sorted(unknown))}"
        )


def _get_raw(section: configparser.SectionProxy, key: str, path: Path) -> str:
    if key not in section:
        raise ConfigError(f"{path}: missing required key '{key}' in [{section.name}]")
    return section[key].strip()


def _get_float(section: configparser.SectionProxy, key: str, path: Path) -> float:
    raw = _get_raw(section, key, path)
    try:
        return float(raw)
    except ValueError as err:
        raise ConfigError(f"{path}: [{section.name}] {key} = {raw!r} is not a number") from err


def _get_expr(section: configparser.SectionProxy, key: str, path: Path, allow_u: bool) -> Expr:
    expr = prefixed(f"{path}: [{section.name}] {key}", parse_expr, _get_raw(section, key, path))
    if not allow_u and expr.uses_u:
        raise ConfigError(
            f"{path}: [{section.name}] {key} must be a function of t only, but uses u"
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


def _sweep_list(raw: str, what: str, check) -> list[float]:
    """``float_list``, with every entry passed through ``check`` so that a
    value out of range fails here, before any sweep point is solved."""
    values = float_list(raw, what)
    for value in values:
        prefixed(what, check, value)
    return values


def load_config(path: str | Path) -> LoadedConfig:
    """Read and validate a configuration file.

    Raises ConfigError on anything unreadable: a file that cannot be read
    or decoded as UTF-8, missing sections or keys, unknown keys, malformed
    numbers or expressions, tube profiles that depend on u, or sweep lists
    that are empty or hold an out-of-range lambda or alpha.
    """
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive: T and t differ
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"{path}: cannot read config: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"{path}: malformed config: {err}") from err

    for section in parser.sections():
        if section not in ("problem", "tube", "solve", "sweep"):
            raise ConfigError(f"{path}: unknown section [{section}]")

    if not parser.has_section("problem"):
        raise ConfigError(f"{path}: missing required section [problem]")
    prob = parser["problem"]
    _known_keys(prob, {"a", "T", "lambda", "alpha", "u_a", "f"}, path)
    source = _get_expr(prob, "f", path, allow_u=True)
    inconsistent = f"{path}: [problem] is inconsistent"
    a, T, lam = (_get_float(prob, key, path) for key in ("a", "T", "lambda"))
    alpha = prefixed(inconsistent, Alpha, _get_float(prob, "alpha", path))
    u_a = _get_float(prob, "u_a", path)
    problem = prefixed(
        inconsistent, ThermistorProblem, a=a, T=T, lam=lam, alpha=alpha, u_a=u_a, f=source
    )

    tube_spec: TubeSpec | None = None
    if parser.has_section("tube"):
        sect = parser["tube"]
        _known_keys(sect, {"v", "M", "generator"}, path)
        m_expr = _get_expr(sect, "M", path, allow_u=False)
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
            v_expr = _get_expr(sect, "v", path, allow_u=False)
            tube_spec = TubeSpec(generator=None, v_expr=v_expr, m_expr=m_expr)

    settings = {}
    if parser.has_section("solve"):
        sect = parser["solve"]
        _known_keys(sect, {field.name for field in fields(SolveOptions)}, path)
        for field in fields(SolveOptions):
            if field.name in sect:
                value = _get_float(sect, field.name, path)
                if isinstance(field.default, int):
                    value = whole_number(value, f"{path}: [solve] {field.name}")
                settings[field.name] = value
    options = prefixed(f"{path}: [solve] is inconsistent", SolveOptions, **settings)

    sweep_lambdas = sweep_alphas = None
    if parser.has_section("sweep"):
        sect = parser["sweep"]
        _known_keys(sect, {"lambda", "alpha"}, path)
        if "lambda" in sect:
            sweep_lambdas = _sweep_list(
                sect["lambda"], f"{path}: [sweep] lambda", lambda lam: replace(problem, lam=lam)
            )
        if "alpha" in sect:
            sweep_alphas = _sweep_list(sect["alpha"], f"{path}: [sweep] alpha", Alpha)

    return LoadedConfig(
        problem=problem,
        tube=tube_spec,
        options=options,
        sweep_lambdas=sweep_lambdas,
        sweep_alphas=sweep_alphas,
    )
