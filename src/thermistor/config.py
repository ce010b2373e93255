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
that is omitted keeps its default there.  Values are read literally, with
no ``%`` interpolation.  Unknown keys, malformed numbers, and expressions
that fail to parse are configuration errors.
Each error names its key or section; ``load_config`` adds the file's
path in front once, for every section.
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
    ConfigError prefixed by ``where``: the key or flag the value came
    from, or the config path, which ``load_config`` adds once."""
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


def _known_keys(section: configparser.SectionProxy, allowed: set[str]) -> None:
    unknown = set(section.keys()) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in [{section.name}]: {', '.join(sorted(unknown))}")


def _get_raw(section: configparser.SectionProxy, key: str) -> str:
    if key not in section:
        raise ConfigError(f"missing required key '{key}' in [{section.name}]")
    return section[key].strip()


def _get_float(section: configparser.SectionProxy, key: str) -> float:
    raw = _get_raw(section, key)
    try:
        return float(raw)
    except ValueError as err:
        raise ConfigError(f"[{section.name}] {key} = {raw!r} is not a number") from err


def _get_expr(section: configparser.SectionProxy, key: str, allow_u: bool) -> Expr:
    expr = prefixed(f"[{section.name}] {key}", parse_expr, _get_raw(section, key))
    if not allow_u and expr.uses_u:
        raise ConfigError(f"[{section.name}] {key} must be a function of t only, but uses u")
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
    that are empty or hold an out-of-range lambda or alpha.  Every message
    starts with ``path``.
    """
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    parser.optionxform = str  # keys are case-sensitive: T and t differ
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as err:
        raise ConfigError(f"{path}: cannot read config: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: cannot read config: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"{path}: malformed config: {_malformed(err)}") from err
    return prefixed(path, _interpret, parser)


def _malformed(err: configparser.Error) -> str:
    """configparser's error on one line, with its line number and without
    the file name that its own message quotes."""
    if isinstance(err, configparser.MissingSectionHeaderError):
        return f"line {err.lineno}: File contains no section headers."
    if isinstance(err, configparser.ParsingError):
        return "; ".join(f"line {lineno}: cannot parse {line}" for lineno, line in err.errors)
    if isinstance(err, configparser.DuplicateOptionError):
        return f"line {err.lineno}: option {err.option!r} in section {err.section!r} already exists"
    if isinstance(err, configparser.DuplicateSectionError):
        return f"line {err.lineno}: section {err.section!r} already exists"
    return " ".join(str(err).split())


def _interpret(parser: configparser.ConfigParser) -> LoadedConfig:
    for section in parser.sections():
        if section not in ("problem", "tube", "solve", "sweep"):
            raise ConfigError(f"unknown section [{section}]")

    if not parser.has_section("problem"):
        raise ConfigError("missing required section [problem]")
    prob = parser["problem"]
    _known_keys(prob, {"a", "T", "lambda", "alpha", "u_a", "f"})
    source = _get_expr(prob, "f", allow_u=True)
    inconsistent = "[problem] is inconsistent"
    a, T, lam = (_get_float(prob, key) for key in ("a", "T", "lambda"))
    alpha = prefixed(inconsistent, Alpha, _get_float(prob, "alpha"))
    u_a = _get_float(prob, "u_a")
    problem = prefixed(
        inconsistent, ThermistorProblem, a=a, T=T, lam=lam, alpha=alpha, u_a=u_a, f=source
    )

    tube_spec: TubeSpec | None = None
    if parser.has_section("tube"):
        sect = parser["tube"]
        _known_keys(sect, {"v", "M", "generator"})
        m_expr = _get_expr(sect, "M", allow_u=False)
        if ("v" in sect) == ("generator" in sect):
            raise ConfigError("[tube] needs exactly one of 'v' (expression) or 'generator'")
        gen = sect["generator"].strip() if "generator" in sect else None
        if gen is not None and gen not in _GENERATORS:
            raise ConfigError(f"[tube] generator {gen!r} is not one of {_GENERATORS}")
        v_expr = None if gen is not None else _get_expr(sect, "v", allow_u=False)
        tube_spec = TubeSpec(generator=gen, v_expr=v_expr, m_expr=m_expr)

    settings = {}
    if parser.has_section("solve"):
        sect = parser["solve"]
        _known_keys(sect, {field.name for field in fields(SolveOptions)})
        for field in fields(SolveOptions):
            if field.name in sect:
                value = _get_float(sect, field.name)
                if isinstance(field.default, int):
                    value = whole_number(value, f"[solve] {field.name}")
                settings[field.name] = value
    options = prefixed("[solve] is inconsistent", SolveOptions, **settings)

    sweep_lambdas = sweep_alphas = None
    if parser.has_section("sweep"):
        sect = parser["sweep"]
        _known_keys(sect, {"lambda", "alpha"})
        if "lambda" in sect:
            sweep_lambdas = _sweep_list(
                sect["lambda"], "[sweep] lambda", lambda lam: replace(problem, lam=lam)
            )
        if "alpha" in sect:
            sweep_alphas = _sweep_list(sect["alpha"], "[sweep] alpha", Alpha)

    return LoadedConfig(
        problem=problem,
        tube=tube_spec,
        options=options,
        sweep_lambdas=sweep_lambdas,
        sweep_alphas=sweep_alphas,
    )
