"""Command-line entry points: solve, verify-tube, identities, sweep.

Exit codes, in order of precedence:

* 4 - configuration or input error (unreadable config, bad expression,
      bad flags, an output directory that cannot be written, or a
      positivity violation on the tube center, a tube sheet or a
      truncated iterate);
* 3 - the tube failed verification (solve still runs, prints a
      ``thermistor: warning:`` line on stderr and writes output; a solve
      that then raises prints only its exit-4 error line);
* 2 - the iteration did not converge to a tube member, or the identity
      suite missed its thresholds;
* 0 - success.

This module writes all report text, the invalid-tube warning line
included.  All CSV output is written with LF newlines and
round-trip-exact decimal formatting, so repeated runs of the same
configuration are byte identical.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .config import ConfigError, LoadedConfig, float_list, load_config, prefixed, whole_number
from .conformable import Alpha, Grid
from .identities import CSV_COLUMNS, DEFAULT_ALPHAS, DEFAULT_SIZES, identity_table, table_passes
from .model import SourcePositivityError, ThermistorProblem
from .solver import SolveOptions, SolveReport, equation_residual, picard_solve
from .tube import Tube, TubeReport, verify_tube

__all__ = ["entry", "main"]

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_TUBE_INVALID = 3
EXIT_CONFIG = 4

SOLUTION_COLUMNS = ("t", "u", "v", "M", "g", "residual")
SWEEP_COLUMNS = ("lambda", "alpha", "converged", "iterations", "ode_residual", "member")


def _fmt(cell: object) -> str:
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, str):
        return cell
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    return repr(float(cell))


def _write_csv(path: Path, header: tuple[str, ...], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(cell) for cell in row) + "\n")


def _fail(message: str) -> int:
    print(f"thermistor: error: {message}", file=sys.stderr)
    return EXIT_CONFIG


def _prepare(args: argparse.Namespace) -> tuple[LoadedConfig, ThermistorProblem, SolveOptions, Grid]:
    """Shared setup for solve, verify-tube and sweep: the config with the
    --alpha and --grid-n overrides applied, and the grid to solve on."""
    cfg = load_config(args.config)
    problem = cfg.problem
    options = cfg.options
    if args.alpha is not None:
        problem = replace(problem, alpha=prefixed("--alpha", Alpha, args.alpha))
    if args.grid_n is not None:
        options = prefixed("--grid-n", replace, options, grid_n=args.grid_n)
    if cfg.tube is None:
        raise ConfigError(f"{args.config}: this command needs a [tube] section")
    grid = Grid(problem.a, problem.T, options.grid_n)
    return cfg, problem, options, grid


def _build_tube(args: argparse.Namespace, cfg: LoadedConfig, problem: ThermistorProblem, grid: Grid) -> Tube:
    """The configured tube on ``grid``, with a profile error prefixed by the
    config path; a positivity failure on the tube center keeps its own message."""
    return prefixed(args.config, cfg.tube.build, problem, grid, catch=ConfigError)


def _solve(problem: ThermistorProblem, tube: Tube, options: SolveOptions) -> SolveReport:
    """``picard_solve``, with a ``thermistor: warning:`` line on stderr when
    the tube failed verification."""
    report = picard_solve(problem, tube, options)
    tube_report = report.tube_report
    if not tube_report.valid:
        print(
            "thermistor: warning: tube conditions not satisfied "
            f"(boundary margin {tube_report.boundary_margin!r} at node "
            f"{tube_report.boundary_node}); solving anyway",
            file=sys.stderr,
        )
    return report


def _solution_rows(problem: ThermistorProblem, tube: Tube, report: SolveReport) -> list[tuple]:
    u = report.u
    g, residual = equation_residual(u, problem)
    return list(zip(u.grid.nodes, u.values, tube.v.values, tube.M.values, g, residual))


def iter_margin_lines(report: TubeReport) -> Iterator[str]:
    """Human-readable lines for a tube report."""
    yield f"tube valid: {_fmt(report.valid)} (tol={report.tol!r})"
    yield (
        f"  boundary: ok={_fmt(report.boundary_ok)} margin={report.boundary_margin!r} "
        f"node={report.boundary_node} side={report.boundary_side:+d}"
    )
    yield f"  pinch:    ok={_fmt(report.pinch_ok)} margin={report.pinch_margin!r} node={report.pinch_node}"
    yield f"  initial:  ok={_fmt(report.initial_ok)} margin={report.initial_margin!r}"


def _report_header(kind: str, problem: ThermistorProblem, grid: Grid) -> list[str]:
    return [
        f"thermistor {kind} report",
        f"problem: a={problem.a!r} T={problem.T!r} lambda={problem.lam!r} "
        f"alpha={problem.alpha.value!r} u_a={problem.u_a!r} f={problem.f.source}",
        f"grid: n={grid.n} h={grid.h!r}",
    ]


def _report_lines(
    problem: ThermistorProblem, options: SolveOptions, grid: Grid, report: SolveReport
) -> list[str]:
    return [
        *_report_header("solve", problem, grid),
        f"iterations: {report.iterations} (max_iter={options.max_iter}, "
        f"damping={options.damping!r})",
        f"converged: {_fmt(report.converged)} (tol_fp={options.tol_fp!r}, "
        f"final fp residual={_fmt(report.fp_residuals[-1])})",
        f"ode residual (interior sup): {_fmt(report.ode_residual)}",
        f"member of tube: {_fmt(report.member_of_tube)}",
        f"bounds: A={_fmt(report.bounds.f_min)} B={_fmt(report.bounds.f_max)} "
        f"G={_fmt(report.bounds.g_sup)}",
        *iter_margin_lines(report.tube_report),
    ]


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        cfg, problem, options, grid = _prepare(args)
        tube = _build_tube(args, cfg, problem, grid)
        report = _solve(problem, tube, options)
    except (ConfigError, SourcePositivityError, ValueError) as err:
        return _fail(str(err))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "solution.csv", SOLUTION_COLUMNS, _solution_rows(problem, tube, report))
    lines = _report_lines(problem, options, grid, report)
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print(line)

    if not report.tube_report.valid:
        return EXIT_TUBE_INVALID
    if not (report.converged and report.member_of_tube):
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_verify_tube(args: argparse.Namespace) -> int:
    try:
        cfg, problem, _, grid = _prepare(args)
        report = verify_tube(_build_tube(args, cfg, problem, grid), problem)
    except (ConfigError, SourcePositivityError, ValueError) as err:
        return _fail(str(err))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [*_report_header("tube", problem, grid), *iter_margin_lines(report)]
    (out / "tube_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print(line)
    return EXIT_OK if report.valid else EXIT_TUBE_INVALID


def cmd_identities(args: argparse.Namespace) -> int:
    try:
        alphas = DEFAULT_ALPHAS if args.alpha is None else float_list(args.alpha, "--alpha")
        sizes = DEFAULT_SIZES
        if args.grid_n is not None:
            sizes = [whole_number(n, "--grid-n") for n in float_list(args.grid_n, "--grid-n")]
        for al in alphas:
            prefixed("--alpha", Alpha, al)
        for n in sizes:
            # the identities run on grids of these sizes; building one checks n
            prefixed("--grid-n", Grid, 1.0, 2.0, n)
        # alphas and single sizes are checked above; what is left is the size list
        rows = prefixed("--grid-n", identity_table, tuple(alphas), tuple(sizes))
    except (ConfigError, ValueError) as err:
        return _fail(str(err))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "identities.csv",
        CSV_COLUMNS,
        [tuple(row[col] for col in CSV_COLUMNS) for row in rows],
    )
    ok = table_passes(rows)
    for row in rows:
        print(
            f"alpha={_fmt(row['alpha'])} n={row['n']} "
            f"roundtrip={_fmt(row['roundtrip_error'])} "
            f"order={_fmt(row['roundtrip_order']) or '-'} "
            f"linear={_fmt(row['linear_residual'])} "
            f"order={_fmt(row['linear_residual_order']) or '-'}"
        )
    print(f"identities: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        cfg, problem, options, grid = _prepare(args)
        lambdas = cfg.sweep_lambdas if cfg.sweep_lambdas is not None else [problem.lam]
        if args.alpha is None and cfg.sweep_alphas is not None:
            alphas = cfg.sweep_alphas
        else:
            alphas = [problem.alpha.value]
        rows = []
        for lam in lambdas:
            for al in alphas:
                point = replace(problem, lam=lam, alpha=Alpha(al))
                report = _solve(point, _build_tube(args, cfg, point, grid), options)
                rows.append(
                    (
                        lam,
                        al,
                        report.converged,
                        report.iterations,
                        report.ode_residual,
                        report.member_of_tube,
                    )
                )
    except (ConfigError, SourcePositivityError, ValueError) as err:
        return _fail(str(err))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "sweep.csv", SWEEP_COLUMNS, rows)
    print(f"sweep: {len(rows)} rows -> {out / 'sweep.csv'}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermistor",
        description="Nonlocal thermistor solver with conformable calculus and tube checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def config_command(
        name: str, handler, summary: str, alpha_help: str = "override [problem] alpha"
    ) -> None:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--grid-n", type=int, default=None, help="override [solve] grid_n")
        p.add_argument("--alpha", type=float, default=None, help=alpha_help)

    config_command("solve", cmd_solve, "run the fixed-point solve from a config")
    config_command("verify-tube", cmd_verify_tube, "check the tube conditions only")
    p_ident = sub.add_parser("identities", help="run the calculus identity suite")
    p_ident.set_defaults(handler=cmd_identities)
    p_ident.add_argument("--out", default=".", help="output directory (default: current)")
    p_ident.add_argument(
        "--grid-n", default=None, help="comma list of grid sizes (default 101,201,401)"
    )
    p_ident.add_argument(
        "--alpha", default=None, help="comma list of orders (default 0.3,0.5,0.7,1.0)"
    )
    config_command(
        "sweep",
        cmd_sweep,
        "solve over the configured (lambda, alpha) lists",
        alpha_help="replace the alpha list with one value",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors and --help; fold usage errors
        # into the config-error code
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG

    try:
        return args.handler(args)
    except OSError as err:
        # configs are read inside load_config, so this is the output side
        return _fail(f"cannot write output to {args.out}: {err}")


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
