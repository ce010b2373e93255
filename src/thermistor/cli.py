"""Command-line entry points: solve, verify-tube, identities, sweep.

Exit codes, in order of precedence:

* 4 - configuration or input error (unreadable config, bad expression,
      positivity violation while sampling the source, bad flags, an
      output directory that cannot be written);
* 3 - the tube failed verification (solve still runs and writes output);
* 2 - the iteration did not converge to a tube member, or the identity
      suite missed its thresholds;
* 0 - success.

All CSV output is written with LF newlines and round-trip-exact decimal
formatting, so repeated runs of the same configuration are byte
identical.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, LoadedConfig, float_list, load_config, whole_number
from .conformable import Alpha, Grid, conformable_derivative
from .identities import CSV_COLUMNS, DEFAULT_ALPHAS, DEFAULT_SIZES, identity_table, table_passes
from .model import SourcePositivityError, ThermistorProblem, evaluate_g
from .solver import SolveOptions, SolveReport, picard_solve
from .tube import Tube, iter_margin_lines, verify_tube

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


def _flagged(flag: str, build, value):
    """``build(value)``, with a range error prefixed by the flag it came from."""
    try:
        return build(value)
    except ValueError as err:
        raise ConfigError(f"{flag}: {err}") from err


def _prepare(args: argparse.Namespace) -> tuple[LoadedConfig, ThermistorProblem, SolveOptions, Grid]:
    """Shared setup for solve, verify-tube and sweep: the config with the
    --alpha and --grid-n overrides applied, and the grid to solve on."""
    cfg = load_config(args.config)
    problem = cfg.problem
    options = cfg.options
    if args.alpha is not None:
        problem = replace(problem, alpha=_flagged("--alpha", Alpha, args.alpha))
    if args.grid_n is not None:
        options = _flagged("--grid-n", lambda n: replace(options, grid_n=n), args.grid_n)
    if cfg.tube is None:
        raise ConfigError(f"{args.config}: this command needs a [tube] section")
    grid = Grid(problem.a, problem.T, options.grid_n)
    return cfg, problem, options, grid


def _solution_rows(problem: ThermistorProblem, tube: Tube, report: SolveReport) -> list[tuple]:
    u = report.u
    g = evaluate_g(problem, u)
    residual = conformable_derivative(u, problem.alpha).values - g.values
    rows = []
    for i in range(u.grid.n):
        rows.append(
            (
                float(u.grid.nodes[i]),
                float(u.values[i]),
                float(tube.v.values[i]),
                float(tube.M.values[i]),
                float(g.values[i]),
                float(residual[i]),
            )
        )
    return rows


def _report_lines(
    cfg: LoadedConfig,
    problem: ThermistorProblem,
    options: SolveOptions,
    grid: Grid,
    report: SolveReport,
) -> list[str]:
    lines = [
        "thermistor solve report",
        f"problem: a={problem.a!r} T={problem.T!r} lambda={problem.lam!r} "
        f"alpha={problem.alpha.value!r} u_a={problem.u_a!r} f={cfg.source_text}",
        f"grid: n={grid.n} h={grid.h!r}",
        f"iterations: {report.iterations} (max_iter={options.max_iter}, "
        f"damping={options.damping!r})",
        f"converged: {_fmt(report.converged)} (tol_fp={options.tol_fp!r}, "
        f"final fp residual={_fmt(report.fp_residuals[-1])})",
        f"ode residual (interior sup): {_fmt(report.ode_residual)}",
        f"member of tube: {_fmt(report.member_of_tube)}",
        f"bounds: A={_fmt(report.bounds.f_min)} B={_fmt(report.bounds.f_max)} "
        f"G={_fmt(report.bounds.g_sup)}",
    ]
    lines.extend(iter_margin_lines(report.tube_report))
    return lines


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        cfg, problem, options, grid = _prepare(args)
        tube = cfg.tube.build(problem, grid)
        report = picard_solve(problem, tube, options)
    except (ConfigError, SourcePositivityError, ValueError) as err:
        return _fail(str(err))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "solution.csv", SOLUTION_COLUMNS, _solution_rows(problem, tube, report))
    lines = _report_lines(cfg, problem, options, grid, report)
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
        cfg, problem, options, grid = _prepare(args)
        report = verify_tube(cfg.tube.build(problem, grid), problem)
    except (ConfigError, SourcePositivityError, ValueError) as err:
        return _fail(str(err))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [
        "thermistor tube report",
        f"problem: a={problem.a!r} T={problem.T!r} lambda={problem.lam!r} "
        f"alpha={problem.alpha.value!r} u_a={problem.u_a!r} f={cfg.source_text}",
        f"grid: n={grid.n} h={grid.h!r}",
    ]
    lines.extend(iter_margin_lines(report))
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
            _flagged("--alpha", Alpha, al)
        for n in sizes:
            # the identities run on grids of these sizes; building one checks n
            _flagged("--grid-n", lambda n: Grid(1.0, 2.0, n), n)
        rows = identity_table(tuple(alphas), tuple(sizes))
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
                report = picard_solve(point, cfg.tube.build(point, grid), options)
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

    def common(p: argparse.ArgumentParser, need_config: bool) -> None:
        if need_config:
            p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--out", default=".", help="output directory (default: current)")

    p_solve = sub.add_parser("solve", help="run the fixed-point solve from a config")
    common(p_solve, need_config=True)
    p_solve.add_argument("--grid-n", type=int, default=None, help="override [solve] grid_n")
    p_solve.add_argument("--alpha", type=float, default=None, help="override [problem] alpha")

    p_verify = sub.add_parser("verify-tube", help="check the tube conditions only")
    common(p_verify, need_config=True)
    p_verify.add_argument("--grid-n", type=int, default=None, help="override [solve] grid_n")
    p_verify.add_argument("--alpha", type=float, default=None, help="override [problem] alpha")

    p_ident = sub.add_parser("identities", help="run the calculus identity suite")
    common(p_ident, need_config=False)
    p_ident.add_argument(
        "--grid-n", default=None, help="comma list of grid sizes (default 101,201,401)"
    )
    p_ident.add_argument(
        "--alpha", default=None, help="comma list of orders (default 0.3,0.5,0.7,1.0)"
    )

    p_sweep = sub.add_parser("sweep", help="solve over the configured (lambda, alpha) lists")
    common(p_sweep, need_config=True)
    p_sweep.add_argument("--grid-n", type=int, default=None, help="override [solve] grid_n")
    p_sweep.add_argument(
        "--alpha", type=float, default=None, help="replace the alpha list with one value"
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

    handlers = {
        "solve": cmd_solve,
        "verify-tube": cmd_verify_tube,
        "identities": cmd_identities,
        "sweep": cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except OSError as err:
        # configs are read inside load_config, so this is the output side
        return _fail(f"cannot write output to {args.out}: {err}")


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
