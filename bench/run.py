"""Benchmark of the thermistor solver: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload fine-solve --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload cli-sweep --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, measured with no wrappers installed;
``--trace 1`` reports the per-layer metrics recorded by ``bench/spans.py``,
summed over one cycle of the workload's problem set, and writes every span
to ``.bench_work/traces/``.  ``--smoke`` runs all three workloads at tiny
sizes in both modes and prints every metric.  Earlier lines give the
environment, every metric with its unit, and ``failed_ratio``.

Every workload solves ``u^(alpha) = lambda f / (int f)^2`` with
``f = 2 + sin(u)`` on [1, 2], ``u(1) = 0.1``, tube center
``closed_form_center`` and radius ``exp(t - 1)``.  Each run uses a problem
set drawn from ``--seed``: the four corners of the box
lambda in [0.5, 8] x alpha in [0.3, 1], which fix the worst-case error and
cost, plus stratified antithetic draws inside it, so that run-to-run
differences come from the code rather than from where the draws fell.
Operations cycle through the set in whole cycles, one at a time (a closed
loop with one client); repeats must reproduce the first result bit for bit.

Workloads:

* ``fine-solve`` - in-process ``picard_solve`` at n = 20001.  The linear
  layer does most of the work; per-call overhead is negligible.
* ``cli-sweep`` - ``python -m thermistor.cli sweep`` in a subprocess, on a
  7 x 8 (lambda, alpha) config at n = 201 with THERMISTOR_THREADS=2.
  Many short solves: import, GridFunction construction, expression
  evaluation, truncation and threading all show.
* ``oracle`` - in-process ``oracle_solve`` at n = 2001.  Bypasses the
  linear layer and the Picard iteration; scalar expression calls and the
  RK4 loop dominate.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

A, T, U_A = 1.0, 2.0, 0.1
LAMBDAS = (0.5, 8.0)
ALPHAS = (0.3, 1.0)
SOURCE = "2 + sin(u)"
RADIUS = "exp(t - 1)"
SWEEP_THREADS = 2
CHILD_TIMEOUT_S = 150
SETUP_PROBES_PER_CYCLE = 3

# Both references carry an O(h^2) error on the coarser grid (the oracle
# through its trapezoidal D, picard_solve through its stencils); the
# largest error measured over the box is about 1.4 * h^2.
ERROR_TOL_PER_H2 = 4.0

E2E_UNITS = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "op_p50_s": "s",
    "max_error": "1",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "linear.solve_linear.calls": "count",
    "linear.solve_linear.self_s": "s",
    "linear.ns_per_node": "ns",
    "solver.picard.iterations": "count",
    "solver.picard_solve.self_s": "s",
    "solver.apply_k.self_s": "s",
    "solver.ode_residual.self_s": "s",
    "solver.oracle.passes": "count",
    "solver.oracle_solve.self_s": "s",
    "expressions.scalar.calls": "count",
    "expressions.scalar.self_s": "s",
    "expressions.array.calls": "count",
    "expressions.array.self_s": "s",
    "model.evaluate_g.self_s": "s",
    "model.sample_source.calls": "count",
    "model.bounds_estimate.self_s": "s",
    "tube.truncate.self_s": "s",
    "tube.truncate.clipped_ratio": "1",
    "tube.verify_tube.self_s": "s",
    "tube.closed_form_center.self_s": "s",
    "conformable.gridfunction.constructs": "count",
    "conformable.gridfunction.self_s": "s",
    "conformable.derivative.self_s": "s",
    "config.load_config.self_s": "s",
    "config.tube_build.self_s": "s",
    "cli.import_s": "s",
    "cli.write_csv.self_s": "s",
    "cli.sweep.parallel_efficiency": "1",
    "trace.overhead_ratio": "1",
}


@dataclass(frozen=True)
class Sizes:
    fine_n: int = 20001
    fine_ref_n: int = 2001
    oracle_n: int = 2001
    sweep_n: int = 201
    sweep_lambdas: int = 7
    sweep_alphas: int = 8
    cells: int = 3  # strata per axis of the seed-drawn (lambda, alpha) pairs
    sweep_configs: int = 4  # in mirrored pairs
    setup_repeats: int = 9
    import_repeats: int = 3


FULL = Sizes()
SMOKE = Sizes(
    fine_n=2001,
    fine_ref_n=201,
    oracle_n=201,
    sweep_n=41,
    sweep_lambdas=3,
    sweep_alphas=3,
    cells=1,
    sweep_configs=2,
    setup_repeats=1,
    import_repeats=1,
)
SMOKE_SECONDS = 0.3


class CheckFailed(Exception):
    """An operation's output disagreed with its reference."""


def error_tol(n_coarse: int) -> float:
    h = (T - A) / (n_coarse - 1)
    return ERROR_TOL_PER_H2 * h * h


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["THERMISTOR_THREADS"] = str(SWEEP_THREADS)
    return env


def stratified(offsets, lo: float, hi: float) -> list[float]:
    """Point i at ``offsets[i]`` of the way through the i-th of len(offsets) equal strata of [lo, hi]."""
    k = len(offsets)
    return [lo + (hi - lo) * (i + float(u)) / k for i, u in enumerate(offsets)]


def problem_cases(rng, cells: int) -> list[tuple[float, float]]:
    """The box corners plus an antithetic pair in each of cells x cells strata, in a seeded order.

    The solve cost climbs steeply towards large lambda and alpha, so
    independent draws would move a run's mean cost by several percent;
    pairing each draw with its mirror image in the same cell cancels the
    first-order part of that variation.
    """
    cases = [(lam, al) for lam in LAMBDAS for al in ALPHAS]
    for i in range(cells):
        for j in range(cells):
            u, v = rng.random(), rng.random()
            for du, dv in ((u, v), (1.0 - u, 1.0 - v)):
                lam = LAMBDAS[0] + (LAMBDAS[1] - LAMBDAS[0]) * (i + du) / cells
                al = ALPHAS[0] + (ALPHAS[1] - ALPHAS[0]) * (j + dv) / cells
                cases.append((float(lam), float(al)))
    return [cases[int(i)] for i in rng.permutation(len(cases))]


# -- workloads ---------------------------------------------------------------


class InProcess:
    """Problem construction and the bit-identity check shared by fine-solve and oracle."""

    def __init__(self, sizes: Sizes, rng) -> None:
        from thermistor.config import TubeSpec
        from thermistor.expressions import parse_expr

        self.sizes = sizes
        self.inputs = problem_cases(rng, sizes.cells)
        self.source = parse_expr(SOURCE)
        self.spec = TubeSpec(generator="closed_form_center", v_expr=None, m_expr=parse_expr(RADIUS))
        self.refs: dict = {}
        self.first: dict = {}

    def problem(self, case):
        from thermistor import Alpha, ThermistorProblem

        lam, al = case
        return ThermistorProblem(a=A, T=T, lam=lam, alpha=Alpha(al), u_a=U_A, f=self.source)

    def tube(self, problem, n: int):
        return self.spec.build(problem, problem.grid(n))

    def compare(self, case, values, ref, tol: float) -> float:
        import numpy as np

        err = float(np.max(np.abs(values - ref)))
        if not err <= tol:
            raise CheckFailed(f"{case}: sup error {err!r} exceeds {tol!r}")
        first = self.first.setdefault(case, values)
        if first.tobytes() != values.tobytes():
            raise CheckFailed(f"{case}: solution differs from the first solve of this case")
        return err

    def run_inprocess(self, case):
        return self.run(case)


class FineSolve(InProcess):
    def run(self, case):
        from thermistor import SolveOptions, picard_solve

        problem = self.problem(case)
        n = self.sizes.fine_n
        return picard_solve(problem, self.tube(problem, n), SolveOptions(grid_n=n))

    def check(self, case, report) -> tuple[int, float]:
        from thermistor import SolveOptions, oracle_solve

        if not (report.converged and report.member_of_tube):
            raise CheckFailed(f"{case}: converged={report.converged} member={report.member_of_tube}")
        n_ref = self.sizes.fine_ref_n
        if case not in self.refs:
            self.refs[case] = oracle_solve(self.problem(case), SolveOptions(grid_n=n_ref)).values
        stride = (self.sizes.fine_n - 1) // (n_ref - 1)
        return 1, self.compare(case, report.u.values[::stride], self.refs[case], error_tol(n_ref))

    def probe_args(self, case) -> list[str]:
        return [repr(case[0]), repr(case[1]), str(self.sizes.fine_n)]


class Oracle(InProcess):
    def run(self, case):
        from thermistor import SolveOptions, oracle_solve

        return oracle_solve(self.problem(case), SolveOptions(grid_n=self.sizes.oracle_n))

    def check(self, case, u) -> tuple[int, float]:
        from thermistor import SolveOptions, picard_solve

        n = self.sizes.oracle_n
        if case not in self.refs:
            problem = self.problem(case)
            report = picard_solve(problem, self.tube(problem, n), SolveOptions(grid_n=n))
            if not (report.converged and report.member_of_tube):
                raise CheckFailed(f"{case}: reference picard_solve did not converge in the tube")
            self.refs[case] = report.u.values
        return 1, self.compare(case, u.values, self.refs[case], error_tol(n))

    def probe_args(self, case) -> list[str]:
        # the oracle builds no tube; "0" tells the probe to skip it
        return [repr(case[0]), repr(case[1]), "0"]


def sweep_config(lambdas: list[float], alphas: list[float], n: int) -> str:
    return "\n".join(
        [
            "[problem]",
            f"a = {A!r}",
            f"T = {T!r}",
            f"lambda = {lambdas[0]!r}",
            f"alpha = {alphas[0]!r}",
            f"u_a = {U_A!r}",
            f"f = {SOURCE}",
            "",
            "[tube]",
            "generator = closed_form_center",
            f"M = {RADIUS}",
            "",
            "[solve]",
            f"grid_n = {n}",
            "",
            "[sweep]",
            "lambda = " + ", ".join(repr(x) for x in lambdas),
            "alpha = " + ", ".join(repr(x) for x in alphas),
            "",
        ]
    )


class CliSweep:
    """One ``thermistor sweep`` command per operation on a generated config."""

    def __init__(self, sizes: Sizes, rng, workdir: Path) -> None:
        self.sizes = sizes
        self.inputs: list[Path] = []
        self.grid: dict[Path, list[tuple[float, float]]] = {}
        self.first: dict[Path, bytes] = {}
        for k in range(sizes.sweep_configs):
            # the second config of each pair mirrors the first one's draws
            # inside every stratum, which keeps the run's total cost steady
            if k % 2 == 0:
                u, v = rng.random(sizes.sweep_lambdas - 2), rng.random(sizes.sweep_alphas - 2)
            else:
                u, v = 1.0 - u, 1.0 - v
            lams = sorted([*LAMBDAS, *stratified(u, *LAMBDAS)])
            als = sorted([*ALPHAS, *stratified(v, *ALPHAS)])
            path = workdir / f"sweep{k}.cfg"
            path.write_text(sweep_config(lams, als, sizes.sweep_n), encoding="utf-8")
            self.inputs.append(path)
            self.grid[path] = [(lam, al) for lam in lams for al in als]

    @staticmethod
    def out_dir(cfg: Path) -> Path:
        return cfg.with_suffix(".out")

    def _clear(self, cfg: Path) -> None:
        (self.out_dir(cfg) / "sweep.csv").unlink(missing_ok=True)

    def run(self, cfg: Path):
        self._clear(cfg)
        proc = subprocess.run(
            [sys.executable, "-m", "thermistor.cli", "sweep", "--config", str(cfg), "--out", str(self.out_dir(cfg))],
            env=child_env(),
            cwd=str(cfg.parent),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stderr.decode("utf-8", "replace")

    def run_inprocess(self, cfg: Path):
        import thermistor.cli

        self._clear(cfg)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = thermistor.cli.main(["sweep", "--config", str(cfg), "--out", str(self.out_dir(cfg))])
        return rc, sink.getvalue()

    def check(self, cfg: Path, result) -> tuple[int, float]:
        rc, err_text = result
        if rc != 0:
            raise CheckFailed(f"{cfg.name}: exit code {rc}: {err_text.strip()[-500:]}")
        data = (self.out_dir(cfg) / "sweep.csv").read_bytes()
        lines = data.decode("utf-8").splitlines()
        if lines[0] != "lambda,alpha,converged,iterations,ode_residual,member":
            raise CheckFailed(f"{cfg.name}: unexpected header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        expected = self.grid[cfg]
        if [(float(r[0]), float(r[1])) for r in rows] != expected:
            raise CheckFailed(f"{cfg.name}: rows do not follow the declared (lambda, alpha) product")
        bad = [r for r in rows if r[2] != "true" or r[5] != "true"]
        if bad:
            raise CheckFailed(f"{cfg.name}: {len(bad)} rows not converged inside the tube, first {bad[0]}")
        if self.first.setdefault(cfg, data) != data:
            raise CheckFailed(f"{cfg.name}: sweep.csv differs from the first run of this config")
        # the sweep writes no solution, so its error is the equation residual
        return len(rows), max(float(r[4]) for r in rows)

    def probe_args(self, cfg: Path) -> list[str]:
        return [str(cfg)]


WORKLOADS = ("fine-solve", "cli-sweep", "oracle")


def make_workload(name: str, sizes: Sizes, rng, workdir: Path):
    if name == "fine-solve":
        return FineSolve(sizes, rng)
    if name == "oracle":
        return Oracle(sizes, rng)
    return CliSweep(sizes, rng, workdir)


# -- set-up probe (runs in a fresh interpreter) ------------------------------


def setup_probe(workload: str, args: list[str]) -> None:
    """Import the package and build the first operation's inputs, as a user's process would."""
    if workload == "cli-sweep":
        from dataclasses import replace as dc_replace

        import thermistor.cli  # noqa: F401  the command's own import
        from thermistor import Alpha
        from thermistor.config import load_config

        cfg = load_config(args[0])
        problem = dc_replace(cfg.problem, lam=cfg.sweep_lambdas[0], alpha=Alpha(cfg.sweep_alphas[0]))
        cfg.tube.build(problem, problem.grid(cfg.options.grid_n))
        return
    from thermistor import Alpha, ThermistorProblem
    from thermistor.config import TubeSpec
    from thermistor.expressions import parse_expr

    lam, al, n = float(args[0]), float(args[1]), int(args[2])
    problem = ThermistorProblem(a=A, T=T, lam=lam, alpha=Alpha(al), u_a=U_A, f=parse_expr(SOURCE))
    if n:
        TubeSpec("closed_form_center", None, parse_expr(RADIUS)).build(problem, problem.grid(n))


def run_child(argv: list[str]) -> tuple[float, str]:
    """Wall time and standard output of a child interpreter that must succeed."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return wall, proc.stdout.decode()


def setup_argv(name: str, wl) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--setup-probe", name, *wl.probe_args(wl.inputs[0])]


def measure_cli_import(repeats: int) -> float:
    code = "import time; t = time.perf_counter(); import thermistor.cli; print(time.perf_counter() - t)"
    return statistics.median(float(run_child([sys.executable, "-c", code])[1]) for _ in range(repeats))


# -- measurement -------------------------------------------------------------


class Tally:
    """Attempted and failed operations; a failure is logged and the run goes on."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.solves = 0
        self.errors: list[float] = []

    def record(self, wl, inp, result) -> None:
        self.attempted += 1
        try:
            if isinstance(result, Exception):
                raise CheckFailed(f"{inp}: raised {result!r}")
            solves, err = wl.check(inp, result)
        except CheckFailed as exc:
            self.failed += 1
            print(f"check failed: {exc}", file=sys.stderr)
            return
        except Exception:  # unreadable output is a failed check; the run goes on
            self.failed += 1
            print(f"check failed: {inp}: {traceback.format_exc()}", file=sys.stderr)
            return
        self.solves += solves
        self.errors.append(err)


def timed(run, inp):
    t0 = time.perf_counter()
    try:
        result = run(inp)
    except Exception as exc:  # a raising operation is a failed one, not the end of the run
        result = exc
    return time.perf_counter() - t0, result


def end_to_end(name: str, wl, sizes: Sizes, seconds: float, tally: Tally) -> dict[str, float]:
    """Whole cycles over the problem set until ``seconds`` of operations are timed.

    Whole cycles keep every run's mix of inputs the same.  The set-up
    probes are spread between cycles, so that a burst of contention from
    other tenants of the host moves few of them.
    """
    probe = setup_argv(name, wl)
    run_child(probe)  # fills the bytecode cache of a fresh checkout
    setup: list[float] = []
    tally.record(wl, wl.inputs[0], timed(wl.run, wl.inputs[0])[1])  # warm-up, untimed
    durations: list[float] = []
    solves_before = tally.solves
    cycles = 0
    while sum(durations) < seconds:
        for _ in range(min(SETUP_PROBES_PER_CYCLE, sizes.setup_repeats - len(setup))):
            setup.append(run_child(probe)[0])
        for inp in wl.inputs:
            dt, result = timed(wl.run, inp)
            durations.append(dt)
            tally.record(wl, inp, result)
        cycles += 1
    while len(setup) < sizes.setup_repeats:
        setup.append(run_child(probe)[0])
    who = resource.RUSAGE_CHILDREN if name == "cli-sweep" else resource.RUSAGE_SELF
    print(
        f"{name}: {cycles} cycles of {len(wl.inputs)} operations, {sum(durations)!r} s timed",
        file=sys.stderr,
    )
    return {
        "setup_s": statistics.median(setup),
        "solves_per_s": (tally.solves - solves_before) / sum(durations),
        "op_p50_s": statistics.median(durations),
        "max_error": max(tally.errors, default=0.0),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def install_wrappers(rec) -> None:
    import numpy as np

    import thermistor.cli
    from thermistor import config, conformable, expressions, linear, model, solver, tube

    def count_nodes(counters, args, kwargs, out):
        counters["linear.solve_linear.nodes"][0] += out.grid.n

    def count_clipped(counters, args, kwargs, out):
        u = args[0] if args else kwargs["u"]
        counters["tube.truncate.clipped"][0] += int(np.count_nonzero(out.values != u.values))
        counters["tube.truncate.nodes"][0] += out.grid.n

    def count_iterations(counters, args, kwargs, out):
        counters["solver.picard.iterations"][0] += out.iterations

    rec.wrap_function("linear.solve_linear", linear, "solve_linear", count_nodes)
    rec.wrap_function("solver.picard_solve", solver, "picard_solve", count_iterations)
    rec.wrap_function("solver.apply_k", solver, "apply_k")
    rec.wrap_function("solver.ode_residual", solver, "ode_residual")
    rec.wrap_function("solver.oracle_solve", solver, "oracle_solve")
    rec.wrap_function("model.evaluate_g", model, "evaluate_g")
    rec.wrap_function("model.sample_source", model, "sample_source")
    rec.wrap_function("model.bounds_estimate", model, "bounds_estimate")
    rec.wrap_function("tube.truncate", tube, "truncate", count_clipped)
    rec.wrap_function("tube.verify_tube", tube, "verify_tube")
    rec.wrap_function("tube.closed_form_center", tube, "closed_form_center")
    rec.wrap_function("conformable.derivative", conformable, "conformable_derivative")
    rec.wrap_function("config.load_config", config, "load_config")
    rec.wrap_method("config.tube_build", config.TubeSpec, "build")
    rec.wrap_function("cli.write_csv", thermistor.cli, "_write_csv")
    rec.wrap_function("cli.main", thermistor.cli, "main")
    rec.wrap_leaf("expressions.array", expressions.Expr, "__call__", float_name="expressions.scalar")
    rec.wrap_leaf("conformable.gridfunction", conformable.GridFunction, "__post_init__")


def layer_metrics(rec, name: str, untraced_s: float, traced_s: float, import_s: float):
    spans = rec.spans()
    self_s = rec.self_times(spans)
    counters = rec.counters()
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    names = {}
    for sid, span_name, *_ in spans:
        names[sid] = span_name
        calls[span_name] = calls.get(span_name, 0) + 1
        own[span_name] = own.get(span_name, 0.0) + self_s[sid]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    efficiency = 0.0
    if name == "cli-sweep":
        busy = window = 0.0
        by_op: dict = {}
        for _sid, span_name, start, end, _parent, op, _exc in spans:
            if span_name == "solver.picard_solve":
                busy += end - start
                lo, hi = by_op.get(op, (start, end))
                by_op[op] = (min(lo, start), max(hi, end))
        window = sum(hi - lo for lo, hi in by_op.values())
        efficiency = ratio(busy, SWEEP_THREADS * window)

    nodes = counters["linear.solve_linear.nodes"][0]
    metrics = {
        "linear.solve_linear.calls": calls.get("linear.solve_linear", 0),
        "linear.solve_linear.self_s": own.get("linear.solve_linear", 0.0),
        "linear.ns_per_node": ratio(own.get("linear.solve_linear", 0.0) * 1e9, nodes),
        "solver.picard.iterations": counters["solver.picard.iterations"][0],
        "solver.picard_solve.self_s": own.get("solver.picard_solve", 0.0),
        "solver.apply_k.self_s": own.get("solver.apply_k", 0.0),
        "solver.ode_residual.self_s": own.get("solver.ode_residual", 0.0),
        "solver.oracle.passes": sum(
            1 for s in spans if s[1] == "model.sample_source" and names.get(s[4]) == "solver.oracle_solve"
        ),
        "solver.oracle_solve.self_s": own.get("solver.oracle_solve", 0.0),
        "expressions.scalar.calls": counters["expressions.scalar"][0],
        "expressions.scalar.self_s": counters["expressions.scalar"][1],
        "expressions.array.calls": counters["expressions.array"][0],
        "expressions.array.self_s": counters["expressions.array"][1],
        "model.evaluate_g.self_s": own.get("model.evaluate_g", 0.0),
        "model.sample_source.calls": calls.get("model.sample_source", 0),
        "model.bounds_estimate.self_s": own.get("model.bounds_estimate", 0.0),
        "tube.truncate.self_s": own.get("tube.truncate", 0.0),
        "tube.truncate.clipped_ratio": ratio(counters["tube.truncate.clipped"][0], counters["tube.truncate.nodes"][0]),
        "tube.verify_tube.self_s": own.get("tube.verify_tube", 0.0),
        "tube.closed_form_center.self_s": own.get("tube.closed_form_center", 0.0),
        "conformable.gridfunction.constructs": counters["conformable.gridfunction"][0],
        "conformable.gridfunction.self_s": counters["conformable.gridfunction"][1],
        "conformable.derivative.self_s": own.get("conformable.derivative", 0.0),
        "config.load_config.self_s": own.get("config.load_config", 0.0),
        "config.tube_build.self_s": own.get("config.tube_build", 0.0),
        "cli.import_s": import_s,
        "cli.write_csv.self_s": own.get("cli.write_csv", 0.0),
        "cli.sweep.parallel_efficiency": efficiency,
        "trace.overhead_ratio": ratio(traced_s, untraced_s),
    }
    return metrics, spans, self_s


def traced(name: str, wl, sizes: Sizes, seed: int, tally: Tally) -> dict[str, float]:
    from spans import Recorder

    import_s = measure_cli_import(sizes.import_repeats) if name == "cli-sweep" else 0.0
    tally.record(wl, wl.inputs[0], timed(wl.run_inprocess, wl.inputs[0])[1])  # warm-up, untimed
    rec = Recorder()
    untraced_s = traced_s = 0.0
    # each operation runs unwrapped and then wrapped, back to back, so a
    # drift in machine speed moves both sides of the overhead ratio alike
    for op, inp in enumerate(wl.inputs):
        dt, result = timed(wl.run_inprocess, inp)
        untraced_s += dt
        tally.record(wl, inp, result)
        rec.op = op
        install_wrappers(rec)
        try:
            dt, result = timed(wl.run_inprocess, inp)
        finally:
            rec.uninstall()
        traced_s += dt
        # checked unwrapped, so reference solves add no spans
        tally.record(wl, inp, result)

    metrics, spans, self_s = layer_metrics(rec, name, untraced_s, traced_s, import_s)
    path = WORK / "traces" / f"{name}-seed{seed}.jsonl"
    rec.write(path, spans, self_s)
    print(f"{name}: {len(spans)} spans written to {path}", file=sys.stderr)
    return metrics


# -- reporting ---------------------------------------------------------------


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict[str, object]:
    import numpy as np

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def with_units(values: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    return {key: {"value": values[key], "unit": units[key]} for key in units}


def run_one(name: str, sizes: Sizes, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, Tally]:
    import numpy as np

    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    wl = make_workload(name, sizes, rng, workdir)
    tally = Tally()
    if trace:
        metrics = with_units(traced(name, wl, sizes, seed, tally), LAYER_UNITS)
    else:
        metrics = with_units(end_to_end(name, wl, sizes, seconds, tally), E2E_UNITS)
    print_metrics(name, metrics, tally)
    return metrics, tally


def print_metrics(name: str, metrics: dict, tally: Tally) -> None:
    for key, m in metrics.items():
        print(f"{name:<10} {key:<38} {m['value']!r} {m['unit']}")
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"{name:<10} {'failed_ratio':<38} {ratio!r} 1 ({tally.failed} of {tally.attempted} operations)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="all workloads, tiny sizes, both modes")
    parser.add_argument("--setup-probe", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "thermistor" / "__init__.py").is_file():
        print(f"run.py: no thermistor package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    os.environ["THERMISTOR_THREADS"] = str(SWEEP_THREADS)
    # the tube check fails for lambda >= 4 on this family; picard_solve
    # warns and still converges inside the tube, which is what is checked
    warnings.simplefilter("ignore", UserWarning)

    if args.setup_probe:
        setup_probe(args.setup_probe[0], args.setup_probe[1:])
        return 0
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    print("env " + json.dumps(environment(args.seed)))
    tallies = []
    try:
        if args.smoke:
            metrics = {}
            for name in WORKLOADS:
                sub = workdir / name
                sub.mkdir()
                for trace in (False, True):
                    part, tally = run_one(name, SMOKE, args.seed, SMOKE_SECONDS, trace, sub)
                    metrics.setdefault(name, {}).update(part)
                    tallies.append(tally)
        else:
            metrics, tally = run_one(args.workload, FULL, args.seed, args.seconds, bool(args.trace), workdir)
            tallies.append(tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
