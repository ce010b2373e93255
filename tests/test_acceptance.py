"""End-to-end acceptance checks, one verdict line per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each criterion prints exactly one PASS or FAIL line and then asserts.
"""

import math
import time
from dataclasses import replace

import numpy as np

import thermistor as th
from thermistor.cli import main
from thermistor.expressions import parse_expr
from thermistor.identities import identity_table

from conftest import constant_problem, sin_problem, tube_corpus, u_star
from test_config_cli import CONFIGS
from test_expressions import MALFORMED_CASES, PRECEDENCE_CASES


def verdict(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def order(err_coarse, err_fine, h_coarse, h_fine):
    return math.log(err_coarse / err_fine) / math.log(h_coarse / h_fine)


def test_criterion_1_calculus_identity_ladder():
    start = time.perf_counter()
    rows = identity_table((0.3, 0.5, 0.7), (101, 201, 401))
    elapsed = time.perf_counter() - start
    orders = [r["roundtrip_order"] for r in rows if r["roundtrip_order"] != ""]
    consts = [r["constant_rule_error"] for r in rows]
    ok = min(orders) >= 1.8 and max(consts) <= 1e-12 and elapsed < 1.0
    verdict(1, ok, f"roundtrip order min {min(orders):.2f}, "
                   f"constant rule max {max(consts):.1e}, {elapsed:.2f}s")


def test_criterion_2_linear_solver_convergence():
    start = time.perf_counter()
    errs = []
    hs = []
    for n in (101, 201, 401):
        grid = th.Grid(1.0, 2.0, n)
        g = th.GridFunction(grid, np.sin(grid.nodes))
        x = th.solve_linear(g, 1.0, th.Alpha(0.7))
        errs.append(th.linear_residual(x, g, th.Alpha(0.7)))
        hs.append(grid.h)
    orders = [order(errs[i - 1], errs[i], hs[i - 1], hs[i]) for i in (1, 2)]

    c = 0.75
    grid = th.Grid(1.0, 2.0, 101)
    gc = th.GridFunction.constant(grid, c / grid.a**0.7)
    xc = th.solve_linear(gc, c, th.Alpha(0.7))
    const_resid = th.linear_residual(xc, gc, th.Alpha(0.7))
    elapsed = time.perf_counter() - start
    ok = min(orders) >= 1.8 and const_resid <= 1e-10 and elapsed < 1.0
    verdict(2, ok, f"residual order min {min(orders):.2f}, "
                   f"constant case residual {const_resid:.1e}, {elapsed:.2f}s")


def test_criterion_3_constant_source_fixed_point():
    start = time.perf_counter()
    problem = constant_problem()
    grid = problem.grid(4001)
    tube = th.Tube(u_star(grid), th.GridFunction.constant(grid, 0.5))
    opts = th.SolveOptions(grid_n=4001)
    report = th.picard_solve(problem, tube, opts)
    oracle = th.oracle_solve(problem, opts)
    elapsed = time.perf_counter() - start
    end_err = abs(float(report.u.values[-1]) - 0.828427)
    oracle_gap = float(np.max(np.abs(report.u.values - oracle.values)))
    ok = (report.converged and report.iterations <= 3
          and end_err <= 1e-6 and oracle_gap <= 1e-8 and elapsed < 2.0)
    verdict(3, ok, f"{report.iterations} iterations, endpoint error {end_err:.2e}, "
                   f"oracle gap {oracle_gap:.1e}, {elapsed:.2f}s")


def test_criterion_4_oracle_cross_check():
    start = time.perf_counter()
    problem = sin_problem()
    opts = th.SolveOptions(tol_fp=1e-10, grid_n=4001)
    oracle = th.oracle_solve(problem, opts)
    tube = th.Tube(oracle, th.GridFunction.constant(oracle.grid, 1.0))
    report = th.picard_solve(problem, tube, opts)
    elapsed = time.perf_counter() - start
    sup = float(np.max(np.abs(report.u.values - oracle.values)))
    ok = report.converged and sup <= 1e-5 and elapsed < 5.0
    verdict(4, ok, f"sup |picard - oracle| {sup:.2e} on n=4001, "
                   f"{report.iterations} iterations, {elapsed:.2f}s")


def test_criterion_5_tube_corpus_verification():
    corpus = tube_corpus(201)
    problems = len({id(p) for _, p, _ in corpus})
    outcomes = []
    for name, problem, tube in corpus:
        tube_report = th.verify_tube(tube, problem)
        report = th.picard_solve(problem, tube, th.SolveOptions())
        outcomes.append((name, tube_report.valid, report.converged, report.member_of_tube))
    good = sum(1 for _, v, c, m in outcomes if v and c and m)
    ok = len(corpus) >= 5 and problems >= 3 and good == len(corpus)
    verdict(5, ok, f"{good}/{len(corpus)} tubes valid with converged member solutions "
                   f"across {problems} problems")


def test_criterion_6_projection_and_operator_properties():
    rng = np.random.default_rng(0)
    problem = sin_problem()
    grid = problem.grid(33)
    tube = th.Tube(th.GridFunction.constant(grid, 0.1),
                   th.GridFunction.constant(grid, 0.25))
    trials = 120
    held = 0
    for _ in range(trials):
        u = th.GridFunction(grid, rng.uniform(-5.0, 5.0, grid.n))
        trunc = th.truncate(u, tube)
        idem = np.array_equal(trunc.values, th.truncate(trunc, tube).values)
        contract = np.all(
            np.abs(trunc.values - tube.v.values)
            <= np.minimum(np.abs(u.values - tube.v.values), tube.M.values)
        )
        direct = th.apply_k(u, tube, problem)
        projected = th.apply_k(trunc, tube, problem)
        factors = np.array_equal(direct.values, projected.values)
        anchored = float(direct.values[0]) == problem.u_a
        held += idem and contract and factors and anchored
    ok = held == trials
    verdict(6, ok, f"{held}/{trials} random iterates satisfied truncation "
                   f"and operator identities")


def test_criterion_7_source_scaling_and_positivity():
    rng = np.random.default_rng(1)
    problem = sin_problem()
    grid = problem.grid(65)
    trials = 110
    held = 0
    for _ in range(trials):
        c0 = rng.uniform(1.5, 3.0)
        c1 = rng.uniform(0.0, c0 - 1.1)
        c = rng.uniform(0.01, 100.0)
        base_f = parse_expr(f"{c0!r} + {c1!r}*sin(u)")
        scaled_f = parse_expr(f"{c!r}*({c0!r} + {c1!r}*sin(u))")
        traj = th.GridFunction(grid, rng.uniform(-2.0, 2.0, grid.n))
        g_base = th.evaluate_g(replace(problem, f=base_f), traj)
        g_scaled = th.evaluate_g(replace(problem, f=scaled_f), traj)
        positive = np.all(g_base.values > 0.0) and np.all(g_scaled.values > 0.0)
        rel = np.max(np.abs(c * g_scaled.values - g_base.values) / g_base.values)
        held += positive and rel <= 1e-12

    bad = th.ThermistorProblem(1.0, 2.0, 1.0, th.Alpha(0.5), 0.0, parse_expr("t - 1.5"))
    grid_bad = bad.grid(101)
    named = False
    try:
        th.evaluate_g(bad, th.GridFunction.constant(grid_bad, 0.0))
    except th.SourcePositivityError as err:
        named = err.node == 0 and f"node {err.node}" in str(err) and "H1 violated" in str(err)
    ok = held == trials and named
    verdict(7, ok, f"{held}/{trials} scalings homogeneous with positive g, "
                   f"violation named by node: {named}")


def test_criterion_8_expression_language():
    prec_ok = 0
    for src, t, u, expected in PRECEDENCE_CASES:
        prec_ok += parse_expr(src)(t, u) == expected

    positioned = 0
    for src, offset in MALFORMED_CASES:
        try:
            parse_expr(src)
        except th.ParseError as err:
            positioned += (err.offset == offset
                           and str(err).startswith(f"parse error at byte {offset}"))

    rng = np.random.default_rng(2)
    alphabet = np.array(list("0123456789.+-*/^() tusincoexpqrabl,e"))
    crashes = 0
    for _ in range(200):
        k = int(rng.integers(0, 30))
        text = "".join(rng.choice(alphabet, size=k))
        try:
            parse_expr(text)
        except th.ParseError:
            pass
        except Exception:
            crashes += 1
    ok = (prec_ok == len(PRECEDENCE_CASES) >= 20
          and positioned == len(MALFORMED_CASES)
          and crashes == 0)
    verdict(8, ok, f"{prec_ok}/{len(PRECEDENCE_CASES)} precedence cases, "
                   f"{positioned}/{len(MALFORMED_CASES)} positioned errors, "
                   f"{crashes} fuzz crashes")


def test_criterion_9_cli_scenarios_and_determinism(tmp_path):
    codes = {}
    for name, scenario in (("constant", "solve_constant"),
                           ("starved", "solve_starved"),
                           ("invalid-tube", "solve_invalid_tube"),
                           ("bad-source", "solve_bad_source")):
        out = tmp_path / scenario
        out.mkdir()
        codes[name] = main(
            ["solve", "--config", str(CONFIGS / f"{scenario}.cfg"), "--out", str(out)]
        )
    expected = {"constant": 0, "starved": 2, "invalid-tube": 3, "bad-source": 4}

    runs = []
    for label in ("first", "second"):
        out = tmp_path / f"sweep-{label}"
        out.mkdir()
        assert main(
            ["sweep", "--config", str(CONFIGS / "sweep_ramp.cfg"), "--out", str(out)]
        ) == 0
        runs.append((out / "sweep.csv").read_bytes())
    identical = runs[0] == runs[1]
    ok = codes == expected and identical
    verdict(9, ok, f"exit codes {codes}, sweep reruns byte-identical: {identical}")
