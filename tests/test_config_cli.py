"""Configuration loading and the command-line contract (exit codes, files)."""

import configparser
import itertools
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import thermistor as th
import thermistor.cli
from thermistor.cli import SOLUTION_COLUMNS, SWEEP_COLUMNS, _build_tube, main
from thermistor.config import ConfigError, load_config
from thermistor.identities import CSV_COLUMNS
from thermistor.solver import _picard_rows

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOOD = """\
[problem]
a = 1.0
T = 2.0
lambda = 1.5
alpha = 0.7
u_a = 0.25
f = 2 + sin(u)

[tube]
v = 0.25 + 0*t
M = 0.5 + 0.1*(t - 1)

[solve]
damping = 0.8
tol_fp = 1e-9
max_iter = 50
grid_n = 41

[sweep]
lambda = 0.5, 1.0
alpha = 0.5
"""


# a valid tube on which the third, never truncated, iterate reaches
# u ~ 2767, where exp(-u) underflows to 0
ESCAPING = """\
[problem]
a = 1.0
T = 2.0
lambda = 8.0
alpha = 1.0
u_a = 0.1
f = exp(-u)

[tube]
generator = closed_form_center
M = 5

[solve]
grid_n = 401
max_iter = 3
"""


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def assert_names_path_once(message, path):
    assert message.startswith(f"{path}: ")
    assert message.count(str(path)) == 1


class TestLoadConfig:
    def test_full_round_trip(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, GOOD))
        p = cfg.problem
        assert (p.a, p.T, p.lam, p.u_a) == (1.0, 2.0, 1.5, 0.25)
        assert p.alpha.value == 0.7
        assert p.f(0.0, 0.0) == 2.0
        assert cfg.problem.f.source == "2 + sin(u)"
        assert cfg.tube.generator is None
        assert cfg.tube.v_expr is not None
        assert cfg.options == th.SolveOptions(damping=0.8, tol_fp=1e-9, max_iter=50, grid_n=41)
        assert cfg.sweep_lambdas == [0.5, 1.0]
        assert cfg.sweep_alphas == [0.5]

    def test_optional_sections_default(self, tmp_path):
        text = "[problem]\na=1.0\nT=2.0\nlambda=1.0\nalpha=0.5\nu_a=0.0\nf=1\n"
        cfg = load_config(write_cfg(tmp_path, text))
        assert cfg.tube is None
        assert cfg.options == th.SolveOptions()
        assert cfg.sweep_lambdas is None and cfg.sweep_alphas is None

    def test_inline_comments_stripped(self, tmp_path):
        text = (
            "[problem]\na = 1.0  # left endpoint\nT = 2.0 ; right\n"
            "lambda = 1.0\nalpha = 0.5\nu_a = 0.0\nf = 1\n"
        )
        cfg = load_config(write_cfg(tmp_path, text))
        assert cfg.problem.a == 1.0 and cfg.problem.T == 2.0

    def test_keys_are_case_sensitive(self, tmp_path):
        text = "[problem]\na=1.0\nt=2.0\nlambda=1.0\nalpha=0.5\nu_a=0.0\nf=1\n"
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ("[tube]\nM = 0.5\n", "missing required section \\[problem\\]"),
            ("[problem]\na=1.0\nT=2.0\nlambda=1.0\nalpha=0.5\nu_a=0.0\n", "missing required key 'f'"),
            ("[problem]\nT=2.0\nlambda=1.0\nalpha=0.5\nu_a=0.0\nf=1\n", "missing required key 'a'"),
            ("[problem]\na=abc\nT=2.0\nlambda=1.0\nalpha=0.5\nu_a=0.0\nf=1\n", "not a number"),
            ("[problem]\na=1.0\nT=2.0\nlambda=1.0\nalpha=1.5\nu_a=0.0\nf=1\n", "inconsistent"),
            ("[problem]\na=1.0\nT=0.5\nlambda=1.0\nalpha=0.5\nu_a=0.0\nf=1\n", "inconsistent"),
            ("[problem]\na=1.0\nT=2.0\nlambda=1.0\nalpha=0.5\nu_a=0.0\nf=2 +\n", "parse error at byte"),
            ("[problem]\na=1.0\nT=2.0\nlambda=1.0\nalpha=0.5\nu_a=0.0\nf=1\nextra=1\n", "unknown key"),
            ("[bogus]\nx=1\n", "unknown section"),
            ("[problem]\na=1.0\nT=2.0\nlambda=1.0\nalpha=0.5\nu_a=0.0\nf=one\n", "\\[problem\\] f: parse error at byte 0"),
            ("[problem]\na=1.0\nT=2.0\nlambda=1.0\nalpha=0.5\nu_a=0.0\nf=ramp\n", "\\[problem\\] f: parse error at byte 0"),
            ("[problem]\na=1.0\nT=2.0\nlambda=1.0\nalpha=0.5\nu_a=0.0\nf=sin_offset\n", "\\[problem\\] f: parse error at byte 0"),
        ],
        ids=[
            "no-problem", "no-f", "no-a", "bad-float", "bad-alpha", "bad-span", "bad-expr", "stray-key",
            "stray-section", "name-one", "name-ramp", "name-sin_offset",
        ],
    )
    def test_problem_section_errors(self, tmp_path, mutation, message):
        path = write_cfg(tmp_path, mutation)
        with pytest.raises(ConfigError, match=message) as info:
            load_config(path)
        assert_names_path_once(str(info.value), path)

    PROBLEM = "[problem]\na=1.0\nT=2.0\nlambda=1.0\nalpha=0.5\nu_a=0.0\nf=1\n"

    @pytest.mark.parametrize(
        "tube_text, message",
        [
            ("[tube]\nv = 0\n", "missing required key 'M'"),
            ("[tube]\nM = 0.5\n", "exactly one of 'v'"),
            ("[tube]\nv = 0\ngenerator = closed_form_center\nM = 0.5\n", "exactly one of 'v'"),
            ("[tube]\ngenerator = nope\nM = 0.5\n", "is not one of"),
            ("[tube]\nv = 0\nM = 0.1*u\n", "function of t only"),
            ("[tube]\nv = u\nM = 0.5\n", "function of t only"),
            ("[tube]\nv = 0\nM = 1/(t - 2)\n", "^\\[tube\\] M: evaluation error at bytes 0..9"),
            ("[tube]\nv = sqrt(1.5 - t)\nM = 1\n", "^\\[tube\\] v: evaluation error at bytes 0..13"),
        ],
        ids=["no-M", "neither", "both", "bad-generator", "M-uses-u", "v-uses-u", "M-eval", "v-eval"],
    )
    def test_tube_section_errors(self, tmp_path, tube_text, message, capsys):
        # profiles are sampled only once a grid exists, so some errors
        # surface when the tube is built; the command adds the path to those
        path = write_cfg(tmp_path, self.PROBLEM + tube_text)
        with pytest.raises(ConfigError, match=message):
            cfg = load_config(path)
            cfg.tube.build(cfg.problem, cfg.problem.grid(11))
        assert main(["verify-tube", "--config", str(path), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("thermistor: error: ") and err.endswith("\n")
        assert_names_path_once(err.removeprefix("thermistor: error: "), path)

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("[solve]\ndamping = 2.0\n", "inconsistent"),
            ("[solve]\nwhat = 1\n", "unknown key"),
            ("[sweep]\nlambda =\n", "empty list"),
            ("[sweep]\nalpha = 0.5,,0.9\n", "empty entry"),
            ("[sweep]\nlambda = 0.5, x\n", "not a number"),
            ("[sweep]\nlambda = 0.5, 1.0, -2.0\nalpha = 0.5, 0.9\n",
             "\\.cfg: \\[sweep\\] lambda: problem needs lambda > 0, got -2.0"),
            ("[sweep]\nlambda = 0.5, inf\n", "\\.cfg: \\[sweep\\] lambda: problem needs lambda > 0, got inf"),
            ("[sweep]\nalpha = 0.5, 1.5\n",
             "\\.cfg: \\[sweep\\] alpha: derivative order must lie in \\(0, 1\\], got 1.5"),
        ],
        ids=[
            "bad-damping", "stray-solve-key", "empty-lambda", "empty-entry", "bad-entry",
            "negative-lambda", "infinite-lambda", "alpha-above-one",
        ],
    )
    def test_solve_and_sweep_errors(self, tmp_path, extra, message):
        path = write_cfg(tmp_path, self.PROBLEM + extra)
        with pytest.raises(ConfigError, match=message) as info:
            load_config(path)
        assert_names_path_once(str(info.value), path)

    def test_unreadable_and_malformed_files(self, tmp_path):
        # the OS and configparser errors quote the file name themselves;
        # load_config names it once, in front, on one line
        missing = tmp_path / "missing.cfg"
        with pytest.raises(ConfigError, match="cannot read") as info:
            load_config(missing)
        assert isinstance(info.value.__cause__, FileNotFoundError)
        assert str(info.value) == f"{missing}: cannot read config: No such file or directory"
        malformed = write_cfg(tmp_path, "a = 1 with no section\n")
        with pytest.raises(ConfigError, match="malformed config") as info:
            load_config(malformed)
        assert isinstance(info.value.__cause__, configparser.Error)
        assert str(info.value) == f"{malformed}: malformed config: line 1: File contains no section headers."

    @pytest.mark.parametrize(
        "text, detail",
        [
            ("[problem]\n[problem]\n", "line 2: section 'problem' already exists"),
            ("[problem]\na=1\na=2\n", "line 3: option 'a' in section 'problem' already exists"),
            ("[problem]\nnot a key\nnor this\n",
             "line 2: cannot parse 'not a key\\n'; line 3: cannot parse 'nor this\\n'"),
        ],
        ids=["duplicate-section", "duplicate-key", "no-equals"],
    )
    def test_malformed_file_errors_are_one_line(self, tmp_path, text, detail):
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: malformed config: {detail}"

    def test_file_that_is_not_utf8_is_unreadable(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(self.PROBLEM.replace("f=1", "f=1  # caf\xe9").encode("latin-1"))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}: cannot read config: 'utf-8' codec can't decode byte 0xe9")
        assert main(["verify-tube", "--config", str(path), "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == f"thermistor: error: {info.value}\n"

    def test_alpha_is_checked_before_u_a_is_read(self, tmp_path):
        text = "[problem]\na=1.0\nT=2.0\nlambda=1.0\nalpha=1.5\nf=1\n"
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == (
            f"{path}: [problem] is inconsistent: derivative order must lie in (0, 1], got 1.5"
        )

    @pytest.mark.parametrize(
        "line, detail",
        [
            ("tol_fp = abc", "[solve] tol_fp = 'abc' is not a number"),
            ("max_iter = 2.5", "[solve] max_iter: 2.5 is not a whole number"),
            ("damping = 0", "[solve] is inconsistent: damping must lie in (0, 1], got 0.0"),
        ],
        ids=["tol_fp", "max_iter", "damping"],
    )
    def test_solve_key_errors_are_exact(self, tmp_path, line, detail):
        path = write_cfg(tmp_path, self.PROBLEM + "[solve]\n" + line + "\n")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: {detail}"

    @pytest.mark.parametrize(
        "source, byte",
        [("2 % u", 2), ("2 + %(a)s*u", 4)],
        ids=["bare-percent", "interpolation-syntax"],
    )
    def test_percent_reaches_the_expression_parser(self, tmp_path, capsys, source, byte):
        # no interpolation: the first once escaped as a configparser
        # traceback, the second once ran as f = 2 + 1.0*u
        path = write_cfg(tmp_path, self.PROBLEM.replace("f=1", f"f={source}") + "[tube]\nv = 0\nM = 1\n")
        assert main(["verify-tube", "--config", str(path), "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == (
            f"thermistor: error: {path}: [problem] f: parse error at byte {byte}: "
            "expected a number, name, operator, or parenthesis, found character '%'\n"
        )

    def test_negative_radius_rejected_at_build(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, self.PROBLEM + "[tube]\nv = 0\nM = 0 - 1\n"))
        with pytest.raises(ConfigError, match="unusable"):
            cfg.tube.build(cfg.problem, cfg.problem.grid(11))


class TestSolveCommand:
    def test_constant_scenario_exits_zero_and_writes_files(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["solve", "--config", str(CONFIGS / "solve_constant.cfg"), "--out", str(out)])
        assert code == 0
        data = (out / "solution.csv").read_bytes()
        assert b"\r" not in data
        lines = data.decode().splitlines()
        assert lines[0] == ",".join(SOLUTION_COLUMNS)
        assert len(lines) == 202  # header + grid_n rows
        first = lines[1].split(",")
        assert len(first) == len(SOLUTION_COLUMNS)
        assert first[0] == "1.0"
        assert float(first[3]) == 0.5  # tube radius column
        report = (out / "report.txt").read_text()
        assert report.startswith("thermistor solve report")
        assert "converged: true" in report
        assert "member of tube: true" in report
        assert "thermistor solve report" in capsys.readouterr().out

    def test_starved_scenario_exits_two(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve", "--config", str(CONFIGS / "solve_starved.cfg"), "--out", str(out)])
        assert code == 2
        assert "converged: false" in (out / "report.txt").read_text()

    def test_invalid_tube_scenario_exits_three_but_still_writes(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve", "--config", str(CONFIGS / "solve_invalid_tube.cfg"), "--out", str(out)])
        assert code == 3
        assert (out / "solution.csv").exists()
        assert "tube valid: false" in (out / "report.txt").read_text()

    @pytest.mark.parametrize("command, code", [("solve", 3), ("sweep", 0)])
    def test_invalid_tube_warning_is_one_plain_line(self, tmp_path, capsys, command, code):
        # no Python warning header: no install path, line number or source line
        cfg = str(CONFIGS / "solve_invalid_tube.cfg")
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == code
        assert capsys.readouterr().err == (
            "thermistor: warning: tube conditions not satisfied "
            "(boundary margin 0.5 at node 0); solving anyway\n"
        )

    def test_bad_source_scenario_exits_four(self, tmp_path, capsys):
        code = main(["solve", "--config", str(CONFIGS / "solve_bad_source.cfg"), "--out", str(tmp_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("thermistor: error:")
        assert "H1 violated" in err

    def test_positivity_failure_on_an_invalid_tube_prints_only_the_error(self, tmp_path, capsys):
        # the tube fails verification, then the second iterate climbs into
        # the dead zone around u = 0.5; exit 4 wins and no warning line is
        # printed, because the solve returns no report
        cfg = write_cfg(tmp_path, """\
[problem]
a = 1.0
T = 2.0
lambda = 1.0
alpha = 0.5
u_a = 0.0
f = (2*u - 1)^2 - 0.01

[tube]
v = 0
M = 1

[solve]
grid_n = 101
""")
        for command in ("solve", "sweep"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 4
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.endswith("\n")
            assert err.startswith("thermistor: error: iteration 2: H1 violated")

    def test_escaping_final_iterate_exits_two_and_writes(self, tmp_path):
        cfg = write_cfg(tmp_path, ESCAPING)
        assert main(["verify-tube", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        report = (out / "report.txt").read_text().splitlines()
        assert "converged: false (tol_fp=1e-10, " in report[4]
        assert report[5:7] == ["ode residual (interior sup): nan", "member of tube: false"]
        rows = [line.split(",") for line in (out / "solution.csv").read_text().splitlines()[1:]]
        assert len(rows) == 401
        assert all(row[4:] == ["nan", "nan"] for row in rows)

    def test_grid_override_changes_row_count(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "solve", "--config", str(CONFIGS / "solve_constant.cfg"),
            "--out", str(out), "--grid-n", "51",
        ])
        assert code == 0
        assert len((out / "solution.csv").read_text().splitlines()) == 52

    def test_missing_tube_section_exits_four(self, tmp_path):
        cfg = write_cfg(tmp_path, TestLoadConfig.PROBLEM)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 4

    def test_bounds_cover_the_tube_band_only(self, tmp_path):
        # f = u + 0.5 is nonpositive for u <= -0.5, far outside the tube
        # 1 + (t - 1)/3 +/- 0.3*t; the diagnostic must not fail the solve
        cfg = write_cfg(tmp_path, """\
[problem]
a = 1.0
T = 2.0
lambda = 0.5
alpha = 1.0
u_a = 1.0
f = u + 0.5

[tube]
generator = closed_form_center
M = 0.3*t

[solve]
grid_n = 201
""")
        assert main(["verify-tube", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "converged: true" in report
        assert "member of tube: true" in report
        assert "bounds: A=1.2 " in report


class TestVerifyTubeCommand:
    def test_valid_tube_exits_zero(self, tmp_path):
        out = tmp_path / "run"
        code = main(["verify-tube", "--config", str(CONFIGS / "solve_constant.cfg"), "--out", str(out)])
        assert code == 0
        text = (out / "tube_report.txt").read_text()
        assert text.startswith("thermistor tube report")
        assert "tube valid: true" in text

    def test_alpha_override_keeps_generator_in_sync(self, tmp_path):
        code = main([
            "verify-tube", "--config", str(CONFIGS / "solve_constant.cfg"),
            "--out", str(tmp_path), "--alpha", "1.0",
        ])
        assert code == 0

    def test_invalid_tube_exits_three(self, tmp_path):
        code = main(["verify-tube", "--config", str(CONFIGS / "solve_invalid_tube.cfg"), "--out", str(tmp_path)])
        assert code == 3


class TestIdentitiesCommand:
    def test_small_ladder_passes(self, tmp_path, capsys):
        code = main(["identities", "--out", str(tmp_path), "--grid-n", "51,101", "--alpha", "0.5,1.0"])
        assert code == 0
        lines = (tmp_path / "identities.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 5  # header + 2 alphas x 2 sizes
        assert capsys.readouterr().out.rstrip().endswith("identities: pass")

    def test_bad_alpha_exits_four(self, tmp_path):
        assert main(["identities", "--out", str(tmp_path), "--alpha", "1.5"]) == 4
        assert main(["identities", "--out", str(tmp_path), "--alpha", "abc"]) == 4

    def test_single_size_exits_four(self, tmp_path):
        assert main(["identities", "--out", str(tmp_path), "--grid-n", "101"]) == 4

    def test_repeated_size_exits_four(self, tmp_path, capsys):
        assert main(["identities", "--out", str(tmp_path), "--grid-n", "101,101", "--alpha", "1.0"]) == 4
        assert "distinct" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--alpha", "0.5,,1.0"), ("--grid-n", "51,,101")])
    def test_empty_list_entry_exits_four(self, tmp_path, capsys, flag, value):
        assert main(["identities", "--out", str(tmp_path), flag, value]) == 4
        assert f"{flag} has an empty entry" in capsys.readouterr().err


class TestSweepCommand:
    def test_product_order_and_schema(self, tmp_path):
        out = tmp_path / "run"
        code = main(["sweep", "--config", str(CONFIGS / "sweep_ramp.cfg"), "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 7
        heads = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert heads == [
            ("0.5", "0.5"), ("0.5", "0.9"),
            ("1.0", "0.5"), ("1.0", "0.9"),
            ("2.0", "0.5"), ("2.0", "0.9"),
        ]
        assert all(line.split(",")[2] == "true" for line in lines[1:])

    def test_escaping_point_is_a_row(self, tmp_path):
        cfg = write_cfg(tmp_path, ESCAPING + "\n[sweep]\nlambda = 1.0, 8.0\n")
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[2] == "8.0,1.0,false,3,nan,false"

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", str(CONFIGS / "sweep_ramp.cfg"), "--out", str(a)]) == 0
        assert main(["sweep", "--config", str(CONFIGS / "sweep_ramp.cfg"), "--out", str(b)]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path, monkeypatch):
        outs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("THERMISTOR_THREADS", threads)
            d = tmp_path / f"t{threads}"
            assert main(["sweep", "--config", str(CONFIGS / "sweep_ramp.cfg"), "--out", str(d)]) == 0
            outs[threads] = (d / "sweep.csv").read_bytes()
        assert outs["1"] == outs["2"]

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_thread_env_is_ignored(self, tmp_path, monkeypatch, value):
        monkeypatch.delenv("THERMISTOR_THREADS", raising=False)
        plain, with_env = tmp_path / "plain", tmp_path / "env"
        assert main(["sweep", "--config", str(CONFIGS / "sweep_ramp.cfg"), "--out", str(plain)]) == 0
        monkeypatch.setenv("THERMISTOR_THREADS", value)
        assert main(["sweep", "--config", str(CONFIGS / "sweep_ramp.cfg"), "--out", str(with_env)]) == 0
        assert (plain / "sweep.csv").read_bytes() == (with_env / "sweep.csv").read_bytes()

    @staticmethod
    def assert_rows_match_standalone_solves(path, out, grid_n=None):
        flags = [] if grid_n is None else ["--grid-n", str(grid_n)]
        assert main(["sweep", "--config", str(path), "--out", str(out), *flags]) == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        cfg = load_config(path)
        points = list(itertools.product(cfg.sweep_lambdas, cfg.sweep_alphas))
        assert len(rows) == len(points)
        for row, (lam, al) in zip(rows, points):
            problem = replace(cfg.problem, lam=lam, alpha=th.Alpha(al))
            tube = cfg.tube.build(problem, problem.grid(grid_n or cfg.options.grid_n))
            report = th.picard_solve(problem, tube, cfg.options)
            assert row == [
                repr(lam),
                repr(al),
                str(report.converged).lower(),
                str(report.iterations),
                repr(report.ode_residual),
                str(report.member_of_tube).lower(),
            ]

    def test_rows_match_standalone_solves(self, tmp_path):
        self.assert_rows_match_standalone_solves(CONFIGS / "sweep_ramp.cfg", tmp_path)

    def test_repeated_entries_match_standalone_solves(self, tmp_path, monkeypatch):
        # alpha 0.9 has six points and alpha 0.5 three; at this n a batch
        # holds two rows (2**15 // n), so both groups are split
        batches = []

        def recording(problems, tubes, opts):
            batches.append([(p.lam, p.alpha.value) for p in problems])
            return _picard_rows(problems, tubes, opts)

        monkeypatch.setattr(thermistor.cli, "_picard_rows", recording)
        text = (CONFIGS / "sweep_ramp.cfg").read_text()
        text = text[: text.index("[sweep]")] + "[sweep]\nlambda = 2.0, 0.5, 2.0\nalpha = 0.9, 0.5, 0.9\n"
        self.assert_rows_match_standalone_solves(write_cfg(tmp_path, text), tmp_path, grid_n=16001)
        assert batches == [
            [(2.0, 0.9), (2.0, 0.9)], [(0.5, 0.9), (0.5, 0.9)], [(2.0, 0.9), (2.0, 0.9)],
            [(2.0, 0.5), (0.5, 0.5)], [(2.0, 0.5)],
        ]

    # the tube fails verification at every lambda; the iterates climb into the
    # dead zone of f around u = 0.5 at iteration 7 for lambda = 0.2 and at
    # iteration 2 for lambda = 1, and stay below it for lambda = 0.01
    DEAD_ZONE = """\
[problem]
a = 1.0
T = 2.0
lambda = 1.0
alpha = 0.5
u_a = 0.0
f = (2*u - 1)^2 - 0.01

[tube]
v = 0
M = 1

[solve]
grid_n = 101

[sweep]
lambda = 0.01, 0.2, 1.0
"""

    def test_first_error_in_sweep_order_wins(self, tmp_path, capsys):
        # solved together, the third point fails first; the sweep still
        # reports the first point's warning and then the second point's error
        cfg = write_cfg(tmp_path, self.DEAD_ZONE)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 4
        assert capsys.readouterr().err == (
            "thermistor: warning: tube conditions not satisfied "
            "(boundary margin 0.010101010101010104 at node 0); solving anyway\n"
            "thermistor: error: iteration 7: H1 violated: f(t, u) must be strictly positive, "
            "got f(1.1, 0.46269451340722406) = -0.004433202680304859 at node 10\n"
        )
        assert not (tmp_path / "run").exists()

    def test_no_point_after_the_first_error_is_built_or_solved(self, tmp_path, capsys, monkeypatch):
        # with one row a batch, each tube is built just before its batch is
        # solved, and the second point's error is known before the third
        # point comes up, which is then skipped
        calls = []

        def building(args, cfg, problem, grid):
            calls.append(("build", problem.lam))
            return _build_tube(args, cfg, problem, grid)

        def solving(problems, tubes, opts):
            calls.append(("solve", [p.lam for p in problems]))
            return _picard_rows(problems, tubes, opts)

        monkeypatch.setattr(thermistor.cli, "_BATCH_NODES", 101)
        monkeypatch.setattr(thermistor.cli, "_build_tube", building)
        monkeypatch.setattr(thermistor.cli, "_picard_rows", solving)
        cfg = write_cfg(tmp_path, self.DEAD_ZONE)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 4
        assert capsys.readouterr().err.splitlines()[1].startswith("thermistor: error: iteration 7: ")
        assert calls == [("build", 0.01), ("solve", [0.01]), ("build", 0.2), ("solve", [0.2])]

    def test_tube_build_error_after_a_warned_point(self, tmp_path, capsys):
        # M decreases, so every tube fails verification; at lambda = 1e308
        # the closed-form center's lambda * f overflows and its tube cannot
        # be built, which stops the sweep before lambda = 2
        cfg = write_cfg(tmp_path, """\
[problem]
a = 1.0
T = 2.0
lambda = 1.0
alpha = 0.5
u_a = 0.0
f = 2

[tube]
generator = closed_form_center
M = 2.5 - t

[solve]
grid_n = 101

[sweep]
lambda = 1.0, 1e308, 2.0
""")
        with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 4
        assert capsys.readouterr().err == (
            "thermistor: warning: tube conditions not satisfied "
            "(boundary margin 1.500013717979382 at node 0); solving anyway\n"
            "thermistor: error: grid function has non-finite value at node 0\n"
        )

    def test_defaults_to_single_tuple_without_sweep_section(self, tmp_path):
        out = tmp_path / "run"
        code = main(["sweep", "--config", str(CONFIGS / "solve_constant.cfg"), "--out", str(out)])
        assert code == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 2

    def test_alpha_flag_replaces_the_list(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "sweep", "--config", str(CONFIGS / "sweep_ramp.cfg"),
            "--out", str(out), "--alpha", "0.8",
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4  # 3 lambdas x 1 alpha
        assert all(line.split(",")[1] == "0.8" for line in lines[1:])


class TestInputErrors:
    @pytest.mark.parametrize(
        "name, value, code",
        [
            ("--grid-n", "51.9,101", 4),
            ("--grid-n", "51.0,101", 0),
            ("grid_n", "41.5", 4),
            ("grid_n", "inf", 4),
            ("grid_n", "41.0", 0),
            ("max_iter", "2.7", 4),
            ("max_iter", "50.0", 0),
        ],
    )
    def test_counts_must_be_whole_numbers(self, tmp_path, capsys, name, value, code):
        if name == "--grid-n":
            argv = ["identities", "--grid-n", value, "--alpha", "1.0"]
        else:
            text = (CONFIGS / "solve_constant.cfg").read_text().replace("grid_n = 201", f"{name} = {value}")
            argv = ["solve", "--config", str(write_cfg(tmp_path, text))]
        assert main(argv + ["--out", str(tmp_path / "out")]) == code
        if code == 4:
            first = value.split(",")[0]
            assert f"{name}: {float(first)!r} is not a whole number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("identities", "--alpha", "1.5"),
            ("identities", "--grid-n", "2,5"),
            ("solve", "--alpha", "1.5"),
            ("verify-tube", "--alpha", "1.5"),
            ("sweep", "--alpha", "1.5"),
            ("solve", "--grid-n", "2"),
            ("verify-tube", "--grid-n", "2"),
            ("sweep", "--grid-n", "2"),
            ("identities", "--grid-n", "101"),
            ("identities", "--grid-n", "101,101"),
        ],
    )
    def test_range_errors_name_the_flag(self, tmp_path, capsys, command, flag, value):
        argv = [command, flag, value, "--out", str(tmp_path)]
        if command != "identities":
            argv += ["--config", str(CONFIGS / "sweep_ramp.cfg")]
        detail = {
            "1.5": "derivative order must lie in (0, 1], got 1.5",
            "2": "grid_n must be at least 3, got 2",
            "2,5": "grid needs at least 3 nodes, got n=2",
            "101": "identity table needs at least two grid sizes for orders",
            "101,101": "identity table grid sizes must be distinct, got (101, 101)",
        }[value]
        assert main(argv) == 4
        assert capsys.readouterr().err == f"thermistor: error: {flag}: {detail}\n"

    @pytest.mark.parametrize("command", ["solve", "verify-tube", "sweep"])
    @pytest.mark.parametrize(
        "tube_text, detail",
        [
            ("v = 0\nM = 1/(t - 2)\n",
             "[tube] M: evaluation error at bytes 0..9 ('1/(t - 2)'): division by zero or overflow"),
            ("v = sqrt(1.5 - t)\nM = 1\n",
             "[tube] v: evaluation error at bytes 0..13 ('sqrt(1.5 - t)'): sqrt left its domain or overflowed"),
        ],
        ids=["M", "v"],
    )
    def test_tube_profile_errors_name_the_key(self, tmp_path, capsys, command, tube_text, detail):
        cfg = write_cfg(tmp_path, TestLoadConfig.PROBLEM + "[tube]\n" + tube_text)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == f"thermistor: error: {cfg}: {detail}\n"

    @pytest.mark.parametrize("command", ["solve", "verify-tube", "sweep"])
    @pytest.mark.parametrize(
        "old, new, detail",
        [
            ("M = 0.5", "M = 1e400", "[tube] M: parse error at byte 0"),
            ("f = 1", "f = u + 2e308", "[problem] f: parse error at byte 4"),
        ],
        ids=["M", "f"],
    )
    def test_non_finite_literals_name_the_key(self, tmp_path, capsys, command, old, new, detail):
        text = (CONFIGS / "solve_constant.cfg").read_text()
        assert old in text
        cfg = write_cfg(tmp_path, text.replace(old, new))
        literal = new.split()[-1]
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == (
            f"thermistor: error: {cfg}: {detail}: expected a finite number, found number '{literal}'\n"
        )

    @pytest.mark.parametrize("command", ["solve", "verify-tube", "identities", "sweep"])
    def test_output_path_errors_exit_four(self, tmp_path, capsys, command):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the output directory should go\n")
        if command == "identities":
            argv = ["identities", "--grid-n", "11,21", "--alpha", "1.0"]
        else:
            argv = [command, "--config", str(CONFIGS / "solve_constant.cfg")]
        assert main(argv + ["--out", str(blocker)]) == 4
        assert capsys.readouterr().err.startswith(f"thermistor: error: cannot write output to {blocker}")


class TestUsage:
    def test_usage_errors_map_to_config_exit_code(self):
        assert main([]) == 4
        assert main(["solve"]) == 4
        assert main(["no-such-command"]) == 4

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("command", ["solve", "verify-tube", "identities", "sweep"])
    def test_subcommand_help_names_its_flags(self, capsys, command):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: thermistor {command} ")
        for flag in ("--out", "--grid-n", "--alpha"):
            assert flag in out
        assert ("--config" in out) == (command != "identities")

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "thermistor.cli", "identities",
             "--out", str(tmp_path), "--grid-n", "11,21", "--alpha", "1.0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "identities: pass" in proc.stdout
