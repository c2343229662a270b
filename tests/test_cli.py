"""End-to-end tests for the command-line interface.

Each test drives main(argv) in-process and checks exit codes, report
schemas, and the determinism contract (same flags, same bytes).
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys

import pytest

import appell4
import appell4.catalog as catalog
import appell4.cli as cli
import appell4.quadrature as quadrature
import appell4.series as series
from appell4.cli import dump_json, main
from appell4.series import (F41Params, KdfParams, TruncationPolicy, eval_f41,
                            eval_kdf)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def call(*argv):
    """main(argv) in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_python(*args):
    """A fresh interpreter that imports this checkout's appell4."""
    src = os.path.dirname(os.path.dirname(appell4.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


# stderr of eval --fn F4 outside the region, at |x| = |y| = 0.9 and x = 1e200
F4_OUTSIDE = ("warning: sqrt|x| + sqrt|y| >= 1 (margin -0.897): no "
              "convergence guarantee; returning the flagged partial sum\n")
F4_FAR = F4_OUTSIDE.replace("-0.897", "-1e+100")


class TestEvalCommand:
    def test_terminating_first_kind(self, capsys):
        code, out = run(capsys, "eval", "--fn", "F41", "--a", "1.5",
                        "--b", "0.5", "--c1", "2.5", "--c2", "1.5",
                        "--t1", "4", "--t2", "4", "--k1", "1", "--k2", "1",
                        "--x", "0.1", "--y", "0.1")
        assert code == 0
        rep = json.loads(out)
        assert rep["function"] == "F41"
        assert rep["divergence_flag"] is False
        oracle = eval_f41(F41Params(1.5, 0.5, 2.5, 1.5, 4, 4, 1, 1, 0.1, 0.1),
                          TruncationPolicy(40, 40))
        assert complex(*rep["value"]) == pytest.approx(oracle.value, rel=1e-15)
        assert rep["terms_used"] == oracle.terms_used

    def test_report_key_order(self, capsys):
        _, out = run(capsys, "eval", "--fn", "F4", "--x", "0.01", "--y", "0.01")
        rep = json.loads(out)
        assert list(rep) == ["function", "params", "value", "terms_used",
                             "tail_estimate", "divergence_flag"]

    def test_classic_at_origin_is_one(self, capsys):
        code, out = run(capsys, "eval", "--fn", "F4", "--a", "1.1",
                        "--b", "2.2", "--c1", "1.3", "--c2", "1.7",
                        "--x", "0", "--y", "0")
        rep = json.loads(out)
        assert code == 0
        assert rep["value"] == [1, 0]

    def test_nonterminating_discrete_flags_divergence(self, capsys):
        code, out = run(capsys, "eval", "--fn", "F41", "--k1", "1",
                        "--t1", "0.5", "--x", "0.05", "--y", "0")
        rep = json.loads(out)
        assert code == 0
        assert rep["divergence_flag"] is True

    def test_kdf_matches_library(self, capsys):
        code, out = run(capsys, "eval", "--fn", "KdF", "--A", "2",
                        "--E", "1.3", "--F", "1.7", "--x", "0.05",
                        "--y", "0.02")
        rep = json.loads(out)
        oracle = eval_kdf(KdfParams(A=(2,), B=(), C=(), D=(), E=(1.3,),
                                    F=(1.7,), x=0.05, y=0.02),
                          TruncationPolicy(40, 40))
        assert code == 0
        assert complex(*rep["value"]) == pytest.approx(oracle.value, rel=1e-15)

    def test_complex_argument_parsing(self, capsys):
        code, out = run(capsys, "eval", "--fn", "F42", "--a", "0.7+0.2j",
                        "--t", "3", "--k", "1", "--x", "0.1", "--y", "0.05")
        rep = json.loads(out)
        assert code == 0
        assert rep["params"]["a"] == [0.7, 0.2]

    def test_negative_complex_value_takes_the_equals_form(self, capsys):
        # argparse reads "-0.5+0.1j" after a space as an option
        code, out = run(capsys, "eval", "--fn", "F41", "--a=-0.5+0.1j")
        assert code == 0
        assert json.loads(out)["params"]["a"] == [-0.5, 0.1]
        code, _ = run(capsys, "eval", "--fn", "F41", "--a", "-0.5+0.1j")
        assert code == 2

    def test_pole_exits_three(self, capsys):
        code, _ = run(capsys, "eval", "--fn", "F41", "--c1", "0")
        assert code == 3

    def test_unknown_flag_exits_two(self, capsys):
        code, _ = run(capsys, "eval", "--bogus", "1")
        assert code == 2

    def test_malformed_complex_exits_two(self, capsys):
        code, _ = run(capsys, "eval", "--fn", "F4", "--x", "zebra")
        assert code == 2

    def test_repeat_runs_are_byte_identical(self, capsys):
        argv = ("eval", "--fn", "F41", "--t1", "4", "--t2", "2", "--k1", "1",
                "--k2", "1", "--x", "0.2", "--y", "0.1")
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_overflowing_argument_prints_only_the_error(self):
        proc = run_python("-m", "appell4.cli", "eval", "--fn", "F41",
                          "--x=1e200")
        assert proc.returncode == 3
        assert proc.stderr == ("evaluation error: partial sum exceeds the "
                               "floating range\n")

    def test_module_run_is_warning_free(self):
        proc = run_python("-m", "appell4.cli", "eval", "--fn", "F4",
                          "--x", "0.1", "--y", "0.1")
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_import_builds_no_parser(self):
        # the parser is built on the first main call; importing the package
        # and building the catalog load neither the CLI nor argparse
        proc = run_python("-c", "import sys, appell4; "
                          "appell4.builtin_catalog(); "
                          "print('appell4.cli' in sys.modules, "
                          "'argparse' in sys.modules)")
        assert proc.returncode == 0
        assert proc.stdout.split() == ["False", "False"]

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("fn,field", [
        ("F41", "a"), ("F41", "b"), ("F41", "c1"), ("F41", "c2"),
        ("F41", "t1"), ("F41", "t2"), ("F42", "t"), ("F4", "c2"),
        ("KdF", "A"), ("KdF", "B"), ("KdF", "C"), ("KdF", "D"), ("KdF", "E"),
        ("KdF", "F")])
    def test_non_finite_parameter_exits_two(self, capsys, fn, field, value):
        # the lattice predicates would raise OverflowError on +-inf
        code = main(["eval", "--fn", fn, "--k1", "1", "--k", "1",
                     f"--{field}={value}", "--x", "0.1", "--y", "0.1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("fn", ["F41", "F42", "F4", "KdF"])
    @pytest.mark.parametrize("field", ["x", "y"])
    def test_non_finite_argument_exits_two(self, capsys, fn, field, value):
        # the sum would overflow (exit 3); the argument is named instead
        code = main(["eval", "--fn", fn, "--x", "0.1", "--y", "0.1",
                     f"--{field}={value}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"config error: {field} = ({value}+0j) is not "
                       "finite\n")

    def test_large_finite_argument_exits_three(self, capsys):
        # F4 warns first: the argument is outside its region
        for fn in ("F41", "F42", "F4", "KdF"):
            code = main(["eval", "--fn", fn, "--x", "1e200"])
            err = capsys.readouterr().err
            assert code == 3
            assert err == (F4_FAR if fn == "F4" else "") + (
                "evaluation error: partial sum exceeds the floating range\n")

    def test_region_warning_is_one_line_on_every_call(self):
        argv = ("eval", "--fn", "F4", "--x", "0.9", "--y", "0.9")
        first, second = call(*argv), call(*argv)
        assert first == second
        assert (first[0], first[2]) == (0, F4_OUTSIDE)
        proc = run_python("-m", "appell4.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == first


class TestModuleRun:
    def test_package_runs_the_command_line(self, capsys):
        argv = ["eval", "--fn", "F4", "--x", "0.1", "--y", "0.1"]
        code, out = run(capsys, *argv)
        proc = run_python("-m", "appell4", *argv)
        assert (proc.returncode, code) == (0, 0)
        assert proc.stdout == out and proc.stderr == ""

    def test_package_run_passes_the_exit_code(self):
        proc = run_python("-m", "appell4", "audit", "--draws", "0")
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error")

    def test_unwritable_out_prints_no_traceback(self, tmp_path):
        proc = run_python("-m", "appell4", "eval", "--fn", "F41", "--x",
                          "0.1", "--out", str(tmp_path / "missing" / "r.json"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


class TestUnwritableOut:
    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    @pytest.mark.parametrize("argv", [
        ("eval", "--fn", "F41", "--x", "0.1"),
        ("audit", "--family", "A", "--draws", "1")])
    def test_exits_two_with_one_error_line(self, capsys, monkeypatch,
                                           tmp_path, argv, target):
        def never(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, "audit_catalog", never)
        monkeypatch.setattr(cli, "eval_f41", never)
        out = tmp_path / "missing" / "r.json" if target == "missing directory" \
            else tmp_path
        code = main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("config error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_a_failed_command_leaves_the_file_empty(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        out.write_text("an older report\n")
        code = main(["eval", "--fn", "F41", "--x", "nan", "--out", str(out)])
        assert code == 2 and capsys.readouterr().out == ""
        assert out.read_text() == ""


class TestAuditCommand:
    def test_ddeq_family_all_ok(self, capsys):
        code, out = run(capsys, "audit", "--family", "A", "--draws", "2")
        rows = json.loads(out)
        assert code == 0
        assert [r["id"] for r in rows] == ["F41.ddeq.1", "F41.ddeq.2",
                                           "F42.ddeq.1", "F42.ddeq.2"]
        assert all(r["status"] == "ok" for r in rows)
        assert list(rows[0]) == ["id", "paper_anchor", "draws", "passes",
                                 "worst_rel_residual", "status"]

    def test_suspected_rows_excluded_by_default(self, capsys):
        _, out = run(capsys, "audit", "--family", "D", "--target", "F41",
                     "--draws", "1")
        rows = json.loads(out)
        assert all(r["status"] == "ok" for r in rows)
        assert "F41.thm4.4" not in {r["id"] for r in rows}
        assert "F41.thm4.4c" in {r["id"] for r in rows}

    def test_include_suspected_reports_typos(self, capsys):
        code, out = run(capsys, "audit", "--family", "D", "--target", "F41",
                        "--draws", "2", "--include-suspected")
        rows = json.loads(out)
        by_id = {r["id"]: r["status"] for r in rows}
        assert code == 0
        assert by_id["F41.thm4.4"] == "typo_confirmed"
        assert by_id["F41.thm4.5"] == "typo_confirmed"
        assert by_id["F41.thm4.4c"] == "ok"

    @pytest.mark.parametrize("flags", [("--tolerance", "nan"),
                                       ("--tolerance", "-1"),
                                       ("--tolerance", "inf"),
                                       ("--draws", "0"), ("--draws", "-3")])
    def test_bad_tolerance_or_draws_exits_two_before_planning(
            self, capsys, monkeypatch, flags):
        # a NaN tolerance used to fail every row (exit 1), and no draws
        # printed [] with exit 0
        planned = []
        monkeypatch.setattr(catalog, "_plan",
                            lambda *a: planned.append(a) or 1 / 0)
        code, out = run(capsys, "audit", "--family", "A", *flags)
        assert (code, out, planned) == (2, "", [])

    def test_unachievable_tolerance_exits_one(self, capsys):
        code, out = run(capsys, "audit", "--family", "A", "--draws", "1",
                        "--tolerance", "1e-18")
        rows = json.loads(out)
        assert code == 1
        assert any(r["status"] == "fail" for r in rows)

    def test_seed_determinism(self, capsys):
        argv = ("audit", "--family", "B", "--target", "F41", "--draws", "2",
                "--seed", "7")
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_env_seed_matches_explicit_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("APPELL4_SEED", "7")
        _, via_env = run(capsys, "audit", "--family", "A", "--draws", "2")
        monkeypatch.delenv("APPELL4_SEED")
        _, via_flag = run(capsys, "audit", "--family", "A", "--draws", "2",
                          "--seed", "7")
        assert via_env == via_flag

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("APPELL4_SEED", "7")
        _, with_env = run(capsys, "audit", "--family", "A", "--draws", "2",
                          "--seed", "3")
        monkeypatch.delenv("APPELL4_SEED")
        _, plain = run(capsys, "audit", "--family", "A", "--draws", "2",
                       "--seed", "3")
        assert with_env == plain

    def test_full_family_value_accepted(self, capsys):
        code, out = run(capsys, "audit", "--family", "A_ddeq", "--draws", "1")
        assert code == 0
        assert len(json.loads(out)) == 4


class TestQuadcheckCommand:
    def test_default_passes_at_1e_minus_8(self, capsys):
        code, out = run(capsys, "quadcheck")
        rep = json.loads(out)
        assert code == 0
        assert rep["pass"] is True
        assert rep["rel_residual"] <= 1e-8

    def test_terminating_k1_passes_at_1e_minus_10(self, capsys):
        code, out = run(capsys, "quadcheck", "--k", "1", "--a", "3",
                        "--b", "2", "--t1", "3", "--t2", "3", "--x", "0.3",
                        "--y", "0.2", "--tolerance", "1e-10")
        rep = json.loads(out)
        assert code == 0
        assert rep["rel_residual"] <= 1e-10
        assert rep["params"]["order"] == 64

    def test_second_representation(self, capsys):
        code, out = run(capsys, "quadcheck", "--which", "rep_b", "--b", "2",
                        "--x", "0.04", "--y", "0.03")
        rep = json.loads(out)
        assert code == 0
        assert rep["identity_id"] == "F41.intrep.rep_b"

    def test_nonterminating_precondition_exits_three(self, capsys):
        code, _ = run(capsys, "quadcheck", "--k", "1", "--t1", "0.5")
        assert code == 3

    def test_near_integer_t_is_not_terminating(self, capsys):
        # termination is the exact lattice test that finds the grid's zeros
        code, out = run(capsys, "quadcheck", "--k", "1", "--a", "3",
                        "--b", "2", "--t1", "3.0000000000001", "--t2", "3",
                        "--x", "0.3", "--y", "0.2")
        assert (code, out) == (3, "")

    def test_overflowing_gamma_weight_exits_three(self, capsys):
        # u^(a - 1) leaves the double range at the rule's largest nodes,
        # which used to end in an OverflowError traceback (exit 1)
        code = main(["quadcheck", "--a", "150"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert "exceeds the double range" in captured.err

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    def test_bad_tolerance_exits_two(self, capsys, tolerance):
        code, out = run(capsys, "quadcheck", "--tolerance", tolerance)
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("flag", ["--x=inf", "--y=nan", "--x=-inf"])
    def test_non_finite_argument_exits_two(self, capsys, flag):
        code = main(["quadcheck", flag])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: {flag[2]} = (")

    def test_nonpositive_exponent_exits_three(self, capsys):
        code, _ = run(capsys, "quadcheck", "--a", "-1")
        assert code == 3

    def test_fractional_exponent_fails_check_exits_one(self, capsys):
        code, out = run(capsys, "quadcheck", "--a", "1.5", "--x", "0.02",
                        "--y", "0.02")
        rep = json.loads(out)
        assert code == 1
        assert rep["pass"] is False
        assert rep["rel_residual"] > 1e-8

    def test_order_out_of_range_exits_two(self, capsys):
        code, _ = run(capsys, "quadcheck", "--order", "500")
        assert code == 2

    def test_bad_order_wins_over_a_bad_regime(self, capsys):
        code, _ = run(capsys, "quadcheck", "--order", "500", "--k", "1",
                      "--t1", "0.5")
        assert code == 2

    def test_regime_is_checked_before_the_rule_is_built(self, capsys):
        before = quadrature._build_rule.cache_info()
        code, _ = run(capsys, "quadcheck", "--order", "256", "--k", "1",
                      "--t1", "0.5")
        assert code == 3
        after = quadrature._build_rule.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


class TestSweepCommand:
    def test_default_grid_shape(self, capsys):
        code, out = run(capsys, "sweep")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "abs_x,abs_y,inside,margin,divergence"
        assert len(lines) == 1 + 36

    def test_boundary_point_is_outside(self, capsys):
        _, out = run(capsys, "sweep", "--lo", "0.25", "--hi", "0.25",
                     "--step", "0.1")
        row = out.strip().split("\n")[1].split(",")
        assert row[:3] == ["0.25", "0.25", "false"]
        assert float(row[3]) == 0.0

    def test_inside_rows_never_flag_divergence(self, capsys):
        _, out = run(capsys, "sweep")
        for line in out.strip().split("\n")[1:]:
            _, _, inside, _, divergence = line.split(",")
            if inside == "true":
                assert divergence == "false"

    def test_outside_rows_can_flag_divergence(self, capsys):
        _, out = run(capsys, "sweep")
        flagged = [line for line in out.strip().split("\n")[1:]
                   if line.endswith(",true")]
        assert flagged
        assert all(line.split(",")[2] == "false" for line in flagged)

    def test_bad_bounds_exit_two(self, capsys):
        assert run(capsys, "sweep", "--lo", "0.5", "--hi", "0.1")[0] == 2
        assert run(capsys, "sweep", "--step", "0")[0] == 2
        assert run(capsys, "sweep", "--lo", "-0.1")[0] == 2

    def test_axis_point_cap(self):
        # the guard's arithmetic only: an oversized sweep is never run
        assert len(cli._sweep_axis(0.0, 200.0, 1.0)) == 201
        assert len(cli._sweep_axis(0.0, 200.4, 1.0)) == 201
        # without the guard none of these would allocate much
        for lo, hi, step in ((0.0, 200.6, 1.0), (0.0, 201.0, 1.0),
                             (0.0, 1e4, 1.0), (0.0, 0.5, 5e-324)):
            with pytest.raises(ValueError, match="201 points per axis"):
                cli._sweep_axis(lo, hi, step)

    def test_non_finite_bounds(self):
        inf, nan = float("inf"), float("nan")
        for lo, hi, step in ((0.0, inf, 0.1), (nan, 0.5, 0.1),
                             (0.0, nan, 0.1), (0.0, 0.5, nan),
                             (-inf, 0.5, 0.1), (0.0, 0.5, inf)):
            with pytest.raises(ValueError, match="bounds must be finite"):
                cli._sweep_axis(lo, hi, step)

    def test_rectangle_over_the_cell_budget_exits_two(self, capsys):
        # rejected before any grid is built
        for argv in (("eval", "--M", "1000", "--N", "1000"),
                     ("sweep", "--M", "600", "--N", "600"),
                     ("quadcheck", "--M", "100000", "--N", "3"),
                     ("audit", "--M", "600", "--N", "600")):
            code = main(list(argv))
            err = capsys.readouterr().err
            assert code == 2
            assert "exceeds 262144 cells" in err

    def test_infinite_bound_exits_two(self, capsys):
        code = main(["sweep", "--hi", "inf"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error")

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        _, out = run(capsys, "sweep", "--lo", "0", "--hi", "0.2",
                     "--step", "0.1", "--out", str(path))
        assert path.read_text() == out


class TestParserReuse:
    """main builds the parser once per process; a reused parser parses,
    fails and prints help exactly as a fresh one did."""

    def test_one_parser_across_calls(self):
        first = cli._build_parser()
        assert call("eval", "--fn", "F4", "--x", "0.1")[0] == 0
        assert call("sweep", "--step", "0.25")[0] == 0
        assert cli._build_parser() is first

    def test_errors_and_help_after_a_successful_eval(self, monkeypatch):
        # recorded with a parser built per call, at COLUMNS=80
        monkeypatch.setenv("COLUMNS", "80")
        assert call("eval", "--fn", "F4", "--x", "0.1")[0] == 0
        assert call("eval", "--bogus", "1") == (
            2, "", "usage: appell4 [-h] {eval,audit,quadcheck,sweep} ...\n"
                   "appell4: error: unrecognized arguments: --bogus 1\n")
        code, out, err = call("eval", "--help")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "95968a8cb1916ddbc1754f0613b2cdcdbb6831548a8296df4276ef6c63de885f")
        code, out, err = call("--help")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4988c814653764b08a9832e296f29fbcfb438ec04bce1c4bdfe73405ab226877")

    @pytest.mark.parametrize("command,digest", [
        ("audit",
         "6533738e314c73d9670b5959b67214e0cb303c13dba22f5b6d154c7e4b67d4be"),
        ("quadcheck",
         "24d4947cc826e44cde914197a21a4d172237f3263b75d70e48b1bbba3c58e443"),
        ("sweep",
         "06e085384c86e8f397a6abc9dad79ffa8d5ed2c1753ef7ba8de03fb6f550a6da"),
    ], ids=["audit", "quadcheck", "sweep"])
    def test_command_help(self, monkeypatch, command, digest):
        # recorded before the flags became rows of one table, at COLUMNS=80
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = call(command, "--help")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestConfigHandling:
    def test_config_file_sets_defaults(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"fn": "F4", "a": "2", "x": "0.01",
                                    "y": "0.02"}))
        code, out = run(capsys, "eval", "--config", str(path))
        rep = json.loads(out)
        assert code == 0
        assert rep["function"] == "F4"
        assert rep["params"]["a"] == [2, 0]

    def test_explicit_flag_beats_config(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"fn": "F4", "x": "0.01"}))
        _, out = run(capsys, "eval", "--config", str(path), "--x", "0.3")
        assert json.loads(out)["params"]["x"] == [0.3, 0]

    def test_unknown_config_key_exits_two(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"frequency": 3}))
        assert run(capsys, "eval", "--config", str(path))[0] == 2

    def test_non_object_config_exits_two(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps([1, 2]))
        assert run(capsys, "eval", "--config", str(path))[0] == 2

    def test_missing_config_exits_two(self, capsys, tmp_path):
        assert run(capsys, "eval", "--config",
                   str(tmp_path / "absent.json"))[0] == 2

    @pytest.mark.parametrize("command,values", [
        ("audit", {"draws": [1]}),
        ("audit", {"m_max": [3]}),
        ("eval", {"fn": "nope"}),
        ("eval", {"k1": 1.7}),
        ("audit", {"m_max": 1.5}),
        ("audit", {"draws": True}),
        ("audit", {"include_suspected": "false"}),
        ("audit", {"family": "Z"}),
        ("sweep", {"step": "fine"}),
    ])
    def test_bad_config_value_exits_two(self, capsys, tmp_path, command,
                                        values):
        # each value fails as its flag would, before anything runs
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(values))
        code = main([command, "--config", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("config error: ")
        assert repr(next(iter(values))) in err

    def test_config_values_take_the_flag_types(self, capsys, tmp_path):
        # an int flag takes an int or its text, and null keeps the default;
        # a number for a text flag is read as its text
        path = tmp_path / "eval.json"
        path.write_text(json.dumps({"fn": "F4", "a": 2, "x": 0.1, "y": 1e-05,
                                    "out": None}))
        assert run(capsys, "eval", "--config", str(path)) == run(
            capsys, "eval", "--fn", "F4", "--a", "2", "--x", "0.1", "--y",
            "1e-05")
        path.write_text(json.dumps({"a": True}))
        assert run(capsys, "eval", "--config", str(path)) == \
            run(capsys, "eval", "--a", "True") == (2, "")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"draws": "1", "m_max": 6, "n_max": 6,
                                    "family": "A", "seed": None,
                                    "include_suspected": True}))
        code, out = run(capsys, "audit", "--config", str(path))
        assert code == 0
        assert out == run(capsys, "audit", "--draws", "1", "--M", "6",
                          "--N", "6", "--family", "A",
                          "--include-suspected")[1]

    @pytest.mark.parametrize("command", ["eval", "audit", "quadcheck",
                                         "sweep"])
    def test_config_keys_are_the_flag_destinations(self, tmp_path, command):
        # every flag but --config is a config key, and a file that sets each
        # key to its default changes no byte
        sub = cli._build_parser()._subparsers._group_actions[0]
        flags = {action.dest for action in sub.choices[command]._actions}
        rows = cli._COMMANDS[command][1]
        assert set(rows) == flags - {"config", "help"}
        values = {key: default for key, (default, _) in rows.items()}
        extra = []
        if command == "audit":  # one draw keeps the test short
            values["draws"], extra = 1, ["--draws", "1"]
        path = tmp_path / "defaults.json"
        path.write_text(json.dumps(values))
        plain = call(command, *extra)
        assert plain[0] == 0 and plain[1]
        assert call(command, "--config", str(path)) == plain

    def test_dump_json_formats(self):
        text = dump_json({"z": complex(1, -2), "flag": True, "s": "hi",
                          "n": None, "seq": [0.1]})
        parsed = json.loads(text)
        assert parsed == {"z": [1, -2], "flag": True, "s": "hi",
                          "n": None, "seq": [0.1]}
        assert text.index('"z"') < text.index('"flag"') < text.index('"s"')


class TestGridReuse:
    """A command evaluates one coefficient set at many arguments; the grid
    cache is keyed without (x, y), so each set is built once."""

    def misses(self, capsys, *argv):
        series._grid_coeffs.cache_clear()
        code, _ = run(capsys, *argv)
        assert code == 0
        return series._grid_coeffs.cache_info().misses

    def test_sweep_builds_one_grid(self, capsys):
        assert self.misses(capsys, "sweep", "--step", "0.1") == 1

    def test_quadcheck_builds_inner_and_direct_grid(self, capsys):
        # the KdF integrand grid, shared by all 64 nodes, and the F41 grid
        assert self.misses(capsys, "quadcheck", "--order", "64",
                           "--x", "0.04", "--y", "0.03") == 2


# SHA-256 of the stdout of each command, recorded at the commit before grids
# were keyed without (x, y) and block sums computed in one pass; both changes
# must leave every report byte-identical
GOLDEN = [
    (["eval", "--fn", "F41", "--a", "1.1", "--b", "0.9", "--c1", "1.6",
      "--c2", "2.1", "--t1", "3.7", "--t2", "2.2", "--k1", "1", "--k2", "1",
      "--x", "0.05+0.02j", "--y", "0.03"],
     "508dfd7e7e7a57447877f930e6b8157ff260cfe8a69b73e23b1a7058c1ab532f"),
    # k = 1 with non-terminating t: the grid takes the log-space path
    (["eval", "--fn", "F42", "--a", "1.5", "--b", "2.5", "--c1", "3.1",
      "--c2", "2.7", "--t", "2.9+1.9j", "--k", "1", "--x", "0.2",
      "--y", "0.1-0.05j"],
     "c5847188d0e3596848e3c234fcc2ac5ecee26e2e2d936c1298cf8a43e8ce6409"),
    (["eval", "--fn", "KdF", "--A", "1.2,0.9", "--B", "0.7", "--C", "0.4",
      "--D", "2.2", "--E", "1.4", "--F", "1.6", "--x", "0.15", "--y", "0.2"],
     "25dc7cd9e351f44dab7c6687e10dd138a2471ada8cd98466b06b3c833677c4f6"),
    (["quadcheck", "--k", "1", "--order", "64", "--a", "3", "--b", "2",
      "--c1", "1.7", "--c2", "2.3", "--t1", "3", "--t2", "3", "--x", "0.3",
      "--y", "0.2"],
     "23b7a126e3ba1d4f97e14efa9e8e7923d0ccaacc48d565dc94f38b1787492dc4"),
    (["sweep", "--step", "0.1", "--k", "0"],
     "5e5a88d4be09a0416dafa185a51ff757158a9a131185dde85f09367a68c6c002"),
    (["sweep", "--step", "0.1", "--k", "1"],
     "707e62f1af74e979b586b0deaaf134907eb045dcab93e3b75b1c7d689e61621f"),
    # 13 x 13 grids of every catalog family; recorded at the commit before
    # grid anchors became prefixes of one running product per symbol
    (["audit", "--draws", "3", "--include-suspected", "--seed", "0"],
     "03055b1c72249e856134e44101e70024d058cdf43f0b1bbe18c0db38920b7e44"),
    # 256 nodes at k = 0; recorded at the commit before points were summed
    # in stacks and rules were cached
    (["quadcheck", "--order", "256", "--a", "2", "--b", "0.7+0.1j",
      "--c1", "1.2", "--c2", "0.9-0.2j", "--x", "0.05+0.01j", "--y", "0.04"],
     "e48a7360ac230223cf53598c5671b9e06d01822e1b5c2d187f6b41298aeb14bb"),
    # a 14 x 13 rectangle, its grids built as lanes; recorded at the commit
    # before audits built their grids in batches
    (["audit", "--draws", "2", "--include-suspected", "--M", "13", "--N",
      "12", "--seed", "4"],
     "c027514107bcef8bf7ef33930f9fc32adc9e5bcc3b0507865318aa9fd8ea657a"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN,
                         ids=["eval-F41", "eval-F42-log", "eval-KdF",
                              "quadcheck-k1", "sweep-k0", "sweep-k1",
                              "audit-3", "quadcheck-256-k0", "audit-2-13x12"])
def test_golden_stdout(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_audit_on_a_thin_rectangle_with_and_without_lanes(capsys,
                                                          monkeypatch):
    # composed-argument grids once failed on rectangles whose sides differ
    # by more than one (exit 2)
    argv = ("audit", "--draws", "2", "--include-suspected", "--M", "20",
            "--N", "16", "--seed", "4")
    code, out = run(capsys, *argv)
    assert code == 0
    assert {row["status"] for row in json.loads(out)} == \
        {"ok", "typo_confirmed"}
    # every grid built alone
    monkeypatch.setattr(series, "_grid_lanes",
                        lambda params, M, N: ((p, None) for p in params))
    assert run(capsys, *argv) == (code, out)


def _bench_inputs():
    """perfbench/bench_inputs.py, loaded from its path and left as it is."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", os.path.join(root, "perfbench", "bench_inputs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_pool_stdout(per_kind=None) -> str:
    """SHA-256 over the argv, exit code, stdout and stderr of the first
    per_kind operations of each benchmark pool but the audits' (all 2,240
    if None), run in pool order through main.  A change that keeps the full
    digest keeps every eval, quadcheck and sweep report of the benchmark."""
    digest = hashlib.sha256()
    for kind, argvs in _bench_inputs().pools().items():
        if kind != "audit":
            for argv in argvs[:per_kind]:
                digest.update(json.dumps([argv, *call(*argv)]).encode())
    return digest.hexdigest()


def test_pool_slice_keeps_its_bytes():
    # four operations of each kind, recorded before the flags became rows of
    # one table; a change to the benchmark pools re-records it
    assert check_pool_stdout(4) == (
        "af3bb83f88f1f682455057f71cd1c272b300062add7e942c084523d6e19026e1")
