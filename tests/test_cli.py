import enum
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qordsearch import cli
from qordsearch import lowerbound as lb
from qordsearch import teamsearch as ts
from qordsearch.cli import main, render_json

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


class TestBound:
    def test_two_element_list(self, runner):
        result = run(runner, "bound", "--n", "2")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["total_weight"] == 1.0
        assert abs(payload["delta"] - 2 * math.pi) < 1e-12

    def test_large_list_matches_formula(self, runner):
        result = run(runner, "bound", "--n", "1024")
        payload = json.loads(result.output)
        expected = (lb.harmonic(1024) - 1) / math.pi
        assert abs(payload["bound"] - expected) < 1e-12

    def test_half_error_collapses_the_bound(self, runner):
        result = run(runner, "bound", "--n", "100", "--eps", "0.5")
        assert json.loads(result.output)["bound"] == 0.0

    def test_usage_errors(self, runner):
        assert run(runner, "bound", "--n", "1").exit_code == 2
        assert run(runner, "bound", "--n", "8", "--eps", "0.7").exit_code == 2

    def test_a_list_of_2_to_the_40_is_answered_at_once(self, runner):
        n = 1 << 40
        start = time.perf_counter()
        result = run(runner, "bound", "--n", str(n))
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["total_weight"] == n * lb._harmonic_expansion(n) - n
        assert payload["bound"] == (lb._harmonic_expansion(n) - 1) / math.pi

    @pytest.mark.parametrize("n", [10**306, 10**400])
    def test_a_total_weight_past_the_float_range_is_a_usage_error(self, runner, n):
        result = runner.invoke(main, ["bound", "--n", str(n)])
        assert result.exit_code == 2
        assert "--n is too large: total weight n*H_n - n overflows a float" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)


class TestTrajectory:
    def test_binary_eight_has_four_rows_ending_near_zero(self, runner):
        result = run(runner, "trajectory", "--algo", "binary", "--n", "8")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "j,W_re,W_im,drop_abs,bound"
        assert len(lines) == 5
        final = lines[-1].split(",")
        assert abs(float(final[1])) < 1e-9

    def test_team_eight_drops_below_cap(self, runner):
        result = run(runner, "trajectory", "--algo", "team", "--n", "8")
        assert result.exit_code == 0
        rows = result.output.splitlines()[1:]
        drops = [float(r.split(",")[3]) for r in rows if r.split(",")[3]]
        assert drops
        assert all(d <= 8 * math.pi + 1e-9 for d in drops)

    def test_single_element_list_is_one_zero_row(self, runner):
        result = run(runner, "trajectory", "--n", "1")
        lines = result.output.splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[1]) == 0.0

    def test_json_format(self, runner):
        result = run(runner, "trajectory", "--n", "4", "--format", "json")
        payload = json.loads(result.output)
        assert payload["n"] == 4
        assert len(payload["steps"]) == 3
        assert payload["steps"][-1]["drop_abs"] is None

    # The benchmark's output check: the CLI, which computes W only, prints
    # the W of a chain-verified run, which also computes each pair drop.
    def test_binary_csv_is_the_chain_verified_run(self, runner):
        result = run(runner, "trajectory", "--algo", "binary", "--n", "256")
        assert result.exit_code == 0
        algorithm = ts.BinarySearchAlgorithm(256)
        w = lb.WeightSpec.inverse_distance(256)
        record = lb.run_trajectory(algorithm, 256, w, verify_chain=True)
        assert result.output == record.to_csv()

    def test_team_json_is_the_chain_verified_run(self, runner):
        args = ("--algo", "team", "--n", "512", "--format", "json")
        result = run(runner, "trajectory", *args)
        assert result.exit_code == 0
        algorithm = ts.TeamCombineAlgorithm(512)
        w = lb.WeightSpec.inverse_distance(512)
        record = lb.run_trajectory(algorithm, 512, w, verify_chain=True)
        payload = json.loads(result.output)
        header = (payload["n"], payload["algo"], payload["bound"])
        assert header == (512, "team", record.bound)
        assert [
            [s["j"], s["W_re"], s["W_im"], s["drop_abs"]] for s in payload["steps"]
        ] == [
            [s.j, s.overlap, 0.0, None if s.drop is None else abs(s.drop)]
            for s in record.steps
        ]


class TestSimulate:
    def test_team_sweep_at_eight(self, runner):
        result = run(runner, "simulate", "--algo", "team", "--n", "8")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["all_exact"] is True
        assert len(payload["results"]) == 8
        for row in payload["results"]:
            assert row["answer_found"] == row["answer"]
            assert abs(row["probability"] - 1.0) <= 1e-9
            assert row["queries"] == 1

    def test_binary_sixteen_uses_four_queries(self, runner):
        result = run(runner, "simulate", "--algo", "binary", "--n", "16",
                     "--answer", "11")
        payload = json.loads(result.output)
        assert payload["queries"] == 4
        assert payload["answer_found"] == 11

    def test_answer_out_of_range_is_a_usage_error(self, runner):
        result = run(runner, "simulate", "--algo", "team", "--n", "8",
                     "--answer", "8")
        assert result.exit_code == 2

    def test_unsupported_team_size_is_a_usage_error(self, runner):
        assert run(runner, "simulate", "--algo", "team", "--n", "24").exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("--algo", "binary", "--n", "0"),
            ("--algo", "binary", "--n", "6"),
            ("--algo", "binary", "--n", "8", "--answer", "-1"),
        ],
        ids=["n-0", "binary-n-6", "answer--1"],
    )
    def test_bad_size_or_answer_is_a_usage_error(self, runner, args):
        assert run(runner, "simulate", *args).exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("simulate", "--algo", "binary"),
            ("simulate", "--algo", "team"),
            ("trajectory", "--algo", "binary"),
            ("trajectory", "--algo", "team"),
        ],
        ids=["simulate-binary", "simulate-team", "trajectory-binary", "trajectory-team"],
    )
    def test_a_run_of_every_answer_past_2_to_the_30_is_a_usage_error(
        self, runner, args
    ):
        # 2^31 = 2 * (2^15)^2 is a valid size for both algorithms. The refusal
        # comes before any array of length N is allocated.
        result = run(runner, *args, "--n", str(1 << 31))
        assert result.exit_code == 2
        expected = "list size 2147483648 is past 2**30, the largest run of every answer"
        assert expected in result.output

    @pytest.mark.parametrize(
        "args, needed, per_answer",
        [
            (("simulate", "--algo", "binary", "--n", str(1 << 30)), "1.12e+03", 1120),
            (("trajectory", "--algo", "binary", "--n", str(1 << 30)), "1.12e+03", 1120),
            (("simulate", "--algo", "team", "--n", str(1 << 29)), "1.47e+03", 2940),
            (("trajectory", "--algo", "team", "--n", str(1 << 29)), "1.47e+03", 2940),
            (("simulate", "--algo", "binary", "--n", str(1 << 23)), "8.75", 1120),
        ],
        ids=[
            "simulate-binary",
            "trajectory-binary",
            "simulate-team",
            "trajectory-team",
            "simulate-binary-2^23",
        ],
    )
    def test_a_sweep_past_physical_memory_is_refused_before_running(
        self, runner, monkeypatch, args, needed, per_answer
    ):
        # A sweep is checked at 990 bytes per answer plus 130 per answer and
        # opening level: binary search has one level, team 2^29 (r = 2^14)
        # has 15. So an 8 GiB host refuses binary 2^23 (8.75 GiB).
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep was started")

        monkeypatch.setattr(cli, "physical_memory", lambda: 8 << 30)
        monkeypatch.setattr(cli.teamsearch, "run_ensemble", refuse)
        monkeypatch.setattr(cli.lowerbound, "run_trajectory", refuse)
        result = runner.invoke(main, list(args))
        assert result.exit_code == 2
        assert (
            f"--n {args[-1]} needs {needed} GiB for a sweep of every answer at "
            f"{per_answer} bytes each, more than the 8 GiB of memory (physical, or "
            "the cgroup limit)"
        ) in result.output

    @pytest.mark.parametrize("command", ["simulate", "trajectory"])
    # Binary search has one opening level; team 512 (r = 16) has five.
    @pytest.mark.parametrize("algo, n, needed", [("binary", 1024, 1120 * 1024),
                                                 ("team", 512, 1640 * 512)])
    def test_a_sweep_that_fits_runs_and_an_unknown_memory_is_no_refusal(
        self, runner, monkeypatch, command, algo, n, needed
    ):
        args = (command, "--algo", algo, "--n", str(n))
        expected = run(runner, *args).output
        monkeypatch.setattr(cli, "physical_memory", lambda: needed)
        assert run(runner, *args).output == expected
        monkeypatch.setattr(cli, "physical_memory", lambda: None)
        assert run(runner, *args).output == expected
        monkeypatch.setattr(cli, "physical_memory", lambda: needed - 1)
        assert runner.invoke(main, list(args)).exit_code == 2

    def test_a_one_answer_run_needs_no_memory_check(self, runner, monkeypatch):
        monkeypatch.setattr(cli, "physical_memory", lambda: 1)
        result = run(runner, "simulate", "--algo", "binary", "--n", "1024",
                     "--answer", "5")
        assert result.exit_code == 0

    @pytest.mark.parametrize(
        "algo, n",
        [("binary", 1 << 31), ("team", 1 << 31),
         ("binary", 1 << 40), ("team", 1 << 41)],
    )
    def test_one_answer_runs_past_2_to_the_30(self, runner, algo, n):
        result = run(runner, "simulate", "--algo", algo, "--n", str(n), "--answer", "5")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["correct"] is True and payload["answer_found"] == 5

    @pytest.mark.parametrize("algo", ["binary", "team"])
    def test_a_size_past_int64_is_a_usage_error(self, runner, algo):
        # 2^63 = 2 * (2^31)^2: its padding index does not fit int64.
        result = run(runner, "simulate", "--algo", algo, "--n", str(1 << 63),
                     "--answer", "5")
        assert result.exit_code == 2
        assert "list size 9223372036854775808 is past int64: need n < 2**63" in (
            result.output
        )


class TestSmallCommands:
    def test_layout(self, runner):
        result = run(runner, "layout", "--r", "4")
        payload = json.loads(result.output)
        assert payload["n_list"] == 32
        assert len(payload["computers"]) == 4
        assert all(len(bits) == 11 for bits in payload["computers"])
        assert payload["computers"][0] == [8, 12, 16, 18, 20, 22, 24, 26, 28, 30, 32]

    def test_layout_rejects_non_power(self, runner):
        assert run(runner, "layout", "--r", "3").exit_code == 2

    def test_expansion(self, runner):
        result = run(runner, "expansion", "--m", "11")
        payload = json.loads(result.output)
        assert payload["m_next"] == 32
        assert abs(payload["F"] - 32 / 11) < 1e-12

    def test_norms_closed_form(self, runner):
        result = run(runner, "norms", "--size", "2")
        payload = json.loads(result.output)
        assert abs(payload["hilbert_norm"] - (4 + math.sqrt(13)) / 6) < 1e-10
        assert payload["hankel_norm"] <= payload["hilbert_norm"]

    def test_norms_past_physical_memory_is_refused_before_allocating(
        self, runner, monkeypatch
    ):
        def refuse(size):
            raise AssertionError(f"dense matrix of size {size} allocated")

        monkeypatch.setattr(cli, "physical_memory", lambda: 8 << 30)
        monkeypatch.setattr(lb, "hilbert_matrix", refuse)
        monkeypatch.setattr(lb, "hankel_matrix", refuse)
        result = runner.invoke(main, ["norms", "--size", "100000000000"])
        assert result.exit_code == 2
        assert "--size 100000000000 needs 7.45e+13 GiB for a dense matrix" in result.output
        assert "more than the 8 GiB of memory" in result.output
        # One 2048 x 2048 matrix, the basis and 2 MiB need 34.5 MiB.
        monkeypatch.setattr(cli, "physical_memory", lambda: 34 << 20)
        assert runner.invoke(main, ["norms", "--size", "2048"]).exit_code == 2

    def test_norms_that_fit_run_and_an_unknown_memory_is_no_refusal(
        self, runner, monkeypatch
    ):
        expected = run(runner, "norms", "--size", "65").output
        needed = 8 * 65 * (65 + 33) + (2 << 20)
        monkeypatch.setattr(cli, "physical_memory", lambda: needed)
        assert run(runner, "norms", "--size", "65").output == expected
        monkeypatch.setattr(cli, "physical_memory", lambda: None)
        assert run(runner, "norms", "--size", "65").output == expected
        monkeypatch.setattr(cli, "physical_memory", lambda: needed - 1)
        assert runner.invoke(main, ["norms", "--size", "65"]).exit_code == 2

    def test_physical_memory_is_read_from_sysconf(self):
        memory = cli.physical_memory()
        assert memory is None or memory > 1 << 20

    @pytest.mark.parametrize(
        "files, expected",
        [
            ({"/proc/self/cgroup": "0::/user.slice/job\n",
              "/sys/fs/cgroup/user.slice/job/memory.max": "1048576\n"}, 1048576),
            ({"/proc/self/cgroup": "0::/\n",
              "/sys/fs/cgroup/memory.max": "1048576\n"}, 1048576),
            ({"/proc/self/cgroup": "0::/user.slice/job\n",
              "/sys/fs/cgroup/user.slice/job/memory.max": "max\n"}, None),
            # A cgroup v1 hierarchy has no 0:: line.
            ({"/proc/self/cgroup": "4:memory:/job\n",
              "/sys/fs/cgroup/job/memory.max": "1048576\n"}, None),
            ({"/proc/self/cgroup": "0::/user.slice/job\n"}, None),
            ({}, None),
        ],
        ids=["limit", "root-limit", "no-limit", "v1-only", "no-file", "unreadable"],
    )
    def test_physical_memory_takes_a_lower_cgroup_limit(self, monkeypatch, files, expected):
        files = dict(files)

        def read_text(path):
            if path not in files:
                raise FileNotFoundError(path)
            return files[path]

        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        monkeypatch.setattr(cli, "_read_text", read_text)
        assert cli.cgroup_memory_limit() == expected
        assert cli.physical_memory() == (physical if expected is None else expected)
        # A limit above physical memory leaves physical memory the figure.
        for path in files:
            if path.endswith("memory.max"):
                files[path] = f"{4 * physical}\n"
        assert cli.physical_memory() == physical

    def test_layout_past_memory_is_refused_before_building(self, runner, monkeypatch):
        # r = 1024 holds 1024 * 699051 known bits, 39.3 GiB at 59 bytes each.
        def refuse(r):
            raise AssertionError(f"layout of r = {r} built")

        monkeypatch.setattr(cli, "physical_memory", lambda: 8 << 30)
        expected = run(runner, "layout", "--r", "32").output
        monkeypatch.setattr(cli.teamsearch, "build_layout", refuse)
        result = runner.invoke(main, ["layout", "--r", "1024"])
        assert result.exit_code == 2
        assert (
            "--r 1024 needs 39.3 GiB for the layout's 715828224 known bits, more "
            "than the 8 GiB of memory"
        ) in result.output
        monkeypatch.undo()
        monkeypatch.setattr(cli, "physical_memory", lambda: 59 * 32 * 683)
        assert run(runner, "layout", "--r", "32").output == expected
        monkeypatch.setattr(cli, "physical_memory", lambda: 59 * 32 * 683 - 1)
        assert runner.invoke(main, ["layout", "--r", "32"]).exit_code == 2

    def test_decompose(self, runner):
        result = run(runner, "decompose", "--m", "14")
        payload = json.loads(result.output)
        assert payload["digits"] == [0, 1, 1]
        assert payload["reconstructed"] == 14

    def test_querycount(self, runner):
        result = run(runner, "querycount", "--n", "1048576")
        payload = json.loads(result.output)
        assert payload["queries"] <= payload["ceil_log3"] + 3
        assert payload["trace"][0] == 1
        assert payload["trace"][-1] >= 1048576


def printable_range(low):
    """How --help and click's errors show ``cli.PrintableGrowth(low)``."""
    if cli.INT_DIGITS:
        return f"{low}<=x<=10**{cli.INT_DIGITS}//3"
    return f"x>={low}"


# Each integer option bounded in its declaration, its smallest refused value
# and its range as click shows it.
LOWER_BOUNDS = [
    ("bound", "--n", 1, "x>=2"),
    ("trajectory", "--n", 0, "x>=1"),
    ("simulate", "--n", 0, "x>=1"),
    ("expansion", "--m", 0, printable_range(1)),
    ("norms", "--size", 0, "x>=1"),
    ("decompose", "--m", 0, "x>=1"),
    ("querycount", "--n", 1, printable_range(2)),
]


class TestOptionDomains:
    @pytest.mark.parametrize("command, option, refused, shown", LOWER_BOUNDS,
                             ids=[bound[0] for bound in LOWER_BOUNDS])
    def test_the_smallest_refused_value_is_a_usage_error(
        self, runner, command, option, refused, shown
    ):
        result = runner.invoke(main, [command, option, str(refused)])
        assert result.exit_code == 2
        assert (
            f"Invalid value for '{option}': {refused} is not in the range {shown}."
        ) in result.output

    @pytest.mark.parametrize("command, option, refused, shown", LOWER_BOUNDS,
                             ids=[bound[0] for bound in LOWER_BOUNDS])
    def test_help_shows_the_range(self, runner, command, option, refused, shown):
        result = run(runner, command, "--help")
        assert f"{option} INTEGER RANGE" in result.output
        assert f"[{shown}; required]" in result.output

    def test_both_algorithm_options_and_the_builder_read_one_table(self, runner):
        for command in (cli.trajectory, cli.simulate):
            [algo] = [param for param in command.params if param.name == "algo"]
            assert list(algo.type.choices) == list(cli.ALGORITHMS)
        for name, cls in cli.ALGORITHMS.items():
            assert type(cli.build_algorithm(name, 8, sweep=False)) is cls
        result = runner.invoke(main, ["simulate", "--algo", "ternary", "--n", "8"])
        assert result.exit_code == 2
        assert "'ternary' is not one of 'binary', 'team'" in result.output

    @pytest.mark.skipif(not cli.INT_DIGITS, reason="ints print at any length")
    @pytest.mark.parametrize(
        "command, option, value",
        [
            # 4 * 10**4299 grows to 12 * 10**4299 less its digit sum, 4301
            # digits; the query chain past 4300 nines ends past 10**4300.
            ("expansion", "--m", str(4 * 10**4299)),
            ("querycount", "--n", "9" * 4300),
        ],
        ids=["expansion", "querycount"],
    )
    def test_an_input_whose_result_would_not_print_is_a_usage_error(
        self, runner, command, option, value
    ):
        result = run(runner, command, option, value)
        assert result.exit_code == 2
        assert f"Invalid value for '{option}'" in result.output

    @pytest.mark.parametrize(
        "command, option, low, largest",
        [
            ("expansion", "--m", 1, lambda payload: payload["m_next"]),
            ("querycount", "--n", 2, lambda payload: payload["trace"][-1]),
        ],
        ids=["expansion", "querycount"],
    )
    def test_the_largest_printable_input_prints_and_the_next_is_refused(
        self, command, option, low, largest
    ):
        # 640 is the smallest limit an interpreter takes, and walking the
        # query chain to 10**640 takes a fraction of a second. The child
        # imports the package this interpreter runs.
        paths = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}

        def invoke(value):
            return subprocess.run(
                [sys.executable, "-X", "int_max_str_digits=640", "-m",
                 "qordsearch.cli", command, option, str(value)],
                capture_output=True, text=True, env=env,
            )

        top = 10**640 // 3
        printed = invoke(top)
        assert printed.returncode == 0, printed.stderr
        assert 10**639 <= largest(json.loads(printed.stdout)) < 10**640
        refused = invoke(top + 1)
        assert refused.returncode == 2
        assert refused.stdout == ""
        assert (
            f"Invalid value for '{option}': {top + 1} is not in the range "
            f"{low}<=x<=10**640//3."
        ) in refused.stderr
        assert "Traceback" not in refused.stderr


class TestOutputDiscipline:
    def test_identical_invocations_are_byte_identical(self, runner):
        first = run(runner, "trajectory", "--algo", "team", "--n", "32")
        second = run(runner, "trajectory", "--algo", "team", "--n", "32")
        assert first.output == second.output
        third = run(runner, "simulate", "--algo", "binary", "--n", "8")
        fourth = run(runner, "simulate", "--algo", "binary", "--n", "8")
        assert third.output == fourth.output

    def test_out_flag_writes_the_same_bytes(self, runner, tmp_path):
        target = tmp_path / "bound.json"
        piped = run(runner, "bound", "--n", "64")
        filed = run(runner, "bound", "--n", "64", "--out", str(target))
        assert filed.exit_code == 0
        assert target.read_text() == piped.output

    @pytest.mark.parametrize(
        "args",
        [
            ("bound", "--n", "8"),
            ("trajectory", "--algo", "binary", "--n", "8"),
            ("simulate", "--algo", "team", "--n", "8"),
            ("layout", "--r", "2"),
            ("expansion", "--m", "11"),
            ("norms", "--size", "2"),
            ("decompose", "--m", "14"),
            ("querycount", "--n", "8"),
        ],
        ids=lambda args: args[0],
    )
    def test_unwritable_out_is_a_usage_error(self, runner, tmp_path, args):
        # catch_exceptions=False lets an OSError escape as a traceback.
        target = tmp_path / "missing" / "x.json"
        result = run(runner, *args, "--out", str(target))
        assert result.exit_code == 2
        assert str(target) in result.output
        assert "Traceback" not in result.output
        assert not target.parent.exists()

    def test_floats_carry_17_significant_digits(self, runner):
        result = run(runner, "bound", "--n", "8")
        payload = result.output
        assert '"total_weight":13.742857142857144' in payload

    def test_violation_exit_code_is_reserved(self):
        # No implemented algorithm violates the cap; the checking predicate
        # is exercised directly on a doctored record instead.
        record = lb.TrajectoryRecord(
            n=2,
            bound=2 * math.pi,
            steps=[
                lb.StepRecord(0, 100.0, 99.0),
                lb.StepRecord(1, 1.0, None),
            ],
        )
        assert not record.bound_satisfied()


class TestStrictJson:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_are_refused(self, bad):
        for value in (bad, {"x": bad}, [1.0, bad], {"steps": [{"W_re": bad}]}):
            with pytest.raises(ValueError):
                render_json(value)

    def test_finite_floats_still_render(self):
        text = render_json({"x": 0.1, "y": [-0.0, 1e308], "z": None})
        assert text == '{"x":0.10000000000000001,"y":[-0,1e+308],"z":null}'
        assert json.loads(text) == {"x": 0.1, "y": [0.0, 1e308], "z": None}

    def test_subclasses_render_as_their_base_type(self):
        class Text(str):
            pass

        class Level(enum.IntEnum):
            HIGH = 3

        value = {
            "a": np.float64(0.1),
            Text("b"): Text('q"\u00e9'),
            "c": OrderedDict(x=(True, None, Level.HIGH, -7)),
        }
        assert render_json(value) == (
            '{"a":0.10000000000000001,"b":"q\\"\\u00e9","c":{"x":[true,null,3,-7]}}'
        )
        with pytest.raises(ValueError):
            render_json([np.float64(math.nan)])
        for unsupported in (np.int64(1), np.bool_(True), {1, 2}):
            with pytest.raises(TypeError):
                render_json({"x": unsupported})


# Stdout of the simulator commands, recorded before the per-operator fast
# path landed. A change that moves float digits must regenerate these files
# and say so.
GOLDEN_RUNS = [
    (("simulate", "--algo", "binary", "--n", "64"), "simulate_binary_64.txt"),
    (("simulate", "--algo", "team", "--n", "128"), "simulate_team_128.txt"),
    (("trajectory", "--algo", "binary", "--n", "32"), "trajectory_binary_32.txt"),
    (
        ("trajectory", "--algo", "team", "--n", "32", "--format", "json"),
        "trajectory_team_32.json",
    ),
]


@pytest.mark.parametrize("args, golden", GOLDEN_RUNS, ids=[g for _, g in GOLDEN_RUNS])
def test_golden_output_is_byte_identical(runner, args, golden):
    result = run(runner, *args)
    assert result.exit_code == 0
    assert result.output == (GOLDEN / golden).read_text()


# Stdout sha1 of sweeps too large for a golden file, recorded with the
# per-instance simulate before it moved to the ensemble path.
SIMULATE_SHA1 = [
    (("--algo", "binary", "--n", "1024"), "098fafd7429d71c6368cfbf1ef9d3d3b4446934a"),
    (("--algo", "team", "--n", "2048"), "8e2399ab30909e92fe151b778bf76ab8c8653f7b"),
]


@pytest.mark.parametrize(
    "args, sha1", SIMULATE_SHA1, ids=["binary-1024", "team-2048"]
)
def test_large_simulate_output_is_byte_identical(runner, args, sha1):
    result = run(runner, "simulate", *args)
    assert result.exit_code == 0
    assert hashlib.sha1(result.stdout_bytes).hexdigest() == sha1


# Stdout sha1 of the digit accounting, recorded while a decomposition was a
# frozen dataclass holding a tuple of its digits.
ACCOUNTING_SHA1 = [
    (("decompose", "--m", "999999937"), "a0341460dd281ff4fb54191fa851405d6d591f65"),
    (("decompose", "--m", str(10**3999 + 7)), "9a3f343ea8b27f0ef08058b0b261b4fb0a1aab34"),
    (("expansion", "--m", str(10**300 + 7)), "806a93a50ff4ed0178724434d63b2c5b373cb132"),
    (("querycount", "--n", str(10**200)), "b831722f43c4a4cc8598c0c4b9732123fa346b9c"),
    # 19 394 499 bytes; recorded while each decomposition divided digit by digit.
    pytest.param(
        ("querycount", "--n", str(10**4300 // 3)),
        "6b124731e0bd89de386d9fb3b71c45c48a88b51c",
        marks=pytest.mark.skipif(not cli.INT_DIGITS, reason="no cap on --n"),
    ),
]


@pytest.mark.parametrize(
    "args, sha1",
    ACCOUNTING_SHA1,
    ids=[
        "decompose-999999937",
        "decompose-4000-digits",
        "expansion-1e300",
        "querycount-1e200",
        "querycount-cap",
    ],
)
def test_large_accounting_output_is_byte_identical(runner, args, sha1):
    result = run(runner, *args)
    assert result.exit_code == 0
    assert hashlib.sha1(result.stdout_bytes).hexdigest() == sha1


# Stdout sha1 of layouts, recorded while each computer's known bits were a
# set that the JSON sorted; the tuples built from the classical progression
# must print the same bytes.
LAYOUT_SHA1 = [
    ("16", "09af3fd46d60930cfbf50700b042a47b3897802c"),
    ("32", "ae47999c2e48a804adea15849d220d8b788b763a"),
    ("64", "856c2148d79aa447aaab0686dc05e4c1c475c75b"),
    ("128", "973a054dd0a691045acd7e23a7ebde0dbbc1369a"),
]


@pytest.mark.parametrize("r, sha1", LAYOUT_SHA1, ids=[r for r, _ in LAYOUT_SHA1])
def test_large_layout_output_is_byte_identical(runner, r, sha1):
    result = run(runner, "layout", "--r", r)
    assert result.exit_code == 0
    assert hashlib.sha1(result.stdout_bytes).hexdigest() == sha1


# Stdout sha1 of trajectories. Team 512 was recorded before the label columns
# of an ensemble were kept in sort_key order, and its W did not move when W
# became a sum over label runs; binary 4096 was recorded with the run sums.
TRAJECTORY_SHA1 = [
    (("--algo", "binary", "--n", "4096"), "d15bb3234559f7458de9cb0b45b7b81fb7a1f2da"),
    (("--algo", "team", "--n", "512"), "e79b965a4bd84e24246163f81703483044ff0f58"),
]


@pytest.mark.parametrize(
    "args, sha1", TRAJECTORY_SHA1, ids=["binary-4096", "team-512"]
)
def test_large_trajectory_output_is_byte_identical(runner, args, sha1):
    result = run(runner, "trajectory", *args, "--format", "json")
    assert result.exit_code == 0
    assert hashlib.sha1(result.stdout_bytes).hexdigest() == sha1
