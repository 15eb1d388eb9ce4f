import enum
import hashlib
import json
import math
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qordsearch import lowerbound as lb
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
            ("decompose", "--m", "14"),
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


# Stdout sha1 of trajectories, recorded before the label columns of an
# ensemble were kept in sort_key order; that reorders the sums of W, and these
# runs must not move.
TRAJECTORY_SHA1 = [
    (("--algo", "binary", "--n", "4096"), "f97d85b5fbab13f3f32b747c55db8a10dd14a1a6"),
    (("--algo", "team", "--n", "512"), "e79b965a4bd84e24246163f81703483044ff0f58"),
]


@pytest.mark.parametrize(
    "args, sha1", TRAJECTORY_SHA1, ids=["binary-4096", "team-512"]
)
def test_large_trajectory_output_is_byte_identical(runner, args, sha1):
    result = run(runner, "trajectory", *args, "--format", "json")
    assert result.exit_code == 0
    assert hashlib.sha1(result.stdout_bytes).hexdigest() == sha1
