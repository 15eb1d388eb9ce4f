"""Smoke test of the benchmark harness at tiny sizes, so that it cannot rot.

    python3 -m pytest bench/test_smoke.py -q

It lives outside ``tests/`` and so outside the default pytest run.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric_and_passes_its_checks(workload, trace):
    proc = bench(["--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", trace, "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end" if trace == "0" else "per_layer"]
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in declared}


def test_per_layer_declaration_matches_the_harness():
    assert SPEC["per_layer"] == run.per_layer_spec()
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(["--workload", "accounting", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
