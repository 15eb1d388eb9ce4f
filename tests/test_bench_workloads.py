"""Every benchmark workload still builds, runs and checks at its smoke size.

``bench/test_smoke.py`` runs the harness in subprocesses, outside the tier-1
suite. This runs each workload's ``setup``, ``solve`` and ``check`` in
process, and its CLI counterpart through click's runner, so a change to the
package that the workloads or their output checks rely on fails tier-1.
"""
import importlib.util
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from qordsearch.cli import main

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [
    workload["name"]
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
]


def load_workloads():
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_passes_its_checks_at_smoke_size(name):
    workloads = load_workloads()
    workload = workloads.build(name, smoke=True)
    workload.setup(7)
    result = workload.solve()
    checks = workloads.Checks()
    workload.check(result, checks)
    cli = CliRunner().invoke(main, workload.cli_args, catch_exceptions=False)
    assert cli.exit_code == 0, cli.output
    workload.check_cli(cli.stdout, result, checks)
    assert checks.attempted > 0
    assert checks.failures == []
