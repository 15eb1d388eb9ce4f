"""The benchmark's tracer still finds every function it wraps.

``bench/tracer.py`` looks its targets up by name: module attributes, and
methods in a class's own ``__dict__``. A refactor that renames one, or moves
``advance``/``initial_state`` into a base class, breaks ``--trace 1``; this
test makes tier-1 fail first.
"""
import importlib.util
from pathlib import Path

import pytest

from qordsearch import lowerbound as lb
from qordsearch import teamsearch as ts
from qordsearch.oracle import enumerate_instances

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_target_and_restores_them():
    tracer_mod = load_tracer()
    originals = {
        cls: dict(vars(cls))
        for cls in (ts.BinarySearchAlgorithm, ts.TeamCombineAlgorithm)
    }
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        pass
    with tracer.installed():
        for algorithm in (ts.BinarySearchAlgorithm(8), ts.TeamCombineAlgorithm(8)):
            for inst in enumerate_instances(algorithm.n):
                ts.run_algorithm(algorithm, inst)
        w = lb.WeightSpec.inverse_distance(8)
        lb.run_trajectory(ts.BinarySearchAlgorithm(8), 8, w, verify_chain=True)
    for name in (
        "teamsearch.advance",
        "teamsearch.initial_state",
        "teamsearch.apply_refine",
        "qcore.apply_linear",
        "oracle.apply_query",
        "lowerbound.run_trajectory",
        "lowerbound.weighted_overlap",
        "lowerbound.mass_profile",
        "lowerbound.verify_drop_chain",
    ):
        assert tracer.stats.get(name, [0])[0] > 0, name
    for cls, attributes in originals.items():
        assert dict(vars(cls)) == attributes


def test_tracer_reaches_algorithms_built_before_it_installs():
    # bench/run.py builds each workload's algorithms before it installs the
    # tracer, so a round's steps must look their operators up when they run.
    tracer_mod = load_tracer()
    algorithms = (ts.BinarySearchAlgorithm(8), ts.TeamCombineAlgorithm(8))
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        for algorithm in algorithms:
            for inst in enumerate_instances(algorithm.n):
                ts.run_algorithm(algorithm, inst)
    for name in (
        "teamsearch.apply_combine",
        "teamsearch.apply_refine",
        "qcore.apply_linear",
        "oracle.apply_query",
    ):
        assert tracer.stats.get(name, [0])[0] > 0, name


@pytest.mark.parametrize(
    "algorithm, queries",
    [(ts.BinarySearchAlgorithm(8), 3), (ts.TeamCombineAlgorithm(8), 1)],
    ids=["binary-8", "team-8"],
)
def test_a_chain_run_traces_every_kernel_pass(algorithm, queries):
    # Each snapshot's W is one weighted_overlap call, and each of the T
    # snapshots entering a query takes one pairwise_drop call, inside its
    # mass_profile; no kernel pass runs as untraced run_trajectory time.
    tracer_mod = load_tracer()
    tracer = tracer_mod.Tracer()
    w = lb.WeightSpec.inverse_distance(algorithm.n)
    with tracer.installed():
        lb.run_trajectory(algorithm, algorithm.n, w, verify_chain=True)
    assert algorithm.num_queries == queries
    assert tracer.stats["lowerbound.weighted_overlap"][0] == queries + 1
    assert tracer.stats["lowerbound.pairwise_drop"][0] == queries
    assert tracer.stats["lowerbound.mass_profile"][0] == queries
    assert tracer.stats["lowerbound.verify_drop_chain"][0] == queries
