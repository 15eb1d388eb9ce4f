"""Acceptance gate: one test per shipping criterion, at pinned tolerances.

Each criterion prints a ``[acceptance] criterion N: PASS/FAIL`` line (visible
with ``pytest -s`` or in the captured output of a failing run). Criteria with
stated runtime limits are timed.

Known red: the literal expansion-factor floor in criterion 7 (F >= 2.9 for
every integer m in [11, 10**6]) is mathematically unattainable; the failing
test's message carries the counterexample. The attainable parts of
criterion 7 are separate tests and pass.
"""
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from qordsearch import lowerbound as lb
from qordsearch import teamsearch as ts
from qordsearch.oracle import OrderedInstance, enumerate_instances
from qordsearch.qcore import SparseState, TeamLabel
from per_instance_oracle import diff_norm
from test_teamsearch import opening_state

PROB_TOL = 1e-9
STAGE_TOL = 1e-12
CHAIN_TOL = 1e-8
SUM_TOL = 1e-9

HALF = 0.5
S2H = math.sqrt(2.0) / 2.0

# Frozen by hand from the operator definitions: every stage of the size-8
# combine round on the instance with answer index 5, 0-based labels,
# normalized amplitudes. Four computers open at knowledge levels 1/2/4+4
# bits; the round spends one query and pins [5,5] with probability one.
REFERENCE_STAGES = [
    {(0, 0, 7): HALF, (1, 4, 7): HALF, (1, 4, 5): S2H},
    {(0, 0, 7): HALF, (1, 4, 7): -HALF, (1, 4, 5): S2H},
    {(0, 4, 7): HALF, (1, 4, 7): -HALF, (1, 4, 5): S2H},
    {(1, 4, 7): S2H, (1, 4, 5): S2H},
    {(0, 4, 5): S2H, (1, 4, 5): S2H},
    {(0, 4, 5): 1.0},
    {(0, 5, 5): 1.0},
]


def team_state(entries):
    return SparseState({TeamLabel(*key): amp for key, amp in entries.items()})


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def team_sizes(sizes):
    """The subset of sizes with a canonical team configuration."""
    supported = []
    for n in sizes:
        try:
            ts.default_team_size(n)
        except ValueError:
            continue
        supported.append(n)
    return supported


@pytest.fixture(scope="module")
def trajectories():
    """Chain-verified trajectories for every simulated algorithm and size."""
    runs = {}
    for n in (2, 4, 8, 16, 32):
        w = lb.WeightSpec.inverse_distance(n)
        runs[("binary", n)] = lb.run_trajectory(
            ts.BinarySearchAlgorithm(n), n, w, verify_chain=True
        )
    for n in team_sizes((2, 4, 8, 16, 32)):
        w = lb.WeightSpec.inverse_distance(n)
        runs[("team", n)] = lb.run_trajectory(
            ts.TeamCombineAlgorithm(n), n, w, verify_chain=True
        )
    return runs


@pytest.fixture(scope="module")
def expansion_sweep():
    """One pass over m <= 10**6: round-trip results and expansion factors."""
    bad_roundtrips = []
    floor_violations = []
    min_factor_from_43 = math.inf
    for m in range(1, 10**6 + 1):
        decomposition = ts.decompose(m)
        if decomposition.value() != m or any(
            not 0 <= d <= 3 for d in decomposition.digits
        ):
            bad_roundtrips.append(m)
        if m >= 11:
            factor = decomposition.expanded() / m
            if factor < 2.9:
                floor_violations.append((m, factor))
            if m >= 43 and factor < min_factor_from_43:
                min_factor_from_43 = factor
    return {
        "bad_roundtrips": bad_roundtrips,
        "floor_violations": floor_violations,
        "min_factor_from_43": min_factor_from_43,
    }


def test_criterion_1_worked_example_fidelity():
    """Size 8, answer index 5: the combine round reproduces the frozen
    reference trace stage by stage within 1e-12, in under a second."""
    with criterion("criterion 1 (worked-example fidelity)"):
        started = time.perf_counter()
        inst = OrderedInstance(8, 5)
        algo = ts.TeamCombineAlgorithm(8)
        # The opening state, then the state after each of the round's steps.
        stages = [opening_state(algo, inst)]
        state = ts.oracle_mod.apply_query(algo.initial_state(inst), inst)
        for step in algo._rounds[0]:
            state = step(state)
            stages.append(state)
        final = algo.advance(0, algo.initial_state(inst), inst)
        assert final.dump() == stages[-1].dump()
        assert len(stages) == len(REFERENCE_STAGES)
        for got, expected in zip(stages, REFERENCE_STAGES):
            assert diff_norm(got, team_state(expected)) < STAGE_TOL
        label = final.labels()[0]
        assert (label.lo, label.hi) == (5, 5)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_exactness_sweep():
    """Team combine exact on all 8 instances at N=8 and all 32 at N=32;
    the embedded binary search exact at every N = 2**k, k <= 8. Under 10 s."""
    with criterion("criterion 2 (exactness sweep)"):
        started = time.perf_counter()
        for n in (8, 32):
            algo = ts.TeamCombineAlgorithm(n)
            for inst in enumerate_instances(n):
                result = ts.run_algorithm(algo, inst)
                assert result.answer == inst.answer, (n, inst.answer, result)
                assert abs(result.probability - 1.0) <= PROB_TOL
        for k in range(0, 9):
            n = 1 << k
            algo = ts.BinarySearchAlgorithm(n)
            for inst in enumerate_instances(n):
                result = ts.run_algorithm(algo, inst)
                assert result.answer == inst.answer, (n, inst.answer, result)
                assert abs(result.probability - 1.0) <= PROB_TOL
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_3_query_counts():
    """Binary search spends exactly ceil(log2 N) queries; the iterated
    expansion model covers N = 2**k for k <= 20 within ceil(log3 N) + 3
    queries. The measured overhead constant is reported."""
    with criterion("criterion 3 (query counts)"):
        for k in range(0, 9):
            n = 1 << k
            assert ts.BinarySearchAlgorithm(n).num_queries == k
        overheads = []
        for k in range(1, 21):
            n = 1 << k
            result = ts.query_count_model(n)
            overheads.append(result.queries - ts.ceil_log3(n))
            assert result.queries <= ts.ceil_log3(n) + 3, (n, result.queries)
        print(f"[acceptance] measured query-count overhead c = {max(overheads)}")


def test_criterion_4_drop_chain(trajectories):
    """Every per-query drop of every simulated algorithm at
    N in {2,4,8,16,32} stays within pi*N + 1e-8, and the full chain
    drop <= double sum <= matrix bound <= pi*N holds at every step.
    Under 30 s."""
    with criterion("criterion 4 (per-query drop chain)"):
        started = time.perf_counter()
        assert trajectories
        for (algo, n), record in trajectories.items():
            cap = math.pi * n
            for drop in record.drops():
                assert abs(drop) <= cap + CHAIN_TOL, (algo, n, drop)
            assert record.chain_reports, (algo, n)
            for report in record.chain_reports:
                assert report.holds, (algo, n, report.failures)
                assert report.drop <= report.pair_bound + CHAIN_TOL
                assert report.pair_bound <= report.norm_bound + CHAIN_TOL
                assert report.norm_bound <= report.cap + CHAIN_TOL
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.3f}s"


def test_criterion_5_bound_formulas():
    """The closed-form initial weight N*H_N - N equals the pair-by-pair sum
    for every N <= 1024; the search bound strictly exceeds (ln N - 1)/pi on
    sampled N up to 10**6; the distinguishability endpoints are exact."""
    with criterion("criterion 5 (bound formulas)"):
        running = 0.0
        for n in range(1, 1025):
            # adding answer n-1 contributes the pairs (a, n-1), a < n-1
            running += math.fsum(1.0 / (n - 1 - a) for a in range(n - 1))
            assert abs(lb.total_weight(n) - running) <= SUM_TOL, n
        for n in (8, 64, 257):
            exact = float(
                sum(Fraction(1, b - a) for a in range(n) for b in range(a + 1, n))
            )
            assert abs(lb.total_weight(n) - exact) <= SUM_TOL
        for n in (2, 3, 4, 8, 10, 100, 1000, 31623, 10**5, 10**6):
            assert lb.ordered_search_bound(n, 0.0) > (math.log(n) - 1) / math.pi
        assert lb.distinguishability_threshold(0.0) == 0.0
        assert lb.distinguishability_threshold(0.5) == 1.0


def test_criterion_6_hilbert_norm_cap():
    """Hilbert-matrix spectral norms stay strictly below pi and never
    decrease over sizes 1, 2, 4, ..., 512; the 2x2 value matches its closed
    form (4 + sqrt(13))/6 within 1e-10. Under 10 s."""
    with criterion("criterion 6 (inverse-distance norm cap)"):
        started = time.perf_counter()
        previous = 0.0
        for k in range(0, 10):
            n = 1 << k
            norm = lb.spectral_norm(lb.hilbert_matrix(n))
            assert norm < math.pi, (n, norm)
            assert norm >= previous, (n, norm, previous)
            previous = norm
        two = lb.spectral_norm(lb.hilbert_matrix(2))
        assert abs(two - (4.0 + math.sqrt(13.0)) / 6.0) < 1e-10
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_7_expansion_anchor():
    """Eleven known bits expand to thirty-two in one query round."""
    with criterion("criterion 7a (expansion anchor 11 -> 32)"):
        step = ts.expansion(11)
        assert step.m_next == 32
        assert step.factor == 32 / 11


def test_criterion_7_decompose_round_trip(expansion_sweep):
    """Every m <= 10**6 decomposes exactly with digits capped at 3."""
    with criterion("criterion 7b (decompose round trip to 10**6)"):
        assert expansion_sweep["bad_roundtrips"] == []


def test_criterion_7_expansion_floor_literal(expansion_sweep):
    """Literal floor: F(m) >= 2.9 for every integer m in [11, 10**6].

    This is not attainable: for m = 12 the best decomposition over ALL digit
    vectors with digits <= 3 is 11 + 1, giving m' = 34 and F = 17/6 < 2.9
    (exhaustive check over the 32 candidate digit vectors), and similarly for
    the other 28 values in [12, 42] outside {22, 33}. The floor does hold
    from m = 43 on and at every pure-form value; see the companion test.
    """
    with criterion("criterion 7c (literal expansion floor 2.9 on [11, 10**6])"):
        violations = expansion_sweep["floor_violations"]
        preview = ", ".join(f"m={m}: F={f:.4f}" for m, f in violations[:5])
        assert not violations, (
            f"{len(violations)} values of m in [11, 10**6] fall below the 2.9 "
            f"floor ({preview}, ...); for m=12 even the best digit vector "
            f"gives F = 17/6 = 2.8333, so no implementation can satisfy the "
            f"floor as stated"
        )


def test_criterion_7_expansion_floor_from_43_and_pure_forms(expansion_sweep):
    """The floor does hold everywhere it can: every m >= 43 up to 10**6,
    every pure-form value (2*4**k + 1)/3 from 11 up, and F(m) approaches 3."""
    with criterion("criterion 7d (expansion floor where attainable)"):
        assert expansion_sweep["min_factor_from_43"] >= 2.9
        assert all(
            12 <= m <= 42 for m, _ in expansion_sweep["floor_violations"]
        )
        k = 2
        while ts.base_value(k) <= 10**6:
            assert ts.expansion(ts.base_value(k)).factor >= 32 / 11 - 1e-12
            k += 1
        assert ts.expansion(10**6).factor > 2.999


def test_criterion_8_telescoping_and_final_overlap(trajectories):
    """Every exact algorithm drives the weighted overlap to zero, and the
    initial-minus-final overlap equals the sum of per-step drops, both
    within 1e-9."""
    with criterion("criterion 8 (telescoping and final overlap)"):
        assert trajectories
        for (algo, n), record in trajectories.items():
            assert abs(record.final_overlap) <= SUM_TOL, (algo, n)
            assert record.telescoping_error() <= SUM_TOL, (algo, n)
