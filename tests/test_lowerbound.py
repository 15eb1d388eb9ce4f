import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qordsearch import lowerbound as lb
from qordsearch.oracle import OrderedInstance, apply_query, enumerate_instances
from qordsearch.qcore import (
    GenLabel,
    SparseState,
    TeamLabel,
    apply_linear,
    inner_product,
)
from qordsearch.teamsearch import BinarySearchAlgorithm, TeamCombineAlgorithm

GOLDEN = Path(__file__).parent / "golden"

def brute_force_pair_weight(n):
    """Independent oracle: add every pair's weight one by one, exactly."""
    total = Fraction(0)
    for a in range(n):
        for b in range(a + 1, n):
            total += Fraction(1, b - a)
    return float(total)


class ZeroQueryAlgorithm:
    """Shares one fixed state across answers and never queries."""

    def __init__(self, n):
        self.n = n
        self.num_queries = 0

    def initial_state(self, inst):
        return SparseState.unit(GenLabel(0, self.n))


def symmetric_weight(a, b):
    """A symmetric test weight with w(a, a) > 0, so every ordered pair counts."""
    return 1.0 / (1.0 + np.abs(np.asarray(b) - a))


def two_product_power_iteration(M, tol=1e-10, max_iterations=100_000):
    """Power iteration that forms M @ v afresh for each residual."""
    n = M.shape[0]
    v = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(max_iterations):
        w = M @ v
        lam = float(v @ w)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        residual = float(np.linalg.norm(M @ v - lam * v))
        if residual <= tol:
            return abs(lam)
    raise lb.ConvergenceError("two-product loop did not converge")


class TestScalarFormulas:
    def test_harmonic_small_values(self):
        assert lb.harmonic(1) == 1.0
        assert lb.harmonic(2) == 1.5
        exact_h8 = float(sum(Fraction(1, k) for k in range(1, 9)))
        assert abs(lb.harmonic(8) - exact_h8) < 1e-12
        assert abs(lb.harmonic(8) - 2.717857142857143) < 1e-12

    @given(st.integers(2, 5000))
    @settings(max_examples=50, deadline=None)
    def test_harmonic_log_bounds(self, n):
        h = lb.harmonic(n)
        assert math.log(n) < h < math.log(n) + 1

    def test_total_weight_small_values(self):
        assert lb.total_weight(1) == 0.0
        assert abs(lb.total_weight(2) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 8, 17, 64])
    def test_total_weight_matches_pair_by_pair_sum(self, n):
        assert abs(lb.total_weight(n) - brute_force_pair_weight(n)) < 1e-9

    def test_distinguishability_threshold(self):
        assert lb.distinguishability_threshold(0.0) == 0.0
        assert lb.distinguishability_threshold(0.5) == 1.0
        assert abs(lb.distinguishability_threshold(0.1) - 0.6) < 1e-12
        with pytest.raises(ValueError):
            lb.distinguishability_threshold(0.6)
        with pytest.raises(ValueError):
            lb.distinguishability_threshold(-0.1)

    def test_query_lower_bound(self):
        assert lb.query_lower_bound(5.0, 2.0, 0.5) == 0.0
        assert lb.query_lower_bound(3.0, 3.0, 0.0) == 1.0
        expected = (8 * lb.harmonic(8) - 8) / (8 * math.pi)
        got = lb.query_lower_bound(lb.total_weight(8), 8 * math.pi, 0.0)
        assert abs(got - expected) < 1e-12
        with pytest.raises(ValueError):
            lb.query_lower_bound(1.0, 0.0, 0.0)

    def test_ordered_search_bound(self):
        assert lb.ordered_search_bound(100, 0.5) == 0.0
        assert abs(lb.ordered_search_bound(2, 0.0) - 0.5 / math.pi) < 1e-12
        n = 10**6
        assert lb.ordered_search_bound(n, 0.0) > (math.log(n) - 1) / math.pi
        with pytest.raises(ValueError):
            lb.ordered_search_bound(1, 0.0)


class TestWeightedOverlap:
    def test_identical_states_give_total_weight(self):
        n = 8
        w = lb.WeightSpec.inverse_distance(n)
        state = SparseState.unit(GenLabel(0, 0))
        overlap = lb.weighted_overlap([state] * n, w)
        assert abs(overlap - lb.total_weight(n)) < 1e-9

    def test_orthogonal_states_give_zero(self):
        n = 6
        w = lb.WeightSpec.inverse_distance(n)
        states = [SparseState.unit(GenLabel(a, 0)) for a in range(n)]
        assert lb.weighted_overlap(states, w) == 0j

    def test_two_answer_half_overlap(self):
        w = lb.WeightSpec.inverse_distance(2)
        shared, only0, only1 = GenLabel(0, 0), GenLabel(1, 0), GenLabel(2, 0)
        half = 1.0 / math.sqrt(2.0)
        states = [
            SparseState({shared: half, only0: half}),
            SparseState({shared: half, only1: half}),
        ]
        assert abs(lb.weighted_overlap(states, w) - 0.5) < 1e-12

    def test_negative_weight_rejected(self):
        w = lb.WeightSpec(n=2, weight=lambda a, b: -1.0)
        states = [SparseState.unit(GenLabel(0, 0))] * 2
        with pytest.raises(ValueError):
            lb.weighted_overlap(states, w)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_weight_rejected(self, bad):
        w = lb.WeightSpec(8, lambda a, b: np.full(np.broadcast(a, b).shape, bad))
        with pytest.raises(ValueError, match="non-finite entry"):
            w(0, 1)
        with pytest.raises(ValueError, match="non-finite entry"):
            lb.run_trajectory(BinarySearchAlgorithm(8), 8, w, verify_chain=True)


class TestWeightBlocks:
    # The overlap kernel evaluates the weights of a label a block of rows at
    # a time and dots each row; its sums are bit-identical to a row-at-a-time
    # evaluation only if every block row equals that answer's weights exactly.
    @pytest.mark.parametrize("n", [1, 2, 17, 256])
    @pytest.mark.parametrize(
        "weight", [lb._inverse_distance, symmetric_weight], ids=["inverse", "symmetric"]
    )
    def test_block_equals_stacked_rows(self, weight, n):
        w = lb.WeightSpec(n, weight)
        answers = np.arange(n)
        block = w(answers[:, None], answers)
        rows = np.stack([w(a, answers) for a in range(n)])
        assert block.shape == (n, n)
        assert np.array_equal(block, rows)

    def test_sliced_blocks_give_the_same_sums(self, monkeypatch):
        # Blocks above _BLOCK_ENTRIES are evaluated a slice of rows at a
        # time; the sums must not move by a single bit.
        algorithm = BinarySearchAlgorithm(32)
        w = lb.WeightSpec.inverse_distance(32)
        snapshots = trajectory_snapshots(algorithm)
        whole = [
            (lb.weighted_overlap(s, w), lb.pairwise_drop(lb.mass_profile(s), w))
            for s in snapshots
        ]
        monkeypatch.setattr(lb, "_BLOCK_ENTRIES", 40)
        sliced = [
            (lb.weighted_overlap(s, w), lb.pairwise_drop(lb.mass_profile(s), w))
            for s in snapshots
        ]
        assert sliced == whole


class TestMatrices:
    def test_hilbert_1x1_and_2x2(self):
        assert lb.hilbert_matrix(1).tolist() == [[1.0]]
        assert lb.hilbert_matrix(2).tolist() == [[1.0, 0.5], [0.5, 1 / 3]]

    def test_hankel_2x2_truncates_past_antidiagonal(self):
        assert lb.hankel_matrix(2).tolist() == [[1.0, 0.5], [0.5, 0.0]]

    def test_hankel_agrees_with_hilbert_inside_the_band(self):
        n = 9
        hk, hb = lb.hankel_matrix(n), lb.hilbert_matrix(n)
        for k in range(n):
            for l in range(n):
                expected = hb[k, l] if k + l < n else 0.0
                assert hk[k, l] == expected

    def test_spectral_norm_identity(self):
        assert abs(lb.spectral_norm(np.eye(3)) - 1.0) < 1e-12

    def test_spectral_norm_2x2_hilbert_closed_form(self):
        # Eigenvalues of [[1, 1/2], [1/2, 1/3]] solve
        # x^2 - (4/3) x + 1/12 = 0, so the largest is (4 + sqrt(13)) / 6.
        expected = (4.0 + math.sqrt(13.0)) / 6.0
        assert abs(lb.spectral_norm(lb.hilbert_matrix(2)) - expected) < 1e-10

    def test_spectral_norm_512_hilbert_below_pi(self):
        norm = lb.spectral_norm(lb.hilbert_matrix(512))
        assert norm < math.pi
        assert norm > lb.spectral_norm(lb.hilbert_matrix(64))

    def test_power_iteration_agrees_with_eigensolve(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(100, 100))
        sym = a + a.T
        eigenvalues = np.linalg.eigvalsh(sym)
        expected = max(abs(eigenvalues[0]), abs(eigenvalues[-1]))
        assert abs(lb.spectral_norm(sym) - expected) < 1e-8

    @pytest.mark.parametrize("size", [65, 128, 512])
    @pytest.mark.parametrize("build", [lb.hilbert_matrix, lb.hankel_matrix])
    def test_power_iteration_matches_two_product_loop(self, build, size):
        M = build(size)
        assert lb.spectral_norm(M) == two_product_power_iteration(M)

    def test_power_iteration_reports_non_convergence(self):
        with pytest.raises(lb.ConvergenceError):
            lb.spectral_norm(lb.hilbert_matrix(128), max_iterations=2)

    def test_rejects_non_square_and_asymmetric(self):
        with pytest.raises(ValueError):
            lb.spectral_norm(np.ones((2, 3)))
        with pytest.raises(ValueError):
            lb.spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64, 128])
    def test_hilbert_norms_monotone_and_capped(self, n):
        norm = lb.spectral_norm(lb.hilbert_matrix(n))
        assert norm < math.pi
        if n > 1:
            assert norm >= lb.spectral_norm(lb.hilbert_matrix(n // 2))

    @pytest.mark.parametrize("n", [1, 2, 7, 31, 64])
    def test_hankel_norm_bounded_by_hilbert_norm(self, n):
        hankel = lb.spectral_norm(lb.hankel_matrix(n))
        hilbert = lb.spectral_norm(lb.hilbert_matrix(n))
        assert hankel <= hilbert + 1e-12


def binary_prequery_states(n, rounds=0):
    """Per-answer states entering query ``rounds + 1`` of binary search."""
    algo = BinarySearchAlgorithm(n)
    instances = enumerate_instances(n)
    states = [algo.initial_state(inst) for inst in instances]
    for j in range(rounds):
        states = [
            algo.advance(j, state, inst) for state, inst in zip(states, instances)
        ]
    return algo, instances, states


class TestMassProfile:
    def test_all_mass_in_padding_region_gives_zero_vectors(self):
        n = 4
        states = [SparseState.unit(GenLabel(a, n)) for a in range(n)]
        profile = lb.mass_profile(states)
        assert not profile.gammas.any()
        assert not profile.deltas.any()

    def test_concentrated_single_answer(self):
        # Answer a queries exactly index a: everything lands in gamma_0.
        n = 4
        states = [SparseState.unit(GenLabel(0, a)) for a in range(n)]
        profile = lb.mass_profile(states)
        assert abs(profile.gammas[0] - math.sqrt(n)) < 1e-12
        assert not profile.gammas[1:].any()
        assert not profile.deltas.any()

    def test_binary_search_masses_stay_within_budget(self):
        _, _, states = binary_prequery_states(8, rounds=1)
        profile = lb.mass_profile(states)
        budget = float(
            np.sum(profile.gammas**2) + np.sum(profile.deltas**2)
        )
        assert budget <= 8 + 1e-9

    def test_projections_partition_each_state(self):
        _, _, states = binary_prequery_states(8, rounds=2)
        profile = lb.mass_profile(states)
        rebuilt = [{} for _ in states]
        for label, (answers, amps) in profile.columns.items():
            assert profile.index_of[label] == label.i
            for a, amp in zip(answers.tolist(), amps.tolist()):
                assert label not in rebuilt[a]
                rebuilt[a][label] = amp
        for a, state in enumerate(states):
            assert rebuilt[a] == dict(state.items())

    def test_team_labels_are_rejected(self):
        states = [
            SparseState.unit(GenLabel(0, 1)),
            SparseState.unit(TeamLabel(0, 0, 1)),
        ]
        with pytest.raises(TypeError):
            lb.mass_profile(states)


class TestDropChain:
    def test_unitary_only_round_does_not_move_the_overlap(self):
        n = 8
        w = lb.WeightSpec.inverse_distance(n)
        _, _, states = binary_prequery_states(n, rounds=1)
        shift = lambda label: [(GenLabel(label.z + 100, label.i), 1.0)]
        after = [apply_linear(s, shift, unitary=True) for s in states]
        report = lb.verify_drop_chain(states, after, w)
        assert report.drop < 1e-12
        # No query was made, so the drop recomputed from the queried masses
        # cannot match: the pair identity is the only link that fails.
        assert len(report.failures) == 1
        assert report.failures[0].startswith("pair identity error")

    def test_binary_search_first_round_chain(self):
        n = 8
        w = lb.WeightSpec.inverse_distance(n)
        algo, instances, states = binary_prequery_states(n)
        after = [
            algo.advance(0, state, inst) for state, inst in zip(states, instances)
        ]
        report = lb.verify_drop_chain(states, after, w)
        assert report.drop > 1.0
        assert report.holds
        assert report.drop <= report.pair_bound + 1e-8
        assert report.pair_bound <= report.norm_bound + 1e-8
        assert report.norm_bound <= report.cap + 1e-8
        assert report.pair_identity_err < 1e-10

    def test_adversarially_concentrated_states(self):
        n = 4
        w = lb.WeightSpec.inverse_distance(n)
        states = [SparseState.unit(GenLabel(0, a)) for a in range(n)]
        after = [
            apply_query(state, inst)
            for state, inst in zip(states, enumerate_instances(n))
        ]
        report = lb.verify_drop_chain(states, after, w)
        assert report.holds
        assert report.norm_bound <= 4 * math.pi

    def test_failure_is_reported_with_both_values(self):
        # Feed inconsistent before/after states: a drop with no queried mass.
        n = 2
        w = lb.WeightSpec.inverse_distance(n)
        before = [SparseState.unit(GenLabel(0, n)) for _ in range(n)]
        after = [SparseState.unit(GenLabel(a, n)) for a in range(n)]
        report = lb.verify_drop_chain(before, after, w)
        assert not report.holds
        assert any("drop" in failure for failure in report.failures)


    def test_pair_identity_mismatch_is_a_failure(self):
        # Both answers share a label querying index 0, which tells them apart,
        # but the "after" states were never queried: the measured drop is 0
        # while the drop recomputed from the queried masses is 2.
        n = 2
        w = lb.WeightSpec.inverse_distance(n)
        states = [SparseState.unit(GenLabel(0, 0))] * n
        report = lb.verify_drop_chain(states, states, w)
        assert report.drop == 0.0
        assert report.pair_identity_err == 2.0
        assert len(report.failures) == 1
        assert report.failures[0].startswith("pair identity error")

    def test_nan_overlap_fails_the_chain(self):
        # Every comparison against NaN is false, so links written as
        # "lhs > rhs" would let a NaN drop pass.
        n = 8
        w = lb.WeightSpec.inverse_distance(n)
        _, _, states = binary_prequery_states(n)
        profile = lb.mass_profile(states)
        report = lb._chain_report(profile, complex("nan"), 0j, w, lb.CHAIN_TOL)
        assert not report.holds
        assert report.failures[0].startswith("drop nan exceeds")
        assert report.failures[-1].startswith("pair identity error nan")


def trajectory_snapshots(algorithm):
    """Per-answer states entering each query, then the final states."""
    instances = enumerate_instances(algorithm.n)
    states = [algorithm.initial_state(inst) for inst in instances]
    snapshots = [states]
    for j in range(algorithm.num_queries):
        states = [
            algorithm.advance(j, state, inst) for state, inst in zip(states, instances)
        ]
        snapshots.append(states)
    return snapshots


def assert_matches_reference(got, expected):
    assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def brute_force_masses(states):
    """gammas and deltas summed entry by entry, by offset = index - answer."""
    n = len(states)
    gammas_sq = [0.0] * max(n - 1, 0)
    deltas_sq = [0.0] * max(n - 1, 0)
    for a, state in enumerate(states):
        for label, amp in state.items():
            if label.i >= n:
                continue  # the zero padding distinguishes no instances
            offset = label.i - a
            if 0 <= offset < n - 1:
                gammas_sq[offset] += abs(amp) ** 2
            elif offset < 0:
                deltas_sq[-offset - 1] += abs(amp) ** 2
    return np.sqrt(gammas_sq), np.sqrt(deltas_sq)


def assert_kernel_matches_reference(states, w):
    assert_matches_reference(
        lb.weighted_overlap(states, w), lb._reference_weighted_overlap(states, w)
    )
    if all(isinstance(label, GenLabel) for s in states for label in s.labels()):
        profile = lb.mass_profile(states)
        assert_matches_reference(
            lb.pairwise_drop(profile, w), lb._reference_pairwise_drop(states, w)
        )
        gammas, deltas = brute_force_masses(states)
        assert profile.gammas.shape == gammas.shape
        assert profile.deltas.shape == deltas.shape
        assert np.abs(profile.gammas - gammas).max(initial=0.0) <= 1e-12
        assert np.abs(profile.deltas - deltas).max(initial=0.0) <= 1e-12


class TestKernelAgainstReference:
    @pytest.mark.parametrize(
        "algorithm",
        [BinarySearchAlgorithm(n) for n in (1, 2, 4, 8, 16, 32, 64)]
        + [TeamCombineAlgorithm(n) for n in (8, 32)],
        ids=lambda algorithm: f"{type(algorithm).__name__}-{algorithm.n}",
    )
    def test_every_snapshot(self, algorithm):
        w = lb.WeightSpec.inverse_distance(algorithm.n)
        for states in trajectory_snapshots(algorithm):
            assert_kernel_matches_reference(states, w)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sparse_states_with_shared_labels(self, seed):
        # A symmetric weight with w(a, a) > 0 counts every ordered pair,
        # a >= b included, in the overlap.
        rng = np.random.default_rng(seed)
        n = 12
        pool = [GenLabel(z, i) for z in range(2) for i in range(n + 2)]
        states = []
        for _ in range(n):
            picks = rng.choice(len(pool), size=int(rng.integers(1, 5)), replace=False)
            states.append(
                SparseState(
                    {pool[k]: complex(rng.normal(), rng.normal()) for k in picks}
                )
            )
        symmetric = lb.WeightSpec(n, symmetric_weight)
        assert symmetric(3, 3) > 0
        for w in (symmetric, lb.WeightSpec.inverse_distance(n)):
            assert_kernel_matches_reference(states, w)


class TestTrajectory:
    def test_zero_query_algorithm(self):
        n = 8
        w = lb.WeightSpec.inverse_distance(n)
        record = lb.run_trajectory(ZeroQueryAlgorithm(n), n, w)
        assert len(record.steps) == 1
        assert abs(record.initial_overlap - lb.total_weight(n)) < 1e-9
        assert record.drops() == []

    def test_binary_search_n8(self):
        n = 8
        w = lb.WeightSpec.inverse_distance(n)
        record = lb.run_trajectory(BinarySearchAlgorithm(n), n, w, verify_chain=True)
        assert len(record.steps) == 4
        assert record.max_drop_abs() <= 8 * math.pi
        assert abs(record.final_overlap) < 1e-9
        assert record.telescoping_error() < 1e-9
        assert all(report.holds for report in record.chain_reports)

    def test_team_combine_reaches_zero_overlap(self):
        n = 8
        w = lb.WeightSpec.inverse_distance(n)
        record = lb.run_trajectory(TeamCombineAlgorithm(n), n, w, verify_chain=True)
        assert len(record.steps) == 2
        assert abs(record.final_overlap) < 1e-9
        assert record.max_drop_abs() <= 8 * math.pi
        assert all(report.holds for report in record.chain_reports)

    def test_shared_unitaries_between_queries_leave_overlap_unchanged(self):
        n = 8
        w = lb.WeightSpec.inverse_distance(n)
        _, _, states = binary_prequery_states(n, rounds=2)
        before = lb.weighted_overlap(states, w)
        relabel = lambda l: [(GenLabel(2 * l.z + 1, l.i), 1.0)]
        shifted = [apply_linear(s, relabel, unitary=True) for s in states]
        after = lb.weighted_overlap(shifted, w)
        assert abs(before - after) < 1e-12

    def test_pairwise_drop_identity_from_projections(self):
        # The drop recomputed from projected sub-states equals the measured
        # drop; this pins the reading of the cross terms as inner products.
        n = 8
        w = lb.WeightSpec.inverse_distance(n)
        algo, instances, states = binary_prequery_states(n, rounds=1)
        after = [
            algo.advance(1, state, inst) for state, inst in zip(states, instances)
        ]
        measured = lb.weighted_overlap(states, w) - lb.weighted_overlap(after, w)
        recomputed = lb.pairwise_drop(lb.mass_profile(states), w)
        assert abs(measured - recomputed) < 1e-10

    @pytest.mark.parametrize(
        "algorithm, golden",
        [
            (BinarySearchAlgorithm(32), "chain_binary_32.json"),
            (TeamCombineAlgorithm(32), "chain_team_32.json"),
        ],
        ids=["binary-32", "team-32"],
    )
    def test_chain_reports_match_golden(self, algorithm, golden):
        # Every float was written by repr, so the comparison is exact.
        w = lb.WeightSpec.inverse_distance(algorithm.n)
        record = lb.run_trajectory(algorithm, algorithm.n, w, verify_chain=True)
        got = [
            {
                "drop": r.drop,
                "pair_bound": r.pair_bound,
                "norm_bound": r.norm_bound,
                "cap": r.cap,
                "pair_identity_err": r.pair_identity_err,
                "failures": list(r.failures),
            }
            for r in record.chain_reports
        ]
        assert got == json.loads((GOLDEN / golden).read_text())

    @pytest.mark.parametrize(
        "algorithm",
        [BinarySearchAlgorithm(n) for n in (8, 32, 64)] + [TeamCombineAlgorithm(32)],
        ids=lambda algorithm: f"{type(algorithm).__name__}-{algorithm.n}",
    )
    def test_chain_reports_match_the_public_route(self, algorithm):
        # run_trajectory reuses each snapshot's label grouping for the next
        # step's profile; verify_drop_chain groups the states afresh.
        w = lb.WeightSpec.inverse_distance(algorithm.n)
        record = lb.run_trajectory(algorithm, algorithm.n, w, verify_chain=True)
        snapshots = trajectory_snapshots(algorithm)
        assert len(record.chain_reports) == len(snapshots) - 1
        for j, report in enumerate(record.chain_reports):
            assert report == lb.verify_drop_chain(snapshots[j], snapshots[j + 1], w)

    def test_weight_size_must_match_the_problem_size(self):
        w = lb.WeightSpec.inverse_distance(4)
        with pytest.raises(ValueError, match="expected 4 states, got 8"):
            lb.run_trajectory(BinarySearchAlgorithm(8), 8, w)

    def test_csv_shape(self):
        n = 4
        w = lb.WeightSpec.inverse_distance(n)
        record = lb.run_trajectory(BinarySearchAlgorithm(n), n, w)
        csv = record.to_csv()
        lines = csv.splitlines()
        assert lines[0] == "j,W_re,W_im,drop_abs,bound"
        assert len(lines) == 1 + len(record.steps)
        final = lines[-1].split(",")
        assert final[3] == ""  # no drop on the final step
        assert final[4] == f"{4 * math.pi:.17g}"
        assert record.to_csv() == csv

    def test_trajectory_n1_is_a_single_zero_row(self):
        w = lb.WeightSpec.inverse_distance(1)
        record = lb.run_trajectory(BinarySearchAlgorithm(1), 1, w)
        assert len(record.steps) == 1
        assert record.initial_overlap == 0j
