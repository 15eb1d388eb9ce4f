import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import fft_kernel_oracle as fft_oracle
from qordsearch import lowerbound as lb
from qordsearch import teamsearch as ts
from qordsearch.oracle import OrderedInstance, apply_query, enumerate_instances
from qordsearch.qcore import (
    CollisionError,
    Ensemble,
    NormDriftError,
    QueryLabel,
    SparseState,
    TeamLabel,
    apply_linear,
    inner_product,
    labels_of,
)
from qordsearch.teamsearch import BinarySearchAlgorithm, TeamCombineAlgorithm

GOLDEN = Path(__file__).parent / "golden"


def query_label(z, i):
    """A routed label told apart by ``z``: the interval [z, z] routed to ``i``.

    Such labels sort by ``z``, then by ``i``.
    """
    return QueryLabel(0, z, z, i)


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
        return SparseState.unit(query_label(0, self.n))

    def initial_ensemble(self):
        return Ensemble.from_states([self.initial_state(None)] * self.n)


def symmetric_weight(d):
    """A symmetric test weight with w(a, a) > 0, so every ordered pair counts."""
    return 1.0 / (1.0 + np.abs(d))


def reference_power_iteration(matvec, n, tol=1e-10, max_iterations=100_000):
    """Largest eigenvalue magnitude of a symmetric operator by power iteration.

    Starts from the all-equal unit vector and stops on residual
    ``||Mv - lam*v|| <= tol``: the matrix-free reference for the Lanczos norm.
    """
    v = np.full(n, 1.0 / math.sqrt(n))
    w = matvec(v)
    for _ in range(max_iterations):
        lam = float(v @ w)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        # M @ v serves both this residual and the next iteration's step.
        w = matvec(v)
        residual = float(np.linalg.norm(w - lam * v))
        if residual <= tol:
            return abs(lam)
    raise lb.ConvergenceError("power iteration did not converge")


def chain_report(before, after, w):
    """The drop chain of one round, from the states entering and leaving it."""
    drop = lb.weighted_overlap(Ensemble.from_states(before), w) - lb.weighted_overlap(
        Ensemble.from_states(after), w
    )
    return lb.verify_drop_chain(lb.mass_profile(Ensemble.from_states(before), w), drop)


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

    def test_harmonic_sums_its_terms_up_to_the_limit(self):
        for n in (1, 2, 1000, lb.HARMONIC_FSUM_LIMIT):
            assert lb.harmonic(n) == math.fsum(1.0 / k for k in range(1, n + 1))

    def test_harmonic_expansion_agrees_with_the_sum_within_four_ulps(self):
        # Each 1/k is rounded before the exact fsum, and the expansion's
        # terms are rounded as they are added: a few ulps apart (2 seen).
        rng = np.random.default_rng(7)
        samples = [1 << 10, 1 << 20] + rng.integers(1 << 10, 1 << 20, 10).tolist()
        for n in samples:
            summed = math.fsum(1.0 / k for k in range(1, n + 1))
            assert abs(lb._harmonic_expansion(n) - summed) <= 4 * math.ulp(summed), n

    def test_harmonic_past_the_limit_is_the_expansion(self):
        n = 1 << 40
        assert lb.harmonic(n) == lb._harmonic_expansion(n)
        assert abs(lb.harmonic(n) - (math.log(n) + lb.EULER_GAMMA)) < 1e-12
        assert lb.harmonic(lb.HARMONIC_FSUM_LIMIT + 1) == lb._harmonic_expansion(
            lb.HARMONIC_FSUM_LIMIT + 1
        )

    @pytest.mark.parametrize("n", [10**306, 10**400])
    def test_total_weight_past_the_float_range_overflows(self, n):
        with pytest.raises(OverflowError, match="overflows a float"):
            lb.total_weight(n)
        assert math.isfinite(lb.total_weight(10**300))

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

    # Each was answered nan, inf or 0.0 while only Delta <= 0 and W < 0 raised.
    @pytest.mark.parametrize(
        "W, Delta",
        [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)],
    )
    def test_query_lower_bound_refuses_non_finite_input(self, W, Delta):
        with pytest.raises(ValueError, match="finite"):
            lb.query_lower_bound(W, Delta, 0.0)

    def test_ordered_search_bound(self):
        assert lb.ordered_search_bound(100, 0.5) == 0.0
        assert abs(lb.ordered_search_bound(2, 0.0) - 0.5 / math.pi) < 1e-12
        n = 10**6
        assert lb.ordered_search_bound(n, 0.0) > (math.log(n) - 1) / math.pi
        with pytest.raises(ValueError):
            lb.ordered_search_bound(1, 0.0)


# Each size that is not an int, with a call that took it: the spec built and
# a later step failed, or a value came back.
NOT_AN_INT = [
    ("WeightSpec-float", lb.WeightSpec.inverse_distance, 8.0),
    ("WeightSpec-bool", lb.WeightSpec.inverse_distance, True),
    ("WeightSpec-int64", lb.WeightSpec.inverse_distance, np.int64(8)),
    ("WeightSpec-custom-float", lambda n: lb.WeightSpec(n, symmetric_weight), 8.0),
    ("harmonic-bool", lb.harmonic, True),
    ("harmonic-float-past-the-fsum-limit", lb.harmonic, 2.0**21),
    ("harmonic-float", lb.harmonic, 5.5),
    ("total_weight-float", lb.total_weight, 8.0),
    ("total_weight-bool", lb.total_weight, True),
    ("ordered_search_bound-bool", lambda n: lb.ordered_search_bound(n, 0.0), True),
    (
        "ordered_search_bound-int64",
        lambda n: lb.ordered_search_bound(n, 0.0),
        np.int64(8),
    ),
]


class TestSizes:
    @pytest.mark.parametrize(
        "call, n", [pytest.param(call, n, id=name) for name, call, n in NOT_AN_INT]
    )
    def test_a_size_that_is_not_an_int_is_refused(self, call, n):
        with pytest.raises(ValueError, match="must be an integer, got"):
            call(n)

    @pytest.mark.parametrize("n", [0, -3])
    def test_weights_need_at_least_one_answer(self, n):
        with pytest.raises(ValueError, match=f"problem size must be positive, got {n}"):
            lb.WeightSpec.inverse_distance(n)


class TestWeightedOverlap:
    def test_identical_states_give_total_weight(self):
        n = 8
        w = lb.WeightSpec.inverse_distance(n)
        state = SparseState.unit(query_label(0, 0))
        overlap = lb.weighted_overlap(Ensemble.from_states([state] * n), w)
        assert abs(overlap - lb.total_weight(n)) < 1e-9

    def test_orthogonal_states_give_zero(self):
        n = 6
        w = lb.WeightSpec.inverse_distance(n)
        states = [SparseState.unit(query_label(a, 0)) for a in range(n)]
        assert lb.weighted_overlap(Ensemble.from_states(states), w) == 0.0

    def test_two_answer_half_overlap(self):
        w = lb.WeightSpec.inverse_distance(2)
        shared, only0, only1 = query_label(0, 0), query_label(1, 0), query_label(2, 0)
        half = 1.0 / math.sqrt(2.0)
        states = [
            SparseState({shared: half, only0: half}),
            SparseState({shared: half, only1: half}),
        ]
        assert abs(lb.weighted_overlap(Ensemble.from_states(states), w) - 0.5) < 1e-12

    # The kernel is evaluated and checked once, when the spec is built.
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative entry"):
            lb.WeightSpec(n=2, weight=lambda d: -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite entry"):
            lb.WeightSpec(8, lambda d: np.where(d == 3, bad, 1.0))


class TestWeightKernel:
    @pytest.mark.parametrize("n", [1, 2, 17, 256])
    @pytest.mark.parametrize(
        "weight", [lb._inverse_distance, symmetric_weight], ids=["inverse", "symmetric"]
    )
    def test_pair_weight_is_the_weight_at_the_distance(self, weight, n):
        w = lb.WeightSpec(n, weight)
        for a in range(n):
            for b in range(n):
                assert w(a, b) == weight(b - a)
        with pytest.raises(IndexError):
            w(0, n)
        with pytest.raises(IndexError):
            w(-1, 0)


class TestMatrices:
    def test_hilbert_1x1_and_2x2(self):
        assert lb.hilbert_matrix(1).tolist() == [[1.0]]
        assert lb.hilbert_matrix(2).tolist() == [[1.0, 0.5], [0.5, 1 / 3]]

    def test_hankel_2x2_truncates_past_antidiagonal(self):
        assert lb.hankel_matrix(2).tolist() == [[1.0, 0.5], [0.5, 0.0]]

    @pytest.mark.parametrize("n", [1, 2, 9, 64, 257])
    def test_hankel_agrees_with_hilbert_inside_the_band(self, n):
        hk, hb = lb.hankel_matrix(n), lb.hilbert_matrix(n)
        for k in range(n):
            for l in range(n):
                assert hb[k, l] == 1.0 / (k + l + 1)
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

    def test_lanczos_norm_agrees_with_eigensolve(self):
        # A signed matrix takes the eigensolve; its entrywise magnitudes, a
        # non-negative matrix, take the Lanczos norm.
        rng = np.random.default_rng(42)
        a = rng.normal(size=(100, 100))
        for sym in (a + a.T, np.abs(a + a.T)):
            eigenvalues = np.linalg.eigvalsh(sym)
            expected = max(abs(eigenvalues[0]), abs(eigenvalues[-1]))
            assert abs(lb.spectral_norm(sym) - expected) < 1e-8

    @pytest.mark.parametrize(
        "shift, expected", [(0.0, 2.0), (0.5, 2.5)], ids=["blocks", "shifted"]
    )
    def test_signed_matrix_orthogonal_to_the_all_equal_start(self, shift, expected):
        # Every block [[1, -1], [-1, 1]] sends the all-equal vector to zero,
        # so a Krylov space from it would never see the eigenvalue 2.
        M = np.kron(np.eye(33), [[1.0, -1.0], [-1.0, 1.0]]) + shift * np.eye(66)
        assert abs(lb.spectral_norm(M) - expected) < 1e-12

    @pytest.mark.parametrize("size", [65, 128, 512, 2048])
    @pytest.mark.parametrize("build", [lb.hilbert_matrix, lb.hankel_matrix])
    def test_lanczos_norm_matches_eigvalsh(self, build, size):
        M = build(size)
        expected = np.linalg.eigvalsh(M)[-1]
        norm = lb.spectral_norm(M)
        # A Ritz value lies below the top eigenvalue up to rounding.
        assert norm <= expected + 1e-14
        assert expected - norm <= 1e-14

    def test_matrix_free_lanczos_norm_matches_power_iteration(self):
        size = 2**16 - 1
        matvec, norm = lb.WeightSpec.inverse_distance(size + 1)._hankel
        assert abs(norm - reference_power_iteration(matvec, size)) <= 1e-14

    @pytest.mark.parametrize(
        "norm",
        [
            lambda: lb.spectral_norm(lb.hilbert_matrix(128)),
            lambda: lb.WeightSpec.inverse_distance(129)._hankel,
        ],
        ids=["dense", "matrix-free"],
    )
    def test_lanczos_norm_reports_non_convergence(self, monkeypatch, norm):
        monkeypatch.setattr(lb, "LANCZOS_STEPS", 2)
        with pytest.raises(lb.ConvergenceError):
            norm()

    def test_zero_matrix_has_norm_zero(self):
        assert lb.spectral_norm(np.zeros((100, 100))) == 0.0

    def test_all_ones_start_vector_is_an_eigenvector(self):
        # The all-equal start spans an invariant subspace: one step, beta ~ 0.
        assert abs(lb.spectral_norm(np.ones((100, 100))) - 100.0) <= 1e-12

    def test_bipartite_matrix_gives_its_top_eigenvalue(self):
        # [[0, B], [B^T, 0]] has eigenvalues +-sigma(B): the top of the
        # spectrum and its bottom have equal magnitude, and power iteration
        # from the all-equal start alternates between their eigenvectors.
        B = np.random.default_rng(7).random((50, 50))
        M = np.block([[np.zeros((50, 50)), B], [B.T, np.zeros((50, 50))]])
        eigenvalues = np.linalg.eigvalsh(M)
        assert abs(lb.spectral_norm(M) - eigenvalues[-1]) <= 1e-12

    def test_rejects_complex_entries(self):
        # Casting to float would drop the imaginary part and give norm 0.
        with pytest.raises(ValueError, match="complex"):
            lb.spectral_norm(np.array([[0, 1j], [-1j, 0]]))

    @pytest.mark.parametrize("n", [65, 257, 1000])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda n: (0, 1),
            lambda n: (n - 1, n - 2),
            lambda n: (0, n - 1),
            lambda n: (n - 1, 0),
        ],
        ids=["first-tile", "last-tile", "far-above", "far-below"],
    )
    def test_tiled_symmetry_check_is_array_equal(self, n, entry):
        M = lb.hilbert_matrix(n)
        assert lb._is_symmetric(M) and np.array_equal(M, M.T)
        M[entry(n)] += 1e-3
        assert not lb._is_symmetric(M) and not np.array_equal(M, M.T)
        with pytest.raises(ValueError, match="not symmetric"):
            lb.spectral_norm(M)

    def test_rejects_non_square_and_asymmetric(self):
        with pytest.raises(ValueError):
            lb.spectral_norm(np.ones((2, 3)))
        with pytest.raises(ValueError):
            lb.spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_an_empty_matrix(self):
        with pytest.raises(ValueError, match="non-empty"):
            lb.spectral_norm(np.empty((0, 0)))

    @staticmethod
    def hilbert_with_infinite_diagonal_entry():
        M = lb.hilbert_matrix(100)
        M[50, 50] = math.inf
        return M

    # None of these has a norm: each is refused before any solve.
    @pytest.mark.parametrize(
        "build",
        [
            lambda: np.array([[math.nan]]),
            hilbert_with_infinite_diagonal_entry,
            lambda: np.full((3, 3), math.inf),
        ],
        ids=["nan", "hilbert-100-inf-diagonal", "all-inf-3"],
    )
    def test_rejects_non_finite_entries(self, build):
        with pytest.raises(ValueError, match="non-finite"):
            lb.spectral_norm(build())

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

    # Sizes up to 64 take the dense eigensolve, above it the dense Lanczos.
    @pytest.mark.parametrize("size", [*range(1, 66), 255, 1023, 4095])
    def test_matrix_free_hankel_norm_matches_the_dense_one(self, size):
        dense = lb.spectral_norm(lb.hankel_matrix(size))
        assert abs(lb.WeightSpec.inverse_distance(size + 1)._hankel[1] - dense) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 65, 1024, 65536])
    def test_the_chain_operator_is_the_hankel_matrix_of_the_weights(self, n):
        # The weights at distances 1 .. n-1 are bit for bit the 1/(m + 1)
        # that hankel_matrix(n - 1) holds, and the operator is built once.
        w = lb.WeightSpec.inverse_distance(n)
        assert np.array_equal(w.kernel[n:], 1.0 / np.arange(1, n))
        assert w._hankel is w._hankel
        if n <= 1024:
            v = np.random.default_rng(n).standard_normal(n - 1)
            expected = lb.hankel_matrix(n - 1) @ v
            assert np.allclose(w._hankel[0](v), expected, rtol=0, atol=1e-12)


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
        states = [SparseState.unit(query_label(a, n)) for a in range(n)]
        profile = lb.mass_profile(
            Ensemble.from_states(states), lb.WeightSpec.inverse_distance(n)
        )
        assert not profile.gammas.any()
        assert not profile.deltas.any()

    def test_concentrated_single_answer(self):
        # Answer a queries exactly index a: everything lands in gamma_0.
        n = 4
        states = [SparseState.unit(query_label(0, a)) for a in range(n)]
        profile = lb.mass_profile(
            Ensemble.from_states(states), lb.WeightSpec.inverse_distance(n)
        )
        assert abs(profile.gammas[0] - math.sqrt(n)) < 1e-12
        assert not profile.gammas[1:].any()
        assert not profile.deltas.any()

    def test_binary_search_masses_stay_within_budget(self):
        _, _, states = binary_prequery_states(8, rounds=1)
        profile = lb.mass_profile(
            Ensemble.from_states(states), lb.WeightSpec.inverse_distance(8)
        )
        budget = float(
            np.sum(profile.gammas**2) + np.sum(profile.deltas**2)
        )
        assert budget <= 8 + 1e-9

    def test_projections_partition_each_state(self):
        # Every entry queried in range lands in exactly one of gamma and
        # delta, except at offset n - 1, which pairs with no delta.
        n = 8
        _, _, states = binary_prequery_states(n, rounds=2)
        ensemble = Ensemble.from_states(states)
        profile = lb.mass_profile(ensemble, lb.WeightSpec.inverse_distance(n))
        in_range = math.fsum(
            amp * amp
            for a, state in enumerate(states)
            for label, amp in state.items()
            if label.i < n and label.i - a != n - 1
        )
        split = math.fsum(profile.gammas**2) + math.fsum(profile.deltas**2)
        assert in_range > 0
        assert abs(split - in_range) <= 1e-12 * in_range
        rebuilt = [{} for _ in states]
        for k, a, amp in zip(
            ensemble.label_ids.tolist(),
            ensemble.answers.tolist(),
            ensemble.amps.tolist(),
        ):
            label = labels_of(ensemble.fields)[k]
            assert label not in rebuilt[a]
            rebuilt[a][label] = amp
        for a, state in enumerate(states):
            assert rebuilt[a] == dict(state.items())

    def test_a_profile_holds_plain_numbers_only(self):
        n = 8
        w = lb.WeightSpec.inverse_distance(n)
        ensemble = Ensemble.from_states(binary_prequery_states(n)[2])
        profile = lb.mass_profile(ensemble, w)
        fields = [field.name for field in dataclasses.fields(profile)]
        assert fields == ["w", "gammas", "deltas", "pair_drop"]
        assert profile.w is w
        assert profile.pair_drop == lb.pairwise_drop(ensemble, w) > 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            profile.pair_drop = 0.0

    def test_an_ensemble_without_entries_sums_to_zero(self):
        n = 4
        w = lb.WeightSpec.inverse_distance(n)
        ensemble = Ensemble.from_states([SparseState({})] * n)
        assert not len(ensemble.answers)
        overlap = lb.weighted_overlap(ensemble, w)
        profile = lb.mass_profile(ensemble, w)
        assert type(overlap) is float and overlap == 0.0
        assert type(profile.pair_drop) is float and profile.pair_drop == 0.0
        assert not profile.gammas.any() and not profile.deltas.any()

    def test_pairwise_drop_refuses_team_labels_as_the_profile_does(self):
        states = [
            SparseState.unit(query_label(0, 1)),
            SparseState.unit(TeamLabel(0, 0, 1)),
        ]
        with pytest.raises(TypeError, match="expected a QueryLabel, got TeamLabel"):
            lb.pairwise_drop(
                Ensemble.from_states(states), lb.WeightSpec.inverse_distance(2)
            )

    def test_team_labels_are_rejected(self):
        states = [
            SparseState.unit(query_label(0, 1)),
            SparseState.unit(TeamLabel(0, 0, 1)),
        ]
        with pytest.raises(TypeError):
            lb.mass_profile(
                Ensemble.from_states(states), lb.WeightSpec.inverse_distance(2)
            )


class TestDropChain:
    def test_unitary_only_round_does_not_move_the_overlap(self):
        n = 8
        w = lb.WeightSpec.inverse_distance(n)
        _, _, states = binary_prequery_states(n, rounds=1)
        shift = lambda label: [(query_label(label.lo + 100, label.i), 1.0)]
        after = [apply_linear(s, shift) for s in states]
        report = chain_report(states, after, w)
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
        report = chain_report(states, after, w)
        assert report.drop > 1.0
        assert report.holds
        assert report.drop <= report.pair_bound + 1e-8
        assert report.pair_bound <= report.norm_bound + 1e-8
        assert report.norm_bound <= report.cap + 1e-8
        assert report.pair_identity_err < 1e-10

    def test_adversarially_concentrated_states(self):
        n = 4
        w = lb.WeightSpec.inverse_distance(n)
        states = [SparseState.unit(query_label(0, a)) for a in range(n)]
        after = [
            apply_query(state, inst)
            for state, inst in zip(states, enumerate_instances(n))
        ]
        report = chain_report(states, after, w)
        assert report.holds
        assert report.norm_bound <= 4 * math.pi

    def test_failure_is_reported_with_both_values(self):
        # Feed inconsistent before/after states: a drop with no queried mass.
        n = 2
        w = lb.WeightSpec.inverse_distance(n)
        before = [SparseState.unit(query_label(0, n)) for _ in range(n)]
        after = [SparseState.unit(query_label(a, n)) for a in range(n)]
        report = chain_report(before, after, w)
        assert not report.holds
        assert any("drop" in failure for failure in report.failures)


    def test_pair_identity_mismatch_is_a_failure(self):
        # Both answers share a label querying index 0, which tells them apart,
        # but the "after" states were never queried: the measured drop is 0
        # while the drop recomputed from the queried masses is 2.
        n = 2
        w = lb.WeightSpec.inverse_distance(n)
        states = [SparseState.unit(query_label(0, 0))] * n
        report = chain_report(states, states, w)
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
        profile = lb.mass_profile(Ensemble.from_states(states), w)
        report = lb.verify_drop_chain(profile, math.nan)
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
    ensemble = Ensemble.from_states(states)
    assert_ensemble_invariants(ensemble)
    assert_matches_reference(
        lb.weighted_overlap(ensemble, w), lb._reference_weighted_overlap(states, w)
    )
    if all(isinstance(label, QueryLabel) for s in states for label in s.labels()):
        profile = lb.mass_profile(ensemble, w)
        assert_matches_reference(
            lb.pairwise_drop(ensemble, w), lb._reference_pairwise_drop(states, w)
        )
        assert profile.pair_drop == lb.pairwise_drop(ensemble, w)
        gammas, deltas = brute_force_masses(states)
        assert profile.gammas.shape == gammas.shape
        assert profile.deltas.shape == deltas.shape
        assert np.abs(profile.gammas - gammas).max(initial=0.0) <= 1e-12
        assert np.abs(profile.deltas - deltas).max(initial=0.0) <= 1e-12


class TestKernelAgainstReference:
    @pytest.mark.parametrize(
        "algorithm",
        [BinarySearchAlgorithm(n) for n in (1, 2, 4, 8, 16, 32, 64)]
        + [TeamCombineAlgorithm(n) for n in (8, 32, 128)],
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
        pool = [query_label(z, i) for z in range(2) for i in range(n + 2)]
        states = []
        for _ in range(n):
            picks = rng.choice(len(pool), size=int(rng.integers(1, 5)), replace=False)
            states.append(
                SparseState(
                    {pool[k]: rng.normal() for k in picks}
                )
            )
        symmetric = lb.WeightSpec(n, symmetric_weight)
        assert symmetric(3, 3) > 0
        for w in (symmetric, lb.WeightSpec.inverse_distance(n)):
            assert_kernel_matches_reference(states, w)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [1, 2, 40])
    def test_random_columns_around_fft_lengths(self, n, seed):
        # Spans 2^k - 1, 2^k and 2^k + 1 sit on both sides of a change of
        # the FFT oracle's length, and every answer also holds a
        # single-entry column.
        rng = np.random.default_rng(seed)
        spans = [
            span
            for k in range(1, 6)
            for span in (2**k - 1, 2**k, 2**k + 1)
            if span <= n
        ]
        states = random_column_states(rng, n, spans)
        symmetric = lb.WeightSpec(n, symmetric_weight)
        for w in (symmetric, lb.WeightSpec.inverse_distance(n)):
            assert_kernel_matches_reference(states, w)


def random_column_states(rng, n, spans):
    """Random states whose label columns span the given numbers of answers.

    Column k holds ``query_label(k, i)`` with a random index i in 0 .. n+1, at
    both ends of a random window of ``spans[k]`` answers and at a random
    half of the answers inside it. Every answer also holds a label of its
    own, so no state is empty and some columns have one entry.
    """
    entries = [
        {query_label(len(spans) + a, int(rng.integers(n + 2))): rng.normal()}
        for a in range(n)
    ]
    for k, span in enumerate(spans):
        lo = int(rng.integers(n - span + 1))
        inside = rng.random(max(span - 2, 0)) < 0.5
        answers = {lo, lo + span - 1, *(lo + 1 + np.flatnonzero(inside)).tolist()}
        label = query_label(k, int(rng.integers(n + 2)))
        for a in answers:
            entries[a][label] = rng.normal()
    return [SparseState(e) for e in entries]


def row_dot_gram(blocks, w):
    """The per-row weighted Gram the distance kernel replaced, as an oracle.

    Each block is ``(left_answers, left_amps, right_answers, right_amps)``;
    each left answer's row of weights takes one dot with the right amplitudes.
    """
    total = 0.0
    for left_a, left_x, right_a, right_x in blocks:
        rows = [w.kernel[right_a - a + w.n - 1] @ right_x for a in left_a.tolist()]
        total += float(left_x @ np.array(rows))
    return total


def split_columns(ensemble):
    """Each label mapped to its column's answers and amplitudes."""
    assert_ensemble_invariants(ensemble)
    return {
        label: (
            ensemble.answers[ensemble.label_ids == k],
            ensemble.amps[ensemble.label_ids == k],
        )
        for k, label in enumerate(labels_of(ensemble.fields))
    }


def row_dot_drop(ensemble, w):
    """:func:`lb.pairwise_drop` through the row-dot Gram."""
    blocks = []
    for label, (answers, amps) in split_columns(ensemble).items():
        left = answers <= label.i
        if left.any() and not left.all():
            blocks.append((answers[left], amps[left], answers[~left], amps[~left]))
    return 2.0 * row_dot_gram(blocks, w)


class TestKernelAgainstRowDots:
    @pytest.mark.parametrize(
        "algorithm",
        [BinarySearchAlgorithm(256), TeamCombineAlgorithm(512)],
        ids=lambda algorithm: f"{type(algorithm).__name__}-{algorithm.n}",
    )
    def test_every_snapshot(self, algorithm):
        n = algorithm.n
        w = lb.WeightSpec.inverse_distance(n)
        snapshots = list(
            ts.ensemble_snapshots(algorithm, algorithm.initial_ensemble())
        )
        for j, ensemble in enumerate(snapshots):
            expected = row_dot_gram(
                ((a, x, a, x) for a, x in split_columns(ensemble).values()), w
            )
            assert_matches_reference(lb.weighted_overlap(ensemble, w), expected)
            if j + 1 < len(snapshots):
                assert_matches_reference(
                    lb.pairwise_drop(ensemble, w), row_dot_drop(ensemble, w)
                )


def convolve_pair_bound(profile, n):
    """The explicit double sum 2 * sum_d (1/d) sum_i gamma_i delta_(d-1-i).

    Entry d-1 of the direct convolution is sum_i gamma_i delta_(d-1-i).
    """
    pair_sums = np.convolve(profile.gammas, profile.deltas)[: n - 1]
    return 2.0 * float(pair_sums @ (1.0 / np.arange(1, n)))


class TestPairBoundAgainstConvolution:
    @pytest.mark.parametrize(
        "algorithm",
        [BinarySearchAlgorithm(1 << k) for k in range(1, 11)]
        + [TeamCombineAlgorithm(n) for n in (2, 8, 32, 128, 512, 2048)],
        ids=lambda algorithm: f"{type(algorithm).__name__}-{algorithm.n}",
    )
    def test_every_snapshot(self, algorithm):
        # N = 2 applies the operator at size 1.
        n = algorithm.n
        w = lb.WeightSpec.inverse_distance(n)
        record = lb.run_trajectory(algorithm, n, w, verify_chain=True)
        snapshots = ts.ensemble_snapshots(algorithm, algorithm.initial_ensemble())
        entering = list(snapshots)[:-1]
        assert len(entering) == len(record.chain_reports) == algorithm.num_queries
        for ensemble, report in zip(entering, record.chain_reports):
            assert_ensemble_invariants(ensemble)
            profile = lb.mass_profile(ensemble, w)
            expected = convolve_pair_bound(profile, n)
            assert expected > 0
            assert abs(report.pair_bound - expected) <= 1e-12 * expected


class OneRoundAlgorithm:
    """One query from a fixed start state, then the given steps."""

    advance = ts._advance

    def __init__(self, n, start, steps):
        self.n = n
        self.num_queries = 1
        self._start = start
        self._rounds = [steps]

    def initial_state(self, inst):
        return self._start

    def initial_ensemble(self):
        return Ensemble.from_states([self._start] * self.n)


def ensemble_entries(ensemble):
    """Each answer's ``{label: repr(amplitude)}``, read off the entry arrays."""
    assert_ensemble_invariants(ensemble)
    entries = [{} for _ in range(ensemble.size)]
    labels = labels_of(ensemble.fields)
    for k, answer, amp in zip(
        ensemble.label_ids.tolist(), ensemble.answers.tolist(), ensemble.amps.tolist()
    ):
        entries[answer][labels[k]] = repr(amp)
    return entries


def state_entries(states):
    """Each state's ``{label: repr(amplitude)}``; repr tells -0.0 from 0.0."""
    return [{label: repr(a) for label, a in s._entries.items()} for s in states]


def assert_ensemble_invariants(ensemble):
    """The amplitudes are float64; the entries go label by label, so no
    (label, answer) pair repeats, and the listed labels are held and strictly
    increasing in ``sort_key`` order."""
    assert ensemble.amps.dtype == np.float64
    pairs = list(zip(ensemble.label_ids.tolist(), ensemble.answers.tolist()))
    assert all(p < q for p, q in zip(pairs, pairs[1:]))
    keys = [label.sort_key for label in labels_of(ensemble.fields)]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert {k for k, _ in pairs} == set(range(len(keys)))
    assert all(0 <= a < ensemble.size for _, a in pairs)
    assert len(ensemble.amps) == len(pairs)


# Binary N = 1 .. 64, and team N in {8, 32, 128} with every computer count r
# whose sublists of size 2r tile N, plus the smallest team.
DIFFERENTIAL_ALGORITHMS = (
    [BinarySearchAlgorithm(1 << k) for k in range(7)]
    + [TeamCombineAlgorithm(2)]
    + [
        TeamCombineAlgorithm(n, r=1 << k)
        for n in (8, 32, 128)
        for k in range(n.bit_length() - 1)
    ]
)


def algorithm_id(algorithm):
    """Name and size, and the computer count where it is not the default."""
    name = f"{type(algorithm).__name__}-{algorithm.n}"
    if isinstance(algorithm, TeamCombineAlgorithm):
        if algorithm.r != ts.default_team_size(algorithm.n):
            return f"{name}-r{algorithm.r}"
    return name


# Binary N = 1 .. 32, and team N in {2, 8, 32} with r = 2 beside the default.
ANSWER_RANGE_ALGORITHMS = (
    [BinarySearchAlgorithm(1 << k) for k in range(6)]
    + [TeamCombineAlgorithm(n) for n in (2, 8, 32)]
    + [TeamCombineAlgorithm(32, r=2)]
)


def measure_block(algorithm, answers):
    """The results of ``answers``, evolved as one ensemble of their own."""
    for final in ts.ensemble_snapshots(algorithm, algorithm.initial_ensemble(answers)):
        pass
    return ts.measure_ensemble(algorithm, final)


class TestEnsemblePath:
    """run_trajectory's ensemble against the per-instance ``advance`` states."""

    @pytest.mark.parametrize(
        "algorithm",
        DIFFERENTIAL_ALGORITHMS + [TeamCombineAlgorithm(64, r=4)],
        ids=lambda algorithm: (
            f"{type(algorithm).__name__}-{algorithm.n}-r{getattr(algorithm, 'r', 1)}"
        ),
    )
    def test_initial_ensemble_matches_the_per_instance_starts(self, algorithm):
        got = algorithm.initial_ensemble()
        expected = Ensemble.from_states(
            [algorithm.initial_state(inst) for inst in enumerate_instances(algorithm.n)]
        )
        assert got.size == expected.size == algorithm.n
        # repr tells -0.0 from 0.0, so signed zeros must match too.
        assert ensemble_entries(got) == ensemble_entries(expected)

    @pytest.mark.parametrize("algorithm", ANSWER_RANGE_ALGORITHMS, ids=algorithm_id)
    def test_initial_ensemble_of_every_answer_range(self, algorithm):
        n = algorithm.n
        starts = [algorithm.initial_state(inst) for inst in enumerate_instances(n)]
        empty = SparseState({})
        for low in range(n):
            for stop in range(low + 1, n + 1):
                got = algorithm.initial_ensemble(range(low, stop))
                expected = Ensemble.from_states(
                    [s if low <= a < stop else empty for a, s in enumerate(starts)]
                )
                assert_ensemble_invariants(got)
                assert got.size == expected.size == n
                assert labels_of(got.fields) == labels_of(expected.fields)
                assert got.label_ids.tolist() == expected.label_ids.tolist()
                assert got.answers.tolist() == expected.answers.tolist()
                # repr tells -0.0 from 0.0, so signed zeros must match too.
                assert repr(got.amps.tolist()) == repr(expected.amps.tolist())

    @pytest.mark.parametrize("algorithm", ANSWER_RANGE_ALGORITHMS, ids=algorithm_id)
    def test_every_answer_block_measures_as_the_whole_list(self, algorithm):
        # An answer's amplitudes, prune, norm check and outcome depend on its
        # own entries only, so a block of answers evolves and measures to the
        # whole list's results for those answers, bit for bit.
        n = algorithm.n
        whole = ts.run_ensemble(algorithm)
        for low in range(n):
            for stop in range(low + 1, n + 1):
                assert measure_block(algorithm, range(low, stop)) == whole[low:stop]

    @pytest.mark.parametrize(
        "algorithm",
        [
            BinarySearchAlgorithm(4096),
            TeamCombineAlgorithm(2048),
            TeamCombineAlgorithm(512, r=4),
        ],
        ids=algorithm_id,
    )
    def test_random_answer_blocks_measure_as_the_whole_list(self, algorithm):
        n = algorithm.n
        whole = ts.run_ensemble(algorithm)
        rng = random.Random(n)
        for _ in range(20):
            low, stop = sorted(rng.sample(range(n + 1), 2))
            assert measure_block(algorithm, range(low, stop)) == whole[low:stop]

    @pytest.mark.parametrize("algorithm", DIFFERENTIAL_ALGORITHMS, ids=algorithm_id)
    def test_every_snapshot_matches_the_per_instance_states(self, algorithm):
        snapshots = trajectory_snapshots(algorithm)
        ensembles = list(ts.ensemble_snapshots(algorithm, algorithm.initial_ensemble()))
        assert len(ensembles) == len(snapshots) == algorithm.num_queries + 1
        for ensemble, states in zip(ensembles, snapshots):
            assert ensemble_entries(ensemble) == state_entries(states)
            # Array for array, in the same entry order.
            expected = Ensemble.from_states(states)
            assert ensemble.size == expected.size == algorithm.n
            assert labels_of(ensemble.fields) == labels_of(expected.fields)
            assert ensemble.label_ids.tolist() == expected.label_ids.tolist()
            assert ensemble.answers.tolist() == expected.answers.tolist()
            assert list(map(repr, ensemble.amps.tolist())) == list(
                map(repr, expected.amps.tolist())
            )

    def _both_paths_raise(self, algorithm, error):
        """Both paths raise ``error``; the two messages, per instance first."""
        inst = OrderedInstance(algorithm.n, 0)
        with pytest.raises(error) as per_instance:
            algorithm.advance(0, algorithm.initial_state(inst), inst)
        w = lb.WeightSpec.inverse_distance(algorithm.n)
        with pytest.raises(error) as ensemble:
            lb.run_trajectory(algorithm, algorithm.n, w)
        assert type(ensemble.value) is type(per_instance.value)
        return str(per_instance.value), str(ensemble.value)

    @staticmethod
    def scaling_step(factor):
        """Every label to itself times ``factor``, in both forms."""
        return ts._linear_step(
            lambda label: [(label, factor)],
            lambda fields: (
                np.ones(fields.shape[1], dtype=np.intp),
                fields,
                np.full(fields.shape[1], factor),
            ),
        )

    def test_non_unitary_step_drifts_the_norm(self):
        start = SparseState.unit(query_label(0, 4))
        algorithm = OneRoundAlgorithm(4, start, [self.scaling_step(2.0)])
        expected, got = self._both_paths_raise(algorithm, NormDriftError)
        assert got == expected == "operator declared unitary drifted the norm by 1.000e+00"

    def test_nan_amplitude_is_not_finite(self):
        start = SparseState.unit(query_label(0, 4))
        algorithm = OneRoundAlgorithm(4, start, [self.scaling_step(math.nan)])
        expected, got = self._both_paths_raise(algorithm, ValueError)
        assert got == expected == "amplitudes must be finite, got squared norm nan"

    def test_colliding_permutation(self):
        # Close on [0,7] and refine, then mix [0,3] and refine: its marker-1
        # half lands on the [0,1] that passed through both mixes.
        start = SparseState({QueryLabel(0, 0, 1, 0): 0.8, QueryLabel(1, 0, 7, 3): 0.6})
        _, [steps] = ts._schedule(8, [8], [[4]])
        algorithm = OneRoundAlgorithm(8, start, steps)
        expected, got = self._both_paths_raise(algorithm, CollisionError)
        assert got == expected == "labels 0|0,1 and 1|0,3 both map to 0|0,1"

    def test_team_label_at_the_query(self):
        start = SparseState.unit(TeamLabel(0, 0, 3))
        algorithm = OneRoundAlgorithm(4, start, [])
        expected, got = self._both_paths_raise(algorithm, TypeError)
        assert got == expected == (
            "apply_query acts on QueryLabel states only, found TeamLabel(b=0, lo=0, hi=3)"
        )

    def test_team_label_in_the_mass_profile(self):
        states = [
            SparseState.unit(query_label(0, 1)),
            SparseState.unit(TeamLabel(0, 0, 1)),
        ]
        with pytest.raises(TypeError) as expected:
            lb.query_index(TeamLabel(0, 0, 1))
        with pytest.raises(TypeError) as got:
            lb.mass_profile(
                Ensemble.from_states(states), lb.WeightSpec.inverse_distance(2)
            )
        assert str(got.value) == str(expected.value)


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

    @pytest.mark.parametrize(
        "algorithm",
        [
            TeamCombineAlgorithm(n, r=1 << k)
            for n in (2, 8, 32, 128)
            for k in range(n.bit_length() - 1)
        ]
        + [TeamCombineAlgorithm(2048), TeamCombineAlgorithm(8192)],
        ids=algorithm_id,
    )
    def test_team_initial_overlap_is_the_exact_level_sum(self, algorithm):
        # Each answer's opening holds, per level, its block of length L with
        # probability p; two answers overlap by the p of the levels whose
        # block they share, so W_0 = n * sum of p * (H_L - 1), exactly.
        n, r = algorithm.n, algorithm.r
        exact = Fraction(0)
        for j, (length, _, _) in enumerate(ts._opening_levels(r)):
            p = Fraction(1 if j == 0 else 1 << (j - 1), r)
            harmonic = sum(Fraction(1, k) for k in range(1, length + 1))
            exact += n * p * (harmonic - 1)
        w = lb.WeightSpec.inverse_distance(n)
        got = lb.weighted_overlap(algorithm.initial_ensemble(), w)
        assert type(got) is float
        assert abs(Fraction(got) - exact) <= Fraction(1, 10**14) * exact

    def test_binary_overlaps_are_the_exact_harmonic_sums(self):
        # Entering query j each answer shares its state with the answers of
        # its block of length L = N >> j and with no other, so
        # W_j = (N / L) * (L * H_L - L) = N * (H_L - 1); the final W is 0.
        # H_L over the common denominator lcm(1 .. L) is exact.
        limit = 1 << 14
        common = math.lcm(*range(1, limit + 1))
        numerator, harmonics = 0, {}
        for k in range(1, limit + 1):
            numerator += common // k
            harmonics[k] = numerator
        for n in (1 << e for e in range(1, 15)):
            w = lb.WeightSpec.inverse_distance(n)
            record = lb.run_trajectory(BinarySearchAlgorithm(n), n, w)
            for j, step in enumerate(record.steps):
                exact = n * (Fraction(harmonics[n >> j], common) - 1)
                error = abs(Fraction(step.overlap) - exact)
                assert error <= Fraction(1, 10**14) * exact, (n, j)
            # So drop_j = N * (H_{N>>j} - H_{N>>(j+1)}), largest at j = 0, where
            # over pi * N it tends to ln 2 / pi: the pi * N cap is loose by a
            # factor that tends to pi / ln 2.
            largest = n * Fraction(harmonics[n] - harmonics[n // 2], common)
            error = abs(Fraction(record.max_drop_abs()) - largest)
            assert error <= Fraction(1, 10**14) * largest, n

    @pytest.mark.parametrize("n", [1 << e for e in range(10, 19)])
    def test_binary_pair_identity_error_stays_a_few_ulps_of_w0(self, n):
        # The drop and its pairwise recomputation are float sums of size
        # O(W_0), so their gap grows with W_0 (at most 4.3e-16 W_0 at these
        # sizes), and the absolute CHAIN_TOL is reached between 2^20 and 2^21.
        w = lb.WeightSpec.inverse_distance(n)
        record = lb.run_trajectory(BinarySearchAlgorithm(n), n, w, verify_chain=True)
        worst = max(report.pair_identity_err for report in record.chain_reports)
        assert worst <= 1e-15 * record.initial_overlap

    def test_shared_unitaries_between_queries_leave_overlap_unchanged(self):
        n = 8
        w = lb.WeightSpec.inverse_distance(n)
        _, _, states = binary_prequery_states(n, rounds=2)
        before = lb.weighted_overlap(Ensemble.from_states(states), w)
        relabel = lambda l: [(query_label(2 * l.lo + 1, l.i), 1.0)]
        shifted = [apply_linear(s, relabel) for s in states]
        after = lb.weighted_overlap(Ensemble.from_states(shifted), w)
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
        ensemble = Ensemble.from_states(states)
        measured = lb.weighted_overlap(ensemble, w) - lb.weighted_overlap(
            Ensemble.from_states(after), w
        )
        recomputed = lb.pairwise_drop(ensemble, w)
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

    # sha1 of repr(chain_reports), recorded with W and the pair drop summed
    # over label runs: runs up to 16384 answers long, which the N=32 goldens
    # do not reach.
    @pytest.mark.parametrize(
        "algorithm, sha1",
        [
            (BinarySearchAlgorithm(4096), "e85f42a4a1e39d6da77986122e51a1f8409b46b1"),
            (BinarySearchAlgorithm(16384), "6fd3bb45c8508811ec0574d400a1ce0c4873fd6a"),
            (TeamCombineAlgorithm(8192), "a4a31dce7b6d8ca62ef67ea40bdb896d893f8ff5"),
        ],
        ids=["binary-4096", "binary-16384", "team-8192"],
    )
    def test_large_chain_reports_are_bit_identical(self, algorithm, sha1):
        w = lb.WeightSpec.inverse_distance(algorithm.n)
        record = lb.run_trajectory(algorithm, algorithm.n, w, verify_chain=True)
        assert hashlib.sha1(repr(record.chain_reports).encode()).hexdigest() == sha1

    def test_chain_reports_do_not_depend_on_the_blas_thread_count(self):
        # BLAS splits a long dot product over its threads, and each split
        # sums in another order; the chain sums with numpy's own loops. Each
        # child sets its thread count before numpy loads, and both print the
        # reports pinned above for binary-16384.
        script = (
            "from qordsearch import lowerbound as lb, teamsearch as ts\n"
            "a = ts.BinarySearchAlgorithm(16384)\n"
            "w = lb.WeightSpec.inverse_distance(a.n)\n"
            "print(repr(lb.run_trajectory(a, a.n, w, verify_chain=True).chain_reports))\n"
        )
        paths = [str(Path(lb.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        printed = []
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "PYTHONPATH": os.pathsep.join(paths),
                "OPENBLAS_NUM_THREADS": threads,
            }
            child = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env
            )
            assert child.returncode == 0, child.stderr
            printed.append(child.stdout)
        assert printed[0] == printed[1]
        assert hashlib.sha1(printed[0].rstrip("\n").encode()).hexdigest() == (
            "6fd3bb45c8508811ec0574d400a1ce0c4873fd6a"
        )

    @pytest.mark.parametrize(
        "algorithm",
        [BinarySearchAlgorithm(n) for n in (8, 32, 64)] + [TeamCombineAlgorithm(32)],
        ids=lambda algorithm: f"{type(algorithm).__name__}-{algorithm.n}",
    )
    def test_chain_reports_match_the_public_route(self, algorithm):
        # run_trajectory reads the evolved ensembles; here the per-instance
        # advance states are gathered into ensembles instead, and every field
        # must agree.
        w = lb.WeightSpec.inverse_distance(algorithm.n)
        record = lb.run_trajectory(algorithm, algorithm.n, w, verify_chain=True)
        snapshots = [Ensemble.from_states(s) for s in trajectory_snapshots(algorithm)]
        assert len(record.chain_reports) == len(snapshots) - 1
        overlaps = [lb.weighted_overlap(ensemble, w) for ensemble in snapshots]
        for j, report in enumerate(record.chain_reports):
            profile = lb.mass_profile(snapshots[j], w)
            drop = overlaps[j] - overlaps[j + 1]
            assert report == lb.verify_drop_chain(profile, drop)

    def test_chain_path_needs_no_per_answer_start_or_direct_convolution(
        self, monkeypatch
    ):
        # The start is built as one ensemble and the pair bound goes through
        # the Hankel operator; neither per-answer starts nor the O(n^2)
        # convolution may come back to the chain path.
        def forbidden(*args, **kwargs):
            raise AssertionError("called on the chain path")

        for cls in (BinarySearchAlgorithm, TeamCombineAlgorithm):
            monkeypatch.setattr(cls, "initial_state", forbidden)
        monkeypatch.setattr(Ensemble, "from_states", forbidden)
        monkeypatch.setattr(np, "convolve", forbidden)
        for algorithm in (BinarySearchAlgorithm(1024), TeamCombineAlgorithm(2048)):
            w = lb.WeightSpec.inverse_distance(algorithm.n)
            record = lb.run_trajectory(algorithm, algorithm.n, w, verify_chain=True)
            assert len(record.chain_reports) == algorithm.num_queries
            assert all(report.holds for report in record.chain_reports)

    @pytest.mark.parametrize(
        "algorithm",
        [BinarySearchAlgorithm(256), TeamCombineAlgorithm(512)],
        ids=algorithm_id,
    )
    def test_chain_path_sorts_no_entries_and_runs_one_pass_per_snapshot(
        self, monkeypatch, algorithm
    ):
        # Every snapshot takes one run pass for its W, and each of the T
        # snapshots entering a query one more for its pair drop, which its
        # profile keeps for the chain: 2T + 1 passes, none repeated.
        def counted(calls, function):
            return lambda *a: calls.append(1) or function(*a)

        overlap_calls, drop_calls, passes = [], [], []
        monkeypatch.setattr(
            lb, "weighted_overlap", counted(overlap_calls, lb.weighted_overlap)
        )
        monkeypatch.setattr(
            lb, "pairwise_drop", counted(drop_calls, lb.pairwise_drop)
        )
        monkeypatch.setattr(lb, "_run_pair_sum", counted(passes, lb._run_pair_sum))
        w = lb.WeightSpec.inverse_distance(algorithm.n)
        record = lb.run_trajectory(algorithm, algorithm.n, w, verify_chain=True)
        queries = algorithm.num_queries
        assert len(record.chain_reports) == queries
        assert all(report.holds for report in record.chain_reports)
        assert len(overlap_calls) == queries + 1
        assert len(drop_calls) == queries
        assert len(passes) == 2 * queries + 1

    @pytest.mark.parametrize("n", [2, 32, 1024])
    def test_chain_path_builds_no_dense_matrix(self, monkeypatch, n):
        # The Hankel norm of the chain is matrix-free at every size; no
        # n x n matrix may come back to the chain path, and the weights
        # keep the one Lanczos norm that every step reads.
        def refuse(size):
            raise AssertionError(f"dense matrix of size {size} on the chain path")

        norms = []
        lanczos = lb._lanczos_norm

        def counted(*args):
            norms.append(lanczos(*args))
            return norms[-1]

        monkeypatch.setattr(lb, "hankel_matrix", refuse)
        monkeypatch.setattr(lb, "hilbert_matrix", refuse)
        monkeypatch.setattr(lb, "_lanczos_norm", counted)
        w = lb.WeightSpec.inverse_distance(n)
        record = lb.run_trajectory(BinarySearchAlgorithm(n), n, w, verify_chain=True)
        assert len(record.chain_reports) == n.bit_length() - 1
        assert all(report.holds for report in record.chain_reports)
        assert len(norms) == 1

    @pytest.mark.parametrize("scale", [2.0, 0.5])
    def test_chain_refuses_other_kernels(self, scale):
        # The chain hard-codes 1/d and the cap pi*n: with 2/d every link
        # would fail, and with 0.5/d hold against twice the true double sum.
        n = 64
        w = lb.WeightSpec(n, lambda d: scale * lb._inverse_distance(d))
        algorithm = BinarySearchAlgorithm(n)
        start = Ensemble.from_states(trajectory_snapshots(algorithm)[0])
        profile = lb.mass_profile(start, w)
        restriction = r"inverse-distance weights 1/\(b-a\) only"
        with pytest.raises(ValueError, match=restriction):
            lb.run_trajectory(algorithm, n, w, verify_chain=True)
        with pytest.raises(ValueError, match=restriction):
            lb.verify_drop_chain(profile, 0.0)
        # Without the chain the kernel serves: W scales with it.
        plain = lb.run_trajectory(algorithm, n, lb.WeightSpec.inverse_distance(n))
        scaled = lb.run_trajectory(algorithm, n, w)
        for got, expected in zip(scaled.steps, plain.steps):
            assert_matches_reference(got.overlap, scale * expected.overlap)
        assert_matches_reference(
            lb.pairwise_drop(start, w), scale * plain.steps[0].drop
        )
        assert profile.pair_drop == lb.pairwise_drop(start, w)

    def test_chain_accepts_the_inverse_distance_kernel_of_any_callable(self):
        n = 64
        w = lb.WeightSpec(n, lambda d: np.where(d > 0, 1.0 / np.maximum(d, 1.0), 0.0))
        record = lb.run_trajectory(BinarySearchAlgorithm(n), n, w, verify_chain=True)
        assert all(report.holds for report in record.chain_reports)

    @pytest.mark.parametrize(
        "call",
        [
            lambda w: lb.run_trajectory(BinarySearchAlgorithm(8), 8, w),
            lambda w: lb.weighted_overlap(
                Ensemble.from_states(binary_prequery_states(8)[2]), w
            ),
            lambda w: lb.pairwise_drop(
                Ensemble.from_states(binary_prequery_states(8)[2]), w
            ),
            lambda w: lb.verify_drop_chain(
                lb.mass_profile(Ensemble.from_states(binary_prequery_states(8)[2]), w),
                0.0,
            ),
        ],
        ids=[
            "run_trajectory", "weighted_overlap", "pairwise_drop", "verify_drop_chain"
        ],
    )
    def test_weight_size_must_match_the_problem_size(self, call):
        w = lb.WeightSpec.inverse_distance(4)
        with pytest.raises(ValueError, match="expected 4 states, got 8"):
            call(w)

    @pytest.mark.parametrize(
        "algorithm, n",
        [(BinarySearchAlgorithm(8), 16), (TeamCombineAlgorithm(8), 32)],
        ids=["binary", "team"],
    )
    def test_algorithm_size_must_match_the_problem_size(self, algorithm, n):
        # Binary search built for 8 would otherwise return a wrong trajectory
        # over 16 answers with every chain link holding.
        w = lb.WeightSpec.inverse_distance(n)
        with pytest.raises(ValueError, match=f"list size 8, not {n}"):
            lb.run_trajectory(algorithm, n, w, verify_chain=True)

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
        assert record.initial_overlap == 0.0

    @pytest.mark.parametrize(
        "algorithm",
        [BinarySearchAlgorithm(64), TeamCombineAlgorithm(32)],
        ids=["binary", "team"],
    )
    def test_overlaps_and_drops_are_floats(self, algorithm):
        n = algorithm.n
        w = lb.WeightSpec.inverse_distance(n)
        record = lb.run_trajectory(algorithm, n, w, verify_chain=True)
        for step in record.steps:
            assert type(step.j) is int and type(step.overlap) is float
            assert step.drop is None or type(step.drop) is float
        assert all(type(drop) is float for drop in record.drops())
        assert ",0," in record.to_csv().splitlines()[1]  # the W_im column
        start = algorithm.initial_ensemble()
        assert type(lb.pairwise_drop(start, w)) is float
        assert type(lb.mass_profile(start, w).pair_drop) is float


def chain_values(algorithm):
    """The weights, W of every snapshot of a chain-verified run, and the
    profile that each step's chain read."""
    w = lb.WeightSpec.inverse_distance(algorithm.n)
    profiles = []
    verify = lb.verify_drop_chain

    def spy(profile, drop):
        profiles.append(profile)
        return verify(profile, drop)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lb, "verify_drop_chain", spy)
        record = lb.run_trajectory(algorithm, algorithm.n, w, verify_chain=True)
    return w, [step.overlap for step in record.steps], profiles


def float_bits(values):
    """Each float's exact hex form, so that -0.0 and 0.0 differ."""
    return [float.hex(value) for value in values]


FUSED_ALGORITHMS = (
    [BinarySearchAlgorithm(1 << k) for k in range(13)]
    + [TeamCombineAlgorithm(n) for n in (2, 4, 8, 32, 128, 512, 2048, 8192)]
    + [TeamCombineAlgorithm(32, r=2)]
)


def queried_left(ensemble):
    """The entries at or below their label's queried index: the left members
    of the pairs that the query separates."""
    return ensemble.answers <= ensemble.fields[4][ensemble.label_ids]


class TestFusedPass:
    """W and the pair drop that the chain reads against the public functions
    on each snapshot."""

    @pytest.mark.parametrize("algorithm", FUSED_ALGORITHMS, ids=algorithm_id)
    def test_every_overlap_and_drop_is_bit_equal(self, algorithm):
        w, overlaps, profiles = chain_values(algorithm)
        snapshots = list(
            ts.ensemble_snapshots(algorithm, algorithm.initial_ensemble())
        )
        assert len(profiles) == algorithm.num_queries
        assert all(profile.w is w for profile in profiles)
        assert float_bits(overlaps) == float_bits(
            lb.weighted_overlap(ensemble, w) for ensemble in snapshots
        )
        assert float_bits(profile.pair_drop for profile in profiles) == float_bits(
            lb.pairwise_drop(ensemble, w) for ensemble in snapshots[:-1]
        )


ORACLE_ALGORITHMS = FUSED_ALGORITHMS + [BinarySearchAlgorithm(n) for n in (8192, 16384)]


class TestRunPassAgainstFFT:
    """``weighted_overlap`` and ``pairwise_drop`` against the FFT correlation
    pass they replaced (``fft_kernel_oracle``), which gives the bits W and the
    pair drop had before."""

    @pytest.mark.parametrize("algorithm", ORACLE_ALGORITHMS, ids=algorithm_id)
    def test_every_snapshot_matches_the_fft_oracle(self, algorithm):
        # The two passes round differently. Over these runs W and the pair
        # sum agree within 4.0e-16 * W_0 (team 8192); the bound is 1e-15,
        # doubled for the drop, which is twice the pair sum.
        w = lb.WeightSpec.inverse_distance(algorithm.n)
        snapshots = list(
            ts.ensemble_snapshots(algorithm, algorithm.initial_ensemble())
        )
        tolerance = 1e-15 * fft_oracle.fft_kernel_sums(snapshots[0], w)[0]
        for j, ensemble in enumerate(snapshots[:-1]):
            fft = fft_oracle.fft_kernel_sums(ensemble, w, queried_left(ensemble))
            drop = lb.pairwise_drop(ensemble, w)
            assert type(drop) is float
            assert abs(drop - 2.0 * fft[1]) <= 2.0 * tolerance, j
        for j, ensemble in enumerate(snapshots):
            overlap = lb.weighted_overlap(ensemble, w)
            assert type(overlap) is float
            expected = fft_oracle.fft_kernel_sums(ensemble, w)[0]
            assert abs(overlap - expected) <= tolerance, j

    def test_batching_does_not_move_a_bit(self, monkeypatch):
        # A small batch cap splits each FFT length's blocks of the oracle into
        # many batches; its sums must not move by a single bit.
        algorithm = BinarySearchAlgorithm(32)
        w = lb.WeightSpec.inverse_distance(32)
        snapshots = [Ensemble.from_states(s) for s in trajectory_snapshots(algorithm)]

        def sums():
            return [fft_oracle.fft_kernel_sums(e, w, queried_left(e)) for e in snapshots]

        whole = sums()
        monkeypatch.setattr(fft_oracle, "BATCH_ENTRIES", 8)
        assert sums() == whole

    @pytest.mark.parametrize(
        "algorithm",
        [BinarySearchAlgorithm(1024), TeamCombineAlgorithm(2048)],
        ids=algorithm_id,
    )
    def test_kernel_pass_runs_no_fft(self, monkeypatch, algorithm):
        # W and the pair drop are closed forms over label runs; only the
        # Hankel product of the chain, not called here, transforms.
        def forbidden(*args, **kwargs):
            raise AssertionError("FFT on the kernel pass")

        w = lb.WeightSpec.inverse_distance(algorithm.n)
        snapshots = ts.ensemble_snapshots(algorithm, algorithm.initial_ensemble())
        ensemble = next(iter(snapshots))
        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "rfft", forbidden)
            patch.setattr(np.fft, "irfft", forbidden)
            overlap = lb.weighted_overlap(ensemble, w)
            profile = lb.mass_profile(ensemble, w)
        assert overlap > 0
        assert profile.pair_drop == lb.pairwise_drop(ensemble, w) > 0


# Each kernel the tests build: the inverse distance, scaled, in another form,
# symmetric with w(0) > 0, and constant.
DRAWN_KERNELS = {
    "inverse": lb._inverse_distance,
    "scaled-2": lambda d: 2.0 * lb._inverse_distance(d),
    "scaled-0.5": lambda d: 0.5 * lb._inverse_distance(d),
    "max-d-1": lambda d: np.where(d > 0, 1.0 / np.maximum(d, 1.0), 0.0),
    "symmetric": symmetric_weight,
    "constant": lambda d: 1.0,
}

AMPLITUDES = st.one_of(
    st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
    st.floats(0.1, 2.0),
    st.floats(-2.0, -0.1),
)


@st.composite
def run_states(draw):
    """States of up to 12 answers on one to three labels, each label's column
    several runs: its answers held with gaps, each entry's amplitude either
    a new draw or its neighbour's, and a queried index that may fall inside
    the column, so that the column holds entries on both sides of it."""
    n = draw(st.integers(1, 12))
    entries = [{} for _ in range(n)]
    for z in range(draw(st.integers(1, 3))):
        label = query_label(z, draw(st.integers(0, n + 1)))
        amp = draw(AMPLITUDES)
        held = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        for a in np.flatnonzero(held).tolist():
            if draw(st.booleans()):
                amp = draw(AMPLITUDES)
            entries[a][label] = amp
    return [SparseState(e) for e in entries]


@pytest.mark.parametrize("kernel", DRAWN_KERNELS.values(), ids=DRAWN_KERNELS.keys())
@given(states=run_states())
@settings(max_examples=100, deadline=None)
def test_drawn_run_ensembles_match_the_reference_loops(kernel, states):
    # A pair of runs is exact to a few ulps of Q(h) times its amplitudes, so
    # the error grows with n and with the count of short runs far apart. At
    # up to 12 answers, the worst of 4000 random ensembles on up to four
    # labels was 2.6e-13 of the 1e-12 allowed.
    assert_kernel_matches_reference(states, lb.WeightSpec(len(states), kernel))


# The unit roundoff of float64: a rounded operation is within u of its
# exact result, relatively.
U = 2.0**-53

ACCURACY_KERNELS = {
    name: DRAWN_KERNELS[name] for name in ("inverse", "symmetric", "constant")
}


@st.composite
def gapped_run_states(draw):
    """States of up to 40 answers on one to four labels. Each label's column
    is a row of runs, stretches of consecutive answers at one amplitude,
    often short, with gaps of zero or more answers between them. The
    amplitudes repeat, so that runs next to each other may merge, and the
    queried index may fall inside the column."""
    n = draw(st.integers(1, 40))
    entries = [{} for _ in range(n)]
    for z in range(draw(st.integers(1, 4))):
        label = query_label(z, draw(st.integers(0, n + 1)))
        a = draw(st.integers(0, n - 1))
        while a < n:
            amp = draw(AMPLITUDES)
            end = min(n, a + draw(st.integers(1, 3) | st.integers(1, n - a)))
            for b in range(a, end):
                entries[b][label] = amp
            a = end + draw(st.integers(0, 5))
    return [SparseState(e) for e in entries]


def label_columns(states):
    """Each label's column as (answer, amplitude) pairs, answers ascending."""
    columns = {}
    for a, state in enumerate(states):
        for label, amp in state.items():
            columns.setdefault(label, []).append((a, amp))
    return columns


def run_pairs(states, split_at_query):
    """The pairs of runs (first answer, length, amplitude) that the run pass
    sums: runs are maximal stretches of a column's consecutive answers at
    one amplitude. For W every ordered pair of runs of a column; split at
    each label's queried index i, the pairs of a run at or below i and one
    above it, for the pair drop."""
    pairs = []
    for label, column in label_columns(states).items():
        runs = []  # [first answer, length, amplitude, left of i]
        for a, amp in column:
            left = split_at_query and a <= label.i
            if runs and runs[-1][0] + runs[-1][1] == a and runs[-1][2:] == [amp, left]:
                runs[-1][1] += 1
            else:
                runs.append([a, 1, amp, left])
        pairs += [
            (p[:3], q[:3])
            for p in runs
            for q in runs
            if not split_at_query or (p[3] and not q[3])
        ]
    return pairs


def exact_sums(states, w):
    """W and the pair drop of ``states``, summed entry pair by entry pair as
    exact fractions of the kernel's and the amplitudes' floats."""
    kernel = [Fraction(value) for value in w.kernel]
    overlap = pair = Fraction(0)
    for label, column in label_columns(states).items():
        column = [(a, Fraction(amp)) for a, amp in column]
        for a, x in column:
            for b, y in column:
                term = kernel[b - a + w.n - 1] * x * y
                overlap += term
                if a <= label.i < b:
                    pair += term
    return overlap, 2 * pair


def exact_double_prefix(w):
    """Q(t) = sum over d <= t of (t - d + 1) * w(d), for t = -n-1 .. n-1,
    exact over the kernel's floats: Q(t) - Q(t-1) is the kernel summed up
    to t."""
    single = double = Fraction(0)
    table = {}
    for t in range(-w.n - 1, w.n):
        if t > -w.n:
            single += Fraction(w.kernel[t + w.n - 1])
        double += single
        table[t] = double
    return table


def run_pass_error_bound(pairs, double_prefix):
    """How far ``_run_pair_sum`` may be from the exact sum over ``pairs``.

    A pair of runs p, q of lengths L_p, L_q, with h the distance from p's
    first answer to q's last, reads Q at h, h - L_p, h - L_q and
    h - L_p - L_q. Each entry is within u * Q(t) <= u * Q(h) of the exact
    one, as Q grows with t on a non-negative kernel, and the three
    subtractions each round a value of at most Q(h): the pair's kernel sum
    G comes out within 7u * Q(h). G is at most Q(h), and the products
    x_p * x_q and (x_p * x_q) * G round by u each. So the pair's term is
    within 9u * Q(h) * |x_p * x_q| of x_p * x_q * G and at most
    Q(h) * |x_p * x_q| in size, and summing the m terms in any order adds
    at most (m - 1)u times their total size. In all
    (m + 8) u * sum of Q(h) * |x_p * x_q|, to first order in u; the factor
    1 + 2^-20 covers the second-order terms, below m * u (< 1e-12) of it.
    """
    size = math.fsum(
        float(double_prefix[q_first + q_length - 1 - p_first]) * abs(x * y)
        for (p_first, _, x), (q_first, q_length, y) in pairs
    )
    return (len(pairs) + 8) * U * size * (1 + 2.0**-20)


@pytest.mark.parametrize(
    "kernel", ACCURACY_KERNELS.values(), ids=ACCURACY_KERNELS.keys()
)
@seed(20261020)
@given(states=gapped_run_states())
@settings(max_examples=200, deadline=None)
def test_run_pass_stays_within_its_stated_accuracy(kernel, states):
    # W and the pair drop against exact sums, within the accuracy the
    # docstring of _run_pair_sum states (derived in run_pass_error_bound).
    # The drop is twice a pair sum; doubling is exact.
    w = lb.WeightSpec(len(states), kernel)
    ensemble = Ensemble.from_states(states)
    double_prefix = exact_double_prefix(w)
    exact_overlap, exact_drop = exact_sums(states, w)
    overlap_bound = run_pass_error_bound(run_pairs(states, False), double_prefix)
    drop_bound = 2 * run_pass_error_bound(run_pairs(states, True), double_prefix)
    overlap = lb.weighted_overlap(ensemble, w)
    drop = lb.pairwise_drop(ensemble, w)
    assert abs(Fraction(overlap) - exact_overlap) <= Fraction(overlap_bound)
    assert abs(Fraction(drop) - exact_drop) <= Fraction(drop_bound)
