import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qordsearch import teamsearch as ts
from qordsearch.oracle import OrderedInstance, apply_query, enumerate_instances
from qordsearch.qcore import (
    CollisionError,
    Ensemble,
    NormDriftError,
    QueryLabel,
    SparseState,
    TeamLabel,
    apply_diagonal_phase,
    apply_linear,
    apply_linear_ensemble,
    diff_norm,
    inner_product,
    label_fields,
    labels_of,
    measure_distribution,
    permute_ensemble,
)
from test_lowerbound import (
    assert_ensemble_invariants,
    ensemble_entries,
    query_label,
    state_entries,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


def random_state(n_labels, seed, normalize=True):
    rng = random.Random(seed)
    entries = {}
    while len(entries) < n_labels:
        label = query_label(rng.randrange(10 * n_labels), rng.randrange(10 * n_labels))
        entries[label] = rng.gauss(0, 1)
    if normalize:
        norm = math.sqrt(sum(a * a for a in entries.values()))
        entries = {l: a / norm for l, a in entries.items()}
    return SparseState(entries)


class TestLabels:
    def test_querylabel_checks_its_interval_and_index(self):
        QueryLabel(1, 4, 7, 5)  # aligned length-4 block routed to its midpoint
        QueryLabel(0, 4, 7, 1 << 80)  # any index past the list, in the padding
        with pytest.raises(ValueError):
            QueryLabel(0, 4, 7, -1)  # negative index
        with pytest.raises(ValueError):
            QueryLabel(0, 2, 5, 3)  # length 4 but lo not a multiple of 4
        with pytest.raises(ValueError):
            QueryLabel(0, 0, 2, 1)  # length 3 not a power of two
        with pytest.raises(ValueError):
            QueryLabel(2, 0, 1, 0)  # marker out of range
        with pytest.raises(ValueError):
            QueryLabel(0, 5, 4, 4)  # reversed endpoints

    def test_teamlabel_validates_dyadic_alignment(self):
        TeamLabel(0, 4, 7)  # aligned length-4 block
        with pytest.raises(ValueError):
            TeamLabel(0, 2, 5)  # length 4 but lo not a multiple of 4
        with pytest.raises(ValueError):
            TeamLabel(0, 0, 2)  # length 3 not a power of two
        with pytest.raises(ValueError):
            TeamLabel(2, 0, 1)  # marker out of range
        with pytest.raises(ValueError):
            TeamLabel(0, 5, 4)  # reversed endpoints

    def test_labels_are_totally_ordered_and_printable(self):
        labels = [
            TeamLabel(1, 4, 7),
            QueryLabel(1, 0, 7, 3),
            QueryLabel(0, 4, 5, 8),
            QueryLabel(0, 0, 7, 8),
            TeamLabel(0, 4, 5),
        ]
        ordered = sorted(labels, key=lambda l: l.sort_key)
        # Routed labels go by hi, then lo, b and i, ahead of team labels.
        assert ordered == [
            QueryLabel(0, 4, 5, 8),
            QueryLabel(0, 0, 7, 8),
            QueryLabel(1, 0, 7, 3),
            TeamLabel(0, 4, 5),
            TeamLabel(1, 4, 7),
        ]
        assert str(QueryLabel(1, 4, 7, 5)) == "1|4,7;5"
        assert str(TeamLabel(1, 4, 7)) == "1|4,7"

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_routed_labels_sort_as_packed_interval_tags(self, n):
        # The order of the tag ((hi * 2n + lo) << 1) | b, then the index:
        # the order the per-answer sums have always run in.
        routed = [
            QueryLabel(b, lo, lo + length - 1, i)
            for length in (1 << k for k in range(n.bit_length()))
            for lo in range(0, n, length)
            for b in (0, 1)
            for i in (lo, lo + length // 2, n)
        ]
        tag = lambda l: ((((l.hi * 2 * n + l.lo) << 1) | l.b), l.i)
        assert sorted(routed, key=lambda l: l.sort_key) == sorted(routed, key=tag)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: QueryLabel(0, 0, 1, -1), "query index must be non-negative, got -1"),
            (lambda: QueryLabel(2, 0, 1, 0), "marker bit must be 0 or 1, got 2"),
            (lambda: QueryLabel(0, 5, 4, 4), "need 0 <= lo <= hi, got lo=5, hi=4"),
            (lambda: QueryLabel(0, 0, 2, 1), "interval length 3 is not a power of two"),
            (lambda: QueryLabel(0, 2, 5, 3), "interval [2,5] is not dyadically aligned"),
            (lambda: TeamLabel(2, 0, 1), "marker bit must be 0 or 1, got 2"),
            (lambda: TeamLabel(0, 5, 4), "need 0 <= lo <= hi, got lo=5, hi=4"),
            (lambda: TeamLabel(0, -1, 0), "need 0 <= lo <= hi, got lo=-1, hi=0"),
            (lambda: TeamLabel(0, 0, 2), "interval length 3 is not a power of two"),
            (lambda: TeamLabel(0, 2, 5), "interval [2,5] is not dyadically aligned"),
        ],
    )
    def test_rejection_messages(self, build, message):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert str(excinfo.value) == message

    def test_repr_names_the_fields(self):
        assert repr(QueryLabel(1, 4, 7, 5)) == "QueryLabel(b=1, lo=4, hi=7, i=5)"
        assert repr(TeamLabel(1, 4, 7)) == "TeamLabel(b=1, lo=4, hi=7)"
        assert repr(QueryLabel(b=0, lo=0, hi=0, i=9)) == "QueryLabel(b=0, lo=0, hi=0, i=9)"

    def test_equality_and_hashing_by_value_within_a_family(self):
        assert query_label(3, 1) == query_label(3, 1)
        assert hash(TeamLabel(0, 4, 5)) == hash(TeamLabel(0, 4, 5))
        assert query_label(3, 1) != query_label(1, 3)

    def test_querylabel_never_equals_a_teamlabel(self):
        for routed, team in [
            (QueryLabel(0, 0, 1, 0), TeamLabel(0, 0, 1)),
            (QueryLabel(1, 1, 1, 1), TeamLabel(1, 1, 1)),
            (QueryLabel(0, 0, 0, 0), TeamLabel(0, 0, 0)),
        ]:
            assert routed != team and team != routed
        state = SparseState(
            {QueryLabel(0, 0, 0, 0): SQRT_HALF, TeamLabel(0, 0, 0): SQRT_HALF}
        )
        assert len(state) == 2

    def test_labels_are_immutable(self):
        label = TeamLabel(1, 4, 7)
        with pytest.raises(AttributeError):
            label.b = 0
        with pytest.raises(AttributeError):
            QueryLabel(0, 0, 1, 0).i = 5


class TestSparseState:
    def test_construction_prunes_float_dust(self):
        state = SparseState({query_label(0, 0): 1.0, query_label(0, 1): 1e-16})
        assert len(state) == 1
        assert all(abs(a) >= 1e-15 for _, a in state.items())

    def test_normalized_flag(self):
        assert SparseState.unit(query_label(0, 0)).normalized
        assert not SparseState({query_label(0, 0): 0.5}).normalized

    def test_dump_is_deterministic_and_sorted(self):
        state = random_state(50, seed=7)
        once, twice = state.dump(), state.dump()
        assert once == twice
        rebuilt = SparseState(dict(state.items()))
        assert rebuilt.dump() == once
        lines = once.splitlines()
        assert len(lines) == 50
        assert lines == sorted(
            lines,
            key=lambda line: tuple(map(int, re.split("[|,;]", line.split("\t")[0]))),
        )

    @pytest.mark.parametrize("amp", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitude_is_rejected_not_pruned(self, amp):
        # abs(nan) >= PRUNE_EPS is false, so a plain prune test would drop
        # a NaN and leave a normalized one-label state.
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            SparseState({query_label(0, 0): amp, query_label(0, 1): 1.0})

    def test_dump_uses_17_significant_digits(self):
        state = SparseState({query_label(0, 0): 1 / 3, query_label(0, 1): -2 / 7})
        assert state.dump() == (
            "0|0,0;0\t0.33333333333333331\n0|0,0;1\t-0.2857142857142857\n"
        )

    @pytest.mark.parametrize(
        "amp",
        [1j, complex(0.6, 0.0), complex(0.6, -0.0), np.complex128(0.6), np.complex64(0.6)],
        ids=["imaginary", "zero-imag", "signed-zero-imag", "numpy-128", "numpy-64"],
    )
    def test_complex_amplitudes_are_refused_naming_the_label(self, amp):
        # Even a zero imaginary part: the amplitude type is float.
        with pytest.raises(ValueError, match=r"must be real, got .* on 0\|0,0;3$"):
            SparseState({query_label(0, 1): 0.6, query_label(0, 3): amp})

    def test_amplitudes_are_stored_as_floats(self):
        state = SparseState({query_label(0, 0): np.float64(0.6), query_label(0, 1): 1})
        assert [type(a) for _, a in state.items()] == [float, float]
        assert state.amplitude(query_label(0, 2)) == 0.0
        assert type(state.amplitude(query_label(0, 2))) is float


class TestInnerProduct:
    def test_self_overlap_of_normalized_state_is_one(self):
        state = random_state(100, seed=1)
        assert abs(inner_product(state, state) - 1.0) < 1e-12

    def test_distinct_single_labels_are_orthogonal(self):
        a = SparseState.unit(query_label(0, 0))
        b = SparseState.unit(query_label(0, 1))
        assert inner_product(a, b) == 0.0

    def test_plus_minus_pair_is_orthogonal(self):
        # <(A+B)/sqrt2, (A-B)/sqrt2> = (1*1 + 1*(-1)) / 2 = 0 by hand.
        A, B = query_label(0, 0), query_label(1, 1)
        plus = SparseState({A: SQRT_HALF, B: SQRT_HALF})
        minus = SparseState({A: SQRT_HALF, B: -SQRT_HALF})
        assert abs(inner_product(plus, minus)) < 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_and_cauchy_schwarz(self, seed1, seed2):
        s1 = random_state(30, seed=seed1, normalize=False)
        s2 = random_state(30, seed=seed2, normalize=False)
        forward = inner_product(s1, s2)
        assert type(forward) is float
        assert forward == inner_product(s2, s1)
        assert abs(forward) <= s1.norm() * s2.norm() + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetric_bit_for_bit_over_shared_labels(self, seed):
        # Both states hold the same labels, inserted in opposite orders, with
        # terms of both signs and many magnitudes: a running sum would depend
        # on which state's order it walked.
        rng = random.Random(seed)
        labels = [query_label(k, k % 5) for k in range(40)]
        amps = [rng.choice((-1, 1)) * 10.0 ** rng.uniform(-8, 0) for _ in labels]
        a = SparseState(dict(zip(labels, amps)))
        b = SparseState(dict(zip(labels[::-1], [rng.gauss(0, 1) for _ in labels])))
        assert inner_product(a, b) == inner_product(b, a)


class TestDiagonalPhase:
    def test_all_plus_one_is_identity(self):
        state = random_state(20, seed=3)
        assert diff_norm(apply_diagonal_phase(state, lambda l: 1), state) == 0.0

    def test_single_label_flip(self):
        state = SparseState({query_label(0, 0): 0.6, query_label(0, 1): 0.8})
        flipped = apply_diagonal_phase(
            state, lambda l: -1 if l == query_label(0, 1) else 1
        )
        assert flipped.amplitude(query_label(0, 0)) == 0.6
        assert flipped.amplitude(query_label(0, 1)) == -0.8

    def test_norm_preserved_on_random_state(self):
        state = random_state(50, seed=11)
        rng = random.Random(5)
        signs = {label: rng.choice((1, -1)) for label in state.labels()}
        out = apply_diagonal_phase(state, signs.__getitem__)
        assert abs(out.norm() - state.norm()) < 1e-12

    def test_rejects_non_sign_values(self):
        state = SparseState.unit(query_label(0, 0))
        with pytest.raises(ValueError):
            apply_diagonal_phase(state, lambda l: 2)


class TestApplyLinear:
    def test_identity_returns_input_bit_exact(self):
        state = random_state(25, seed=13)
        out = apply_linear(state, lambda l: [(l, 1.0)])
        assert dict(out.items()) == dict(state.items())

    def test_permutation_followed_by_inverse_restores_state(self):
        state = random_state(40, seed=17)
        forward = lambda l: [(query_label(l.lo + 1, l.i + 2), 1.0)]
        backward = lambda l: [(query_label(l.lo - 1, l.i - 2), 1.0)]
        roundtrip = apply_linear(apply_linear(state, forward), backward)
        assert diff_norm(roundtrip, state) < 1e-12

    def test_hadamard_split_of_single_label(self):
        state = SparseState.unit(query_label(5, 0))
        split = apply_linear(
            state,
            lambda l: [
                (query_label(l.lo, 0), SQRT_HALF),
                (query_label(l.lo, 1), SQRT_HALF),
            ],
        )
        assert len(split) == 2
        assert abs(split.amplitude(query_label(5, 0)) - SQRT_HALF) < 1e-15
        assert abs(split.amplitude(query_label(5, 1)) - SQRT_HALF) < 1e-15

    def test_interference_cancels_to_exact_zero(self):
        plus = SparseState({query_label(0, 0): SQRT_HALF, query_label(0, 1): SQRT_HALF})
        # Hadamard block sends (a+b)/sqrt2 back to a; the b component cancels.
        out = apply_linear(
            plus,
            lambda l: [
                (query_label(0, 0), SQRT_HALF),
                (query_label(0, 1), SQRT_HALF if l.i == 0 else -SQRT_HALF),
            ],
        )
        assert query_label(0, 1) not in out

    def test_norm_drift_reported_for_declared_unitary(self):
        state = random_state(10, seed=19)
        with pytest.raises(NormDriftError):
            apply_linear(state, lambda l: [(l, 0.5)])

    def test_nan_coefficient_raises_instead_of_emptying_the_state(self):
        state = random_state(5, seed=23)
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            apply_linear(state, lambda l: [(l, math.nan)])

    @pytest.mark.parametrize("coeff", [1j, complex(1.0, 0.0), np.complex128(1.0)])
    def test_complex_coefficient_raises_the_states_value_error(self, coeff):
        state = SparseState({query_label(0, 0): 0.6, query_label(0, 1): 0.8})
        with pytest.raises(ValueError, match=r"must be real, got .* on 0\|0,0;0$"):
            apply_linear(state, lambda l: [(l, coeff)])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_label_permutation_preserves_norm(self, seed):
        state = random_state(30, seed=seed)
        rng = random.Random(seed ^ 0xA5A5)
        labels = state.labels()
        images = labels[:]
        rng.shuffle(images)
        table = dict(zip(labels, images))
        out = apply_linear(state, lambda l: [(table[l], 1.0)])
        assert abs(out.norm() - state.norm()) < 1e-12

    def test_norm_preserved_on_ten_thousand_labels(self):
        state = random_state(10_000, seed=29)
        phased = apply_diagonal_phase(state, lambda l: -1 if l.i % 3 else 1)
        assert abs(phased.norm() - state.norm()) < 1e-12
        paired = apply_linear(
            state,
            lambda l: [
                (query_label(2 * l.lo, l.i), SQRT_HALF),
                (query_label(2 * l.lo + 1, l.i), -SQRT_HALF),
            ],
        )
        assert abs(paired.norm() - state.norm()) < 1e-12


class TestMeasurement:
    def test_single_label_state(self):
        state = SparseState.unit(query_label(0, 3))
        assert measure_distribution(state, lambda l: l.i) == {3: 1.0}

    def test_equal_four_way_superposition(self):
        state = SparseState({query_label(0, i): 0.5 for i in range(4)})
        probs = measure_distribution(state, lambda l: l.i)
        assert set(probs) == {0, 1, 2, 3}
        for p in probs.values():
            assert abs(p - 0.25) < 1e-12

    def test_combine_round_final_state_reports_its_position(self):
        # Final state of the worked size-8 run, one definite length-1 interval.
        state = SparseState.unit(TeamLabel(0, 5, 5))
        probs = measure_distribution(state, lambda l: f"answer={l.lo + 1}")
        assert probs == {"answer=6": 1.0}

    def test_rejects_unnormalized_input(self):
        with pytest.raises(ValueError):
            measure_distribution(SparseState({query_label(0, 0): 0.7}), lambda l: 0)

    def test_probabilities_sum_to_one(self):
        state = random_state(200, seed=23)
        probs = measure_distribution(state, lambda l: l.i % 7)
        assert abs(sum(probs.values()) - 1.0) < 1e-9


def record_relabelled(monkeypatch):
    """Collect every state the relabel/sign constructor builds."""
    built = []
    original = SparseState._relabelled.__func__

    def recording(cls, entries, source):
        state = original(cls, entries, source)
        built.append(state)
        return state

    monkeypatch.setattr(SparseState, "_relabelled", classmethod(recording))
    return built


class TestRelabelledConstructor:
    """The relabel/sign shortcut against a full construction of the same entries."""

    @pytest.mark.parametrize(
        "algorithm",
        [ts.BinarySearchAlgorithm(1 << k) for k in range(1, 7)]
        + [ts.TeamCombineAlgorithm(n) for n in (8, 32, 128)],
        ids=lambda algo: f"{type(algo).__name__}-{algo.n}",
    )
    def test_every_state_of_a_pass_matches_full_construction(
        self, monkeypatch, algorithm
    ):
        built = record_relabelled(monkeypatch)
        for inst in enumerate_instances(algorithm.n):
            result = ts.run_algorithm(algorithm, inst)
            assert result.answer == inst.answer
        # One query per step, plus one halving per step for binary search.
        per_pass = algorithm.num_queries
        if isinstance(algorithm, ts.BinarySearchAlgorithm):
            per_pass *= 2
        assert len(built) >= algorithm.n * per_pass
        for state in built:
            full = SparseState(state._entries)
            assert list(full._entries.items()) == list(state._entries.items())
            assert full._norm_sq == state._norm_sq
            assert full.normalized == state.normalized

    def test_unnormalized_source_keeps_its_flag_and_norm(self):
        state = random_state(40, seed=31, normalize=False)
        phased = apply_diagonal_phase(state, lambda l: -1 if l.lo % 2 else 1)
        full = SparseState(phased._entries)
        assert not phased.normalized and not full.normalized
        assert phased._norm_sq == full._norm_sq == state._norm_sq


def reference_query(state, inst):
    """The query as a generic diagonal phase from ``inst.bit``, rebuilt in full."""
    phased = apply_diagonal_phase(state, lambda l: -1 if inst.bit(l.i) else 1)
    return SparseState(phased._entries)


class TestQueryFastPath:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_diagonal_phase_reference(self, seed):
        # Indices run up to ten times the label count, far past n: the
        # padding labels must come back untouched.
        state = random_state(60, seed=seed)
        for n in (1, 7, 64, 600):
            for answer in {0, n // 3, n - 1}:
                inst = OrderedInstance(n, answer)
                fast = apply_query(state, inst)
                slow = reference_query(state, inst)
                assert list(fast._entries.items()) == list(slow._entries.items())
                assert fast._norm_sq == slow._norm_sq
                assert fast.normalized == slow.normalized
                padded = [l for l in state.labels() if l.i >= n]
                assert all(fast.amplitude(l) == state.amplitude(l) for l in padded)

    def test_matches_along_a_binary_search_pass(self):
        n = 32
        algo = ts.BinarySearchAlgorithm(n)
        for inst in enumerate_instances(n):
            state = algo.initial_state(inst)
            for j in range(algo.num_queries):
                fast = apply_query(state, inst)
                slow = reference_query(state, inst)
                assert list(fast._entries.items()) == list(slow._entries.items())
                assert fast._norm_sq == slow._norm_sq
                state = algo.advance(j, state, inst)


def lifted(label_map):
    """A tuple label map as a map on label fields, one Python call per label."""

    def fields_map(fields):
        images = [label_map(label) for label in labels_of(fields)]
        terms = [term for image in images for term in image]
        return (
            np.array([len(image) for image in images], dtype=np.intp),
            label_fields([label for label, _ in terms]),
            np.array([coeff for _, coeff in terms], dtype=float),
        )

    return fields_map


def lifted_permutation(image_of):
    """A tuple relabelling as a map on label fields."""
    return lambda fields: label_fields([image_of(label) for label in labels_of(fields)])


def pair_mixer(label):
    """A real 2x2 rotation on bit 0 of ``z`` of ``query_label(z, i)``.

    Every image sums at most two terms.
    """
    _, z, _, i = label
    c, s = 0.6, 0.8
    if z & 1:
        return [(query_label(z - 1, i), -s), (label, c)]
    return [(label, c), (query_label(z + 1, i), s)]


def cancelling_states(seed, count=6):
    """States with real amplitudes of both signs and an exactly cancelling pair."""
    rng = random.Random(seed)
    parts = [0.5, -0.5, 0.3, 0.4, -0.4]
    states = []
    for _ in range(count):
        entries = {}
        for _ in range(rng.randrange(1, 8)):
            label = query_label(rng.randrange(8), rng.randrange(4))
            entries[label] = rng.choice(parts)
        # (0.6, -0.8) -> (0.36 + 0.64, 0.48 - 0.48): an exact zero to prune.
        entries[query_label(10, 0)] = 0.6
        entries[query_label(11, 0)] = -0.8
        states.append(SparseState(entries))
    return states


class TestEnsemble:
    """Ensemble operations against the per-state operations they replace."""

    @pytest.mark.parametrize("seed", range(8))
    def test_linear_step_is_bit_equal_per_answer(self, seed):
        states = cancelling_states(seed)
        got = apply_linear_ensemble(Ensemble.from_states(states), lifted(pair_mixer))
        expected = [apply_linear(s, pair_mixer) for s in states]
        assert ensemble_entries(got) == state_entries(expected)
        assert all(query_label(11, 0) not in s for s in expected)
        assert_ensemble_invariants(got)

    def test_each_label_map_is_evaluated_once_per_distinct_label(self):
        states = [SparseState({query_label(0, 0): 1.0}) for _ in range(5)]
        calls = []

        def counted(fields):
            calls.append(labels_of(fields))
            return lifted(pair_mixer)(fields)

        apply_linear_ensemble(Ensemble.from_states(states), counted)
        assert calls == [[query_label(0, 0)]]

    def test_norm_drift_is_checked_per_answer(self):
        # The total squared norm stays 2; each answer's moves off 1.
        states = [SparseState.unit(query_label(0, 0)), SparseState.unit(query_label(1, 0))]
        shift = lambda l: [(l, math.sqrt(0.5) if l.lo else math.sqrt(1.5))]
        with pytest.raises(NormDriftError):
            apply_linear(states[1], shift)
        with pytest.raises(NormDriftError):
            apply_linear_ensemble(Ensemble.from_states(states), lifted(shift))

    def test_nan_coefficient_fails_the_finiteness_check(self):
        states = [SparseState({query_label(0, 0): 1.0})]
        nan_map = lambda l: [(l, math.nan)]
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            apply_linear(states[0], nan_map)
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            apply_linear_ensemble(Ensemble.from_states(states), lifted(nan_map))

    def test_permutation_collides_only_within_one_answer(self):
        merge = lambda l: query_label(0, l.i)
        apart = [SparseState.unit(query_label(0, 3)), SparseState.unit(query_label(1, 3))]
        merged = permute_ensemble(Ensemble.from_states(apart), lifted_permutation(merge))
        assert_ensemble_invariants(merged)
        assert labels_of(merged.fields) == [query_label(0, 3)]
        assert ensemble_entries(merged) == [{query_label(0, 3): "1.0"}] * 2
        together = SparseState({query_label(0, 3): 0.6, query_label(1, 3): 0.8})
        with pytest.raises(CollisionError):
            ts._permute_labels(together, merge)
        with pytest.raises(CollisionError, match=r"of answer 1 both map to 0\|0,0;3"):
            permute_ensemble(
                Ensemble.from_states([apart[0], together]), lifted_permutation(merge)
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_one_state_at_every_answer(self, seed):
        state = cancelling_states(seed, count=1)[0]
        got = Ensemble.from_states([state] * 5)
        assert got.size == 5
        assert ensemble_entries(got) == state_entries([state] * 5)
        assert len(got.amps) == 5 * len(state) > 5
        assert_ensemble_invariants(got)

    def test_constructors_put_the_labels_in_sort_key_order(self):
        # Each state and the two together list their labels against sort_key.
        first = SparseState({TeamLabel(0, 0, 1): 0.6, query_label(3, 2): 0.8})
        second = SparseState({query_label(3, 1): 0.6, TeamLabel(1, 2, 3): -0.8})
        states = [first, second]
        ensemble = Ensemble.from_states(states)
        assert_ensemble_invariants(ensemble)
        assert labels_of(ensemble.fields) == [
            query_label(3, 1),
            query_label(3, 2),
            TeamLabel(0, 0, 1),
            TeamLabel(1, 2, 3),
        ]
        assert ensemble_entries(ensemble) == state_entries(states)
        empty = SparseState({})
        one = Ensemble.from_states([empty, empty, second, empty])
        assert_ensemble_invariants(one)
        assert one.size == 4
        assert ensemble_entries(one) == state_entries([empty, empty, second, empty])

    def test_routed_labels_near_2_to_the_62_are_grouped_row_by_row(self):
        # Intervals of a list of 2^62 and an index at the top of int64: no key
        # built from two fields would fit.
        n = 1 << 62
        labels = [
            QueryLabel(0, 0, n - 1, n),
            QueryLabel(1, 0, n - 1, n // 2 - 1),
            QueryLabel(1, n - 2, n - 1, n - 2),
            QueryLabel(0, n // 2, n - 1, (1 << 63) - 1),
            QueryLabel(0, 0, 0, 0),
        ]
        states = [SparseState({l: 0.5 for l in labels}), SparseState({labels[1]: 1.0})]
        ensemble = Ensemble.from_states(states)
        same = permute_ensemble(ensemble, lambda fields: fields)
        assert_ensemble_invariants(same)
        assert labels_of(same.fields) == sorted(labels, key=lambda l: l.sort_key)
        assert ensemble_entries(same) == state_entries(states)
        identity = lambda l: [(l, 1.0)]
        got = apply_linear_ensemble(ensemble, lifted(identity))
        assert_ensemble_invariants(got)
        assert ensemble_entries(got) == state_entries(
            [apply_linear(s, identity) for s in states]
        )

    def test_complex_coefficients_are_refused(self):
        # As the per-state path does, the ensemble refuses a phase.
        state = SparseState({query_label(0, 0): 1.0})
        phase = lambda fields: (
            np.ones(fields.shape[1], dtype=np.intp),
            fields,
            np.full(fields.shape[1], 1j),
        )
        with pytest.raises(ValueError, match="coefficients must be real"):
            apply_linear_ensemble(Ensemble.from_states([state]), phase)

    def test_empty_ensemble(self):
        empty = Ensemble.from_states([])
        assert empty.fields.shape == (5, 0)
        for got in (
            empty,
            apply_linear_ensemble(empty, lifted(pair_mixer)),
            permute_ensemble(empty, lambda fields: fields),
        ):
            assert_ensemble_invariants(got)
            assert got.fields.shape == (5, 0)
