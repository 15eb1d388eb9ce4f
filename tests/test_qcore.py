import ast
import inspect
import itertools
import math
import pathlib
import random
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qordsearch import lowerbound as lb
from qordsearch import qcore
from qordsearch import teamsearch as ts
from qordsearch.oracle import OrderedInstance, apply_query, enumerate_instances
from qordsearch.qcore import (
    CollisionError,
    NormDriftError,
    QueryLabel,
    SparseState,
    TeamLabel,
    apply_linear,
    apply_linear_ensemble,
    inner_product,
    labels_of,
    measure_distribution,
)
from per_instance_oracle import column_ids, diff_norm, from_states, label_fields
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

    @pytest.mark.parametrize(
        "amp",
        ["1.0", b"1", bytearray(b"1"), None, True, False, np.True_],
        ids=["str", "bytes", "bytearray", "none", "true", "false", "numpy-bool"],
    )
    def test_non_numbers_are_refused_naming_the_label(self, amp):
        # float() reads "1.0", b"1" and True as 1.0, which would pass as a
        # normalized state.
        with pytest.raises(ValueError, match=r"real numbers, got .* on 0\|0,0$"):
            SparseState({TeamLabel(0, 0, 0): amp})
        with pytest.raises(ValueError, match=r"real numbers, got .* on 0\|0,0;3$"):
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
        phased = SparseState({l: -a if l.i % 3 else a for l, a in state.items()})
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
        signed = {l: -a if l.lo % 2 else a for l, a in state._entries.items()}
        phased = SparseState._relabelled(signed, state)
        full = SparseState(phased._entries)
        assert not phased.normalized and not full.normalized
        assert phased._norm_sq == full._norm_sq == state._norm_sq


def reference_query(state, inst):
    """The query as a sign flip read off ``inst.bit``, built in full."""
    return SparseState(
        {l: -a if inst.bit(l.i) else a for l, a in state._entries.items()}
    )


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


def pair_mixer(label):
    """A real 2x2 rotation on bit 0 of ``z`` of ``query_label(z, i)``.

    Every image sums at most two terms.
    """
    _, z, _, i = label
    c, s = 0.6, 0.8
    if z & 1:
        return [(query_label(z - 1, i), -s), (label, c)]
    return [(label, c), (query_label(z + 1, i), s)]


def cancelling_states(seed, count=6, partnered=False):
    """States with real amplitudes of both signs and an exactly cancelling pair.

    ``partnered`` puts each drawn label's ``pair_mixer`` partner in its state
    too, so that the two source labels of every image hold the same answers.
    """
    rng = random.Random(seed)
    parts = [0.5, -0.5, 0.3, 0.4, -0.4]
    states = []
    for _ in range(count):
        entries = {}
        for _ in range(rng.randrange(1, 8)):
            z, i = rng.randrange(8), rng.randrange(4)
            for partner in (z, z ^ 1) if partnered else (z,):
                entries[query_label(partner, i)] = rng.choice(parts)
        # (0.6, -0.8) -> (0.36 + 0.64, 0.48 - 0.48): an exact zero to prune.
        entries[query_label(10, 0)] = 0.6
        entries[query_label(11, 0)] = -0.8
        states.append(SparseState(entries))
    return states


def states_of(ensemble):
    """Each answer's state, rebuilt from the entry arrays."""
    entries = [{} for _ in range(ensemble.size)]
    labels = labels_of(ensemble.fields)
    for k, answer, amp in zip(
        column_ids(ensemble).tolist(), ensemble.answers.tolist(), ensemble.amps.tolist()
    ):
        entries[answer][labels[k]] = amp
    return [SparseState(e) for e in entries]


class TestEnsemble:
    """Ensemble operations against the per-state operations they replace."""

    @pytest.mark.parametrize("seed", range(8))
    def test_linear_step_is_bit_equal_per_answer(self, seed):
        states = cancelling_states(seed, partnered=True)
        got = apply_linear_ensemble(from_states(states), lifted(pair_mixer))
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

        apply_linear_ensemble(from_states(states), counted)
        assert calls == [[query_label(0, 0)]]

    def test_norm_drift_is_checked_per_answer(self):
        # The total squared norm stays 2; each answer's moves off 1.
        states = [SparseState.unit(query_label(0, 0)), SparseState.unit(query_label(1, 0))]
        shift = lambda l: [(l, math.sqrt(0.5) if l.lo else math.sqrt(1.5))]
        with pytest.raises(NormDriftError):
            apply_linear(states[1], shift)
        with pytest.raises(NormDriftError):
            apply_linear_ensemble(from_states(states), lifted(shift))

    def test_nan_coefficient_fails_the_finiteness_check(self):
        states = [SparseState({query_label(0, 0): 1.0})]
        nan_map = lambda l: [(l, math.nan)]
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            apply_linear(states[0], nan_map)
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            apply_linear_ensemble(from_states(states), lifted(nan_map))

    def test_a_half_landing_on_a_label_of_another_answer_collides(self):
        # Each state alone mixes and refines, but a refinement riding on a
        # mix must be one to one on the labels of the whole ensemble.
        steps = [ts._combine_step(4), ts._refine_step(4)]
        apart = [SparseState.unit(TeamLabel(0, 0, 1)), SparseState.unit(TeamLabel(1, 0, 3))]
        for state in apart:
            assert ts._run_steps(steps, state).normalized
        with pytest.raises(CollisionError) as collided:
            ts._run_ensemble_steps(steps, from_states(apart))
        assert str(collided.value) == "labels 0|0,1 and 1|0,3 both map to 0|0,1"

    @pytest.mark.parametrize("seed", range(4))
    def test_one_state_at_every_answer(self, seed):
        state = cancelling_states(seed, count=1)[0]
        got = from_states([state] * 5)
        assert got.size == 5
        assert ensemble_entries(got) == state_entries([state] * 5)
        assert len(got.amps) == 5 * len(state) > 5
        assert_ensemble_invariants(got)

    def test_constructors_put_the_labels_in_sort_key_order(self):
        # Each state and the two together list their labels against sort_key.
        first = SparseState({TeamLabel(0, 0, 1): 0.6, query_label(3, 2): 0.8})
        second = SparseState({query_label(3, 1): 0.6, TeamLabel(1, 2, 3): -0.8})
        states = [first, second]
        ensemble = from_states(states)
        assert_ensemble_invariants(ensemble)
        assert labels_of(ensemble.fields) == [
            query_label(3, 1),
            query_label(3, 2),
            TeamLabel(0, 0, 1),
            TeamLabel(1, 2, 3),
        ]
        assert ensemble_entries(ensemble) == state_entries(states)
        empty = SparseState({})
        one = from_states([empty, empty, second, empty])
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
        ensemble = from_states(states)
        assert labels_of(ensemble.fields) == sorted(labels, key=lambda l: l.sort_key)
        assert ensemble_entries(ensemble) == state_entries(states)
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
            apply_linear_ensemble(from_states([state]), phase)

    def test_empty_ensemble(self):
        empty = from_states([])
        assert empty.fields.shape == (5, 0)
        for got in (empty, apply_linear_ensemble(empty, lifted(pair_mixer))):
            assert_ensemble_invariants(got)
            assert got.fields.shape == (5, 0)


def ensemble_passes(algorithm):
    """Each ensemble pass of an all-answer run's rounds: the ensemble entering
    it, and the per-state steps it stands for, the step and the refine
    riding on it."""
    ensemble = algorithm.initial_ensemble()
    for j in range(algorithm.num_queries):
        ensemble = ts.oracle_mod.apply_query_ensemble(ensemble)
        steps = algorithm._rounds[j]
        for k, step in enumerate(steps):
            if step.image is not None:
                riding = itertools.takewhile(lambda s: s.image is None, steps[k + 1 :])
                yield ensemble, [step, *riding]
                ensemble = apply_linear_ensemble(ensemble, step.image)


def unfused_mixes(algorithm):
    """Per pass with a refine riding on it, in the order of
    :func:`ensemble_passes`: the size ``s`` of the pass and its mix alone,
    the fields map of the close or combine step without the halving."""
    team = isinstance(algorithm, ts.TeamCombineAlgorithm)
    for j in range(algorithm.num_queries):
        length = 2 * algorithm.r if team else algorithm.n >> j
        yield length, ts._bitwrite_fields(algorithm.n, length)[1]
        for s in ts._halvings(algorithm.r) if team else ():
            yield s, lambda fields, s=s: ts._mix_fields(fields, s)


def refine_passes(algorithm):
    """Each pass of :func:`ensemble_passes` with a refine riding on it: the
    ensemble entering it, its mix and refine steps, its size and its
    unfused mix (:func:`unfused_mixes`)."""
    passes = [(ensemble, steps) for ensemble, steps in ensemble_passes(algorithm)
              if len(steps) == 2]
    for (ensemble, steps), (s, unfused) in zip(
        passes, unfused_mixes(algorithm), strict=True
    ):
        yield ensemble, steps, s, unfused


RUNS = (
    [ts.BinarySearchAlgorithm(1 << k) for k in range(1, 13)]
    + [ts.TeamCombineAlgorithm(n) for n in (2, 4, 8, 32, 128, 512, 2048, 8192)]
    + [ts.TeamCombineAlgorithm(32, r=2)]
)


def run_id(algorithm):
    return f"{type(algorithm).__name__}-{algorithm.n}-r{getattr(algorithm, 'r', 1)}"


def random_states(rng, answers, labels):
    """States over a shared pool of routed labels, each answer holding some."""
    pool = [query_label(rng.randrange(4 * labels), rng.randrange(8)) for _ in range(labels)]
    return [
        SparseState({label: rng.choice([-1, 1]) * (rng.random() + 0.5)
                     for label in rng.sample(pool, rng.randrange(len(pool) + 1))})
        for _ in range(answers)
    ]


def relabelling(image_of):
    """A one-to-one tuple relabelling as a one-term linear map."""
    return lambda label: [(image_of(label), 1.0)]


class TestRelabelByRuns:
    """One-to-one relabellings, as a refinement riding on a mix is, through
    ``apply_linear_ensemble`` against the per-state relabelling."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_injective_maps(self, seed):
        rng = random.Random(seed)
        states = random_states(rng, rng.randrange(1, 9), rng.randrange(1, 12))
        ensemble = from_states(states)
        labels = labels_of(ensemble.fields)
        targets = rng.sample(
            [TeamLabel(b, lo, lo) for b in (0, 1) for lo in range(40)]
            + [query_label(z, i) for z in range(20) for i in range(3)],
            len(labels),
        )
        image = dict(zip(labels, targets))
        got = apply_linear_ensemble(ensemble, lifted(relabelling(image.__getitem__)))
        expected = [ts._permute_labels(s, image.__getitem__) for s in states]
        assert ensemble_entries(got) == state_entries(expected)

    @pytest.mark.parametrize("seed", range(8))
    def test_maps_that_keep_the_label_order_keep_the_entries(self, seed):
        states = random_states(random.Random(seed), 6, 10)
        ensemble = from_states(states)
        # query_label(z, i) has the fields (QUERY, z, z, 0, i).
        shifted = lambda fields: (
            np.ones(fields.shape[1], dtype=np.intp),
            fields + np.array([[0], [3], [3], [0], [5]]),
            np.ones(fields.shape[1]),
        )
        shift = lambda l: query_label(l.lo + 3, l.i + 5)
        got = apply_linear_ensemble(ensemble, shifted)
        expected = [ts._permute_labels(s, shift) for s in states]
        assert ensemble_entries(got) == state_entries(expected)
        assert column_ids(got).tolist() == column_ids(ensemble).tolist()
        assert got.answers.tolist() == ensemble.answers.tolist()
        assert got.amps.tolist() == ensemble.amps.tolist()

    @pytest.mark.parametrize("algorithm", RUNS, ids=run_id)
    def test_every_refine_step_of_a_run(self, algorithm):
        # By the unfused mix map, a pass is its mix on each answer's state;
        # by the step's own map, the pass goes on to the refine riding on
        # the mix.
        refines = 0
        for ensemble, (mix, refine), _, unfused in refine_passes(algorithm):
            mixed = apply_linear_ensemble(ensemble, unfused)
            assert ensemble_entries(mixed) == state_entries(map(mix, states_of(ensemble)))
            got = apply_linear_ensemble(ensemble, mix.image)
            assert ensemble_entries(got) == state_entries(map(refine, states_of(mixed)))
            refines += 1
        assert refines == sum(
            step.image is None for steps in algorithm._rounds for step in steps
        )

    @pytest.mark.parametrize("algorithm", RUNS, ids=run_id)
    def test_every_step_halves_as_it_mixes(self, algorithm):
        # The map of each close and combine step writes, array for array,
        # the unfused mix's terms with its images halved.
        for ensemble, (mix, _), s, unfused in refine_passes(algorithm):
            counts, images, coeffs = unfused(ensemble.fields)
            got = mix.image(ensemble.fields)
            expected = (counts, ts._halving_fields(images, s), coeffs)
            for array, want in zip(got, expected, strict=True):
                assert array.dtype == want.dtype
                assert np.array_equal(array, want)

    @pytest.mark.parametrize(
        "algorithm",
        [ts.BinarySearchAlgorithm(256), ts.TeamCombineAlgorithm(512),
         ts.TeamCombineAlgorithm(32, r=2)],
        ids=run_id,
    )
    def test_a_chain_verified_run_halves_in_the_mix_pass(self, monkeypatch, algorithm):
        # No step of a run halves its images in a second pass over them, or
        # sorts them for the collision check: that path runs only on a label
        # a half could land on, which no algorithm's ensemble holds.
        calls = {"_halving_fields": 0, "_group_columns": 0}
        for name in calls:
            counted = getattr(ts, name)

            def counting(*args, name=name, counted=counted):
                calls[name] += 1
                return counted(*args)

            monkeypatch.setattr(ts, name, counting)
        n = algorithm.n
        weights = lb.WeightSpec.inverse_distance(n)
        record = lb.run_trajectory(algorithm, n, weights, verify_chain=True)
        assert all(report.holds for report in record.chain_reports)
        assert calls == {"_halving_fields": 0, "_group_columns": 0}
        # The counters see the collision path when it runs.
        colliding = label_fields([TeamLabel(0, 0, 3), TeamLabel(0, 2, 3)])
        with pytest.raises(CollisionError):
            ts._refined(None, 4)(colliding)
        assert calls == {"_halving_fields": 1, "_group_columns": 2}


def three_way(label):
    """A real orthogonal 3x3 map on ``query_label(z, i)``, z = 0, 1, 2: every
    image of those labels sums three terms."""
    _, z, _, i = label
    if z > 2:
        return [(label, 1.0)]
    rows = ((2, -2, 1), (2, 1, -2), (1, 2, 2))
    return [(query_label(k, i), rows[k][z] / 3) for k in range(3)]


def first_unpaired_image(states, label_map):
    """The image label ``apply_linear_ensemble`` names, with the reason, for a
    pair mixer on ``states`` whose source labels are not held by the same
    answers: the first, in ``sort_key`` order, whose source labels are held
    by different numbers of answers, else by different answers; or None."""
    holders, sources = {}, {}
    for answer, state in enumerate(states):
        for label in state.labels():
            holders.setdefault(label, []).append(answer)
    for label in sorted(holders, key=lambda l: l.sort_key):
        for image, _ in label_map(label):
            sources.setdefault(image, []).append(holders[label])
    first = lambda images: min(images, key=lambda l: l.sort_key, default=None)
    uneven = first(image for image, held in sources.items() if len(set(map(len, held))) > 1)
    if uneven is not None:
        counts = " and ".join(str(len(held)) for held in sources[uneven])
        return uneven, f"sums labels held by {counts} answers"
    differ = first(image for image, held in sources.items() if held[0] != held[-1])
    return None if differ is None else (differ, "sums labels of different answers")


class TestLinearByPairs:
    """The pair-run ``apply_linear_ensemble`` against the per-state sum."""

    @pytest.mark.parametrize("algorithm", RUNS, ids=run_id)
    def test_every_pass_of_a_run_pairs_runs(self, algorithm):
        # Each pass gives, entry for entry, the bits of its step and the
        # refine riding on it, on each answer's state.
        passes = 0
        for ensemble, steps in ensemble_passes(algorithm):
            got = apply_linear_ensemble(ensemble, steps[0].image)
            expected = [ts._run_steps(steps, state) for state in states_of(ensemble)]
            assert ensemble_entries(got) == state_entries(expected)
            passes += 1
        assert passes == sum(
            step.image is not None for steps in algorithm._rounds for step in steps
        )

    @pytest.mark.parametrize(
        "algorithm",
        [ts.BinarySearchAlgorithm(1 << k) for k in (1, 4, 8)]
        + [ts.TeamCombineAlgorithm(n) for n in (2, 8, 32, 512)]
        + [ts.TeamCombineAlgorithm(32, r=2)],
        ids=run_id,
    )
    def test_run_ensemble_makes_one_linear_pass_per_mix(self, monkeypatch, algorithm):
        # Binary search opens and closes each of its log2(N) queries; the
        # team opens and closes its one query and combines at r, r/2, ..., 2.
        if isinstance(algorithm, ts.BinarySearchAlgorithm):
            expected = 2 * (algorithm.n.bit_length() - 1)
        else:
            expected = 2 + algorithm.r.bit_length() - 1
        calls = []
        step = ts.apply_linear_ensemble
        monkeypatch.setattr(
            ts, "apply_linear_ensemble", lambda *args: calls.append(1) or step(*args)
        )
        results = ts.run_ensemble(algorithm)
        assert [r.answer for r in results] == list(range(algorithm.n))
        assert len(calls) == expected

    def test_a_lone_negative_zero_term_stays_negative_and_is_pruned(self, monkeypatch):
        # Label 0 sends 1.0 to itself and -0.0 to label 1, which no other
        # term reaches: the ensemble keeps the product's sign, where the
        # per-state sum from zero gives +0.0, and both prune the entry.
        def leak(label):
            _, z, _, i = label
            return [(label, 1.0), (query_label(1, i), -0.0)] if z == 0 else [(label, 1.0)]

        state = SparseState({query_label(0, 0): 0.6, query_label(2, 0): 0.8})
        ensemble = from_states([state, state])
        summed = []
        prune = qcore._prune
        monkeypatch.setattr(
            qcore, "_prune", lambda *entries: summed.append(entries) or prune(*entries)
        )
        got = apply_linear_ensemble(ensemble, lifted(leak))
        [(_, column_sizes, _, amps)] = summed
        assert column_sizes.tolist() == [2, 2, 2]
        assert amps.tolist() == [0.6, 0.6, 0.0, 0.0, 0.8, 0.8]
        assert np.signbit(amps).tolist() == [False, False, True, True, False, False]
        assert labels_of(got.fields) == [query_label(0, 0), query_label(2, 0)]
        assert ensemble_entries(got) == state_entries([apply_linear(state, leak)] * 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_pair_mixer_on_runs_of_differing_answers_is_refused(self, seed):
        states = cancelling_states(seed)
        for state in states:
            apply_linear(state, pair_mixer)
        image, why = first_unpaired_image(states, pair_mixer)
        with pytest.raises(ValueError) as refused:
            apply_linear_ensemble(from_states(states), lifted(pair_mixer))
        assert str(refused.value) == (
            f"image label {image} {why}: apply_linear_ensemble takes pair mixers only"
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_three_terms_on_an_image_are_refused(self, seed):
        # Every answer holds the same labels, so only the three terms break
        # the pair mixer's rules.
        rng = random.Random(seed)
        labels = [query_label(z, 0) for z in range(5)] + [query_label(1, 1)]
        states = []
        for _ in range(4):
            amps = [rng.choice([-1, 1]) * (rng.random() + 0.5) for _ in labels]
            norm = math.sqrt(sum(a * a for a in amps))
            states.append(SparseState({l: a / norm for l, a in zip(labels, amps)}))
        for state in states:
            assert apply_linear(state, three_way).normalized
        assert first_unpaired_image(states, three_way) is None
        with pytest.raises(ValueError) as refused:
            apply_linear_ensemble(from_states(states), lifted(three_way))
        assert str(refused.value) == (
            "image label 0|0,0;0 sums 3 terms: apply_linear_ensemble takes pair mixers only"
        )


def step_of(fields_map):
    """A step that ``ts._run_ensemble_steps`` runs by ``fields_map``."""
    return types.SimpleNamespace(image=fields_map)


def same_arrays(got, expected):
    """Whether two ensembles hold the same values, bit for bit."""
    return all(
        np.asarray(a).dtype == np.asarray(b).dtype
        and np.asarray(a).shape == np.asarray(b).shape
        and np.asarray(a).tobytes() == np.asarray(b).tobytes()
        for a, b in zip(got, expected)
    )


def assert_books_recount(ensemble, states):
    """The books ``ensemble`` carries are bit-equal to a recount: its column
    sizes to those of the per-answer ``states`` it stands for, gathered
    afresh, and its answer span and norms to those of its own entries."""
    assert same_arrays([ensemble.column_sizes], [from_states(states).column_sizes])
    assert same_arrays(ensemble, qcore.Ensemble.counted(*ensemble[:5]))


def raised(call):
    """The type and message of what ``call`` raises."""
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value)


IDENTITY = step_of(lifted(lambda label: [(label, 1.0)]))


class TestEnsembleBooks:
    """Every step reads the column sizes and squared norms its input carries
    and builds its image's; each must hold what counting afresh gives, and
    the measurement reads the last image's."""

    @pytest.mark.parametrize("algorithm", RUNS, ids=run_id)
    def test_every_snapshot_and_step_image_holds_recounted_books(self, algorithm):
        instances = enumerate_instances(algorithm.n)
        states = [algorithm.initial_state(inst) for inst in instances]
        ensemble = algorithm.initial_ensemble()
        assert_books_recount(ensemble, states)
        snapshots = ts.ensemble_snapshots(algorithm, ensemble)
        assert same_arrays(next(snapshots), ensemble)
        for j, snapshot in enumerate(snapshots):
            ensemble = ts.oracle_mod.apply_query_ensemble(ensemble)
            states = [apply_query(s, inst) for s, inst in zip(states, instances)]
            assert_books_recount(ensemble, states)
            steps = algorithm._rounds[j]
            for k, step in enumerate(steps):
                states = [step(state) for state in states]
                if step.image is not None:
                    ensemble = apply_linear_ensemble(ensemble, step.image)
                # A refinement rides on the step before it.
                if k + 1 == len(steps) or steps[k + 1].image is not None:
                    assert_books_recount(ensemble, states)
            assert same_arrays(snapshot, ensemble)

    @pytest.mark.parametrize("seed", range(8))
    def test_a_step_that_prunes_holds_recounted_books(self, seed):
        # The mix cancels label 11 in every answer, and pairs like (0.4, 0.3)
        # to exact zeros in some: column sizes shrink and columns drop, and
        # sizes carried over unpruned would gather the relabelled runs from
        # the wrong entries.
        states = cancelling_states(seed, partnered=True)
        ensemble = from_states(states)
        mix = lifted(pair_mixer)
        mirror = lambda label: query_label(20 - label.lo, label.i)
        mirrored = lifted(relabelling(mirror))
        mixed = apply_linear_ensemble(ensemble, mix)
        assert query_label(11, 0) not in labels_of(mixed.fields)
        per_state = [apply_linear(s, pair_mixer) for s in states]
        assert_books_recount(mixed, per_state)
        expected = apply_linear_ensemble(mixed, mirrored)
        got = ts._run_ensemble_steps([step_of(mix), step_of(mirrored)], ensemble)
        assert same_arrays(got, expected)
        per_state = [ts._permute_labels(s, mirror) for s in per_state]
        assert_books_recount(got, per_state)
        assert ensemble_entries(got) == state_entries(per_state)

    def test_a_round_thins_out_within_the_span_it_started_with(self):
        # Answer 0's one entry shrinks below PRUNE_EPS, a drift within
        # NORM_TOL: the span carried on stays 0 .. 1, with a zero norm for
        # answer 0, where a fresh count finds answer 1 alone.
        states = [
            SparseState({query_label(0, 0): 1e-10}),
            SparseState.unit(query_label(2, 0)),
        ]
        ensemble = from_states(states)
        shrink = lifted(lambda label: [(label, 1e-6 if label.lo == 0 else 1.0)])
        got = ts._run_ensemble_steps([step_of(shrink), IDENTITY], ensemble)
        shrunk = apply_linear_ensemble(ensemble, shrink)
        expected = apply_linear_ensemble(shrunk, IDENTITY.image)
        assert same_arrays(got, expected)
        assert got.answers.tolist() == [1]
        assert (got.low, len(got.norms_sq), got.norms_sq.tolist()) == (0, 2, [0.0, 1.0])
        fresh = qcore.Ensemble.counted(*got[:5])
        assert (fresh.low, len(fresh.norms_sq), fresh.norms_sq.tolist()) == (1, 1, [1.0])

    def test_the_measurement_reads_the_squared_norms_in_the_books(self):
        # The entries are normalized; only the books say answer 1 is not.
        states = [SparseState.unit(TeamLabel(0, a, a)) for a in range(2)]
        final = from_states(states)
        off = final._replace(norms_sq=np.array([1.0, 0.5]))
        algorithm = ts.BinarySearchAlgorithm(2)
        assert ts.measure_ensemble(algorithm, final) == [(0, 1.0, 1), (1, 1.0, 1)]
        assert raised(lambda: ts.measure_ensemble(algorithm, off)) == (
            ValueError,
            "measure_distribution requires a normalized state (squared norm 0.5)",
        )

    def test_an_edge_answer_that_thinned_out_within_the_span_is_unnormalized(self):
        # As in the round above, answer 0's one entry shrinks below
        # PRUNE_EPS within NORM_TOL, so the books keep answer 0 with a
        # squared norm of zero: the measurement refuses it, as it refuses an
        # answer without entries between held ones, where a recount of the
        # span would leave it out and measure answer 1 alone.
        states = [
            SparseState({TeamLabel(0, 0, 0): 1e-10}),
            SparseState.unit(TeamLabel(0, 1, 1)),
        ]
        shrink = lifted(lambda label: [(label, 1e-6 if label.lo == 0 else 1.0)])
        final = apply_linear_ensemble(from_states(states), shrink)
        assert final.answers.tolist() == [1]
        assert (final.low, final.norms_sq.tolist()) == (0, [0.0, 1.0])
        algorithm = ts.BinarySearchAlgorithm(2)
        assert raised(lambda: ts.measure_ensemble(algorithm, final)) == (
            ValueError,
            "measure_distribution requires a normalized state (squared norm 0)",
        )
        recounted = qcore.Ensemble.counted(*final[:5])
        assert ts.measure_ensemble(algorithm, recounted) == [(1, 1.0, 1)]

    @pytest.mark.parametrize(
        "states, label_map",
        [
            # Each answer's norm moves off 1.
            (
                [SparseState.unit(query_label(0, 0)), SparseState.unit(query_label(1, 0))],
                lambda l: [(l, math.sqrt(0.5) if l.lo else math.sqrt(1.5))],
            ),
            ([SparseState.unit(query_label(0, 0))], lambda l: [(l, math.nan)]),
            (
                [SparseState({query_label(z, 0): 0.5 for z in range(4)})] * 2,
                three_way,
            ),
            # Label 0 is held by two answers, its partner label 1 by one.
            (
                [
                    SparseState({query_label(0, 0): 0.6, query_label(1, 0): 0.8}),
                    SparseState.unit(query_label(0, 0)),
                ],
                pair_mixer,
            ),
            (
                [SparseState.unit(query_label(0, 0)), SparseState.unit(query_label(1, 0))],
                pair_mixer,
            ),
        ],
        ids=["drift", "non-finite", "three-terms", "uneven", "different-answers"],
    )
    def test_a_round_raises_what_one_step_raises(self, states, label_map):
        # The failing step comes first, on the books of a gathered ensemble,
        # and second, on those of a step's image.
        ensemble = from_states(states)
        fields_map = lifted(label_map)
        expected = raised(lambda: apply_linear_ensemble(ensemble, fields_map))
        for steps in ([step_of(fields_map)], [IDENTITY, step_of(fields_map)]):
            assert raised(lambda: ts._run_ensemble_steps(steps, ensemble)) == expected

    def test_a_round_raises_the_collision_of_its_refine(self):
        apart = [SparseState.unit(TeamLabel(0, 0, 1)), SparseState.unit(TeamLabel(1, 0, 3))]
        ensemble = from_states(apart)
        combine = ts._combine_step(4)
        expected = raised(lambda: apply_linear_ensemble(ensemble, combine.image))
        assert expected == (CollisionError, "labels 0|0,1 and 1|0,3 both map to 0|0,1")
        for steps in (
            [combine, ts._refine_step(4)],
            [IDENTITY, combine, ts._refine_step(4)],
        ):
            assert raised(lambda: ts._run_ensemble_steps(steps, ensemble)) == expected


def test_a_step_peaks_below_150_bytes_per_entry_at_binary_2_to_14(monkeypatch):
    # What a step allocates, over what is live when it starts, per entry of
    # its input or its image, whichever holds more. The largest, 130.1, is
    # the last close step, whose 16384 labels halve into as many answers.
    algorithm = ts.BinarySearchAlgorithm(1 << 14)
    step = ts.apply_linear_ensemble
    per_entry = []

    def traced(ensemble, op):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        image = step(ensemble, op)
        peak = tracemalloc.get_traced_memory()[1] - start
        per_entry.append(peak / max(len(ensemble.amps), len(image.amps)))
        return image

    monkeypatch.setattr(ts, "apply_linear_ensemble", traced)
    tracemalloc.start()
    try:
        for _ in ts.ensemble_snapshots(algorithm, algorithm.initial_ensemble()):
            pass
    finally:
        tracemalloc.stop()
    assert len(per_entry) == 2 * 14
    assert max(per_entry) <= 150


def test_an_ensemble_keeps_its_own_books():
    # The column sizes, span and norms live on the ensemble: no tally rides
    # beside it, no entry holds a label id, and one step function remains.
    for name in ("Tally", "tally", "step_ensemble"):
        assert not hasattr(qcore, name), name
    assert "label_ids" not in qcore.Ensemble._fields
    assert qcore.Ensemble._fields[-2:] == ("low", "norms_sq")
    for name, function in vars(ts).items():
        if inspect.isfunction(function) and function.__module__ == ts.__name__:
            assert "books" not in inspect.signature(function).parameters, name


def package_imports(node):
    """The imports of a module of this package within ``node``, each as the
    ``ast`` node: relative ones and those naming ``qordsearch``."""
    return [
        sub
        for sub in ast.walk(node)
        if isinstance(sub, ast.ImportFrom)
        and (sub.level or sub.module.split(".")[0] == "qordsearch")
        or isinstance(sub, ast.Import)
        and any(alias.name.split(".")[0] == "qordsearch" for alias in sub.names)
    ]


def test_qcore_imports_no_sibling_and_no_function_imports_the_package():
    # Every module imports qcore, which owns the argument checks: an import
    # of a sibling there, even one put off into a function, is a cycle.
    source = pathlib.Path(qcore.__file__).parent
    assert package_imports(ast.parse((source / "qcore.py").read_text())) == []
    for path in sorted(source.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert package_imports(node) == [], (path.name, node.name)
