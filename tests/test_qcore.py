import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qordsearch import teamsearch as ts
from qordsearch.oracle import OrderedInstance, apply_query, enumerate_instances
from qordsearch.qcore import (
    GenLabel,
    NormDriftError,
    SparseState,
    TeamLabel,
    apply_diagonal_phase,
    apply_linear,
    diff_norm,
    inner_product,
    measure_distribution,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


def random_state(n_labels, seed, normalize=True):
    rng = random.Random(seed)
    entries = {}
    while len(entries) < n_labels:
        label = GenLabel(rng.randrange(10 * n_labels), rng.randrange(10 * n_labels))
        entries[label] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    if normalize:
        norm = math.sqrt(sum(abs(a) ** 2 for a in entries.values()))
        entries = {l: a / norm for l, a in entries.items()}
    return SparseState(entries)


class TestLabels:
    def test_genlabel_rejects_negative_fields(self):
        with pytest.raises(ValueError):
            GenLabel(-1, 0)
        with pytest.raises(ValueError):
            GenLabel(0, -2)

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
        labels = [TeamLabel(1, 4, 7), GenLabel(3, 1), GenLabel(0, 9), TeamLabel(0, 4, 5)]
        ordered = sorted(labels, key=lambda l: l.sort_key)
        assert ordered == [
            GenLabel(0, 9),
            GenLabel(3, 1),
            TeamLabel(0, 4, 5),
            TeamLabel(1, 4, 7),
        ]
        assert str(GenLabel(3, 1)) == "3;1"
        assert str(TeamLabel(1, 4, 7)) == "1|4,7"

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: GenLabel(-1, 0), "GenLabel fields must be non-negative, got -1;0"),
            (lambda: GenLabel(0, -2), "GenLabel fields must be non-negative, got 0;-2"),
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
        assert repr(GenLabel(3, 1)) == "GenLabel(z=3, i=1)"
        assert repr(TeamLabel(1, 4, 7)) == "TeamLabel(b=1, lo=4, hi=7)"
        assert repr(GenLabel(z=0, i=9)) == "GenLabel(z=0, i=9)"

    def test_equality_and_hashing_by_value_within_a_family(self):
        assert GenLabel(3, 1) == GenLabel(3, 1)
        assert hash(TeamLabel(0, 4, 5)) == hash(TeamLabel(0, 4, 5))
        assert GenLabel(3, 1) != GenLabel(1, 3)

    def test_genlabel_never_equals_a_teamlabel(self):
        for gen, team in [
            (GenLabel(0, 1), TeamLabel(0, 0, 1)),
            (GenLabel(1, 1), TeamLabel(1, 1, 1)),
            (GenLabel(0, 0), TeamLabel(0, 0, 0)),
        ]:
            assert gen != team and team != gen
        state = SparseState({GenLabel(0, 0): SQRT_HALF, TeamLabel(0, 0, 0): SQRT_HALF})
        assert len(state) == 2

    def test_labels_are_immutable(self):
        label = TeamLabel(1, 4, 7)
        with pytest.raises(AttributeError):
            label.b = 0
        with pytest.raises(AttributeError):
            GenLabel(0, 1).z = 5


class TestSparseState:
    def test_construction_prunes_float_dust(self):
        state = SparseState({GenLabel(0, 0): 1.0, GenLabel(0, 1): 1e-16})
        assert len(state) == 1
        assert all(abs(a) >= 1e-15 for _, a in state.items())

    def test_normalized_flag(self):
        assert SparseState.unit(GenLabel(0, 0)).normalized
        assert not SparseState({GenLabel(0, 0): 0.5}).normalized

    def test_dump_is_deterministic_and_sorted(self):
        state = random_state(50, seed=7)
        once, twice = state.dump(), state.dump()
        assert once == twice
        rebuilt = SparseState(dict(state.items()))
        assert rebuilt.dump() == once
        lines = once.splitlines()
        assert len(lines) == 50
        assert lines == sorted(
            lines, key=lambda line: tuple(map(int, line.split("\t")[0].split(";")))
        )

    @pytest.mark.parametrize(
        "amp", [float("nan"), complex(0, math.inf), complex(math.nan, 1.0)]
    )
    def test_non_finite_amplitude_is_rejected_not_pruned(self, amp):
        # abs(nan) >= PRUNE_EPS is false, so a plain prune test would drop
        # a NaN and leave a normalized one-label state.
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            SparseState({GenLabel(0, 0): amp, GenLabel(0, 1): 1.0})

    def test_dump_uses_17_significant_digits(self):
        state = SparseState({GenLabel(0, 0): complex(1 / 3, -2 / 7)})
        assert state.dump() == "0;0\t0.33333333333333331\t-0.2857142857142857\n"


class TestInnerProduct:
    def test_self_overlap_of_normalized_state_is_one(self):
        state = random_state(100, seed=1)
        assert abs(inner_product(state, state) - 1.0) < 1e-12

    def test_distinct_single_labels_are_orthogonal(self):
        a = SparseState.unit(GenLabel(0, 0))
        b = SparseState.unit(GenLabel(0, 1))
        assert inner_product(a, b) == 0j

    def test_plus_minus_pair_is_orthogonal(self):
        # <(A+B)/sqrt2, (A-B)/sqrt2> = (1*1 + 1*(-1)) / 2 = 0 by hand.
        A, B = GenLabel(0, 0), GenLabel(1, 1)
        plus = SparseState({A: SQRT_HALF, B: SQRT_HALF})
        minus = SparseState({A: SQRT_HALF, B: -SQRT_HALF})
        assert abs(inner_product(plus, minus)) < 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_conjugate_symmetry_and_cauchy_schwarz(self, seed1, seed2):
        s1 = random_state(30, seed=seed1, normalize=False)
        s2 = random_state(30, seed=seed2, normalize=False)
        forward = inner_product(s1, s2)
        backward = inner_product(s2, s1)
        assert abs(forward - backward.conjugate()) < 1e-12
        assert abs(forward) <= s1.norm() * s2.norm() + 1e-12


class TestDiagonalPhase:
    def test_all_plus_one_is_identity(self):
        state = random_state(20, seed=3)
        assert diff_norm(apply_diagonal_phase(state, lambda l: 1), state) == 0.0

    def test_single_label_flip(self):
        state = SparseState({GenLabel(0, 0): 0.6, GenLabel(0, 1): 0.8})
        flipped = apply_diagonal_phase(
            state, lambda l: -1 if l == GenLabel(0, 1) else 1
        )
        assert flipped.amplitude(GenLabel(0, 0)) == 0.6
        assert flipped.amplitude(GenLabel(0, 1)) == -0.8

    def test_norm_preserved_on_random_state(self):
        state = random_state(50, seed=11)
        rng = random.Random(5)
        signs = {label: rng.choice((1, -1)) for label in state.labels()}
        out = apply_diagonal_phase(state, signs.__getitem__)
        assert abs(out.norm() - state.norm()) < 1e-12

    def test_rejects_non_sign_values(self):
        state = SparseState.unit(GenLabel(0, 0))
        with pytest.raises(ValueError):
            apply_diagonal_phase(state, lambda l: 2)


class TestApplyLinear:
    def test_identity_returns_input_bit_exact(self):
        state = random_state(25, seed=13)
        out = apply_linear(state, lambda l: [(l, 1.0)])
        assert dict(out.items()) == dict(state.items())

    def test_permutation_followed_by_inverse_restores_state(self):
        state = random_state(40, seed=17)
        forward = lambda l: [(GenLabel(l.z + 1, l.i + 2), 1.0)]
        backward = lambda l: [(GenLabel(l.z - 1, l.i - 2), 1.0)]
        roundtrip = apply_linear(apply_linear(state, forward), backward)
        assert diff_norm(roundtrip, state) < 1e-12

    def test_hadamard_split_of_single_label(self):
        state = SparseState.unit(GenLabel(5, 0))
        split = apply_linear(
            state,
            lambda l: [(GenLabel(l.z, 0), SQRT_HALF), (GenLabel(l.z, 1), SQRT_HALF)],
            unitary=True,
        )
        assert len(split) == 2
        assert abs(split.amplitude(GenLabel(5, 0)) - SQRT_HALF) < 1e-15
        assert abs(split.amplitude(GenLabel(5, 1)) - SQRT_HALF) < 1e-15

    def test_interference_cancels_to_exact_zero(self):
        plus = SparseState({GenLabel(0, 0): SQRT_HALF, GenLabel(0, 1): SQRT_HALF})
        # Hadamard block sends (a+b)/sqrt2 back to a; the b component cancels.
        out = apply_linear(
            plus,
            lambda l: [
                (GenLabel(0, 0), SQRT_HALF),
                (GenLabel(0, 1), SQRT_HALF if l.i == 0 else -SQRT_HALF),
            ],
            unitary=True,
        )
        assert GenLabel(0, 1) not in out

    def test_norm_drift_reported_for_declared_unitary(self):
        state = random_state(10, seed=19)
        with pytest.raises(NormDriftError):
            apply_linear(state, lambda l: [(l, 0.5)], unitary=True)

    def test_nan_coefficient_raises_instead_of_emptying_the_state(self):
        state = random_state(5, seed=23)
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            apply_linear(state, lambda l: [(l, math.nan)])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_label_permutation_preserves_norm(self, seed):
        state = random_state(30, seed=seed)
        rng = random.Random(seed ^ 0xA5A5)
        labels = state.labels()
        images = labels[:]
        rng.shuffle(images)
        table = dict(zip(labels, images))
        out = apply_linear(state, lambda l: [(table[l], 1.0)], unitary=True)
        assert abs(out.norm() - state.norm()) < 1e-12

    def test_norm_preserved_on_ten_thousand_labels(self):
        state = random_state(10_000, seed=29)
        phased = apply_diagonal_phase(state, lambda l: -1 if l.i % 3 else 1)
        assert abs(phased.norm() - state.norm()) < 1e-12
        paired = apply_linear(
            state,
            lambda l: [
                (GenLabel(2 * l.z, l.i), SQRT_HALF),
                (GenLabel(2 * l.z + 1, l.i), -SQRT_HALF),
            ],
            unitary=True,
        )
        assert abs(paired.norm() - state.norm()) < 1e-12


class TestMeasurement:
    def test_single_label_state(self):
        state = SparseState.unit(GenLabel(0, 3))
        assert measure_distribution(state, lambda l: l.i) == {3: 1.0}

    def test_equal_four_way_superposition(self):
        state = SparseState({GenLabel(0, i): 0.5 for i in range(4)})
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
            measure_distribution(SparseState({GenLabel(0, 0): 0.7}), lambda l: 0)

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
        phased = apply_diagonal_phase(state, lambda l: -1 if l.z % 2 else 1)
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
