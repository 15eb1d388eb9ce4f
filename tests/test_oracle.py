import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qordsearch import lowerbound as lb
from qordsearch import qcore
from qordsearch import teamsearch as ts
from qordsearch.oracle import (
    OrderedInstance,
    apply_query,
    apply_query_ensemble,
    enumerate_instances,
)
from qordsearch.qcore import QueryLabel, SparseState, TeamLabel, apply_linear
from per_instance_oracle import diff_norm, from_states
from test_lowerbound import ensemble_entries, query_label, state_entries

SQRT_HALF = 1.0 / math.sqrt(2.0)


class TestInstance:
    def test_bit_threshold(self):
        inst = OrderedInstance(8, 5)
        assert inst.bit(4) == 0
        assert inst.bit(5) == 1

    def test_last_bit_always_one(self):
        for inst in enumerate_instances(8):
            assert inst.bit(inst.n - 1) == 1

    def test_padding_is_zero(self):
        for inst in enumerate_instances(8):
            assert inst.bit(inst.n + 7) == 0

    def test_bits_are_monotone(self):
        inst = OrderedInstance(16, 9)
        bits = [inst.bit(i) for i in range(16)]
        assert bits == sorted(bits)

    def test_validation(self):
        with pytest.raises(ValueError):
            OrderedInstance(0, 0)
        with pytest.raises(ValueError):
            OrderedInstance(4, 4)
        with pytest.raises(ValueError):
            OrderedInstance(4, -1)
        with pytest.raises(ValueError):
            OrderedInstance(4, 0).bit(-1)

    @pytest.mark.parametrize(
        "n, answer",
        [(8.9, 2), (8, 2.7), (8, 2.5), (8, 2.0), ("8", 1), (True, 0), (8, True)],
    )
    def test_rejects_non_integer_fields(self, n, answer):
        with pytest.raises(ValueError, match="must be an integer"):
            OrderedInstance(n, answer)


class TestEnumerate:
    def test_single_instance_for_n_1(self):
        assert enumerate_instances(1) == [OrderedInstance(1, 0)]

    def test_eight_instances_in_answer_order(self):
        instances = enumerate_instances(8)
        assert len(instances) == 8
        assert [inst.answer for inst in instances] == list(range(8))

    # 2.0 used to reach range() and raise TypeError.
    @pytest.mark.parametrize("n", [2.0, True])
    def test_rejects_a_non_integer_size(self, n):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            enumerate_instances(n)

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_instances_pairwise_differ(self, n):
        patterns = [
            tuple(inst.bit(i) for i in range(n)) for inst in enumerate_instances(n)
        ]
        assert len(set(patterns)) == n


class TestApplyQuery:
    def test_padding_region_is_identity(self):
        inst = OrderedInstance(8, 3)
        state = SparseState({query_label(z, 8 + z): 1 / 2 for z in range(4)})
        assert diff_norm(apply_query(state, inst), state) == 0.0

    def test_answer_index_amplitude_is_negated(self):
        inst = OrderedInstance(8, 5)
        state = SparseState.unit(query_label(0, 5))
        assert apply_query(state, inst).amplitude(query_label(0, 5)) == -1.0

    def test_rejects_team_labels(self):
        inst = OrderedInstance(8, 5)
        with pytest.raises(TypeError):
            apply_query(SparseState.unit(TeamLabel(0, 0, 7)), inst)

    @pytest.mark.parametrize("answer", range(8))
    def test_phase_kickback_reads_a_bit(self, answer):
        # (|0;i> + |0;n>)/sqrt2, query, then the 2x2 rotation
        # H|m> = (|m>+|pad>)/sqrt2, H|pad> = (|m>-|pad>)/sqrt2. By hand:
        # bit 0 keeps (m+pad)/sqrt2 -> |m>; bit 1 gives (-m+pad)/sqrt2 -> -|pad>.
        n, i = 8, 4
        inst = OrderedInstance(n, answer)
        state = SparseState(
            {query_label(0, i): SQRT_HALF, query_label(0, n): SQRT_HALF}
        )

        def rotate(label):
            if label.i == i:
                return [(query_label(0, i), SQRT_HALF), (query_label(0, n), SQRT_HALF)]
            if label.i == n:
                return [(query_label(0, i), SQRT_HALF), (query_label(0, n), -SQRT_HALF)]
            return [(label, 1.0)]

        out = apply_linear(apply_query(state, inst), rotate)
        assert len(out) == 1
        read_label = out.labels()[0]
        assert (read_label.i == n) == bool(inst.bit(i))

    def test_involution(self):
        inst = OrderedInstance(8, 2)
        state = SparseState({query_label(0, i): 1 / math.sqrt(10) for i in range(10)})
        twice = apply_query(apply_query(state, inst), inst)
        assert diff_norm(twice, state) < 1e-12

    def test_queries_commute(self):
        a, b = OrderedInstance(8, 2), OrderedInstance(8, 6)
        state = SparseState({query_label(0, i): 1 / math.sqrt(10) for i in range(10)})
        ab = apply_query(apply_query(state, a), b)
        ba = apply_query(apply_query(state, b), a)
        assert diff_norm(ab, ba) == 0.0

    @given(st.integers(2, 64), st.data())
    @settings(max_examples=30, deadline=None)
    def test_phases_differ_exactly_between_the_answers(self, n, data):
        a = data.draw(st.integers(0, n - 2))
        b = data.draw(st.integers(a + 1, n - 1))
        state = SparseState(
            {query_label(0, i): 1 / math.sqrt(n + 2) for i in range(n + 2)}
        )
        out_a = apply_query(state, OrderedInstance(n, a))
        out_b = apply_query(state, OrderedInstance(n, b))
        differing = {
            label.i
            for label in state.labels()
            if out_a.amplitude(label) != out_b.amplitude(label)
        }
        assert differing == set(range(a, b))


class TestApplyQueryEnsemble:
    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_each_answer_gets_its_own_instance(self, n):
        # Indices run past n into the padding, up to the largest int64 field.
        labels = [query_label(z, i) for z in range(2) for i in range(n + 2)]
        labels.append(query_label(0, (1 << 63) - 1))
        states = [
            SparseState({l: (-1) ** k * (k + 1) / 16 for k, l in enumerate(labels)})
            for _ in range(n)
        ]
        got = apply_query_ensemble(from_states(states))
        expected = [apply_query(states[i.answer], i) for i in enumerate_instances(n)]
        assert ensemble_entries(got) == state_entries(expected)

    def test_rejects_team_labels(self):
        ensemble = from_states([SparseState.unit(TeamLabel(0, 0, 1))] * 2)
        with pytest.raises(TypeError, match="QueryLabel states only"):
            apply_query_ensemble(ensemble)

    def test_an_index_beyond_int64_does_not_fit_the_fields(self):
        # The per-instance query takes it; the ensemble's int64 fields do not.
        state = SparseState.unit(query_label(0, 1 << 80))
        queried = apply_query(state, OrderedInstance(2, 1))
        assert queried.amplitude(query_label(0, 1 << 80)) == 1
        with pytest.raises(OverflowError):
            from_states([state])


# A 5001-digit int: past the default limit of ``str()`` on ints (4300 digits).
BIG = 10**5000
# How a check's message names it, and the ints next to it.
SHOWN = f"an int of {BIG.bit_length()} bits"
SHOWN_NEGATIVE = f"a negative int of {BIG.bit_length()} bits"
SHOWN_3BIG = f"an int of {(3 * BIG).bit_length()} bits"


# Every argument check names an over-long int by its bit count, where
# formatting it would raise Python's own "Exceeds the limit" ValueError.
@pytest.mark.parametrize(
    "call, expected",
    [
        (
            lambda: ts.BinarySearchAlgorithm(3 * BIG),
            f"list size must be a power of two, got {SHOWN_3BIG}",
        ),
        (
            lambda: ts.TeamCombineAlgorithm(BIG + 2, r=2),
            f"list size an int of {(BIG + 2).bit_length()} bits is not a multiple "
            "of the sublist size 4",
        ),
        (
            lambda: ts.default_team_size(3 * BIG),
            f"no canonical team size for list size {SHOWN_3BIG}; need n in {{2,4,8}} "
            "or n = 2*r*r with r a power of two",
        ),
        (
            lambda: ts.decompose(-BIG),
            f"can only decompose positive integers, got {SHOWN_NEGATIVE}",
        ),
        (
            lambda: ts.base_value(-BIG),
            f"digit index must be non-negative, got {SHOWN_NEGATIVE}",
        ),
        (
            lambda: ts.known_bits_after(4, BIG),
            f"query count {SHOWN} out of range for n=4",
        ),
        (
            lambda: OrderedInstance(-BIG, 0),
            f"list length must be positive, got {SHOWN_NEGATIVE}",
        ),
        (
            lambda: OrderedInstance(BIG, BIG),
            f"answer must lie in [0, {SHOWN}], got {SHOWN}",
        ),
        (
            lambda: enumerate_instances(-BIG),
            f"list length must be positive, got {SHOWN_NEGATIVE}",
        ),
        (
            lambda: ts.require_int64_positions(BIG),
            f"list size {SHOWN} is past int64: need n < 2**63",
        ),
        (
            lambda: ts.expansion_floor(-BIG),
            f"top digit index must be non-negative, got {SHOWN_NEGATIVE}",
        ),
        (lambda: ts.ceil_log3(-BIG), f"need n >= 1, got {SHOWN_NEGATIVE}"),
        (
            lambda: ts.query_count_model(-BIG),
            f"query accounting needs n >= 2, got {SHOWN_NEGATIVE}",
        ),
        (
            lambda: ts.build_layout(3 * BIG),
            f"computer count must be a power of two, got {SHOWN_3BIG}",
        ),
        (
            lambda: lb.WeightSpec.inverse_distance(-BIG),
            f"problem size must be positive, got {SHOWN_NEGATIVE}",
        ),
        (
            lambda: TeamLabel(0, 0, BIG),
            f"interval length an int of {(BIG + 1).bit_length()} bits "
            "is not a power of two",
        ),
        (
            lambda: QueryLabel(0, 0, 0, -BIG),
            f"query index must be non-negative, got {SHOWN_NEGATIVE}",
        ),
        (
            lambda: ts.BinarySearchAlgorithm(4).initial_ensemble(range(BIG, BIG + 1)),
            f"need a non-empty step-1 range in 0 .. 4, got range({SHOWN}, {SHOWN})",
        ),
        (
            lambda: ts.Decomposition((BIG,)),
            f"digits must be integers in 0..3, got ({SHOWN},)",
        ),
        (
            lambda: ts.Decomposition(BIG),
            "digits must be a sequence of integers in 0..3, low digit first, "
            f"not an int: got {SHOWN}",
        ),
        (
            lambda: ts.run_algorithm(
                ts.BinarySearchAlgorithm(4), OrderedInstance(BIG, 0)
            ),
            f"BinarySearchAlgorithm is built for list size 4, not {SHOWN}",
        ),
        (
            lambda: ts.TeamCombineAlgorithm(8).advance(
                BIG, None, OrderedInstance(8, 0)
            ),
            f"TeamCombineAlgorithm has 1 steps, got step {SHOWN}",
        ),
        (
            lambda: lb.run_trajectory(
                ts.BinarySearchAlgorithm(4), BIG, lb.WeightSpec.inverse_distance(4)
            ),
            f"expected 4 states, got {SHOWN}",
        ),
    ],
    ids=[
        "BinarySearchAlgorithm",
        "TeamCombineAlgorithm",
        "default_team_size",
        "decompose",
        "base_value",
        "known_bits_after",
        "OrderedInstance-n",
        "OrderedInstance-answer",
        "enumerate_instances",
        "require_int64_positions",
        "expansion_floor",
        "ceil_log3",
        "query_count_model",
        "build_layout",
        "WeightSpec.inverse_distance",
        "TeamLabel",
        "QueryLabel",
        "initial_ensemble",
        "Decomposition",
        "Decomposition-int",
        "run_algorithm",
        "advance",
        "run_trajectory",
    ],
)
def test_checks_name_an_over_long_int_by_its_bits(call, expected):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == expected


def test_test_only_references_have_left_the_package():
    # lowerbound reads ensembles only; the per-instance references that only
    # the tests call live in tests/per_instance_oracle.py, and the names
    # that nothing called are gone.
    assert "SparseState" not in vars(lb) and "inner_product" not in vars(lb)
    gone = {
        qcore: ("label_fields", "diff_norm", "apply_diagonal_phase"),
        qcore.Ensemble: ("from_states",),
        lb: ("_reference_weighted_overlap", "_reference_pairwise_drop"),
        ts: ("classical_binary_search", "SearchTrace"),
        ts.KnowledgeLayout: ("to_jsonable",),
    }
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    assert not callable(lb.WeightSpec.inverse_distance(2))
