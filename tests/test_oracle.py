import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qordsearch.oracle import (
    OrderedInstance,
    apply_query,
    apply_query_ensemble,
    enumerate_instances,
)
from qordsearch.qcore import (
    Ensemble,
    GenLabel,
    SparseState,
    TeamLabel,
    apply_linear,
    diff_norm,
)
from test_lowerbound import ensemble_entries, state_entries

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

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_instances_pairwise_differ(self, n):
        patterns = [
            tuple(inst.bit(i) for i in range(n)) for inst in enumerate_instances(n)
        ]
        assert len(set(patterns)) == n


class TestApplyQuery:
    def test_padding_region_is_identity(self):
        inst = OrderedInstance(8, 3)
        state = SparseState({GenLabel(z, 8 + z): 1 / 2 for z in range(4)})
        assert diff_norm(apply_query(state, inst), state) == 0.0

    def test_answer_index_amplitude_is_negated(self):
        inst = OrderedInstance(8, 5)
        state = SparseState.unit(GenLabel(0, 5))
        assert apply_query(state, inst).amplitude(GenLabel(0, 5)) == -1.0

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
        state = SparseState({GenLabel(0, i): SQRT_HALF, GenLabel(0, n): SQRT_HALF})

        def rotate(label):
            if label.i == i:
                return [(GenLabel(0, i), SQRT_HALF), (GenLabel(0, n), SQRT_HALF)]
            if label.i == n:
                return [(GenLabel(0, i), SQRT_HALF), (GenLabel(0, n), -SQRT_HALF)]
            return [(label, 1.0)]

        out = apply_linear(apply_query(state, inst), rotate)
        assert len(out) == 1
        read_label = out.labels()[0]
        assert (read_label.i == n) == bool(inst.bit(i))

    def test_involution(self):
        inst = OrderedInstance(8, 2)
        state = SparseState({GenLabel(0, i): 1 / math.sqrt(10) for i in range(10)})
        twice = apply_query(apply_query(state, inst), inst)
        assert diff_norm(twice, state) < 1e-12

    def test_queries_commute(self):
        a, b = OrderedInstance(8, 2), OrderedInstance(8, 6)
        state = SparseState({GenLabel(0, i): 1 / math.sqrt(10) for i in range(10)})
        ab = apply_query(apply_query(state, a), b)
        ba = apply_query(apply_query(state, b), a)
        assert diff_norm(ab, ba) == 0.0

    @given(st.integers(2, 64), st.data())
    @settings(max_examples=30, deadline=None)
    def test_phases_differ_exactly_between_the_answers(self, n, data):
        a = data.draw(st.integers(0, n - 2))
        b = data.draw(st.integers(a + 1, n - 1))
        state = SparseState({GenLabel(0, i): 1 / math.sqrt(n + 2) for i in range(n + 2)})
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
        labels = [GenLabel(z, i) for z in range(2) for i in range(n + 2)]
        labels.append(GenLabel(0, (1 << 63) - 1))
        states = [
            SparseState({l: complex(k + 1, -0.0) / 16 for k, l in enumerate(labels)})
            for _ in range(n)
        ]
        got = apply_query_ensemble(Ensemble.from_states(states))
        expected = [apply_query(states[i.answer], i) for i in enumerate_instances(n)]
        assert ensemble_entries(got) == state_entries(expected)

    def test_rejects_team_labels(self):
        ensemble = Ensemble.from_states([SparseState.unit(TeamLabel(0, 0, 1))] * 2)
        with pytest.raises(TypeError, match="GenLabel states only"):
            apply_query_ensemble(ensemble)

    def test_an_index_beyond_int64_does_not_fit_the_fields(self):
        # The per-instance query takes it; the ensemble's int64 fields do not.
        state = SparseState.unit(GenLabel(0, 1 << 80))
        assert apply_query(state, OrderedInstance(2, 1)).amplitude(GenLabel(0, 1 << 80)) == 1
        with pytest.raises(OverflowError):
            Ensemble.from_states([state])
