import copy
import json
import math
import pickle
import random
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qordsearch import lowerbound as lb
from qordsearch import qcore
from qordsearch import teamsearch as ts
from qordsearch.cli import main
from qordsearch.oracle import (
    OrderedInstance,
    apply_query,
    apply_query_ensemble,
    enumerate_instances,
)
from qordsearch.qcore import (
    Ensemble,
    QueryLabel,
    SparseState,
    TeamLabel,
    apply_linear,
    diff_norm,
)

GOLDEN = Path(__file__).parent / "golden"
HALF = 0.5
S2H = math.sqrt(2.0) / 2.0

# The size-8 run with answer index 5: every stage of the combine round,
# derived by hand from the operator definitions (0-based labels, normalized
# amplitudes). Stage 2 keeps marker 1 on the interval [4,7]: V leaves
# length-4 intervals alone under size 8, and stage 3 would lose half its
# mass otherwise.
WORKED_STAGES = [
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


def assert_stage(state, expected, tol=1e-12):
    assert diff_norm(state, team_state(expected)) < tol


def opening_state(algo, inst):
    """``inst``'s state before ``algo``'s opening steps: per opening level
    ``(length, marker, amplitude)``, the block of that length holding the answer."""
    entries = {}
    for length, marker, amp in algo._levels:
        lo = inst.answer // length * length
        entries[TeamLabel(marker, lo, lo + length - 1)] = amp
    return SparseState(entries)


def round_stages(inst, r):
    """Every stage of the combine round, walked through the algorithm's steps.

    The opening state, then the state after each of the round's shared steps;
    the first step closes the query, so the second stage is the post-query
    state.
    """
    algo = ts.TeamCombineAlgorithm(inst.n, r)
    stages = [opening_state(algo, inst)]
    state = ts.oracle_mod.apply_query(algo.initial_state(inst), inst)
    for step in algo._rounds[0]:
        state = step(state)
        stages.append(state)
    return stages


def dyadic_blocks(bits):
    """``(lo, length)`` of every dyadic block of length >= 2 in [0, 2**bits)."""
    size = 1 << bits
    length = 2
    while length <= size:
        for lo in range(0, size, length):
            yield lo, length
        length *= 2


class TestArithmeticMidpoints:
    """The operators' integer midpoints split every dyadic block of [0, 2**12)."""

    BITS = 12

    @staticmethod
    def assert_halves(lo, length, lower, upper):
        for half in (lower, upper):
            assert TeamLabel(*half) == half  # a valid dyadic interval
            assert half.length == length // 2
        assert lower.lo == lo and upper.hi == lo + length - 1
        assert lower.hi + 1 == upper.lo

    @staticmethod
    def refine_image(marker, lo, length):
        state = SparseState.unit(TeamLabel(marker, lo, lo + length - 1))
        [label] = ts.apply_refine(state, length).labels()
        return label

    def test_refine_halves(self):
        for lo, length in dyadic_blocks(self.BITS):
            lower = self.refine_image(1, lo, length)
            upper = self.refine_image(0, lo, length)
            assert lower.b == upper.b == 0
            self.assert_halves(lo, length, lower, upper)

    def test_routed_index_is_the_midpoint(self):
        # No interval reaches the bit-write length 2n, so open and close
        # only route and unroute.
        n = 1 << self.BITS
        open_query, close_query = ts._bitwrite_query(n, bitwrite_length=2 * n)
        for lo, length in dyadic_blocks(self.BITS):
            lower = self.refine_image(1, lo, length)
            for marker in (0, 1):
                label = TeamLabel(marker, lo, lo + length - 1)
                [(routed, coeff)] = open_query(label)
                assert routed == (*label, lower.hi) and coeff == 1.0
                [(back, coeff)] = close_query(routed)
                assert back == label and TeamLabel(*back) == back and coeff == 1.0

    def test_unroute_rejects_off_midpoint_and_length_one(self):
        n = 8
        open_query, close_query = ts._bitwrite_query(n, bitwrite_length=8)
        [(routed, _)] = open_query(TeamLabel(1, 4, 7))
        with pytest.raises(ValueError):
            close_query(QueryLabel(1, 4, 7, routed.i + 1))
        # A length-1 interval [5,5] has no midpoint.
        for i in (3, 4, 5):
            with pytest.raises(ValueError):
                close_query(QueryLabel(1, 5, 5, i))
        with pytest.raises(TypeError):
            open_query(QueryLabel(0, 0, 0, 0))
        with pytest.raises(TypeError):
            close_query(TeamLabel(1, 4, 7))

    def test_binary_mixer_and_halve(self):
        # Binary search mixes with the bit-write open/close of its interval
        # length and halves with apply_refine (test_refine_halves). On every
        # dyadic block, marker 0 parks at the padding index n, marker 1
        # probes the midpoint, and close undoes open.
        n = 1 << self.BITS
        for lo, length in dyadic_blocks(self.BITS):
            open_query, close_query = ts._bitwrite_query(n, bitwrite_length=length)
            lower = self.refine_image(1, lo, length)
            for marker, sign in ((0, 1.0), (1, -1.0)):
                label = TeamLabel(marker, lo, lo + length - 1)
                [(park, c0), (probe, c1)] = open_query(label)
                assert park.i == n and probe.i == lower.hi
                assert (park.b, probe.b) == (0, 1)
                assert park[1:3] == probe[1:3] == label[1:]
                assert (c0, c1) == (ts._SQRT_HALF, sign * ts._SQRT_HALF)
                for routed in (park, probe):
                    for image, _ in close_query(routed):
                        assert TeamLabel(*image) == image
                opened = apply_linear(SparseState.unit(label), open_query)
                closed = apply_linear(opened, close_query)
                assert closed.labels() == [label]
                assert abs(closed.amplitude(label) - 1.0) < 1e-15
            # Off-length labels only route, with coefficient 1.
            outer = lo - lo % (2 * length)
            off = TeamLabel(0, outer, outer + 2 * length - 1)
            [(routed, coeff)] = open_query(off)
            assert coeff == 1.0 and close_query(routed) == [(off, 1.0)]


class TestCombineOperator:
    def test_marker_zero_splits_into_plus_pair(self):
        out = ts.apply_combine(team_state({(0, 0, 7): 1.0}), 8)
        assert_stage(out, {(0, 0, 7): S2H, (1, 0, 7): S2H})

    def test_non_matching_length_unchanged(self):
        state = team_state({(1, 4, 5): 1.0})
        assert diff_norm(ts.apply_combine(state, 8), state) == 0.0

    def test_self_inverse_on_matching_labels(self):
        state = team_state({(0, 0, 3): 0.6, (1, 0, 3): 0.8})
        twice = ts.apply_combine(ts.apply_combine(state, 4), 4)
        assert diff_norm(twice, state) < 1e-12

    def test_rejects_bad_sizes(self):
        state = team_state({(0, 0, 1): 1.0})
        with pytest.raises(ValueError):
            ts.apply_combine(state, 3)
        with pytest.raises(ValueError):
            ts.apply_combine(state, 1)


class TestRefineOperator:
    def test_marker_one_takes_lower_half(self):
        out = ts.apply_refine(team_state({(1, 0, 7): 1.0}), 8)
        assert_stage(out, {(0, 0, 3): 1.0})

    def test_marker_zero_takes_upper_half(self):
        out = ts.apply_refine(team_state({(0, 0, 7): 1.0}), 8)
        assert_stage(out, {(0, 4, 7): 1.0})

    def test_length_mismatch_unchanged(self):
        state = team_state({(0, 0, 3): 1.0})
        assert diff_norm(ts.apply_refine(state, 8), state) == 0.0

    def test_collision_is_a_hard_error(self):
        state = team_state({(1, 0, 3): S2H, (0, 0, 1): S2H})
        with pytest.raises(ts.CollisionError):
            ts.apply_refine(state, 4)  # image of (1,[0,3]) hits (0,[0,1])


def team_query_steps():
    """The n = 8 team's broadcast query around its one oracle call: the
    opening step and the step that closes it."""
    algo = ts.TeamCombineAlgorithm(8)
    [open_step] = algo._opening
    return open_step, algo._rounds[0][0]


def team_query(state, inst):
    open_step, close_step = team_query_steps()
    return close_step(ts.oracle_mod.apply_query(open_step(state), inst))


class TestTeamQuery:
    def test_worked_opening_to_post_query(self):
        inst = OrderedInstance(8, 5)
        out = team_query(team_state(WORKED_STAGES[0]), inst)
        assert_stage(out, WORKED_STAGES[1])

    def test_all_probed_bits_zero_leaves_state_unchanged(self):
        # Answer 7 sits above every probed midpoint (3, 5, 4).
        inst = OrderedInstance(8, 7)
        state = team_state(WORKED_STAGES[0])
        out = team_query(state, inst)
        assert diff_norm(out, state) < 1e-12

    def test_double_application_restores_the_state(self):
        inst = OrderedInstance(8, 5)
        state = team_state(WORKED_STAGES[0])
        twice = team_query(team_query(state, inst), inst)
        assert diff_norm(twice, state) < 1e-12

    def test_costs_exactly_one_oracle_call(self, monkeypatch):
        calls = []
        real = ts.oracle_mod.apply_query

        def counting(state, inst):
            calls.append(1)
            return real(state, inst)

        monkeypatch.setattr(ts.oracle_mod, "apply_query", counting)
        # The open and close steps make no call of their own.
        team_query(team_state(WORKED_STAGES[0]), OrderedInstance(8, 5))
        assert len(calls) == 1

    def test_rejects_undefined_query_index(self):
        inst = OrderedInstance(8, 5)
        open_step, close_step = team_query_steps()
        opened = open_step(team_state({(0, 5, 5): 1.0}))
        routed = ts.oracle_mod.apply_query(opened, inst)
        with pytest.raises(ValueError):
            close_step(routed)

    def test_rejects_routed_labels(self):
        open_step, _ = team_query_steps()
        with pytest.raises(TypeError):
            open_step(SparseState.unit(QueryLabel(0, 0, 0, 0)))


SCHEDULED = {
    "binary-1": lambda: ts.BinarySearchAlgorithm(1),
    "binary-2": lambda: ts.BinarySearchAlgorithm(2),
    "binary-8": lambda: ts.BinarySearchAlgorithm(8),
    "binary-64": lambda: ts.BinarySearchAlgorithm(64),
    "team-2": lambda: ts.TeamCombineAlgorithm(2),
    "team-8": lambda: ts.TeamCombineAlgorithm(8),
    "team-32-r2": lambda: ts.TeamCombineAlgorithm(32, r=2),
    "team-128": lambda: ts.TeamCombineAlgorithm(128),
}


def open_steps(algo):
    """The step opening each query: the opening, then each round's last step."""
    return [*algo._opening] + [steps[-1] for steps in algo._rounds[:-1]]


class TestSchedule:
    @pytest.mark.parametrize("name", list(SCHEDULED))
    def test_rounds_close_refine_combine_then_open(self, name):
        algo = SCHEDULED[name]()
        rounds = algo._rounds
        assert len(rounds) == algo.num_queries
        assert len(algo._opening) == min(algo.num_queries, 1)
        # The team closes on 2r, then mixes at r, r/2, ..., 2; binary search
        # closes on n >> j and never mixes. Exactly the refines have no
        # image: each rides on the mix before it, of its size.
        team = isinstance(algo, ts.TeamCombineAlgorithm)
        for j, steps in enumerate(rounds):
            sizes = [2 * algo.r, *ts._halvings(algo.r)] if team else [algo.n >> j]
            opens_next = [False] if j + 1 < len(rounds) else []
            assert [step.image is None for step in steps] == (
                [False, True] * len(sizes) + opens_next
            )
            for k, size in enumerate(sizes):
                mix, refine = steps[2 * k : 2 * k + 2]
                half = size // 2
                # The close step takes a routed label, a combine step a team one.
                if k == 0:
                    source = QueryLabel(1, 0, size - 1, half - 1)
                else:
                    source = TeamLabel(0, 0, size - 1)
                _, images, _ = mix.image(qcore.label_fields([source]))
                assert qcore.labels_of(images) == [
                    TeamLabel(0, half, size - 1),
                    TeamLabel(0, 0, half - 1),
                ]
                refined = refine(SparseState.unit(TeamLabel(1, 0, size - 1)))
                assert refined.labels() == [TeamLabel(0, 0, half - 1)]
        assert all(step.image is not None for step in open_steps(algo))

    @pytest.mark.parametrize("name", [name for name in SCHEDULED if name != "binary-1"])
    def test_each_close_step_inverts_its_open_step(self, name):
        algo = SCHEDULED[name]()
        for inst in enumerate_instances(algo.n):
            state = opening_state(algo, inst)
            for j, open_step in enumerate(open_steps(algo)):
                opened = open_step(state)
                # The oracle sees only routed labels, and the close step
                # takes them back to the team labels they came from.
                assert all(isinstance(label, QueryLabel) for label in opened.labels())
                assert diff_norm(algo._rounds[j][0](opened), state) < 1e-12
                queried = ts.oracle_mod.apply_query(opened, inst)
                state = ts._run_steps(algo._rounds[j][:-1], queried)


class TestCombineRound:
    def test_worked_trace_stage_by_stage(self):
        inst = OrderedInstance(8, 5)
        stages = round_stages(inst, 4)
        assert len(stages) == len(WORKED_STAGES)
        for got, expected in zip(stages, WORKED_STAGES):
            assert_stage(got, expected)
        algo = ts.TeamCombineAlgorithm(8)
        final = algo.advance(0, algo.initial_state(inst), inst)
        assert_stage(final, WORKED_STAGES[-1])
        assert final.dump() == stages[-1].dump()
        assert stages[-1].dump() == "0|5,5\t0.99999999999999989\n"

    @pytest.mark.parametrize("n", [2, 4, 8, 32])
    def test_exhaustive_exactness(self, n):
        r = ts.default_team_size(n)
        for inst in enumerate_instances(n):
            final = round_stages(inst, r)[-1]
            labels = final.labels()
            assert len(labels) == 1
            label = labels[0]
            assert (label.lo, label.hi) == (inst.answer, inst.answer)
            assert abs(abs(final.amplitude(label)) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [8, 32])
    def test_norm_preserved_at_every_stage(self, n):
        for inst in enumerate_instances(n):
            stages = round_stages(inst, ts.default_team_size(n))
            for stage in stages:
                assert abs(stage.squared_norm() - 1.0) < 1e-12


class TestOpeningState:
    def test_worked_example_opening(self):
        opening = opening_state(ts.TeamCombineAlgorithm(8), OrderedInstance(8, 5))
        assert_stage(opening, WORKED_STAGES[0])

    def test_single_computer_opening(self):
        opening = opening_state(ts.TeamCombineAlgorithm(2), OrderedInstance(2, 1))
        assert_stage(opening, {(0, 0, 1): 1.0})

    @pytest.mark.parametrize("name", list(SCHEDULED))
    def test_initial_state_is_the_opening_through_the_opening_steps(self, name):
        algo = SCHEDULED[name]()
        for inst in enumerate_instances(algo.n):
            opened = ts._run_steps(algo._opening, opening_state(algo, inst))
            assert algo.initial_state(inst).dump() == opened.dump()

    def test_level_masses_are_one_over_r(self):
        opening = opening_state(ts.TeamCombineAlgorithm(32), OrderedInstance(32, 13))
        masses = sorted(abs(a) ** 2 for _, a in opening.items())
        assert len(masses) == 3
        assert abs(masses[0] - 1 / 4) < 1e-12
        assert abs(masses[1] - 1 / 4) < 1e-12
        assert abs(masses[2] - 2 / 4) < 1e-12

    def test_intervals_nest_down_to_the_answer(self):
        inst = OrderedInstance(32, 13)
        opening = opening_state(ts.TeamCombineAlgorithm(32), inst)
        intervals = sorted(
            ((l.lo, l.hi) for l in opening.labels()), key=lambda t: t[0] - t[1]
        )
        assert intervals == [(8, 15), (12, 15), (12, 13)]
        for lo, hi in intervals:
            assert lo <= inst.answer <= hi


def deduced_interval(known_positions, inst):
    """0-based candidate interval for the answer given known bit values."""
    lo, hi = 0, None
    for position in sorted(known_positions):
        index = position - 1
        if inst.bit(index) == 0:
            lo = index + 1
        elif hi is None:
            hi = index
    return lo, hi


class TestLayout:
    def test_figure_counts_for_four_computers(self):
        layout = ts.build_layout(4)
        assert [len(bits) for bits in layout.computers] == [11, 11, 11, 11]
        assert layout.computers[0] == (8, 12, 16, 18, 20, 22, 24, 26, 28, 30, 32)

    def test_single_computer_knows_only_the_last_bit(self):
        layout = ts.build_layout(1)
        assert layout.computers == ((2,),)

    def test_two_computers_know_three_bits_each(self):
        layout = ts.build_layout(2)
        assert [len(bits) for bits in layout.computers] == [3, 3]
        assert layout.computers[0] == (4, 6, 8)
        assert layout.computers[1] == (2, 4, 8)

    @pytest.mark.parametrize("r", [1, 2, 4, 8])
    def test_knowledge_size_formula(self, r):
        layout = ts.build_layout(r)
        expected = ts.team_knowledge_size(r)
        assert all(len(bits) == expected for bits in layout.computers)

    @pytest.mark.parametrize("r", [1 << k for k in range(7)])
    def test_the_layout_is_classical_search_staggered_over_the_sublists(self, r):
        # In the sublist e steps after its home sublist, a computer knows
        # what classical search knows of 2r bits after e.bit_length()
        # queries; the sublists follow in order, so the bits ascend.
        layout = ts.build_layout(r)
        for c, bits in enumerate(layout.computers):
            expected = ()
            for s in range(r):
                known = ts.known_bits_after(2 * r, ((s - c) % r).bit_length())
                expected += tuple(2 * r * s + bit for bit in known)
            assert bits == expected
            assert all(a < b for a, b in zip(bits, bits[1:]))

    @pytest.mark.parametrize("k", range(41))
    def test_the_knowledge_size_is_the_digit_value(self, k):
        value = ts.base_value(k)
        assert ts.team_knowledge_size(2**k) == value
        assert ts.decompose(value).digits == (0,) * k + (1,)
        # One round expands a digit value to 2*4**k, the n_list = 2*r*r of r = 2**k.
        assert 3 * value - 1 == 2 * 4**k

    def test_rejects_bad_combinations(self):
        with pytest.raises(ValueError):
            ts.build_layout(3)

    def test_jsonable_shape(self):
        data = ts.build_layout(2).to_jsonable()
        assert data == {
            "r": 2,
            "n_list": 8,
            "computers": [[4, 6, 8], [2, 4, 8]],
        }

    @pytest.mark.parametrize("r", [1, 2, 4, 8, 16])
    def test_layout_knowledge_reproduces_the_opening_intervals(self, r):
        # Reading each computer's known bits off any instance pins exactly
        # the interval its level holds in the opening superposition.
        n = 2 * r * r
        layout = ts.build_layout(r)
        algo = ts.TeamCombineAlgorithm(n, r)
        for inst in enumerate_instances(n):
            opening = opening_state(algo, inst)
            opening_intervals = []
            for label, amp in opening.items():
                copies = round(abs(amp) ** 2 * r)
                opening_intervals += [(label.lo, label.hi)] * copies
            deduced = sorted(
                deduced_interval(bits, inst) for bits in layout.computers
            )
            assert deduced == sorted(opening_intervals)


class TestSteppableAlgorithms:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_binary_search_is_exact(self, n):
        algo = ts.BinarySearchAlgorithm(n)
        assert algo.num_queries == n.bit_length() - 1
        for inst in enumerate_instances(n):
            result = ts.run_algorithm(algo, inst)
            assert result.answer == inst.answer
            assert abs(result.probability - 1.0) < 1e-12
            assert result.queries == algo.num_queries

    @pytest.mark.parametrize("n", [1 << k for k in range(9)])
    def test_binary_search_queries_what_classical_binary_search_probes(self, n):
        # Binary search is the classical search run in superposition: each
        # instance's state entering query j queries one in-list index, the
        # one the classical search probes at its step j.
        algo = ts.BinarySearchAlgorithm(n)
        for inst in enumerate_instances(n):
            state = algo.initial_state(inst)
            queried = []
            for j in range(algo.num_queries):
                queried.append({label.i for label in state.labels() if label.i < n})
                state = algo.advance(j, state, inst)
            assert queried == [{i} for i in ts.classical_binary_search(inst).queried]

    def test_the_binary_ensemble_queries_what_classical_binary_search_probes(self):
        n = 4096
        algo = ts.BinarySearchAlgorithm(n)
        probes = np.array(
            [ts.classical_binary_search(inst).queried for inst in enumerate_instances(n)]
        )
        snapshots = ts.ensemble_snapshots(algo, algo.initial_ensemble())
        for j, ensemble in zip(range(algo.num_queries), snapshots):
            index = ensemble.fields[4][ensemble.label_ids]
            in_list = index < n
            answers = ensemble.answers[in_list]
            assert np.array_equal(np.unique(answers), np.arange(n))
            assert np.array_equal(index[in_list], probes[answers, j])

    @pytest.mark.parametrize("answer", [0, 5, 2**62 // 3, 2**62 - 1])
    def test_one_answer_ensembles_query_the_classical_probes_at_2_to_62(self, answer):
        # The classical reference costs O(log n), so it runs at any size the
        # ensemble reaches.
        n = 2**62
        algo = ts.BinarySearchAlgorithm(n)
        probes = ts.classical_binary_search(OrderedInstance(n, answer)).queried
        start = algo.initial_ensemble(range(answer, answer + 1))
        snapshots = ts.ensemble_snapshots(algo, start)
        queried = []
        for _, ensemble in zip(range(algo.num_queries), snapshots):
            index = ensemble.fields[4]
            [probe] = index[index < n].tolist()
            queried.append(probe)
        assert len(probes) == 62
        assert queried == list(probes)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
    def test_binary_search_is_the_one_computer_team_round(self, n):
        # Each step is the bit-writing team query on the one interval left,
        # then one refinement: the same operators, the same floats.
        algo = ts.BinarySearchAlgorithm(n)
        for inst in enumerate_instances(n):
            stepped = algo.initial_state(inst)
            for j in range(algo.num_queries):
                stepped = algo.advance(j, stepped, inst)
            state = SparseState.unit(TeamLabel(0, 0, n - 1))
            length = n
            while length >= 2:
                open_query, close_query = ts._bitwrite_query(n, length)
                state = apply_linear(state, open_query)
                state = apply_query(state, inst)
                state = apply_linear(state, close_query)
                state = ts.apply_refine(state, length)
                length //= 2
            assert stepped.labels() == [TeamLabel(0, inst.answer, inst.answer)]
            assert stepped.dump() == state.dump()
        start = algo.initial_state(inst)
        for j in (-1, algo.num_queries):
            with pytest.raises(ValueError, match="steps, got step"):
                algo.advance(j, start, inst)

    def test_binary_search_rejects_non_powers(self):
        with pytest.raises(ValueError):
            ts.BinarySearchAlgorithm(6)

    @pytest.mark.parametrize(
        "algo, inst",
        [
            (ts.BinarySearchAlgorithm(8), OrderedInstance(16, 12)),
            (ts.BinarySearchAlgorithm(16), OrderedInstance(8, 3)),
            (ts.TeamCombineAlgorithm(8), OrderedInstance(16, 3)),
            (ts.TeamCombineAlgorithm(32), OrderedInstance(8, 3)),
        ],
        ids=["binary-8-16", "binary-16-8", "team-8-16", "team-32-8"],
    )
    def test_an_instance_of_another_list_size_is_refused(self, algo, inst):
        expected = f"{type(algo).__name__} is built for list size {algo.n}, not {inst.n}"
        for run in (
            lambda: algo.initial_state(inst),
            lambda: algo.advance(0, algo.initial_state(OrderedInstance(algo.n, 0)), inst),
            lambda: ts.run_algorithm(algo, inst),
        ):
            assert error_text(run) == expected

    @pytest.mark.parametrize("n", [2, 8, 32, 128])
    def test_team_combine_matches_direct_round(self, n):
        algo = ts.TeamCombineAlgorithm(n)
        # close, refine(2r), then mix(s) and refine(s) for s = r, ..., 2.
        assert len(algo._rounds[0]) == 2 * algo.r.bit_length()
        for inst in enumerate_instances(n):
            stepped = algo.advance(0, algo.initial_state(inst), inst)
            [label] = stepped.labels()
            assert label == TeamLabel(0, inst.answer, inst.answer)
            assert abs(abs(stepped.amplitude(label)) - 1.0) < 1e-12

    def test_team_combine_uses_one_query(self):
        algo = ts.TeamCombineAlgorithm(8)
        assert algo.num_queries == 1
        inst = OrderedInstance(8, 5)
        start = algo.initial_state(inst)
        for j in (-1, 1):
            with pytest.raises(ValueError, match="steps, got step"):
                algo.advance(j, start, inst)
        # One schedule: both algorithms run the same advance.
        assert (
            ts.TeamCombineAlgorithm.__dict__["advance"]
            is ts.BinarySearchAlgorithm.__dict__["advance"]
        )

    def test_unsupported_team_sizes_rejected(self):
        with pytest.raises(ValueError):
            ts.TeamCombineAlgorithm(16)  # not 2*r*r for a power-of-two r
        with pytest.raises(ValueError):
            ts.TeamCombineAlgorithm(6)

    def test_pinned_answer_rejects_unfinished_labels(self):
        assert ts._pinned_answer(TeamLabel(0, 5, 5)) == 5
        for label in (TeamLabel(0, 4, 5), QueryLabel(0, 5, 5, 5)):
            with pytest.raises(ValueError):
                ts._pinned_answer(label)

    def test_binary_search_and_the_one_computer_team_share_their_round(self):
        team, binary = ts.TeamCombineAlgorithm(2), ts.BinarySearchAlgorithm(2)
        assert team.r == 1 and team.num_queries == binary.num_queries == 1
        for inst in enumerate_instances(2):
            ours, theirs = team.initial_state(inst), binary.initial_state(inst)
            assert ours.dump() == theirs.dump()
            ours, theirs = team.advance(0, ours, inst), binary.advance(0, theirs, inst)
            assert ours.dump() == theirs.dump()
        snapshots = zip(
            ts.ensemble_snapshots(team, team.initial_ensemble()),
            ts.ensemble_snapshots(binary, binary.initial_ensemble()),
        )
        for ours, theirs in snapshots:
            assert ours.fields.tolist() == theirs.fields.tolist()
            assert ours.label_ids.tolist() == theirs.label_ids.tolist()
            assert ours.answers.tolist() == theirs.answers.tolist()
            assert repr(ours.amps.tolist()) == repr(theirs.amps.tolist())


class HandBuilt:
    """A zero-query algorithm whose answer ``a`` starts (and ends) in ``states[a]``."""

    num_queries = 0

    def __init__(self, states):
        self.n = len(states)
        self.states = states

    def initial_state(self, inst):
        return self.states[inst.answer]

    def initial_ensemble(self, answers=None):
        answers = range(self.n) if answers is None else answers
        empty = SparseState({})
        return Ensemble.from_states(
            [state if a in answers else empty for a, state in enumerate(self.states)]
        )


def per_instance(algorithm):
    instances = enumerate_instances(algorithm.n)
    return [ts.run_algorithm(algorithm, inst) for inst in instances]


class TestEnsembleOutcomes:
    """run_ensemble against the per-instance run_algorithm: the same bits."""

    @pytest.mark.parametrize(
        "algorithm",
        [ts.BinarySearchAlgorithm(1 << k) for k in range(9)]
        + [ts.TeamCombineAlgorithm(n) for n in (2, 4, 8, 32, 128, 512)]
        + [ts.TeamCombineAlgorithm(32, r=2)],
        ids=lambda algo: f"{type(algo).__name__}-{algo.n}-r{getattr(algo, 'r', 1)}",
    )
    def test_every_instance_matches_run_algorithm(self, algorithm):
        assert ts.run_ensemble(algorithm) == per_instance(algorithm)

    @pytest.mark.parametrize(
        "algorithm",
        [ts.BinarySearchAlgorithm(16), ts.TeamCombineAlgorithm(32)],
        ids=lambda algo: f"{type(algo).__name__}-{algo.n}",
    )
    def test_one_answer_matches_run_algorithm(self, algorithm):
        for inst in enumerate_instances(algorithm.n):
            got = ts.run_ensemble(algorithm, inst.answer)
            assert got == [ts.run_algorithm(algorithm, inst)]

    @pytest.mark.parametrize(
        "algorithm",
        [ts.BinarySearchAlgorithm(8), ts.TeamCombineAlgorithm(8)],
        ids=lambda algo: type(algo).__name__,
    )
    @pytest.mark.parametrize("answer", [-1, 8, 9])
    def test_an_answer_off_the_list_is_refused(self, algorithm, answer):
        expected = error_text(OrderedInstance, 8, answer)
        assert expected == f"answer must lie in [0, 7], got {answer}"
        assert error_text(ts.run_ensemble, algorithm, answer) == expected

    @pytest.mark.parametrize(
        "algorithm",
        [ts.BinarySearchAlgorithm(8), ts.TeamCombineAlgorithm(8)],
        ids=lambda algo: type(algo).__name__,
    )
    @pytest.mark.parametrize(
        "answers",
        [range(6, 12), range(-3, 2), range(0, 8, 2), range(7, 5, -1), range(3, 3)],
    )
    def test_a_start_range_off_the_list_or_strided_is_refused(
        self, algorithm, answers
    ):
        # Only start and stop are read, so these used to give the starts of
        # answers off the list, or of every answer between the ends; an
        # empty range gave label columns that no entry held.
        expected = f"need a non-empty step-1 range in 0 .. 8, got {answers!r}"
        assert error_text(algorithm.initial_ensemble, answers) == expected

    @pytest.mark.parametrize(
        "algorithm",
        [ts.BinarySearchAlgorithm(1 << k) for k in (31, 40, 61, 62)]
        + [ts.TeamCombineAlgorithm(1 << (2 * j + 1)) for j in range(31)],
        ids=lambda algo: f"{type(algo).__name__}-2^{algo.n.bit_length() - 1}",
    )
    def test_one_answer_is_exact_at_every_int64_size(self, algorithm):
        # The answer's start has a label per level, and no field or key
        # multiplies two positions, so the sizes reach n = 2^62.
        n = algorithm.n
        for k in (0, n // 2, n - 1):
            [result] = ts.run_ensemble(algorithm, k)
            assert (result.answer, result.queries) == (k, algorithm.num_queries)
            assert abs(result.probability - 1.0) <= 1e-9

    @pytest.mark.parametrize(
        "algorithm",
        [ts.BinarySearchAlgorithm(1 << 63), ts.TeamCombineAlgorithm(1 << 63)],
        ids=lambda algo: type(algo).__name__,
    )
    def test_the_ensemble_path_refuses_positions_past_int64(self, algorithm):
        assert error_text(ts.run_ensemble, algorithm, 5) == (
            "list size 9223372036854775808 is past int64: need n < 2**63"
        )
        assert error_text(algorithm.initial_ensemble, range(5, 6)) == (
            "list size 9223372036854775808 is past int64: need n < 2**63"
        )

    @pytest.mark.parametrize("n", [1 << 31, 1 << 63])
    def test_the_per_instance_path_has_no_size_limit(self, n):
        # It holds Python ints.
        result = ts.run_algorithm(ts.BinarySearchAlgorithm(n), OrderedInstance(n, 5))
        assert (result.answer, result.queries) == (5, n.bit_length() - 1)
        assert abs(result.probability - 1.0) <= 1e-9

    @pytest.mark.parametrize("k", [(1 << 62) // 3, (1 << 62) - 1])
    def test_one_answer_keys_are_relative_to_the_answer(self, k):
        # Each key of the measurement counts answers from the one answer
        # held: a key from the answer itself would read another outcome. A
        # collision names labels near 2^62 exactly.
        n = 1 << 62
        lo = k - k % 4
        labels = [TeamLabel(0, lo, lo + 1), TeamLabel(1, lo, lo + 3)]
        ensemble = Ensemble(
            n,
            qcore.label_fields(labels),
            np.array([0, 1]),
            np.array([k, k]),
            np.array([0.8, 0.6]),
        )
        steps = [ts._combine_step(4), ts._refine_step(4)]
        with pytest.raises(ts.CollisionError) as collided:
            ts._run_ensemble_steps(steps, ensemble)
        assert str(collided.value) == (
            f"labels 0|{lo},{lo + 1} and 1|{lo},{lo + 3} both map to 0|{lo},{lo + 1}"
        )
        pinned = [TeamLabel(0, k - 1, k - 1), TeamLabel(0, k, k)]
        final = Ensemble(
            n,
            qcore.label_fields(pinned),
            np.array([0, 1]),
            np.array([k, k]),
            np.array([0.6, 0.8]),
        )
        algorithm = ts.BinarySearchAlgorithm(n)
        [result] = ts.measure_ensemble(algorithm, final)
        assert result == (k, 0.8**2, 62)

    def test_sums_per_position_and_ties_match_run_algorithm(self):
        # Labels pinning one position add up; equal outcomes go to the
        # position whose first label sorts first, whatever the entry order.
        states = [
            SparseState({TeamLabel(0, 1, 1): S2H, TeamLabel(0, 0, 0): S2H}),
            SparseState(
                {
                    TeamLabel(1, 3, 3): HALF,
                    TeamLabel(0, 3, 3): HALF,
                    TeamLabel(1, 2, 2): HALF,
                    TeamLabel(0, 2, 2): -HALF,
                }
            ),
            SparseState({TeamLabel(1, 1, 1): S2H, TeamLabel(0, 3, 3): S2H}),
            SparseState({TeamLabel(1, 0, 0): 0.6, TeamLabel(0, 3, 3): -0.8}),
            # Both paths square as amp * amp; Python's abs(a) ** 2, a pow
            # call, is one bit above it for this amplitude.
            SparseState(
                {
                    TeamLabel(0, 0, 0): math.sqrt(1 - 0.9503546630566793**2),
                    TeamLabel(0, 4, 4): 0.9503546630566793,
                }
            ),
        ]
        algorithm = HandBuilt(states)
        expected = per_instance(algorithm)
        assert [r.answer for r in expected] == [0, 2, 3, 3, 4]
        assert ts.run_ensemble(algorithm) == expected

    def test_an_unnormalized_answer_raises_measure_distributions_error(self):
        states = [
            SparseState.unit(TeamLabel(0, 0, 0)),
            SparseState({TeamLabel(0, 1, 1): 0.7}),
        ]
        algorithm = HandBuilt(states)
        inst = OrderedInstance(2, 1)
        expected = error_text(ts.run_algorithm, algorithm, inst)
        assert "requires a normalized state" in expected
        assert error_text(ts.run_ensemble, algorithm) == expected
        assert error_text(ts.run_ensemble, algorithm, 1) == expected
        final = Ensemble.from_states(states)
        assert error_text(ts.measure_ensemble, algorithm, final) == expected
        assert ts.measure_ensemble(algorithm, algorithm.initial_ensemble(range(1))) == [
            ts.run_algorithm(algorithm, OrderedInstance(2, 0))
        ]

    def test_an_answer_without_entries_between_held_ones_is_unnormalized(self):
        states = [SparseState.unit(TeamLabel(0, a, a)) for a in range(3)]
        algorithm = HandBuilt(states)
        final = Ensemble.from_states([states[0], SparseState({}), states[2]])
        expected = error_text(
            qcore.measure_distribution, SparseState({}), ts._pinned_answer
        )
        assert "requires a normalized state" in expected
        assert error_text(ts.measure_ensemble, algorithm, final) == expected
        assert ts.measure_ensemble(algorithm, Ensemble.from_states(states)) == [
            (a, 1.0, 0) for a in range(3)
        ]

    def test_an_unpinned_final_label_raises_pinned_answers_error(self):
        states = [
            SparseState.unit(TeamLabel(0, 0, 1)),
            SparseState.unit(TeamLabel(0, 1, 1)),
        ]
        algorithm = HandBuilt(states)
        expected = error_text(ts.run_algorithm, algorithm, OrderedInstance(2, 0))
        assert "final labels should pin one position" in expected
        assert error_text(ts.run_ensemble, algorithm) == expected

    def test_simulate_makes_no_per_instance_call(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("simulate called run_algorithm")

        monkeypatch.setattr(ts, "run_algorithm", refuse)
        runner = CliRunner()
        sweep = runner.invoke(main, ["simulate", "--algo", "binary", "--n", "64"])
        assert sweep.exit_code == 0, sweep.output
        assert sweep.stdout == (GOLDEN / "simulate_binary_64.txt").read_text()
        for algo, n, answer in (("binary", 16, 11), ("team", 32, 17)):
            args = ["--algo", algo, "--n", str(n), "--answer", str(answer)]
            one = runner.invoke(main, ["simulate", *args])
            assert one.exit_code == 0, one.output
            assert json.loads(one.stdout)["answer_found"] == answer


def linear_images(label_map, labels):
    """A tuple map's images of ``labels``: (counts, image labels, coefficients)."""
    images = [label_map(label) for label in labels]
    terms = [term for image in images for term in image]
    return [len(image) for image in images], [l for l, _ in terms], [c for _, c in terms]


def field_images(fields_map, labels):
    """The same three lists from the map on label fields."""
    counts, images, coeffs = fields_map(qcore.label_fields(labels))
    return counts.tolist(), qcore.labels_of(images), coeffs.tolist()


def same_error(tuple_call, ensemble_call):
    """Both calls raise one error type; its messages, tuple path first."""
    with pytest.raises(Exception) as expected:
        tuple_call()
    with pytest.raises(type(expected.value)) as got:
        ensemble_call()
    assert type(got.value) is type(expected.value)
    return str(expected.value), str(got.value)


class TestFieldMaps:
    """Each map on label fields against the tuple map it stands for."""

    N = 16

    def labels(self):
        """Every TeamLabel, either marker, on a dyadic block of [0, 2N)."""
        blocks = [(lo, lo) for lo in range(2 * self.N)]
        blocks += [(lo, lo + length - 1) for lo, length in dyadic_blocks(5)]
        return [TeamLabel(b, lo, hi) for b in (0, 1) for lo, hi in blocks]

    @pytest.mark.parametrize("s", [2, 4, 8, 16, 32])
    def test_mix_and_halving(self, s):
        # Routed labels pass through, the last one whose row fields would
        # read as a length-2 interval [0, 1].
        labels = self.labels() + [QueryLabel(1, 4, 7, 5), QueryLabel(1, 0, 1, 0)]
        mix = lambda label: ts._mix(label, s)
        assert field_images(lambda f: ts._mix_fields(f, s), labels) == linear_images(
            mix, labels
        )
        halved = ts._halving_fields(qcore.label_fields(labels), s)
        assert qcore.labels_of(halved) == [ts._halving(s)(label) for label in labels]

    @pytest.mark.parametrize("length", [2, 4, 8, 16, 32])
    def test_open_and_close(self, length):
        open_query, close_query = ts._bitwrite_query(self.N, length)
        open_fields, close_fields = ts._bitwrite_fields(self.N, length)
        # A length-1 interval at lo > 0 routes to lo - 1, and does not close.
        labels = [label for label in self.labels() if label.length >= 2 or label.lo > 0]
        assert field_images(open_fields, labels) == linear_images(open_query, labels)
        labels = [label for label in labels if label.length >= 2]
        routed = field_images(open_fields, labels)[1]
        assert field_images(close_fields, routed) == linear_images(close_query, routed)

    @pytest.mark.parametrize("b", [0, 1])
    def test_route_refuses_a_length_one_interval_at_zero(self, b):
        open_query, _ = ts._bitwrite_query(8, 8)
        open_fields, _ = ts._bitwrite_fields(8, 8)
        state = SparseState({TeamLabel(0, 0, 7): 0.6, TeamLabel(b, 0, 0): 0.8})
        expected, got = same_error(
            lambda: apply_linear(state, open_query),
            lambda: qcore.apply_linear_ensemble(
                Ensemble.from_states([state] * 8), open_fields
            ),
        )
        assert got == expected == "query index must be non-negative, got -1"

    def test_route_refuses_a_routed_label(self):
        open_query, _ = ts._bitwrite_query(8, 8)
        open_fields, _ = ts._bitwrite_fields(8, 8)
        state = SparseState({TeamLabel(0, 0, 7): 0.6, QueryLabel(1, 0, 3, 1): 0.8})
        expected, got = same_error(
            lambda: apply_linear(state, open_query),
            lambda: qcore.apply_linear_ensemble(
                Ensemble.from_states([state] * 8), open_fields
            ),
        )
        assert got == expected == (
            "expected a TeamLabel, got QueryLabel(b=1, lo=0, hi=3, i=1)"
        )

    def test_unroute_refuses_a_team_label(self):
        open_query, close_query = ts._bitwrite_query(8, 8)
        _, close_fields = ts._bitwrite_fields(8, 8)
        [(routed, _)] = open_query(TeamLabel(1, 4, 7))
        state = SparseState({routed: 0.6, TeamLabel(1, 4, 7): 0.8})
        expected, got = same_error(
            lambda: apply_linear(state, close_query),
            lambda: qcore.apply_linear_ensemble(
                Ensemble.from_states([state] * 8), close_fields
            ),
        )
        assert got == expected == "expected a QueryLabel, got TeamLabel(b=1, lo=4, hi=7)"

    @pytest.mark.parametrize(
        "label, message",
        [
            # Off the midpoint index of [4, 7], which is 5.
            (QueryLabel(1, 4, 7, 6), "label 1|4,7;6"),
            # A length-1 interval has no midpoint.
            (QueryLabel(1, 5, 5, 4), "label 1|5,5;4"),
            # Marker 0 on the bit-write length parks at the padding index 8.
            (QueryLabel(0, 0, 7, 3), "label 0|0,7;3"),
        ],
    )
    def test_unroute_refuses_a_label_off_its_routed_index(self, label, message):
        n = 8
        _, close_query = ts._bitwrite_query(n, 8)
        _, close_fields = ts._bitwrite_fields(n, 8)
        state = SparseState({QueryLabel(1, 0, 7, 3): 0.6, label: 0.8})
        expected, got = same_error(
            lambda: apply_linear(state, close_query),
            lambda: qcore.apply_linear_ensemble(
                Ensemble.from_states([state] * n), close_fields
            ),
        )
        assert got == expected == f"{message} does not sit on its routed query index"

    def test_query_refuses_a_team_label(self):
        state = SparseState({QueryLabel(0, 0, 0, 1): 0.6, TeamLabel(0, 0, 1): 0.8})
        expected, got = same_error(
            lambda: apply_query(state, OrderedInstance(2, 0)),
            lambda: apply_query_ensemble(Ensemble.from_states([state] * 2)),
        )
        assert got == expected == (
            "apply_query acts on QueryLabel states only, found TeamLabel(b=0, lo=0, hi=1)"
        )

    def test_refine_collision_names_both_labels(self):
        # Mixing [0,3] and halving it with marker 1 lands on the [0,1] that
        # answer 1 holds.
        states = [
            SparseState.unit(TeamLabel(0, 0, 1)),
            SparseState({TeamLabel(1, 0, 3): 0.6, TeamLabel(0, 0, 1): 0.8}),
        ]
        steps = [ts._combine_step(4), ts._refine_step(4)]
        expected, got = same_error(
            lambda: ts._run_steps(steps, states[1]),
            lambda: ts._run_ensemble_steps(steps, Ensemble.from_states(states)),
        )
        assert expected == "labels 1|0,3 and 0|0,1 both map to 0|0,1"
        # The ensemble names the two labels in sort_key order.
        assert got == "labels 0|0,1 and 1|0,3 both map to 0|0,1"


class TestNoPerLabelPython:
    """The ensemble path builds no state or tuple label, and calls no tuple map."""

    def test_no_mix_call_no_query_label_and_no_state(self, monkeypatch):
        counts = {"mix": 0, "query": 0, "state": 0}
        mix, query_new, unchecked_query = ts._mix, QueryLabel.__new__, ts._QUERY
        state_init, relabelled = SparseState.__init__, SparseState._relabelled

        def counted_mix(*args):
            counts["mix"] += 1
            return mix(*args)

        def counted_query(cls, *args):
            counts["query"] += 1
            return query_new(cls, *args)

        def counted_unchecked_query(fields):
            counts["query"] += 1
            return unchecked_query(fields)

        def counted_init(self, *args):
            counts["state"] += 1
            state_init(self, *args)

        def counted_relabelled(cls, *args):
            counts["state"] += 1
            return relabelled(*args)

        monkeypatch.setattr(ts, "_mix", counted_mix)
        monkeypatch.setattr(QueryLabel, "__new__", counted_query)
        monkeypatch.setattr(ts, "_QUERY", counted_unchecked_query)
        monkeypatch.setattr(SparseState, "__init__", counted_init)
        monkeypatch.setattr(SparseState, "_relabelled", classmethod(counted_relabelled))
        # The counters see the tuple path.
        binary = ts.BinarySearchAlgorithm(4)
        inst = OrderedInstance(4, 1)
        binary.advance(0, binary.initial_state(inst), inst)
        assert counts["mix"] > 0 and counts["query"] > 0 and counts["state"] > 1
        counts.update(mix=0, query=0, state=0)

        algorithm = ts.TeamCombineAlgorithm(512)
        w = lb.WeightSpec.inverse_distance(512)
        record = lb.run_trajectory(algorithm, 512, w, verify_chain=True)
        assert all(report.holds for report in record.chain_reports)
        results = ts.run_ensemble(ts.BinarySearchAlgorithm(256))
        assert [r.answer for r in results] == list(range(256))
        [one] = ts.run_ensemble(algorithm, 7)
        assert one.answer == 7 and abs(one.probability - 1.0) < 1e-12
        [one] = ts.run_ensemble(ts.BinarySearchAlgorithm(256), 3)
        assert one.answer == 3 and abs(one.probability - 1.0) < 1e-12
        runner = CliRunner()
        for args in (
            ["simulate", "--algo", "team", "--n", "32", "--answer", "7"],
            ["trajectory", "--algo", "binary", "--n", "16"],
        ):
            assert runner.invoke(main, args).exit_code == 0
        assert counts == {"mix": 0, "query": 0, "state": 0}


def brute_force_known_bits(n, j):
    """Independent oracle for explicit knowledge after j classical queries.

    A 1-based position is explicitly known if, for every instance, all
    instances consistent with that instance's first j query answers agree on
    the bit there. The positions come back ascending.
    """
    instances = enumerate_instances(n)
    known = set(range(1, n + 1))
    for inst in instances:
        trace = ts.classical_binary_search(inst)
        observed = [(q, inst.bit(q)) for q in trace.queried[:j]]
        consistent = [
            other
            for other in instances
            if all(other.bit(q) == v for q, v in observed)
        ]
        deduced = {
            p
            for p in range(1, n + 1)
            if len({other.bit(p - 1) for other in consistent}) == 1
        }
        known &= deduced
    return sorted(known)


class TestClassicalReference:
    def test_query_counts(self):
        for inst in enumerate_instances(8):
            assert len(ts.classical_binary_search(inst).queried) == 3
        assert len(ts.classical_binary_search(OrderedInstance(2, 0)).queried) == 1

    def test_answers(self):
        for n in (1, 2, 16):
            for inst in enumerate_instances(n):
                assert ts.classical_binary_search(inst).answer == inst.answer

    def test_known_bits_after_two_queries_on_eight(self):
        assert list(ts.known_bits_after(8, 2)) == [2, 4, 6, 8]

    @pytest.mark.parametrize("n,j", [(8, 0), (8, 1), (8, 2), (8, 3), (16, 2), (16, 4)])
    def test_known_bits_formula_matches_brute_force_deduction(self, n, j):
        assert list(ts.known_bits_after(n, j)) == brute_force_known_bits(n, j)

    # True would count as one query, and a float would reach the shift and
    # raise TypeError.
    @pytest.mark.parametrize("j", [True, False, 1.0, "1", None])
    def test_known_bits_refuse_a_query_count_that_is_not_an_int(self, j):
        expected = f"^query count must be an integer, got {re.escape(repr(j))}$"
        with pytest.raises(ValueError, match=expected):
            ts.known_bits_after(8, j)

    @pytest.mark.parametrize("j", [-1, 4])
    def test_known_bits_refuse_a_query_count_out_of_range(self, j):
        expected = f"^query count {j} out of range for n=8$"
        with pytest.raises(ValueError, match=expected):
            ts.known_bits_after(8, j)

    @pytest.mark.parametrize("exponent", range(0, 17))
    def test_known_set_sizes_double_each_query(self, exponent):
        n = 1 << exponent
        for j in range(exponent + 1):
            assert len(ts.known_bits_after(n, j)) == 1 << j


def reference_decompose(m):
    """Greedy digits of ``m``: the per-call table and capped loop, kept as an oracle."""
    values = [1]
    while 4 * values[-1] - 1 <= m:  # next digit value is 4*v - 1
        values.append(4 * values[-1] - 1)
    digits = [0] * len(values)
    remainder = m
    for k in range(len(values) - 1, -1, -1):
        take = min(remainder // values[k], 3)
        digits[k] = take
        remainder -= take * values[k]
    assert remainder == 0
    return tuple(digits)


def reference_expanded(digits):
    return sum(d * 2 * 4**k for k, d in enumerate(digits))


def reference_query_count(n):
    """The expansion walked from one known bit afresh on every call, an oracle."""
    trace = [1]
    while trace[-1] < n:
        trace.append(reference_expanded(reference_decompose(trace[-1])))
    return len(trace) - 1, tuple(trace)


class TestDecomposition:
    def test_digit_values(self):
        assert [ts.base_value(k) for k in range(6)] == [1, 3, 11, 43, 171, 683]

    def test_unit(self):
        assert ts.decompose(1).digits == (1,)

    def test_eleven_is_a_pure_digit(self):
        assert ts.decompose(11).digits == (0, 0, 1)

    def test_fourteen_greedy_takes_the_largest_values_first(self):
        # 14 = 11 + 3; the greedy rule prefers the value-3 digit over three
        # value-1 units.
        decomposition = ts.decompose(14)
        assert decomposition.digits == (0, 1, 1)
        assert decomposition.value() == 14

    @given(st.integers(1, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_and_digit_cap(self, m):
        decomposition = ts.decompose(m)
        assert decomposition.value() == m
        assert all(0 <= d <= 3 for d in decomposition.digits)
        assert decomposition.digits[-1] != 0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ts.decompose(0)

    def test_matches_reference_for_every_m_up_to_1e5(self):
        for m in range(1, 10**5 + 1):
            decomposition = ts.decompose(m)
            assert decomposition.digits == reference_decompose(m), m
            assert decomposition.value() == m
            assert decomposition.expanded() == reference_expanded(decomposition.digits)

    @given(st.integers(1, 10**30))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_up_to_1e30(self, m):
        decomposition = ts.decompose(m)
        assert decomposition.digits == reference_decompose(m)
        assert decomposition.value() == m
        assert decomposition.expanded() == reference_expanded(decomposition.digits)

    def test_hand_built_digits_longer_than_the_table(self):
        digits = tuple(k % 4 for k in range(39)) + (2,)
        decomposition = ts.Decomposition(digits)
        assert decomposition.top == 39
        assert decomposition.value() == sum(
            d * ts.base_value(k) for k, d in enumerate(digits)
        )
        assert decomposition.expanded() == reference_expanded(digits)

    # Either side of each digit value v_k, and 4*v_k - 2, the largest m whose
    # top digit is k: 1602 cases, up to about 2**802.
    def test_matches_reference_around_each_digit_value(self):
        for k in range(401):
            v = ts.base_value(k)
            for m in {v - 1, v, v + 1, 4 * v - 2} - {0}:
                decomposition = ts.decompose(m)
                digits = decomposition.digits
                assert digits == reference_decompose(m), m
                assert decomposition.value() == m
                assert decomposition.expanded() == reference_expanded(digits)

    # A table of digit values kept 51.5 MiB after this call.
    def test_value_keeps_no_memory_after_the_call(self):
        decomposition = ts.Decomposition((1,) * 20_000)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            value = decomposition.value()
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        # The sum of v_k = (2*4**k + 1)/3 over k < n, as a geometric series.
        assert value == (2 * (4**20_000 - 1) // 3 + 20_000) // 3
        assert kept < 2**20

    # 1.0 and True equal 1, so set membership alone would accept the last three.
    @pytest.mark.parametrize(
        "digits",
        [(), (0,), (1, 0), (4,), (-1, 1), (2.5,), (1.0, 2.0), (True,), (1, True)],
    )
    def test_rejects_malformed_digit_vectors(self, digits):
        with pytest.raises(ValueError):
            ts.Decomposition(digits)

    @pytest.mark.parametrize(
        "digits,expected",
        [
            ((), "digit vector must be non-empty with a nonzero top digit"),
            ((1, 0), "digit vector must be non-empty with a nonzero top digit"),
            ((4,), "digits must be integers in 0..3, got (4,)"),
            ((1, True), "digits must be integers in 0..3, got (1, True)"),
            ((256,), "digits must be integers in 0..3, got (256,)"),
        ],
    )
    def test_error_messages(self, digits, expected):
        assert error_text(ts.Decomposition, digits) == expected

    def test_the_callers_list_is_copied(self):
        digits = [1, 2]
        decomposition = ts.Decomposition(digits)
        digits.append(3)  # would lift value() past the checked digits
        assert decomposition.digits == (1, 2)
        assert decomposition.value() == 7
        assert hash(decomposition) == hash(ts.Decomposition((1, 2)))

    def test_an_iterator_is_copied_then_validated(self):
        assert ts.Decomposition(iter([0, 1])).digits == (0, 1)
        for digits in ([1, 0], [4], []):
            with pytest.raises(ValueError):
                ts.Decomposition(iter(digits))

    def test_digits_are_a_tuple_of_ints(self):
        digits = ts.decompose(999_999_937).digits
        assert type(digits) is tuple
        assert set(map(type, digits)) == {int}

    def test_repr_names_the_digits(self):
        assert repr(ts.decompose(14)) == "Decomposition(digits=(0, 1, 1))"
        assert repr(ts.Decomposition((1,))) == "Decomposition(digits=(1,))"

    def test_keyword_construction(self):
        assert ts.Decomposition(digits=(0, 1, 1)) == ts.decompose(14)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        decomposition = ts.decompose(10**30 + 7)
        loaded = pickle.loads(pickle.dumps(decomposition, protocol))
        assert type(loaded) is ts.Decomposition
        assert loaded == decomposition
        assert loaded.value() == 10**30 + 7

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_unpickling_validates(self, protocol):
        # No zero digit, so that the digits lie raw in every protocol's bytes.
        digits = bytes((1, 2, 3, 1))
        blob = pickle.dumps(ts.Decomposition(digits), protocol)
        assert blob.count(digits) == 1
        with pytest.raises(ValueError, match=r"got \(4, 4, 4, 4\)"):
            pickle.loads(blob.replace(digits, bytes((4, 4, 4, 4))))

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy])
    def test_copy_round_trip(self, duplicate):
        decomposition = ts.decompose(999_999_937)
        copied = duplicate(decomposition)
        assert type(copied) is ts.Decomposition
        assert copied == decomposition

    def test_equality_and_hash_follow_the_digits(self):
        a, b = ts.decompose(14), ts.Decomposition((0, 1, 1))
        assert a == b and hash(a) == hash(b)
        assert a != ts.decompose(15)
        assert len({a, b, ts.decompose(15)}) == 2
        # The representation: the bytes of its digits, low digit first.
        assert a == bytes((0, 1, 1))

    def test_attribute_assignment_is_refused(self):
        decomposition = ts.decompose(14)
        for name in ("digits", "top", "extra"):
            with pytest.raises(AttributeError):
                setattr(decomposition, name, (1,))
        assert decomposition.digits == (0, 1, 1)


def stored_bytes_per_decomposition(values):
    """Traced bytes that a list of the decompositions of ``values`` holds,
    per decomposition."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        stored = [ts.decompose(m) for m in values]
        used = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    return used / len(stored), stored


# One byte per digit: 70.3 bytes per decomposition and 1.1 per digit, where a
# frozen dataclass holding a tuple took 192.4 and 8.3.
def test_a_decomposition_stores_its_digits_in_under_100_bytes():
    rng = random.Random(34)
    values = [int(math.exp(rng.uniform(0.0, math.log(1e9)))) for _ in range(20_000)]
    per_decomposition, _ = stored_bytes_per_decomposition(values)
    assert per_decomposition <= 100


def test_a_long_decomposition_stores_two_bytes_per_digit_at_most():
    per_decomposition, stored = stored_bytes_per_decomposition(
        [10**300 + k for k in range(200)]
    )
    digits = len(stored[0].digits)
    assert digits == 499
    assert per_decomposition <= 2 * digits + 100


class TestExpansion:
    def test_figure_anchor_eleven_to_thirty_two(self):
        step = ts.expansion(11)
        assert step.m_next == 32
        assert step.factor == 32 / 11

    def test_single_bit_doubles(self):
        assert ts.expansion(1) == (2, 2.0)

    def test_pure_form_683(self):
        step = ts.expansion(683)
        assert step.m_next == 2048
        assert abs(step.factor - float(Fraction(2048, 683))) < 1e-15

    @given(st.integers(1, 10**7))
    @settings(max_examples=200, deadline=None)
    def test_factor_respects_the_guaranteed_floor(self, m):
        step = ts.expansion(m)
        floor = ts.expansion_floor(ts.decompose(m).top)
        assert step.factor >= floor - 1e-12

    def test_factor_approaches_three(self):
        assert ts.expansion(ts.base_value(10)).factor > 2.99999

    def test_floor_matches_the_float_quotient_wherever_that_is_finite(self):
        # 4**top converts to a float up to top = 511.
        for top in range(512):
            quotient = 3.0 * (top + 1) / (2.0 * 4**top)
            assert ts.expansion_floor(top) == 3.0 / (1.0 + quotient), top

    @pytest.mark.parametrize("top", [511, 512, 10**6])
    def test_floor_is_three_at_large_tops(self, top):
        assert ts.expansion_floor(top) == 3.0

    def test_floor_of_a_400_digit_value(self):
        top = ts.decompose(10**400).top
        assert top == 664
        assert ts.expansion_floor(top) == 3.0


class TestQueryCountModel:
    def test_two_costs_one_query(self):
        assert ts.query_count_model(2) == (1, (1, 2))

    def test_ceil_log3_matches_powers(self):
        for q in range(12):
            assert ts.ceil_log3(3**q) == q
            assert ts.ceil_log3(3**q + 1) == q + 1

    @pytest.mark.parametrize("exponent", [1, 5, 10, 20])
    def test_overhead_is_small(self, exponent):
        n = 1 << exponent
        result = ts.query_count_model(n)
        assert result.queries <= ts.ceil_log3(n) + 3
        assert result.trace[-1] >= n

    @pytest.fixture(scope="class")
    def reference_counts(self):
        return {n: reference_query_count(n) for n in range(2, 20001)}

    @pytest.mark.parametrize("descending", [True, False])
    def test_matches_reference_in_either_call_order(
        self, reference_counts, descending, monkeypatch
    ):
        # From a chain of one known bit, so that every growth of it is
        # exercised: at once to the largest n, or one link at a time.
        monkeypatch.setattr(ts, "_CHAIN", (1,))
        for n, expected in sorted(reference_counts.items(), reverse=descending):
            assert ts.query_count_model(n) == expected, n


# Each call is valid input first, then the same value in a form the
# accounting functions must reject, so a memo of the valid call cannot
# answer the invalid one.
@pytest.mark.parametrize(
    "function,valid,invalid",
    [
        (ts.decompose, (5,), (5.0,)),
        (ts.decompose, (1,), (True,)),
        (ts.expansion, (11,), (11.0,)),
        (ts.query_count_model, (2,), (2.0,)),
        (ts.query_count_model, (3,), (2.5,)),
        (ts.query_count_model, (1 << 70,), (2.0**70,)),
        (ts.ceil_log3, (3,), (2.5,)),
        (ts.ceil_log3, (3,), (3.0,)),
        (ts.base_value, (1,), (-1,)),
        (ts.expansion_floor, (1,), (-1,)),
    ],
)
def test_accounting_rejects_non_integer_and_negative_input(function, valid, invalid):
    function(*valid)
    with pytest.raises(ValueError):
        function(*invalid)


def error_text(function, *args, **kwargs):
    with pytest.raises(ValueError) as raised:
        function(*args, **kwargs)
    return str(raised.value)


def cli_error_line(*args):
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code == 2
    return result.stderr.splitlines()[-1]


WIDE = SparseState.unit(TeamLabel(0, 0, 7))
POW2_AT_LEAST_2 = "interval size must be a power of two >= 2, got {}"
COMPUTER_COUNT = "computer count must be a power of two, got {}"
LIST_SIZE = "list size must be a power of two, got {}"
NOT_TILED = "list size {} is not a multiple of the sublist size {}"


# Pins the text of every size check, so that stating a check once cannot
# change what any caller sees.
@pytest.mark.parametrize(
    "call,expected",
    [
        (lambda: error_text(ts.apply_combine, WIDE, 3), POW2_AT_LEAST_2.format(3)),
        (lambda: error_text(ts.apply_combine, WIDE, 1), POW2_AT_LEAST_2.format(1)),
        (lambda: error_text(ts.apply_refine, WIDE, 6), POW2_AT_LEAST_2.format(6)),
        (lambda: error_text(ts.apply_refine, WIDE, 0), POW2_AT_LEAST_2.format(0)),
        (lambda: error_text(ts.team_knowledge_size, 3), COMPUTER_COUNT.format(3)),
        (lambda: error_text(ts.build_layout, 3), COMPUTER_COUNT.format(3)),
        (lambda: error_text(ts.TeamCombineAlgorithm, 6, r=2), NOT_TILED.format(6, 4)),
        (lambda: error_text(ts.TeamCombineAlgorithm, 8, r=3), COMPUTER_COUNT.format(3)),
        (lambda: error_text(ts.BinarySearchAlgorithm, 6), LIST_SIZE.format(6)),
        (lambda: error_text(ts.known_bits_after, 6, 1), LIST_SIZE.format(6)),
        (
            lambda: error_text(ts.classical_binary_search, OrderedInstance(6, 1)),
            LIST_SIZE.format(6),
        ),
        (
            lambda: cli_error_line("trajectory", "--algo", "binary", "--n", "6"),
            "Error: " + LIST_SIZE.format(6),
        ),
    ],
    ids=[
        "apply_combine-3",
        "apply_combine-1",
        "apply_refine-6",
        "apply_refine-0",
        "team_knowledge_size-3",
        "build_layout-3",
        "TeamCombineAlgorithm-n6",
        "TeamCombineAlgorithm-r3",
        "BinarySearchAlgorithm-6",
        "known_bits_after-6",
        "classical_binary_search-6",
        "cli-trajectory-binary-6",
    ],
)
def test_size_check_messages(call, expected):
    assert call() == expected


NOT_AN_INTEGER = "{} must be an integer, got {!r}"


# A size is an int, as OrderedInstance's fields are: True would run as 1,
# and a float would reach the power-of-two bit test and raise TypeError.
@pytest.mark.parametrize(
    "function,args,kwargs,expected",
    [
        (ts.BinarySearchAlgorithm, (True,), {}, ("list size", True)),
        (ts.BinarySearchAlgorithm, (4.0,), {}, ("list size", 4.0)),
        (ts.TeamCombineAlgorithm, (8,), {"r": True}, ("computer count", True)),
        (ts.TeamCombineAlgorithm, (8.0,), {}, ("list size", 8.0)),
        (ts.TeamCombineAlgorithm, (8.0,), {"r": 4}, ("list size", 8.0)),
        (ts.default_team_size, (32.0,), {}, ("list size", 32.0)),
        (ts.build_layout, (True,), {}, ("computer count", True)),
        (ts.team_knowledge_size, (2.0,), {}, ("computer count", 2.0)),
        (ts.known_bits_after, (8.0, 1), {}, ("list size", 8.0)),
        (ts.apply_combine, (WIDE, 8.0), {}, ("interval size", 8.0)),
        (ts.apply_refine, (WIDE, True), {}, ("interval size", True)),
    ],
)
def test_power_of_two_arguments_refuse_non_integers(function, args, kwargs, expected):
    assert error_text(function, *args, **kwargs) == NOT_AN_INTEGER.format(*expected)
