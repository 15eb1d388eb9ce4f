"""Exact ordered search by a team of interfering classical-search branches.

Each basis state of a superposition is read as a classical searcher (a
"computer") that has narrowed the leftmost-1 position down to a dyadic
interval. A marker bit carries what the computer just learned. Three
operators drive one round:

* a marker mixer that puts interval-matched computers into the (0 +/- 1)
  basis, which is how two computers holding the same interval merge;
* a marker-directed refinement that halves an interval, keeping the lower
  half when the marker is 1 and the upper half when it is 0;
* a broadcast query in which every computer probes the midpoint of its own
  interval. The least-knowing computer receives the probed bit directly in
  its marker; all other computers receive it as a sign on their amplitude.
  It is a pair of steps around exactly one oracle call: the open step
  mixes the markers and routes each computer to a query-index label, the
  diagonal query runs once, and the close step routes back and mixes
  again, the standard inversion of phase kickback.

After the query, alternating refine/mix sweeps walk the interval sizes down
and collapse the team onto the exact answer position with probability one.
Binary search is the r = 1 case of the same operators: a team of one
computer whose every round is the bit-writing query on its own interval
followed by one refinement. Both steppable algorithms are data: opening
levels (interval length, marker, amplitude; binary search has the one level
of the whole list) and one ``_schedule``'s steps. Shared ``initial_state``
and ``advance`` run them for one instance of the algorithm's size; a shared
``initial_ensemble`` builds the starts of a contiguous answer range, which
:func:`ensemble_snapshots` evolves at once, and :func:`run_ensemble` reads
the outcome of every answer the final ensemble holds, with
:func:`run_algorithm`'s bits. The module also provides the classical
binary-search reference and what it knows after ``j`` queries
(:func:`known_bits_after`), the layouts that stagger that knowledge so that
one query multiplies every computer's known bits by a factor approaching
three, and the digit-decomposition accounting behind the query-count model,
one expansion chain walked from one known bit.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import oracle as oracle_mod
from .oracle import OrderedInstance, _require_int
from .qcore import (
    NORM_TOL,
    QUERY,
    TEAM,
    BasisLabel,
    CollisionError,
    Ensemble,
    QueryLabel,
    SparseState,
    TeamLabel,
    _answer_span,
    _group_columns,
    _is_pow2,
    _squared_norms,
    _unnormalized_error,
    apply_linear,
    labels_of,
    measure_distribution,
    require_fields,
    step_ensemble,
    tally,
)

_SQRT_HALF = 1.0 / math.sqrt(2.0)
# The mixer's coefficient on the marker-1 image of a label with marker b.
_MARKER_ONE_COEFFS = np.array([_SQRT_HALF, -_SQRT_HALF])
# The rows of label fields with the second and fourth swapped: a QueryLabel's
# (QUERY, hi, lo, b, i) reads (QUERY, b, lo, hi, i).
_SWAP_B_HI = np.array([0, 3, 2, 1, 4])
# Build labels without re-checking them: only for labels derived from a
# checked one by flipping its marker, taking a half of its interval, or
# routing it to or back from an index >= 0.
_TEAM = partial(tuple.__new__, TeamLabel)
_QUERY = partial(tuple.__new__, QueryLabel)


def _require_pow2(value: int, what: str, minimum: int = 1) -> None:
    """Reject a ``value`` that is not an int power of two of at least ``minimum``."""
    _require_int(value, what)
    if not _is_pow2(value) or value < minimum:
        at_least = f" >= {minimum}" if minimum > 1 else ""
        raise ValueError(f"{what} must be a power of two{at_least}, got {value}")


def require_int64_positions(n: int) -> None:
    """Reject a list size whose padding index ``n`` does not fit int64."""
    if n >= 1 << 63:
        raise ValueError(f"list size {n} is past int64: need n < 2**63")


def _require_sublists(n: int, r: int) -> None:
    """Reject a non-int ``n``, ``r`` not a power of two, or ``2r`` not dividing ``n``."""
    _require_int(n, "list size")
    _require_pow2(r, "computer count")
    if n % (2 * r) != 0:
        raise ValueError(f"list size {n} is not a multiple of the sublist size {2 * r}")


def _permute_labels(
    state: SparseState, image_of: Callable[[BasisLabel], BasisLabel]
) -> SparseState:
    """Relabel a state through an injective map; exact, no float arithmetic."""
    out: dict[BasisLabel, float] = {}
    for label, amp in state._entries.items():
        image = image_of(label)
        if image in out:
            prior = next(l for l in state._entries if image_of(l) == image)
            raise CollisionError(
                f"labels {prior} and {label} both map to {image}"
            )
        out[image] = amp
    return SparseState._relabelled(out, state)


# ---------------------------------------------------------------------------
# The three round operators


def _mix(label, s: int):
    """Image of one label under the marker mixer on intervals of length ``s``."""
    if isinstance(label, TeamLabel):
        b, lo, hi = label
        if hi - lo + 1 == s:
            # The partner differs from a checked label only in its marker.
            if b == 0:
                return [(label, _SQRT_HALF), (_TEAM((1, lo, hi)), _SQRT_HALF)]
            return [(_TEAM((0, lo, hi)), _SQRT_HALF), (label, -_SQRT_HALF)]
    return [(label, 1.0)]


def _mix_fields(fields: np.ndarray, s: int):
    """:func:`_mix` of every label column of ``fields``: ``(counts, images, coeffs)``.

    A matched label has two terms, on marker 0 then marker 1, each with
    coefficient sqrt(1/2) except the marker-1 label's own, -sqrt(1/2); every
    other label is its own image with coefficient 1.
    """
    kind, b, lo, hi, _ = fields
    match = (kind == TEAM) & (hi - lo == s - 1)
    counts = match + 1
    images = fields.repeat(counts, axis=1)
    coeffs = np.ones(images.shape[1])
    marker1 = counts.cumsum()[match] - 1
    marker0 = marker1 - 1
    images[1, marker0] = 0
    images[1, marker1] = 1
    coeffs[marker0] = _SQRT_HALF
    coeffs[marker1] = _MARKER_ONE_COEFFS[b[match]]
    return counts, images, coeffs


def apply_combine(state: SparseState, s: int) -> SparseState:
    """Marker mixer on intervals of length ``s``.

    ``(b, I) -> (|0> + (-1)^b |1>)/sqrt(2) (x) I`` for matching labels; all
    other labels pass through. Self-inverse on the matching block. Two
    computers holding the same interval with marker values 0 and ``bit``-sign
    interfere into the single computer ``(bit, I)``.
    """
    _require_pow2(s, "interval size", minimum=2)
    return apply_linear(state, lambda label: _mix(label, s))


def _halving(s: int) -> Callable[[BasisLabel], BasisLabel]:
    """Image of one label under the halving of intervals of length ``s``."""

    def image_of(label):
        if isinstance(label, TeamLabel):
            b, lo, hi = label
            if hi - lo + 1 == s:
                mid = lo + s // 2 - 1
                return _TEAM((0, lo, mid)) if b == 1 else _TEAM((0, mid + 1, hi))
        return label

    return image_of


def _halving_fields(fields: np.ndarray, s: int) -> np.ndarray:
    """:func:`_halving` of every label column of ``fields``."""
    kind, b, lo, hi, _ = fields
    match = (kind == TEAM) & (hi - lo == s - 1)
    lower = match & (b == 1)
    upper = match & (b == 0)
    halves = fields.copy()
    halves[1, match] = 0
    halves[3, lower] = lo[lower] + (s // 2 - 1)
    halves[2, upper] = hi[upper] - (s // 2 - 1)
    return halves


def apply_refine(state: SparseState, s: int) -> SparseState:
    """Marker-directed halving of intervals of length ``s``.

    Marker 1 selects the lower half, marker 0 the upper half; the marker is
    cleared. A label permutation: colliding images are a hard error.
    """
    _require_pow2(s, "interval size", minimum=2)
    return _permute_labels(state, _halving(s))


def _bitwrite_query(n: int, bitwrite_length: int):
    """The label maps on either side of the one-call broadcast query.

    Returns ``(open_query, close_query)``, two :func:`apply_linear`
    operators. ``open_query`` is the marker mixer on intervals of length
    ``bitwrite_length`` with every image routed to a ``QueryLabel`` whose
    index is the interval midpoint, except that the least-knowing computer's
    marker-0 branch parks at the padding index ``n`` where every instance
    answers 0. ``close_query`` unroutes and mixes again, inverting
    ``open_query``.
    """

    def routed_index(b: int, lo: int, hi: int) -> int:
        # Callers pass checked intervals of length >= 2.
        length = hi - lo + 1
        if length == bitwrite_length and b == 0:
            return n
        return lo + length // 2 - 1

    def route(label) -> QueryLabel:
        if not isinstance(label, TeamLabel):
            raise TypeError(f"expected a TeamLabel, got {label!r}")
        b, lo, hi = label
        i = routed_index(b, lo, hi)
        # Only a length-1 interval at 0 routes below 0, which the check refuses.
        return _QUERY((b, lo, hi, i)) if i >= 0 else QueryLabel(b, lo, hi, i)

    def unroute(label) -> TeamLabel:
        if not isinstance(label, QueryLabel):
            raise TypeError(f"expected a QueryLabel, got {label!r}")
        b, lo, hi, i = label
        if hi == lo or i != routed_index(b, lo, hi):
            raise ValueError(
                f"label {label} does not sit on its routed query index"
            )
        return _TEAM((b, lo, hi))

    def open_query(label):
        return [
            (route(image), coeff) for image, coeff in _mix(label, bitwrite_length)
        ]

    def close_query(label):
        return _mix(unroute(label), bitwrite_length)

    return open_query, close_query


def _bitwrite_fields(n: int, bitwrite_length: int):
    """:func:`_bitwrite_query`'s two maps on label fields, for the ensemble.

    Labels that the tuple maps refuse are found by array checks; the tuple
    map then raises its own error on the first of them.
    """
    open_query, close_query = _bitwrite_query(n, bitwrite_length)

    def routed_index(b, lo, hi):
        length = hi - lo + 1
        parked = (length == bitwrite_length) & (b == 0)
        return np.where(parked, n, lo + length // 2 - 1)

    def open_fields(fields):
        kind, _, lo, hi, _ = fields
        # Only a length-1 interval at 0 would route below index 0.
        require_fields((kind == TEAM) & ((lo > 0) | (hi > lo)), fields, open_query)
        counts, images, coeffs = _mix_fields(fields, bitwrite_length)
        # (TEAM, b, lo, hi, 0) to (QUERY, hi, lo, b, index), in place.
        images[1], images[3] = images[3], images[1].copy()
        _, hi, lo, b, _ = images
        images[0], images[4] = QUERY, routed_index(b, lo, hi)
        return counts, images, coeffs

    def close_fields(fields):
        kind, hi, lo, b, i = fields
        # A routed interval of length >= 2 on its routed index.
        sits = (kind == QUERY) & (lo < hi) & (i == routed_index(b, lo, hi))
        require_fields(sits, fields, close_query)
        team = fields[_SWAP_B_HI]
        team[0], team[4] = TEAM, 0
        return _mix_fields(team, bitwrite_length)

    return open_fields, close_fields


# One step of a round maps a state to a state. Each step names its operator
# only when it runs, so that rebinding the module's operators (as a tracer
# does) also reaches algorithms built before the rebinding. For the ensemble
# path, a step also carries its ``image(fields)``, the (counts, images,
# coefficients) of a pair mixer on label fields (see ``qcore.FieldsMap``). A
# refine step's is None: it rides on the close or combine step of its size
# before it, whose image it refines.


def _refined(mix, s: int):
    """The fields map ``mix`` followed by the halving of intervals of length ``s``.

    The halving renames image columns, one to one on those of length ``s``;
    a half can only land on a marker-0 image of length ``s/2`` that passes
    through the mix. Where one does, :class:`CollisionError` names the first
    such half in ``sort_key`` order and its first two images, in that order,
    as :func:`apply_refine` would on a state holding both. The check sees
    the mix's images before pruning, so an image whose every entry prunes
    still collides.
    """

    def image(fields):
        counts, images, coeffs = mix(fields)
        kind, b, lo, hi, _ = images
        if ((kind == TEAM) & (b == 0) & (hi - lo == s // 2 - 1)).any():
            _, ordered, lead = _group_columns(images)
            labels = ordered[:, lead[:-1]]
            order, halves, lead = _group_columns(_halving_fields(labels, s))
            if len(lead) - 1 < labels.shape[1]:
                # The first half that two labels map to, and those two.
                k = int(lead[np.argmax(lead[1:] - lead[:-1] > 1)])
                prior, label = labels_of(labels[:, order[k : k + 2]])
                [target] = labels_of(halves[:, [k]])
                raise CollisionError(f"labels {prior} and {label} both map to {target}")
        return counts, _halving_fields(images, s), coeffs

    return image


def _step(run, image) -> Callable[[SparseState], SparseState]:
    run.image = image
    return run


def _linear_step(label_map, fields_map) -> Callable[[SparseState], SparseState]:
    return _step(lambda state: apply_linear(state, label_map), fields_map)


def _refine_step(s: int) -> Callable[[SparseState], SparseState]:
    return _step(lambda state: apply_refine(state, s), None)


def _combine_step(s: int) -> Callable[[SparseState], SparseState]:
    run = lambda state: apply_combine(state, s)
    return _step(run, _refined(partial(_mix_fields, s=s), s))


def _halvings(size: int) -> list[int]:
    """``size, size/2, ..., 2`` for a power of two ``size``; empty below 2."""
    return [size >> k for k in range(size.bit_length() - 1)]


def _schedule(n: int, lengths, combine_sizes):
    """The steps opening query 0, and per query j the round after its call.

    Round ``j`` closes the bit-write query on intervals of length
    ``lengths[j]``, refines that length, mixes and refines at each size of
    ``combine_sizes[j]``, then opens query ``j + 1``. The only place a
    round is built: the team is one round with the combine sizes, binary
    search a round per interval length with none.
    """
    opens, closes = [], []
    for length in lengths:
        open_query, close_query = _bitwrite_query(n, length)
        open_fields, close_fields = _bitwrite_fields(n, length)
        opens.append(_linear_step(open_query, open_fields))
        closes.append(_linear_step(close_query, _refined(close_fields, length)))
    rounds = []
    for j, (length, sizes) in enumerate(zip(lengths, combine_sizes)):
        steps = [closes[j], _refine_step(length)]
        for size in sizes:
            steps += [_combine_step(size), _refine_step(size)]
        rounds.append(steps + opens[j + 1 : j + 2])
    return opens[:1], rounds


def _run_steps(steps, state: SparseState) -> SparseState:
    """``state`` through each of ``steps`` in turn."""
    for step in steps:
        state = step(state)
    return state


def _run_ensemble_steps(steps, ensemble: Ensemble, books=None):
    """:func:`_run_steps` on every answer at once, by each step's fields map;
    a step without one rides on the step before it. Returns the ensemble and
    its :class:`~qordsearch.qcore.Tally`.

    ``books`` is the tally of ``ensemble``, counted here when it is None.
    Each step hands the next the tally of its image: the root norms of the
    answers, summed as its own drift check summed them, which the next drift
    check compares against; the answer span, which stays that of the first
    step's input; and each label's entry count, which are its image runs,
    counted again from the entries after a step that prunes.
    """
    books = tally(ensemble) if books is None else books
    for step in steps:
        if step.image is not None:
            ensemble, books = step_ensemble(ensemble, step.image, books)
    return ensemble, books


# ---------------------------------------------------------------------------
# Knowledge layouts and opening states


@dataclass(frozen=True)
class KnowledgeLayout:
    """Per-computer explicitly known oracle bits (1-based positions, ascending).

    A bit is explicitly known to a computer if the computer can output its
    value with certainty whatever the instance. The layout staggers the
    computers across the sublists so that a single broadcast query upgrades
    every computer to full knowledge of the answer's sublist.
    """

    r: int
    n_list: int
    computers: tuple[tuple[int, ...], ...]

    def to_jsonable(self) -> dict:
        return {
            "r": self.r,
            "n_list": self.n_list,
            "computers": [list(bits) for bits in self.computers],
        }


def team_knowledge_size(r: int) -> int:
    """Explicitly known bits per computer in the canonical layout: base_value(log2 r)."""
    _require_pow2(r, "computer count")
    return base_value(r.bit_length() - 1)


def build_layout(r: int) -> KnowledgeLayout:
    """Canonical layout of ``r`` computers over a list of size ``2*r*r``.

    The list splits into ``r`` sublists of size ``2r``, and the layout is
    classical binary search staggered across them: in the sublist ``e``
    steps after its home sublist (cyclically), computer ``c`` knows what
    :func:`known_bits_after` gives on ``2r`` bits after ``e.bit_length()``
    queries (0 -> 0, 1 -> 1, {2, 3} -> 2, ...), offset to that sublist.
    """
    _require_pow2(r, "computer count")
    sublist = 2 * r
    computers = tuple(
        tuple(
            sublist * s + bit
            for s in range(r)
            for bit in known_bits_after(sublist, ((s - c) % r).bit_length())
        )
        for c in range(r)
    )
    return KnowledgeLayout(r=r, n_list=sublist * r, computers=computers)


def _opening_levels(r: int):
    """Per knowledge level of the opening: ``(length, marker, amplitude)``.

    Level 0 is the least-knowing computer, alone on the whole size-``2r``
    sublist with marker 0, which will receive the queried bit. Level
    ``j >= 1`` holds the size-``2r / 2**j`` block with marker 1 (it answers
    in sign) and ``2**(j-1)`` computers merged into it. Each computer
    carries probability mass 1/r.
    """
    for j in range(r.bit_length()):
        count = 1 if j == 0 else 1 << (j - 1)
        yield (2 * r) >> j, 0 if j == 0 else 1, math.sqrt(count / r)


def default_team_size(n: int) -> int:
    """Computer count for a full team run: n/2 up to n=8, else n = 2*r*r."""
    _require_int(n, "list size")
    if n in (2, 4, 8):
        return n // 2
    r = math.isqrt(n // 2)
    if 2 * r * r != n or not _is_pow2(r):
        raise ValueError(
            f"no canonical team size for list size {n}; need n in {{2,4,8}} "
            f"or n = 2*r*r with r a power of two"
        )
    return r


# ---------------------------------------------------------------------------
# Steppable algorithms for trajectory analysis


def _pinned_answer(label: BasisLabel) -> int:
    """The answer a final label names: the position of a length-1 interval."""
    if not isinstance(label, TeamLabel) or label.length != 1:
        raise ValueError(f"final labels should pin one position, got {label!r}")
    return label.lo


# Both algorithms run the rounds of :func:`_schedule`, from a state that its
# opening steps have opened. Each class binds ``initial_state``, ``advance``
# and ``initial_ensemble`` in its own body so that each can be traced by name.


def _require_list_size(self, inst: OrderedInstance) -> None:
    """Refuse an instance of another list size than the algorithm's."""
    if inst.n != self.n:
        raise ValueError(
            f"{type(self).__name__} is built for list size {self.n}, not {inst.n}"
        )


def _initial_state(self, inst: OrderedInstance) -> SparseState:
    """The state of ``inst`` entering query 0: per level of ``self._levels``,
    the block of its length that holds the answer, through the opening steps."""
    _require_list_size(self, inst)
    entries = {}
    for length, marker, amp in self._levels:
        lo = inst.answer // length * length
        entries[TeamLabel(marker, lo, lo + length - 1)] = amp
    return _run_steps(self._opening, SparseState(entries))


def _advance(self, j: int, state: SparseState, inst: OrderedInstance) -> SparseState:
    """Spend query ``j``: the oracle call, then the round's shared steps."""
    if not 0 <= j < self.num_queries:
        raise ValueError(
            f"{type(self).__name__} has {self.num_queries} steps, got step {j}"
        )
    _require_list_size(self, inst)
    return _run_steps(self._rounds[j], oracle_mod.apply_query(state, inst))


def _initial_ensemble(self, answers: range | None = None) -> Ensemble:
    """The ensemble of each of ``answers`` in its :meth:`initial_state`, others empty.

    Per level of ``self._levels``, each block of its length that meets the
    contiguous range ``answers`` (all by default) is a label, held by the
    answers it covers there; the opening's ensemble steps finish the start.
    A size past int64, an empty range, a step other than 1 or an answer off
    the list raises ``ValueError``: every label must be held by some answer.
    """
    require_int64_positions(self.n)
    answers = range(self.n) if answers is None else answers
    low, stop = answers.start, answers.stop
    if answers.step != 1 or not 0 <= low < stop <= self.n:
        raise ValueError(
            f"need a non-empty step-1 range in 0 .. {self.n}, got {answers!r}"
        )
    # The blocks of every level in one array, level by level: level j has
    # blocks[j] blocks of length[j] meeting the range, from the one at
    # lowest[j], and block k is the within[k]-th of its level[k].
    length, marker, amp = map(np.array, zip(*self._levels))
    lowest = low - low % length
    blocks = -((lowest - stop) // length)
    level = np.arange(len(blocks)).repeat(blocks)
    within = np.arange(len(level)) - (blocks.cumsum() - blocks)[level]
    fields = np.zeros((5, len(level)), dtype=np.int64)
    fields[0], fields[1] = TEAM, marker[level]
    fields[2] = lo = lowest[level] + within * length[level]
    fields[3] = lo + length[level] - 1
    # Distinct blocks in sort_key order, block lo .. hi held by answers
    # max(lo, low) .. min(hi, stop - 1): the entries go label by label.
    order = np.lexsort(fields[::-1])
    fields = fields[:, order]
    first = np.maximum(fields[2], low)
    counts = np.minimum(fields[3] + 1, stop) - first
    label_ids = np.repeat(np.arange(len(order)), counts)
    shift = np.cumsum(counts) - counts - first
    answers = np.arange(len(label_ids)) - shift[label_ids]
    amps = amp[level][order][label_ids]
    start = Ensemble(self.n, fields, label_ids, answers, amps)
    return _run_ensemble_steps(self._opening, start)[0]


def ensemble_snapshots(algorithm, ensemble: Ensemble):
    """``ensemble``, then the ensemble after each query and its round.

    From ``algorithm.initial_ensemble()`` these are the snapshots entering
    each query, then the final one. Each snapshot is one array set for all
    answers: the oracle call flips signs per answer, and each of the round's
    shared steps evaluates its map once, on the fields of the distinct labels.
    """
    yield ensemble
    books = None
    for j in range(algorithm.num_queries):
        # The queried ensemble goes straight in, so that no name here keeps
        # it alive once the round's first step has replaced it. The query
        # flips signs only, so the tally of one round's last step is the
        # tally of the next round's first input.
        ensemble, books = _run_ensemble_steps(
            algorithm._rounds[j], oracle_mod.apply_query_ensemble(ensemble), books
        )
        yield ensemble


class TeamCombineAlgorithm:
    """The one-query combine round as a steppable algorithm.

    The per-answer opening states stand in for knowledge acquired in earlier
    rounds (their preparation is outside this trace), so ``initial_state``
    takes the instance, and each answer starts on its blocks of
    :func:`_opening_levels`. The single ``advance`` spends the round's one
    oracle call; its steps close the query, refine the widest intervals
    (length ``2r``), then mix and refine at each length s = r, r/2, ..., 2,
    after which one length-1 interval at the answer holds all the mass.
    """

    initial_state = _initial_state
    advance = _advance
    initial_ensemble = _initial_ensemble

    def __init__(self, n: int, r: int | None = None):
        self.n = n
        self.r = default_team_size(n) if r is None else r
        _require_sublists(n, self.r)
        self.num_queries = 1
        self._levels = list(_opening_levels(self.r))
        self._opening, self._rounds = _schedule(n, [2 * self.r], [_halvings(self.r)])


class BinarySearchAlgorithm:
    """Classical binary search as a team of one computer (the r = 1 case).

    The state is one ``TeamLabel``: the interval that still holds the answer,
    with marker 0, at first the whole list. Round ``j`` is the combine
    round's bit-writing query on intervals of length ``n >> j``: opening
    splits the computer into a marker-0 branch parked on the padding index
    and a marker-1 branch probing the midpoint, closing turns the sign the
    probe picked up into the marker (1 when the probed bit is 1), and
    ``apply_refine`` keeps the half the marker names. Exact: the final
    measurement yields the answer with probability one after exactly
    log2(n) queries.
    """

    initial_state = _initial_state
    advance = _advance
    initial_ensemble = _initial_ensemble

    def __init__(self, n: int):
        _require_pow2(n, "list size")
        self.n = n
        self._levels = [(n, 0, 1.0)]
        lengths = _halvings(n)
        self.num_queries = len(lengths)
        self._opening, self._rounds = _schedule(n, lengths, [()] * len(lengths))


class SimulationResult(NamedTuple):
    answer: int
    probability: float
    queries: int


def run_algorithm(algorithm, inst: OrderedInstance) -> SimulationResult:
    """Evolve one instance to the end and measure the answer outcome."""
    state = algorithm.initial_state(inst)
    for j in range(algorithm.num_queries):
        state = algorithm.advance(j, state, inst)
    distribution = measure_distribution(state, _pinned_answer)
    answer, probability = max(distribution.items(), key=lambda kv: kv[1])
    return SimulationResult(
        answer=answer, probability=probability, queries=algorithm.num_queries
    )


def measure_ensemble(algorithm, ensemble: Ensemble) -> list[SimulationResult]:
    """:func:`run_algorithm`'s measurement of each answer ``ensemble`` holds.

    The answers run from the lowest holding an entry to the highest, so one
    without entries in between fails as unnormalized. The rules are
    :func:`measure_distribution`'s and :func:`run_algorithm`'s, with the
    same bits: each answer must be normalized, every label must pin one
    position, which is its outcome (:func:`_pinned_answer` raises for the
    first that does not), an outcome's probability is the sum of
    ``amp * amp`` over its labels in label sort order, and the most likely
    outcome wins, the first in that order on a tie.
    """
    answers, amps = ensemble.answers, ensemble.amps
    low, count = _answer_span(answers)
    norms_sq = _squared_norms(answers, amps, low, count)
    normalized = np.abs(norms_sq - 1.0) <= NORM_TOL
    if not normalized.all():
        raise _unnormalized_error(float(norms_sq[~normalized][0]))
    fields = ensemble.fields
    kind, _, pinned, hi, _ = fields
    require_fields((kind == TEAM) & (pinned == hi), fields, _pinned_answer)
    # Labels pinning one position share a dense outcome id. Each answer's
    # entries come in label id order, which is the label sort order: the
    # order of the per-state sums.
    outcomes, outcome_ids = np.unique(pinned, return_inverse=True)
    keys = outcome_ids[ensemble.label_ids] * count + (answers - low)
    keys, first, group = np.unique(keys, return_index=True, return_inverse=True)
    probabilities = np.bincount(group, amps * amps, minlength=len(keys))
    # Per answer, ascending, the most likely outcome, and the first to appear
    # on a tie.
    owners = keys % count
    best = np.lexsort((first, -probabilities, owners))
    best = best[np.unique(owners[best], return_index=True)[1]]
    found = outcomes[keys[best] // count].tolist()
    return [
        SimulationResult(answer=a, probability=p, queries=algorithm.num_queries)
        for a, p in zip(found, probabilities[best].tolist())
    ]


def run_ensemble(algorithm, answer: int | None = None) -> list[SimulationResult]:
    """:func:`run_algorithm` on every instance, evolved as one ensemble.

    With ``answer``, only that instance (:class:`OrderedInstance` checks
    it), evolved in an ensemble of the algorithm's list size.
    """
    if answer is None:
        answers = range(algorithm.n)
    else:
        OrderedInstance(algorithm.n, answer)
        answers = range(answer, answer + 1)
    for final in ensemble_snapshots(algorithm, algorithm.initial_ensemble(answers)):
        pass
    return measure_ensemble(algorithm, final)


# ---------------------------------------------------------------------------
# Classical reference and query accounting


@dataclass(frozen=True)
class SearchTrace:
    """Classical binary-search run: the answer and the probed indices.

    What the run explicitly knows after ``j`` queries does not depend on the
    instance: it is :func:`known_bits_after` ``(n, j)``.
    """

    answer: int
    queried: tuple[int, ...]


def known_bits_after(n: int, j: int) -> range:
    """Explicitly known 1-based positions after ``j`` classical queries: every
    ``(n >> j)``-th, ascending, the right ends of the intervals ``j`` probes leave."""
    _require_pow2(n, "list size")
    _require_int(j, "query count")
    if not 0 <= j <= n.bit_length() - 1:
        raise ValueError(f"query count {j} out of range for n={n}")
    return range(n >> j, n + 1, n >> j)


def classical_binary_search(inst: OrderedInstance) -> SearchTrace:
    """Halve the candidate interval on each probed bit; exactly log2(n) queries."""
    n = inst.n
    _require_pow2(n, "list size")
    lo, hi = 0, n - 1
    queried = []
    while lo < hi:
        mid = lo + (hi - lo + 1) // 2 - 1
        queried.append(mid)
        if inst.bit(mid):
            hi = mid
        else:
            lo = mid + 1
    return SearchTrace(answer=lo, queried=tuple(queried))


_DIGITS = frozenset(range(4))
_INT_ONLY = frozenset({int})
# Digit bytes 0..3 to the characters of a base-4 numeral.
_BASE4 = bytes.maketrans(bytes(range(4)), b"0123")


class Decomposition(bytes):
    """Digits of ``m`` in the base of values ``base_value(k)``, each digit <= 3.

    A decomposition is a ``bytes`` subclass holding its digits one byte each,
    low digit first: byte ``k`` multiplies ``base_value(k)``. It has no
    instance dict and no second object, so in CPython it takes a 33-byte
    header plus one byte per digit; it compares equal to, and hashes as, the
    ``bytes`` of its digits. Construction, unpickling included, copies the
    digits once and validates the copy; ``digits`` reads them as ints, and
    ``value`` and ``expanded`` read the digits as a base-4 numeral.
    """

    __slots__ = ()

    def __new__(cls, digits):
        digits = tuple(digits)
        if not digits or digits[-1] == 0:
            raise ValueError("digit vector must be non-empty with a nonzero top digit")
        # Set membership alone would pass 1.0 and True, which equal 1.
        if not _DIGITS.issuperset(digits) or set(map(type, digits)) != _INT_ONLY:
            raise ValueError(f"digits must be integers in 0..3, got {digits}")
        return super().__new__(cls, digits)

    def __repr__(self) -> str:
        return f"Decomposition(digits={self.digits})"

    def __reduce__(self):
        return type(self), (bytes(self),)

    @property
    def digits(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def top(self) -> int:
        return len(self) - 1

    def _base4(self) -> int:
        """B, the digits read as a base-4 numeral: the sum of d_k * 4**k."""
        return int(self[::-1].translate(_BASE4), 4)

    def value(self) -> int:
        """The sum of d_k * v_k, read off the digits: v_k = (2*4**k + 1)/3."""
        return (2 * self._base4() + sum(self)) // 3

    def expanded(self) -> int:
        """Each digit value v_k grows to 2*4**k = 3*v_k - 1 in one query round."""
        return 2 * self._base4()


def base_value(k: int) -> int:
    """The k-th digit value (2*4**k + 1)/3: 1, 3, 11, 43, 171, ..."""
    _require_int(k, "k")
    if k < 0:
        raise ValueError(f"digit index must be non-negative, got {k}")
    return (2 * 4**k + 1) // 3


def decompose(m: int) -> Decomposition:
    """Greedy digit expansion of ``m``, largest digit value first.

    Always reconstructs ``m`` exactly with digits capped at 3: ``m`` lies
    below the next value up, 4*v_top - 1, each remainder lies below the value
    it was divided by, and the unit digit value leaves no remainder. The cap
    is still checked, by the validation of :class:`Decomposition`.
    """
    _require_int(m, "m")
    if m < 1:
        raise ValueError(f"can only decompose positive integers, got {m}")
    # v_k <= m exactly when 4**k <= (3m - 1) // 2.
    value = base_value((((3 * m - 1) >> 1).bit_length() - 1) >> 1)
    digits = []
    remainder = m
    while value:  # v_(k-1) = (v_k + 1) / 4, and v_0 = 1 is the last
        digit, remainder = divmod(remainder, value)
        digits.append(digit)
        value = (value + 1) >> 2
    digits.reverse()
    return Decomposition(digits)


class ExpansionStep(NamedTuple):
    m_next: int
    factor: float


def expansion_floor(top: int) -> float:
    """Guaranteed expansion factor for decompositions with top digit ``top``."""
    _require_int(top, "top")
    if top < 0:
        raise ValueError(f"top digit index must be non-negative, got {top}")
    # 3*(top + 1) / (2*4**top), scaled by a power of two: 4**top overflows a
    # float from top = 512, where the term is long past 0.
    return 3.0 / (1.0 + math.ldexp(3.0 * (top + 1), -(2 * top + 1)))


def expansion(m: int) -> ExpansionStep:
    """Known bits after one more query round: each digit value grows to 2*4**k."""
    decomposition = decompose(m)
    m_next = decomposition.expanded()
    return ExpansionStep(m_next=m_next, factor=m_next / m)


def ceil_log3(n: int) -> int:
    """Smallest q with 3**q >= n, computed in exact integer arithmetic."""
    _require_int(n, "n")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    q, power = 0, 1
    while power < n:
        q += 1
        power *= 3
    return q


class QueryCount(NamedTuple):
    queries: int
    trace: tuple[int, ...]


# The expansion chain from one known bit does not depend on the list size it
# is walked to, so it is kept (as a tuple, replaced whole when it grows) and
# each call reads its answer off it.
_CHAIN: tuple[int, ...] = (1,)


def query_count_model(n: int) -> QueryCount:
    """Iterate the expansion from one known bit until ``n`` is covered."""
    global _CHAIN
    _require_int(n, "n")
    if n < 2:
        raise ValueError(f"query accounting needs n >= 2, got {n}")
    chain = _CHAIN
    if chain[-1] < n:
        grown = list(chain)
        while grown[-1] < n:
            grown.append(expansion(grown[-1]).m_next)
        chain = _CHAIN = tuple(grown)
    queries = bisect_left(chain, n)  # the chain strictly increases
    return QueryCount(queries=queries, trace=chain[: queries + 1])
