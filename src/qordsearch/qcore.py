"""Sparse state vectors over structured basis labels.

A state is a finite map from basis labels to real amplitudes. Two label
families cover the two search models implemented in this package:

* ``TeamLabel(b, lo, hi)``: a marker bit plus an inclusive, dyadically
  aligned interval of list positions, used by the team-search algorithm.
* ``QueryLabel(b, lo, hi, i)``: such a checked interval routed to the
  oracle index ``i`` it queries. The index may lie anywhere past the list,
  in its zero padding, so states live in a countably infinite basis and a
  dense array would not do.

Labels are validated named tuples, so hashing and equality run in C; a
``QueryLabel`` never equals a ``TeamLabel`` (their arities differ). States
are immutable; every operation returns a new state. Amplitudes with
magnitude below ``PRUNE_EPS`` are dropped at construction so that genuine
zeros produced by interference do not linger as float dust. Labels carry a
total order, which makes iteration and serialization deterministic.

An :class:`Ensemble` holds one state per answer as flat entry arrays, and
its labels as int64 field arrays: one column per distinct label, which is
the label's ``sort_key``, ``(QUERY, hi, lo, b, i)`` for a ``QueryLabel``
and ``(TEAM, b, lo, hi, 0)`` for a ``TeamLabel``, so the lexicographic
order of the columns is the label order, the order they are kept in; the
entries are kept label by label. An instance-independent operator is one
numpy function of those fields, called once per step rather than once per
label or per (answer, label); the ensemble operations give, entry for
entry, the bits of the per-state operations. Every operator in use has
real coefficients (+/-sqrt(1/2), sign flips, relabellings), so amplitudes
are real on both paths: floats in a ``SparseState``, one float64 array in
an ``Ensemble``. A field beyond int64 does not fit, and no key multiplies
two fields: an entry's label is the column whose run of entries holds it.

The ensemble's one label operation, :func:`apply_linear_ensemble`, takes
the maps the algorithms' steps are made of, and refuses any other: a pair
mixer, in which each image label sums at most two terms and the two source
labels of a two-term image hold the same answers, as in the marker mixer
and every open, close and combine step. The image's entries are then one
gathered label run times its coefficient, plus a second such run. A
refinement, which relabels one to one, rides on the pair mixer before it
as a renaming of its image labels. The per-state operations take any map;
they run one instance (``teamsearch.run_algorithm``), and the tests check
the ensemble against them, gathering per-answer states into an ensemble
with ``tests/per_instance_oracle.py``. An ensemble carries its own books,
each label column's entry count and each answer's norm: a step reads its
input's and builds its image's from the sums its checks made, so that no
step counts again what the one before it summed.
"""
from __future__ import annotations

import math
from collections import namedtuple
from operator import mul
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

# Magnitudes below this are treated as exact zeros.
PRUNE_EPS = 1e-15
# Tolerance for calling a state normalized and for unitarity drift checks.
NORM_TOL = 1e-9
# Types refused as amplitudes, though float() reads all but None as a number.
_NOT_AMPLITUDES = (str, bytes, bytearray, bool, np.bool_, type(None))


class NormDriftError(ValueError):
    """An operator declared unitary failed to preserve the 2-norm."""


class CollisionError(ValueError):
    """A label permutation mapped two distinct labels onto the same image."""


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def _shown(value) -> str:
    """``oracle._shown``, imported only when a label check fails: ``oracle``
    imports this module."""
    from .oracle import _shown

    return _shown(value)


class TeamLabel(namedtuple("TeamLabel", "b lo hi")):
    """Basis label ``(b, lo, hi)``: marker bit plus a dyadic interval.

    The interval is inclusive, has power-of-two length, and its low end is a
    multiple of that length (dyadic alignment).
    """

    __slots__ = ()

    def __new__(cls, b: int, lo: int, hi: int):
        if b not in (0, 1):
            raise ValueError(f"marker bit must be 0 or 1, got {_shown(b)}")
        if not 0 <= lo <= hi:
            raise ValueError(
                f"need 0 <= lo <= hi, got lo={_shown(lo)}, hi={_shown(hi)}"
            )
        length = hi - lo + 1
        if not _is_pow2(length):
            raise ValueError(f"interval length {_shown(length)} is not a power of two")
        if lo % length != 0:
            raise ValueError(
                f"interval [{_shown(lo)},{_shown(hi)}] is not dyadically aligned"
            )
        return tuple.__new__(cls, (b, lo, hi))

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1

    @property
    def sort_key(self) -> tuple:
        # Padded to the five fields of a QueryLabel's key.
        return (1, self.b, self.lo, self.hi, 0)

    def __str__(self) -> str:
        return f"{self.b}|{self.lo},{self.hi}"


class QueryLabel(namedtuple("QueryLabel", "b lo hi i")):
    """Basis label ``(b, lo, hi, i)``: a ``TeamLabel``'s fields routed to index ``i``.

    The interval obeys the ``TeamLabel`` checks and the queried index ``i``
    is non-negative. Routed labels sort by ``hi``, then ``lo``, ``b`` and
    ``i``, ahead of every ``TeamLabel``.
    """

    __slots__ = ()

    def __new__(cls, b: int, lo: int, hi: int, i: int):
        TeamLabel(b, lo, hi)  # the interval checks
        if i < 0:
            raise ValueError(f"query index must be non-negative, got {_shown(i)}")
        return tuple.__new__(cls, (b, lo, hi, i))

    @property
    def sort_key(self) -> tuple:
        return (0, self.hi, self.lo, self.b, self.i)

    def __str__(self) -> str:
        return f"{self.b}|{self.lo},{self.hi};{self.i}"


BasisLabel = QueryLabel | TeamLabel


class SparseState:
    """Immutable sparse state: a finite label -> amplitude map.

    Amplitudes are stored as floats. A complex one raises ``ValueError``, and
    so do a ``str``, ``bytes``, ``bool`` and ``None``, which are not numbers
    although ``float()`` reads some of them as one.
    Construction prunes entries with magnitude below ``PRUNE_EPS``, raises
    ``ValueError`` when an amplitude or the squared 2-norm is not finite, and
    sets ``normalized`` when the squared 2-norm is within ``NORM_TOL`` of one.
    """

    __slots__ = ("_entries", "_norm_sq", "normalized")

    def __init__(self, entries: Mapping[BasisLabel, float]):
        kept: dict[BasisLabel, float] = {}
        for label, amp in entries.items():
            if type(amp) is not float:
                if isinstance(amp, (complex, np.complexfloating)):
                    raise ValueError(f"amplitudes must be real, got {amp!r} on {label}")
                if isinstance(amp, _NOT_AMPLITUDES):
                    raise ValueError(
                        f"amplitudes must be real numbers, got {amp!r} on {label}"
                    )
                amp = float(amp)
            # Written so that NaN is kept, to fail the finiteness check below.
            if not abs(amp) < PRUNE_EPS:
                kept[label] = amp
        self._entries = kept
        self._norm_sq = math.fsum(map(mul, kept.values(), kept.values()))
        if not math.isfinite(self._norm_sq):
            raise ValueError(
                f"amplitudes must be finite, got squared norm {self._norm_sq}"
            )
        self.normalized = abs(self._norm_sq - 1.0) <= NORM_TOL

    @classmethod
    def unit(cls, label: BasisLabel) -> "SparseState":
        return cls({label: 1.0})

    @classmethod
    def _relabelled(
        cls, entries: dict[BasisLabel, float], source: "SparseState"
    ) -> "SparseState":
        """State holding ``source``'s amplitudes up to relabelling and sign.

        ``entries`` must map distinct labels to ``a`` or ``-a`` for each
        amplitude ``a`` of ``source``, one to one. The magnitudes are then the
        same multiset, so nothing is pruned and the (order-independent) fsum
        of the squared norm is bit-equal: both are reused, not recomputed.
        """
        state = cls.__new__(cls)
        state._entries = entries
        state._norm_sq = source._norm_sq
        state.normalized = source.normalized
        return state

    def items(self) -> list[tuple[BasisLabel, float]]:
        """Entries in canonical (sorted) label order."""
        return sorted(self._entries.items(), key=lambda kv: kv[0].sort_key)

    def labels(self) -> list[BasisLabel]:
        return [label for label, _ in self.items()]

    def amplitude(self, label: BasisLabel) -> float:
        return self._entries.get(label, 0.0)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, label: BasisLabel) -> bool:
        return label in self._entries

    def squared_norm(self) -> float:
        return self._norm_sq

    def norm(self) -> float:
        return math.sqrt(self._norm_sq)

    def dump(self) -> str:
        """Canonical text form: one ``label TAB amplitude`` line per entry."""
        return "".join(f"{label}\t{amp:.17g}\n" for label, amp in self.items())

    def __repr__(self) -> str:
        return f"SparseState({len(self)} labels, norm={self.norm():.6g})"


# Only tests call this; it stays while bench/tracer.py installs a timer on it.
def inner_product(s1: SparseState, s2: SparseState) -> float:
    """<s1|s2> = sum over shared labels of amp1 * amp2.

    The sum is ``math.fsum``'s, rounded once, so it does not depend on the
    order of the terms and <s1|s2> equals <s2|s1> bit for bit.
    """
    if len(s2) < len(s1):
        s1, s2 = s2, s1
    other = s2._entries
    return math.fsum(
        amp * other[label] for label, amp in s1._entries.items() if label in other
    )


def apply_linear(
    s: SparseState,
    op: Callable[[BasisLabel], Iterable[tuple[BasisLabel, float]]],
) -> SparseState:
    """Apply a unitary operator given by the image of each basis label.

    ``op`` maps a label to a finite list of (label, real coefficient) pairs;
    a complex one makes a sum complex, which the result refuses. A 2-norm
    drift beyond ``NORM_TOL`` raises :class:`NormDriftError`.
    """
    acc: dict[BasisLabel, float] = {}
    get = acc.get
    for label, amp in s._entries.items():
        for out_label, coeff in op(label):
            acc[out_label] = get(out_label, 0.0) + amp * coeff
    result = SparseState(acc)
    drift = abs(math.sqrt(result._norm_sq) - math.sqrt(s._norm_sq))
    if drift > NORM_TOL:
        raise NormDriftError(
            f"operator declared unitary drifted the norm by {drift:.3e}"
        )
    return result


def _unnormalized_error(norm_sq: float) -> ValueError:
    """The error of measuring a state whose squared norm is ``norm_sq``."""
    return ValueError(
        f"measure_distribution requires a normalized state "
        f"(squared norm {norm_sq:.12g})"
    )


def measure_distribution(
    s: SparseState, classify: Callable[[BasisLabel], object]
) -> dict:
    """Outcome distribution of a computational-basis measurement.

    Labels are grouped by ``classify``; the probability of an outcome is the
    summed ``amp * amp`` of its labels. The input must be normalized.
    """
    if not s.normalized:
        raise _unnormalized_error(s.squared_norm())
    probs: dict = {}
    for label, amp in s.items():
        tag = classify(label)
        probs[tag] = probs.get(tag, 0.0) + amp * amp
    return probs


# ---------------------------------------------------------------------------
# Ensembles: one state per answer, evolved together

# The kinds of a label's fields, in ``sort_key`` order.
QUERY, TEAM = 0, 1


def labels_of(fields: np.ndarray) -> list[BasisLabel]:
    """The tuple labels of the columns of ``fields``, to print or inspect."""
    return [
        tuple.__new__(QueryLabel, (f2, f1, f0, f3))
        if kind == QUERY
        else tuple.__new__(TeamLabel, (f0, f1, f2))
        for kind, f0, f1, f2, f3 in fields.T.tolist()
    ]


def require_fields(ok: np.ndarray, fields: np.ndarray, label_map: Callable) -> None:
    """Raise what ``label_map`` raises on the first column of ``fields`` not ``ok``.

    An array map checks its labels with ``ok`` and leaves the error, type and
    message, to the tuple map it stands for, on the one label rebuilt.
    """
    if not ok.all():
        [label] = labels_of(fields[:, [int(np.argmin(ok))]])
        label_map(label)
        raise AssertionError(f"{label_map!r} takes {label!r}; its array form does not")


def _group_columns(
    fields: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns of ``fields`` in lexicographic order, grouped where equal:
    ``(order, ordered, lead)``.

    ``order[k]`` is the index of the k-th column in that order, from one
    ``np.lexsort`` over the rows, which keeps equal columns in index order;
    ``ordered`` is ``fields[:, order]``. The m-th distinct column is
    ``ordered[:, k]`` for ``lead[m] <= k < lead[m + 1]``, and ``lead`` ends
    with the column count.
    """
    order = np.lexsort(fields[::-1])
    ordered = fields[:, order]
    edges = np.empty(len(order) + 1, dtype=bool)
    edges[0] = edges[-1] = True
    np.logical_or.reduce(ordered[:, 1:] != ordered[:, :-1], out=edges[1:-1])
    return order, ordered, edges.nonzero()[0]


class Ensemble(NamedTuple):
    """One sparse state per answer ``0 .. size-1``, held as arrays.

    Column ``k`` of the int64 ``fields`` is the ``k``-th distinct label, as
    its ``sort_key``. The columns are distinct and in lexicographic order,
    which is the ``sort_key`` order of their labels. Entry ``e`` is the
    float64 amplitude ``amps[e]`` of answer ``answers[e]``, and the entries
    go label by label: the first ``column_sizes[0]`` are column 0's, the
    next ``column_sizes[1]`` column 1's, and so on, each column held by
    some entry. Within a column the answers strictly increase, so no
    (label, answer) pair repeats, and each answer's entries come in label
    order.

    ``norms`` holds the root norms of answers ``low .. low+len(norms)-1``,
    each summed in entry order, and every answer holding an entry lies in
    that span. :meth:`counted` counts them; a step keeps the span of its
    input, since its answers only ever thin out, and an answer that lost
    its entries holds a norm of zero. The constructors here establish these
    orders and every operation keeps them.
    """

    size: int
    fields: np.ndarray
    column_sizes: np.ndarray
    answers: np.ndarray
    amps: np.ndarray
    low: int
    norms: np.ndarray

    @classmethod
    def counted(
        cls,
        size: int,
        fields: np.ndarray,
        column_sizes: np.ndarray,
        answers: np.ndarray,
        amps: np.ndarray,
    ) -> "Ensemble":
        """The ensemble of these columns and entries, its answer span and
        norms counted from the entries."""
        low, count = _answer_span(answers)
        norms = np.sqrt(_squared_norms(answers, amps, low, count))
        return cls(size, fields, column_sizes, answers, amps, low, norms)


def _answer_span(answers: np.ndarray) -> tuple[int, int]:
    """The lowest answer holding an entry and the count up to the highest."""
    if not len(answers):
        return 0, 0
    low = int(answers.min())
    return low, int(answers.max()) - low + 1


def _squared_norms(
    answers: np.ndarray, amps: np.ndarray, low: int, count: int
) -> np.ndarray:
    """Squared norms of answers ``low .. low+count-1``, summed in entry order."""
    return np.bincount(answers - low if low else answers, amps * amps, minlength=count)


def _run_indices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices of runs, run after run: ``starts[k] .. starts[k] + lengths[k] - 1``."""
    ends = lengths.cumsum()
    indices = np.arange(int(ends[-1]) if len(ends) else 0)
    indices += (starts - ends + lengths).repeat(lengths)
    return indices


# A linear label map on the ensemble path takes the ``fields`` of the distinct
# labels and returns ``(counts, images, coeffs)``: label ``k`` has the
# ``counts[k]`` image terms that follow those of the labels before it, term
# ``t`` being the label column ``images[:, t]`` with coefficient ``coeffs[t]``.
# A relabelling after the map renames the ``images`` columns.
FieldsMap = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


def _not_a_pair_mixer(image_fields: np.ndarray, image: int, what: str) -> ValueError:
    """The ``ValueError`` of a map that is no pair mixer: the label of column
    ``image`` of ``image_fields``, then ``what`` is wrong with it."""
    [label] = labels_of(image_fields[:, [int(image)]])
    return ValueError(
        f"image label {label} {what}: apply_linear_ensemble takes pair mixers only"
    )


def apply_linear_ensemble(ens: Ensemble, op: FieldsMap) -> Ensemble:
    """:func:`apply_linear` on every state of ``ens``, for a pair mixer.

    ``op`` is called once, on the fields of every distinct label. It must be
    a pair mixer, as every linear step of the algorithms is, with or without
    the refinement riding on it: each image sums at most two terms, and the
    two source labels of a two-term image hold the same answers. Otherwise
    ``ValueError`` names the first image label, in ``sort_key`` order, with
    more than two terms; else the first whose source labels are held by
    different numbers of answers; else the first whose source labels are
    held by different answers. Complex ``coeffs`` raise it too.

    Each image's entries are its first source label's run of entries times
    the first coefficient, plus the second run times the second: two
    gathers and one add, with no sort, bit-equal to the per-state sum. A
    lone term of -0.0 stays -0.0 here, where the per-state sum from zero
    gives +0.0; both are pruned. Pruning, the finiteness check and the
    norm-drift check hold per answer, over the answers that hold entries.

    The image keeps the answer span of ``ens`` and holds the norms its
    drift check summed; its column sizes are the image runs, less what is
    pruned.
    """
    return _checked(ens, *_prune(*_pair_sums(ens, op)))


def _pair_sums(
    ens: Ensemble, op: FieldsMap
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The image columns of ``ens`` under the pair mixer ``op``, each one's
    entry count, and the entries' answers and summed amplitudes, unpruned;
    the per-label arrays behind them go with this frame."""
    counts, images, coeffs = op(ens.fields)
    if np.iscomplexobj(coeffs):
        raise ValueError("ensemble coefficients must be real, got complex ones")
    # The terms grouped by image label, the images in sort_key order: term
    # order holds within an image, so order[lead[m]] is image m's first term
    # and, for a two-term image, order[lead[m] + 1] its second.
    order, images, lead = _group_columns(images)
    terms = lead[1:] - lead[:-1]
    lead = lead[:-1]
    image_fields = images[:, lead]
    del images
    if len(terms) and terms.max() > 2:
        image = np.argmax(terms > 2)
        raise _not_a_pair_mixer(image_fields, image, f"sums {terms[image]} terms")
    two = terms == 2
    first, second = order[lead], order[lead[two] + 1]
    # Label k's entries are the run starts[k] .. starts[k] + sizes[k] - 1.
    sizes = ens.column_sizes
    starts = sizes.cumsum() - sizes
    source = np.arange(len(counts)).repeat(counts)
    head, tail = source[first], source[second]
    length, paired_length = sizes[head], sizes[tail]
    uneven = length[two] != paired_length
    if uneven.any():
        k = np.argmax(uneven)
        held = f"sums labels held by {length[two][k]} and {paired_length[k]} answers"
        raise _not_a_pair_mixer(image_fields, np.flatnonzero(two)[k], held)
    gather = _run_indices(starts[head], length)
    answers, amps = ens.answers[gather], ens.amps[gather]
    del gather
    paired = two.repeat(length)
    other = _run_indices(starts[tail], paired_length)
    differ = answers[paired] != ens.answers[other]
    if differ.any():
        image = np.arange(len(terms)).repeat(length)[paired][np.argmax(differ)]
        raise _not_a_pair_mixer(image_fields, image, "sums labels of different answers")
    del differ
    amps *= coeffs[first].repeat(length)
    paired_amps = ens.amps[other]
    del other
    paired_amps *= coeffs[second].repeat(paired_length)
    amps[paired] += paired_amps
    del paired, paired_amps
    return image_fields, length, answers, amps


def _prune(
    fields: np.ndarray, column_sizes: np.ndarray, answers: np.ndarray, amps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The columns and entries left once the entries whose amplitudes are
    below ``PRUNE_EPS`` in magnitude are dropped, and with them each column
    left without entries; the arguments themselves when none is dropped."""
    # NaN is not small, so it is kept, to fail the finiteness check.
    small = np.abs(amps) < PRUNE_EPS
    if not small.any():
        return fields, column_sizes, answers, amps
    keep = ~small
    del small
    # Column k keeps the entries kept from its start to the next one's;
    # every image column holds an entry, so no segment is empty.
    starts = column_sizes.cumsum() - column_sizes
    column_sizes = np.add.reduceat(keep, starts, dtype=column_sizes.dtype)
    held = column_sizes > 0
    return fields[:, held], column_sizes[held], answers[keep], amps[keep]


def _checked(
    ens: Ensemble,
    fields: np.ndarray,
    column_sizes: np.ndarray,
    answers: np.ndarray,
    amps: np.ndarray,
) -> Ensemble:
    """The image of ``ens`` with these columns and entries, checked against
    the norms of ``ens`` over its answer span: the finiteness check and the
    norm-drift check hold per answer."""
    low = ens.low
    norms_sq = _squared_norms(answers, amps, low, len(ens.norms))
    norms = np.sqrt(norms_sq)
    # A NaN or infinite norm makes the drift NaN or infinite.
    drift = float(np.abs(norms - ens.norms).max(initial=0.0))
    if not drift <= NORM_TOL:
        finite = np.isfinite(norms_sq)
        if not finite.all():
            raise ValueError(
                f"amplitudes must be finite, got squared norm {norms_sq[~finite][0]}"
            )
        if drift > NORM_TOL:
            raise NormDriftError(
                f"operator declared unitary drifted the norm by {drift:.3e}"
            )
    return Ensemble(ens.size, fields, column_sizes, answers, amps, low, norms)
