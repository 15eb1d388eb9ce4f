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
two fields: entries are grouped through dense label ids times the span of
their answers.
"""
from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

# Magnitudes below this are treated as exact zeros.
PRUNE_EPS = 1e-15
# Tolerance for calling a state normalized and for unitarity drift checks.
NORM_TOL = 1e-9


class NormDriftError(ValueError):
    """An operator declared unitary failed to preserve the 2-norm."""


class CollisionError(ValueError):
    """A label permutation mapped two distinct labels onto the same image."""


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


class TeamLabel(namedtuple("TeamLabel", "b lo hi")):
    """Basis label ``(b, lo, hi)``: marker bit plus a dyadic interval.

    The interval is inclusive, has power-of-two length, and its low end is a
    multiple of that length (dyadic alignment).
    """

    __slots__ = ()

    def __new__(cls, b: int, lo: int, hi: int):
        if b not in (0, 1):
            raise ValueError(f"marker bit must be 0 or 1, got {b}")
        if not 0 <= lo <= hi:
            raise ValueError(f"need 0 <= lo <= hi, got lo={lo}, hi={hi}")
        length = hi - lo + 1
        if not _is_pow2(length):
            raise ValueError(f"interval length {length} is not a power of two")
        if lo % length != 0:
            raise ValueError(f"interval [{lo},{hi}] is not dyadically aligned")
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
            raise ValueError(f"query index must be non-negative, got {i}")
        return tuple.__new__(cls, (b, lo, hi, i))

    @property
    def sort_key(self) -> tuple:
        return (0, self.hi, self.lo, self.b, self.i)

    def __str__(self) -> str:
        return f"{self.b}|{self.lo},{self.hi};{self.i}"


BasisLabel = QueryLabel | TeamLabel


class SparseState:
    """Immutable sparse state: a finite label -> amplitude map.

    Amplitudes are stored as floats, and a complex one raises ``ValueError``.
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
                amp = float(amp)
            # Written so that NaN is kept, to fail the finiteness check below.
            if not abs(amp) < PRUNE_EPS:
                kept[label] = amp
        self._entries = kept
        self._norm_sq = math.fsum(a * a for a in kept.values())
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


def diff_norm(s1: SparseState, s2: SparseState) -> float:
    """2-norm of the difference of two states."""
    labels = set(s1._entries) | set(s2._entries)
    return math.sqrt(
        math.fsum((s1.amplitude(l) - s2.amplitude(l)) ** 2 for l in labels)
    )


def apply_diagonal_phase(
    s: SparseState, phase_of: Callable[[BasisLabel], int]
) -> SparseState:
    """Multiply every amplitude by the label's sign (+1 or -1).

    Exactly norm-preserving: the only arithmetic is sign flips.
    """
    out: dict[BasisLabel, float] = {}
    for label, amp in s._entries.items():
        sign = phase_of(label)
        if sign not in (1, -1):
            raise ValueError(f"phase function must return +1 or -1, got {sign!r}")
        out[label] = amp if sign == 1 else -amp
    return SparseState._relabelled(out, s)


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


def label_fields(labels: Sequence[BasisLabel]) -> np.ndarray:
    """The ``(5, len(labels))`` int64 fields of tuple labels, one column each.

    A label's column is its ``sort_key``: ``(QUERY, hi, lo, b, i)`` for a
    ``QueryLabel`` and ``(TEAM, b, lo, hi, 0)`` for a ``TeamLabel``, so the
    lexicographic order of columns is the ``sort_key`` order. A field
    beyond int64 raises ``OverflowError``.
    """
    rows = [label.sort_key for label in labels]
    return np.array(rows, dtype=np.int64).reshape(len(rows), 5).T.copy()


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


def _distinct_columns(fields: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The id of each column of ``fields`` among the distinct columns, and those.

    The distinct columns come in lexicographic order, from one ``np.lexsort``
    over the rows.
    """
    count = fields.shape[1]
    order = np.lexsort(fields[::-1])
    ordered = fields[:, order]
    first = np.ones(count, dtype=bool)
    first[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    ids = np.empty(count, dtype=np.intp)
    ids[order] = np.cumsum(first) - 1
    return ids, fields[:, order[first]]


class Ensemble(NamedTuple):
    """One sparse state per answer ``0 .. size-1``, held as arrays.

    Column ``k`` of the int64 ``fields`` (see :func:`label_fields`) is the
    ``k``-th distinct label. Entry ``e`` is the float64 amplitude ``amps[e]``
    of answer ``answers[e]`` on label column ``label_ids[e]``, and each
    column is held by some entry. The columns are distinct and in lexicographic
    order, which is the ``sort_key`` order of their labels, so a label id
    orders labels as ``sort_key`` does. The entries go label by label: with
    the answers holding entries spanning ``low .. low+count-1``, their keys
    ``label_ids * count + answers - low`` strictly increase, so no (label,
    answer) pair repeats, each label's entries are contiguous with their
    answers ascending, and each answer's entries come in label order. The
    constructors here establish both orders and every operation keeps them.
    """

    size: int
    fields: np.ndarray
    label_ids: np.ndarray
    answers: np.ndarray
    amps: np.ndarray

    @classmethod
    def from_states(cls, states: Sequence[SparseState]) -> "Ensemble":
        """The ensemble whose answer ``a`` holds ``states[a]``."""
        ids: dict = {}
        label_ids, answers, amps = [], [], []
        for answer, state in enumerate(states):
            for label, amp in state._entries.items():
                label_ids.append(ids.setdefault(label, len(ids)))
                answers.append(answer)
                amps.append(amp)
        rank, fields = _distinct_columns(label_fields(list(ids)))
        label_ids = rank[np.array(label_ids, dtype=np.intp)]
        answers = np.array(answers, dtype=np.intp)
        order = np.argsort(label_ids * len(states) + answers)
        return cls(
            len(states),
            fields,
            label_ids[order],
            answers[order],
            np.array(amps, dtype=float)[order],
        )


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
    return np.bincount(answers - low, amps * amps, minlength=count)


def _first_of_runs(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the entries that start a run of equal values."""
    first = np.ones(len(sorted_values), dtype=bool)
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=first[1:])
    return first


# A linear label map on the ensemble path takes the ``fields`` of the distinct
# labels and returns ``(counts, images, coeffs)``: label ``k`` has the
# ``counts[k]`` image terms that follow those of the labels before it, term
# ``t`` being the label column ``images[:, t]`` with coefficient ``coeffs[t]``.
# A permutation takes ``fields`` and returns the image columns.
FieldsMap = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


def apply_linear_ensemble(ens: Ensemble, op: FieldsMap) -> Ensemble:
    """:func:`apply_linear` on every state of ``ens``.

    ``op`` is called once, on the fields of every distinct label. Each entry
    expands into the terms ``amp * coeff`` of its label's image, and the
    terms of one (label, answer) pair are summed from zero, as the
    per-state accumulation does; with at most two terms per pair the sums
    are bit-equal to it, in either order. Complex ``coeffs`` raise
    ``ValueError``. Pruning, the finiteness check and the norm-drift check
    hold per answer, over the answers that hold entries.
    """
    counts, images, coeffs = op(ens.fields)
    if np.iscomplexobj(coeffs):
        raise ValueError("ensemble coefficients must be real, got complex ones")
    image_ids, image_fields = _distinct_columns(images)
    # Each label's run of entries expands image term by image term, so each
    # (label, term) is one ascending run of answers: expanded term t is image
    # term term[t] of entry source[t].
    run = np.bincount(ens.label_ids, minlength=len(counts))
    term_label = np.repeat(np.arange(len(counts)), counts)
    per_term = run[term_label]
    term = np.repeat(np.arange(len(per_term)), per_term)
    shift = np.cumsum(per_term) - per_term - (np.cumsum(run) - run)[term_label]
    source = np.arange(len(term)) - np.repeat(shift, per_term)
    label_ids, answers = image_ids[term], ens.answers[source]
    terms = ens.amps[source] * coeffs[term]
    # Sorted keys put the entries label by label, and the stable sort merges
    # the runs; dense image ids times the answer span stay far inside int64.
    low, count = _answer_span(ens.answers)
    keys = label_ids * count + (answers - low)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = _first_of_runs(keys)
    group = np.cumsum(first) - 1
    pair = order[first]
    label_ids, answers = label_ids[pair], answers[pair]
    # bincount gives int64 on empty input, whatever the weights.
    amps = np.bincount(group, terms[order], len(pair)).astype(float, copy=False)

    # Written so that NaN is kept, to fail the finiteness check below.
    keep = ~(np.abs(amps) < PRUNE_EPS)
    label_ids, answers, amps = label_ids[keep], answers[keep], amps[keep]
    norms_sq = _squared_norms(answers, amps, low, count)
    finite = np.isfinite(norms_sq)
    if not finite.all():
        raise ValueError(
            f"amplitudes must be finite, got squared norm {norms_sq[~finite][0]}"
        )
    before = _squared_norms(ens.answers, ens.amps, low, count)
    drift = float(np.abs(np.sqrt(norms_sq) - np.sqrt(before)).max(initial=0.0))
    if drift > NORM_TOL:
        raise NormDriftError(
            f"operator declared unitary drifted the norm by {drift:.3e}"
        )

    # Keep only the image labels some entry still holds.
    held = np.bincount(label_ids, minlength=len(image_fields[0])) > 0
    return Ensemble(
        ens.size, image_fields[:, held], (np.cumsum(held) - 1)[label_ids], answers, amps
    )


def permute_ensemble(
    ens: Ensemble, image_of: Callable[[np.ndarray], np.ndarray]
) -> Ensemble:
    """Relabel every state of ``ens`` through ``image_of``; exact.

    ``image_of`` is called once, on the fields of every distinct label. Two
    labels of one answer with the same image raise :class:`CollisionError`,
    which names them in label order.
    """
    image_ids, image_fields = _distinct_columns(image_of(ens.fields))
    label_ids = image_ids[ens.label_ids]
    low, count = _answer_span(ens.answers)
    keys = label_ids * count + (ens.answers - low)
    # Each label's entries stay one ascending run, which a stable sort merges.
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # Labels sharing an image collide only where one answer holds both.
    repeated = keys[~_first_of_runs(keys)]
    if len(repeated):
        image, offset = divmod(int(repeated[0]), count)
        answer = low + offset
        both = (label_ids == image) & (ens.answers == answer)
        prior, label = labels_of(ens.fields[:, ens.label_ids[both][:2]])
        [target] = labels_of(image_fields[:, [image]])
        raise CollisionError(
            f"labels {prior} and {label} of answer {answer} both map to {target}"
        )
    return Ensemble(
        ens.size, image_fields, label_ids[order], ens.answers[order], ens.amps[order]
    )
