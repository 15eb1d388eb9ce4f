"""Sparse complex state vectors over structured basis labels.

A state is a finite map from basis labels to complex amplitudes. Two label
families cover the two search models implemented in this package:

* ``GenLabel(z, i)``: a non-negative workspace tag ``z`` together with the
  oracle index ``i`` the label currently queries. Both fields are unbounded,
  so states live in a countably infinite basis and a dense array would not do.
* ``TeamLabel(b, lo, hi)``: a marker bit plus an inclusive, dyadically
  aligned interval of list positions, used by the team-search algorithm.

Labels are validated named tuples, so hashing and equality run in C; a
``GenLabel`` never equals a ``TeamLabel`` (their arities differ). States are
immutable; every operation returns a new state. Amplitudes with magnitude
below ``PRUNE_EPS`` are dropped at construction so that genuine zeros
produced by interference do not linger as float dust. Labels carry a total
order, which makes iteration and serialization deterministic.

An :class:`Ensemble` holds one state per answer as flat entry arrays, so an
instance-independent operator is evaluated once per distinct label rather
than once per (answer, label); its operations give, entry for entry, the
bits of the per-state operations.
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

Amplitude = complex


class NormDriftError(ValueError):
    """An operator declared unitary failed to preserve the 2-norm."""


class CollisionError(ValueError):
    """A label permutation mapped two distinct labels onto the same image."""


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


class GenLabel(namedtuple("GenLabel", "z i")):
    """Basis label ``(z, i)``: workspace tag ``z``, queried index ``i``."""

    __slots__ = ()

    def __new__(cls, z: int, i: int):
        if z < 0 or i < 0:
            raise ValueError(f"GenLabel fields must be non-negative, got {z};{i}")
        return tuple.__new__(cls, (z, i))

    @property
    def sort_key(self) -> tuple:
        return (0, self.z, self.i)

    def __str__(self) -> str:
        return f"{self.z};{self.i}"


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
        return (1, self.b, self.lo, self.hi)

    def __str__(self) -> str:
        return f"{self.b}|{self.lo},{self.hi}"


BasisLabel = GenLabel | TeamLabel


class SparseState:
    """Immutable sparse state: a finite label -> amplitude map.

    Construction prunes entries with magnitude below ``PRUNE_EPS``, raises
    ``ValueError`` when an amplitude or the squared 2-norm is not finite, and
    sets ``normalized`` when the squared 2-norm is within ``NORM_TOL`` of one.
    """

    __slots__ = ("_entries", "_norm_sq", "normalized")

    def __init__(self, entries: Mapping[BasisLabel, complex]):
        kept: dict[BasisLabel, complex] = {}
        for label, amp in entries.items():
            a = complex(amp)
            # Written so that NaN is kept, to fail the finiteness check below.
            if not abs(a) < PRUNE_EPS:
                kept[label] = a
        self._entries = kept
        self._norm_sq = math.fsum(
            a.real * a.real + a.imag * a.imag for a in kept.values()
        )
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
        cls, entries: dict[BasisLabel, complex], source: "SparseState"
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

    def items(self) -> list[tuple[BasisLabel, complex]]:
        """Entries in canonical (sorted) label order."""
        return sorted(self._entries.items(), key=lambda kv: kv[0].sort_key)

    def labels(self) -> list[BasisLabel]:
        return [label for label, _ in self.items()]

    def amplitude(self, label: BasisLabel) -> complex:
        return self._entries.get(label, 0j)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, label: BasisLabel) -> bool:
        return label in self._entries

    def squared_norm(self) -> float:
        return self._norm_sq

    def norm(self) -> float:
        return math.sqrt(self._norm_sq)

    def dump(self) -> str:
        """Canonical text form: one ``label TAB re TAB im`` line per entry."""
        lines = [
            f"{label}\t{amp.real:.17g}\t{amp.imag:.17g}" for label, amp in self.items()
        ]
        return "".join(line + "\n" for line in lines)

    def __repr__(self) -> str:
        return f"SparseState({len(self)} labels, norm={self.norm():.6g})"


def inner_product(s1: SparseState, s2: SparseState) -> complex:
    """<s1|s2> = sum over shared labels of conj(amp1) * amp2."""
    small, big, flip = s1, s2, False
    if len(s2) < len(s1):
        small, big, flip = s2, s1, True
    total = 0j
    for label, amp in small._entries.items():
        other = big._entries.get(label)
        if other is not None:
            total += amp.conjugate() * other if not flip else other.conjugate() * amp
    return total


def diff_norm(s1: SparseState, s2: SparseState) -> float:
    """2-norm of the difference of two states."""
    labels = set(s1._entries) | set(s2._entries)
    return math.sqrt(
        math.fsum(abs(s1.amplitude(l) - s2.amplitude(l)) ** 2 for l in labels)
    )


def apply_diagonal_phase(
    s: SparseState, phase_of: Callable[[BasisLabel], int]
) -> SparseState:
    """Multiply every amplitude by the label's sign (+1 or -1).

    Exactly norm-preserving: the only arithmetic is sign flips.
    """
    out: dict[BasisLabel, complex] = {}
    for label, amp in s._entries.items():
        sign = phase_of(label)
        if sign not in (1, -1):
            raise ValueError(f"phase function must return +1 or -1, got {sign!r}")
        out[label] = amp if sign == 1 else -amp
    return SparseState._relabelled(out, s)


def apply_linear(
    s: SparseState,
    op: Callable[[BasisLabel], Iterable[tuple[BasisLabel, complex]]],
) -> SparseState:
    """Apply a unitary operator given by the image of each basis label.

    ``op`` maps a label to a finite list of (label, coefficient) pairs. A
    2-norm drift beyond ``NORM_TOL`` raises :class:`NormDriftError`.
    """
    acc: dict[BasisLabel, complex] = {}
    get = acc.get
    # ``amp * coeff`` promotes a real ``coeff`` exactly as complex(coeff)
    # would, so no explicit conversion is needed for the same bits.
    for label, amp in s._entries.items():
        for out_label, coeff in op(label):
            acc[out_label] = get(out_label, 0j) + amp * coeff
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
    summed squared magnitude of its labels. The input must be normalized.
    """
    if not s.normalized:
        raise _unnormalized_error(s.squared_norm())
    probs: dict = {}
    for label, amp in s.items():
        tag = classify(label)
        probs[tag] = probs.get(tag, 0.0) + abs(amp) ** 2
    return probs


# ---------------------------------------------------------------------------
# Ensembles: one state per answer, evolved together


class Ensemble(NamedTuple):
    """One sparse state per answer ``0 .. size-1``, held as entry arrays.

    Entry ``e`` is the amplitude ``amps[e]`` of answer ``answers[e]`` on the
    label ``labels[label_ids[e]]``. No (label, answer) pair repeats, every
    label in ``labels`` is held by some entry, and entries have no set order.
    """

    size: int
    labels: list
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
        return cls(
            len(states),
            list(ids),
            np.array(label_ids, dtype=np.intp),
            np.array(answers, dtype=np.intp),
            np.array(amps, dtype=complex),
        )

    @classmethod
    def single(cls, state: SparseState, size: int, answer: int) -> "Ensemble":
        """The ensemble whose answer ``answer`` holds ``state``.

        Every other answer ``0 .. size-1`` holds the empty state, so an
        operator that reads ``size`` (the oracle's list size) sees the
        full list while only one state is evolved.
        """
        ensemble = cls.from_states([state])
        return ensemble._replace(size=size, answers=ensemble.answers + answer)

    @classmethod
    def broadcast(cls, state: SparseState, size: int) -> "Ensemble":
        """The ensemble whose every answer ``0 .. size-1`` holds ``state``."""
        labels = list(state._entries)
        return cls(
            size,
            labels,
            np.repeat(np.arange(len(labels)), size),
            np.tile(np.arange(size), len(labels)),
            np.repeat(np.array(list(state._entries.values()), dtype=complex), size),
        )


def _squared_norms(size: int, answers: np.ndarray, amps: np.ndarray) -> np.ndarray:
    return np.bincount(
        answers, amps.real * amps.real + amps.imag * amps.imag, minlength=size
    )


def _first_of_runs(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the entries that start a run of equal values."""
    first = np.ones(len(sorted_values), dtype=bool)
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=first[1:])
    return first


def apply_linear_ensemble(
    ens: Ensemble, op: Callable[[BasisLabel], Iterable[tuple[BasisLabel, complex]]]
) -> Ensemble:
    """:func:`apply_linear` on every state of ``ens``.

    ``op`` is called once per distinct label. Each entry expands into the
    terms ``amp * coeff`` of its label's image, and the terms of one
    (label, answer) pair are summed from zero, as the per-state accumulation
    does; with at most two terms per pair and real coefficients the sums are
    bit-equal to it. Pruning, the finiteness check and the norm-drift check
    hold per answer.
    """
    ids: dict = {}
    counts, image_ids, coeffs = [], [], []
    for label in ens.labels:
        image = op(label)
        counts.append(len(image))
        for out_label, coeff in image:
            image_ids.append(ids.setdefault(out_label, len(ids)))
            coeffs.append(coeff)
    counts = np.array(counts, dtype=np.intp)
    image_starts = np.cumsum(counts) - counts
    per_entry = counts[ens.label_ids]
    entry_starts = np.cumsum(per_entry) - per_entry
    # Expanded term t belongs to entry source[t] and is image term term[t].
    source = np.repeat(np.arange(len(per_entry)), per_entry)
    term = np.arange(len(source)) - np.repeat(
        entry_starts - image_starts[ens.label_ids], per_entry
    )
    keys = np.array(image_ids, dtype=np.intp)[term] * ens.size + ens.answers[source]
    terms = ens.amps[source] * np.array(coeffs)[term]

    order = np.argsort(keys, kind="stable")
    keys, terms = keys[order], terms[order]
    first = _first_of_runs(keys)
    group = np.cumsum(first) - 1
    keys = keys[first]
    amps = np.empty(len(keys), dtype=complex)
    amps.real = np.bincount(group, terms.real, minlength=len(keys))
    amps.imag = np.bincount(group, terms.imag, minlength=len(keys))

    # Written so that NaN is kept, to fail the finiteness check below.
    keep = ~(np.abs(amps) < PRUNE_EPS)
    label_ids, answers = np.divmod(keys[keep], ens.size)
    amps = amps[keep]
    norms_sq = _squared_norms(ens.size, answers, amps)
    finite = np.isfinite(norms_sq)
    if not finite.all():
        raise ValueError(
            f"amplitudes must be finite, got squared norm {norms_sq[~finite][0]}"
        )
    before = _squared_norms(ens.size, ens.answers, ens.amps)
    drift = float(np.abs(np.sqrt(norms_sq) - np.sqrt(before)).max(initial=0.0))
    if drift > NORM_TOL:
        raise NormDriftError(
            f"operator declared unitary drifted the norm by {drift:.3e}"
        )

    # Keep only the image labels some entry still holds; keys are sorted, so
    # their label ids are too.
    held = _first_of_runs(label_ids)
    images = list(ids)
    return Ensemble(
        ens.size,
        [images[k] for k in label_ids[held].tolist()],
        np.cumsum(held) - 1,
        answers,
        amps,
    )


def permute_ensemble(
    ens: Ensemble, image_of: Callable[[BasisLabel], BasisLabel]
) -> Ensemble:
    """Relabel every state of ``ens`` through ``image_of``; exact.

    ``image_of`` is called once per distinct label. Two labels of one answer
    with the same image raise :class:`CollisionError`.
    """
    ids: dict = {}
    image_ids = [ids.setdefault(image_of(label), len(ids)) for label in ens.labels]
    label_ids = np.array(image_ids, dtype=np.intp)[ens.label_ids]
    if len(ids) < len(ens.labels):
        # Labels sharing an image collide only where one answer holds both.
        keys = label_ids * ens.size + ens.answers
        keys = keys[np.argsort(keys, kind="stable")]
        repeated = keys[1:][keys[1:] == keys[:-1]]
        if len(repeated):
            image, answer = divmod(int(repeated[0]), ens.size)
            both = (label_ids == image) & (ens.answers == answer)
            prior, label = (ens.labels[k] for k in ens.label_ids[both][:2])
            raise CollisionError(
                f"labels {prior} and {label} of answer {answer} both map to "
                f"{list(ids)[image]}"
            )
    return ens._replace(labels=list(ids), label_ids=label_ids)
