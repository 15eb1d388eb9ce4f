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
"""
from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, Iterable, Mapping

# Magnitudes below this are treated as exact zeros.
PRUNE_EPS = 1e-15
# Tolerance for calling a state normalized and for unitarity drift checks.
NORM_TOL = 1e-9

Amplitude = complex


class NormDriftError(ValueError):
    """An operator declared unitary failed to preserve the 2-norm."""


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
    unitary: bool = False,
) -> SparseState:
    """Apply a linear operator given by the image of each basis label.

    ``op`` maps a label to a finite list of (label, coefficient) pairs.
    When the caller declares the operator ``unitary``, a 2-norm drift beyond
    ``NORM_TOL`` raises :class:`NormDriftError`.
    """
    acc: dict[BasisLabel, complex] = {}
    for label, amp in s._entries.items():
        for out_label, coeff in op(label):
            acc[out_label] = acc.get(out_label, 0j) + amp * complex(coeff)
    result = SparseState(acc)
    if unitary:
        drift = abs(result.norm() - s.norm())
        if drift > NORM_TOL:
            raise NormDriftError(
                f"operator declared unitary drifted the norm by {drift:.3e}"
            )
    return result


def measure_distribution(
    s: SparseState, classify: Callable[[BasisLabel], object]
) -> dict:
    """Outcome distribution of a computational-basis measurement.

    Labels are grouped by ``classify``; the probability of an outcome is the
    summed squared magnitude of its labels. The input must be normalized.
    """
    if not s.normalized:
        raise ValueError(
            f"measure_distribution requires a normalized state "
            f"(squared norm {s.squared_norm():.12g})"
        )
    probs: dict = {}
    for label, amp in s.items():
        tag = classify(label)
        probs[tag] = probs.get(tag, 0.0) + abs(amp) ** 2
    return probs
