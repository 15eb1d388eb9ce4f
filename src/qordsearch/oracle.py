"""Ordered-search problem instances and the diagonal query operator.

An instance of size ``n`` is the monotone bit string with a single threshold:
``bit(i) = 1`` exactly when ``answer <= i < n``, and ``bit(i) = 0`` for every
``i >= n`` (the string is padded with an infinite tail of zeros, so querying
far indices is an identity). There are exactly ``n`` instances per size, one
per answer in ``0 .. n-1``.

A query multiplies the amplitude of each ``GenLabel(z, i)`` by ``(-1)**bit(i)``.
It is diagonal, self-inverse, and commutes with every other query.
:func:`apply_query_ensemble` queries every answer's state of an ensemble at
once, each with its own instance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import GEN, Ensemble, GenLabel, SparseState, labels_of


@dataclass(frozen=True)
class OrderedInstance:
    """Sorted list of length ``n`` whose leftmost 1 sits at ``answer``."""

    n: int
    answer: int

    def __post_init__(self):
        for name in ("n", "answer"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise ValueError(f"list length must be positive, got {self.n}")
        if not 0 <= self.answer < self.n:
            raise ValueError(
                f"answer must lie in [0, {self.n - 1}], got {self.answer}"
            )

    def bit(self, i: int) -> int:
        """Value of the list at index ``i`` (0 beyond the list)."""
        if i < 0:
            raise ValueError(f"bit index must be non-negative, got {i}")
        return 1 if self.answer <= i < self.n else 0


def enumerate_instances(n: int) -> list[OrderedInstance]:
    """All ``n`` instances of size ``n``, in increasing answer order."""
    if n < 1:
        raise ValueError(f"list length must be positive, got {n}")
    return [OrderedInstance(n, a) for a in range(n)]


def _not_a_gen_label(label) -> TypeError:
    """The error of querying a state that holds ``label``."""
    return TypeError(f"apply_query acts on GenLabel states only, found {label!r}")


def apply_query(state: SparseState, inst: OrderedInstance) -> SparseState:
    """One oracle query: phase ``(-1)**bit(i)`` on every ``GenLabel(z, i)``.

    Labels with ``i >= n`` are untouched (zero padding). Team-search labels
    are rejected; those states are queried through their own operator. A
    sign flip moves no magnitude, so the result reuses the input's norm.
    """
    n, answer = inst.n, inst.answer
    out: dict[GenLabel, complex] = {}
    for label, amp in state._entries.items():
        if not isinstance(label, GenLabel):
            raise _not_a_gen_label(label)
        out[label] = -amp if answer <= label.i < n else amp
    return SparseState._relabelled(out, state)


def apply_query_ensemble(ensemble: Ensemble) -> Ensemble:
    """:func:`apply_query` on each answer's state, with that answer's instance.

    Answer ``a`` flips the sign of its entries whose label queries an index
    ``i`` with ``a <= i < size``, read off the label fields; every label must
    be a ``GenLabel``.
    """
    kind, _, index, _ = ensemble.fields
    not_gen = kind != GEN
    if not_gen.any():
        [label] = labels_of(ensemble.fields[:, [int(np.argmax(not_gen))]])
        raise _not_a_gen_label(label)
    queried = index[ensemble.label_ids]
    flip = (ensemble.answers <= queried) & (queried < ensemble.size)
    return ensemble._replace(amps=np.where(flip, -ensemble.amps, ensemble.amps))
