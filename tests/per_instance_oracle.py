"""Per-instance references that only the tests call: the differential oracle
of the ensemble path and of the run-based overlap sums.

* :func:`from_states` gathers one ``SparseState`` per answer into the
  ``qcore.Ensemble`` that holds them, through :func:`label_fields`, so an
  ensemble operation can be checked against the per-state one it stands for;
  :func:`column_ids` gives each of its entries' label column.
* :func:`diff_norm` is the 2-norm of the difference of two states.
* :func:`_reference_weighted_overlap` and :func:`_reference_pairwise_drop`
  are the per-pair loops behind ``lowerbound.weighted_overlap`` and
  ``lowerbound.pairwise_drop``, over per-answer states.
* :func:`classical_binary_search` is the classical search that binary
  search runs in superposition: its answer and the indices it probes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from qordsearch.lowerbound import WeightSpec, _check_state_count, query_index
from qordsearch.oracle import OrderedInstance
from qordsearch.qcore import BasisLabel, Ensemble, SparseState, inner_product
from qordsearch.teamsearch import _require_pow2


def label_fields(labels: Sequence[BasisLabel]) -> np.ndarray:
    """The ``(5, len(labels))`` int64 fields of tuple labels, one column each.

    A label's column is its ``sort_key``: ``(QUERY, hi, lo, b, i)`` for a
    ``QueryLabel`` and ``(TEAM, b, lo, hi, 0)`` for a ``TeamLabel``, so the
    lexicographic order of columns is the ``sort_key`` order. A field
    beyond int64 raises ``OverflowError``.
    """
    rows = [label.sort_key for label in labels]
    return np.array(rows, dtype=np.int64).reshape(len(rows), 5).T.copy()


def from_states(states: Sequence[SparseState]) -> Ensemble:
    """The ensemble whose answer ``a`` holds ``states[a]``."""
    ids: dict = {}
    label_ids, answers, amps = [], [], []
    for answer, state in enumerate(states):
        for label, amp in state._entries.items():
            label_ids.append(ids.setdefault(label, len(ids)))
            answers.append(answer)
            amps.append(amp)
    # The labels are distinct: a label's id is its rank in sort_key order.
    fields = label_fields(list(ids))
    by_key = np.lexsort(fields[::-1])
    rank = np.empty_like(by_key)
    rank[by_key] = np.arange(len(by_key))
    fields = fields[:, by_key]
    label_ids = rank[np.array(label_ids, dtype=np.intp)]
    answers = np.array(answers, dtype=np.intp)
    order = np.argsort(label_ids * len(states) + answers)
    return Ensemble.counted(
        len(states),
        fields,
        np.bincount(label_ids, minlength=len(ids)),
        answers[order],
        np.array(amps, dtype=float)[order],
    )


def column_ids(ensemble: Ensemble) -> np.ndarray:
    """Each entry's label column, expanded from ``ensemble.column_sizes``."""
    sizes = ensemble.column_sizes
    return np.arange(len(sizes)).repeat(sizes)


def diff_norm(s1: SparseState, s2: SparseState) -> float:
    """2-norm of the difference of two states."""
    labels = set(s1._entries) | set(s2._entries)
    return math.sqrt(
        math.fsum((s1.amplitude(l) - s2.amplitude(l)) ** 2 for l in labels)
    )


def _reference_weighted_overlap(
    states: Sequence[SparseState], w: WeightSpec
) -> float:
    """Per-pair loop form of ``lowerbound.weighted_overlap``."""
    _check_state_count(len(states), w)
    total = 0.0
    for a in range(w.n):
        for b in range(w.n):
            wt = w.kernel[b - a + w.n - 1]
            if wt != 0.0:
                total += wt * inner_product(states[a], states[b])
    return total


def _reference_pairwise_drop(states: Sequence[SparseState], w: WeightSpec) -> float:
    """Per-pair loop form of ``lowerbound.pairwise_drop``."""
    n = len(states)
    total = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            wt = w.kernel[b - a + w.n - 1]
            if wt == 0.0:
                continue
            overlap = 0.0
            for label, amp in states[a].items():
                if a <= query_index(label) < b:
                    overlap += amp * states[b].amplitude(label)
            total += wt * overlap
    return 2.0 * total


@dataclass(frozen=True)
class SearchTrace:
    """Classical binary-search run: the answer and the probed indices.

    What the run explicitly knows after ``j`` queries does not depend on the
    instance: it is ``teamsearch.known_bits_after(n, j)``.
    """

    answer: int
    queried: tuple[int, ...]


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
