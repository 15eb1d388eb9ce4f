"""The round's tuple label maps as separate route, unroute, mix and halving
maps: the differential oracle of ``teamsearch._bitwrite_query``,
``teamsearch._mix`` and ``teamsearch._halving``.

They are the maps the per-instance steps ran before the open and close maps
routed and mixed a label in one call, slimmed: every label is built by its
checked constructor, and a refinement is a relabelling of its own. Each map
gives the images, coefficients (in their order) and errors those maps gave.
:func:`states` evolves one instance through them, with ``qcore.apply_linear``
and ``oracle.apply_query``, in the step order of ``teamsearch._schedule``.
"""
from __future__ import annotations

import math

from qordsearch.oracle import apply_query
from qordsearch.qcore import (
    CollisionError,
    QueryLabel,
    SparseState,
    TeamLabel,
    apply_linear,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


def mix(label, s: int):
    """Image of one label under the marker mixer on intervals of length ``s``."""
    if isinstance(label, TeamLabel):
        b, lo, hi = label
        if hi - lo + 1 == s:
            if b == 0:
                return [(label, SQRT_HALF), (TeamLabel(1, lo, hi), SQRT_HALF)]
            return [(TeamLabel(0, lo, hi), SQRT_HALF), (label, -SQRT_HALF)]
    return [(label, 1.0)]


def halving(s: int):
    """Image of one label under the halving of intervals of length ``s``."""

    def image_of(label):
        if isinstance(label, TeamLabel):
            b, lo, hi = label
            if hi - lo + 1 == s:
                mid = lo + s // 2 - 1
                return TeamLabel(0, lo, mid) if b == 1 else TeamLabel(0, mid + 1, hi)
        return label

    return image_of


def bitwrite_query(n: int, bitwrite_length: int):
    """``(open_query, close_query)``: :func:`mix` then route, unroute then mix."""

    def routed_index(b: int, lo: int, hi: int) -> int:
        length = hi - lo + 1
        if length == bitwrite_length and b == 0:
            return n
        return lo + length // 2 - 1

    def route(label) -> QueryLabel:
        if not isinstance(label, TeamLabel):
            raise TypeError(f"expected a TeamLabel, got {label!r}")
        b, lo, hi = label
        return QueryLabel(b, lo, hi, routed_index(b, lo, hi))

    def unroute(label) -> TeamLabel:
        if not isinstance(label, QueryLabel):
            raise TypeError(f"expected a QueryLabel, got {label!r}")
        b, lo, hi, i = label
        if hi == lo or i != routed_index(b, lo, hi):
            raise ValueError(f"label {label} does not sit on its routed query index")
        return TeamLabel(b, lo, hi)

    def open_query(label):
        return [(route(image), coeff) for image, coeff in mix(label, bitwrite_length)]

    def close_query(label):
        return mix(unroute(label), bitwrite_length)

    return open_query, close_query


def refine(state: SparseState, s: int) -> SparseState:
    """``state`` with every label halved by :func:`halving`; a collision raises."""
    image_of = halving(s)
    out = {}
    for label, amp in state._entries.items():
        image = image_of(label)
        if image in out:
            raise CollisionError(f"two labels map to {image}")
        out[image] = amp
    return SparseState(out)


def _halvings(size: int) -> list[int]:
    return [size >> k for k in range(size.bit_length() - 1)]


def schedule(algorithm):
    """The opening steps and each round's steps, as ``(kind, size)`` pairs.

    ``kind`` is ``"open"``, ``"close"``, ``"refine"`` or ``"combine"``.
    Binary search (no ``r``) queries each interval length in turn; the team
    queries intervals of length ``2r``, then combines at r, r/2, ..., 2.
    """
    if hasattr(algorithm, "r"):
        lengths, combine_sizes = [2 * algorithm.r], [_halvings(algorithm.r)]
    else:
        lengths = _halvings(algorithm.n)
        combine_sizes = [()] * len(lengths)
    rounds = []
    for j, (length, sizes) in enumerate(zip(lengths, combine_sizes)):
        steps = [("close", length), ("refine", length)]
        for size in sizes:
            steps += [("combine", size), ("refine", size)]
        opens = [("open", following) for following in lengths[j + 1 : j + 2]]
        rounds.append(steps + opens)
    return [("open", lengths[0])], rounds


def apply_step(state: SparseState, n: int, kind: str, size: int) -> SparseState:
    """``state`` through one step of an algorithm of list size ``n``."""
    if kind == "refine":
        return refine(state, size)
    if kind == "combine":
        return apply_linear(state, lambda label: mix(label, size))
    open_query, close_query = bitwrite_query(n, size)
    return apply_linear(state, open_query if kind == "open" else close_query)


def states(algorithm, inst, seen=None):
    """The state of ``inst`` entering query 0, then after each query's round.

    With ``seen``, a dict, each step's input labels are added to the set at
    its ``(kind, size)``.
    """
    n = algorithm.n
    entries = {}
    for length, marker, amp in algorithm._levels:
        lo = inst.answer // length * length
        entries[TeamLabel(marker, lo, lo + length - 1)] = amp
    state = SparseState(entries)
    opening, rounds = schedule(algorithm)

    def run(steps, state):
        for kind, size in steps:
            if seen is not None:
                seen.setdefault((kind, size), set()).update(state._entries)
            state = apply_step(state, n, kind, size)
        return state

    state = run(opening, state)
    yield state
    for steps in rounds:
        state = run(steps, apply_query(state, inst))
        yield state
