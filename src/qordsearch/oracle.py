"""Ordered-search problem instances and the diagonal query operator.

An instance of size ``n`` is the monotone bit string with a single threshold:
``bit(i) = 1`` exactly when ``answer <= i < n``, and ``bit(i) = 0`` for every
``i >= n`` (the string is padded with an infinite tail of zeros, so querying
far indices is an identity). There are exactly ``n`` instances per size, one
per answer in ``0 .. n-1``.

A query multiplies the amplitude of each ``QueryLabel`` by ``(-1)**bit(i)``.
It is diagonal, self-inverse, and commutes with every other query.
:func:`apply_query_ensemble` queries every answer's state of an ensemble at
once, each with its own instance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import QUERY, Ensemble, QueryLabel, SparseState, labels_of


def _require_int(value, name: str) -> None:
    """Reject anything but an integer, ``bool`` included."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _shown(value) -> str:
    """``value`` as a message shows it. An int too long for ``str()`` (see
    ``sys.get_int_max_str_digits``) shows as its sign and bit length, alone
    or inside a tuple or a range."""
    try:
        return str(value)
    except ValueError:
        if isinstance(value, int):
            sign = "a negative" if value < 0 else "an"
            return f"{sign} int of {value.bit_length()} bits"
        if isinstance(value, range):
            step = (value.step,) if value.step != 1 else ()
            bounds = ", ".join(map(_shown, (value.start, value.stop) + step))
            return f"range({bounds})"
        items = ", ".join(map(_shown, value))
        return f"({items},)" if len(value) == 1 else f"({items})"


@dataclass(frozen=True)
class OrderedInstance:
    """Sorted list of length ``n`` whose leftmost 1 sits at ``answer``."""

    n: int
    answer: int

    def __post_init__(self):
        _require_int(self.n, "n")
        _require_int(self.answer, "answer")
        if self.n < 1:
            raise ValueError(f"list length must be positive, got {_shown(self.n)}")
        if not 0 <= self.answer < self.n:
            raise ValueError(
                f"answer must lie in [0, {_shown(self.n - 1)}], "
                f"got {_shown(self.answer)}"
            )

    def bit(self, i: int) -> int:
        """Value of the list at index ``i`` (0 beyond the list)."""
        if i < 0:
            raise ValueError(f"bit index must be non-negative, got {_shown(i)}")
        return 1 if self.answer <= i < self.n else 0


def enumerate_instances(n: int) -> list[OrderedInstance]:
    """All ``n`` instances of size ``n``, in increasing answer order."""
    _require_int(n, "n")
    if n < 1:
        raise ValueError(f"list length must be positive, got {_shown(n)}")
    return [OrderedInstance(n, a) for a in range(n)]


def _not_a_query_label(label) -> TypeError:
    """The error of querying a state that holds ``label``."""
    return TypeError(f"apply_query acts on QueryLabel states only, found {label!r}")


def apply_query(state: SparseState, inst: OrderedInstance) -> SparseState:
    """One oracle query: phase ``(-1)**bit(i)`` on every ``QueryLabel``.

    Labels with ``i >= n`` are untouched (zero padding). A ``TeamLabel`` is
    rejected: a team state is queried once its open step has routed it. A
    sign flip moves no magnitude, so the result reuses the input's norm.
    """
    n, answer = inst.n, inst.answer
    out: dict[QueryLabel, float] = {}
    for label, amp in state._entries.items():
        if not isinstance(label, QueryLabel):
            raise _not_a_query_label(label)
        out[label] = -amp if answer <= label.i < n else amp
    return SparseState._relabelled(out, state)


def apply_query_ensemble(ensemble: Ensemble) -> Ensemble:
    """:func:`apply_query` on each answer's state, with that answer's instance.

    Answer ``a`` flips the sign of its entries whose label queries an index
    ``i`` with ``a <= i < size``, read off the label fields; every label must
    be a ``QueryLabel``. A sign flip moves no magnitude, so the result
    keeps the input's norms.
    """
    kind, _, _, _, index = ensemble.fields
    unrouted = kind != QUERY
    if unrouted.any():
        [label] = labels_of(ensemble.fields[:, [int(np.argmax(unrouted))]])
        raise _not_a_query_label(label)
    queried = index.repeat(ensemble.column_sizes)
    flip = (ensemble.answers <= queried) & (queried < ensemble.size)
    return ensemble._replace(amps=np.where(flip, -ensemble.amps, ensemble.amps))
