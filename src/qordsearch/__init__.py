"""Desk-scale simulator and verification toolkit for quantum ordered search.

Subpackages:

* :mod:`qordsearch.qcore`: sparse real states over structured labels.
* :mod:`qordsearch.oracle`: ordered-search instances and the query operator.
* :mod:`qordsearch.lowerbound`: weighted all-pairs overlap machinery, drop
  chains, inverse-distance matrix norms, and query lower bounds.
* :mod:`qordsearch.teamsearch`: the team-search exact algorithm, binary
  search as its one-computer case, knowledge layouts, and query-count
  accounting.
* :mod:`qordsearch.cli`: the ``qordsearch`` command-line front end.

The references that only the tests use (the classical binary search, the
per-pair overlap loops, the gathering of per-answer states into an
ensemble) live beside the tests, in ``tests/per_instance_oracle.py``.
"""
from .oracle import OrderedInstance, enumerate_instances
from .qcore import QueryLabel, SparseState, TeamLabel

__version__ = "0.1.0"

__all__ = [
    "OrderedInstance",
    "QueryLabel",
    "SparseState",
    "TeamLabel",
    "enumerate_instances",
    "__version__",
]
