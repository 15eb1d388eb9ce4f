"""Desk-scale simulator and verification toolkit for quantum ordered search.

Subpackages:

* :mod:`qordsearch.qcore`: sparse real states over structured labels.
* :mod:`qordsearch.oracle`: ordered-search instances and the query operator.
* :mod:`qordsearch.lowerbound`: weighted all-pairs overlap machinery, drop
  chains, inverse-distance matrix norms, and query lower bounds.
* :mod:`qordsearch.teamsearch`: the team-search exact algorithm, knowledge
  layouts, the classical reference, and query-count accounting.
* :mod:`qordsearch.cli`: the ``qordsearch`` command-line front end.
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
