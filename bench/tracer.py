"""Per-layer tracing of qordsearch from outside the package.

The tracer rebinds the public functions of ``qcore``, ``oracle``,
``lowerbound`` and ``teamsearch`` to timing wrappers, in every loaded
``qordsearch`` module that holds a reference to them, and restores the
originals on :meth:`Tracer.uninstall`. Nothing in the package changes.

Every call updates per-name aggregates (calls, inclusive and self time) and a
few counters. Self time is a call's duration minus the time its traced child
calls cover. Only the calls named in ``SPAN_NAMES`` become individual spans
(name, start, end, parent); the hot leaf calls inside a span, which run up to
about a million times per pass, are folded into a per-span count and total
time so that tracing stays affordable.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (metric prefix, module, attribute or Class.method)
TARGETS = [
    ("qcore.inner_product", "qcore", "inner_product"),
    ("qcore.state_new", "qcore", "SparseState.__init__"),
    ("qcore.items", "qcore", "SparseState.items"),
    ("qcore.apply_linear", "qcore", "apply_linear"),
    ("qcore.measure_distribution", "qcore", "measure_distribution"),
    ("oracle.apply_query", "oracle", "apply_query"),
    ("lowerbound.weighted_overlap", "lowerbound", "weighted_overlap"),
    ("lowerbound.mass_profile", "lowerbound", "mass_profile"),
    ("lowerbound.pairwise_drop", "lowerbound", "pairwise_drop"),
    ("lowerbound.verify_drop_chain", "lowerbound", "verify_drop_chain"),
    ("lowerbound.hankel_matrix", "lowerbound", "hankel_matrix"),
    ("lowerbound.spectral_norm", "lowerbound", "spectral_norm"),
    ("lowerbound.run_trajectory", "lowerbound", "run_trajectory"),
    ("teamsearch.apply_combine", "teamsearch", "apply_combine"),
    ("teamsearch.apply_refine", "teamsearch", "apply_refine"),
    ("teamsearch.advance", "teamsearch", "TeamCombineAlgorithm.advance"),
    ("teamsearch.advance", "teamsearch", "BinarySearchAlgorithm.advance"),
    ("teamsearch.initial_state", "teamsearch", "TeamCombineAlgorithm.initial_state"),
    ("teamsearch.initial_state", "teamsearch", "BinarySearchAlgorithm.initial_state"),
    ("teamsearch.run_algorithm", "teamsearch", "run_algorithm"),
    ("teamsearch.decompose", "teamsearch", "decompose"),
    ("teamsearch.query_count_model", "teamsearch", "query_count_model"),
]

# Calls recorded one span each; every other traced call is aggregated into
# the nearest enclosing span.
SPAN_NAMES = {
    "lowerbound.weighted_overlap",
    "lowerbound.mass_profile",
    "lowerbound.pairwise_drop",
    "lowerbound.verify_drop_chain",
    "lowerbound.spectral_norm",
    "lowerbound.run_trajectory",
    "teamsearch.run_algorithm",
}

# qcore and oracle are leaf layers: their time is owned by the layer that
# called them when splitting a pass between lowerbound and the algorithm.
LEAF_LAYERS = {"qcore", "oracle"}


def _count_inner_product(counters, args, result):
    if result != 0:
        counters["qcore.inner_product.nonzero"] += 1


def _count_apply_linear(counters, args, result):
    counters["qcore.apply_linear.labels_in"] += len(args[0])
    counters["qcore.apply_linear.labels_out"] += len(result)


def _count_apply_query(counters, args, result):
    counters["oracle.apply_query.labels"] += len(args[0])


def _count_chain(counters, args, result):
    counters["lowerbound.verify_drop_chain.failures"] += len(result.failures)


COUNTERS = {
    "qcore.inner_product": _count_inner_product,
    "qcore.apply_linear": _count_apply_linear,
    "oracle.apply_query": _count_apply_query,
    "lowerbound.verify_drop_chain": _count_chain,
}


class Tracer:
    """Timing wrappers around the package's public functions.

    The aggregates describe everything traced since the last :meth:`reset`;
    :meth:`snapshot` copies them out.
    """

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # per open call: [child_s, owner, span]
        self._span_stack: list[dict] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.owner_self: defaultdict[str, float] = defaultdict(float)
        self.spans: list[dict] = []

    def reset(self):
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside a traced call")
        self.stats.clear()
        self.counters.clear()
        self.owner_self.clear()

    def snapshot(self) -> dict:
        return {
            "stats": {name: list(v) for name, v in self.stats.items()},
            "counters": dict(self.counters),
            "owner_self": dict(self.owner_self),
        }

    # -- installing --------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = {
            name: module
            for name, module in sys.modules.items()
            if name == "qordsearch" or name.startswith("qordsearch.")
        }
        for name, module_name, attr in TARGETS:
            owner = package[f"qordsearch.{module_name}"]
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in package.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- recording ---------------------------------------------------------

    def _open_span(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._span_stack[-1]["id"] if self._span_stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "leaf": {},
        }
        self.spans.append(span)
        self._span_stack.append(span)
        return span

    def _close_span(self, span: dict):
        span["end"] = time.perf_counter()
        self._span_stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, such as one workload pass."""
        span = self._open_span(name)
        try:
            yield span
        finally:
            self._close_span(span)

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        inherits_owner = layer in LEAF_LAYERS
        is_span = name in SPAN_NAMES
        count = COUNTERS.get(name)
        stack, span_stack = self._stack, self._span_stack
        stats, counters, owner_self = self.stats, self.counters, self.owner_self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            owner = stack[-1][1] if inherits_owner and stack else layer
            frame = [0.0, owner, self._open_span(name) if is_span else None]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                own = elapsed - frame[0]
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += own
                owner_self[owner] += own
                if stack:
                    stack[-1][0] += elapsed
                if frame[2] is not None:
                    self._close_span(frame[2])
                elif span_stack:
                    leaf = span_stack[-1]["leaf"].get(name)
                    if leaf is None:
                        leaf = span_stack[-1]["leaf"][name] = [0, 0.0]
                    leaf[0] += 1
                    leaf[1] += elapsed
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def write_spans(self, path):
        """Write the recorded spans, one JSON object per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
