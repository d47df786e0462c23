"""In-memory span tracer for the benchmark's traced run.

``Tracer.installed()`` rebinds subtri's public layer functions and methods to
wrappers for the duration of a ``with`` block and restores them on exit; no
file of the package changes. Layer calls (generators, loading, graph
building, the estimator's stages, the classifier, exact counting) become
spans with a name, start, end, parent and the operation they belong to.
Oracle and graph primitives are too many to store one by one: each call adds
to a [calls, seconds, items] tally on the innermost open span.

A primitive called from inside another primitive (``q_random_edge_at``
calling ``q_degree`` and ``q_neighbor``, ``q_pair`` calling ``has_edge``) is
tallied under both names, so per-name counts are "every entry into this
method".
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

from subtri import estimator, exact, graph_store, lb_gen, query_oracle
from subtri.heavy import HEAVY

clock = time.perf_counter

PRIMITIVES = (
    (graph_store.Graph, "has_edge", "graph_store.has_edge"),
    (query_oracle.QueryOracle, "q_degree", "query_oracle.q_degree"),
    (query_oracle.QueryOracle, "q_degree_batch", "query_oracle.q_degree_batch"),
    (query_oracle.QueryOracle, "q_neighbor", "query_oracle.q_neighbor"),
    (query_oracle.QueryOracle, "q_pair", "query_oracle.q_pair"),
    (query_oracle.QueryOracle, "q_random_edge_at", "query_oracle.q_random_edge_at"),
)


def _charged(args) -> int:
    return args[0].budget_charged


def _degree_queries(args) -> int:
    return args[0].stats.degree


class Span:
    __slots__ = ("id", "op", "name", "parent", "start", "end", "attrs", "prims")

    def __init__(self, id_: int, op, name: str, parent: int | None):
        self.id = id_
        self.op = op
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.attrs: dict = {}
        self.prims: dict[str, list] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id, "op": self.op, "name": self.name, "parent": self.parent,
            "start": self.start, "end": self.end, **self.attrs,
            **({"prims": self.prims} if self.prims else {}),
        }


class Tracer:
    """Collects spans in memory; ``op`` tags every span opened while it is set."""

    def __init__(self):
        self.op = None
        root = Span(0, None, "run", None)
        root.start = clock()
        self.spans: list[Span] = [root]
        self._stack: list[Span] = [root]

    # -- wrappers ------------------------------------------------------------

    def layer(self, name: str, fn, probe=None, on_result=None):
        """Wrap fn so each call is a span; probe(args) is read before and after."""

        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), self.op, name, self._stack[-1].id)
            self.spans.append(span)
            before = probe(args) if probe else 0
            self._stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
                if probe:
                    span.attrs["delta"] = probe(args) - before
            if on_result:
                on_result(span, result)
            return result

        return wrapper

    def primitive(self, name: str, fn, items=None):
        """Wrap fn so each call adds to a tally on the innermost open span."""

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tally = self._stack[-1].prims.setdefault(name, [0, 0.0, 0])
                tally[0] += 1
                tally[1] += dt
                if items:
                    tally[2] += items(args)

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind subtri's layer functions to traced wrappers inside the block."""

        def verdict(span, result):
            span.attrs["heavy"] = result.verdict == HEAVY
            span.attrs["shortcut"] = not result.medians

        layers = [
            (lb_gen, name, self.layer("lb_gen.gen", fn))
            for name, fn in vars(lb_gen).items() if name.startswith("gen_")
        ]
        layers += [
            (graph_store, "load_edge_list",
             self.layer("graph_store.load", graph_store.load_edge_list)),
            (graph_store.Graph, "from_edges", classmethod(self.layer(
                "graph_store.from_edges", graph_store.Graph.from_edges.__func__))),
            (estimator, "estimate", self.layer("estimator.estimate", estimator.estimate)),
            (estimator, "feige_avg_degree", self.layer(
                "estimator.feige", estimator.feige_avg_degree, probe=_degree_queries)),
            (estimator, "estimate_with_advice", self.layer(
                "estimator.advice", estimator.estimate_with_advice, probe=_charged)),
            (estimator, "classify_heavy", self.layer(
                "heavy.classify", estimator.classify_heavy, probe=_charged, on_result=verdict)),
            (estimator, "count_ordered", self.layer("exact.count_ordered", estimator.count_ordered)),
            (exact, "count_ordered", self.layer("exact.count_ordered", exact.count_ordered)),
        ]
        for owner, attr, name in PRIMITIVES:
            items = (lambda args: len(args[1])) if attr == "q_degree_batch" else None
            layers.append((owner, attr, self.primitive(name, getattr(owner, attr), items)))
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in layers]
        try:
            for owner, attr, wrapped in layers:
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- read-out ------------------------------------------------------------

    def by_op(self) -> dict:
        """op -> list of its spans, each annotated with its self time."""
        child_time: dict[int, float] = {}
        for s in self.spans[1:]:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        groups: dict = {}
        for s in self.spans[1:]:
            s.attrs["self"] = s.duration - child_time.get(s.id, 0.0)
            groups.setdefault(s.op, []).append(s)
        return groups

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans[1:]:
                fh.write(json.dumps(s.to_json()) + "\n")


def estimate_layers(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures for one traced estimate call, from its spans."""
    out = {
        "heavy.classify_calls": 0, "heavy.classify_s": 0.0, "heavy.charged": 0,
        "heavy.shortcut_calls": 0, "heavy.heavy_verdicts": 0,
        "estimator.feige_s": 0.0, "estimator.feige_degree_queries": 0,
        "estimator.advice_runs": 0, "estimator.advice_s": 0.0, "estimator.advice_charged": 0,
        "estimator.fallback_s": 0.0,
    }
    prims: dict[str, list] = {}
    for s in spans:
        for name, (calls, secs, items) in s.prims.items():
            tally = prims.setdefault(name, [0, 0.0, 0])
            tally[0] += calls
            tally[1] += secs
            tally[2] += items
        if s.name == "heavy.classify":
            out["heavy.classify_calls"] += 1
            out["heavy.classify_s"] += s.attrs["self"]
            out["heavy.charged"] += s.attrs["delta"]
            out["heavy.shortcut_calls"] += s.attrs.get("shortcut", False)
            out["heavy.heavy_verdicts"] += s.attrs.get("heavy", False)
            # The classifier only runs inside advice runs.
            out["estimator.advice_charged"] -= s.attrs["delta"]
        elif s.name == "estimator.advice":
            out["estimator.advice_runs"] += 1
            out["estimator.advice_s"] += s.attrs["self"]
            out["estimator.advice_charged"] += s.attrs["delta"]
        elif s.name == "estimator.feige":
            out["estimator.feige_s"] += s.duration
            out["estimator.feige_degree_queries"] += s.attrs["delta"]
        elif s.name == "exact.count_ordered":
            out["estimator.fallback_s"] += s.duration
    for _, attr, name in PRIMITIVES:
        calls, secs, items = prims.get(name, (0, 0.0, 0))
        out[f"{name}_calls"] = calls
        out[f"{name}_s"] = secs
    out["query_oracle.q_degree_batch_items"] = prims.get("query_oracle.q_degree_batch", (0, 0, 0))[2]
    return out


SETUP_SPANS = ("lb_gen.gen", "graph_store.load", "graph_store.from_edges")


def setup_layers(spans: list[Span]) -> dict[str, float]:
    """Seconds spent per set-up layer in one traced set-up repetition."""
    out = {f"{name}_s": 0.0 for name in SETUP_SPANS}
    for s in spans:
        if s.name in SETUP_SPANS:
            out[f"{s.name}_s"] += s.duration
    return out
