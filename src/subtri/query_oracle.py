"""Metered access to a graph through degree, neighbor, and pair queries.

The oracle is the only interface the estimation algorithms use. It counts
distinct queries of each kind, memoizes every answer so repeat queries are
free, and optionally enforces a hard budget. Vertex sampling is also routed
through the oracle so runs are fully reproducible from one seed.

Budget semantics: only new distinct neighbor and pair queries are charged
against the cap. Degree queries and vertex samples are metered but exempt;
they scale with vertex-side sampling, which the cap (set from the edge count
estimate) is not meant to bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_store import Graph

# Returned by q_neighbor when the index runs past the degree.
ABSENT = None


class BudgetExhausted(RuntimeError):
    """Raised when a charged query would push past the configured budget."""


@dataclass
class QueryStats:
    """Distinct-query counters plus the vertex-sample call count."""

    degree: int = 0
    neighbor: int = 0
    pair: int = 0
    vertex_samples: int = 0

    @property
    def total(self) -> int:
        """Distinct graph queries (degree + neighbor + pair)."""
        return self.degree + self.neighbor + self.pair

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "neighbor": self.neighbor,
            "pair": self.pair,
            "vertex_samples": self.vertex_samples,
            "total": self.total,
        }


def _int64(values, what: str = "vertex ids") -> np.ndarray:
    """values as an int64 array. Floats and other non-integer kinds are
    refused rather than truncated; an empty input of any kind is allowed."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got {values.dtype}")
    return values.astype(np.int64, copy=False)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of values, ascending: np.unique by one sort and
    one compare, several times cheaper than np.unique (numpy 2.4) on the
    batches the samplers ask."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class QueryOracle:
    """Query-counting, memoizing wrapper around a Graph.

    Answers never change (the graph is static), so each kind of query is
    charged once per distinct question, and only by a query of that kind.
    Charged degree queries are a bitmap over vertices and charged neighbor
    queries a bitmap over CSR slots; the rare neighbor index past the degree
    is kept in a set. Charged pair queries, edges and non-edges alike, are
    one sorted array of pair keys min * n + max, whose length is the pair
    count. The neighbor count is kept beside its bitmap, so budget_charged
    == neighbor + pair holds by construction and stats is O(1) to read. For
    a fixed set of queries, neighbor + pair is the number of distinct slots
    plus the number of distinct pairs, whatever the order they are asked in.

    Each kind of query has one implementation, a batch kernel:
    q_degree_batch, q_neighbor_batch and q_pair_batch. q_degree, q_neighbor
    and q_pair are the kernel on one item; only q_neighbor's ABSENT answer,
    an index past the degree, is charged outside it. The V read is
    q_degree_all: every degree, charged as q_degree_batch(arange(n)) would
    charge, in one pass over the degree bitmap with no sort. A batch
    charges its fresh distinct items in order of first occurrence, as the
    one-item calls in array order would, and a trip leaves neighbor + pair
    == cap. Vertex ids and neighbor indices must be integers; a float is
    refused with a ValueError before anything is charged, not truncated.
    Draws come from numpy Generators only: sample_vertices and
    q_random_edge_at use the caller's Generator or the oracle's own,
    np.random.default_rng(seed).
    """

    def __init__(self, graph: Graph, seed: int | None = None, budget: int | None = None):
        self.graph = graph
        self.n = graph.n
        self._np_rng = np.random.default_rng(seed)
        self._deg_seen = np.zeros(graph.n, dtype=bool)
        self._deg_count = 0
        self._nbr_seen = np.zeros(len(graph.targets), dtype=bool)
        self._nbr_count = 0
        self._absent_seen: set[tuple[int, int]] = set()
        self._pair_keys = np.zeros(0, dtype=np.int64)
        self._vertex_samples = 0
        self.set_budget(budget)

    # -- budget -----------------------------------------------------------

    def set_budget(self, cap: int | None) -> None:
        """Cap neighbor + pair at cap, an integer of at least 0, or lift the
        cap when it is None. A float or a bool is refused, not rounded."""
        if cap is not None:
            if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)):
                raise ValueError(f"query budget must be an integer, got {cap!r}")
            if cap < 0:
                raise ValueError(f"query budget must be at least 0, got {cap}")
        self._cap = cap

    @property
    def budget_cap(self) -> int | None:
        return self._cap

    @property
    def budget_charged(self) -> int:
        return self._nbr_count + len(self._absent_seen) + self._pair_keys.size

    def _exhausted(self) -> BudgetExhausted:
        return BudgetExhausted(f"query budget of {self._cap} exhausted")

    def _admit(self, fresh: np.ndarray) -> tuple[np.ndarray, bool]:
        """The one charging step of a batch: fresh holds its uncharged
        questions (slots or pair keys) in array order, repeats included.
        Returns the distinct ones the cap has room for, ascending, and
        whether the cap cut them. A cut keeps the first of them in order of
        first occurrence, as the one-item loop in array order would charge
        them before its trip."""
        new = _distinct(fresh)
        room = new.size if self._cap is None else max(0, self._cap - self.budget_charged)
        if room >= new.size:
            return new, False
        _, first = np.unique(fresh, return_index=True)
        first.sort()
        return np.sort(fresh[first[:room]]), True

    # -- queries ----------------------------------------------------------

    def q_degree(self, v: int) -> int:
        """The degree of v: q_degree_batch on the one vertex."""
        return int(self.q_degree_batch([v])[0])

    def q_degree_batch(self, vs: np.ndarray) -> np.ndarray:
        """Degree-query many vertices at once; counts each distinct vertex once."""
        vs = _int64(vs)
        if vs.size:
            if vs.min() < 0 or vs.max() >= self.n:
                raise IndexError("vertex out of range")
            fresh = vs[~self._deg_seen[vs]]
            if fresh.size:
                fresh = _distinct(fresh)
                self._deg_seen[fresh] = True
                self._deg_count += fresh.size
        return self.graph.degrees[vs]

    def q_degree_all(self) -> np.ndarray:
        """The degree of every vertex: the V read. Charges each vertex's
        degree query not yet charged, as q_degree_batch(arange(n)) would, by
        setting the whole degree bitmap, so stats.degree becomes n; once all
        n are charged it charges nothing. No sort and no copy: the answer is
        the graph's own read-only degree array."""
        if self._deg_count < self.n:
            self._deg_seen.fill(True)
            self._deg_count = self.n
        return self.graph.degrees

    def q_neighbor(self, v: int, i: int):
        """The i-th neighbor of v (1-indexed), or ABSENT when i exceeds the
        degree: q_neighbor_batch on the one pair, but for ABSENT."""
        _int64(v)
        _int64(i, "neighbor indices")
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range")
        if i < 1:
            raise ValueError("neighbor index is 1-based")
        if i <= self.graph.degrees[v]:
            return int(self.q_neighbor_batch([v], [i])[0])
        key = (v, i)
        if key not in self._absent_seen:
            if self._cap is not None and self.budget_charged >= self._cap:
                raise self._exhausted()
            self._absent_seen.add(key)
        return ABSENT

    def q_neighbor_batch(self, vs: np.ndarray, idxs: np.ndarray) -> np.ndarray:
        """The idxs[k]-th neighbor of vs[k] for each k; q_neighbor is this
        kernel on one pair.

        Every index must lie in 1..d(v); the ABSENT answer is q_neighbor's
        alone. A ValueError or IndexError is raised before anything is
        charged. The fresh distinct slots are charged in order of first
        occurrence, as q_neighbor on each pair in array order would charge
        them. When the cap leaves room for only some of them, those are
        charged and BudgetExhausted is raised, so the memo ends as that
        loop's does at its trip.
        """
        vs = _int64(vs)
        idxs = _int64(idxs, "neighbor indices")
        if vs.shape != idxs.shape or vs.ndim != 1:
            raise ValueError("vertices and indices must be 1-d arrays of one length")
        if not vs.size:
            return np.zeros(0, dtype=np.int64)
        if vs.min() < 0 or vs.max() >= self.n:
            raise IndexError("vertex out of range")
        if idxs.min() < 1 or (idxs > self.graph.degrees[vs]).any():
            raise ValueError("batched neighbor indices must lie in 1..d(v)")
        slots = self.graph.offsets[vs] + (idxs - 1)
        ws = self.graph.targets[slots]
        fresh = slots[~self._nbr_seen[slots]]
        if fresh.size:
            new, tripped = self._admit(fresh)
            self._nbr_seen[new] = True
            self._nbr_count += new.size
            if tripped:
                raise self._exhausted()
        return ws

    # The samplers ask q_pair_batch; bench/tracer.py looks this up by name.
    def q_pair(self, u: int, v: int) -> bool:
        """Whether the edge (u, v) exists: q_pair_batch on the one pair."""
        return bool(self.q_pair_batch(np.array([u]), np.array([v]))[0])

    def q_pair_batch(self, us: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """Whether the edge (us[k], ws[k]) exists, for each k, charged as
        q_pair on each pair in array order would charge.

        A ValueError or IndexError (the one q_pair would raise first) is
        raised before anything is charged. A pair is charged the first time
        it is asked, edge or not, whatever neighbor answers returned it; the
        fresh distinct pairs are charged in order of first occurrence. When
        the cap leaves room for only some of them, those are charged and
        BudgetExhausted is raised, so the memo ends as the scalar loop's does
        at its trip. Answers come from Graph.edge_slots.
        """
        us = _int64(us)
        ws = _int64(ws)
        if us.shape != ws.shape or us.ndim != 1:
            raise ValueError("pair ends must be 1-d arrays of one length")
        if not us.size:
            return np.zeros(0, dtype=bool)
        n = self.n
        bad = (us == ws) | (us < 0) | (us >= n) | (ws < 0) | (ws >= n)
        if bad.any():
            k = int(np.argmax(bad))
            if us[k] == ws[k]:
                raise ValueError("pair query needs two distinct vertices")
            raise IndexError("vertex out of range")
        lo, hi = np.minimum(us, ws), np.maximum(us, ws)
        edge = self.graph.edge_slots(lo, hi) >= 0
        fresh = lo * n + hi
        charged = self._pair_keys
        if charged.size:
            pos = np.minimum(np.searchsorted(charged, fresh), charged.size - 1)
            fresh = fresh[charged[pos] != fresh]
        if fresh.size:
            new, tripped = self._admit(fresh)
            self._pair_keys = np.insert(charged, np.searchsorted(charged, new), new)
            if tripped:
                raise self._exhausted()
        return edge

    def sample_vertices(self, k: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """k uniform vertex ids with replacement. Counted per id, never budget-charged."""
        vs = (rng or self._np_rng).integers(0, self.n, size=k, dtype=np.int64)
        self._vertex_samples += k
        return vs

    # No caller in the package draws one edge at a time; bench/tracer.py looks this up by name.
    def q_random_edge_at(self, v: int, rng: np.random.Generator | None = None) -> tuple[int, int]:
        """A uniform random edge (v, x) incident to v, drawn from rng, or from
        the Generator sample_vertices uses when rng is None.

        Costs one degree query (first time) plus one neighbor query. Raises
        ValueError when v is isolated; callers must rule that out first.
        """
        d = self.q_degree(v)
        if d == 0:
            raise ValueError(f"vertex {v} is isolated; it has no incident edge")
        return v, self.q_neighbor(v, int((rng or self._np_rng).integers(1, d + 1)))

    @property
    def stats(self) -> QueryStats:
        return QueryStats(
            degree=self._deg_count,
            neighbor=self._nbr_count + len(self._absent_seen),
            pair=self._pair_keys.size,
            vertex_samples=self._vertex_samples,
        )
