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


def _first_distinct(values: np.ndarray, k: int) -> np.ndarray:
    """Positions in values of the first occurrences of its first k distinct
    entries, in array order."""
    _, first = np.unique(values, return_index=True)
    first.sort()
    return first[:k]


class QueryOracle:
    """Query-counting, memoizing wrapper around a Graph.

    Answers never change (the graph is static), so the oracle keeps a record
    of what has been revealed and never charges twice for the same fact.
    Revealed neighbor answers are a bitmap over CSR slots and revealed
    degrees a bitmap over vertices; the rare neighbor index past the degree
    is kept in a set. A neighbor answer also reveals adjacency, so an edge
    pair is known when a neighbor answer revealed either of its two slots,
    or when a pair query charged it, which sets a second slot bitmap at its
    slot in the smaller-id end's row. A non-edge pair is known when a pair
    query charged it: charged non-edges are a sorted array of pair keys
    min * n + max. The neighbor and pair counts in stats and budget_charged
    are kept beside these memos, so budget_charged == neighbor + pair holds
    by construction, and stats is O(1) to read.

    Each kind of query has one implementation, a batch kernel:
    q_degree_batch, q_neighbor_batch and q_pair_batch. q_degree, q_neighbor
    and q_pair are the kernel on one item; only q_neighbor's ABSENT answer,
    an index past the degree, is charged outside it. A batch charges its
    fresh distinct items in order of first occurrence, as the one-item calls
    in array order would, and a trip leaves neighbor + pair == cap. Vertex
    ids and neighbor indices must be integers; a float is refused with a
    ValueError before anything is charged, not truncated. Draws come from
    numpy Generators only: sample_vertices and q_random_edge_at use the
    caller's Generator or the oracle's own, np.random.default_rng(seed).
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
        self._pair_seen = np.zeros(len(graph.targets), dtype=bool)
        self._non_edges = np.zeros(0, dtype=np.int64)
        self._pair_count = 0
        self._vertex_samples = 0
        self.set_budget(budget)

    # -- budget -----------------------------------------------------------

    def set_budget(self, cap: int | None) -> None:
        if cap is not None and cap < 0:
            raise ValueError(f"query budget must be at least 0, got {cap}")
        self._cap = cap

    @property
    def budget_cap(self) -> int | None:
        return self._cap

    @property
    def budget_charged(self) -> int:
        return self._nbr_count + len(self._absent_seen) + self._pair_count

    def _exhausted(self) -> BudgetExhausted:
        return BudgetExhausted(f"query budget of {self._cap} exhausted")

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
            new = _distinct(fresh)
            room = new.size if self._cap is None else max(0, self._cap - self.budget_charged)
            tripped = room < new.size
            if tripped:
                new = fresh[_first_distinct(fresh, room)]
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
        raised before anything is charged. The fresh distinct pairs are
        charged in order of first occurrence; when the cap leaves room for
        only some of them, those are charged and BudgetExhausted is raised,
        so the memo ends as the scalar loop's does at its trip. Answers and
        the memo's slots come from Graph.edge_slots.
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
        slots = self.graph.edge_slots(lo, hi)
        edge = slots >= 0
        known = np.zeros(us.size, dtype=bool)
        at = np.flatnonzero(edge)
        known[at] = self._pair_seen[slots[at]] | self._nbr_seen[slots[at]]
        # An edge that a neighbor answer revealed from its larger-id end.
        at = at[~known[at]]
        known[at] = self._nbr_seen[self.graph.edge_slots(hi[at], lo[at])]
        keys = lo * n + hi
        charged = self._non_edges
        if charged.size:
            at = np.flatnonzero(~edge)
            pos = np.minimum(np.searchsorted(charged, keys[at]), charged.size - 1)
            known[at] = charged[pos] == keys[at]
        fresh = np.flatnonzero(~known)
        if fresh.size:
            count = _distinct(keys[fresh]).size
            room = count if self._cap is None else max(0, self._cap - self.budget_charged)
            tripped = room < count
            if tripped:
                fresh = fresh[_first_distinct(keys[fresh], room)]
                count = room
            is_edge = edge[fresh]
            self._pair_seen[slots[fresh[is_edge]]] = True
            new = _distinct(keys[fresh[~is_edge]])
            if new.size:
                self._non_edges = np.insert(charged, np.searchsorted(charged, new), new)
            self._pair_count += count
            if tripped:
                raise self._exhausted()
        return edge

    def sample_vertices(self, k: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """k uniform vertex ids with replacement. Counted per id, never budget-charged."""
        self._vertex_samples += k
        return (rng or self._np_rng).integers(0, self.n, size=k, dtype=np.int64)

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
            pair=self._pair_count,
            vertex_samples=self._vertex_samples,
        )
