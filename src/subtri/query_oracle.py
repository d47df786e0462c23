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
from itertools import repeat

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


class QueryOracle:
    """Query-counting, memoizing wrapper around a Graph.

    Answers never change (the graph is static), so the oracle keeps a record
    of what has been revealed and never charges twice for the same fact.
    Revealed neighbor answers are a bitmap over CSR slots, revealed degrees a
    bitmap over vertices, and each keeps a count of its set entries; pair
    answers (and the rare neighbor index past the degree) are kept in sets
    and dicts. A neighbor answer also reveals adjacency, so it seeds the
    pair memo. The neighbor and pair counts in stats and budget_charged are
    read off the memo, so budget_charged == neighbor + pair holds by
    construction, and stats is O(1) to read.

    The samplers ask in batches: q_degree_batch, q_neighbor_batch and
    q_pair_batch each charge as their scalar query would on each item in
    array order, and a trip leaves neighbor + pair == cap. Draws come from
    numpy Generators only: sample_vertices and q_random_edge_at use the
    caller's Generator or the oracle's own, seeded from seed.
    """

    def __init__(self, graph: Graph, seed: int | None = None, budget: int | None = None):
        self.graph = graph
        self.n = graph.n
        # Child 0 once seeded a scalar random.Random; drawing from child 1
        # keeps every sample_vertices stream as it was.
        self._np_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
        self._deg_seen = np.zeros(graph.n, dtype=bool)
        # The scalar queries read through memoryviews: indexing one yields a
        # Python int (or bool) at well under half the cost of a numpy scalar
        # index, and the views share the arrays' memory.
        self._deg_seen_view = memoryview(self._deg_seen)
        self._degrees = memoryview(graph.degrees)
        self._offsets = memoryview(graph.offsets)
        self._targets = memoryview(graph.targets)
        self._deg_count = 0
        self._nbr_seen = np.zeros(len(graph.targets), dtype=bool)
        self._nbr_seen_view = memoryview(self._nbr_seen)
        self._nbr_count = 0
        self._absent_seen: set[tuple[int, int]] = set()
        self._pair_cache: dict[int, bool] = {}
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

    # Each fresh-charge branch below tests budget_charged's sum against the
    # cap inline, before it adds to the memo: the test runs once per distinct
    # charged query, where a method and a property hop would cost more than
    # the test itself.
    def _exhausted(self) -> BudgetExhausted:
        return BudgetExhausted(f"query budget of {self._cap} exhausted")

    # -- queries ----------------------------------------------------------

    def q_degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range")
        seen = self._deg_seen_view
        if not seen[v]:
            seen[v] = True
            self._deg_count += 1
        return self._degrees[v]

    def q_degree_batch(self, vs: np.ndarray) -> np.ndarray:
        """Degree-query many vertices at once; counts each distinct vertex once."""
        vs = np.asarray(vs, dtype=np.int64)
        if vs.size:
            if vs.min() < 0 or vs.max() >= self.n:
                raise IndexError("vertex out of range")
            fresh = np.sort(vs[~self._deg_seen[vs]])
            if fresh.size:
                self._deg_seen[fresh] = True
                self._deg_count += 1 + int(np.count_nonzero(fresh[1:] != fresh[:-1]))
        return self.graph.degrees[vs]

    def q_neighbor(self, v: int, i: int):
        """The i-th neighbor of v (1-indexed), or ABSENT when i exceeds the degree."""
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range")
        if i < 1:
            raise ValueError("neighbor index is 1-based")
        if i > self._degrees[v]:
            key = (v, i)
            if key not in self._absent_seen:
                if self._cap is not None and (
                    self._nbr_count + len(self._absent_seen) + self._pair_count >= self._cap
                ):
                    raise self._exhausted()
                self._absent_seen.add(key)
            return ABSENT
        slot = self._offsets[v] + i - 1
        w = self._targets[slot]
        seen = self._nbr_seen_view
        if not seen[slot]:
            if self._cap is not None and (
                self._nbr_count + len(self._absent_seen) + self._pair_count >= self._cap
            ):
                raise self._exhausted()
            seen[slot] = True
            self._nbr_count += 1
            # Adjacency of (v, w) is now known for free.
            self._pair_cache[v * self.n + w if v < w else w * self.n + v] = True
        return w

    def q_neighbor_batch(self, vs: np.ndarray, idxs: np.ndarray) -> np.ndarray:
        """The idxs[k]-th neighbor of vs[k] for each k, charged as q_neighbor
        on each pair in array order would charge.

        Every index must lie in 1..d(v); the ABSENT answer is q_neighbor's
        alone. A ValueError or IndexError is raised before anything is
        charged. The fresh distinct slots are charged in order of first
        occurrence, each seeding the pair memo. When the cap leaves room for
        only some of them, those are charged and BudgetExhausted is raised,
        so the memo ends as the scalar loop's does at its trip.
        """
        vs = np.asarray(vs, dtype=np.int64)
        idxs = np.asarray(idxs, dtype=np.int64)
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
        fresh = np.flatnonzero(~self._nbr_seen[slots])
        if fresh.size:
            _, first = np.unique(slots[fresh], return_index=True)
            fresh = fresh[np.sort(first)]
            room = fresh.size if self._cap is None else max(0, self._cap - self.budget_charged)
            charge = fresh[:room]
            self._nbr_seen[slots[charge]] = True
            self._nbr_count += charge.size
            # Adjacency of each revealed (v, w) is now known for free.
            v, w = vs[charge], ws[charge]
            keys = np.minimum(v, w) * self.n + np.maximum(v, w)
            self._pair_cache.update(dict.fromkeys(keys.tolist(), True))
            if room < fresh.size:
                raise self._exhausted()
        return ws

    # The samplers ask q_pair_batch; bench/tracer.py looks this up by name.
    def q_pair(self, u: int, v: int) -> bool:
        """Whether the edge (u, v) exists."""
        if u == v:
            raise ValueError("pair query needs two distinct vertices")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise IndexError("vertex out of range")
        pk = u * self.n + v if u < v else v * self.n + u
        cached = self._pair_cache.get(pk)
        if cached is not None:
            return cached
        if self._cap is not None and (
            self._nbr_count + len(self._absent_seen) + self._pair_count >= self._cap
        ):
            raise self._exhausted()
        self._pair_count += 1
        ans = self.graph.has_edge(u, v)
        self._pair_cache[pk] = ans
        return ans

    def q_pair_batch(self, us: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """Whether the edge (us[k], ws[k]) exists, for each k, charged as
        q_pair on each pair in array order would charge.

        A ValueError or IndexError (the one q_pair would raise first) is
        raised before anything is charged. The fresh distinct pairs are
        charged in order of first occurrence; when the cap leaves room for
        only some of them, those are charged and BudgetExhausted is raised,
        so the memo ends as the scalar loop's does at its trip. The fresh
        pairs' adjacency comes from one Graph.has_edges call.
        """
        us = np.asarray(us, dtype=np.int64)
        ws = np.asarray(ws, dtype=np.int64)
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
        keys = np.minimum(us, ws) * n + np.maximum(us, ws)
        cache = self._pair_cache
        # 1 or 0 for a memoized answer, 2 for a fresh pair.
        known = np.fromiter(
            map(cache.get, keys.tolist(), repeat(2)), dtype=np.int8, count=keys.size
        )
        out = known == 1
        fresh = np.flatnonzero(known == 2)
        if fresh.size:
            answers = self.graph.has_edges(us[fresh], ws[fresh])
            # Positions in fresh of each distinct pair's first occurrence.
            _, first = np.unique(keys[fresh], return_index=True)
            first.sort()
            room = first.size if self._cap is None else max(0, self._cap - self.budget_charged)
            charge = first[:room]
            cache.update(zip(keys[fresh[charge]].tolist(), answers[charge].tolist()))
            self._pair_count += charge.size
            if room < first.size:
                raise self._exhausted()
            out[fresh] = answers
        return out

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
