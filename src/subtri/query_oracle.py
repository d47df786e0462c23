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

import random
from dataclasses import dataclass

import numpy as np

from .graph_store import Graph

# Returned by q_neighbor when the index runs past the degree.
ABSENT = None


def draw_below(rng: random.Random, k: int) -> int:
    """A uniform int in 0..k-1, the draw rng.randrange(k).

    For an int k > 0, CPython's randrange(k) returns rng._randbelow(k)
    (random.py; tests/test_query_oracle.py checks that the two streams
    agree, and CI runs that check on Python 3.10 and 3.12 as well as 3.11).
    The direct call skips randrange's argument handling, which costs more
    than a memoized query on the estimator's loops. Every seeded index draw
    goes through here, so this is the one place that relies on the private
    method. k <= 0 raises ValueError as randrange does, where _randbelow(0)
    never returns.
    """
    if k <= 0:
        raise ValueError(f"no index to draw below {k}")
    return rng._randbelow(k)


def neighbor_index(rng: random.Random, d: int) -> int:
    """A uniform neighbor index in 1..d, the draw rng.randrange(d) + 1."""
    return draw_below(rng, d) + 1


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
    of what has been revealed and never charges twice for the same fact. A
    neighbor answer also reveals adjacency, so it seeds the pair memo. The
    neighbor and pair counts in stats and budget_charged are read off the
    memo, so budget_charged == neighbor + pair holds by construction. The
    degree count grows as the degree bitmap gains vertices, so stats is
    O(1) to read.
    """

    def __init__(self, graph: Graph, seed: int | None = None, budget: int | None = None):
        self.graph = graph
        self.n = graph.n
        ss = np.random.SeedSequence(seed)
        scalar_ss, batch_ss = ss.spawn(2)
        self._rng = random.Random(int(scalar_ss.generate_state(2, np.uint64)[0]))
        self._np_rng = np.random.default_rng(batch_ss)
        self._deg_seen = np.zeros(graph.n, dtype=bool)
        # The scalar queries read through memoryviews: indexing one yields a
        # Python int (or bool) at well under half the cost of a numpy scalar
        # index, and the views share the arrays' memory.
        self._deg_seen_view = memoryview(self._deg_seen)
        self._degrees = memoryview(graph.degrees)
        self._offsets = memoryview(graph.offsets)
        self._targets = memoryview(graph.targets)
        self._deg_count = 0
        self._nbr_seen: set[int] = set()
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
        return len(self._nbr_seen) + len(self._absent_seen) + self._pair_count

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
                    len(self._nbr_seen) + len(self._absent_seen) + self._pair_count >= self._cap
                ):
                    raise self._exhausted()
                self._absent_seen.add(key)
            return ABSENT
        slot = self._offsets[v] + i - 1
        w = self._targets[slot]
        if slot not in self._nbr_seen:
            if self._cap is not None and (
                len(self._nbr_seen) + len(self._absent_seen) + self._pair_count >= self._cap
            ):
                raise self._exhausted()
            self._nbr_seen.add(slot)
            # Adjacency of (v, w) is now known for free.
            self._pair_cache[v * self.n + w if v < w else w * self.n + v] = True
        return w

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
            len(self._nbr_seen) + len(self._absent_seen) + self._pair_count >= self._cap
        ):
            raise self._exhausted()
        self._pair_count += 1
        ans = self.graph.has_edge(u, v)
        self._pair_cache[pk] = ans
        return ans

    def sample_vertices(self, k: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """k uniform vertex ids with replacement. Counted per id, never budget-charged."""
        self._vertex_samples += k
        return (rng or self._np_rng).integers(0, self.n, size=k, dtype=np.int64)

    def q_random_edge_at(self, v: int, rng: random.Random | None = None) -> tuple[int, int]:
        """A uniform random edge (v, x) incident to v.

        Costs one degree query (first time) plus one neighbor query. Raises
        ValueError when v is isolated; callers must rule that out first.
        """
        d = self.q_degree(v)
        if d == 0:
            raise ValueError(f"vertex {v} is isolated; it has no incident edge")
        return v, self.q_neighbor(v, neighbor_index(rng or self._rng, d))

    @property
    def stats(self) -> QueryStats:
        return QueryStats(
            degree=self._deg_count,
            neighbor=len(self._nbr_seen) + len(self._absent_seen),
            pair=self._pair_count,
            vertex_samples=self._vertex_samples,
        )
