"""Immutable adjacency storage and the edge-list file format.

Graphs are simple and undirected with vertex ids 0..n-1. Adjacency lives in a
CSR layout: a flat neighbor array plus per-vertex offsets. Neighbor order is
the input order of the edge list, which is arbitrary but fixed, so i-th
neighbor queries are well defined and reproducible.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np


class GraphFormatError(ValueError):
    """Raised for malformed edge-list input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Graph:
    """Static simple undirected graph with ordered adjacency.

    Build via from_edges or load_edge_list rather than the constructor.
    Storage is CSR: v's neighbors, in stored order, are
    targets[offsets[v]:offsets[v + 1]]; the arrays are read-only. Vertices
    precede one another by (degree, id); this order drives the
    triangle-assignment logic downstream, so it is part of the public API.
    """

    __slots__ = (
        "n", "m", "degrees", "offsets", "targets", "_sorted_targets",
        "_degrees_view", "_offsets_view", "_sorted_view",
    )

    def __init__(
        self,
        n: int,
        m: int,
        degrees: np.ndarray,
        offsets: np.ndarray,
        targets: np.ndarray,
        sorted_targets: np.ndarray,
    ):
        self.n = n
        self.m = m
        self.degrees = degrees
        self.offsets = offsets
        self.targets = targets
        self._sorted_targets = sorted_targets
        for arr in (degrees, offsets, targets, sorted_targets):
            arr.setflags(write=False)
        # The scalar reads go through memoryviews: indexing one yields a
        # Python int, for a plain-int or numpy-integer index alike, at well
        # under half the cost of a numpy scalar index.
        self._degrees_view = memoryview(degrees)
        self._offsets_view = memoryview(offsets)
        self._sorted_view = memoryview(sorted_targets)

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int]]) -> "Graph":
        """Build a graph from (u, v) integer pairs.

        A ValueError names the first pair with a non-integer id, an id outside
        [0, n), equal ends or an earlier pair's ends, in either orientation.
        Neighbor lists keep the order in which edges appear.
        """
        arr = np.asarray(edges)
        m = len(arr)
        if m and arr.shape != (m, 2):
            raise ValueError("edges must be (u, v) pairs")
        if m and arr.dtype.kind not in "iu":
            raise ValueError(f"vertex ids must be integers, got {arr.dtype}")
        # Slot 2k holds u_k and slot 2k+1 holds v_k. A stable sort by endpoint
        # lists each vertex's incidences in edge order, and the partner of
        # slot j is slot j ^ 1.
        flat = arr.astype(np.int64, copy=False).ravel()
        order = np.argsort(flat, kind="stable")
        sources = flat[order]
        targets = flat[order ^ 1]
        sorted_targets = targets[np.lexsort((targets, sources))]
        # The sorted sources hold the smallest and largest id at their ends.
        # A repeated edge or a self loop lists one neighbor twice in a row.
        repeats = (sorted_targets[1:] == sorted_targets[:-1]) & (sources[1:] == sources[:-1])
        if m and (sources[0] < 0 or sources[-1] >= n or repeats.any()):
            k, reason = _first_bad_edge(n, flat)
            raise ValueError(f"edge {k}: {reason}")
        degrees = np.bincount(flat, minlength=n).astype(np.int64)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        g = cls(n, m, degrees, offsets, targets, sorted_targets)
        g._check_invariants()
        return g

    def _check_invariants(self) -> None:
        # Degree sum must equal twice the edge count, and no vertex may have
        # more higher-order neighbors than sqrt(2m) allows (a structural fact
        # about the (degree, id) order on simple graphs). Real exceptions, so
        # python -O cannot strip the checks.
        if int(self.degrees.sum()) != 2 * self.m:
            raise RuntimeError("degree sum is not twice the edge count")
        if self.m == 0:
            return
        n = self.n
        key = self.degrees * np.int64(n) + np.arange(n, dtype=np.int64)
        src = np.repeat(np.arange(n, dtype=np.int64), self.degrees)
        succ_mask = key[self.targets] > key[src]
        succ_counts = np.bincount(src[succ_mask], minlength=n)
        bound = math.isqrt(2 * self.m)
        if int(succ_counts.max()) > bound:
            raise RuntimeError("successor bound violated")

    # -- queries ----------------------------------------------------------

    def degree(self, v: int) -> int:
        return self._degrees_view[v]

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of v's neighbor list in stored order."""
        return self.targets[self.offsets[v] : self.offsets[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Adjacency test by binary search on the lower-degree endpoint."""
        degrees = self._degrees_view
        if degrees[u] > degrees[v]:
            u, v = v, u
        lo, hi = self._offsets_view[u], self._offsets_view[u + 1]
        row = self._sorted_view
        i = bisect_left(row, v, lo, hi)
        # bool(): a numpy-integer v makes the comparison a numpy bool.
        return bool(i < hi and row[i] == v)

    def precedes(self, u: int, v: int) -> bool:
        """True when u comes before v in the (degree, id) vertex order."""
        du, dv = self._degrees_view[u], self._degrees_view[v]
        return bool(du < dv or (du == dv and u < v))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once as (min id, max id)."""
        for v in range(self.n):
            for w in self.neighbors(v):
                if v < w:
                    yield v, int(w)


def _first_bad_edge(n: int, flat: np.ndarray) -> tuple[int, str]:
    """Index and reason of the first pair (flat holds them end to end) with a
    negative id, an id of n or more, equal ends, or an earlier pair's ends."""
    lo, hi = np.minimum(flat[0::2], flat[1::2]), np.maximum(flat[0::2], flat[1::2])
    _, first = np.unique(np.column_stack((lo, hi)), axis=0, return_index=True)
    repeat = ~np.isin(np.arange(len(lo)), first)
    k = int(np.argmax((lo < 0) | (hi >= n) | (lo == hi) | repeat))
    if lo[k] < 0:
        return k, "negative vertex id"
    if hi[k] >= n:
        return k, "vertex id out of range"
    if lo[k] == hi[k]:
        return k, f"self loop at vertex {lo[k]}"
    return k, f"duplicate edge ({lo[k]}, {hi[k]})"


def load_edge_list(source: str | Path | Iterable[str]) -> Graph:
    """Parse an edge-list file into a Graph.

    Format: whitespace-separated "u v" pairs, one per line. Lines starting
    with '#' and blank lines are skipped. The first data line may be a header
    "n <count>" declaring the vertex count (needed when trailing vertices are
    isolated). Errors name the earliest faulty line (1-based), or else a header
    smaller than the largest id.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return _parse_lines(fh)
    return _parse_lines(source)


def _parse_lines(lines: Iterable[str]) -> Graph:
    # Tokenize only. Graph.from_edges checks the pairs read before the first
    # line that does not tokenize, and line_nos maps a pair it rejects back.
    pairs = array("q")
    line_nos = array("q")
    declared_n = None
    error = None
    try:
        for line_no, raw in enumerate(lines, start=1):
            parts = raw.split()
            if not parts or parts[0][0] == "#":
                continue
            if parts[0] == "n" and declared_n is None and not line_nos:
                if len(parts) != 2:
                    raise GraphFormatError(line_no, "header must be 'n <count>'")
                try:
                    declared_n = int(parts[1])
                except ValueError:
                    raise GraphFormatError(line_no, f"bad vertex count {parts[1]!r}")
                if declared_n < 0:
                    raise GraphFormatError(line_no, "vertex count must be nonnegative")
                header_line = line_no
                continue
            if len(parts) != 2:
                raise GraphFormatError(line_no, f"expected 'u v', got {raw.strip()!r}")
            try:
                pairs.extend((int(parts[0]), int(parts[1])))
            except ValueError:
                raise GraphFormatError(line_no, f"non-integer vertex id in {raw.strip()!r}")
            except OverflowError:
                raise GraphFormatError(line_no, f"vertex id outside the int64 range in {raw.strip()!r}")
            line_nos.append(line_no)
    except GraphFormatError as exc:
        error = exc
    flat = np.frombuffer(pairs, dtype=np.int64, count=2 * len(line_nos))
    n = max(int(flat.max(initial=-1)) + 1, declared_n or 0)
    try:
        graph = Graph.from_edges(n, flat.reshape(-1, 2))
    except ValueError:
        k, reason = _first_bad_edge(n, flat)
        raise GraphFormatError(line_nos[k], reason) from None
    if error is not None:
        raise error
    if declared_n is not None and declared_n < n:
        raise GraphFormatError(header_line, f"header n={declared_n} smaller than max id {n - 1}")
    return graph


def write_edge_list(graph: Graph, path: str | Path) -> None:
    """Write a graph, with its "n <count>" header, in the format load_edge_list reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {graph.n}\n")
        fh.writelines(f"{u} {v}\n" for u, v in graph.edges())
