"""Immutable adjacency storage and the edge-list file format.

Graphs are simple and undirected with vertex ids 0..n-1. Adjacency lives in a
CSR layout: a flat neighbor array plus per-vertex offsets. Neighbor order is
the input order of the edge list, which is arbitrary but fixed, so i-th
neighbor queries are well defined and reproducible.
"""

from __future__ import annotations

import math
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

    __slots__ = ("n", "m", "degrees", "offsets", "targets", "_sorted_targets")

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

    @classmethod
    def from_edges(
        cls, n: int, edges: Sequence[tuple[int, int]], validate: bool = True
    ) -> "Graph":
        """Build a graph from (u, v) pairs.

        Rejects self loops, duplicate edges (in either orientation), and ids
        outside [0, n). Neighbor lists keep the order in which edges appear.
        """
        m = len(edges)
        arr = np.asarray(edges, dtype=np.int64)
        if m:
            if arr.shape != (m, 2):
                raise ValueError("edges must be (u, v) pairs")
            if validate:
                _check_edges(n, arr)
        # Slot 2k holds u_k and slot 2k+1 holds v_k. A stable sort by endpoint
        # lists each vertex's incidences in edge order, and the partner of
        # slot j is slot j ^ 1.
        flat = arr.ravel()
        degrees = np.bincount(flat, minlength=n).astype(np.int64)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        order = np.argsort(flat, kind="stable")
        targets = flat[order ^ 1]
        sorted_targets = targets[np.lexsort((targets, flat[order]))]
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
        return int(self.degrees[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of v's neighbor list in stored order."""
        return self.targets[self.offsets[v] : self.offsets[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Adjacency test by binary search on the lower-degree endpoint."""
        if u == v:
            return False
        if self.degrees[u] > self.degrees[v]:
            u, v = v, u
        lo, hi = self.offsets[u], self.offsets[u + 1]
        idx = np.searchsorted(self._sorted_targets[lo:hi], v)
        return bool(idx < hi - lo and self._sorted_targets[lo + idx] == v)

    def precedes(self, u: int, v: int) -> bool:
        """True when u comes before v in the (degree, id) vertex order."""
        du, dv = self.degrees[u], self.degrees[v]
        return bool(du < dv or (du == dv and u < v))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once as (min id, max id)."""
        for v in range(self.n):
            for w in self.neighbors(v):
                if v < w:
                    yield v, int(w)


def _check_edges(n: int, arr: np.ndarray) -> None:
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError("vertex id out of range")
    if (arr[:, 0] == arr[:, 1]).any():
        raise ValueError("self loop")
    lo = arr.min(axis=1)
    hi = arr.max(axis=1)
    keys = lo * np.int64(n) + hi
    if len(np.unique(keys)) != len(keys):
        raise ValueError("duplicate edge")


def load_edge_list(source: str | Path | Iterable[str]) -> Graph:
    """Parse an edge-list file into a Graph.

    Format: whitespace-separated "u v" pairs, one per line. Lines starting
    with '#' and blank lines are skipped. The first data line may be a header
    "n <count>" declaring the vertex count (needed when trailing vertices are
    isolated). Errors report 1-based line numbers.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return _parse_lines(fh)
    return _parse_lines(source)


def _parse_lines(lines: Iterable[str]) -> Graph:
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    declared_n = None
    header_line = 0
    max_id = -1
    saw_data = False
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if not saw_data and parts[0] == "n":
            if len(parts) != 2:
                raise GraphFormatError(line_no, "header must be 'n <count>'")
            try:
                declared_n = int(parts[1])
            except ValueError:
                raise GraphFormatError(line_no, f"bad vertex count {parts[1]!r}")
            if declared_n < 0:
                raise GraphFormatError(line_no, "vertex count must be nonnegative")
            header_line = line_no
            saw_data = True
            continue
        saw_data = True
        if len(parts) != 2:
            raise GraphFormatError(line_no, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(line_no, f"non-integer vertex id in {line!r}")
        if u < 0 or v < 0:
            raise GraphFormatError(line_no, "negative vertex id")
        if u == v:
            raise GraphFormatError(line_no, f"self loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphFormatError(line_no, f"duplicate edge {key}")
        seen.add(key)
        edges.append((u, v))
        if v > max_id:
            max_id = v
        if u > max_id:
            max_id = u
    n = max_id + 1
    if declared_n is not None:
        if declared_n < n:
            raise GraphFormatError(header_line, f"header n={declared_n} smaller than max id {max_id}")
        n = declared_n
    return Graph.from_edges(n, edges, validate=False)


def write_edge_list(graph: Graph, path: str | Path, header: bool = True) -> None:
    """Write a graph in the edge-list format load_edge_list reads."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"n {graph.n}\n")
        for u, v in graph.edges():
            fh.write(f"{u} {v}\n")
