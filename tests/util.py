"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from subtri.graph_store import Graph


def gnp_edges(n: int, p: float, seed: int) -> np.ndarray:
    """Edge array of a G(n, p) draw, deterministic under seed.

    Built row by row so memory stays O(n) even for large n.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n - 1):
        draws = rng.random(n - 1 - i)
        js = np.nonzero(draws < p)[0]
        if len(js):
            block = np.empty((len(js), 2), dtype=np.int64)
            block[:, 0] = i
            block[:, 1] = js + i + 1
            rows.append(block)
    if not rows:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(rows)


def gnp_graph(n: int, p: float, seed: int) -> Graph:
    return Graph.from_edges(n, gnp_edges(n, p, seed))


def chung_lu(n: int, pairs: int, beta: float, seed: int) -> Graph:
    """Skewed graph: endpoint pairs drawn with P ~ w_i w_j, w_i = (i + 10)^(-1/(beta - 1))."""
    rng = np.random.default_rng(seed)
    w = (np.arange(n, dtype=np.float64) + 10.0) ** (-1.0 / (beta - 1.0))
    u, v = rng.choice(n, size=(2, pairs), p=w / w.sum())
    keep = u != v
    keys = np.unique(np.minimum(u, v)[keep] * n + np.maximum(u, v)[keep])
    return Graph.from_edges(n, np.stack([keys // n, keys % n], axis=1))


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def bowtie_graph() -> Graph:
    """Two triangles sharing vertex 0: n=5, m=6, t=2."""
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def wheel_like_graph() -> tuple[Graph, int]:
    """A hub joined to every vertex of a 9-regular bipartite rim.

    The rim is K_{9,9} (81 edges, triangle-free), so the hub sits in one
    triangle per rim edge: t_v(hub) = 81 while every rim vertex has t_v = 9.
    Returns (graph, hub id).
    """
    hub = 18
    edges = [(i, 9 + j) for i in range(9) for j in range(9)]
    edges += [(v, hub) for v in range(18)]
    return Graph.from_edges(19, edges), hub
