"""Exact triangle counting on small graphs.

Counts triangles two ways (a brute-force scan of id-ordered triples, and the
forward-edge kernel that walks the shorter successor row per edge of the
(degree, id) order) on a few hand-built graphs plus a random one, then checks
the bookkeeping identities that every count must satisfy.

Usage: python3 demos/exact_counting.py
"""

from __future__ import annotations

import math

import numpy as np

from subtri.exact import count_brute, count_ordered
from subtri.graph_store import Graph


def gnp(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def show(name: str, g: Graph) -> None:
    brute = count_brute(g)
    ordered = count_ordered(g)
    assert brute.t == ordered.t
    assert list(brute.t_v) == list(ordered.t_v)
    assert brute.t_e == ordered.t_e
    stats = ordered

    # Per-vertex counts triple-count each triangle; per-edge assigned counts
    # partition each vertex's total over its incident edges.
    assert sum(stats.t_v) == 3 * stats.t
    for v in range(g.n):
        owned = sum(c for (a, _), c in stats.t_e.items() if a == v)
        assert owned == stats.t_v[v]
    cap = math.isqrt(2 * g.m)
    assert all(c <= cap for c in stats.t_e.values())

    busiest = max(range(g.n), key=lambda v: stats.t_v[v]) if g.n else None
    print(f"{name:18s} n={g.n:4d} m={g.m:5d} t={stats.t:6d} "
          f"max_t_v={max(stats.t_v, default=0):4d} (vertex {busiest}) "
          f"max_t_e={max(stats.t_e.values(), default=0)} <= sqrt(2m)={cap}")


def main() -> None:
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    bowtie = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    square = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])

    print("graph                 n     m      t  ...identities all checked")
    show("K4", k4)
    show("bowtie", bowtie)
    show("4-cycle", square)
    show("G(60, 0.2)", gnp(60, 0.2, seed=7))
    show("G(200, 0.1)", gnp(200, 0.1, seed=7))
    print("ok: brute and ordered counters agree everywhere, identities hold")


if __name__ == "__main__":
    main()
