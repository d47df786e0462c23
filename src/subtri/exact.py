"""Exact triangle counting and per-vertex ground-truth labeling.

Two independent counters are provided on purpose. count_brute enumerates id-
ordered triples from edge neighborhood intersections on Python sets;
count_ordered is one numpy forward-wedge kernel over the (degree, id) vertex
order that finds each triangle at its order-minimal vertex. Tests play them
against each other, so the two must not share counting logic.

Both produce the same decomposition: t_v[v] is the number of triangles
containing v, and t_e[(v, x)] counts the triangles through v that are charged
to the directed edge (v, x), where x is the order-smaller of the two partner
vertices. Summing t_e over v's edges gives t_v; summing t_v gives 3t.
TriangleStats keeps t_e as one count per CSR slot, aligned with
graph.targets; the (v, x) mapping is built from it on first access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph_store import Graph
from .heavy import BORDERLINE, HEAVY, LIGHT, degree_cutoff, heavy_tv_cutoff, light_tv_cutoff

# Wedges closed per pass of count_ordered. Each pass holds about eight int64
# temporaries of this length (16 MiB), whatever the graph's wedge total.
_WEDGE_CHUNK = 1 << 18


@dataclass
class TriangleStats:
    """Triangle count with its per-vertex and per-directed-edge split.

    t_e_slots[s] is the t_e count of the directed edge stored at CSR slot s,
    from the slot's vertex to graph.targets[s].
    """

    graph: Graph = field(repr=False)
    t: int
    t_v: np.ndarray
    t_e_slots: np.ndarray

    def _nonzero_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(v, x, count) arrays over the slots with a nonzero count."""
        slots = np.flatnonzero(self.t_e_slots)
        v = np.searchsorted(self.graph.offsets, slots, side="right") - 1
        return v, self.graph.targets[slots], self.t_e_slots[slots]

    @cached_property
    def t_e(self) -> dict[tuple[int, int], int]:
        """The nonzero t_e counts keyed by directed edge (v, x)."""
        v, x, c = self._nonzero_edges()
        return dict(zip(zip(v.tolist(), x.tolist()), c.tolist()))

    def to_json_dict(self) -> dict:
        v, x, c = self._nonzero_edges()
        order = np.lexsort((x, v))
        return {
            "t": self.t,
            "t_v": self.t_v.tolist(),
            "t_e": np.stack([v[order], x[order], c[order]], axis=1).tolist(),
        }


def _neighbor_sets(graph: Graph) -> list[set[int]]:
    return [set(map(int, graph.neighbors(v))) for v in range(graph.n)]


def count_brute(graph: Graph) -> TriangleStats:
    """Exact count via edge-anchored neighborhood intersection in id order.

    Intended as an independent check on count_ordered; intersections run on
    raw neighbor sets and each triangle is found at its id-minimal edge.
    """
    n = graph.n
    t = 0
    t_v = np.zeros(n, dtype=np.int64)
    t_e_slots = np.zeros(len(graph.targets), dtype=np.int64)
    sets = _neighbor_sets(graph)
    slot_of = [
        {int(x): int(graph.offsets[v]) + i for i, x in enumerate(graph.neighbors(v))}
        for v in range(n)
    ]
    degrees = graph.degrees
    for a in range(n):
        sa = sets[a]
        for b in sa:
            if b <= a:
                continue
            for c in sa & sets[b]:
                if c <= b:
                    continue
                t += 1
                for v, x, w in ((a, b, c), (b, a, c), (c, a, b)):
                    t_v[v] += 1
                    # Charge the order-smaller of the other two endpoints.
                    dx, dw = degrees[x], degrees[w]
                    p = x if (dx < dw or (dx == dw and x < w)) else w
                    t_e_slots[slot_of[v][p]] += 1
    return TriangleStats(graph, t, t_v, t_e_slots)


def count_ordered(graph: Graph) -> TriangleStats:
    """Exact count by closing forward wedges in the (degree, id) order.

    A slot u -> w is forward when w ranks after u. The forward slots, sorted
    by (rank u, rank w), list each vertex's successors in ascending rank.
    Every pair w1 < w2 of u's successors is a wedge, enumerated by index
    arithmetic over those sorted positions; it closes a triangle exactly
    when w1 -> w2 is itself a forward slot, which a searchsorted on the
    sorted forward keys decides. So each triangle is found once, at its
    order-minimal vertex u, and charged to the slots u -> w1, w1 -> u and
    w2 -> u by bincount. Wedges are closed _WEDGE_CHUNK at a time, so
    memory stays bounded however many there are (up to the sum over u of
    succ(u)^2 / 2, with succ(u) <= sqrt(2m)).
    """
    n, offsets, targets = graph.n, graph.offsets, graph.targets
    t_e_slots = np.zeros(len(targets), dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    # A stable sort by degree breaks degree ties by id.
    rank[np.argsort(graph.degrees, kind="stable")] = np.arange(n, dtype=np.int64)
    src_rank = np.repeat(rank, graph.degrees)
    tgt_rank = rank[targets]
    forward = tgt_rank > src_rank
    fwd = np.flatnonzero(forward)
    back = np.flatnonzero(~forward)
    fkey = src_rank[fwd] * n + tgt_rank[fwd]
    order = np.argsort(fkey)
    fwd, fkey = fwd[order], fkey[order]
    # Sorted by the key of its reversed edge, back[k] is the slot w -> u
    # opposite the forward slot fwd[k] = u -> w.
    back = back[np.argsort(tgt_rank[back] * n + src_rank[back])]

    # Forward position p (the slot u -> w1) opens one wedge with each later
    # position of u's block. Its wedges have the global ids wedge_start[p]
    # to wedge_end[p] - 1, and wedge k pairs it with position k + shift[p].
    u_rank = fkey // n
    w_rank = fkey - u_rank * n
    positions = np.arange(len(fkey), dtype=np.int64)
    n_wedges = np.cumsum(np.bincount(u_rank, minlength=n))[u_rank] - 1 - positions
    wedge_end = np.cumsum(n_wedges)
    wedge_start = wedge_end - n_wedges
    shift = positions + 1 - wedge_start
    total = int(wedge_end[-1]) if len(fkey) else 0

    # Closed wedges per forward position, as its w1 (hit_1) or its w2 (hit_2).
    hit_1 = np.zeros(len(fkey), dtype=np.int64)
    hit_2 = np.zeros(len(fkey), dtype=np.int64)
    for lo in range(0, total, _WEDGE_CHUNK):
        hi = min(lo + _WEDGE_CHUNK, total)
        p_lo = int(np.searchsorted(wedge_end, lo, side="right"))
        p_hi = int(np.searchsorted(wedge_start, hi, side="left"))
        counts = np.minimum(wedge_end[p_lo:p_hi], hi) - np.maximum(wedge_start[p_lo:p_hi], lo)
        j = np.repeat(shift[p_lo:p_hi], counts) + np.arange(lo, hi)
        query = np.repeat(w_rank[p_lo:p_hi] * n, counts) + w_rank[j]
        pos = np.minimum(np.searchsorted(fkey, query), len(fkey) - 1)
        closed = np.flatnonzero(fkey[pos] == query)
        c1 = np.bincount(np.searchsorted(np.cumsum(counts), closed, side="right"))
        c2 = np.bincount(j[closed] - p_lo)
        hit_1[p_lo : p_lo + len(c1)] += c1
        hit_2[p_lo : p_lo + len(c2)] += c2

    t_e_slots[fwd] = hit_1
    t_e_slots[back] = hit_1 + hit_2
    per_slot = np.zeros(len(targets) + 1, dtype=np.int64)
    np.cumsum(t_e_slots, out=per_slot[1:])
    t_v = per_slot[offsets[1:]] - per_slot[offsets[:-1]]
    return TriangleStats(graph, int(hit_1.sum()), t_v, t_e_slots)


def label_ground_truth(
    stats: TriangleStats, graph: Graph, m_bar: float, t_bar: float, eps: float
) -> list[str]:
    """Label each vertex heavy, light, or borderline from exact counts.

    The heavy and light conditions leave a deliberate gap in the t_v range
    (a factor of 4): vertices inside it get BORDERLINE, meaning either
    classifier verdict is acceptable.
    """
    d_cut = degree_cutoff(m_bar, t_bar, eps)
    hi = heavy_tv_cutoff(t_bar, eps)
    lo = light_tv_cutoff(t_bar, eps)
    labels = []
    for v in range(graph.n):
        d = int(graph.degrees[v])
        tv = int(stats.t_v[v])
        if d > d_cut or tv > hi:
            labels.append(HEAVY)
        elif tv <= lo:
            labels.append(LIGHT)
        else:
            labels.append(BORDERLINE)
    return labels
