"""Exact triangle counting and per-vertex ground-truth labeling.

Two independent counters are provided on purpose. count_brute enumerates id-
ordered triples from edge neighborhood intersections on Python sets;
count_ordered is one numpy kernel over the forward edges of the (degree, id)
order of the vertices with an edge that finds each triangle at its
order-minimal vertex. For each forward edge u -> w1 it walks the shorter of
two rows, u's successors after w1 or w1's successors, and searches for the
edge that closes a triangle with each walked vertex. Its work is the shorter
row's length summed over forward edges, not the C(d+(u), 2) forward wedges
of each vertex u. Either walk closes the same triangles, so the choice moves
no count. The probes run in fixed-size passes that share no state, on a
thread pool when there are several passes and CPUs (numpy releases the
interpreter lock inside them); each pass returns integer counts that the
calling thread adds up, so the result does not depend on the threads. Tests
play the two counters against each other, so they must not share counting
logic.

Both produce the same decomposition: t_v[v] is the number of triangles
containing v, and t_e[(v, x)] counts the triangles through v that are charged
to the directed edge (v, x), where x is the order-smaller of the two partner
vertices. Summing t_e over v's edges gives t_v; summing t_v gives 3t.
TriangleStats keeps t_e as one count per CSR slot, aligned with
graph.targets, and the (v, x) mapping is built from it on first access.
count_ordered computes t and t_v from its closed probes per forward edge and
maps those to CSR slots only when t_e_slots is first read, so the callers
that need only t or t_v (the estimate's fallback, `subtri exact`, the
generators) never pay for the per-slot split.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .graph_store import Graph
from .heavy import BORDERLINE, HEAVY, LIGHT, degree_cutoff, heavy_tv_cutoff, light_tv_cutoff

# Probes searched per pass of count_ordered. Each pass holds up to five int64
# temporaries of this length (512 KiB each), whatever the graph's probe total.
# At most _MAX_WORKERS passes run at once, so at most that many sets of
# temporaries are in flight; a graph of one pass starts no thread. Passes of
# 2^18 probes needed about 4 MiB of heap that the allocator may hand back to
# the system between calls, so a call's time hung on how much memory the code
# before it had freed; passes this size fit in the heap it keeps.
_WEDGE_CHUNK = 1 << 16
_MAX_WORKERS = 4


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@dataclass
class TriangleStats:
    """Triangle count with its per-vertex and per-directed-edge split.

    t and t_v are the counter's own results. t_e_slots[s] is the t_e count
    of the directed edge stored at CSR slot s, from the slot's vertex to
    graph.targets[s]. It is built by calling build_t_e_slots on first
    access, once, and kept; t_e and to_json_dict read it, so only they pay
    for it. count_brute passes a builder that returns its own array.
    """

    graph: Graph = field(repr=False)
    t: int
    t_v: np.ndarray
    build_t_e_slots: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def t_e_slots(self) -> np.ndarray:
        return self.build_t_e_slots()

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
        # Slots ascend by (v, x), since rows are stored sorted.
        return {
            "t": self.t,
            "t_v": self.t_v.tolist(),
            "t_e": np.stack(self._nonzero_edges(), axis=1).tolist(),
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
    return TriangleStats(graph, t, t_v, lambda: t_e_slots)


def count_ordered(graph: Graph) -> TriangleStats:
    """Exact count by probing the forward edges of the (degree, id) order.

    A slot u -> w is forward when w ranks after u. The forward slots, sorted
    by (rank u, rank w), list each vertex's successors in ascending rank: its
    forward row. A triangle u < w1 < w2 is found once, at the forward
    position p = (u -> w1), in one of two ways:

    - the u side walks u's row after p and, for each w2 there, searches the
      sorted forward keys for w1 -> w2;
    - the w1 side walks w1's row and, for each w2 there, searches for
      u -> w2.

    Each position takes the shorter walk: the u side when later_p, the
    number of u's positions after p, is at most out_p, the length of w1's
    row, and the w1 side otherwise. Both sides close exactly the triangles
    u < w1 < w2 on the edge u -> w1, so the side changes the work, the sum
    over p of min(later_p, out_p) probes instead of the sum over u of
    C(d+(u), 2) wedges, and not the result. A closed probe counts once at
    p (hit_1) and once at the position u -> w2 (hit_2: the walked one on
    the u side, the found one on the w1 side). Probes run _WEDGE_CHUNK at a
    time, so memory stays bounded however many there are; arrays are freed
    once spent, for the same reason.

    t and t_v are computed by rank from the hits alone: the forward keys
    are sorted by one np.sort, with no permutation back to CSR slots. At
    the position u -> w, u is in hit_1 triangles, summed over u's row by
    prefix sums at the row bounds, and w in hit_1 + hit_2, summed by w's
    rank with an integer np.add.at. The returned TriangleStats maps the
    hits to slots only when t_e_slots is first read: hit_1 to the slot
    u -> w and hit_1 + hit_2 to w -> u, the slots found by one
    Graph.edge_slots call over the positions that closed a triangle. Until
    then it holds the sorted keys and both hit counts, 3m int64s.

    Only the vertices with degree > 0 are ranked, and the keys and rows
    are over them alone, so past the n-sized rank and t_v, of which only
    those vertices' entries are written, the work and memory follow m and
    not n. An isolated vertex's t_v is 0.

    The passes read the shared arrays and write nothing shared: each
    returns the closed probes per position from its first one, and the
    calling thread adds those into hit_1 and hit_2. With two or more passes
    they run on min(CPUs available, passes, _MAX_WORKERS) threads, so at
    most _MAX_WORKERS passes' temporaries are alive at once and no thread
    holds an array as long as the forward edges; otherwise they run in the
    calling thread. The counts are integer sums, so t, t_v and t_e_slots do
    not depend on which thread ran which pass, or when. An exception in a
    pass, or an interrupt, reaches the caller with its own type once the
    running passes end; passes not yet started never run, and no thread
    started here outlives the call.

    A MemoryError in the n-sized arrays becomes a ValueError that names the
    vertex count, as Graph.from_edges reports it, and one in the m-sized
    arrays after them, or in building t_e_slots later, a ValueError that
    names the edge count.
    """
    try:
        return _count_ordered(graph)
    except MemoryError:
        raise ValueError(f"edge count {graph.m} needs more memory than is available") from None


def _count_ordered(graph: Graph) -> TriangleStats:
    """count_ordered, with a MemoryError past the n-sized arrays raised as is."""
    n, targets, degrees = graph.n, graph.targets, graph.degrees
    try:
        # The n-sized arrays, allocated together. Past the memory the graph's
        # own arrays left, n is too large, as Graph.from_edges reports it.
        rank = np.empty(n, dtype=np.int64)
        t_v = np.zeros(n, dtype=np.int64)
        # Only the vertices with an edge are ranked, and only their entries
        # of rank and t_v are touched: an isolated vertex has no slot and
        # is in no triangle. A stable sort by degree breaks degree ties by
        # id; by_rank[r] is the vertex of rank r.
        live = np.flatnonzero(degrees)
        live_degrees = degrees[live]
        by_rank = live[np.argsort(live_degrees, kind="stable")]
        rank[by_rank] = np.arange(live.size, dtype=np.int64)
    except MemoryError:
        raise ValueError(f"vertex count {n} needs more memory than is available") from None
    # Keys and rows are over the ranked vertices only.
    n_live = live.size
    # The slots' end ranks, 2m long each: past here a MemoryError names the edge count.
    src_rank = np.repeat(rank[live], live_degrees)
    del live, live_degrees
    tgt_rank = rank[targets]
    forward = tgt_rank > src_rank
    fkey = src_rank[forward]
    fkey *= n_live
    fkey += tgt_rank[forward]
    del src_rank, tgt_rank, forward
    fkey.sort()

    # Vertex of rank r owns the forward positions row_bounds[r] to
    # row_bounds[r + 1] - 1.
    row_bounds = np.zeros(n_live + 1, dtype=np.int64)
    n_fwd = len(fkey)
    u_rank = fkey // n_live
    w_rank = fkey - u_rank * n_live
    np.cumsum(np.bincount(u_rank, minlength=n_live), out=row_bounds[1:])
    after = np.arange(1, n_fwd + 1, dtype=np.int64)
    later = row_bounds[u_rank + 1] - after
    walk_start = row_bounds[w_rank]
    probes = row_bounds[w_rank + 1] - walk_start
    on_w1 = probes < later
    np.minimum(probes, later, out=probes)
    del later
    # Position p probes from walk_start[p] on, searching for keys in the
    # row of w1 (u side) or of u (w1 side).
    np.copyto(walk_start, after, where=~on_w1)
    query_row = np.where(on_w1, u_rank, w_rank)
    query_row *= n_live
    del after, u_rank
    # Its probes have the global ids probe_bounds[p] to probe_bounds[p + 1]
    # - 1, and probe k walks position k + shift[p].
    probe_bounds = np.zeros(n_fwd + 1, dtype=np.int64)
    np.cumsum(probes, out=probe_bounds[1:])
    del probes
    probe_start, probe_end = probe_bounds[:-1], probe_bounds[1:]
    shift = walk_start
    shift -= probe_start
    total = int(probe_bounds[-1])

    def run_pass(lo: int) -> tuple[int, np.ndarray, np.ndarray]:
        """Closed probes lo to hi - 1, counted per forward position from
        p_lo: as its u -> w1 (c1) or its u -> w2 (c2)."""
        hi = min(lo + chunk, total)
        p_lo = int(np.searchsorted(probe_end, lo, side="right"))
        p_hi = int(np.searchsorted(probe_start, hi, side="left"))
        counts = np.minimum(probe_end[p_lo:p_hi], hi) - np.maximum(probe_start[p_lo:p_hi], lo)
        walked = np.repeat(shift[p_lo:p_hi], counts)
        walked += np.arange(lo, hi)
        query = np.repeat(query_row[p_lo:p_hi], counts)
        query += w_rank[walked]
        del walked
        found = np.searchsorted(fkey, query)
        np.minimum(found, n_fwd - 1, out=found)
        closed = np.flatnonzero(fkey[found] == query)
        del query
        chunk_on_w1 = on_w1[p_lo:p_hi]
        found = found[closed] if chunk_on_w1.any() else None
        owner = np.searchsorted(np.cumsum(counts), closed, side="right")
        c1 = np.bincount(owner)
        # c2 goes to the position u -> w2: probe k walked shift[p] + k on
        # the u side and found it on the w1 side. Either ranks after p_lo.
        j = (shift[p_lo:p_hi] + (lo - p_lo))[owner]
        j += closed
        if found is not None:
            w1_closed = chunk_on_w1[owner]
            found -= p_lo
            j[w1_closed] = found[w1_closed]
        return p_lo, c1, np.bincount(j)

    # Closed probes per forward position, as its u -> w1 (hit_1) or its
    # u -> w2 (hit_2). Only this thread writes them.
    hit_1 = np.zeros(n_fwd, dtype=np.int64)
    hit_2 = np.zeros(n_fwd, dtype=np.int64)
    chunk = _WEDGE_CHUNK
    starts = range(0, total, chunk)
    workers = min(_cpu_count(), len(starts), _MAX_WORKERS)
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    try:
        for p_lo, c1, c2 in (pool.map if pool else map)(run_pass, starts):
            hit_1[p_lo : p_lo + len(c1)] += c1
            hit_2[p_lo : p_lo + len(c2)] += c2
    finally:
        # On an exception or an interrupt, passes not yet started never
        # start; the ones running finish, and every worker is joined.
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    del query_row, probe_bounds, shift, on_w1

    # t_v by rank: a position's u -> w1 closes hit_1 triangles at u, summed
    # over u's row by prefix sums, and hit_1 + hit_2 at w1, summed by w1.
    per_position = np.zeros(n_fwd + 1, dtype=np.int64)
    np.cumsum(hit_1, out=per_position[1:])
    rank_t_v = per_position[row_bounds[1:]] - per_position[row_bounds[:-1]]
    del per_position, row_bounds
    hit_12 = hit_2
    hit_12 += hit_1
    np.add.at(rank_t_v, w_rank, hit_12)
    t_v[by_rank] = rank_t_v
    build_t_e_slots = partial(_slots_of_positions, graph, by_rank, fkey, hit_1, hit_12)
    return TriangleStats(graph, int(hit_1.sum()), t_v, build_t_e_slots)


def _slots_of_positions(
    graph: Graph, by_rank: np.ndarray, fkey: np.ndarray, hit_1: np.ndarray, hit_12: np.ndarray
) -> np.ndarray:
    """count_ordered's t_e_slots: the forward position u -> w with key fkey[p]
    charges hit_1[p] to the slot u -> w and hit_12[p] to the slot w -> u.

    A MemoryError becomes the ValueError that count_ordered raises for one
    in its m-sized arrays.
    """
    try:
        closing = np.flatnonzero(hit_12)
        u_rank, w_rank = np.divmod(fkey[closing], len(by_rank))
        u, w = by_rank[u_rank], by_rank[w_rank]
        del u_rank, w_rank
        slots = graph.edge_slots(np.concatenate((u, w)), np.concatenate((w, u)))
        t_e_slots = np.zeros(len(graph.targets), dtype=np.int64)
        t_e_slots[slots] = np.concatenate((hit_1[closing], hit_12[closing]))
        return t_e_slots
    except MemoryError:
        raise ValueError(f"edge count {graph.m} needs more memory than is available") from None


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
