"""Generators for graph families with known or tightly banded triangle counts.

These are the hard instances for triangle estimation: graphs that look alike
under few queries but differ in triangle count. Each generator returns the
built graph together with its exact count (or an exact count verified against
a guaranteed band) and enough metadata to reproduce it. Vertices beyond the
construction are left isolated at the tail of the id range, so families can
be embedded in a larger vertex set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exact import count_ordered
from .graph_store import Graph


@dataclass
class GenResult:
    """A generated graph with its provenance and exact triangle count."""

    graph: Graph
    family: str
    params: dict
    exact_t: int
    formula: str = ""
    meta: dict = field(default_factory=dict)

    def sidecar_dict(self) -> dict:
        return {"family": self.family, "params": self.params, "exact_t": self.exact_t}


def _seed_value(seed):
    return seed if isinstance(seed, int) or seed is None else None


def _maybe_shuffle(
    rng: np.random.Generator, n: int, edges: np.ndarray, shuffle: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Optionally relabel all ids by a uniform permutation of [0, n)."""
    if not shuffle:
        return edges, None
    perm = rng.permutation(n)
    return perm[edges], perm


def _grid_edges(rows: np.ndarray, cols: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """(rows[i], cols[j]) for each kept cell of the boolean grid keep, row by row."""
    i, j = np.nonzero(keep)
    return np.column_stack((rows[i], cols[j]))


def _icbrt(x: int) -> int:
    """Integer cube root (floor)."""
    q = round(x ** (1.0 / 3.0))
    while (q + 1) ** 3 <= x:
        q += 1
    while q**3 > x:
        q -= 1
    return q


def gen_clique_family(n: int, t: int, seed=None) -> GenResult:
    """A clique of floor(t^(1/3)) vertices on a uniform random id subset.

    The only non-isolated vertices are the clique members, so the triangle
    mass hides in a vanishing corner of the id space. exact_t = C(q, 3).
    """
    q = _icbrt(t)
    if q < 3:
        raise ValueError("t must be at least 27 so the clique has 3+ vertices")
    if n < q:
        raise ValueError(f"n={n} too small for clique of size {q}")
    rng = np.random.default_rng(seed)
    members = np.sort(rng.choice(n, size=q, replace=False))
    i, j = np.triu_indices(q, 1)
    edges = np.column_stack((members[i], members[j]))
    graph = Graph.from_edges(n, edges)
    return GenResult(
        graph=graph,
        family="clique",
        params={"n": n, "t": t, "seed": _seed_value(seed)},
        exact_t=math.comb(q, 3),
        formula="C(q,3) with q=floor(t^(1/3))",
        meta={"clique_size": q},
    )


def gen_g1_bipartite(n: int, side: int, seed=None, shuffle: bool = False) -> GenResult:
    """Complete bipartite graph K_{side,side}: many edges, zero triangles."""
    s = side
    if s < 1:
        raise ValueError("side must be positive")
    if n < 2 * s:
        raise ValueError(f"n={n} too small for two sides of {s}")
    ids = np.arange(s, dtype=np.int64)
    edges = _grid_edges(ids, s + ids, np.ones((s, s), dtype=bool))
    edges, _ = _maybe_shuffle(np.random.default_rng(seed), n, edges, shuffle)
    graph = Graph.from_edges(n, edges)
    return GenResult(
        graph=graph,
        family="g1-bipartite",
        params={"n": n, "side": s, "seed": _seed_value(seed)},
        exact_t=0,
        formula="0 (bipartite)",
    )


def _pairing(rng: np.random.Generator, ids: np.ndarray) -> np.ndarray:
    """A uniform perfect matching on ids (even count), as consecutive pairs."""
    return rng.permutation(ids).reshape(-1, 2)


def _panel_edges(rng: np.random.Generator, base: int, s: int) -> np.ndarray:
    """K_{s,s} minus a random perfect cross matching, plus one matching per side."""
    removed = rng.permutation(s)
    ids = np.arange(base, base + s, dtype=np.int64)
    cross = _grid_edges(ids, s + ids, np.arange(s) != removed[:, None])
    return np.concatenate((cross, _pairing(rng, ids), _pairing(rng, s + ids)))


def gen_g2_matching(n: int, side: int, seed=None, shuffle: bool = False) -> GenResult:
    """Two disjoint matched-bipartite panels with side*(side-2) triangles each.

    Each panel is K_{s,s} with a random perfect cross matching removed and a
    random perfect matching added inside each side. Every within-side edge
    then closes exactly s - 2 triangles, giving 2s(s-2) in total across the
    two panels, with all degrees s and 2s^2 edges.
    """
    s = side
    if s < 2 or s % 2:
        raise ValueError("side must be even and at least 2")
    if n < 4 * s:
        raise ValueError(f"n={n} too small for two panels of {2 * s}")
    rng = np.random.default_rng(seed)
    edges = np.concatenate((_panel_edges(rng, 0, s), _panel_edges(rng, 2 * s, s)))
    edges, _ = _maybe_shuffle(rng, n, edges, shuffle)
    graph = Graph.from_edges(n, edges)
    return GenResult(
        graph=graph,
        family="g2-matching",
        params={"n": n, "side": s, "seed": _seed_value(seed)},
        exact_t=2 * s * (s - 2),
        formula="2s(s-2)",
        meta={"panels": 2},
    )


def _one_factor(s: int, k: int) -> np.ndarray:
    """Round k of the circle-method one-factorization of K_s (s even)."""
    j = np.arange(1, s // 2)
    first = np.concatenate(([s - 1], (k + j) % (s - 1)))
    second = np.concatenate(([k], (k - j) % (s - 1)))
    return np.column_stack((first, second))


def _disjoint_side_matchings(rng: np.random.Generator, base: int, s: int, r: int) -> np.ndarray:
    """r pairwise edge-disjoint perfect matchings on [base, base+s).

    Takes r rounds of a one-factorization of K_s under a random vertex
    relabeling: disjointness is structural, randomness comes from the
    relabeling and the round choice.
    """
    relabel = base + rng.permutation(s)
    rounds = rng.choice(s - 1, size=r, replace=False)
    return relabel[np.concatenate([_one_factor(s, int(k)) for k in rounds])]


def gen_g2_multi_matching(n: int, side: int, r: int, seed=None, shuffle: bool = False) -> GenResult:
    """One bipartite panel with r cross matchings swapped for r per-side matchings.

    Removes r pairwise edge-disjoint perfect cross matchings from K_{s,s} and
    adds r pairwise edge-disjoint perfect matchings inside each side, keeping
    all degrees s and s^2 edges. The triangle count is certified against the
    band [r*s*(s-2r), r*s*(s-2) + r^2*s] and returned exactly (counted).
    r = 1 delegates to the two-panel matched family.
    """
    s = side
    if r == 1:
        return gen_g2_matching(n, side, seed, shuffle)
    if s < 2 or s % 2:
        raise ValueError("side must be even and at least 2")
    if not 1 < r <= s // 8:
        raise ValueError("need 1 < r <= side/8")
    if n < 2 * s:
        raise ValueError(f"n={n} too small for a panel of {2 * s}")
    rng = np.random.default_rng(seed)
    # Random permutation composed with r distinct cyclic shifts: the r cross
    # matchings are pairwise disjoint by construction.
    pi = rng.permutation(s)
    shifts = rng.choice(s, size=r, replace=False)
    keep = np.ones((s, s), dtype=bool)
    keep[np.arange(s)[:, None], (pi[:, None] + shifts) % s] = False
    ids = np.arange(s, dtype=np.int64)
    edges = np.concatenate((
        _grid_edges(ids, s + ids, keep),
        _disjoint_side_matchings(rng, 0, s, r),
        _disjoint_side_matchings(rng, s, s, r),
    ))
    edges, _ = _maybe_shuffle(rng, n, edges, shuffle)
    graph = Graph.from_edges(n, edges)
    t = int(count_ordered(graph).t)
    lo = r * s * (s - 2 * r)
    hi = r * s * (s - 2) + r * r * s
    if not lo <= t <= hi:
        raise RuntimeError(f"triangle count {t} outside certified band [{lo}, {hi}]")
    return GenResult(
        graph=graph,
        family="g2-multi-matching",
        params={"n": n, "side": s, "r": r, "seed": _seed_value(seed)},
        exact_t=t,
        formula=f"counted, in [r*s*(s-2r), r*s*(s-2)+r^2*s] = [{lo}, {hi}]",
        meta={"band": [lo, hi]},
    )


def gen_g2_partial_matching(n: int, side: int, k: int, seed=None, shuffle: bool = False) -> GenResult:
    """K_{s,s} with a partial cross matching of size k swapped for side edges.

    k random column indices are red-matched and removed; the matched indices
    are paired up into quads, and each quad contributes one edge inside each
    side. Every added edge closes exactly s - 2 triangles: exact_t = k(s-2),
    with s^2 edges and all degrees s.
    """
    s = side
    if k < 2 or k % 2:
        raise ValueError("k must be even and at least 2")
    if k > s // 4:
        raise ValueError("need k <= side/4")
    if n < 2 * s:
        raise ValueError(f"n={n} too small for a panel of {2 * s}")
    rng = np.random.default_rng(seed)
    idx = rng.permutation(rng.choice(s, size=k, replace=False))
    keep = np.ones((s, s), dtype=bool)
    keep[idx, idx] = False
    ids = np.arange(s, dtype=np.int64)
    # Quad a adds (idx[2a], idx[2a+1]) and its copy on the other side.
    quads = idx.reshape(-1, 2)
    edges = np.concatenate((_grid_edges(ids, s + ids, keep), quads, s + quads))
    edges, _ = _maybe_shuffle(rng, n, edges, shuffle)
    graph = Graph.from_edges(n, edges)
    return GenResult(
        graph=graph,
        family="g2-partial-matching",
        params={"n": n, "side": s, "k": k, "seed": _seed_value(seed)},
        exact_t=k * (s - 2),
        formula="k(s-2)",
    )


def gen_special_four(
    n: int, side: int, t: int, seed=None, special: bool = True, shuffle: bool = False
) -> GenResult:
    """Four-block construction: triangle-free twin, or exactly 4t triangles.

    Four vertex sets A, B, C, D of size s are split into blocks of size t.
    A-B and C-D are complete bipartite minus same-index blocks; each index i
    adds complete B_i-C_i and D_i-A_i links. The base graph has all degrees
    s, 2s^2 edges, and no triangles. With special=True, four special vertices
    in distinct blocks trade two removed edges for two added ones, creating
    exactly 4t triangles while preserving every degree.
    """
    s = side
    if t < 1 or s % t:
        raise ValueError("block size t must divide side")
    nb = s // t
    if nb < 4:
        raise ValueError("need at least 4 blocks (side/t >= 4)")
    if n < 4 * s:
        raise ValueError(f"n={n} too small for four sets of {s}")
    rng = np.random.default_rng(seed)
    a0, b0, c0, d0 = 0, s, 2 * s, 3 * s

    green = np.empty((0, 2), dtype=np.int64)
    purple = np.empty((0, 2), dtype=np.int64)
    specials = None
    if special:
        ia, ib, ic, id_ = (int(x) for x in rng.choice(nb, size=4, replace=False))
        a_star = a0 + ia * t + int(rng.integers(t))
        b_star = b0 + ib * t + int(rng.integers(t))
        c_star = c0 + ic * t + int(rng.integers(t))
        d_star = d0 + id_ * t + int(rng.integers(t))
        green = np.array([(a_star, c_star), (b_star, d_star)], dtype=np.int64)
        purple = np.array([(a_star, b_star), (c_star, d_star)], dtype=np.int64)
        specials = [a_star, b_star, c_star, d_star]

    # Cell (i, j) of each cross grid adds A_i-B_j and C_i-D_j when i and j
    # lie in different blocks; each block index adds its B-C and D-A links.
    ids = np.arange(s, dtype=np.int64)
    cross = ids[:, None] // t != ids // t
    edges = np.concatenate((
        _grid_edges(a0 + ids, b0 + ids, cross),
        _grid_edges(c0 + ids, d0 + ids, cross),
        _grid_edges(b0 + ids, c0 + ids, ~cross),
        _grid_edges(d0 + ids, a0 + ids, ~cross),
    ))
    edges = edges[~(edges[:, None, :] == purple).all(axis=2).any(axis=1)]
    edges = np.concatenate((edges, green))

    edges, perm = _maybe_shuffle(rng, n, edges, shuffle)
    if specials is not None and perm is not None:
        specials = [int(perm[v]) for v in specials]
    graph = Graph.from_edges(n, edges)
    meta = {"blocks": nb, "block_size": t}
    if specials is not None:
        meta["special_vertices"] = specials
    return GenResult(
        graph=graph,
        family="special-four",
        params={"n": n, "side": s, "t": t, "special": special, "seed": _seed_value(seed)},
        exact_t=4 * t if special else 0,
        formula="4t" if special else "0 (triangle-free twin)",
        meta=meta,
    )
