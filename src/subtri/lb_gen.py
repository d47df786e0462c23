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
    rng: np.random.Generator, n: int, edges: list[tuple[int, int]], shuffle: bool
) -> tuple[list[tuple[int, int]], np.ndarray | None]:
    """Optionally relabel all ids by a uniform permutation of [0, n)."""
    if not shuffle:
        return edges, None
    perm = rng.permutation(n)
    return [(int(perm[u]), int(perm[v])) for u, v in edges], perm


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
    edges = [(int(members[i]), int(members[j])) for i in range(q) for j in range(i + 1, q)]
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
    edges = [(i, s + j) for i in range(s) for j in range(s)]
    edges, _ = _maybe_shuffle(np.random.default_rng(seed), n, edges, shuffle)
    graph = Graph.from_edges(n, edges)
    return GenResult(
        graph=graph,
        family="g1-bipartite",
        params={"n": n, "side": s, "seed": _seed_value(seed)},
        exact_t=0,
        formula="0 (bipartite)",
    )


def _pairing(rng: np.random.Generator, ids: np.ndarray) -> list[tuple[int, int]]:
    """A uniform perfect matching on ids (even count), as consecutive pairs."""
    order = rng.permutation(ids)
    return [(int(order[2 * i]), int(order[2 * i + 1])) for i in range(len(ids) // 2)]


def _panel_edges(rng: np.random.Generator, base: int, s: int) -> list[tuple[int, int]]:
    """K_{s,s} minus a random perfect cross matching, plus one matching per side."""
    removed = rng.permutation(s)
    edges = [
        (base + i, base + s + j) for i in range(s) for j in range(s) if j != removed[i]
    ]
    edges += _pairing(rng, np.arange(base, base + s))
    edges += _pairing(rng, np.arange(base + s, base + 2 * s))
    return edges


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
    edges = _panel_edges(rng, 0, s) + _panel_edges(rng, 2 * s, s)
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


def _one_factor(s: int, k: int) -> list[tuple[int, int]]:
    """Round k of the circle-method one-factorization of K_s (s even)."""
    pairs = [(s - 1, k)]
    for j in range(1, s // 2):
        pairs.append(((k + j) % (s - 1), (k - j) % (s - 1)))
    return pairs


def _disjoint_side_matchings(
    rng: np.random.Generator, base: int, s: int, r: int
) -> list[tuple[int, int]]:
    """r pairwise edge-disjoint perfect matchings on [base, base+s).

    Takes r rounds of a one-factorization of K_s under a random vertex
    relabeling: disjointness is structural, randomness comes from the
    relabeling and the round choice.
    """
    relabel = rng.permutation(s)
    rounds = rng.choice(s - 1, size=r, replace=False)
    edges = []
    for k in rounds:
        for a, b in _one_factor(s, int(k)):
            edges.append((base + int(relabel[a]), base + int(relabel[b])))
    return edges


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
    removed = [set() for _ in range(s)]
    for c in shifts:
        for i in range(s):
            removed[i].add((int(pi[i]) + int(c)) % s)
    edges = [(i, s + j) for i in range(s) for j in range(s) if j not in removed[i]]
    edges += _disjoint_side_matchings(rng, 0, s, r)
    edges += _disjoint_side_matchings(rng, s, s, r)
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
    matched = set(int(i) for i in idx)
    edges = [(i, s + j) for i in range(s) for j in range(s) if not (i == j and i in matched)]
    for a in range(0, k, 2):
        i1, i2 = int(idx[a]), int(idx[a + 1])
        edges.append((i1, i2))
        edges.append((s + i1, s + i2))
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

    purple = set()
    green: list[tuple[int, int]] = []
    specials = None
    if special:
        ia, ib, ic, id_ = (int(x) for x in rng.choice(nb, size=4, replace=False))
        a_star = a0 + ia * t + int(rng.integers(t))
        b_star = b0 + ib * t + int(rng.integers(t))
        c_star = c0 + ic * t + int(rng.integers(t))
        d_star = d0 + id_ * t + int(rng.integers(t))
        green = [(a_star, c_star), (b_star, d_star)]
        purple = {(a_star, b_star), (c_star, d_star)}
        specials = [a_star, b_star, c_star, d_star]

    edges: list[tuple[int, int]] = []
    for i in range(s):
        for j in range(s):
            if i // t != j // t:
                e = (a0 + i, b0 + j)
                if e not in purple:
                    edges.append(e)
                e = (c0 + i, d0 + j)
                if e not in purple:
                    edges.append(e)
    for blk in range(nb):
        lo = blk * t
        for p in range(t):
            for q in range(t):
                edges.append((b0 + lo + p, c0 + lo + q))
                edges.append((d0 + lo + p, a0 + lo + q))
    edges += green

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
