"""Seeded inputs, subtri-side builds and reference counts for each workload.

A workload has three stages, kept apart so that set-up time measures only
the program:

- ``prepare(seed, sizes, out_dir)``: the benchmark's own input generation
  (untimed). For powerlaw-file this writes the edge-list file.
- ``build(spec)``: builds the graphs through subtri (``lb_gen`` generators or
  ``load_edge_list``). This is what ``setup_s`` times.
- ``references(spec, graphs)``: triangle counts computed outside subtri,
  as sum(A o A^2) / 6 with scipy.sparse, checked against the closed form
  where the family has one. A mismatch raises ``ReferenceMismatch``.

Module functions are looked up on the subtri modules at call time
(``lb_gen.gen_g2_matching``, not a bound name), so the traced run's wrappers
see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp

from subtri import graph_store, lb_gen

# Full-size parameters. "tiny" keeps the same shapes at smoke-test scale.
SIZES = {
    "full": {
        "panel_sides": (128, 256),
        "clique": (100_000, 10**6),
        "powerlaw": (20_000, 285_000),
    },
    "tiny": {
        "panel_sides": (8, 16),
        "clique": (2_000, 1_000),
        "powerlaw": (400, 1_700),
    },
}

# Exponent of the powerlaw-file degree sequence (Chung-Lu weights).
POWERLAW_BETA = 2.5

# Rows per block when forming A[rows] @ A, which bounds the reference's memory.
_REF_BLOCK = 2048


class ReferenceMismatch(RuntimeError):
    """The scipy reference disagrees with a closed form or with the input."""


@dataclass(frozen=True)
class Workload:
    name: str
    # Per graph in one round: estimates (one per fixed seed) and
    # count_ordered calls. Sized so one round takes 15 to 20 seconds.
    estimates_per_round: int
    exacts_per_round: int
    prepare: Callable[[int, dict, Path], dict]
    build: Callable[[dict], list]
    references: Callable[[dict, list], list[int]]


def triangles_scipy(n: int, edges: np.ndarray) -> int:
    """sum(A o A^2) / 6 for the simple undirected graph with these edges."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    a = sp.csr_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(n, n))
    total = 0
    for lo in range(0, n, _REF_BLOCK):
        block = a[lo : lo + _REF_BLOCK]
        total += int((block @ a).multiply(block).sum())
    if total % 6:
        raise ReferenceMismatch(f"sum(A o A^2) = {total} is not a multiple of 6")
    return total // 6


def _graph_edges(graph) -> np.ndarray:
    return np.array(list(graph.edges()), dtype=np.int64).reshape(-1, 2)


def _check(name: str, got: int, want: int) -> int:
    if got != want:
        raise ReferenceMismatch(f"{name}: scipy count {got} != closed form {want}")
    return got


# -- panels ----------------------------------------------------------------


def _panels_prepare(seed: int, sizes: dict, out_dir: Path) -> dict:
    return {"sides": sizes["panel_sides"], "seed": seed}


def _panels_build(spec: dict) -> list:
    return [
        lb_gen.gen_g2_matching(4 * side, side, seed=spec["seed"]).graph
        for side in spec["sides"]
    ]


def _panels_references(spec: dict, graphs: list) -> list[int]:
    return [
        _check(f"g2-matching side={s}", triangles_scipy(g.n, _graph_edges(g)), 2 * s * (s - 2))
        for s, g in zip(spec["sides"], graphs)
    ]


# -- hidden-clique -----------------------------------------------------------


def _clique_prepare(seed: int, sizes: dict, out_dir: Path) -> dict:
    n, t = sizes["clique"]
    return {"n": n, "t": t, "seed": seed}


def _clique_build(spec: dict) -> list:
    return [lb_gen.gen_clique_family(spec["n"], spec["t"], seed=spec["seed"]).graph]


def _clique_references(spec: dict, graphs: list) -> list[int]:
    (g,) = graphs
    q = round(spec["t"] ** (1.0 / 3.0))  # clique size floor(t^(1/3))
    while q**3 > spec["t"]:
        q -= 1
    return [_check("clique", triangles_scipy(g.n, _graph_edges(g)), math.comb(q, 3))]


# -- powerlaw-file -----------------------------------------------------------


def powerlaw_edges(n: int, pairs: int, seed: int) -> np.ndarray:
    """Chung-Lu-style skewed graph: `pairs` endpoint pairs drawn with P ~ w_i w_j.

    Weights w_i = (i + 10)^(-1/(beta-1)) give a degree tail with exponent
    about beta. Self loops and repeated pairs are dropped; vertex ids are
    relabelled at random and the edge order shuffled, so neither ids nor
    file order reveal degrees.
    """
    rng = np.random.default_rng(seed)
    w = (np.arange(n, dtype=np.float64) + 10.0) ** (-1.0 / (POWERLAW_BETA - 1.0))
    p = w / w.sum()
    u = rng.choice(n, size=pairs, p=p)
    v = rng.choice(n, size=pairs, p=p)
    keep = u != v
    lo = np.minimum(u[keep], v[keep])
    hi = np.maximum(u[keep], v[keep])
    keys = np.unique(lo * np.int64(n) + hi)
    edges = np.stack([keys // n, keys % n], axis=1)
    edges = edges[rng.permutation(len(edges))]
    return rng.permutation(n)[edges]


def _powerlaw_prepare(seed: int, sizes: dict, out_dir: Path) -> dict:
    n, pairs = sizes["powerlaw"]
    edges = powerlaw_edges(n, pairs, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"powerlaw-{seed}.edges"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {n}\n")
        fh.write("\n".join(f"{a} {b}" for a, b in edges.tolist()))
        fh.write("\n")
    return {"n": n, "edges": edges, "path": path}


def _powerlaw_build(spec: dict) -> list:
    return [graph_store.load_edge_list(spec["path"])]


def _powerlaw_references(spec: dict, graphs: list) -> list[int]:
    (g,) = graphs
    if (g.n, g.m) != (spec["n"], len(spec["edges"])):
        raise ReferenceMismatch(
            f"loaded n={g.n} m={g.m}, file has n={spec['n']} m={len(spec['edges'])}"
        )
    return [triangles_scipy(spec["n"], spec["edges"])]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("panels", 12, 3, _panels_prepare, _panels_build, _panels_references),
        Workload("hidden-clique", 4, 4, _clique_prepare, _clique_build, _clique_references),
        Workload("powerlaw-file", 6, 3, _powerlaw_prepare, _powerlaw_build, _powerlaw_references),
    )
}
