"""Heavy/light vertex classification from sampled local triangle mass.

A vertex is "heavy" for given advice (m_bar, t_bar) and accuracy eps when its
degree or its triangle count t_v is large relative to the advice. The
classifier never sees t_v; it estimates t_v by sampling edges at v and probing
neighbors of the edge's order-smaller endpoint, then compares the median of
repeated estimates against a threshold sitting between the definitional light
and heavy cutoffs. Inside the gap either verdict is acceptable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .query_oracle import neighbor_index

HEAVY = "heavy"
LIGHT = "light"
BORDERLINE = "borderline"


def degree_cutoff(m_bar: float, t_bar: float, eps: float) -> float:
    """Degrees above this are heavy outright."""
    return 2.0 * m_bar / (eps * t_bar) ** (1.0 / 3.0)


def heavy_tv_cutoff(t_bar: float, eps: float) -> float:
    """t_v above this makes a vertex heavy."""
    return 2.0 * t_bar ** (2.0 / 3.0) / eps ** (1.0 / 3.0)


def light_tv_cutoff(t_bar: float, eps: float) -> float:
    """t_v at or below this (with small degree) makes a vertex light."""
    return t_bar ** (2.0 / 3.0) / (2.0 * eps ** (1.0 / 3.0))


def decision_threshold(t_bar: float, eps: float) -> float:
    """Where the sampled classifier draws the line; between the two cutoffs."""
    return t_bar ** (2.0 / 3.0) / eps ** (1.0 / 3.0)


def lower_median(values) -> float:
    """Median, taking the lower of the two middle elements for even counts."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of empty sequence")
    return ordered[(len(ordered) - 1) // 2]


def ceil_div_by_sqrt(d: int, m_bar: float) -> int:
    """ceil(d / sqrt(m_bar)) computed exactly via integer cross-multiplication."""
    if d <= 0:
        return 0
    if d * d <= m_bar:
        return 1
    r = max(1, math.ceil(d / math.sqrt(m_bar)))
    while r > 1 and (r - 1) * (r - 1) * m_bar >= d * d:
        r -= 1
    while r * r * m_bar < d * d:
        r += 1
    return r


def closing_probes(oracle, v: int, x: int, d_v: int, d_x: int, idxs):
    """Probe the neighbors at idxs of the order-smaller endpoint of edge (v, x).

    The order is by (degree, id), and each index lies in 1..d_u, the smaller
    endpoint's degree, which the caller has already queried. Yields, in
    probe order, each w that closes the triangle {v, x, w} with x before w
    in that order. Lazy on purpose: callers may spend queries between
    probes, and a budget trip must land at the same query either way. The
    caller draws the indices, uniform in 1..d_u: the classifier per sample
    from its Random, an advice run in one batch per block of samples.
    """
    if d_x < d_v or (d_x == d_v and x < v):
        u, o = x, v
    else:
        u, o = v, x
    q_neighbor = oracle.q_neighbor
    for i in idxs:
        w = q_neighbor(u, i)
        if w == v or w == x or not oracle.q_pair(o, w):
            continue
        d_w = oracle.q_degree(w)
        if d_x < d_w or (d_x == d_w and x < w):
            yield w


@dataclass(frozen=True)
class HeavyVerdict:
    """Outcome of one classifier call.

    verdict:      HEAVY or LIGHT.
    medians:      the per-repetition t_v estimates the median was taken over
                  (empty when a degree shortcut decided without sampling).
    queries_used: distinct graph queries this call added to the oracle.
    """

    verdict: str
    medians: tuple[float, ...] = ()
    queries_used: int = 0


@dataclass(frozen=True)
class HeavyParams:
    """Knobs for the classifier's sampling effort.

    outer_reps: median repetitions; None means ceil(10 ln n).
    s_scale:    multiplier on the per-repetition edge sample count
                s = 20 * m_bar^(3/2) / (eps^2 * t_bar).
    s_floor:    lower bound on the per-repetition sample count.
    """

    outer_reps: int | None = None
    s_scale: float = 1.0
    s_floor: int = 1

    @classmethod
    def theoretical(cls) -> "HeavyParams":
        return cls()

    @classmethod
    def practical(cls) -> "HeavyParams":
        # Tuned so classifier calls stay affordable under a 2*m_bar query
        # budget; verdict error rises to a few percent per vertex, which the
        # estimator's weighting scheme absorbs.
        return cls(outer_reps=3, s_scale=1.0 / 4096.0, s_floor=8)

    def resolve_outer(self, n: int) -> int:
        if self.outer_reps is not None:
            return self.outer_reps
        return max(1, math.ceil(10.0 * math.log(max(n, 2))))

    def resolve_s(self, m_bar: float, t_bar: float, eps: float) -> int:
        base = 20.0 * m_bar**1.5 / (eps * eps * t_bar)
        return max(self.s_floor, math.ceil(self.s_scale * base))


def classify_heavy(
    oracle,
    v: int,
    m_bar: float,
    t_bar: float,
    eps: float,
    params: HeavyParams | None = None,
    rng: random.Random | None = None,
) -> HeavyVerdict:
    """Classify vertex v as HEAVY or LIGHT through the oracle.

    Sampling: repeatedly pick a uniform edge (v, x) and score d_u, the
    smaller endpoint degree, for each of closing_probes' ceil(d_u /
    sqrt(m_bar)) probes that closes a triangle with x before w. Each
    repetition's scores average to an estimate of t_v; the median of all
    repetitions decides the verdict.

    The rng drives every draw and is required (it defaults to None only so
    that params can keep its default); pass a per-vertex seeded instance for
    fixed-coins behavior (the same vertex always gets the same verdict).
    """
    if rng is None:
        raise TypeError("classify_heavy() needs an rng")
    if params is None:
        params = HeavyParams()
    eps = min(eps, 0.5)
    before = oracle.stats.total
    d_v = oracle.q_degree(v)
    if d_v == 0:
        return HeavyVerdict(LIGHT, (), oracle.stats.total - before)
    if d_v > degree_cutoff(m_bar, t_bar, eps):
        return HeavyVerdict(HEAVY, (), oracle.stats.total - before)
    reps = params.resolve_outer(oracle.n)
    s = params.resolve_s(m_bar, t_bar, eps)
    threshold = decision_threshold(t_bar, eps)

    q_degree = oracle.q_degree
    q_edge = oracle.q_random_edge_at
    estimates = []
    for _ in range(reps):
        y_total = 0.0
        for _ in range(s):
            _, x = q_edge(v, rng)
            d_x = q_degree(x)
            d_u = min(d_v, d_x)
            r = ceil_div_by_sqrt(d_u, m_bar)
            hits = 0
            # Queries draw nothing, so drawing the sample's r probe indices
            # before its first probe leaves the Random stream as it is. r is
            # 1 on most samples, where a tuple costs least.
            if r == 1:
                idxs = (neighbor_index(rng, d_u),)
            else:
                idxs = [neighbor_index(rng, d_u) for _ in range(r)]
            for _ in closing_probes(oracle, v, x, d_v, d_x, idxs):
                hits += 1
            y_total += hits * d_u / r
        estimates.append(d_v * y_total / s)
    verdict = HEAVY if lower_median(estimates) > threshold else LIGHT
    return HeavyVerdict(verdict, tuple(estimates), oracle.stats.total - before)
