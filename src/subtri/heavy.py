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
from dataclasses import dataclass

import numpy as np

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


def ceil_div_by_sqrt_array(ds: np.ndarray, m_bar: float) -> np.ndarray:
    """ceil_div_by_sqrt of each positive entry, exact: 1 throughout when the
    largest d has d^2 <= m_bar, else computed once per distinct value."""
    if not ds.size or int(ds.max()) ** 2 <= m_bar:
        return np.ones(ds.size, dtype=np.int64)
    vals, inv = np.unique(ds, return_inverse=True)
    return np.array([ceil_div_by_sqrt(d, m_bar) for d in vals.tolist()], dtype=np.int64)[inv]


def closing_hits(oracle, vs, xs, dvs, dxs, samples, idxs):
    """Probe, for each k, neighbor idxs[k] of the order-smaller endpoint of
    sample samples[k]'s edge (vs, xs) with end degrees (dvs, dxs).

    The order is by (degree, id), and each index lies in 1..d_u, the smaller
    endpoint's degree, which the caller has already queried. Returns the
    probes that close a triangle {v, x, w} with x before w in that order, as
    (their sample positions, their w), in probe order. Queries go in three
    batches: the probes (q_neighbor_batch), the pairs (o, w) for the probes
    whose w is neither v nor x, o being the other endpoint (q_pair_batch),
    and the degrees of the closers (q_degree_batch). The one probe step
    both samplers share.
    """
    x_first = (dxs < dvs) | ((dxs == dvs) & (xs < vs))
    us = np.where(x_first, xs, vs)[samples]
    os_ = np.where(x_first, vs, xs)[samples]
    ws = oracle.q_neighbor_batch(us, idxs)
    cand = np.flatnonzero((ws != vs[samples]) & (ws != xs[samples]))
    closed = cand[oracle.q_pair_batch(os_[cand], ws[cand])]
    samples, ws = samples[closed], ws[closed]
    dws = oracle.q_degree_batch(ws)
    d_x, x = dxs[samples], xs[samples]
    after = (d_x < dws) | ((d_x == dws) & (x < ws))
    return samples[after], ws[after]


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


def classify_batch(
    oracle,
    vs,
    m_bar: float,
    t_bar: float,
    eps: float,
    params: HeavyParams | None,
    rngs,
) -> list[tuple[str, tuple[float, ...]]]:
    """Classify the vertices vs at once; vertex vs[k] draws from rngs[k].

    Returns (verdict, per-repetition t_v estimates) per vertex, in the order
    of vs; the estimates are empty when a degree shortcut decided. Each
    vertex draws only from its own Generator, in a sequence fixed by the
    vertex alone, so no verdict depends on batch order or batch membership.

    Sampling, per vertex: reps * s uniform edges (v, x); each scores d_u,
    the smaller endpoint degree, for each of its ceil(d_u / sqrt(m_bar))
    probes that closes a triangle with x before w (closing_hits), divided
    by that probe count. Each repetition's s scores average to an estimate
    of t_v / d_v; the lower median of the repetitions' estimates decides.

    The queries go in batches: one q_degree_batch of vs (degree 0 is LIGHT
    and degree above degree_cutoff HEAVY, without sampling), then per chunk
    of samples the edges (q_neighbor_batch), their far ends' degrees, and
    closing_hits' probes, pairs and closer degrees. A chunk holds at most
    _CHUNK_SAMPLES samples. A vertex with more samples than that takes them
    in pieces of _CHUNK_SAMPLES, each piece drawing its edge indices and then
    its probe indices; a vertex that fits draws in that order once.
    """
    if params is None:
        params = HeavyParams()
    eps = min(eps, 0.5)
    vs = np.asarray(vs, dtype=np.int64)
    if len(rngs) != vs.size:
        raise ValueError("classify_batch() needs one rng per vertex")
    dvs = oracle.q_degree_batch(vs)
    cutoff = degree_cutoff(m_bar, t_bar, eps)
    # The degree shortcuts' verdicts; the sampled vertices' entries are
    # overwritten below.
    found = [(LIGHT if d == 0 else HEAVY, ()) for d in dvs.tolist()]
    sampling = np.flatnonzero((dvs > 0) & (dvs <= cutoff))
    if not sampling.size:
        return found
    reps = params.resolve_outer(oracle.n)
    s = params.resolve_s(m_bar, t_bar, eps)
    vs, dvs = vs[sampling], dvs[sampling]
    rngs = [rngs[i] for i in sampling.tolist()]
    y = np.zeros(sampling.size * reps)
    for chunk in _chunks(sampling.size, reps * s):
        first, last = chunk[0][0], chunk[-1][0]
        y[first * reps:(last + 1) * reps] += _chunk_rep_sums(
            oracle, vs, dvs, rngs, chunk, m_bar, s, reps
        )
    estimates = dvs[:, None] * y.reshape(-1, reps) / s
    medians = np.sort(estimates, axis=1)[:, (reps - 1) // 2]
    threshold = decision_threshold(t_bar, eps)
    for i, row, med in zip(sampling.tolist(), estimates.tolist(), medians.tolist()):
        found[i] = (HEAVY if med > threshold else LIGHT, tuple(row))
    return found


# classify_batch queries the samples of its vertices in chunks of at most
# this many (and splits a vertex with more into pieces of this many), so its
# arrays stay this long whatever reps * s is. The theoretical profile's
# 30 * 1644 samples per vertex (criterion 7) fit in one piece.
_CHUNK_SAMPLES = 1 << 16


def _chunks(count: int, total: int):
    """Group `count` vertices of `total` samples each into chunks of at most
    _CHUNK_SAMPLES samples, as lists of (vertex position, lo, hi) pieces."""
    bound = _CHUNK_SAMPLES
    chunk, size = [], 0
    for pos in range(count):
        for lo in range(0, total, bound):
            hi = min(total, lo + bound)
            if chunk and size + hi - lo > bound:
                yield chunk
                chunk, size = [], 0
            chunk.append((pos, lo, hi))
            size += hi - lo
    yield chunk


def _chunk_rep_sums(oracle, vs, dvs, rngs, chunk, m_bar, s, reps) -> np.ndarray:
    """Per-repetition score sums of one chunk's pieces, for the vertex
    positions chunk[0][0]..chunk[-1][0], flattened (position, repetition).

    Only a piece that fills the chunk can be a vertex's non-last piece, so
    no chunk holds two pieces of one vertex and each piece draws its edge
    indices before its probe indices.
    """
    pos = np.array([p for p, _, _ in chunk], dtype=np.int64)
    lens = np.array([hi - lo for _, lo, hi in chunk], dtype=np.int64)
    idxs = np.concatenate([
        rngs[p].integers(1, dvs[p] + 1, size=hi - lo) for p, lo, hi in chunk
    ])
    at = np.repeat(pos, lens)
    v, d_v = vs[at], dvs[at]
    x = oracle.q_neighbor_batch(v, idxs)
    d_x = oracle.q_degree_batch(x)
    d_u = np.minimum(d_v, d_x)
    r = ceil_div_by_sqrt_array(d_u, m_bar)
    probe_at = np.concatenate(([0], np.cumsum(r)))
    starts = np.concatenate(([0], np.cumsum(lens)))
    highs = np.repeat(d_u, r) + 1
    probes = np.concatenate([
        rngs[p].integers(1, highs[probe_at[a]:probe_at[b]])
        for (p, _, _), a, b in zip(chunk, starts[:-1].tolist(), starts[1:].tolist())
    ])
    hit_at, _ = closing_hits(oracle, v, x, d_v, d_x, np.repeat(np.arange(at.size), r), probes)
    hits = np.bincount(hit_at, minlength=at.size)
    rep = np.concatenate([np.arange(lo, hi) for _, lo, hi in chunk]) // s
    keys = (at - pos[0]) * reps + rep
    return np.bincount(keys, weights=hits * d_u / r, minlength=(pos[-1] - pos[0] + 1) * reps)


def classify_heavy(
    oracle,
    v: int,
    m_bar: float,
    t_bar: float,
    eps: float,
    params: HeavyParams | None = None,
    rng: np.random.Generator | None = None,
) -> HeavyVerdict:
    """Classify vertex v as HEAVY or LIGHT through the oracle: classify_batch
    on v alone, drawing from rng.

    The rng is required (it defaults to None only so that params can keep
    its default); pass a per-vertex seeded np.random.default_rng for
    fixed-coins behavior (the same vertex always gets the same verdict).
    """
    if rng is None:
        raise TypeError("classify_heavy() needs an rng")
    before = oracle.stats.total
    [(verdict, medians)] = classify_batch(oracle, [v], m_bar, t_bar, eps, params, [rng])
    return HeavyVerdict(verdict, medians, oracle.stats.total - before)
