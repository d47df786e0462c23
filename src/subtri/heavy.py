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

from .graph_store import precedes_by_degree

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


def check_advice(m_bar: float, t_bar: float, eps: float) -> None:
    """Raise ValueError unless eps, m_bar and t_bar are all positive; the
    comparisons also reject NaN."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not (m_bar > 0 and t_bar > 0):
        raise ValueError("advice must be positive")


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


# Below this, d * d < 2^52 and r * r < 2^53 for r up to 2^26 + 1, so float64
# holds them, and the products ceil_div_by_sqrt compares them with, exactly.
_EXACT_BELOW = 1 << 26


def ceil_div_by_sqrt_array(ds: np.ndarray, m_bar: float) -> np.ndarray:
    """ceil_div_by_sqrt of each entry, equal to it entry by entry.

    The scalar's first guess and its +-1 integer steps run on arrays, for
    the entries whose d and guess are below _EXACT_BELOW: there every
    integer the steps compare converts to float64 exactly, so numpy's
    float-against-int comparisons agree with Python's exact ones, and the
    float products round alike. An entry at or above it (a degree of 2^26
    or more, or a d / sqrt(m_bar) that large when m_bar < 1) takes the
    scalar. 1 for each positive entry when the largest d has d^2 <= m_bar.
    """
    ds = np.asarray(ds, dtype=np.int64)
    positive = ds > 0
    r = positive.astype(np.int64)
    if not ds.size or int(ds.max()) ** 2 <= m_bar:
        return r
    guess = np.ceil(ds / math.sqrt(m_bar))
    fast = positive & (ds < _EXACT_BELOW) & (guess < _EXACT_BELOW)
    at = np.flatnonzero(fast & (ds * ds > m_bar))
    d2 = ds[at] * ds[at]
    ra = np.maximum(1, guess[at]).astype(np.int64)
    while (down := (ra > 1) & ((ra - 1) * (ra - 1) * m_bar >= d2)).any():
        ra[down] -= 1
    while (up := ra * ra * m_bar < d2).any():
        ra[up] += 1
    r[at] = ra
    for i in np.flatnonzero(positive & ~fast).tolist():
        r[i] = ceil_div_by_sqrt(int(ds[i]), m_bar)
    return r


def edge_hits(oracle, vs, dvs, m_bar: float, rng: np.random.Generator):
    """Sample one uniform edge (v, x) at each vs[k], of degree dvs[k] > 0,
    and probe uniform neighbors w of its order-smaller endpoint u, drawing
    from rng: the one sampling step both samplers share.

    The order is by (degree, id), so d_u = min(d_v, d_x). A sample is kept
    with probability min(1, d_u / sqrt(m_bar)) and then makes
    r = ceil(d_u / sqrt(m_bar)) probes (one when d_u^2 <= m_bar), so
    low-degree endpoints usually cost nothing. A probe hits when w closes a
    triangle {v, x, w} with x before w, and scores max(d_u, sqrt(m_bar)) / r,
    so a sample's expected score is the number of such w, thinned or not.
    Returns (the hits' sample positions k, their x, their w, their scores),
    in probe order.

    Draws and queries go in this order: the edge indices, the edges
    (q_neighbor_batch) and their far ends' degrees; the thinning coins and
    the probe indices, then the probes (q_neighbor_batch), the pairs (o, w)
    for the probes whose w is neither v nor x, o being u's other endpoint
    (q_pair_batch), and the degrees of the closers (q_degree_batch).
    """
    xs = oracle.q_neighbor_batch(vs, rng.integers(1, dvs + 1))
    dxs = oracle.q_degree_batch(xs)
    dus = np.minimum(dvs, dxs)
    sqrt_m = math.sqrt(m_bar)
    # d_u / sqrt_m rounds to 1 or more when d_u^2 > m_bar, so those
    # samples are always kept; a thinned sample makes no probe.
    kept = rng.random(vs.size) < dus / sqrt_m
    rs = np.zeros(vs.size, dtype=np.int64)
    rs[kept] = ceil_div_by_sqrt_array(dus[kept], m_bar)
    at = np.repeat(np.arange(vs.size), rs)
    x_first = precedes_by_degree(dxs, xs, dvs, vs)
    ws = oracle.q_neighbor_batch(np.where(x_first, xs, vs)[at], rng.integers(1, dus[at] + 1))
    cand = np.flatnonzero((ws != vs[at]) & (ws != xs[at]))
    closed = cand[oracle.q_pair_batch(np.where(x_first, vs, xs)[at[cand]], ws[cand])]
    at, ws = at[closed], ws[closed]
    dws = oracle.q_degree_batch(ws)
    after = precedes_by_degree(dxs[at], xs[at], dws, ws)
    hit, ws = at[after], ws[after]
    return hit, xs[hit], ws, np.maximum(dus[hit], sqrt_m) / rs[hit]


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
    rng: np.random.Generator,
) -> list[tuple[str, tuple[float, ...]]]:
    """Classify the vertices vs at once, drawing from rng.

    Returns (verdict, per-repetition t_v estimates) per vertex, in the order
    of vs; the estimates are empty when a degree shortcut decided. A verdict
    depends on the vertices that share the call, since they share rng's
    stream; a caller that needs one verdict per vertex keeps the first, as
    estimate_with_advice's verdict_cache does. An eps, m_bar or t_bar that
    is not positive, NaN included, is a ValueError (check_advice).

    Sampling, per vertex: reps * s samples of edge_hits, the kernel an
    advice run samples with: an edge (v, x) whose expected score is the
    number of w that close a triangle {v, x, w} with x before w. Each
    repetition's s scores average to an estimate of t_v / d_v; the lower
    median of the repetitions' estimates decides.

    The queries go in batches: one q_degree_batch of vs (degree 0 is LIGHT
    and degree above degree_cutoff HEAVY, without sampling), then one
    edge_hits call per chunk of samples. The sampled vertices' samples are
    numbered in a row, vertex by vertex and repetition by repetition, and
    cut into chunks of at most _CHUNK_SAMPLES.
    """
    check_advice(m_bar, t_bar, eps)
    if params is None:
        params = HeavyParams()
    eps = min(eps, 0.5)
    # q_degree_batch refuses non-integer ids, which a cast here would truncate.
    vs = np.asarray(vs)
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
    # y[position * reps + repetition] sums that repetition's scores.
    y = np.zeros(sampling.size * reps)
    total = y.size * s
    for lo in range(0, total, _CHUNK_SAMPLES):
        at = np.arange(lo, min(total, lo + _CHUNK_SAMPLES)) // (reps * s)
        hit, _, _, score = edge_hits(oracle, vs[at], dvs[at], m_bar, rng)
        first = lo // s
        sums = np.bincount((lo + hit) // s - first, weights=score)
        y[first:first + sums.size] += sums
    estimates = dvs[:, None] * y.reshape(-1, reps) / s
    medians = np.sort(estimates, axis=1)[:, (reps - 1) // 2]
    threshold = decision_threshold(t_bar, eps)
    for i, row, med in zip(sampling.tolist(), estimates.tolist(), medians.tolist()):
        found[i] = (HEAVY if med > threshold else LIGHT, tuple(row))
    return found


# classify_batch queries its samples in chunks of at most this many, so its
# arrays stay this long whatever the vertex count and reps * s are. The
# theoretical profile's 30 * 1644 samples per vertex (criterion 7) fit in
# one chunk.
_CHUNK_SAMPLES = 1 << 16


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
    its default). The same vertex, m_bar, t_bar, params and rng state give
    the same verdict.
    """
    if rng is None:
        raise TypeError("classify_heavy() needs an rng")
    before = oracle.stats.total
    [(verdict, medians)] = classify_batch(oracle, [v], m_bar, t_bar, eps, params, rng)
    return HeavyVerdict(verdict, medians, oracle.stats.total - before)
