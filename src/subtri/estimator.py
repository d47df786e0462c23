"""Sublinear triangle-count estimation through the query oracle.

estimate_with_advice produces one estimate X given advice (m_bar, t_bar)
with E[X] <= t always, and E[X] close to t when the advice brackets the
truth. estimate removes the advice assumption: it pins m_bar with a sampled
average-degree stage, then descends t_bar = n^3, n^3/2, ... once,
accepting the first level whose (minimum-over-runs) estimate clears the
level. Budget exhaustion or full descent falls back to an exact count,
mirroring the abort argument: once a 2*m_bar query budget is spent, reading
the whole graph is no more expensive asymptotically.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .exact import count_ordered
from .heavy import (
    LIGHT,
    HeavyParams,
    ceil_div_by_sqrt_array,
    classify_batch,
    classify_heavy,  # unused here; bench/tracer.py looks it up by name
    closing_hits,
    lower_median,
)
from .query_oracle import BudgetExhausted, QueryOracle

# Advice runs per t_bar level in estimate's search; a level accepts when the
# minimum over its runs clears it.
RUNS_PER_LEVEL = 2

# Feige stage sizing: each of ceil(10 ln n) invocations averages
# ceil(FEIGE_C * sqrt(n) / FEIGE_EPS) sampled degrees.
FEIGE_C = 10.0
FEIGE_EPS = 0.5

# Mixing constant (splitmix64's) for deriving per-vertex verdict seeds.
_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 63) - 1

# An advice run's s2 stage draws and queries its samples in blocks of this
# many, so its arrays stay this long whatever s2 is (up to MAX_RUN_SAMPLES).
_S2_BLOCK = 8192

# Hard ceiling on a single run's s1 or s2. Beyond this the sample arrays do
# not fit in reasonable memory and the loop would run for hours, so the run
# is refused instead of started. estimate() degrades such runs to the exact
# fallback; its search reaches this line at small eps (1e-5) and, at eps 0.5,
# at t_bar = 1 once n >= 2e5.
MAX_RUN_SAMPLES = 20_000_000


class RunSizeExceeded(RuntimeError):
    """Raised when an advice run's sampling effort exceeds MAX_RUN_SAMPLES."""


@dataclass(frozen=True)
class EstimatorParams:
    """Effort knobs for an advice run; the defaults are the theoretical profile.

    s2_scale:     multiplier on an advice run's s2 edge samples.
    heavy_params: the classifier's effort (HeavyParams).

    The theoretical profile keeps every constant from the analysis and is
    impractically slow outside tiny instances; estimate_with_advice's
    statistical checks use it. The practical profile, which estimate runs,
    scales the sampling efforts down; it no longer carries the worst-case
    guarantee.
    """

    s2_scale: float = 1.0
    heavy_params: HeavyParams = field(default_factory=HeavyParams)

    @classmethod
    def theoretical(cls) -> "EstimatorParams":
        return cls()

    @classmethod
    def practical(cls) -> "EstimatorParams":
        return cls(
            s2_scale=1.0 / 100.0,
            heavy_params=HeavyParams.practical(),
        )


class DegreeWeightedSampler:
    """Draw vertices from a fixed multiset with probability proportional to degree.

    Degrees are fetched once through the oracle (batched); draws are exact:
    a uniform position below the total degree, then the first prefix sum of
    the multiset's degree sequence above it, found by searchsorted. A
    zero-degree member adds nothing to the prefix sums, so it is never drawn.
    """

    def __init__(self, oracle: QueryOracle, vertices: np.ndarray):
        self.vertices = np.asarray(vertices, dtype=np.int64)
        self.degrees = oracle.q_degree_batch(self.vertices)
        self._cum = np.cumsum(self.degrees, dtype=np.int64)
        self.total_degree = int(self._cum[-1]) if len(self.vertices) else 0

    def draw(self, rng: np.random.Generator, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k draws with replacement, as (vertices, their degrees)."""
        if self.total_degree <= 0:
            raise ValueError("sampler has zero total degree")
        at = np.searchsorted(self._cum, rng.integers(0, self.total_degree, k), "right")
        return self.vertices[at], self.degrees[at]


def _split(seed) -> tuple[np.random.Generator, int]:
    """Derive (batch rng, verdict seed base) from one seed."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    # Child 0 once seeded a scalar random.Random; skipping it keeps the
    # other two streams, and so every estimate's m_bar, as they were.
    batch_ss, verdict_ss = ss.spawn(3)[1:]
    batch = np.random.default_rng(batch_ss)
    verdict_base = int(verdict_ss.generate_state(2, np.uint64)[0])
    return batch, verdict_base


def estimate_with_advice(
    oracle: QueryOracle,
    m_bar: float,
    t_bar: float,
    eps: float,
    params: EstimatorParams | None = None,
    seed=None,
    verdict_cache: dict[int, str] | None = None,
) -> float:
    """One advice-driven estimate X of the triangle count.

    Pipeline: draw s1 uniform vertices (a multiset S), then s2 times pick
    v in S proportional to degree, a uniform edge (v, x) at v, and probe
    uniform neighbors w of the edge's order-smaller endpoint u. Each oriented
    triangle hit scores max(d_u, sqrt(m_bar)) split across the triangle's
    light endpoints, zeroed when v itself is heavy. X rescales the average
    score so that E[X] is the total weight over light vertices, which is at
    most t for every heavy/light split and close to t for good advice.

    A sample probes at all with probability min(1, d_u / sqrt(m_bar)) and
    then makes ceil(d_u / sqrt(m_bar)) probes (one when d_u^2 <= m_bar), so
    low-degree endpoints usually cost nothing. Every vertex is classified at
    most once, with coins seeded per vertex, and its verdict is kept in
    verdict_cache (vertex -> verdict; a new dict when none is passed). A cache
    shared between runs realizes fixed coins across the sharing runs.
    params defaults to the practical profile.

    Draws come from one numpy Generator per run, and the s2 samples go in
    blocks of _S2_BLOCK. Within a block the queries run in this order: the
    block's edge queries (q_neighbor_batch) and the degrees of their far
    ends; then the probes of all kept samples at once (closing_hits:
    q_neighbor_batch, q_pair_batch on the probes that are neither v nor x,
    q_degree_batch on the closers); then one classify_batch call for every
    vertex of the block's hits that verdict_cache lacks, each drawing from
    np.random.default_rng of its own seed; then the hits are scored from
    verdict_cache. The set of queries a run asks is fixed by its draws and
    the verdicts, so the estimate does not depend on that order as long as
    the budget holds. The charged count can: a pair query is free when a
    neighbor answer revealed the pair first, so the order decides how many
    charges the same queries cost, and with it where the budget trips.
    """
    if params is None:
        params = EstimatorParams.practical()
    eps = min(eps, 0.5)
    if m_bar <= 0 or t_bar <= 0:
        raise ValueError("advice must be positive")
    if verdict_cache is None:
        verdict_cache = {}
    np_rng, verdict_base = _split(seed)
    n = oracle.n

    s1 = max(1, math.ceil(eps**-3 * math.log(n / eps) * n / t_bar ** (1.0 / 3.0)))
    s2 = max(1, math.ceil(params.s2_scale * eps**-4 * math.log(n) ** 2 * m_bar**1.5 / t_bar))
    if s1 > MAX_RUN_SAMPLES or s2 > MAX_RUN_SAMPLES:
        raise RunSizeExceeded(
            f"run wants s1={s1} and s2={s2} samples, over the {MAX_RUN_SAMPLES} "
            "ceiling; loosen eps or use practical-profile parameters"
        )
    sample = oracle.sample_vertices(s1, np_rng)
    sampler = DegreeWeightedSampler(oracle, sample)
    if sampler.total_degree == 0:
        return 0.0

    sqrt_m = math.sqrt(m_bar)
    # d_u^2 <= m_bar exactly when d_u <= isqrt(floor(m_bar)), in integers.
    small_max = math.isqrt(math.floor(m_bar))
    y_sum = 0.0
    for start in range(0, s2, _S2_BLOCK):
        k = min(_S2_BLOCK, s2 - start)
        # v was drawn by degree, so d_v > 0.
        vs, dvs = sampler.draw(np_rng, k)
        xs = oracle.q_neighbor_batch(vs, np_rng.integers(1, dvs + 1))
        dxs = oracle.q_degree_batch(xs)
        dus = np.minimum(dvs, dxs)
        small = dus <= small_max
        kept = np.flatnonzero(~small | (np_rng.random(k) < dus / sqrt_m))
        if not kept.size:
            continue
        vs, xs, dvs, dxs, dus = vs[kept], xs[kept], dvs[kept], dxs[kept], dus[kept]
        rs = ceil_div_by_sqrt_array(dus, m_bar)
        at = np.repeat(np.arange(kept.size), rs)
        hit_at, ws = closing_hits(oracle, vs, xs, dvs, dxs, at, np_rng.integers(1, dus[at] + 1))
        if not hit_at.size:
            continue
        # Each hit's three vertices, then one classifier call for the ones
        # no earlier block or run has classified.
        need, where = np.unique(np.concatenate((vs[hit_at], xs[hit_at], ws)), return_inverse=True)
        todo = [u for u in need.tolist() if u not in verdict_cache]
        if todo:
            rngs = [np.random.default_rng((verdict_base ^ (u * _MIX)) & _MASK) for u in todo]
            found = classify_batch(oracle, todo, m_bar, t_bar, eps, params.heavy_params, rngs)
            verdict_cache.update(zip(todo, (verdict for verdict, _ in found)))
        light = np.array([verdict_cache[u] == LIGHT for u in need.tolist()])[where].reshape(3, -1)
        # A hit scores only when v is light, split across its light vertices.
        scored = light[0]
        ell = light.sum(axis=0)[scored]
        hit_at = hit_at[scored]
        y_sum += float(np.sum(np.maximum(dus[hit_at], sqrt_m) / ell / rs[hit_at]))
    return n / (s1 * s2) * sampler.total_degree * y_sum


def feige_avg_degree(oracle: QueryOracle, seed=None) -> float:
    """Estimate the average degree from uniform degree samples.

    Each invocation averages ceil(FEIGE_C * sqrt(n) / FEIGE_EPS) sampled
    degrees; the lower median over ceil(10 ln n) invocations is returned. The
    result lands in [d_avg / (2 + o(1)), d_avg] with constant probability per
    invocation, amplified by the median.
    """
    np_rng, _ = _split(seed)
    n = oracle.n
    reps = max(1, math.ceil(10.0 * math.log(max(n, 2))))
    k = max(1, math.ceil(FEIGE_C * math.sqrt(n) / FEIGE_EPS))
    means = []
    for _ in range(reps):
        vs = oracle.sample_vertices(k, np_rng)
        degs = oracle.q_degree_batch(vs)
        means.append(float(degs.mean()))
    return float(lower_median(means))


@dataclass
class EstimateReport:
    """Outcome of a full estimate run, JSON-serializable.

    fallback_reason says why the exact count was taken: "budget" (the query
    budget tripped), "run_size" (a run would have passed MAX_RUN_SAMPLES),
    "descent_exhausted" (no level accepted, or m_bar was 0 so there was no
    level to try), or None when a level accepted and no fallback ran.
    """

    estimate: float
    epsilon: float
    m_bar: float
    t_bar: float | None
    queries: dict
    runs: int
    seed: int | None
    fallback_used: bool
    fallback_reason: str | None
    wall_ms: float | None

    def to_json_dict(self, timing: bool = True) -> dict:
        return {
            "estimate": self.estimate,
            "epsilon": self.epsilon,
            "advice": {"m_bar": self.m_bar, "t_bar": self.t_bar},
            "queries": self.queries,
            "runs": self.runs,
            "seed": self.seed,
            "fallback_used": self.fallback_used,
            "fallback_reason": self.fallback_reason,
            "wall_ms": self.wall_ms if timing else None,
        }


def estimate(
    oracle: QueryOracle,
    eps: float = 0.5,
    params: EstimatorParams | None = None,
    seed: int | None = 0,
) -> EstimateReport:
    """Estimate the triangle count of the oracle's graph without advice.

    Stages: (1) average-degree sampling pins m_bar = n * d_bar / 2 and, unless
    the caller installed one, a query budget of ceil(2 * m_bar); (2) one
    descent visits t_bar = n^3 / 2^level once for each level, while t_bar >= 1,
    and accepts the first level where the minimum over RUNS_PER_LEVEL advice
    runs clears the level; (3) if the budget trips, a run would blow past
    MAX_RUN_SAMPLES, or the descent ends without acceptance, the exact count
    is taken by reading the graph directly (off-oracle), and the report says
    so. params defaults to the practical profile.

    The descent's cost is what it spends down to the first level at or below
    t, as in the analysis (Eden, Levi, Ron, Seshadhri, FOCS 2015). Each level
    is visited once: re-descending from n^3 whenever the floor halves, as
    this code once did, made L(L+1)/2 visits for L levels. A revisit bought
    little. At a level above t it is one more false-accept draw: E[X] <= t,
    so by Markov each visit accepts with probability at most t / t_bar. At a
    level just below t it is a second try at a cheaper level, but only after
    the whole prefix above it has been paid for again.
    """
    t_start = time.perf_counter()
    if params is None:
        params = EstimatorParams.practical()
    if not eps > 0:  # also rejects NaN
        raise ValueError("eps must be positive")
    eps_eff = min(eps, 0.5)
    n = oracle.n
    if n == 0:
        return EstimateReport(
            estimate=0.0, epsilon=eps_eff, m_bar=0.0, t_bar=None,
            queries=oracle.stats.to_dict(), runs=0, seed=seed,
            fallback_used=False, fallback_reason=None,
            wall_ms=(time.perf_counter() - t_start) * 1000.0,
        )

    root = np.random.SeedSequence(seed)
    feige_ss, loop_ss = root.spawn(2)
    loop_entropy = int(loop_ss.generate_state(2, np.uint64)[0])

    d_bar = feige_avg_degree(oracle, seed=feige_ss)
    m_bar = n * d_bar / 2.0
    if oracle.budget_cap is None:
        oracle.set_budget(math.ceil(2.0 * m_bar))

    runs = 0
    accepted_level: float | None = None
    reason = "descent_exhausted"
    if m_bar > 0:
        try:
            top = float(n) ** 3
            for level in range(int(top).bit_length()):
                t_bar = top / 2.0**level
                cache: dict[int, str] = {}
                xs = []
                for run_i in range(RUNS_PER_LEVEL):
                    run_ss = np.random.SeedSequence(entropy=loop_entropy, spawn_key=(level, run_i))
                    xs.append(
                        estimate_with_advice(
                            oracle, m_bar, t_bar, eps_eff, params,
                            seed=run_ss, verdict_cache=cache,
                        )
                    )
                    runs += 1
                x_final = min(xs)
                if x_final >= t_bar:
                    accepted_level = t_bar
                    reason = None
                    break
        except BudgetExhausted:
            reason = "budget"
        except RunSizeExceeded:
            reason = "run_size"
    if accepted_level is None:
        # The search exhausted every level, the budget tripped or a run was
        # refused; each ends with an exact read of the graph.
        x_final = float(count_ordered(oracle.graph).t)

    wall_ms = (time.perf_counter() - t_start) * 1000.0
    return EstimateReport(
        estimate=x_final,
        epsilon=eps_eff,
        m_bar=m_bar,
        t_bar=accepted_level,
        queries=oracle.stats.to_dict(),
        runs=runs,
        seed=seed,
        fallback_used=accepted_level is None,
        fallback_reason=reason,
        wall_ms=wall_ms,
    )
