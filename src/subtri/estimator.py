"""Sublinear triangle-count estimation through the query oracle.

estimate_with_advice produces one estimate X given advice (m_bar, t_bar)
with E[X] <= t always, and E[X] close to t when the advice brackets the
truth. estimate removes the advice assumption: it pins m_bar with an
average-degree stage, then descends t_bar = top, top/2, ... once,
accepting the first level whose (minimum-over-runs) estimate clears the
level. A level stops at its first run below t_bar, which already rejects
it, so only the accepting level makes all its runs. Budget exhaustion or
full descent falls back to an exact count, mirroring the abort argument:
once a 2*m_bar query budget is spent, reading the whole graph is no more
expensive asymptotically.

One rule applies at both places that draw uniform vertices: a stage that
would draw at least n of them reads V instead, at the cost of the n
distinct degree queries an estimate pays anyway. The average-degree stage
then returns the exact mean, so m_bar = m and the descent starts at Rivin's
bound top = (sqrt(2)/3) * m^(3/2) instead of n^3. An advice run that reads
V samples exactly uniform edges and calls no classifier (Assadi, Kapralov
and Khanna, ITCS 2019, count from uniform edges without one); it builds a
degree-weighted sampler over V, which draws the vertex of a uniform CSR
slot. Both places read V through QueryOracle.q_degree_all, which charges
the n degree queries once and returns the graph's degree array without a
sort or a copy, so reading V again charges nothing.
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
    check_advice,
    classify_batch,
    classify_heavy,  # unused here; bench/tracer.py looks it up by name
    edge_hits,
    lower_median,
)
from .query_oracle import BudgetExhausted, QueryOracle

# Advice runs per t_bar level in estimate's search; a level accepts when the
# minimum over its runs clears it, and stops at its first run below it.
RUNS_PER_LEVEL = 2

# Feige stage sizing: each of ceil(10 ln n) invocations averages
# ceil(FEIGE_C * sqrt(n) / FEIGE_EPS) sampled degrees.
FEIGE_C = 10.0
FEIGE_EPS = 0.5

# Rivin's bound: a graph with m edges has at most RIVIN * m^(3/2) triangles.
RIVIN = math.sqrt(2.0) / 3.0

# An advice run's s2 stage draws and queries its samples in blocks of this
# many, so its arrays stay this long whatever s2 is (up to MAX_RUN_SAMPLES).
_S2_BLOCK = 8192

# Hard ceiling on a single run's s1 or s2. Beyond this the sample arrays do
# not fit in reasonable memory and the loop would run for hours, so the run
# is refused instead of started. An s1 of at least n counts as n, the
# vertices the run reads instead. estimate() degrades such runs to the exact
# fallback; its search reaches this line where s2 passes it: at small eps
# (1e-5), or at the low levels of a descent over many edges.
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

    Every draw starts at a uniform position below the total degree. Over a
    multiset S of vertices, the members' degrees are read through the
    oracle in one batch when the sampler is built, and a position draws the
    member at the first prefix sum of their degree sequence above it, found
    by searchsorted. A zero-degree member adds nothing to the prefix sums,
    so it is never drawn.

    Built without vertices, the sampler is over V: it reads all n degrees
    with one q_degree_all, which charges nothing when the average-degree
    stage has read V already, and its total degree is 2m. The degrees of
    V in id order are the graph's rows in slot order, so a position is a
    uniform CSR slot and draws its row's vertex, Graph.slot_sources: the
    uniform-edge draw of Assadi, Kapralov and Khanna. That is the vertex a
    sampler over arange(n) draws from the same Generator, with no search,
    and building the sampler allocates nothing. Each advice run that reads
    V builds its own.
    """

    def __init__(self, oracle: QueryOracle, vertices: np.ndarray | None = None):
        if vertices is None:
            self._graph = oracle.graph
            self._degrees = oracle.q_degree_all()
            self.total_degree = 2 * self._graph.m
        else:
            self._graph = None
            self._vertices = np.asarray(vertices, dtype=np.int64)
            self._degrees = oracle.q_degree_batch(self._vertices)
            self._cum = np.cumsum(self._degrees, dtype=np.int64)
            self.total_degree = int(self._cum[-1]) if len(self._vertices) else 0

    def draw(self, rng: np.random.Generator, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k draws with replacement, as (vertices, their degrees)."""
        if self.total_degree <= 0:
            raise ValueError("sampler has zero total degree")
        pos = rng.integers(0, self.total_degree, k)
        if self._graph is not None:
            vs = self._graph.slot_sources(pos)
            return vs, self._degrees[vs]
        # Searching in ascending order walks the prefix sums forward, with
        # far fewer cache misses; at restores the draw order.
        order = np.argsort(pos)
        at = np.empty_like(order)
        at[order] = np.searchsorted(self._cum, pos[order], "right")
        return self._vertices[at], self._degrees[at]


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

    When s1 >= n the run reads V instead of drawing: S = V and s1 = n, so
    every edge sample is exactly uniform and no vertex draw is counted. Such
    a run calls no classifier; a vertex scores by its verdict_cache entry,
    LIGHT when it has none, so injected verdicts still count. With an empty
    verdict_cache every hit's three vertices are LIGHT, so the run scores
    each hit a third of its score without looking its vertices up; the sum
    is the one the lookup would give, to the bit, and the cache stays empty.
    It draws from a DegreeWeightedSampler over V: a uniform CSR slot's
    vertex. MAX_RUN_SAMPLES bounds min(s1, n) and s2.

    The edge sampling, thinning and probing is heavy.edge_hits, the kernel
    the classifier samples with: a sample probes at all with probability
    min(1, d_u / sqrt(m_bar)) and then makes ceil(d_u / sqrt(m_bar))
    probes, so low-degree endpoints usually cost nothing. Every vertex is
    classified at most once, and its verdict is kept in verdict_cache
    (vertex -> verdict; a new dict when none is passed). A cache shared
    between runs realizes fixed coins across the sharing runs. params
    defaults to the practical profile. An eps, m_bar or t_bar that is not
    positive, NaN included, is a ValueError (check_advice).

    Every draw, the classifier's included, comes from the run's one
    Generator, np.random.default_rng(seed), and the s2 samples go in blocks
    of _S2_BLOCK. Each block draws its vertices by degree, then makes one
    edge_hits call (its edges, their far ends' degrees, the probes, the
    pairs and the closers' degrees), then, in a run that draws S, one
    classify_batch call for every vertex of the block's hits that
    verdict_cache lacks, and scores the hits from verdict_cache (or, in a
    run that reads V with an empty cache, as all LIGHT). The set of
    queries a run asks is fixed by its draws and the verdicts, and the
    oracle charges each distinct question once, by its own kind, so neither
    the estimate nor the charged count depends on that order; the order
    decides only which query meets a budget trip.
    """
    check_advice(m_bar, t_bar, eps)
    if params is None:
        params = EstimatorParams.practical()
    eps = min(eps, 0.5)
    if verdict_cache is None:
        verdict_cache = {}
    np_rng = np.random.default_rng(seed)
    n = oracle.n

    s1 = max(1, math.ceil(eps**-3 * math.log(n / eps) * n / t_bar ** (1.0 / 3.0)))
    s2 = max(1, math.ceil(params.s2_scale * eps**-4 * math.log(n) ** 2 * m_bar**1.5 / t_bar))
    read_v = s1 >= n
    s1 = min(s1, n)
    if s1 > MAX_RUN_SAMPLES or s2 > MAX_RUN_SAMPLES:
        raise RunSizeExceeded(
            f"run wants s1={s1} and s2={s2} samples, over the {MAX_RUN_SAMPLES} "
            "ceiling; loosen eps or use practical-profile parameters"
        )
    if read_v:
        sampler = DegreeWeightedSampler(oracle)
    else:
        sampler = DegreeWeightedSampler(oracle, oracle.sample_vertices(s1, np_rng))
    if sampler.total_degree == 0:
        return 0.0

    # A run that reads V classifies nothing, so with no verdict given every
    # vertex is LIGHT and each hit's score splits three ways.
    all_light = read_v and not verdict_cache
    y_sum = 0.0
    for start in range(0, s2, _S2_BLOCK):
        # v was drawn by degree, so d_v > 0.
        vs, dvs = sampler.draw(np_rng, min(_S2_BLOCK, s2 - start))
        hit, xs, ws, score = edge_hits(oracle, vs, dvs, m_bar, np_rng)
        if not hit.size:
            continue
        if all_light:
            y_sum += float(np.sum(score / 3))
            continue
        # Each hit's three vertices, then, in a run that draws S, one
        # classifier call for the ones no earlier block or run has classified.
        need, where = np.unique(np.concatenate((vs[hit], xs, ws)), return_inverse=True)
        todo = [] if read_v else [u for u in need.tolist() if u not in verdict_cache]
        if todo:
            found = classify_batch(oracle, todo, m_bar, t_bar, eps, params.heavy_params, np_rng)
            verdict_cache.update(zip(todo, (verdict for verdict, _ in found)))
        light = np.array([verdict_cache.get(u, LIGHT) == LIGHT for u in need.tolist()])
        light = light[where].reshape(3, -1)
        # A hit scores only when v is light, split across its light vertices.
        scored = light[0]
        y_sum += float(np.sum(score[scored] / light.sum(axis=0)[scored]))
    return n / (s1 * s2) * sampler.total_degree * y_sum


def _feige_sizes(n: int) -> tuple[int, int]:
    """(invocations, samples per invocation) of feige_avg_degree on n vertices."""
    reps = max(1, math.ceil(10.0 * math.log(max(n, 2))))
    return reps, max(1, math.ceil(FEIGE_C * math.sqrt(n) / FEIGE_EPS))


def _feige_reads_v(n: int) -> bool:
    """Whether feige_avg_degree's draws would cover V, so that it reads V."""
    reps, k = _feige_sizes(n)
    return reps * k >= n


def feige_avg_degree(oracle: QueryOracle, seed=None) -> float:
    """Estimate the average degree from uniform degree samples.

    Each invocation averages ceil(FEIGE_C * sqrt(n) / FEIGE_EPS) sampled
    degrees; the lower median over ceil(10 ln n) invocations is returned. The
    result lands in [d_avg / (2 + o(1)), d_avg] with constant probability per
    invocation, amplified by the median.

    When the invocations would draw at least n vertices in all (every n up
    to about 1.05e7), the stage reads V instead: one q_degree_all charges
    the n degree queries, and the stage returns the mean of all n degrees,
    which is exact, and draws nothing. An empty graph is a ValueError.
    """
    n = oracle.n
    if n == 0:
        raise ValueError("an average degree needs at least one vertex")
    if _feige_reads_v(n):
        return float(oracle.q_degree_all().mean())
    np_rng = np.random.default_rng(seed)
    reps, k = _feige_sizes(n)
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

    Stages: (1) the average-degree stage pins m_bar = n * d_bar / 2 and,
    unless the caller installed one, a query budget of ceil(2 * m_bar);
    (2) one descent visits t_bar = top / 2^level once for each level, while
    t_bar >= 1, and accepts the first level where the minimum over
    RUNS_PER_LEVEL advice runs clears the level, returning that minimum. A
    level stops at its first run below t_bar, which rejects it whatever
    the later runs would read. Each run draws from its own
    SeedSequence(entropy, spawn_key=(level, run_i)) and reads only the
    verdicts of its level's earlier runs, so stopping early changes no
    estimate or t_bar, only the runs made and the queries charged; (3) if
    the budget trips, a run would blow past MAX_RUN_SAMPLES, or the descent
    ends without acceptance, the exact count is taken by reading the graph
    directly (off-oracle), and the report says so. params defaults to the
    practical profile.

    The descent starts at top = n^3 when m_bar is sampled. When the first
    stage reads V, m_bar = m exactly and Rivin's bound t <= (sqrt(2)/3) *
    m^(3/2), which is at most n^3 / 6, holds for the graph itself, so the
    descent starts there; levels above it could only accept by a false
    draw. The first stage's q_degree_all charges the n degree queries in
    one pass with no sort, and each run that reads V after it charges
    nothing, so an estimate pays for V once however many of its runs
    read V.

    The descent's cost is what it spends down to the first level at or below
    t, as in the analysis (Eden, Levi, Ron, Seshadhri, FOCS 2015):
    RUNS_PER_LEVEL runs at the accepting level and, at each rejected level,
    the runs up to its first one below t_bar, most often just that one. A
    budget that all RUNS_PER_LEVEL runs at every level would trip may so
    trip later, or not at all. Each level is visited once; a revisit buys
    little. At a level above t it is one more false-accept draw: E[X] <= t,
    so by Markov each visit accepts with probability at most t / t_bar. At
    a level just below t it is a second try at a cheaper level, but only
    after the whole prefix above it has been paid for again.
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
            # With m_bar = m exactly, Rivin's bound caps t.
            top = RIVIN * m_bar**1.5 if _feige_reads_v(n) else float(n) ** 3
            for level in range(int(top).bit_length()):
                t_bar = top / 2.0**level
                cache: dict[int, str] = {}
                x_final = math.inf
                for run_i in range(RUNS_PER_LEVEL):
                    run_ss = np.random.SeedSequence(entropy=loop_entropy, spawn_key=(level, run_i))
                    x_final = min(x_final, estimate_with_advice(
                        oracle, m_bar, t_bar, eps_eff, params,
                        seed=run_ss, verdict_cache=cache,
                    ))
                    runs += 1
                    if x_final < t_bar:
                        # The level's minimum can only fall further.
                        break
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
