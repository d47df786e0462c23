"""Tests for the advice-driven estimator, the search wrapper, and degree sampling."""

import math
import random
import statistics
import time
from unittest import mock

import numpy as np
import pytest

from subtri import estimator
from subtri.estimator import (
    RUNS_PER_LEVEL,
    DegreeWeightedSampler,
    EstimatorParams,
    RunSizeExceeded,
    estimate,
    estimate_with_advice,
    feige_avg_degree,
)
from subtri.exact import count_ordered
from subtri.graph_store import Graph
from subtri.heavy import HEAVY, LIGHT, HeavyParams, ceil_div_by_sqrt
from subtri.lb_gen import gen_clique_family, gen_g1_bipartite, gen_g2_matching
from subtri.query_oracle import QueryOracle
from test_acceptance import _expected_advice_estimate
from util import bowtie_graph, complete_graph, gnp_edges, gnp_graph


def fresh_oracle(graph, seed=0, budget=None) -> QueryOracle:
    return QueryOracle(graph, seed=seed, budget=budget)


class TestAdvice:
    def test_nonpositive_advice_is_rejected(self):
        o = fresh_oracle(complete_graph(4))
        with pytest.raises(ValueError, match="positive"):
            estimate_with_advice(o, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="positive"):
            estimate_with_advice(o, 6.0, -1.0, 0.5)

    @pytest.mark.parametrize(
        "m_bar, t_bar, eps, message",
        [
            (6.0, 4.0, 0.0, "eps must be positive"),
            (6.0, 4.0, -1.0, "eps must be positive"),
            (6.0, 4.0, float("nan"), "eps must be positive"),
            (float("nan"), 4.0, 0.5, "advice must be positive"),
            (6.0, float("nan"), 0.5, "advice must be positive"),
        ],
    )
    def test_bad_eps_or_nan_advice_is_refused(self, m_bar, t_bar, eps, message):
        o = fresh_oracle(complete_graph(4))
        with pytest.raises(ValueError, match=message):
            estimate_with_advice(o, m_bar, t_bar, eps)
        assert o.stats.total == 0

    def test_oversized_run_is_refused_up_front(self):
        # eps=1e-5 drives s1 past MAX_RUN_SAMPLES; the run must refuse
        # before sampling rather than attempt the allocation.
        o = fresh_oracle(complete_graph(4))
        with pytest.raises(RunSizeExceeded, match="ceiling"):
            estimate_with_advice(o, 6.0, 4.0, 1e-5)
        assert o.stats.total == 0


class TestDegreeWeightedSampler:
    def graph(self) -> Graph:
        return Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (2, 4)])

    def test_draws_proportional_to_degree(self):
        o = fresh_oracle(self.graph())
        sampler = DegreeWeightedSampler(o, np.array([0, 1, 2]))
        assert sampler.total_degree == 6
        draws = 60_000
        vs, degs = sampler.draw(np.random.default_rng(5), draws)
        assert np.array_equal(degs, o.graph.degrees[vs])
        counts = np.bincount(vs, minlength=3)
        for v, p in ((0, 1 / 6), (1, 2 / 6), (2, 3 / 6)):
            sigma = math.sqrt(draws * p * (1 - p))
            assert abs(counts[v] - draws * p) <= 5 * sigma

    def test_repeated_vertices_stack_their_mass(self):
        o = fresh_oracle(self.graph())
        sampler = DegreeWeightedSampler(o, np.array([1, 1]))
        assert sampler.total_degree == 4
        vs, degs = sampler.draw(np.random.default_rng(0), 50)
        assert vs.tolist() == [1] * 50
        assert degs.tolist() == [2] * 50

    def test_zero_mass_multiset_cannot_draw(self):
        o = fresh_oracle(self.graph())
        sampler = DegreeWeightedSampler(o, np.array([5]))
        assert sampler.total_degree == 0
        with pytest.raises(ValueError, match="zero total degree"):
            sampler.draw(np.random.default_rng(0), 1)


class TestAdviceRuns:
    def test_triangle_free_graph_estimates_exactly_zero(self):
        res = gen_g1_bipartite(32, 8, seed=0)
        for seed in range(5):
            o = fresh_oracle(res.graph, seed=seed)
            x = estimate_with_advice(o, 64.0, 10.0, 0.5, seed=seed)
            assert x == 0.0

    def test_edgeless_graph_estimates_zero(self):
        o = fresh_oracle(Graph.from_edges(16, []))
        assert estimate_with_advice(o, 5.0, 5.0, 0.5, seed=0) == 0.0

    def test_same_seed_same_estimate(self):
        res = gen_g2_matching(64, 16, seed=3)
        xs = []
        for _ in range(2):
            o = fresh_oracle(res.graph, seed=2)
            xs.append(estimate_with_advice(o, float(res.graph.m), 448.0, 0.5, seed=17))
        assert xs[0] == xs[1]

    def test_mean_estimate_never_exceeds_true_count(self):
        # On the bowtie (t = 2) the estimator's expectation is at most t for
        # any advice, so the empirical mean over many runs stays within
        # sampling error of that ceiling.
        g = bowtie_graph()
        xs = []
        for seed in range(1000):
            o = fresh_oracle(g, seed=seed)
            xs.append(estimate_with_advice(o, 6.0, 2.0, 0.5, seed=seed))
        mean = statistics.fmean(xs)
        se = statistics.stdev(xs) / math.sqrt(len(xs))
        assert mean <= 2.0 + 3 * se

    def test_distribution_invariant_under_order_preserving_relabel(self):
        # Relabeling ids so that the (degree, id) order maps onto itself must
        # leave the estimate's distribution unchanged; compare 500-run samples
        # with a two-sample KS statistic at the 1 percent level.
        g = gnp_graph(60, 0.2, seed=2)
        t = count_ordered(g).t
        assert t > 0
        perm = self._order_preserving_permutation(g, np.random.default_rng(5))
        g2 = Graph.from_edges(g.n, [(int(perm[u]), int(perm[v])) for u, v in g.edges()])
        assert count_ordered(g2).t == t
        spot = random.Random(0)
        for _ in range(200):
            u, v = spot.randrange(g.n), spot.randrange(g.n)
            assert g.precedes(u, v) == g2.precedes(int(perm[u]), int(perm[v]))
        m_bar, t_bar = float(g.m), max(1.0, 0.7 * t)
        xs_a = self._sample_runs(g, m_bar, t_bar, seeds=range(500))
        xs_b = self._sample_runs(g2, m_bar, t_bar, seeds=range(1000, 1500))
        d = self._ks_statistic(xs_a, xs_b)
        threshold = 1.628 * math.sqrt((500 + 500) / (500 * 500))
        assert d <= threshold

    @staticmethod
    def _order_preserving_permutation(g: Graph, rng) -> np.ndarray:
        # Hand each degree class a random set of target ids, assigned in
        # increasing order within the class so ties keep their id order.
        slots = rng.permutation(g.n)
        by_degree: dict[int, list[int]] = {}
        for v in range(g.n):
            by_degree.setdefault(g.degree(v), []).append(v)
        perm = np.empty(g.n, dtype=np.int64)
        pos = 0
        for d in sorted(by_degree):
            cls = by_degree[d]
            block = np.sort(slots[pos : pos + len(cls)])
            perm[cls] = block
            pos += len(cls)
        return perm

    @staticmethod
    def _sample_runs(graph, m_bar, t_bar, seeds) -> list[float]:
        xs = []
        for seed in seeds:
            o = QueryOracle(graph, seed=seed)
            xs.append(estimate_with_advice(o, m_bar, t_bar, 0.5, seed=seed))
        return xs

    @staticmethod
    def _ks_statistic(a, b) -> float:
        a = np.sort(np.asarray(a))
        b = np.sort(np.asarray(b))
        grid = np.concatenate([a, b])
        fa = np.searchsorted(a, grid, side="right") / len(a)
        fb = np.searchsorted(b, grid, side="right") / len(b)
        return float(np.abs(fa - fb).max())


class TestVerdictCache:
    def test_preclassified_heavy_vertices_zero_the_estimate(self):
        g = complete_graph(8)
        cache = {v: HEAVY for v in range(8)}
        o = fresh_oracle(g)
        assert estimate_with_advice(o, 28.0, 56.0, 0.5, seed=1, verdict_cache=cache) == 0.0

    def test_preclassified_light_vertices_let_mass_through(self):
        g = complete_graph(8)
        cache = {v: LIGHT for v in range(8)}
        hits = 0
        for seed in range(10):
            o = fresh_oracle(g, seed=seed)
            if estimate_with_advice(o, 28.0, 56.0, 0.5, seed=seed, verdict_cache=cache) > 0:
                hits += 1
        assert hits > 0

    def test_cache_fills_with_verdicts_and_is_shared(self):
        # At t_bar = 2^17, s1 = 189 < n = 200, so the runs draw S and
        # classify the vertices of their hits.
        g = gnp_graph(200, 0.3, seed=4)
        # Full-effort s2 so plenty of oriented hits trigger classification.
        params = EstimatorParams(heavy_params=HeavyParams.practical())
        cache = {}
        o = fresh_oracle(g, seed=0)
        estimate_with_advice(o, float(g.m), 2.0**17, 0.5, params=params, seed=0, verdict_cache=cache)
        assert o.stats.vertex_samples == 189
        assert cache
        assert set(cache.values()) <= {HEAVY, LIGHT}
        snapshot = dict(cache)
        estimate_with_advice(o, float(g.m), 2.0**17, 0.5, params=params, seed=1, verdict_cache=cache)
        for v, verdict in snapshot.items():
            assert cache[v] == verdict


class TestReadV:
    """A stage that would draw at least n uniform vertices reads V instead."""

    def test_covering_run_calls_no_classifier_and_draws_nothing(self):
        # On K8 at t_bar = 56, s1 = 47 >= n = 8.
        g = complete_graph(8)
        classify = mock.Mock(side_effect=AssertionError("classifier called"))
        cache = {}
        o = fresh_oracle(g)
        with mock.patch.object(estimator, "classify_batch", classify):
            x = estimate_with_advice(o, 28.0, 56.0, 0.5, seed=0, verdict_cache=cache)
        assert x > 0
        assert o.stats.vertex_samples == 0
        assert o.stats.degree == 8
        assert cache == {}

    def test_oversized_s1_that_covers_v_is_not_refused(self):
        # s1 = 67 on K4 at t_bar = 1 passes a ceiling of 10, but the run
        # reads the 4 vertices instead, and s2 = 5 fits under it.
        o = fresh_oracle(complete_graph(4))
        with mock.patch.object(estimator, "MAX_RUN_SAMPLES", 10):
            assert estimate_with_advice(o, 6.0, 1.0, 0.5, seed=0) > 0
        assert o.stats.vertex_samples == 0

    def test_estimate_reads_exact_edge_count(self):
        g = gnp_graph(200, 0.3, seed=4)
        o = fresh_oracle(g)
        report = estimate(o, 0.5, EstimatorParams.practical(), seed=0)
        assert report.m_bar == g.m
        assert o.budget_cap == 2 * g.m

    def test_descent_starts_at_rivin_bound(self):
        g = gnp_graph(200, 0.3, seed=4)
        t_bars = []
        advice = estimator.estimate_with_advice

        def spy(oracle, m_bar, t_bar, *args, **kwargs):
            t_bars.append(t_bar)
            return advice(oracle, m_bar, t_bar, *args, **kwargs)

        with mock.patch.object(estimator, "estimate_with_advice", spy):
            estimate(fresh_oracle(g), 0.5, EstimatorParams.practical(), seed=0)
        assert t_bars[0] == min(float(g.n) ** 3, math.sqrt(2.0) / 3.0 * g.m**1.5)
        assert t_bars[0] < float(g.n) ** 3

    def test_estimate_reads_v_once_for_all_its_runs(self):
        # Every run on a 100-clique among 10^4 ids reads V (s1 >= n at each
        # level below Rivin's bound). The runs share one sampler over V, and
        # V is read through q_degree_all, so the estimate asks no degree
        # batch of n ids and charges each degree once, however many runs it
        # makes.
        g = gen_clique_family(10**4, 10**6, seed=0).graph
        built, n_id_batches, passed = [], [], []
        init, batch, advice = (
            DegreeWeightedSampler.__init__, QueryOracle.q_degree_batch, estimator.estimate_with_advice
        )

        def spy_init(self, oracle, *args):
            built.append(self)
            init(self, oracle, *args)

        def spy_batch(self, vs):
            n_id_batches.append(np.size(vs) == self.n)
            return batch(self, vs)

        def spy_advice(*args, **kwargs):
            passed.append(kwargs.get("v_sampler"))
            return advice(*args, **kwargs)

        o = fresh_oracle(g)
        with mock.patch.object(DegreeWeightedSampler, "__init__", spy_init), \
                mock.patch.object(QueryOracle, "q_degree_batch", spy_batch), \
                mock.patch.object(estimator, "estimate_with_advice", spy_advice):
            report = estimate(o, 0.5, EstimatorParams.practical(), seed=0)
        assert report.runs >= RUNS_PER_LEVEL
        assert o.stats.vertex_samples == 0
        assert len(built) == 1
        assert not any(n_id_batches)
        assert len(passed) == report.runs
        assert all(sampler is built[0] for sampler in passed)
        assert o.stats.degree == g.n

    @pytest.mark.parametrize("t_bar", [30.0, 3000.0])
    def test_shared_sampler_run_equals_a_run_that_builds_its_own(self, t_bar):
        # G(60, 0.3) on ids 1-60 of 64, so ids 0 and 61-63 are isolated.
        # Both t_bar read V (s1 >= n = 64); the cache holds injected verdicts.
        edges = [(u + 1, v + 1) for u, v in gnp_edges(60, 0.3, seed=2).tolist()]
        g = Graph.from_edges(64, edges)
        assert g.degree(0) == g.degree(63) == 0
        outcomes = []
        for shared in (False, True):
            o = fresh_oracle(g, seed=5)
            cache = {v: HEAVY for v in range(1, 61, 7)}
            sampler = DegreeWeightedSampler(o) if shared else None
            xs = [
                estimate_with_advice(
                    o, float(g.m), t_bar, 0.5, seed=seed, verdict_cache=cache, v_sampler=sampler
                )
                for seed in (0, 1)
            ]
            outcomes.append((xs, o.stats.to_dict(), cache))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1]["vertex_samples"] == 0
        assert outcomes[0][0][0] > 0


class TestLevelRule:
    """A level stops at its first run below t_bar; only the accepting level
    makes all RUNS_PER_LEVEL runs, and the descent ends there."""

    GRAPHS = {
        "g2-128": lambda: gen_g2_matching(512, 128, seed=1).graph,
        "gnp": lambda: gnp_graph(200, 0.3, seed=4),
        "clique": lambda: gen_clique_family(10**4, 10**6, seed=0).graph,
    }

    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_rejected_levels_stop_at_their_first_low_run(self, name):
        g = self.GRAPHS[name]()
        advice = estimator.estimate_with_advice
        short_levels = 0
        for seed in range(4):
            calls = []

            def spy(oracle, m_bar, t_bar, *args, **kwargs):
                x = advice(oracle, m_bar, t_bar, *args, **kwargs)
                calls.append((t_bar, x))
                return x

            with mock.patch.object(estimator, "estimate_with_advice", spy):
                report = estimate(fresh_oracle(g, seed=seed), 0.5, EstimatorParams.practical(), seed=seed)
            assert report.runs == len(calls)
            levels: dict[float, list[float]] = {}
            for t_bar, x in calls:
                levels.setdefault(t_bar, []).append(x)
            *rejected, last = levels.items()
            for t_bar, xs in rejected:
                # Every run but the last cleared the level; the last did not.
                assert all(x >= t_bar for x in xs[:-1])
                assert xs[-1] < t_bar
                short_levels += len(xs) < RUNS_PER_LEVEL
            assert not report.fallback_used
            t_bar, xs = last
            assert report.t_bar == t_bar
            assert len(xs) == RUNS_PER_LEVEL
            assert report.estimate == min(xs) >= t_bar
        # The graphs and seeds do reject levels with runs to spare.
        assert short_levels > 0


class TestBlockRescoring:
    @pytest.mark.parametrize("profile, runs", [("practical", 2000), ("theoretical", 400)])
    def test_mean_matches_enumeration_under_mixed_verdicts(self, profile, runs):
        # Every third vertex of G(30, 0.3) (t = 141, unequal degrees) is
        # injected as heavy, so a block scores each hit by 1/ell over its
        # light vertices, and samples whose d_u^2 > m_bar make r > 1 probes,
        # each hit scoring max(d_u, sqrt(m_bar)) / r.
        # The mean of X must match the enumerated E[X] (140 here).
        start = time.perf_counter()
        g = gnp_graph(30, 0.3, seed=1)
        t = count_ordered(g).t
        verdicts = {v: HEAVY if v % 3 == 0 else LIGHT for v in range(g.n)}
        expected = _expected_advice_estimate(g, verdicts.__getitem__)
        params = getattr(EstimatorParams, profile)()
        probes_per_hit, light_per_scored_hit = set(), set()
        edge_hits = estimator.edge_hits

        def spy(oracle, vs, dvs, m_bar, rng):
            hit, xs, ws, score = edge_hits(oracle, vs, dvs, m_bar, rng)
            for v, x, w, sc in zip(vs[hit].tolist(), xs.tolist(), ws.tolist(), score.tolist()):
                d_u = int(min(g.degrees[v], g.degrees[x]))
                r = ceil_div_by_sqrt(d_u, m_bar)
                assert sc == max(d_u, math.sqrt(m_bar)) / r
                probes_per_hit.add(r)
                if verdicts[v] == LIGHT:
                    light_per_scored_hit.add(sum(verdicts[u] == LIGHT for u in (v, x, w)))
            return hit, xs, ws, score

        xs = []
        with mock.patch.object(estimator, "edge_hits", spy):
            for seed in range(runs):
                o = fresh_oracle(g, seed=seed)
                xs.append(estimate_with_advice(
                    o, float(g.m), float(t), 0.5, params, seed=seed, verdict_cache=dict(verdicts)
                ))
        assert max(probes_per_hit) > 1
        assert {1, 2} <= light_per_scored_hit
        assert expected not in (0.0, float(t))
        mean = statistics.fmean(xs)
        se = statistics.stdev(xs) / math.sqrt(runs)
        assert abs(mean - expected) <= 4 * se, (mean, se, expected)
        assert time.perf_counter() - start < 30.0


class TestFeige:
    @pytest.mark.parametrize("p, graph_seed", [(1e-3, 101), (1e-2, 202)])
    def test_sampled_stage_brackets_the_edge_count(self, p, graph_seed):
        # Criterion 10's graphs, with FEIGE_C cut so that the stage samples:
        # 93 invocations of 100 degrees each draw 9300 < n = 10^4 vertices.
        g = gnp_graph(10_000, p, seed=graph_seed)
        hits = 0
        with mock.patch.object(estimator, "FEIGE_C", 0.5):
            for trial in range(50):
                o = fresh_oracle(g, seed=trial)
                m_bar = g.n * feige_avg_degree(o, seed=trial) / 2.0
                assert o.stats.vertex_samples == 9300
                hits += g.m / 6.0 <= m_bar <= 2.0 * g.m
        assert hits >= 45

    def test_covering_stage_reads_the_exact_mean(self):
        g = gnp_graph(10_000, 1e-3, seed=101)
        o = fresh_oracle(g)
        assert feige_avg_degree(o, seed=0) == 2.0 * g.m / g.n
        assert o.stats.vertex_samples == 0
        assert o.stats.degree == g.n

    def test_empty_graph_is_refused(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            feige_avg_degree(fresh_oracle(Graph.from_edges(0, [])), seed=0)

    def test_single_edge_graph_is_exact(self):
        o = fresh_oracle(Graph.from_edges(2, [(0, 1)]))
        assert feige_avg_degree(o, seed=0) == 1.0

    def test_regular_graph_has_zero_variance(self):
        g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        for seed in (0, 1, 2):
            o = fresh_oracle(g, seed=seed)
            assert feige_avg_degree(o, seed=seed) == 2.0

    def test_star_medians_stay_in_the_guarantee_band(self):
        n = 10_000
        g = Graph.from_edges(n, [(i, n - 1) for i in range(n - 1)])
        d_avg = 2.0 * (n - 1) / n
        hits = 0
        for seed in range(50):
            o = fresh_oracle(g, seed=seed)
            d_bar = feige_avg_degree(o, seed=seed)
            if d_avg / 3.0 <= d_bar <= 1.25 * d_avg:
                hits += 1
        assert hits >= 45


class TestEstimateEndToEnd:
    def test_empty_graph(self):
        report = estimate(fresh_oracle(Graph.from_edges(0, [])), seed=0)
        assert report.estimate == 0.0
        assert report.fallback_used is False

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError, match="eps"):
            estimate(fresh_oracle(complete_graph(4)), eps=0.0)
        # NaN fails every comparison, so it must be caught up front, not in
        # the average-degree stage's sizing.
        with pytest.raises(ValueError, match="eps must be positive"):
            estimate(fresh_oracle(complete_graph(4)), eps=float("nan"))

    def test_same_seed_reproduces_the_report(self):
        res = gen_g2_matching(64, 16, seed=3)
        reports = []
        for _ in range(2):
            o = fresh_oracle(res.graph, seed=11)
            reports.append(estimate(o, 0.5, EstimatorParams.practical(), seed=11))
        a, b = reports
        assert a.estimate == b.estimate
        assert a.queries == b.queries
        assert a.runs == b.runs
        assert a.fallback_used == b.fallback_used

    def test_budget_defaults_to_twice_the_edge_estimate(self):
        res = gen_g2_matching(64, 16, seed=0)
        o = fresh_oracle(res.graph, seed=0)
        report = estimate(o, 0.5, EstimatorParams.practical(), seed=0)
        assert o.budget_cap == math.ceil(2.0 * report.m_bar)
        assert o.budget_charged <= o.budget_cap

    def test_preset_budget_is_respected(self):
        res = gen_g2_matching(64, 16, seed=0)
        o = fresh_oracle(res.graph, seed=0, budget=10)
        report = estimate(o, 0.5, EstimatorParams.practical(), seed=0)
        assert o.budget_cap == 10
        assert o.budget_charged <= 10
        # With almost no query room the run must fall back to the exact count.
        assert report.fallback_used is True
        assert report.estimate == float(res.exact_t)

    def test_refused_run_degrades_to_exact_fallback(self):
        # eps=1e-5 asks the first run for more than MAX_RUN_SAMPLES samples,
        # which the run-size guard refuses before any charge; the search
        # must then answer with the exact count instead of crashing.
        o = fresh_oracle(complete_graph(4), seed=0)
        report = estimate(o, 1e-5, EstimatorParams.practical(), seed=0)
        assert report.estimate == 4.0
        assert report.fallback_used is True
        assert report.runs == 0
        assert report.queries["neighbor"] + report.queries["pair"] == 0

    def test_advice_run_count_stays_polylog(self):
        # One descent visits each of the log2(n^3) levels at most once.
        for graph in (bowtie_graph(), gnp_graph(50, 0.2, seed=1)):
            o = fresh_oracle(graph, seed=0)
            report = estimate(o, 0.5, EstimatorParams.practical(), seed=0)
            assert report.runs <= RUNS_PER_LEVEL * int(float(graph.n) ** 3).bit_length()

    def test_large_matching_is_estimated_sublinearly(self):
        # On g2-matching side 256 (m = 65536) the sampler should accept
        # without the exact fallback, within 50% of t, and charge well under
        # one read of the graph in the median.
        charged = []
        for seed in range(6):
            res = gen_g2_matching(1024, 256, seed=seed)
            o = fresh_oracle(res.graph, seed=seed)
            report = estimate(o, 0.5, EstimatorParams.practical(), seed=seed)
            assert not report.fallback_used
            assert 0.5 * res.exact_t < report.estimate < 1.5 * res.exact_t
            charged.append(o.budget_charged / res.graph.m)
        assert statistics.median(charged) <= 0.7

    def test_hidden_clique_is_recovered_through_fallback(self):
        # A 10-clique hidden among 4096 ids has m = 45, so the search trips
        # its 90-query budget and the exact fallback answers.
        in_band = 0
        fallbacks = 0
        for seed in range(20):
            res = gen_clique_family(4096, 1000, seed=seed)
            o = fresh_oracle(res.graph, seed=seed)
            report = estimate(o, 0.5, EstimatorParams.practical(), seed=seed)
            fallbacks += report.fallback_used
            if 0.5 * res.exact_t <= report.estimate <= 1.5 * res.exact_t:
                in_band += 1
        assert in_band >= 16
        assert fallbacks >= 16

    def test_report_serializes(self):
        o = fresh_oracle(bowtie_graph(), seed=0)
        report = estimate(o, 0.5, EstimatorParams.practical(), seed=0)
        doc = report.to_json_dict(timing=False)
        assert doc["wall_ms"] is None
        assert doc["advice"]["m_bar"] == report.m_bar
        assert set(doc["queries"]) == {"degree", "neighbor", "pair", "vertex_samples", "total"}
