"""Tests for the sampled heavy-vertex classifier and its helpers."""

import math
import statistics

import numpy as np
import pytest

from subtri import heavy
from subtri.exact import count_ordered
from subtri.graph_store import Graph
from subtri.heavy import (
    HEAVY,
    LIGHT,
    HeavyParams,
    ceil_div_by_sqrt,
    ceil_div_by_sqrt_array,
    classify_batch,
    classify_heavy,
    decision_threshold,
    degree_cutoff,
    heavy_tv_cutoff,
    light_tv_cutoff,
    lower_median,
)
from subtri.lb_gen import gen_g2_matching
from subtri.query_oracle import QueryOracle
from util import gnp_edges, wheel_like_graph


def known_pairs(oracle: QueryOracle) -> list[int]:
    """Every pair the oracle answers without a charge: its charged pair
    keys min * n + max, ascending."""
    return oracle._pair_keys.tolist()


def star_oracle(leaves: int, seed: int = 0) -> tuple[QueryOracle, int]:
    n = leaves + 1
    g = Graph.from_edges(n, [(i, n - 1) for i in range(leaves)])
    return QueryOracle(g, seed=seed), n - 1


class TestCutoffs:
    def test_cutoffs_are_ordered(self):
        for t_bar in (8, 64, 1000):
            for eps in (0.1, 0.5):
                lo = light_tv_cutoff(t_bar, eps)
                mid = decision_threshold(t_bar, eps)
                hi = heavy_tv_cutoff(t_bar, eps)
                assert lo < mid < hi
                assert hi == pytest.approx(4 * lo)

    def test_reference_values(self):
        assert degree_cutoff(1.0, 1.0, 0.5) == pytest.approx(2.5198, abs=1e-3)
        assert heavy_tv_cutoff(64.0, 0.5) == pytest.approx(40.3175, abs=1e-3)
        assert light_tv_cutoff(64.0, 0.5) == pytest.approx(10.0794, abs=1e-3)
        assert decision_threshold(64.0, 0.5) == pytest.approx(20.1587, abs=1e-3)


class TestHelpers:
    def test_lower_median_odd_and_even(self):
        assert lower_median([3, 1, 2]) == 2
        assert lower_median([4, 1, 3, 2]) == 2
        assert lower_median([5]) == 5
        with pytest.raises(ValueError):
            lower_median([])

    def test_ceil_div_by_sqrt_exact_values(self):
        assert ceil_div_by_sqrt(10, 100.0) == 1
        assert ceil_div_by_sqrt(11, 100.0) == 2
        assert ceil_div_by_sqrt(0, 100.0) == 0
        assert ceil_div_by_sqrt(3, 9.0) == 1
        assert ceil_div_by_sqrt(4, 9.0) == 2
        assert ceil_div_by_sqrt(1, 0.25) == 2
        assert ceil_div_by_sqrt(2, 2.0) == 2

    def test_ceil_div_by_sqrt_array_matches_scalar(self):
        ds = np.array([1, 3, 4, 10, 11, 3, 10**7, 10**7 + 1, 4], dtype=np.int64)
        for m_bar in (9.0, 100.0, 0.25, float(10**14)):
            want = [ceil_div_by_sqrt(d, m_bar) for d in ds.tolist()]
            assert ceil_div_by_sqrt_array(ds, m_bar).tolist() == want

    def test_ceil_div_by_sqrt_large_exact_boundary(self):
        d = 10**7
        assert ceil_div_by_sqrt(d, float(d * d)) == 1
        assert ceil_div_by_sqrt(d + 1, float(d * d)) == 2


class TestShortcuts:
    def test_isolated_vertex_is_light(self):
        g = Graph.from_edges(3, [(0, 1)])
        o = QueryOracle(g, seed=0)
        verdict = classify_heavy(o, 2, m_bar=1, t_bar=1, eps=0.5, rng=np.random.default_rng(0))
        assert verdict.verdict == LIGHT
        assert verdict.medians == ()
        assert verdict.queries_used == 1

    def test_high_degree_is_heavy_without_sampling(self):
        o, center = star_oracle(99)
        # degree 99 against cutoff 2 * 99 / (0.5 * 1000)^(1/3), about 25.
        rng = np.random.default_rng(0)
        verdict = classify_heavy(o, center, m_bar=99, t_bar=1000, eps=0.5, rng=rng)
        assert verdict.verdict == HEAVY
        assert verdict.medians == ()
        assert verdict.queries_used == 1


    @pytest.mark.parametrize(
        "m_bar, t_bar, eps, message",
        [
            (10.0, 1.0, 0.0, "eps must be positive"),
            (10.0, 1.0, -1.0, "eps must be positive"),
            (10.0, 1.0, float("nan"), "eps must be positive"),
            (0.0, 1.0, 0.5, "advice must be positive"),
            (10.0, -1.0, 0.5, "advice must be positive"),
            (float("nan"), 1.0, 0.5, "advice must be positive"),
            (10.0, float("nan"), 0.5, "advice must be positive"),
        ],
    )
    def test_bad_eps_or_advice_is_refused(self, m_bar, t_bar, eps, message):
        o, center = star_oracle(10)
        with pytest.raises(ValueError, match=message):
            classify_heavy(o, center, m_bar=m_bar, t_bar=t_bar, eps=eps, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match=message):
            classify_batch(o, [center], m_bar, t_bar, eps, None, np.random.default_rng(0))
        assert o.stats.total == 0

    def test_non_integer_vertex_is_refused(self):
        o, _ = star_oracle(10)
        with pytest.raises(ValueError, match="vertex ids must be integers, got float64"):
            classify_heavy(o, 1.5, m_bar=10, t_bar=1, eps=0.5, rng=np.random.default_rng(0))
        assert o.stats.total == 0


class TestSampledVerdicts:
    def test_star_center_below_cutoff_is_light_with_zero_estimates(self):
        # Degree 10 stays under the cutoff (about 25), and no probe can close
        # a triangle on a star, so every repetition estimates exactly zero.
        o, center = star_oracle(10)
        verdict = classify_heavy(o, center, m_bar=10, t_bar=1, eps=0.5, rng=np.random.default_rng(1))
        assert verdict.verdict == LIGHT
        assert set(verdict.medians) == {0.0}
        assert len(verdict.medians) == math.ceil(10 * math.log(11))

    def test_same_seed_reproduces_the_full_verdict(self):
        res = gen_g2_matching(64, 16, seed=5)
        runs = []
        for _ in range(2):
            o = QueryOracle(res.graph, seed=9)
            runs.append(
                classify_heavy(o, 0, m_bar=512.0, t_bar=448.0, eps=0.5, rng=np.random.default_rng(7))
            )
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("m_bar, s_scale", [(120.0, 0.25), (1600.0, 0.01)])
    def test_wheel_hub_estimates_are_unbiased(self, m_bar, s_scale):
        # The hub of the bipartite-rim wheel has t_v = 81; with enough
        # repetitions the mean of the per-repetition estimates recovers it.
        # At m_bar 1600 (sqrt 40) every sample is thinned: a hub-rim edge,
        # whose smaller endpoint has degree 10, is kept with probability 1/4.
        g, hub = wheel_like_graph()
        o = QueryOracle(g, seed=0)
        params = HeavyParams(outer_reps=500, s_scale=s_scale)
        verdict = classify_heavy(
            o, hub, m_bar=m_bar, t_bar=64.0, eps=0.5, params=params, rng=np.random.default_rng(11)
        )
        assert len(verdict.medians) == 500
        mean = statistics.fmean(verdict.medians)
        se = statistics.stdev(verdict.medians) / math.sqrt(500)
        assert abs(mean - 81.0) <= 3 * se

    def test_wheel_rim_vertex_is_light(self):
        g, _ = wheel_like_graph()
        true_tv = count_ordered(g).t_v
        assert int(true_tv[0]) == 9
        o = QueryOracle(g, seed=1)
        verdict = classify_heavy(o, 0, m_bar=120.0, t_bar=64.0, eps=0.5, rng=np.random.default_rng(2))
        assert verdict.verdict == LIGHT

    def test_query_cost_scales_sublinearly_in_edge_count(self):
        # Quadrupling m (side 32 -> 64, m = 2 * side^2) should raise the
        # per-call distinct-query cost by no more than 4x.
        params = HeavyParams(outer_reps=2, s_scale=1.0 / 64.0, s_floor=1)
        costs = {}
        for side in (32, 64):
            res = gen_g2_matching(4 * side, side, seed=0)
            t_bar = float(res.exact_t)
            m_bar = float(res.graph.m)
            used = []
            for v in range(0, 4 * side, 8):
                o = QueryOracle(res.graph, seed=v)
                verdict = classify_heavy(
                    o, v, m_bar, t_bar, 0.5, params=params, rng=np.random.default_rng(v)
                )
                assert verdict.medians  # no degree shortcut on these instances
                used.append(verdict.queries_used)
            costs[side] = statistics.median(used)
        ratio = costs[64] / costs[32]
        assert 1.0 <= ratio <= 4.0


class TestBatchKernel:
    @staticmethod
    def reference(oracle, vs, m_bar, t_bar, eps, params, rng, chunk):
        """classify_batch replayed in plain Python: the same Generator draws,
        chunk by chunk of `chunk` samples (edges, thinning coins, probes),
        answered by scalar q_degree, q_neighbor and q_pair and closed with
        Graph.precedes; a hit scores max(d_u, sqrt(m_bar)) / r."""
        g = oracle.graph
        sqrt_m = math.sqrt(m_bar)
        eps = min(eps, 0.5)
        reps, s = params.resolve_outer(oracle.n), params.resolve_s(m_bar, t_bar, eps)
        degs = [oracle.q_degree(v) for v in vs]
        found = [(LIGHT if d == 0 else HEAVY, ()) for d in degs]
        sampled = [i for i, d in enumerate(degs) if 0 < d <= degree_cutoff(m_bar, t_bar, eps)]
        samples = [(i, rep) for i in sampled for rep in range(reps) for _ in range(s)]
        sums = dict.fromkeys(samples, 0.0)
        for lo in range(0, len(samples), chunk):
            part = samples[lo:lo + chunk]
            idxs = rng.integers(1, np.array([degs[i] for i, _ in part]) + 1).tolist()
            edges = []
            for (i, _), idx in zip(part, idxs):
                v = vs[i]
                x = oracle.q_neighbor(v, idx)
                d_u = min(degs[i], oracle.q_degree(x))
                u, o = (x, v) if g.precedes(x, v) else (v, x)
                edges.append((v, x, u, o, d_u, ceil_div_by_sqrt(d_u, m_bar)))
            # Each sample is kept with probability min(1, d_u / sqrt(m_bar)).
            coins = rng.random(len(part)).tolist()
            kept = [(key, edge) for key, edge, c in zip(part, edges, coins) if c < edge[4] / sqrt_m]
            highs = [d_u for _, (*_, d_u, r) in kept for _ in range(r)]
            probes = iter(rng.integers(1, np.array(highs, dtype=np.int64) + 1).tolist())
            partial = {}
            for key, (v, x, u, o, d_u, r) in kept:
                for _ in range(r):
                    w = oracle.q_neighbor(u, next(probes))
                    if w not in (v, x) and oracle.q_pair(o, w):
                        oracle.q_degree(w)
                        if g.precedes(x, w):
                            partial[key] = partial.get(key, 0.0) + max(d_u, sqrt_m) / r
            for key, value in partial.items():
                sums[key] += value
        threshold = decision_threshold(t_bar, eps)
        for i in sampled:
            row = tuple(degs[i] * sums[i, rep] / s for rep in range(reps))
            found[i] = (HEAVY if lower_median(row) > threshold else LIGHT, row)
        return found

    @pytest.mark.parametrize("bound", [None, 60])
    def test_matches_plain_python_reference(self, bound, monkeypatch):
        # Each vertex has 3 repetitions of 8 samples. A bound of 60 cuts
        # the samples so that vertices and repetitions straddle two chunks.
        if bound is not None:
            monkeypatch.setattr(heavy, "_CHUNK_SAMPLES", bound)
        chunk = heavy._CHUNK_SAMPLES
        # G(60, 0.3) and two isolated vertices, which the degree shortcut decides.
        g = Graph.from_edges(62, gnp_edges(60, 0.3, seed=1))
        vs = list(range(0, 60, 3)) + [60, 61]
        # At m_bar 300 (sqrt 17.3) a sample whose endpoint u has degree 17
        # or less is kept with probability d_u / 17.3, and one over 17 makes
        # 2 probes.
        advice = (300.0, 300.0, 0.5, HeavyParams(outer_reps=3, s_scale=1.0 / 180.0))
        assert advice[3].resolve_s(*advice[:3]) == 8
        oracles = [QueryOracle(g, seed=0) for _ in range(2)]
        rngs = [np.random.default_rng(5) for _ in range(2)]
        found = classify_batch(oracles[0], vs, *advice, rngs[0])
        assert found == self.reference(oracles[1], vs, *advice, rngs[1], chunk)
        assert rngs[0].random() == rngs[1].random()
        verdicts = [verdict for verdict, _ in found]
        assert HEAVY in verdicts and LIGHT in verdicts
        assert found[-2:] == [(LIGHT, ()), (LIGHT, ())]
        assert all(len(est) == 3 for _, est in found[:-2])
        # Both asked the same queries, so they charged the same.
        assert oracles[0].stats == oracles[1].stats
        assert known_pairs(oracles[0]) == known_pairs(oracles[1])

    def test_shortcuts_and_samplers_mix_in_one_call(self):
        g, hub = wheel_like_graph()
        o = QueryOracle(g, seed=0)
        # At t_bar 10000 the hub's degree 18 is over the cutoff (about 11.6)
        # and rim degrees (10) are not.
        found = classify_batch(
            o, [0, hub, 9], 99.0, 10000.0, 0.5, HeavyParams(outer_reps=2, s_scale=0.01),
            np.random.default_rng(0),
        )
        assert found[1] == (HEAVY, ())
        assert [verdict for verdict, _ in found] == [LIGHT, HEAVY, LIGHT]
        assert len(found[0][1]) == len(found[2][1]) == 2
