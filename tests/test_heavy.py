"""Tests for the sampled heavy-vertex classifier and its helpers."""

import math
import statistics

import numpy as np
import pytest

from subtri import (
    HEAVY,
    LIGHT,
    Graph,
    HeavyParams,
    QueryOracle,
    classify_heavy,
    count_ordered,
    decision_threshold,
    degree_cutoff,
    gen_g2_matching,
    heavy_tv_cutoff,
    light_tv_cutoff,
)
from subtri import heavy
from subtri.heavy import ceil_div_by_sqrt, ceil_div_by_sqrt_array, classify_batch, lower_median
from util import gnp_edges, wheel_like_graph


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

    def test_wheel_hub_estimates_are_unbiased(self):
        # The hub of the bipartite-rim wheel has t_v = 81; with enough
        # repetitions the mean of the per-repetition estimates recovers it.
        g, hub = wheel_like_graph()
        o = QueryOracle(g, seed=0)
        params = HeavyParams(outer_reps=500, s_scale=0.25)
        verdict = classify_heavy(
            o, hub, m_bar=120.0, t_bar=64.0, eps=0.5, params=params, rng=np.random.default_rng(11)
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
    def classify(oracle, vs, how):
        """classify_batch on vs, with vertex v drawing from default_rng(100 + v),
        in one call ("one"), reversed ("reversed") or one vertex per call."""
        advice = dict(m_bar=float(oracle.graph.m), t_bar=300.0, eps=0.5,
                        params=HeavyParams(outer_reps=3, s_scale=1.0 / 64.0))

        def run(batch):
            rngs = [np.random.default_rng(100 + v) for v in batch]
            return classify_batch(oracle, batch, rngs=rngs, **advice)

        if how == "one":
            return run(vs)
        if how == "reversed":
            return run(vs[::-1])[::-1]
        return [found for v in vs for found in run([v])]

    @pytest.mark.parametrize("bound", [None, 60])
    def test_verdicts_do_not_depend_on_batching(self, bound, monkeypatch):
        # Each vertex draws only from its own Generator, so one call, the
        # reversed order and one vertex per call reach the same verdicts and
        # estimates, and ask the same queries. A bound of 60 splits each
        # vertex's 153 samples into pieces of 60, 60 and 33, and a vertex's
        # first piece would fit beside the previous vertex's last one.
        if bound is not None:
            monkeypatch.setattr(heavy, "_CHUNK_SAMPLES", bound)
        # G(60, 0.3) and two isolated vertices, which the degree shortcut decides.
        g = Graph.from_edges(62, gnp_edges(60, 0.3, seed=1))
        vs = list(range(0, 60, 3)) + [60, 61]
        outcomes, oracles = [], []
        for how in ("one", "reversed", "single"):
            o = QueryOracle(g, seed=0)
            outcomes.append(self.classify(o, vs, how))
            oracles.append(o)
        assert outcomes[0] == outcomes[1] == outcomes[2]
        verdicts = [verdict for verdict, _ in outcomes[0]]
        assert HEAVY in verdicts and LIGHT in verdicts
        assert outcomes[0][-2:] == [(LIGHT, ()), (LIGHT, ())]
        assert all(len(est) == 3 for _, est in outcomes[0][:-2])
        # The queries asked, and so what the oracle knows, are the same. The
        # pair charge is not compared: a pair query is free when a neighbor
        # answer revealed the pair first, so it depends on the order.
        stats = [(o.stats.degree, o.stats.neighbor, o.stats.vertex_samples) for o in oracles]
        assert stats[0] == stats[1] == stats[2]
        assert oracles[0]._pair_cache == oracles[1]._pair_cache == oracles[2]._pair_cache

    def test_shortcuts_and_samplers_mix_in_one_call(self):
        g, hub = wheel_like_graph()
        o = QueryOracle(g, seed=0)
        # At t_bar 10000 the hub's degree 18 is over the cutoff (about 11.6)
        # and rim degrees (10) are not.
        found = classify_batch(
            o, [0, hub, 9], 99.0, 10000.0, 0.5, HeavyParams(outer_reps=2, s_scale=0.01),
            [np.random.default_rng(k) for k in range(3)],
        )
        assert found[1] == (HEAVY, ())
        assert [verdict for verdict, _ in found] == [LIGHT, HEAVY, LIGHT]
        assert len(found[0][1]) == len(found[2][1]) == 2

    def test_needs_one_rng_per_vertex(self):
        o, center = star_oracle(10)
        with pytest.raises(ValueError, match="one rng per vertex"):
            classify_batch(o, [center, 0], 10.0, 1.0, 0.5, None, [np.random.default_rng(0)])
