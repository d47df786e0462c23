"""Tests for the sampled heavy-vertex classifier and its helpers."""

import math
import random
import statistics

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
from subtri.heavy import ceil_div_by_sqrt, lower_median
from util import wheel_like_graph


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

    def test_ceil_div_by_sqrt_large_exact_boundary(self):
        d = 10**7
        assert ceil_div_by_sqrt(d, float(d * d)) == 1
        assert ceil_div_by_sqrt(d + 1, float(d * d)) == 2


class TestShortcuts:
    def test_isolated_vertex_is_light(self):
        g = Graph.from_edges(3, [(0, 1)])
        o = QueryOracle(g, seed=0)
        verdict = classify_heavy(o, 2, m_bar=1, t_bar=1, eps=0.5, rng=random.Random(0))
        assert verdict.verdict == LIGHT
        assert verdict.medians == ()
        assert verdict.queries_used == 1

    def test_high_degree_is_heavy_without_sampling(self):
        o, center = star_oracle(99)
        # degree 99 against cutoff 2 * 99 / (0.5 * 1000)^(1/3), about 25.
        verdict = classify_heavy(o, center, m_bar=99, t_bar=1000, eps=0.5, rng=random.Random(0))
        assert verdict.verdict == HEAVY
        assert verdict.medians == ()
        assert verdict.queries_used == 1


class TestSampledVerdicts:
    def test_star_center_below_cutoff_is_light_with_zero_estimates(self):
        # Degree 10 stays under the cutoff (about 25), and no probe can close
        # a triangle on a star, so every repetition estimates exactly zero.
        o, center = star_oracle(10)
        verdict = classify_heavy(o, center, m_bar=10, t_bar=1, eps=0.5, rng=random.Random(1))
        assert verdict.verdict == LIGHT
        assert set(verdict.medians) == {0.0}
        assert len(verdict.medians) == math.ceil(10 * math.log(11))

    def test_same_seed_reproduces_the_full_verdict(self):
        res = gen_g2_matching(64, 16, seed=5)
        runs = []
        for _ in range(2):
            o = QueryOracle(res.graph, seed=9)
            runs.append(
                classify_heavy(o, 0, m_bar=512.0, t_bar=448.0, eps=0.5, rng=random.Random(7))
            )
        assert runs[0] == runs[1]

    def test_wheel_hub_estimates_are_unbiased(self):
        # The hub of the bipartite-rim wheel has t_v = 81; with enough
        # repetitions the mean of the per-repetition estimates recovers it.
        g, hub = wheel_like_graph()
        o = QueryOracle(g, seed=0)
        params = HeavyParams(outer_reps=500, s_scale=0.25)
        verdict = classify_heavy(
            o, hub, m_bar=120.0, t_bar=64.0, eps=0.5, params=params, rng=random.Random(11)
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
        verdict = classify_heavy(o, 0, m_bar=120.0, t_bar=64.0, eps=0.5, rng=random.Random(2))
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
                    o, v, m_bar, t_bar, 0.5, params=params, rng=random.Random(v)
                )
                assert verdict.medians  # no degree shortcut on these instances
                used.append(verdict.queries_used)
            costs[side] = statistics.median(used)
        ratio = costs[64] / costs[32]
        assert 1.0 <= ratio <= 4.0
