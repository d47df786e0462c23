"""Tests for query metering, memoization, budgets, and oracle sampling."""

import math
import random

import numpy as np
import pytest

from subtri import ABSENT, BudgetExhausted, Graph, QueryOracle
from util import complete_graph, gnp_graph


def triangle_oracle(**kwargs) -> QueryOracle:
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    return QueryOracle(g, seed=0, **kwargs)


class TestDistinctCounting:
    def test_degree_counted_once(self):
        o = triangle_oracle()
        assert o.q_degree(0) == 2
        assert o.q_degree(0) == 2
        assert o.stats.degree == 1
        assert o.q_degree(1) == 2
        assert o.stats.degree == 2

    def test_neighbor_counted_once_per_slot(self):
        o = triangle_oracle()
        assert o.q_neighbor(0, 1) == 1
        assert o.q_neighbor(0, 1) == 1
        assert o.stats.neighbor == 1
        o.q_neighbor(0, 2)
        assert o.stats.neighbor == 2

    def test_absent_neighbor_is_counted_and_memoized(self):
        o = triangle_oracle()
        assert o.q_neighbor(0, 3) is ABSENT
        assert o.stats.neighbor == 1
        assert o.q_neighbor(0, 3) is ABSENT
        assert o.stats.neighbor == 1
        # A different out-of-range index is a distinct query.
        assert o.q_neighbor(0, 4) is ABSENT
        assert o.stats.neighbor == 2

    def test_pair_memo_is_unordered(self):
        o = triangle_oracle()
        assert o.q_pair(0, 1) is True
        assert o.q_pair(1, 0) is True
        assert o.stats.pair == 1

    def test_neighbor_answer_seeds_pair_memo(self):
        o = triangle_oracle()
        w = o.q_neighbor(0, 1)
        before = o.budget_charged
        assert o.q_pair(0, w) is True
        assert o.stats.pair == 0
        assert o.budget_charged == before

    def test_total_sums_graph_queries_only(self):
        o = triangle_oracle()
        o.q_degree(0)
        o.q_neighbor(0, 1)
        o.q_pair(1, 2)
        o.sample_vertices(1)
        s = o.stats
        assert s.total == s.degree + s.neighbor + s.pair == 3
        assert s.vertex_samples == 1

    def test_degree_batch_counts_distinct_vertices(self):
        o = triangle_oracle()
        degs = o.q_degree_batch(np.array([0, 0, 1]))
        assert list(degs) == [2, 2, 2]
        assert o.stats.degree == 2
        o.q_degree_batch(np.array([0, 1, 2]))
        assert o.stats.degree == 3

    def test_counter_maxima_under_exhaustive_querying(self):
        g = gnp_graph(12, 0.4, seed=2)
        o = QueryOracle(g, seed=0)
        for v in range(g.n):
            o.q_degree(v)
            for i in range(1, g.degree(v) + 2):
                o.q_neighbor(v, i)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                o.q_pair(u, v)
        s = o.stats
        assert s.degree == g.n
        assert s.neighbor == 2 * g.m + g.n  # one absent probe per vertex
        assert s.pair <= g.n * (g.n - 1) // 2


class TestAnswerSoundness:
    def test_answers_match_raw_graph(self):
        g = gnp_graph(30, 0.2, seed=6)
        o = QueryOracle(g, seed=1)
        rng = random.Random(4)
        for _ in range(500):
            v = rng.randrange(g.n)
            assert o.q_degree(v) == g.degree(v)
            i = rng.randrange(1, g.degree(v) + 3) if g.degree(v) else 1
            want = int(g.neighbors(v)[i - 1]) if i <= g.degree(v) else ABSENT
            assert o.q_neighbor(v, i) == want
            u = rng.randrange(g.n)
            if u != v:
                assert o.q_pair(u, v) == g.has_edge(u, v)

    def test_errors_out_of_range(self):
        o = triangle_oracle()
        with pytest.raises(IndexError):
            o.q_degree(3)
        with pytest.raises(IndexError):
            o.q_neighbor(-1, 1)
        with pytest.raises(IndexError):
            o.q_pair(0, 99)
        with pytest.raises(ValueError):
            o.q_pair(1, 1)
        with pytest.raises(ValueError):
            o.q_neighbor(0, 0)

    @pytest.mark.parametrize(
        "vs, idxs, error",
        [
            ([0, 1], [1, 3], ValueError),  # past the degree: ABSENT is scalar-only
            ([0, 1], [1, 0], ValueError),
            ([0, 3], [1, 1], IndexError),
            ([0, 1], [1], ValueError),
        ],
    )
    def test_batch_errors_charge_nothing(self, vs, idxs, error):
        o = triangle_oracle()
        with pytest.raises(error):
            o.q_neighbor_batch(np.array(vs), np.array(idxs))
        assert o.stats.total == 0
        assert o.q_neighbor_batch(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).size == 0

    def test_empty_graph_oracle_is_valid_but_unqueryable(self):
        o = QueryOracle(Graph.from_edges(0, []), seed=0)
        with pytest.raises(IndexError):
            o.q_degree(0)
        with pytest.raises(ValueError):
            o.sample_vertices(1)


class TestBudget:
    def test_only_neighbor_and_pair_queries_charge(self):
        g = gnp_graph(20, 0.3, seed=3)
        o = QueryOracle(g, seed=0, budget=1)
        for v in range(g.n):
            o.q_degree(v)
        o.sample_vertices(100)
        assert o.budget_charged == 0
        o.q_neighbor(0, 1)
        assert o.budget_charged == 1
        with pytest.raises(BudgetExhausted):
            o.q_neighbor(0, 2)

    def test_pair_query_charges(self):
        o = triangle_oracle(budget=1)
        o.q_pair(0, 1)
        with pytest.raises(BudgetExhausted):
            o.q_pair(0, 2)

    def test_memoized_queries_stay_free_after_exhaustion(self):
        o = triangle_oracle(budget=2)
        o.q_neighbor(0, 1)
        o.q_pair(1, 2)
        assert o.budget_charged == 2
        with pytest.raises(BudgetExhausted):
            o.q_neighbor(0, 2)
        # Everything already revealed still answers.
        assert o.q_neighbor(0, 1) == 1
        assert o.q_pair(1, 2) is True
        assert o.q_degree(2) == 2
        assert o.budget_charged == 2

    def test_failed_charge_leaves_counters_unchanged(self):
        o = triangle_oracle(budget=1)
        o.q_neighbor(0, 1)
        before = o.stats
        with pytest.raises(BudgetExhausted):
            o.q_neighbor(1, 1)
        after = o.stats
        assert (after.degree, after.neighbor, after.pair) == (
            before.degree,
            before.neighbor,
            before.pair,
        )

    def test_set_budget_can_lift_the_cap(self):
        o = triangle_oracle(budget=1)
        o.q_neighbor(0, 1)
        with pytest.raises(BudgetExhausted):
            o.q_neighbor(0, 2)
        o.set_budget(None)
        assert o.q_neighbor(0, 2) == 2

    def test_negative_cap_is_rejected(self):
        with pytest.raises(ValueError, match="at least 0"):
            triangle_oracle(budget=-3)
        o = triangle_oracle(budget=0)
        with pytest.raises(ValueError, match="at least 0"):
            o.set_budget(-1)
        assert o.budget_cap == 0

    def test_batch_under_a_lowered_cap_charges_nothing(self):
        o = QueryOracle(complete_graph(5), seed=0)
        o.q_neighbor(0, 1)
        o.q_pair(1, 2)
        o.set_budget(1)
        with pytest.raises(BudgetExhausted):
            o.q_neighbor_batch(np.array([0, 1, 2, 3]), np.array([1, 1, 1, 1]))
        assert o.budget_charged == 2
        assert o.stats.neighbor == 1

    def test_random_edge_propagates_exhaustion(self):
        o = triangle_oracle(budget=0)
        with pytest.raises(BudgetExhausted):
            o.q_random_edge_at(0, np.random.default_rng(0))


class TestSampling:
    def test_single_vertex_graph_always_samples_zero(self):
        g = Graph.from_edges(1, [])
        o = QueryOracle(g, seed=0)
        assert list(o.sample_vertices(10)) == [0] * 10
        assert o.stats.vertex_samples == 10

    def test_batch_sampling_counts_every_draw(self):
        o = triangle_oracle()
        o.sample_vertices(7)
        o.sample_vertices(1)
        assert o.stats.vertex_samples == 8

    def test_uniformity_within_five_sigma(self):
        n, draws = 10, 100_000
        g = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        o = QueryOracle(g, seed=12345)
        counts = np.bincount(o.sample_vertices(draws), minlength=n)
        expected = draws / n
        sigma = math.sqrt(draws * (1 / n) * (1 - 1 / n))
        assert np.all(np.abs(counts - expected) <= 5 * sigma)

    def test_same_seed_reproduces_samples(self):
        g = gnp_graph(50, 0.1, seed=0)
        a = QueryOracle(g, seed=42)
        b = QueryOracle(g, seed=42)
        assert np.array_equal(a.sample_vertices(50), b.sample_vertices(50))
        assert np.array_equal(a.sample_vertices(100), b.sample_vertices(100))

    def test_different_seeds_diverge(self):
        g = gnp_graph(50, 0.1, seed=0)
        a = QueryOracle(g, seed=1)
        b = QueryOracle(g, seed=2)
        assert not np.array_equal(a.sample_vertices(100), b.sample_vertices(100))


class TestRandomEdge:
    def test_degree_one_vertex_returns_its_unique_edge(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        o = QueryOracle(g, seed=0)
        for _ in range(5):
            assert o.q_random_edge_at(0) == (0, 1)

    def test_isolated_vertex_is_an_error(self):
        g = Graph.from_edges(3, [(0, 1)])
        o = QueryOracle(g, seed=0)
        with pytest.raises(ValueError, match="isolated"):
            o.q_random_edge_at(2)

    def test_incident_edges_drawn_uniformly(self):
        o = QueryOracle(complete_graph(3), seed=7)
        draws = 10_000
        rng = np.random.default_rng(99)
        counts = {1: 0, 2: 0}
        for _ in range(draws):
            v, x = o.q_random_edge_at(0, rng)
            assert v == 0
            counts[x] += 1
        sigma = math.sqrt(draws * 0.25)
        assert abs(counts[1] - draws / 2) <= 5 * sigma
        assert abs(counts[2] - draws / 2) <= 5 * sigma

    def test_costs_are_memoized_across_draws(self):
        o = QueryOracle(complete_graph(4), seed=0)
        rng = np.random.default_rng(3)
        for _ in range(200):
            o.q_random_edge_at(1, rng)
        s = o.stats
        assert s.degree == 1
        assert s.neighbor <= 3
