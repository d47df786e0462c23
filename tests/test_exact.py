"""Tests for the exact counters, their identities, and ground-truth labels."""

import json
import math
from unittest import mock

import numpy as np
import pytest

from subtri import exact
from subtri.exact import count_brute, count_ordered, label_ground_truth
from subtri.graph_store import Graph
from subtri.heavy import BORDERLINE, HEAVY, LIGHT
from subtri.lb_gen import gen_g2_matching
from test_properties import pool_of, wedge_reference
from util import complete_graph, gnp_graph


class TestSmallGraphs:
    def test_triangle_counts(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        for counter in (count_brute, count_ordered):
            stats = counter(g)
            assert stats.t == 1
            assert list(stats.t_v) == [1, 1, 1]
            # Each vertex charges the triangle to its order-smaller partner;
            # with equal degrees the order is by id, so 0 never points at 2.
            assert stats.t_e[(0, 1)] == 1
            assert stats.t_e.get((0, 2), 0) == 0
            assert stats.t_e[(1, 0)] == 1
            assert stats.t_e[(2, 0)] == 1

    def test_k4_counts(self):
        stats = count_ordered(complete_graph(4))
        assert stats.t == 4
        assert list(stats.t_v) == [3, 3, 3, 3]

    def test_bipartite_is_triangle_free(self):
        g = Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
        stats = count_ordered(g)
        assert stats.t == 0
        assert not stats.t_v.any()
        assert stats.t_e == {}

    def test_empty_and_edgeless_graphs(self):
        assert count_ordered(Graph.from_edges(0, [])).t == 0
        assert count_brute(Graph.from_edges(5, [])).t == 0


class TestCountersAgree:
    def test_brute_and_ordered_agree_on_random_graphs(self):
        for seed in range(10):
            g = gnp_graph(200, 0.1, seed=seed)
            a = count_brute(g)
            b = count_ordered(g)
            assert a.t == b.t
            assert np.array_equal(a.t_v, b.t_v)
            assert a.t_e == b.t_e


@pytest.fixture(scope="module")
def counted():
    graphs = [gnp_graph(120, p, seed) for p in (0.05, 0.2) for seed in range(3)]
    return [(g, count_ordered(g)) for g in graphs]


class TestIdentities:
    def test_vertex_counts_sum_to_three_t(self, counted):
        for _, stats in counted:
            assert int(stats.t_v.sum()) == 3 * stats.t

    def test_edge_counts_partition_vertex_counts(self, counted):
        for g, stats in counted:
            per_vertex = np.zeros(g.n, dtype=np.int64)
            for (v, _), c in stats.t_e.items():
                per_vertex[v] += c
            assert np.array_equal(per_vertex, stats.t_v)

    def test_edge_counts_within_successor_bound(self, counted):
        for g, stats in counted:
            bound = math.isqrt(2 * g.m)
            assert all(c <= bound for c in stats.t_e.values())

    def test_total_within_global_bound(self, counted):
        for g, stats in counted:
            assert stats.t <= (4.0 / 3.0) * g.m**1.5


class TestGroundTruthLabels:
    def test_low_degree_triangle_free_vertex_is_light(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        labels = label_ground_truth(count_ordered(g), g, m_bar=2, t_bar=8, eps=0.5)
        assert labels == [LIGHT, LIGHT, LIGHT]

    def test_degree_clause_alone_makes_heavy(self):
        # Star center: no triangles at all, but the degree trips the cutoff
        # 2 * m_bar / (eps * t_bar)^(1/3) = 20 / (500)^(1/3), about 2.5.
        n = 11
        g = Graph.from_edges(n, [(i, n - 1) for i in range(n - 1)])
        labels = label_ground_truth(count_ordered(g), g, m_bar=10, t_bar=1000, eps=0.5)
        assert labels[n - 1] == HEAVY
        assert all(lab == LIGHT for lab in labels[: n - 1])

    def test_tv_just_above_heavy_cutoff(self):
        # Hub over a 42-vertex path: t_v(hub) = 41 path edges. With t_bar=64,
        # eps=1/2 the heavy cutoff is 2 * 16 / (1/2)^(1/3), about 40.3, so 41
        # is heavy while the degree cutoff (about 52.3) stays untripped.
        path = [(i, i + 1) for i in range(41)]
        hub = 42
        g = Graph.from_edges(43, path + [(v, hub) for v in range(42)])
        stats = count_ordered(g)
        assert int(stats.t_v[hub]) == 41
        labels = label_ground_truth(stats, g, m_bar=83, t_bar=64, eps=0.5)
        assert labels[hub] == HEAVY
        assert all(lab == LIGHT for lab in labels[:hub])

    def test_gap_between_cutoffs_is_borderline(self):
        # Same construction with 20 path edges: t_v(hub) = 20 falls between
        # the light cutoff (about 10.1) and the heavy cutoff (about 40.3).
        path = [(i, i + 1) for i in range(20)]
        hub = 21
        g = Graph.from_edges(22, path + [(v, hub) for v in range(21)])
        stats = count_ordered(g)
        assert int(stats.t_v[hub]) == 20
        labels = label_ground_truth(stats, g, m_bar=41, t_bar=64, eps=0.5)
        assert labels[hub] == BORDERLINE

    def test_heavy_vertices_are_few_under_bracketing_advice(self):
        for seed in range(3):
            g = gnp_graph(200, 0.1, seed=seed)
            stats = count_ordered(g)
            t = stats.t
            assert t > 0
            labels = label_ground_truth(stats, g, m_bar=g.m, t_bar=t, eps=0.5)
            heavy_count = sum(1 for lab in labels if lab == HEAVY)
            assert heavy_count <= 12.0 * (0.5 * t) ** (1.0 / 3.0)


class TestIsolatedVertices:
    def test_sparse_ids_match_brute_and_the_all_vertex_ranking(self):
        # A K5 and a g2 panel (t = 160) on ids spread over 10^5, the first
        # and last ids among them, so most ids, including ones between
        # used ids, are isolated. count_ordered ranks only the 45 vertices
        # with an edge; wedge_reference ranks all 10^5 of them.
        n = 100_000
        ids = np.random.default_rng(0).choice(np.arange(1, n - 1), size=43, replace=False)
        ids = np.concatenate(([0, n - 1], ids))
        k5 = [(ids[a], ids[b]) for a in range(5) for b in range(a + 1, 5)]
        panel = [(ids[5 + u], ids[5 + w]) for u, w in gen_g2_matching(40, 10, seed=0).graph.edges()]
        g = Graph.from_edges(n, k5 + panel)
        stats = count_ordered(g)
        brute = count_brute(g)
        t, t_v, t_e_slots = wedge_reference(g)
        assert stats.t == brute.t == t == 10 + 160
        assert len(stats.t_v) == n
        assert np.array_equal(stats.t_v, brute.t_v)
        assert np.array_equal(stats.t_v, t_v)
        assert not stats.t_v[g.degrees == 0].any()
        assert np.array_equal(stats.t_e_slots, brute.t_e_slots)
        assert np.array_equal(stats.t_e_slots, t_e_slots)


def sparse_id_graph() -> Graph:
    """G(30, 0.3) on 30 of 200 ids, so most ids are isolated."""
    ids = np.random.default_rng(1).choice(200, size=30, replace=False)
    return Graph.from_edges(200, [(ids[u], ids[w]) for u, w in gnp_graph(30, 0.3, seed=1).edges()])


LAZY_SPLIT_GRAPHS = {
    "gnp": lambda: gnp_graph(60, 0.2, seed=4),
    "sparse-ids": sparse_id_graph,
    "edgeless": lambda: Graph.from_edges(5, []),
    "empty": lambda: Graph.from_edges(0, []),
}


class TestLazySlotSplit:
    # t and t_v come from the per-position hits; the per-slot t_e split maps
    # them to CSR slots through Graph.edge_slots, once, on first access.
    # Passes of 3 probes put every graph with a triangle on several passes.
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("name", list(LAZY_SPLIT_GRAPHS))
    def test_split_is_built_once_on_first_access(self, name, workers):
        g = LAZY_SPLIT_GRAPHS[name]()
        brute = count_brute(g)
        no_split = AssertionError("t or t_v built the slot split")
        with mock.patch.object(exact, "_WEDGE_CHUNK", 3), pool_of(workers):
            with mock.patch.object(Graph, "edge_slots", side_effect=no_split):
                stats = count_ordered(g)
                assert stats.t == brute.t
                assert np.array_equal(stats.t_v, brute.t_v)
        counting = mock.patch.object(Graph, "edge_slots", autospec=True, side_effect=Graph.edge_slots)
        with counting as edge_slots:
            assert np.array_equal(stats.t_e_slots, brute.t_e_slots)
            assert stats.t_e == brute.t_e
            assert stats.to_json_dict() == brute.to_json_dict()
            assert stats.t_e_slots is stats.t_e_slots
        assert edge_slots.call_count == 1
        if name == "gnp":
            assert stats.t > 0


class TestSerialization:
    def test_json_dict_round_trips_and_sorts(self):
        g = complete_graph(4)
        doc = count_ordered(g).to_json_dict()
        assert doc["t"] == 4
        assert doc["t_v"] == [3, 3, 3, 3]
        triples = doc["t_e"]
        assert triples == sorted(triples)
        assert all(isinstance(x, int) for row in triples for x in row)
        parsed = json.loads(json.dumps(doc))
        assert parsed["t"] == 4
