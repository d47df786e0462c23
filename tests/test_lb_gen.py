"""Tests for the hard-instance generators and their certified triangle counts."""

import types

import numpy as np
import pytest

from subtri import lb_gen
from subtri.exact import count_ordered
from subtri.graph_store import Graph
from subtri.lb_gen import (
    gen_clique_family,
    gen_g1_bipartite,
    gen_g2_matching,
    gen_g2_multi_matching,
    gen_g2_partial_matching,
    gen_special_four,
)


def assert_certified(result):
    """The sidecar count must match an independent exact count."""
    assert count_ordered(result.graph).t == result.exact_t


def nonzero_degrees(g: Graph) -> np.ndarray:
    return g.degrees[g.degrees > 0]


class TestCliqueFamily:
    def test_counts_and_size(self):
        res = gen_clique_family(4096, 1000, seed=0)
        assert res.exact_t == 120  # C(10, 3)
        assert res.graph.m == 45
        assert res.meta["clique_size"] == 10
        assert_certified(res)

    def test_cube_root_floor(self):
        assert gen_clique_family(100, 27, seed=0).exact_t == 1
        assert gen_clique_family(100, 63, seed=0).exact_t == 1
        assert gen_clique_family(100, 64, seed=0).exact_t == 4

    def test_too_small_t_is_rejected(self):
        with pytest.raises(ValueError, match="at least 27"):
            gen_clique_family(100, 26, seed=0)

    def test_n_must_fit_the_clique(self):
        with pytest.raises(ValueError, match="too small"):
            gen_clique_family(9, 1000, seed=0)

    def test_members_move_with_the_seed(self):
        a = gen_clique_family(10_000, 1000, seed=1)
        b = gen_clique_family(10_000, 1000, seed=2)
        assert set(a.graph.edges()) != set(b.graph.edges())
        assert a.exact_t == b.exact_t == 120


class TestBipartite:
    def test_structure(self):
        res = gen_g1_bipartite(10, 4, seed=0)
        assert res.exact_t == 0
        assert res.graph.m == 16
        assert list(nonzero_degrees(res.graph)) == [4] * 8
        assert_certified(res)

    def test_smallest_side_is_a_four_cycle(self):
        res = gen_g1_bipartite(4, 2, seed=0)
        assert res.graph.m == 4
        assert res.exact_t == 0

    def test_rejects_undersized_n(self):
        with pytest.raises(ValueError, match="too small"):
            gen_g1_bipartite(7, 4, seed=0)


class TestMatchedPanels:
    def test_counts_edges_degrees(self):
        res = gen_g2_matching(40, 10, seed=0)
        assert res.exact_t == 160  # 2 * s * (s - 2)
        assert res.graph.m == 200  # 2 * s^2
        assert list(nonzero_degrees(res.graph)) == [10] * 40
        assert_certified(res)

    def test_degenerate_side_two(self):
        res = gen_g2_matching(8, 2, seed=0)
        assert res.exact_t == 0
        assert_certified(res)

    def test_odd_side_is_rejected(self):
        with pytest.raises(ValueError, match="even"):
            gen_g2_matching(20, 5, seed=0)

    def test_certified_across_seeds(self):
        for seed in range(5):
            assert_certified(gen_g2_matching(64, 16, seed=seed))


class TestMultiMatching:
    def test_count_lands_in_certified_band(self):
        res = gen_g2_multi_matching(32, 16, 2, seed=0)
        lo, hi = res.meta["band"]
        assert (lo, hi) == (384, 512)
        assert lo <= res.exact_t <= hi
        assert res.graph.m == 256  # s^2 preserved by the swap
        assert list(nonzero_degrees(res.graph)) == [16] * 32
        assert_certified(res)

    def test_r_one_delegates_to_matched_panels(self):
        res = gen_g2_multi_matching(40, 10, 1, seed=0)
        assert res.family == "g2-matching"
        assert res.exact_t == 160

    def test_r_bounds(self):
        gen_g2_multi_matching(32, 16, 2, seed=0)  # r = s/8 is the last legal value
        with pytest.raises(ValueError, match="r <= side/8"):
            gen_g2_multi_matching(32, 16, 3, seed=0)
        with pytest.raises(ValueError, match="r <= side/8"):
            gen_g2_multi_matching(32, 16, 0, seed=0)

    def test_count_outside_band_raises(self, monkeypatch):
        monkeypatch.setattr(lb_gen, "count_ordered", lambda graph: types.SimpleNamespace(t=0))
        with pytest.raises(RuntimeError, match="outside certified band"):
            gen_g2_multi_matching(32, 16, 2, seed=0)

    def test_certified_across_seeds(self):
        for seed in range(5):
            res = gen_g2_multi_matching(64, 32, 3, seed=seed)
            lo, hi = res.meta["band"]
            assert lo <= res.exact_t <= hi
            assert_certified(res)


class TestPartialMatching:
    def test_counts_edges_degrees(self):
        res = gen_g2_partial_matching(32, 16, 4, seed=0)
        assert res.exact_t == 56  # k * (s - 2)
        assert res.graph.m == 256
        assert list(nonzero_degrees(res.graph)) == [16] * 32
        assert_certified(res)

    def test_smallest_k(self):
        res = gen_g2_partial_matching(32, 16, 2, seed=0)
        assert res.exact_t == 28
        assert_certified(res)

    def test_k_constraints(self):
        with pytest.raises(ValueError, match="even"):
            gen_g2_partial_matching(32, 16, 3, seed=0)
        with pytest.raises(ValueError, match="side/4"):
            gen_g2_partial_matching(32, 16, 6, seed=0)

    def test_certified_across_seeds(self):
        for seed in range(5):
            assert_certified(gen_g2_partial_matching(64, 32, 8, seed=seed))


class TestSpecialFour:
    def test_special_pairs_make_four_t_triangles(self):
        res = gen_special_four(32, 8, 2, seed=0)
        assert res.exact_t == 8
        assert res.graph.m == 128  # 2 * s^2
        assert list(nonzero_degrees(res.graph)) == [8] * 32
        assert len(res.meta["special_vertices"]) == 4
        assert_certified(res)

    def test_twin_is_triangle_free_with_same_degrees(self):
        res = gen_special_four(32, 8, 2, seed=0, special=False)
        assert res.exact_t == 0
        assert res.graph.m == 128
        assert list(nonzero_degrees(res.graph)) == [8] * 32
        assert "special_vertices" not in res.meta
        assert_certified(res)

    def test_block_size_must_divide_side(self):
        with pytest.raises(ValueError, match="divide"):
            gen_special_four(32, 8, 3, seed=0)

    def test_needs_at_least_four_blocks(self):
        with pytest.raises(ValueError, match="4 blocks"):
            gen_special_four(32, 8, 4, seed=0)

    def test_needs_room_for_four_sets(self):
        with pytest.raises(ValueError, match="too small"):
            gen_special_four(31, 8, 2, seed=0)

    def test_certified_across_seeds(self):
        for seed in range(5):
            assert_certified(gen_special_four(48, 12, 3, seed=seed))
            assert_certified(gen_special_four(48, 12, 3, seed=seed, special=False))


class TestCommonContracts:
    FAMILY_CALLS = (
        lambda seed, shuffle: gen_g1_bipartite(24, 8, seed=seed, shuffle=shuffle),
        lambda seed, shuffle: gen_g2_matching(48, 12, seed=seed, shuffle=shuffle),
        lambda seed, shuffle: gen_g2_multi_matching(32, 16, 2, seed=seed, shuffle=shuffle),
        lambda seed, shuffle: gen_g2_partial_matching(32, 16, 4, seed=seed, shuffle=shuffle),
        lambda seed, shuffle: gen_special_four(32, 8, 2, seed=seed, shuffle=shuffle),
    )

    def test_edges_are_simple_and_in_range(self):
        for call in self.FAMILY_CALLS:
            res = call(3, False)
            # Rebuilding through from_edges' checks proves the stored edges
            # hold no duplicates or out-of-range ids; edges() skips self
            # loops, so an equal edge count proves there were none.
            rebuilt = Graph.from_edges(res.graph.n, list(res.graph.edges()))
            assert rebuilt.m == res.graph.m

    def test_shuffle_preserves_counts_and_degrees(self):
        for call in self.FAMILY_CALLS:
            plain = call(7, False)
            mixed = call(7, True)
            assert mixed.exact_t == plain.exact_t
            assert mixed.graph.m == plain.graph.m
            assert sorted(mixed.graph.degrees) == sorted(plain.graph.degrees)
            assert count_ordered(mixed.graph).t == mixed.exact_t

    def test_shuffled_special_vertices_are_remapped(self):
        res = gen_special_four(32, 8, 2, seed=9, shuffle=True)
        specials = res.meta["special_vertices"]
        assert len(set(specials)) == 4
        # The two added edges connect the remapped specials.
        a, b, c, d = specials
        assert res.graph.has_edge(a, c)
        assert res.graph.has_edge(b, d)

    def test_sidecar_shape(self):
        res = gen_g2_matching(40, 10, seed=0)
        doc = res.sidecar_dict()
        assert set(doc) == {"family", "params", "exact_t"}
        assert doc["exact_t"] == 160
        assert doc["params"]["side"] == 10

    def test_formula_strings_present(self):
        for call in self.FAMILY_CALLS:
            assert call(0, False).formula
