"""Tests for adjacency storage, the vertex order, and the edge-list format."""

import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from subtri import Graph, GraphFormatError, load_edge_list, write_edge_list
from util import gnp_edges, gnp_graph


def triangle_graph() -> Graph:
    return Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


class TestFromEdges:
    def test_triangle_basics(self):
        g = triangle_graph()
        assert g.n == 3
        assert g.m == 3
        assert [g.degree(v) for v in range(3)] == [2, 2, 2]

    def test_path_degrees(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert [g.degree(v) for v in range(3)] == [1, 2, 1]

    def test_isolated_vertices_allowed(self):
        g = Graph.from_edges(4, [(0, 1)])
        assert g.degree(2) == 0
        assert g.degree(3) == 0
        assert list(g.neighbors(2)) == []

    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        assert g.n == 0
        assert g.m == 0

    def test_neighbor_order_follows_edge_input_order(self):
        g = Graph.from_edges(4, [(2, 1), (0, 2), (2, 3)])
        assert list(g.neighbors(2)) == [1, 0, 3]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self loop"):
            Graph.from_edges(3, [(0, 1), (1, 1)])

    def test_rejects_duplicate_edge_same_orientation(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(3, [(0, 1), (0, 1)])

    def test_rejects_duplicate_edge_flipped_orientation(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_id(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_non_integer_ids(self):
        with pytest.raises(ValueError, match="integers"):
            Graph.from_edges(3, [(0.7, 1.2), (1, 2.9)])
        with pytest.raises(ValueError, match="integers"):
            Graph.from_edges(3, np.array([[0.0, 1.0]]))

    def test_error_names_the_first_bad_pair(self):
        with pytest.raises(ValueError, match=r"^edge 2: duplicate edge \(1, 3\)$"):
            Graph.from_edges(4, [(0, 1), (1, 3), (3, 1), (2, 2)])


class TestQueries:
    def test_has_edge_matches_edge_set(self):
        g = gnp_graph(80, 0.1, seed=5)
        present = {(u, v) for u, v in g.edges()}
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert g.has_edge(u, v) == ((u, v) in present)
                assert g.has_edge(v, u) == ((u, v) in present)

    def test_has_edge_rejects_nothing_but_returns_false_on_same_vertex(self):
        g = triangle_graph()
        assert g.has_edge(1, 1) is False

    def test_scalar_reads_return_python_types_for_numpy_ids(self):
        # Callers index with numpy integers (sampled ids, neighbor arrays);
        # the answers must still be exact Python bools and ints.
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        for cast in (int, np.int64):
            u, v, w, x = (cast(i) for i in range(4))
            assert g.has_edge(u, v) is True
            assert g.has_edge(v, u) is True
            assert g.has_edge(u, w) is False
            assert g.has_edge(x, v) is False
            assert g.precedes(u, v) is True
            assert g.precedes(v, u) is False
            assert g.precedes(u, w) is True
            assert type(g.degree(v)) is int and g.degree(v) == 2

    def test_edges_yields_each_edge_once_min_first(self):
        g = gnp_graph(40, 0.2, seed=1)
        listed = list(g.edges())
        assert len(listed) == g.m
        assert len(set(listed)) == g.m
        assert all(u < v for u, v in listed)


class TestVertexOrder:
    def test_degree_breaks_before_id(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        # degrees: 0 -> 1, 1 -> 2, 2 -> 1
        assert g.precedes(0, 1)
        assert g.precedes(2, 1)
        assert not g.precedes(1, 0)

    def test_id_breaks_ties(self):
        g = triangle_graph()
        assert g.precedes(0, 2)
        assert not g.precedes(2, 0)

    def test_irreflexive(self):
        g = triangle_graph()
        assert not g.precedes(1, 1)

    def test_total_order_on_random_graph(self):
        g = gnp_graph(60, 0.15, seed=9)
        rng = np.random.default_rng(3)
        for _ in range(200):
            u, v, w = (int(x) for x in rng.integers(0, g.n, size=3))
            if u != v:
                assert g.precedes(u, v) != g.precedes(v, u)
            if g.precedes(u, v) and g.precedes(v, w):
                assert g.precedes(u, w)


class TestInvariants:
    def test_degree_sum_is_twice_edge_count(self):
        for seed in range(5):
            g = gnp_graph(50, 0.2, seed=seed)
            assert int(g.degrees.sum()) == 2 * g.m

    def test_successor_counts_within_bound(self):
        # No vertex may have more than sqrt(2m) neighbors after it in the
        # (degree, id) order; recompute the counts directly.
        for seed in range(5):
            g = gnp_graph(100, 0.1, seed=seed)
            bound = math.isqrt(2 * g.m)
            for v in range(g.n):
                succ = sum(1 for w in g.neighbors(v) if g.precedes(v, int(w)))
                assert succ <= bound

    def test_star_center_has_no_successors(self):
        n = 50
        g = Graph.from_edges(n, [(i, n - 1) for i in range(n - 1)])
        center = n - 1
        assert all(not g.precedes(center, v) for v in range(n - 1))


def raw_graph(n: int, m: int, degrees, nbrs) -> Graph:
    """A Graph built straight from CSR arrays, skipping from_edges' checks."""
    degrees = np.asarray(degrees, dtype=np.int64)
    off = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    nbrs = np.asarray(nbrs, dtype=np.int64)
    return Graph(n, m, degrees, off, nbrs, np.sort(nbrs))


class TestInvariantExceptions:
    def test_degree_sum_mismatch_raises(self):
        g = raw_graph(3, 2, [2, 2, 2], [1, 2, 0, 2, 0, 1])
        with pytest.raises(RuntimeError, match="degree sum"):
            g._check_invariants()

    def test_successor_bound_violation_raises(self):
        # Vertex 0 lists vertex 1 three times; all three come after it in the
        # (degree, id) order, over the isqrt(2m) = 2 bound.
        g = raw_graph(2, 3, [3, 3], [1, 1, 1, 0, 0, 0])
        with pytest.raises(RuntimeError, match="successor bound"):
            g._check_invariants()

    def test_checks_survive_python_O(self):
        code = textwrap.dedent(
            """
            import numpy as np
            from subtri import Graph
            assert False, "asserts must be stripped under -O"
            d = np.array([3, 3], dtype=np.int64)
            nbrs = np.array([1, 1, 1, 0, 0, 0], dtype=np.int64)
            g = Graph(2, 3, d, np.array([0, 3, 6], dtype=np.int64), nbrs, np.sort(nbrs))
            try:
                g._check_invariants()
            except RuntimeError as exc:
                print("raised:", exc)
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "raised: successor bound violated"


# (lines, line_no, message) for malformed edge lists. Inputs with two faults
# report the one on the earliest line, and a small header is reported only
# when no data line is at fault.
MALFORMED = [
    (["3 3"], 1, "self loop at vertex 3"),
    (["0 1", "1 2", "1 0"], 3, "duplicate edge (0, 1)"),
    (["0 1", "1 0", "x y"], 2, "duplicate edge (0, 1)"),
    (["n 2", "0 5", "3 3"], 3, "self loop at vertex 3"),
    (["-2 -2"], 1, "negative vertex id"),
    (["0 x"], 1, "non-integer vertex id in '0 x'"),
    (["0 1.5"], 1, "non-integer vertex id in '0 1.5'"),
    (["0 1 2"], 1, "expected 'u v', got '0 1 2'"),
    (["7"], 1, "expected 'u v', got '7'"),
    (["n 2", "0 5"], 1, "header n=2 smaller than max id 5"),
    (["# c", "", "n 2", "0 1", "1 5"], 3, "header n=2 smaller than max id 5"),
    (["n x"], 1, "bad vertex count 'x'"),
    (["n"], 1, "header must be 'n <count>'"),
    (["n 1 2"], 1, "header must be 'n <count>'"),
    (["n -1"], 1, "vertex count must be nonnegative"),
    (["0 1", "n 5"], 2, "non-integer vertex id in 'n 5'"),
    (["n 3", "n 4"], 2, "non-integer vertex id in 'n 4'"),
    (["x y", "0 0"], 1, "non-integer vertex id in 'x y'"),
    (["0 0", "x y"], 1, "self loop at vertex 0"),
    (["1 -1", "1 -1"], 1, "negative vertex id"),
    (["0 1", "2 2", "0 1"], 2, "self loop at vertex 2"),
    (["0 1", "-1 0", "0 1"], 2, "negative vertex id"),
    (["0 1", "2 3", "1 -4"], 3, "negative vertex id"),
    (["  0   1  ", "\t1 0\t"], 2, "duplicate edge (0, 1)"),
    (["0 1", "1 2", "2 0", "2 1", "5 5"], 4, "duplicate edge (1, 2)"),
    (["n 4", "# c", "2 3", "", "3 2"], 5, "duplicate edge (2, 3)"),
    (["n 3", "0 1", "1 2 3"], 3, "expected 'u v', got '1 2 3'"),
    (["n 1", "0 1", "x"], 3, "expected 'u v', got 'x'"),
]


class TestLoadEdgeList:
    @pytest.mark.parametrize("lines, line_no, message", MALFORMED)
    def test_first_error_and_its_line(self, lines, line_no, message):
        with pytest.raises(GraphFormatError) as exc:
            load_edge_list(lines)
        assert exc.value.line_no == line_no
        assert str(exc.value) == f"line {line_no}: {message}"

    @pytest.mark.parametrize(
        "lines, expected",
        [
            (["0 1", "0 -9223372036854775809"], "line 2: vertex id outside the int64 range in '0 -9223372036854775809'"),
            (["0 1", "0 9223372036854775808"], "line 2: vertex id outside the int64 range in '0 9223372036854775808'"),
            (["1 1", "0 99999999999999999999"], "line 1: self loop at vertex 1"),
        ],
    )
    def test_id_past_int64_is_a_format_error(self, lines, expected):
        with pytest.raises(GraphFormatError, match="^" + re.escape(expected) + "$"):
            load_edge_list(lines)

    def test_parses_plain_pairs(self):
        g = load_edge_list(["0 1", "1 2"])
        assert g.n == 3
        assert g.m == 2
        assert g.degree(1) == 2

    def test_header_declares_trailing_isolated_vertices(self):
        g = load_edge_list(["n 5", "0 1"])
        assert g.n == 5
        assert g.m == 1
        assert g.degree(4) == 0

    def test_comments_and_blanks_are_skipped(self):
        g = load_edge_list(["# a comment", "", "0 1", "  ", "# another", "1 2"])
        assert g.m == 2

    def test_self_loop_reports_line_one(self):
        with pytest.raises(GraphFormatError, match="line 1") as exc:
            load_edge_list(["3 3"])
        assert exc.value.line_no == 1

    def test_duplicate_edge_reports_its_line(self):
        with pytest.raises(GraphFormatError, match="line 3") as exc:
            load_edge_list(["0 1", "1 2", "1 0"])
        assert exc.value.line_no == 3

    def test_line_numbers_count_skipped_lines(self):
        lines = ["# header comment", "", "0 1", "bad line here"]
        with pytest.raises(GraphFormatError, match="line 4"):
            load_edge_list(lines)

    def test_non_integer_id_is_an_error(self):
        with pytest.raises(GraphFormatError, match="non-integer"):
            load_edge_list(["0 x"])

    def test_negative_id_is_an_error(self):
        with pytest.raises(GraphFormatError, match="negative"):
            load_edge_list(["0 -1"])

    def test_header_must_cover_max_id(self):
        with pytest.raises(GraphFormatError, match="smaller than max id"):
            load_edge_list(["n 2", "0 5"])

    def test_small_header_reports_the_header_line(self):
        with pytest.raises(GraphFormatError, match="line 3: header n=2") as exc:
            load_edge_list(["# c", "", "n 2", "0 1", "1 5"])
        assert exc.value.line_no == 3

    def test_bad_header_count(self):
        with pytest.raises(GraphFormatError, match="bad vertex count"):
            load_edge_list(["n x"])

    def test_header_after_data_is_just_a_bad_line(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            load_edge_list(["0 1", "n 5"])


class TestRoundTrip:
    def test_write_then_load_preserves_structure(self, tmp_path):
        g = gnp_graph(40, 0.15, seed=7)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        g2 = load_edge_list(path)
        assert g2.n == g.n
        assert g2.m == g.m
        assert np.array_equal(g2.degrees, g.degrees)
        assert set(g2.edges()) == set(g.edges())

    def test_header_preserves_trailing_isolated_vertex(self, tmp_path):
        g = Graph.from_edges(6, [(0, 1)])
        path = tmp_path / "iso.edges"
        write_edge_list(g, path)
        assert load_edge_list(path).n == 6

    def test_gnp_edge_builder_is_deterministic(self):
        a = gnp_edges(30, 0.2, seed=4)
        b = gnp_edges(30, 0.2, seed=4)
        assert np.array_equal(a, b)
