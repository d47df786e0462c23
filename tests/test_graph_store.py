"""Tests for adjacency storage, the vertex order, and the edge-list format."""

import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtri import graph_store
from subtri.estimator import estimate
from subtri.graph_store import Graph, GraphFormatError, load_edge_list, write_edge_list
from subtri.lb_gen import gen_g2_matching
from subtri.query_oracle import QueryOracle
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

    def test_neighbor_order_is_ascending_id(self):
        g = Graph.from_edges(4, [(2, 1), (0, 2), (2, 3)])
        assert list(g.neighbors(2)) == [0, 1, 3]

    def test_edge_order_does_not_matter(self):
        # Pairs permuted and ends flipped give the same arrays, and so the
        # same estimate for a fixed seed.
        g = gen_g2_matching(256, 64, seed=3).graph
        edges = np.array(list(g.edges()))
        rng = np.random.default_rng(5)
        edges = edges[rng.permutation(len(edges))]
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip, ::-1]
        h = Graph.from_edges(g.n, edges)
        for name in ("degrees", "offsets", "targets"):
            assert getattr(h, name).tolist() == getattr(g, name).tolist()
        g_report, h_report = (estimate(QueryOracle(x, seed=0), seed=0).to_json_dict(timing=False) for x in (g, h))
        assert h_report == g_report

    def test_rejects_negative_vertex_count(self):
        # The loader's message, not numpy's from the degree count.
        for edges in ([], [(0, 1)]):
            with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
                Graph.from_edges(-1, edges)

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
        for cast in (int, np.int64, np.int32):
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

    @pytest.mark.parametrize("n, p, seed", [(0, 0.0, 0), (1, 0.0, 0), (7, 0.0, 0), (40, 0.2, 1), (120, 0.05, 2)])
    def test_edges_match_the_per_vertex_loop(self, n, p, seed):
        g = gnp_graph(n, p, seed=seed)
        loop = [(v, int(w)) for v in range(g.n) for w in g.neighbors(v) if v < w]
        listed = list(g.edges())
        assert listed == loop
        assert all(type(u) is int and type(v) is int for u, v in listed)


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
    keys = np.repeat(np.arange(n, dtype=np.int64), degrees) * n + nbrs
    return Graph(n, m, degrees, off, nbrs, keys)


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
            keys = np.array([1, 1, 1, 2, 2, 2], dtype=np.int64)
            g = Graph(2, 3, d, np.array([0, 3, 6], dtype=np.int64), nbrs, keys)
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


def full_count_violates(g: Graph) -> bool:
    """The successor check over every slot, as it was before it read only
    the rows longer than the bound: each vertex's neighbors after it in the
    (degree, id) order, counted, against isqrt(2m)."""
    n = g.n
    key = g.degrees * n + np.arange(n, dtype=np.int64)
    src = g._keys // n
    return int(np.bincount(src[key[g.targets] > key[src]], minlength=n).max()) > math.isqrt(2 * g.m)


def raises_successor_bound(g: Graph) -> bool:
    try:
        g._check_invariants()
    except RuntimeError as exc:
        assert str(exc) == "successor bound violated"
        return True
    return False


@st.composite
def raw_csr(draw):
    """raw_graph arguments: rows of any targets in [0, n), repeats and self
    loops allowed, over an even slot count, so the degree sum is 2m."""
    n = draw(st.integers(1, 6))
    rows = [draw(st.lists(st.integers(0, n - 1), max_size=10)) for _ in range(n)]
    if sum(map(len, rows)) % 2:
        rows[draw(st.integers(0, n - 1))].append(draw(st.integers(0, n - 1)))
    slots = sum(map(len, rows))
    return n, slots // 2, [len(r) for r in rows], [w for r in rows for w in r]


class TestSuccessorCheckMatchesFullCount:
    @settings(max_examples=500, deadline=None)
    @given(case=raw_csr())
    def test_raises_exactly_when_the_full_count_does(self, case):
        g = raw_graph(*case)
        assert raises_successor_bound(g) == (g.m > 0 and full_count_violates(g))

    # Vertex 0 lists vertex 1 `succ` times and vertex 2 `degree - succ`
    # times; vertex 1 lists vertex 2 16 - degree times, so 2m = 16 and the
    # bound is 4. Vertex 1 (degree 16 - degree >= degree) comes after 0, and
    # vertex 2 (degree 0) before, so 0 has exactly `succ` successors.
    @pytest.mark.parametrize(
        "degree, succ, violates",
        [(4, 4, False), (4, 0, False), (5, 4, False), (5, 5, True), (8, 5, True), (8, 4, False)],
    )
    def test_rows_at_and_past_the_bound(self, degree, succ, violates):
        g = raw_graph(3, 8, [degree, 16 - degree, 0], [1] * succ + [2] * (16 - succ))
        assert math.isqrt(2 * g.m) == 4
        assert full_count_violates(g) == violates
        assert raises_successor_bound(g) == violates


OVER_ROW_KEYS = "is over 3037000499, the most int64 row keys allow"

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
    (["0 1", "2 \udcff"], 2, "non-integer vertex id in '2 \\udcff'"),
    # n past MAX_VERTICES is blamed on the line that set it, the header or
    # the largest id, unless some pair is at fault.
    (["n 9223372036854775807", "0 1"], 1, f"vertex count 9223372036854775807 {OVER_ROW_KEYS}"),
    (["0 9223372036854775807"], 1, f"vertex count 9223372036854775808 {OVER_ROW_KEYS}"),
    (["0 100000000000000000"], 1, f"vertex count 100000000000000001 {OVER_ROW_KEYS}"),
    (["0 1", "2 100000000000000000", "1 2"], 2, f"vertex count 100000000000000001 {OVER_ROW_KEYS}"),
    (["n 9223372036854775807", "0 1", "1 0"], 3, "duplicate edge (0, 1)"),
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


def reference_load(source):
    """The per-line loader that load_edge_list's chunked tokenizer replaced:
    text-mode lines, str.split and int, one line at a time."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return _reference_parse(fh)
    return _reference_parse(source)


def _reference_parse(lines):
    pairs = array("q")
    line_nos = array("q")
    declared_n = None
    error = None
    try:
        for line_no, raw in enumerate(lines, start=1):
            parts = raw.split()
            if not parts or parts[0][0] == "#":
                continue
            if parts[0] == "n" and declared_n is None and not line_nos:
                if len(parts) != 2:
                    raise GraphFormatError(line_no, "header must be 'n <count>'")
                try:
                    declared_n = int(parts[1])
                except ValueError:
                    raise GraphFormatError(line_no, f"bad vertex count {parts[1]!r}")
                if declared_n < 0:
                    raise GraphFormatError(line_no, "vertex count must be nonnegative")
                header_line = line_no
                continue
            if len(parts) != 2:
                raise GraphFormatError(line_no, f"expected 'u v', got {raw.strip()!r}")
            try:
                pairs.extend((int(parts[0]), int(parts[1])))
            except ValueError:
                raise GraphFormatError(line_no, f"non-integer vertex id in {raw.strip()!r}")
            except OverflowError:
                raise GraphFormatError(line_no, f"vertex id outside the int64 range in {raw.strip()!r}")
            line_nos.append(line_no)
    except GraphFormatError as exc:
        error = exc
    flat = np.frombuffer(pairs, dtype=np.int64, count=2 * len(line_nos))
    n = max(int(flat.max(initial=-1)) + 1, declared_n or 0)
    if n > graph_store.MAX_VERTICES:
        # No pair is at fault, so the line that set n is: the header's n
        # (2**63 is a bad token), or else the first pair with the largest id.
        line = header_line if declared_n == n else line_nos[int(np.argmax(flat)) // 2]
        raise GraphFormatError(
            line, f"vertex count {n} is over {graph_store.MAX_VERTICES}, the most int64 row keys allow"
        )
    try:
        graph = Graph.from_edges(n, flat.reshape(-1, 2))
    except ValueError:
        k, reason = graph_store._first_bad_edge(n, flat)
        raise GraphFormatError(line_nos[k], reason) from None
    if error is not None:
        raise error
    if declared_n is not None and declared_n < n:
        raise GraphFormatError(header_line, f"header n={declared_n} smaller than max id {n - 1}")
    return graph


def reference_csr(n, edges):
    """The CSR arrays from per-vertex Python lists: each row sorted(), the
    offsets their running lengths, and the keys source * n + target."""
    edges = [(int(u), int(v)) for u, v in edges]
    bad_ends = any(not (0 <= u < n and 0 <= v < n) or u == v for u, v in edges)
    if bad_ends or len({frozenset(e) for e in edges}) < len(edges):
        k, reason = graph_store._first_bad_edge(n, np.asarray(edges, dtype=np.int64).ravel())
        raise ValueError(f"edge {k}: {reason}")
    rows = {}
    for u, v in edges:
        rows.setdefault(u, []).append(v)
        rows.setdefault(v, []).append(u)
    degrees = [len(rows.get(v, ())) for v in range(n)]
    slots = [(v, w) for v in sorted(rows) for w in sorted(rows[v])]
    targets = [w for _, w in slots]
    keys = [v * n + w for v, w in slots]
    return n, len(edges), degrees, [0, *itertools.accumulate(degrees)], targets, keys


def csr_of(graph):
    return graph.n, graph.m, graph.degrees, graph.offsets, graph.targets, graph._keys


def outcome(build, *args):
    """What a build gives: its CSR arrays as lists, or its error's type,
    text and line number."""
    try:
        result = build(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line_no", None)
    if isinstance(result, Graph):
        result = csr_of(result)
    return tuple(x.tolist() if isinstance(x, np.ndarray) else x for x in result)


# Whitespace that str.split splits on: ASCII (vectorized path), and \x1c and
# Unicode spaces (per-line rule). A \r or \n inside a file line breaks it.
SEPARATORS = [" ", " ", "  ", "\t", "\x0b", "\x0c", "\r", "\n", "\x1c", "\xa0", "\u3000"]


def spell(v: int, style: str) -> str:
    """An id as int() reads it: plain, zero-padded to 18 (still vectorized)
    or 19-20 digits, signed, with an underscore, or in non-ASCII digits."""
    digits = str(v)
    if style.isdigit():
        return digits.zfill(int(style))
    if style == "+":
        return "+" + digits
    if style == "_":
        return digits[0] + "_" + digits[1:] if len(digits) > 1 else "0_" + digits
    if style == "arabic-indic":
        return "".join(chr(0x660 + int(d)) for d in digits)
    if style == "fullwidth":
        return "".join(chr(0xFF10 + int(d)) for d in digits)
    return digits


STYLES = ["plain", "plain", "plain", "3", "18", "19", "20", "+", "_", "arabic-indic", "fullwidth"]

# Tokens that make a line malformed, or its pair invalid.
BAD_TOKENS = [
    "x", "1.5", "-1", "-0000000000000000001", "#7", "n", "\u00e9", "\udcff", "0x1",
    str(2**63), str(-(2**63) - 1), "99999999999999999999",
]


@st.composite
def edge_list_lines(draw):
    """Lines of an edge list: a simple graph's edges, in varied spellings and
    whitespace, among comments, blanks and headers, and sometimes a bad line.
    Valid ids stay below 40, so no input asks for a huge vertex array."""
    n = draw(st.integers(1, 40))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30)) if pairs else []
    lines = []
    for u, v in edges:
        toks = [spell(u, draw(st.sampled_from(STYLES))), spell(v, draw(st.sampled_from(STYLES)))]
        lines.append(toks[::-1] if draw(st.booleans()) else toks)
    for _ in range(draw(st.integers(0, 4))):
        extra = draw(st.sampled_from(["header", "comment", "blank", "bad", "edge-again"]))
        if extra == "header":
            toks = ["n", str(draw(st.integers(-1, 45)))]
        elif extra == "comment":
            toks = ["#" + draw(st.sampled_from(["", "c", "\u00e9", "#", "n"])), "1"]
        elif extra == "blank":
            toks = []
        elif extra == "bad" or not lines:
            toks = draw(st.lists(st.one_of(st.sampled_from(BAD_TOKENS), st.integers(0, 40).map(str)), max_size=3))
        else:
            toks = draw(st.sampled_from(lines))[::-1]
        lines.insert(draw(st.integers(0, len(lines))), toks)
    out = []
    for toks in lines:
        line = draw(st.sampled_from(["", "", "", " ", "\t", "\x1c"]))
        for i, tok in enumerate(toks):
            line += (draw(st.sampled_from(SEPARATORS)) if i else "") + tok
        out.append(line + draw(st.sampled_from(["", "", " ", "\r", "\xa0"])))
    return out


class TestLoaderMatchesLineLoop:
    @settings(max_examples=400, deadline=None)
    @given(lines=edge_list_lines(), chunk=st.integers(1, 64), ending=st.sampled_from(["\n", "\r\n", "\r"]))
    def test_same_graph_or_same_error(self, lines, chunk, ending):
        # Chunks of 1-64 bytes: nearly every input spans several.
        with mock.patch.object(graph_store, "_CHUNK_BYTES", chunk):
            assert outcome(load_edge_list, lines) == outcome(reference_load, lines)
            text = ending.join(lines)
            if "\udcff" in text:
                return  # not UTF-8; see test_invalid_utf8_fails_as_text_mode
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "g.edges"
                path.write_bytes(text.encode("utf-8"))
                assert outcome(load_edge_list, path) == outcome(reference_load, path)

    @pytest.mark.parametrize(
        "data",
        [b"0 1\n\xff 2\n", b"0 1\nx\n1 2\n# \xc3(\n", b"0 0\n\xed\xb3\xbf 1\n", b"0 1\n1 2 \xe2\x82"],
    )
    def test_invalid_utf8_fails_as_text_mode(self, tmp_path, data):
        # A file smaller than one chunk is decoded whole before any line is
        # read, as text mode decodes its first 8 KiB block.
        path = tmp_path / "bad.edges"
        path.write_bytes(data)
        assert outcome(load_edge_list, path) == outcome(reference_load, path)
        assert outcome(load_edge_list, path)[0] == "UnicodeDecodeError"


def digit_tokens() -> list[str]:
    """ASCII-digit ids of every width from 1 to 18, plain and zero-padded
    (one more digit, and to 18), among them 2**32 +- 1, 2**53 + 1 and 10**18 - 1."""
    values = [0, 2**32 - 1, 2**32 + 1, 2**53 + 1, 10**18 - 1]
    for width in range(1, 19):
        values += [10 ** (width - 1), int("918273645546372819"[:width]), 10**width - 1]
    tokens = []
    for digits in map(str, values):
        tokens += [digits, digits.zfill(18)] + ([digits.zfill(len(digits) + 1)] if len(digits) < 18 else [])
    return tokens


def tokenized(source) -> list[int]:
    """The ids _tokenize reads from a file or a list of lines, in order."""
    if isinstance(source, Path):
        with open(source, "rb") as fh:
            flat, _, _, _, error = graph_store._tokenize(graph_store._file_chunks(fh))
    else:
        flat, _, _, _, error = graph_store._tokenize(graph_store._line_chunks(source))
    assert error is None
    return flat.tolist()


class TestDigitRuns:
    @pytest.mark.parametrize("chunk", range(1, 65))
    def test_each_width_reads_as_int(self, tmp_path, chunk):
        # Each token starts one line and ends the next. Chunks hold whole
        # lines, so a line's first token is at a chunk's first byte when a cut
        # precedes the line: the file's first line, and every line at chunks
        # no longer than a line.
        toks = digit_tokens()
        lines = [f"{a} {b}" for a, b in zip(toks, toks[-1:] + toks[:-1])]
        path = tmp_path / "ids.edges"
        path.write_text("\n".join(lines))
        expected = [int(tok) for line in lines for tok in line.split()]
        with mock.patch.object(graph_store, "_CHUNK_BYTES", chunk):
            assert tokenized(path) == expected
            assert tokenized(lines) == expected

    @pytest.mark.parametrize(
        "tok", ["1000000000000000000", "0000000000000000001", str(2**63 - 1), str(2**63), "9" * 19]
    )
    def test_nineteen_digits_take_the_per_line_path(self, tok):
        text = f"{tok} 2\n".encode()
        arr, bounds = np.frombuffer(text, dtype=np.uint8), np.array([0, len(text)])
        assert graph_store._tokenize_regular(arr, bounds)[2].tolist() == [0]
        lines = [f"{tok} 2"]
        assert outcome(load_edge_list, lines) == outcome(reference_load, lines)
        if int(tok) < 2**63:
            assert tokenized(lines) == [int(tok), 2]


@st.composite
def csr_cases(draw):
    """(n, edges) with mostly valid ids, n past 65536 for keys past 2**32."""
    n = draw(st.one_of(st.integers(0, 9), st.integers(65537, 300000)))
    ids = st.one_of(st.integers(0, max(n - 1, 0)), st.integers(max(n - 3, 0), max(n - 1, 0)), st.integers(-2, n + 2))
    edges = draw(st.lists(st.tuples(ids, ids), max_size=40))
    return n, edges


class TestCsrMatchesSortReference:
    @settings(max_examples=300, deadline=None)
    @given(case=csr_cases())
    def test_same_arrays_or_same_error(self, case):
        n, edges = case
        assert outcome(Graph.from_edges, n, edges) == outcome(reference_csr, n, edges)
