"""Property tests: oracle metering, batched neighbor and pair queries,
degree-weighted draws, graph storage, and the exact counters against networkx."""

from bisect import bisect_right
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subtri import (
    BudgetExhausted,
    DegreeWeightedSampler,
    Graph,
    QueryOracle,
    count_brute,
    count_ordered,
    exact,
)


@st.composite
def edge_lists(draw, min_n=2, max_n=12):
    """(n, edges): a simple graph's edges in random order and orientation."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]


def graphs(min_n=2, max_n=12):
    return edge_lists(min_n, max_n).map(lambda case: Graph.from_edges(*case))


@st.composite
def padded_graphs(draw):
    """Graphs with 0-3 isolated vertices after the last id an edge uses."""
    n, edges = draw(edge_lists(min_n=0, max_n=14))
    return Graph.from_edges(n + draw(st.integers(0, 3)), edges)


@st.composite
def graph_and_queries(draw):
    g = draw(graphs())
    vertex = st.integers(0, g.n - 1)
    distinct_pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    query = st.one_of(
        st.tuples(st.just("degree"), vertex),
        st.tuples(st.just("neighbor"), vertex, st.integers(1, g.n)),
        st.tuples(st.just("pair"), distinct_pair),
    )
    return g, draw(st.lists(query, max_size=60))


def ask(oracle: QueryOracle, q):
    kind = q[0]
    if kind == "degree":
        return oracle.q_degree(q[1])
    if kind == "neighbor":
        return oracle.q_neighbor(q[1], q[2])
    return oracle.q_pair(*q[1])


class Revealed:
    """What a caller has learned; a query outside it is a new distinct query."""

    def __init__(self):
        self.slots: set[tuple[int, int]] = set()
        self.pairs: set[frozenset] = set()

    def is_new_charged(self, q) -> bool:
        if q[0] == "neighbor":
            return (q[1], q[2]) not in self.slots
        if q[0] == "pair":
            return frozenset(q[1]) not in self.pairs
        return False

    def learn(self, q, answer) -> None:
        if q[0] == "neighbor":
            self.slots.add((q[1], q[2]))
            if answer is not None:
                self.pairs.add(frozenset((q[1], answer)))
        elif q[0] == "pair":
            self.pairs.add(frozenset(q[1]))


def charged_ok(oracle: QueryOracle) -> bool:
    stats = oracle.stats
    within = oracle.budget_cap is None or oracle.budget_charged <= oracle.budget_cap
    return oracle.budget_charged == stats.neighbor + stats.pair and within


class TestOracleMetering:
    @given(graph_and_queries())
    @settings(max_examples=150, deadline=None)
    def test_repeated_queries_are_free(self, case):
        g, queries = case
        oracle = QueryOracle(g, seed=0)
        first = [ask(oracle, q) for q in queries]
        stats, charged = oracle.stats, oracle.budget_charged
        # A cap at the current charge forbids any new charged query.
        oracle.set_budget(charged)
        assert [ask(oracle, q) for q in queries] == first
        assert oracle.stats == stats
        assert oracle.budget_charged == charged

    @given(graph_and_queries(), st.integers(0, 40))
    @settings(max_examples=150, deadline=None)
    def test_charged_equals_neighbor_plus_pair_within_cap(self, case, cap):
        g, queries = case
        oracle = QueryOracle(g, seed=0, budget=cap)
        assert charged_ok(oracle)
        for q in queries:
            try:
                ask(oracle, q)
            except BudgetExhausted:
                pass
            assert charged_ok(oracle)

    @given(graph_and_queries(), st.integers(0, 40))
    @settings(max_examples=150, deadline=None)
    def test_exhaustion_only_on_a_new_distinct_query(self, case, cap):
        g, queries = case
        oracle = QueryOracle(g, seed=0, budget=cap)
        seen = Revealed()
        for q in queries:
            new = seen.is_new_charged(q)
            before = oracle.stats
            try:
                answer = ask(oracle, q)
            except BudgetExhausted:
                assert new
                assert oracle.budget_charged == cap
                assert oracle.stats == before
                continue
            seen.learn(q, answer)
            assert oracle.budget_charged == len(seen.slots) + oracle.stats.pair

    @given(graphs(), st.lists(st.one_of(st.integers(0, 11), st.lists(st.integers(0, 11), max_size=8))))
    @settings(max_examples=150, deadline=None)
    def test_degree_count_is_distinct_vertices(self, g, calls):
        # Single and batched degree queries, mixed, with repeats and
        # duplicates inside a batch.
        oracle = QueryOracle(g, seed=0)
        asked = set()
        for call in calls:
            if isinstance(call, int):
                v = call % g.n
                assert oracle.q_degree(v) == g.degree(v)
                asked.add(v)
            else:
                vs = [v % g.n for v in call]
                degs = oracle.q_degree_batch(np.array(vs, dtype=np.int64))
                assert list(degs) == [g.degree(v) for v in vs]
                asked.update(vs)
            assert oracle.stats.degree == len(asked)


@st.composite
def weighted_multisets(draw):
    """(graph, multiset): a graph with 1-3 isolated tail vertices and a vertex
    multiset with repeats that holds at least one of them."""
    n, edges = draw(edge_lists(min_n=2, max_n=10))
    assume(edges)
    g = Graph.from_edges(n + draw(st.integers(1, 3)), edges)
    members = draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=24))
    members.insert(draw(st.integers(0, len(members))), draw(st.integers(n, g.n - 1)))
    members.insert(draw(st.integers(0, len(members))), edges[0][0])
    return g, members


class TestDegreeWeightedDraws:
    @given(weighted_multisets(), st.integers(0, 2**32), st.integers(0, 64))
    @settings(max_examples=200, deadline=None)
    def test_draws_match_searchsorted_reference(self, case, seed, k):
        # The reference draw, one position at a time: a uniform position
        # below the total degree from an identically seeded Generator, then
        # the first prefix sum above it.
        g, members = case
        sampler = DegreeWeightedSampler(QueryOracle(g, seed=0), np.array(members))
        cum = np.cumsum([g.degree(v) for v in members]).tolist()
        positions = np.random.default_rng(seed).integers(0, cum[-1], k).tolist()
        want = [members[bisect_right(cum, pos)] for pos in positions]
        vs, degs = sampler.draw(np.random.default_rng(seed), k)
        assert vs.tolist() == want
        assert degs.tolist() == [g.degree(v) for v in want]
        assert all(d > 0 for d in degs.tolist())


@st.composite
def batch_cases(draw):
    """(graph, scalar queries asked first, (v, i) pairs for one batch, cap).

    The batch pairs come from a few slots, so they repeat, and each index
    lies in 1..d(v). The cap is None or any value from 0 up, below or above
    what the first queries charge.
    """
    g, queries = draw(graph_and_queries())
    assume(g.m)
    slots = [(v, i) for v in range(g.n) for i in range(1, g.degree(v) + 1)]
    pool = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=6))
    pairs = draw(st.lists(st.sampled_from(pool), max_size=30))
    cap = draw(st.one_of(st.none(), st.integers(0, 40)))
    return g, queries, pairs, cap


def observed_memo(oracle: QueryOracle) -> list:
    """Every neighbor and pair answer the oracle gives without a new charge,
    with None where the question would need one."""
    oracle.set_budget(oracle.budget_charged)
    out = []
    g = oracle.graph
    questions = [("neighbor", v, i) for v in range(g.n) for i in range(1, g.degree(v) + 1)]
    questions += [("pair", (u, v)) for u in range(g.n) for v in range(u + 1, g.n)]
    for q in questions:
        try:
            out.append(ask(oracle, q))
        except BudgetExhausted:
            out.append(None)
    return out


class TestNeighborBatch:
    @given(batch_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_loop(self, case):
        # The reference is q_neighbor called on each pair in array order.
        g, queries, pairs, cap = case
        ours, ref = QueryOracle(g, seed=0), QueryOracle(g, seed=0)
        for oracle in (ours, ref):
            for q in queries:
                ask(oracle, q)
            oracle.set_budget(cap)
        want, ref_tripped = [], False
        for v, i in pairs:
            try:
                want.append(ref.q_neighbor(v, i))
            except BudgetExhausted:
                ref_tripped = True
                break
        vs = np.array([v for v, _ in pairs], dtype=np.int64)
        idxs = np.array([i for _, i in pairs], dtype=np.int64)
        try:
            got = ours.q_neighbor_batch(vs, idxs).tolist()
        except BudgetExhausted:
            assert ref_tripped
        else:
            assert not ref_tripped
            assert got == want
        assert ours.stats == ref.stats
        assert ours.budget_charged == ref.budget_charged
        assert observed_memo(ours) == observed_memo(ref)


@st.composite
def pair_batch_cases(draw):
    """(graph, scalar queries asked first, (u, w) pairs for one batch, cap).

    The batch holds a few distinct pairs, most of them repeated, in any
    order, and the first queries' neighbor answers reveal some of them. One case in eight
    carries a bad pair (equal ends or an end out of range). The cap is None,
    any value from 0 up, below or above what the first queries charge, or
    ("room", k): k more than they charge, so that the batch often trips
    part way.
    """
    g, queries = draw(graph_and_queries())
    vertex = st.integers(0, g.n - 1)
    distinct_pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    pool = draw(st.lists(distinct_pair, min_size=1, max_size=8, unique=True))
    repeats = draw(st.lists(st.sampled_from(pool), max_size=20))
    pairs = draw(st.permutations(pool + repeats))
    if draw(st.integers(0, 7)) == 7:
        bad = draw(st.sampled_from([(0, 0), (g.n - 1, g.n - 1), (-1, 0), (0, g.n), (g.n + 3, 1)]))
        pairs.insert(draw(st.integers(0, len(pairs))), bad)
    room = st.integers(1, 8).map(lambda k: ("room", k))
    cap = draw(st.one_of(room, st.integers(0, 40), st.none()))
    return g, queries, pairs, cap


def first_bad_query_error(n: int, pairs):
    """The error the scalar q_pair loop meets first, or None."""
    for u, w in pairs:
        if u == w:
            return ValueError
        if not (0 <= u < n and 0 <= w < n):
            return IndexError
    return None


class TestPairBatch:
    @given(pair_batch_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_loop(self, case):
        # The reference is q_pair called on each pair in array order.
        g, queries, pairs, cap = case
        ours, ref = QueryOracle(g, seed=0), QueryOracle(g, seed=0)
        for oracle in (ours, ref):
            for q in queries:
                ask(oracle, q)
            oracle.set_budget(oracle.budget_charged + cap[1] if isinstance(cap, tuple) else cap)
        us = np.array([u for u, _ in pairs], dtype=np.int64)
        ws = np.array([w for _, w in pairs], dtype=np.int64)
        error = first_bad_query_error(g.n, pairs)
        if error is not None:
            # Bad input raises before anything is charged, where the scalar
            # loop would have charged the pairs ahead of the bad one.
            with pytest.raises(error):
                ours.q_pair_batch(us, ws)
        else:
            want, ref_tripped = [], False
            for u, w in pairs:
                try:
                    want.append(ref.q_pair(u, w))
                except BudgetExhausted:
                    ref_tripped = True
                    break
            try:
                got = ours.q_pair_batch(us, ws).tolist()
            except BudgetExhausted:
                assert ref_tripped
            else:
                assert not ref_tripped
                assert got == want
        assert ours.stats == ref.stats
        assert ours.budget_charged == ref.budget_charged
        assert observed_memo(ours) == observed_memo(ref)


class TestGraphStorage:
    @given(edge_lists(min_n=0, max_n=16))
    @settings(max_examples=150, deadline=None)
    def test_neighbor_order_matches_per_edge_fill(self, case):
        n, edges = case
        expected = [[] for _ in range(n)]
        for u, v in edges:
            expected[u].append(v)
            expected[v].append(u)
        g = Graph.from_edges(n, edges)
        assert [list(g.neighbors(v)) for v in range(n)] == expected

    @given(edge_lists(min_n=1, max_n=16))
    @settings(max_examples=150, deadline=None)
    def test_has_edge_agrees_with_edge_set(self, case):
        n, edges = case
        present = {frozenset(e) for e in edges}
        g = Graph.from_edges(n, edges)
        for u in range(n):
            for v in range(n):
                assert g.has_edge(u, v) == (frozenset((u, v)) in present)

    @given(edge_lists(min_n=1, max_n=16), st.data())
    @settings(max_examples=150, deadline=None)
    def test_has_edges_agrees_with_has_edge(self, case, data):
        g = Graph.from_edges(*case)
        vertex = st.integers(0, g.n - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=40))
        us = np.array([u for u, _ in pairs], dtype=np.int64)
        vs = np.array([v for _, v in pairs], dtype=np.int64)
        assert g.has_edges(us, vs).tolist() == [g.has_edge(u, v) for u, v in pairs]


def first_bad_pair(n: int, edges) -> tuple[int, str] | None:
    """The first pair with a negative id, an id of n or more, equal ends, or
    the ends of an earlier pair, as (index, reason), tried in that order."""
    seen = set()
    for k, (u, v) in enumerate(edges):
        key = frozenset((u, v))
        if u < 0 or v < 0:
            return k, "negative vertex id"
        if u >= n or v >= n:
            return k, "vertex id out of range"
        if u == v:
            return k, "self loop"
        if key in seen:
            return k, "duplicate edge"
        seen.add(key)
    return None


@st.composite
def edge_lists_with_faults(draw):
    """(n, edges): a simple graph's edges with 0-3 arbitrary pairs inserted.

    The inserted pairs take ids in [-2, n + 1], so each may be in range or
    not, a loop, a repeat in either orientation, or a valid new edge.
    """
    n, edges = draw(edge_lists(min_n=0, max_n=8))
    ids = st.integers(-2, n + 1)
    for pair in draw(st.lists(st.tuples(ids, ids), max_size=3)):
        edges.insert(draw(st.integers(0, len(edges))), pair)
    return n, edges


class TestEdgeChecks:
    @given(edge_lists_with_faults())
    @settings(max_examples=400, deadline=None)
    def test_rejects_exactly_the_first_bad_pair(self, case):
        n, edges = case
        bad = first_bad_pair(n, edges)
        if bad is None:
            assert Graph.from_edges(n, edges).m == len(edges)
            return
        k, reason = bad
        with pytest.raises(ValueError, match=rf"^edge {k}: {reason}"):
            Graph.from_edges(n, edges)


def nx_graph(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestCountersAgainstNetworkx:
    @pytest.mark.parametrize("count", [count_ordered, count_brute])
    @given(g=graphs(min_n=0, max_n=16))
    @settings(max_examples=120, deadline=None)
    def test_t_and_t_v_match(self, count, g):
        per_vertex = nx.triangles(nx_graph(g))
        stats = count(g)
        assert [int(c) for c in stats.t_v] == [per_vertex[v] for v in range(g.n)]
        assert stats.t == sum(per_vertex.values()) // 3


class TestOrderedKernel:
    # Chunk sizes of 1 and 3 split one vertex's wedges over several passes
    # and put chunk boundaries inside and between forward positions.
    @pytest.mark.parametrize("chunk", [exact._WEDGE_CHUNK, 3, 1])
    @given(g=padded_graphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_per_slot(self, chunk, g):
        with mock.patch.object(exact, "_WEDGE_CHUNK", chunk):
            ordered = count_ordered(g)
        brute = count_brute(g)
        assert ordered.t == brute.t
        assert np.array_equal(ordered.t_v, brute.t_v)
        assert np.array_equal(ordered.t_e_slots, brute.t_e_slots)
        assert ordered.t_e == brute.t_e
