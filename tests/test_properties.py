"""Property tests: oracle metering, batched neighbor and pair queries against
a dict-memo reference, degree-weighted draws, the array ceil-div against
its scalar, graph storage and its slot lookups, the exact counters against
networkx, the ordered counter against brute force and the forward-wedge
kernel it replaced, and estimate's descent against one that makes every run
at every level."""

import math
import threading
import tracemalloc
from bisect import bisect_right
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from subtri import estimator, exact
from subtri.estimator import (
    RUNS_PER_LEVEL,
    DegreeWeightedSampler,
    EstimatorParams,
    estimate,
    estimate_with_advice,
    feige_avg_degree,
)
from subtri.exact import count_brute, count_ordered
from subtri.graph_store import MAX_VERTICES, Graph
from subtri.heavy import ceil_div_by_sqrt, ceil_div_by_sqrt_array
from subtri.lb_gen import gen_clique_family, gen_g2_matching
from subtri.query_oracle import BudgetExhausted, QueryOracle, QueryStats
from util import chung_lu, gnp_graph


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


class Asked:
    """The charged questions a caller has asked; a query outside them is a
    new distinct query. A neighbor answer does not make its pair asked."""

    def __init__(self):
        self.slots: set[tuple[int, int]] = set()
        self.pairs: set[frozenset] = set()

    def is_new_charged(self, q) -> bool:
        if q[0] == "neighbor":
            return (q[1], q[2]) not in self.slots
        if q[0] == "pair":
            return frozenset(q[1]) not in self.pairs
        return False

    def learn(self, q) -> None:
        if q[0] == "neighbor":
            self.slots.add((q[1], q[2]))
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
        seen = Asked()
        for q in queries:
            new = seen.is_new_charged(q)
            before = oracle.stats
            try:
                ask(oracle, q)
            except BudgetExhausted:
                assert new
                assert oracle.budget_charged == cap
                assert oracle.stats == before
                continue
            seen.learn(q)
            assert oracle.budget_charged == len(seen.slots) + len(seen.pairs)

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

    @given(graph_and_queries(), st.integers(0, 60), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_degree_all_charges_as_a_batch_of_every_vertex(self, case, at, reads):
        # The V read, put anywhere among the queries and asked once or more,
        # leaves the answers, stats and charge of q_degree_batch(arange(n))
        # in its place.
        g, queries = case
        got, want = QueryOracle(g, seed=0), QueryOracle(g, seed=0)
        for k, q in enumerate(queries + [None]):
            if k == at:
                for _ in range(reads):
                    degrees = got.q_degree_all()
                    assert degrees.tolist() == want.q_degree_batch(np.arange(g.n)).tolist()
                    assert got.stats == want.stats
            if q is not None:
                assert ask(got, q) == ask(want, q)
            assert got.stats == want.stats
            assert got.budget_charged == want.budget_charged


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

    @given(
        st.lists(st.one_of(st.just(0), st.integers(1, 10**9)), min_size=2, max_size=40),
        st.integers(0, 2**32),
        st.integers(0, 64),
    )
    @settings(max_examples=200, deadline=None)
    def test_non_isolated_members_draw_as_all_of_v(self, degrees, seed, k):
        # A zero-degree member never moves a draw, so the sampler over the
        # members of degree > 0 and one over arange(n) return the same
        # draws from equal Generators, for degrees no graph need have.
        assume(0 in degrees and any(degrees))
        oracle = _DegreeVector(degrees)
        over_n = DegreeWeightedSampler(oracle, np.arange(len(degrees)))
        sampler = DegreeWeightedSampler(oracle, np.flatnonzero(degrees))
        assert sampler.total_degree == over_n.total_degree == sum(degrees)
        got = sampler.draw(np.random.default_rng(seed), k)
        want = over_n.draw(np.random.default_rng(seed), k)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]

    @given(padded_graphs(), st.integers(0, 2**32), st.integers(0, 64))
    @settings(max_examples=200, deadline=None)
    def test_sampler_over_v_draws_as_a_sampler_over_all_ids(self, g, seed, k):
        # The sampler over V draws a uniform slot's row vertex; the padded
        # isolated ids own no slot, so it draws what the prefix-sum search
        # over arange(n) draws from an equal Generator.
        assume(g.m > 0)
        over_v = DegreeWeightedSampler(QueryOracle(g, seed=0))
        over_n = DegreeWeightedSampler(QueryOracle(g, seed=0), np.arange(g.n))
        assert over_v.total_degree == over_n.total_degree == 2 * g.m
        got = over_v.draw(np.random.default_rng(seed), k)
        want = over_n.draw(np.random.default_rng(seed), k)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        assert got[1].tolist() == [g.degree(v) for v in got[0].tolist()]

    def test_sampler_over_v_allocates_no_array(self):
        # Building the sampler over V reads the graph's own degree array and
        # its edge count: no n- or m-sized array, whatever the graph's size.
        n = 10**5
        g = Graph.from_edges(n, np.arange(n).reshape(-1, 2))
        oracle = QueryOracle(g, seed=0)
        tracemalloc.start()
        try:
            sampler = DegreeWeightedSampler(oracle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sampler.total_degree == 2 * g.m
        assert oracle.stats.degree == g.n
        assert peak < 4096


class _DegreeVector:
    """Answers degree queries from a fixed vector, graphical or not."""

    def __init__(self, degrees):
        self.n = len(degrees)
        self._degrees = np.array(degrees, dtype=np.int64)

    def q_degree_batch(self, vs):
        return self._degrees[np.asarray(vs, dtype=np.int64)]


# The degree at which ceil_div_by_sqrt_array stops trusting float64 with d^2.
_D_EXACT = 2**26


@st.composite
def ceil_div_cases(draw):
    """(degrees, m_bar) where the ceiling is hard to get right: m_bar
    integer, x.5, the float of a square (rounded above 2^53), the square of
    a fraction, or any float from 1e-6 up; the degrees 0, any a graph can
    hold, ones next to 2^26, and ones next to k * sqrt(m_bar), where the
    ceiling steps."""
    m_bar = draw(st.one_of(
        st.integers(1, 2**62).map(float),
        st.integers(0, 2**51).map(lambda k: k + 0.5),
        st.integers(1, MAX_VERTICES - 1).map(lambda d: float(d * d)),
        st.tuples(st.integers(1, 10**6), st.integers(1, 64)).map(lambda pq: (pq[0] / pq[1]) ** 2),
        st.floats(1e-6, 1e19),
    ))
    root = math.sqrt(m_bar)
    near = sorted({
        x for k in range(1, 65) for x in (round(k * root) + dd for dd in (-1, 0, 1))
        if 0 <= x < MAX_VERTICES
    } or {0})
    anywhere = st.one_of(
        st.just(0),
        st.integers(1, MAX_VERTICES - 1),
        st.integers(_D_EXACT - 3, _D_EXACT + 3),
        st.integers(1, 10**4),
    )
    ds = draw(st.lists(anywhere, max_size=20))
    return ds + draw(st.lists(st.sampled_from(near), min_size=1, max_size=20)), m_bar


class TestCeilDivArray:
    @given(ceil_div_cases())
    @settings(max_examples=500, deadline=None)
    @example(([0, 3, 4, 9], 9.0))  # d = 0, d^2 == m_bar, a perfect square
    @example(([1, 2, 3, 5], 2.5))  # a non-integer m_bar
    @example(([1, 2, 3], 1 / 9))  # 9 * m_bar rounds to 1.0 = d^2
    @example(([_D_EXACT - 1, _D_EXACT, _D_EXACT + 1], float(_D_EXACT**2)))
    @example(([_D_EXACT - 1, _D_EXACT, _D_EXACT + 1], float((_D_EXACT - 1) ** 2)))
    @example(([_D_EXACT - 1, _D_EXACT, _D_EXACT + 1], 0.5))
    @example(([94906267], float(94906267**2)))  # the first d^2 float64 rounds (down)
    @example(([91], (13 / 17) ** 2))  # a guess one high: 119^2 * m_bar rounds to 91^2
    @example(([9532822], 206735905.58861974))  # a guess one low
    @example(([_D_EXACT // 2, _D_EXACT - 1], 1e-6))  # a guess of 2^26 or more
    @example(([MAX_VERTICES - 1, 1], 2.0))
    def test_matches_the_scalar(self, case):
        ds, m_bar = case
        got = ceil_div_by_sqrt_array(np.array(ds, dtype=np.int64), m_bar)
        assert got.dtype == np.int64
        assert got.tolist() == [ceil_div_by_sqrt(d, m_bar) for d in ds]


class TestSlotSources:
    @given(padded_graphs())
    @settings(max_examples=200, deadline=None)
    def test_every_slot_maps_to_its_row_vertex(self, g):
        slots = np.arange(2 * g.m)
        got = g.slot_sources(slots)
        assert got.tolist() == (np.searchsorted(g.offsets, slots, "right") - 1).tolist()
        for v in range(g.n):
            assert (got[g.offsets[v]:g.offsets[v + 1]] == v).all()


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


class DictMemoOracle:
    """QueryOracle's charging with its pair memo as a dict, scalar only.

    A pair query is charged the first time its pair is asked, whatever
    neighbor answers returned it. Batches are scalar loops in array order.
    Adjacency comes from Graph.has_edge.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.budget_cap = None
        self._degrees: set[int] = set()
        self._slots: set[tuple[int, int]] = set()
        self._pairs: dict[frozenset, bool] = {}
        self._pair_count = 0

    def set_budget(self, cap) -> None:
        self.budget_cap = cap

    @property
    def budget_charged(self) -> int:
        return len(self._slots) + self._pair_count

    @property
    def stats(self) -> QueryStats:
        return QueryStats(degree=len(self._degrees), neighbor=len(self._slots), pair=self._pair_count)

    def _charge(self) -> None:
        if self.budget_cap is not None and self.budget_charged >= self.budget_cap:
            raise BudgetExhausted("reference budget exhausted")

    def q_degree(self, v: int) -> int:
        self._degrees.add(v)
        return self.graph.degree(v)

    def q_neighbor(self, v: int, i: int):
        if (v, i) not in self._slots:
            self._charge()
            self._slots.add((v, i))
        if i > self.graph.degree(v):
            return None
        return int(self.graph.neighbors(v)[i - 1])

    def q_pair(self, u: int, w: int) -> bool:
        if u == w:
            raise ValueError("pair query needs two distinct vertices")
        if not (0 <= u < self.graph.n and 0 <= w < self.graph.n):
            raise IndexError("vertex out of range")
        key = frozenset((u, w))
        if key not in self._pairs:
            self._charge()
            self._pair_count += 1
            self._pairs[key] = self.graph.has_edge(u, w)
        return self._pairs[key]

    def q_neighbor_batch(self, vs, idxs) -> list:
        return [self.q_neighbor(v, i) for v, i in zip(vs, idxs)]

    def q_pair_batch(self, us, ws) -> list:
        return [self.q_pair(u, w) for u, w in zip(us, ws)]


@st.composite
def interleavings(draw):
    """(graph, operations): single and batched neighbor and pair queries in
    any order, with cap changes between them.

    Pairs and slots come from small pools, so they repeat within and across
    operations; most pairs are edges, in either orientation. A ("cap", k)
    sets the cap to k more than the charge so far and ("cap", None) lifts
    it. A batch carries such a k (or None, to keep the cap) of its own, set
    just before it runs, so that batches often trip part way.
    """
    g = draw(graphs())
    vertex = st.integers(0, g.n - 1)
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    edges = [(u, int(w)) for u in range(g.n) for w in g.neighbors(u)]
    if edges:
        pair = st.one_of(pair, st.sampled_from(edges), st.sampled_from(edges))
    pairs = draw(st.lists(pair, min_size=1, max_size=10))
    room = st.one_of(st.none(), st.integers(0, 4))
    ops = [
        st.tuples(st.just("neighbor"), vertex, st.integers(1, g.n)),
        st.tuples(st.just("pair"), st.sampled_from(pairs)),
        st.tuples(st.just("pair_batch"), st.lists(st.sampled_from(pairs), max_size=14), room),
        st.tuples(st.just("cap"), st.one_of(st.none(), st.integers(0, 6))),
    ]
    slots = [(v, i) for v in range(g.n) for i in range(1, g.degree(v) + 1)]
    if slots:
        pool = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=8))
        ops.append(st.tuples(st.just("neighbor_batch"), st.lists(st.sampled_from(pool), max_size=14), room))
    return g, draw(st.lists(st.one_of(ops), max_size=30))


def run_op(oracle, op):
    """The answers of one interleavings operation, as a list."""
    kind = op[0]
    if kind == "neighbor":
        return [oracle.q_neighbor(op[1], op[2])]
    if kind == "pair":
        return [oracle.q_pair(*op[1])]
    ends = np.array(op[1], dtype=np.int64).reshape(-1, 2)
    if kind == "pair_batch":
        return list(oracle.q_pair_batch(ends[:, 0], ends[:, 1]))
    return list(oracle.q_neighbor_batch(ends[:, 0], ends[:, 1]))


def set_room(oracles, k) -> None:
    """Cap every oracle at k more than the first one's charge, or lift the
    cap when k is None."""
    cap = None if k is None else oracles[0].budget_charged + k
    for oracle in oracles:
        oracle.set_budget(cap)


class TestDictMemoReference:
    @given(interleavings())
    @settings(max_examples=300, deadline=None)
    def test_matches_dict_memo(self, case):
        # Answers, stats, the charge and every trip match the dict memo's,
        # after every operation.
        g, ops = case
        ours, ref = QueryOracle(g, seed=0), DictMemoOracle(g)
        for op in ops:
            if op[0] == "cap":
                set_room((ours, ref), op[1])
                continue
            if op[0].endswith("_batch") and op[2] is not None:
                set_room((ours, ref), op[2])
            outcomes = []
            for oracle in (ours, ref):
                try:
                    outcomes.append([bool(a) if isinstance(a, np.bool_) else a for a in run_op(oracle, op)])
                except BudgetExhausted:
                    outcomes.append("tripped")
            assert outcomes[0] == outcomes[1]
            assert ours.stats == ref.stats
            assert ours.budget_charged == ref.budget_charged
        assert observed_memo(ours) == observed_memo(ref)


class TestNeighborBatch:
    @given(batch_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_loop(self, case):
        # The reference is the dict memo's q_neighbor called on each pair in
        # array order; QueryOracle.q_neighbor is the batch on one pair.
        g, queries, pairs, cap = case
        ours, ref = QueryOracle(g, seed=0), DictMemoOracle(g)
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
    order. One case in eight carries a bad pair (equal ends or an end out
    of range). The cap is None, any value from 0 up, below or above what
    the first queries charge, or ("room", k): k more than they charge, so
    that the batch often trips part way.
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
        # The reference is the dict memo's q_pair called on each pair in
        # array order.
        g, queries, pairs, cap = case
        ours, ref = QueryOracle(g, seed=0), DictMemoOracle(g)
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
        assert [list(g.neighbors(v)) for v in range(n)] == [sorted(row) for row in expected]

    @given(edge_lists(min_n=1, max_n=16))
    @settings(max_examples=150, deadline=None)
    def test_has_edge_agrees_with_edge_set(self, case):
        n, edges = case
        present = {frozenset(e) for e in edges}
        g = Graph.from_edges(n, edges)
        for u in range(n):
            for v in range(n):
                assert g.has_edge(u, v) == (frozenset((u, v)) in present)

    @given(padded_graphs())
    @example(Graph.from_edges(0, []))
    @example(Graph.from_edges(1, []))
    @example(Graph.from_edges(5, [(3, 1)]))
    @settings(max_examples=150, deadline=None)
    def test_edge_slots_match_brute_force(self, g):
        # Every ordered pair, equal ends included, in one call.
        us = np.repeat(np.arange(g.n, dtype=np.int64), g.n)
        ws = np.tile(np.arange(g.n, dtype=np.int64), g.n)
        slots = g.edge_slots(us, ws).tolist()
        for u, w, slot in zip(us.tolist(), ws.tolist(), slots):
            lo, hi = int(g.offsets[u]), int(g.offsets[u + 1])
            row = g.targets[lo:hi].tolist()
            if w in row:
                assert lo <= slot < hi
                assert g.targets[slot] == w
            else:
                assert slot == -1


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


def wedge_reference(graph: Graph) -> tuple[int, np.ndarray, np.ndarray]:
    """(t, t_v, t_e_slots) from the forward-wedge kernel count_ordered replaced.

    Every pair w1 < w2 of u's successors in the (degree, id) order is a
    wedge, closed by a searchsorted for w1 -> w2 on the sorted forward keys,
    so the work is the sum over u of C(d+(u), 2) whichever walk is shorter.
    """
    chunk = 1 << 18
    n, offsets, targets = graph.n, graph.offsets, graph.targets
    t_e_slots = np.zeros(len(targets), dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(graph.degrees, kind="stable")] = np.arange(n, dtype=np.int64)
    src_rank = np.repeat(rank, graph.degrees)
    tgt_rank = rank[targets]
    forward = tgt_rank > src_rank
    fwd = np.flatnonzero(forward)
    back = np.flatnonzero(~forward)
    fkey = src_rank[fwd] * n + tgt_rank[fwd]
    order = np.argsort(fkey)
    fwd, fkey = fwd[order], fkey[order]
    back = back[np.argsort(tgt_rank[back] * n + src_rank[back])]

    u_rank = fkey // n
    w_rank = fkey - u_rank * n
    positions = np.arange(len(fkey), dtype=np.int64)
    n_wedges = np.cumsum(np.bincount(u_rank, minlength=n))[u_rank] - 1 - positions
    wedge_end = np.cumsum(n_wedges)
    wedge_start = wedge_end - n_wedges
    shift = positions + 1 - wedge_start
    total = int(wedge_end[-1]) if len(fkey) else 0

    hit_1 = np.zeros(len(fkey), dtype=np.int64)
    hit_2 = np.zeros(len(fkey), dtype=np.int64)
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        p_lo = int(np.searchsorted(wedge_end, lo, side="right"))
        p_hi = int(np.searchsorted(wedge_start, hi, side="left"))
        counts = np.minimum(wedge_end[p_lo:p_hi], hi) - np.maximum(wedge_start[p_lo:p_hi], lo)
        j = np.repeat(shift[p_lo:p_hi], counts) + np.arange(lo, hi)
        query = np.repeat(w_rank[p_lo:p_hi] * n, counts) + w_rank[j]
        pos = np.minimum(np.searchsorted(fkey, query), len(fkey) - 1)
        closed = np.flatnonzero(fkey[pos] == query)
        c1 = np.bincount(np.searchsorted(np.cumsum(counts), closed, side="right"))
        c2 = np.bincount(j[closed] - p_lo)
        hit_1[p_lo : p_lo + len(c1)] += c1
        hit_2[p_lo : p_lo + len(c2)] += c2

    t_e_slots[fwd] = hit_1
    t_e_slots[back] = hit_1 + hit_2
    per_slot = np.zeros(len(targets) + 1, dtype=np.int64)
    np.cumsum(t_e_slots, out=per_slot[1:])
    t_v = per_slot[offsets[1:]] - per_slot[offsets[:-1]]
    return int(hit_1.sum()), t_v, t_e_slots


def closing_sides(graph: Graph) -> tuple[int, int]:
    """Forward edges u -> w1 that close a triangle, split by the shorter walk.

    The first count is of edges where u's successors after w1 are at most
    w1's successors (the u side), the second of the rest (the w1 side).
    """
    key = [(int(graph.degrees[v]), v) for v in range(graph.n)]
    succ = {
        v: sorted((int(w) for w in graph.neighbors(v) if key[w] > key[v]), key=key.__getitem__)
        for v in range(graph.n)
    }
    sides = [0, 0]
    for row in succ.values():
        for i, w1 in enumerate(row):
            if set(row[i + 1 :]) & set(succ[w1]):
                sides[len(succ[w1]) < len(row) - 1 - i] += 1
    return sides[0], sides[1]


# Small graphs shaped like the benchmark's: the g2-matching panels, the
# hidden clique, a Chung-Lu graph with the powerlaw file's weights, and G(n, p).
KERNEL_GRAPHS = {
    "g2-16": lambda: gen_g2_matching(64, 16, seed=1).graph,
    "g2-32": lambda: gen_g2_matching(128, 32, seed=2).graph,
    "clique": lambda: gen_clique_family(2000, 1000, seed=3).graph,
    "chung-lu": lambda: chung_lu(400, 1700, beta=2.5, seed=4),
    "gnp": lambda: gnp_graph(200, 0.1, seed=5),
}


def pool_of(workers: int):
    """Patch count_ordered to run its passes on `workers` threads (one: in
    the calling thread), whatever the machine's CPU count."""
    return mock.patch.multiple(exact, _MAX_WORKERS=workers, _cpu_count=lambda: workers)


class PassFailed(Exception):
    pass


# A chunk above every probe total here, so each graph counts in one pass, as
# at the default chunk.
ONE_PASS = 1 << 18

# Core sizes set by a graph's live vertex count: all of its ranks, where no
# table is built, and all but the lowest, where only that rank's probes search.
ALL_LIVE, ALL_BUT_LOWEST = "all-live", "all-but-lowest"


def core_of(graph: Graph, size: int | str):
    """Patch count_ordered's core to `size` ranks, or to ALL_LIVE or
    ALL_BUT_LOWEST of the graph's."""
    n_live = int(np.count_nonzero(graph.degrees))
    size = {ALL_LIVE: n_live, ALL_BUT_LOWEST: max(n_live - 1, 0)}.get(size, size)
    return mock.patch.object(exact, "_CORE_RANKS", size)


def tables_built(graph: Graph) -> int:
    """count_ordered(graph), checked against wedge_reference: the number of
    core tables it allocated (uint8 arrays)."""
    built = []

    class SpyNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def zeros(*args, **kwargs):
            built.extend([None] if kwargs.get("dtype") == np.uint8 else [])
            return np.zeros(*args, **kwargs)

    with mock.patch.object(exact, "np", SpyNumpy()):
        stats = count_ordered(graph)
    t, t_v, t_e_slots = wedge_reference(graph)
    assert stats.t == t
    assert np.array_equal(stats.t_v, t_v)
    assert np.array_equal(stats.t_e_slots, t_e_slots)
    return len(built)


class TestOrderedKernel:
    # Chunk sizes of 1 and 3 split one vertex's probes over several passes
    # and put chunk boundaries inside and between forward positions.
    @pytest.mark.parametrize("chunk", [ONE_PASS, 3, 1])
    @given(g=padded_graphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_per_slot(self, chunk, g):
        brute = count_brute(g)
        for workers in (1, 2):
            with mock.patch.object(exact, "_WEDGE_CHUNK", chunk), pool_of(workers):
                ordered = count_ordered(g)
            assert ordered.t == brute.t
            assert np.array_equal(ordered.t_v, brute.t_v)
            assert np.array_equal(ordered.t_e_slots, brute.t_e_slots)
            assert ordered.t_e == brute.t_e

    # Each case runs on 1, 2 and 4 workers; below one pass every graph here
    # takes many passes, so the threads split them.
    @pytest.mark.parametrize("chunk", [ONE_PASS, 7, 3, 1])
    @pytest.mark.parametrize("name", list(KERNEL_GRAPHS))
    def test_matches_wedge_reference(self, chunk, name):
        g = KERNEL_GRAPHS[name]()
        t, t_v, t_e_slots = wedge_reference(g)
        assert t > 0
        for workers in (1, 2, 4):
            with mock.patch.object(exact, "_WEDGE_CHUNK", chunk), pool_of(workers):
                ordered = count_ordered(g)
            assert ordered.t == t
            assert np.array_equal(ordered.t_v, t_v)
            assert np.array_equal(ordered.t_e_slots, t_e_slots)
        if name == "chung-lu":
            # Both walks close triangles here, so the w1 side is exercised.
            assert min(closing_sides(g)) > 0

    # Core sizes below a graph's live vertex count answer the top ranks'
    # probes from the bit table and search the rest; at the live count no
    # table is built. A core of 0 or 1 takes no probe (the top rank's row is
    # empty), so its passes all search; with all ranks but the lowest and
    # chunks of 1 and 3, most passes read only the table, and the rest mix.
    @pytest.mark.parametrize("core", [0, 1, 3, 7, ALL_BUT_LOWEST, ALL_LIVE])
    @pytest.mark.parametrize("chunk", [ONE_PASS, 3, 1])
    @given(g=padded_graphs())
    @settings(max_examples=50, deadline=None)
    def test_core_table_matches_brute_per_slot(self, core, chunk, g):
        brute = count_brute(g)
        for workers in (1, 2, 4):
            with core_of(g, core), mock.patch.object(exact, "_WEDGE_CHUNK", chunk), pool_of(workers):
                ordered = count_ordered(g)
            assert ordered.t == brute.t
            assert np.array_equal(ordered.t_v, brute.t_v)
            assert np.array_equal(ordered.t_e_slots, brute.t_e_slots)
            assert ordered.t_e == brute.t_e

    @pytest.mark.parametrize("core", [0, 1, 3, 7, ALL_BUT_LOWEST, ALL_LIVE])
    @pytest.mark.parametrize("chunk", [ONE_PASS, 7, 3, 1])
    @pytest.mark.parametrize("name", list(KERNEL_GRAPHS))
    def test_core_table_matches_wedge_reference(self, core, chunk, name):
        g = KERNEL_GRAPHS[name]()
        t, t_v, t_e_slots = wedge_reference(g)
        slots = np.flatnonzero(t_e_slots)
        sources = np.searchsorted(g.offsets, slots, side="right") - 1
        t_e = dict(zip(zip(sources.tolist(), g.targets[slots].tolist()), t_e_slots[slots].tolist()))
        for workers in (1, 2, 4):
            with core_of(g, core), mock.patch.object(exact, "_WEDGE_CHUNK", chunk), pool_of(workers):
                ordered = count_ordered(g)
            assert ordered.t == t
            assert np.array_equal(ordered.t_v, t_v)
            assert np.array_equal(ordered.t_e_slots, t_e_slots)
            assert ordered.t_e == t_e

    def test_table_needs_more_live_vertices_than_the_core(self):
        g = KERNEL_GRAPHS["chung-lu"]()
        n_live = int(np.count_nonzero(g.degrees))
        for size, built in ((1, 1), (n_live - 1, 1), (n_live, 0), (n_live + 1, 0)):
            with mock.patch.object(exact, "_CORE_RANKS", size):
                assert tables_built(g) == built

    @pytest.mark.parametrize("shape", ["matching", "star"])
    def test_no_probe_builds_no_table(self, shape):
        # More live vertices than the default core, but no forward row has
        # a second key, so no probe is walked and no pass runs.
        n = exact._CORE_RANKS + 2
        if shape == "matching":
            edges = np.arange(n).reshape(-1, 2)
        else:
            edges = np.column_stack((np.zeros(n - 1, dtype=np.int64), np.arange(1, n)))
        g = Graph.from_edges(n, edges)
        assert np.count_nonzero(g.degrees) > exact._CORE_RANKS
        assert tables_built(g) == 0

    def test_default_core_against_networkx(self):
        # More live vertices than the default core, at the default chunk:
        # the top ranks' probes read the table and the rest search.
        g = chung_lu(6000, 32_000, beta=2.5, seed=6)
        assert np.count_nonzero(g.degrees) > exact._CORE_RANKS
        assert tables_built(g) == 1
        stats = count_ordered(g)
        nx_g = nx.Graph()
        nx_g.add_nodes_from(range(g.n))
        nx_g.add_edges_from(zip(np.repeat(np.arange(g.n), g.degrees).tolist(), g.targets.tolist()))
        per_vertex = nx.triangles(nx_g)
        assert stats.t == sum(per_vertex.values()) // 3 > 0
        assert stats.t_v.tolist() == [per_vertex[v] for v in range(g.n)]
        slot_sums = np.concatenate(([0], np.cumsum(stats.t_e_slots)))
        assert slot_sums[-1] == 3 * stats.t
        assert np.array_equal(slot_sums[g.offsets[1:]] - slot_sums[g.offsets[:-1]], stats.t_v)

    def test_one_pass_starts_no_thread(self):
        g = KERNEL_GRAPHS["chung-lu"]()
        no_pool = mock.Mock(side_effect=AssertionError("a pool started"))
        with pool_of(4), mock.patch.object(exact, "ThreadPoolExecutor", no_pool):
            assert count_ordered(g).t == wedge_reference(g)[0]
            # The same graph in many passes does reach the pool.
            with mock.patch.object(exact, "_WEDGE_CHUNK", 3):
                with pytest.raises(AssertionError, match="a pool started"):
                    count_ordered(g)

    @pytest.mark.parametrize("error", [PassFailed, KeyboardInterrupt])
    def test_failed_pass_stops_the_pool(self, error):
        g = KERNEL_GRAPHS["g2-32"]()
        calls = []
        lock = threading.Lock()

        class FailingNumpy:
            """numpy, except that the k-th bincount raises (k = fail_at);
            each pass calls bincount twice."""

            fail_at = None

            def __getattr__(self, name):
                return getattr(np, name)

            def bincount(self, *args, **kwargs):
                with lock:
                    calls.append(None)
                    k = len(calls)
                if k == self.fail_at:
                    raise error("pass failed")
                return np.bincount(*args, **kwargs)

        fake = FailingNumpy()
        threads = threading.active_count()
        chunk_1 = mock.patch.object(exact, "_WEDGE_CHUNK", 1)
        with chunk_1, mock.patch.object(exact, "np", fake), pool_of(2):
            count_ordered(g)
            assert threading.active_count() == threads
            all_calls = len(calls)
            calls.clear()
            fake.fail_at = 21
            with pytest.raises(error, match="pass failed"):
                count_ordered(g)
        assert threading.active_count() == threads
        # Passes not yet started when the failure reached the caller never ran.
        assert all_calls > 1000
        assert len(calls) < all_calls // 2


def full_descent(oracle: QueryOracle, eps: float, seed: int) -> tuple[float, float | None, str | None]:
    """estimate's search with every level making all RUNS_PER_LEVEL runs, from
    the same stages, run seeds and per-level verdict caches, on an oracle
    whose budget never trips: (estimate, t_bar, fallback_reason)."""
    params = EstimatorParams.practical()
    feige_ss, loop_ss = np.random.SeedSequence(seed).spawn(2)
    loop_entropy = int(loop_ss.generate_state(2, np.uint64)[0])
    m_bar = oracle.n * feige_avg_degree(oracle, seed=feige_ss) / 2.0
    if m_bar > 0:
        reads_v = estimator._feige_reads_v(oracle.n)
        top = estimator.RIVIN * m_bar**1.5 if reads_v else float(oracle.n) ** 3
        for level in range(int(top).bit_length()):
            t_bar = top / 2.0**level
            cache: dict[int, str] = {}
            xs = [
                estimate_with_advice(
                    oracle, m_bar, t_bar, eps, params,
                    seed=np.random.SeedSequence(entropy=loop_entropy, spawn_key=(level, run_i)),
                    verdict_cache=cache,
                )
                for run_i in range(RUNS_PER_LEVEL)
            ]
            if min(xs) >= t_bar:
                return min(xs), t_bar, None
    return float(count_brute(oracle.graph).t), None, "descent_exhausted"


@st.composite
def descent_graphs(draw):
    """Small G(n, p) and Chung-Lu graphs, the latter with skewed degrees."""
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        return gnp_graph(draw(st.integers(4, 60)), draw(st.floats(0.05, 0.7)), seed=seed)
    n = draw(st.integers(20, 200))
    return chung_lu(n, draw(st.integers(n, 6 * n)), beta=2.5, seed=seed)


class TestLevelRule:
    @given(descent_graphs(), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_no_estimate_moves_and_no_query_is_added(self, g, seed):
        # A budget no descent can spend, so neither search trips it.
        never = 10**12
        o = QueryOracle(g, seed=seed, budget=never)
        report = estimate(o, 0.5, EstimatorParams.practical(), seed=seed)
        ref = QueryOracle(g, seed=seed, budget=never)
        assert (report.estimate, report.t_bar, report.fallback_reason) == full_descent(ref, 0.5, seed)
        assert o.budget_charged <= ref.budget_charged
        assert o.stats.degree == ref.stats.degree
