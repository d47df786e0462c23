"""Metered graph access: distinct-query counting, memoization, budgets.

Wraps a small graph in a QueryOracle and narrates what each probe costs.
Repeats are free (answers are memoized), and an optional budget caps the
distinct neighbor + pair queries; degree queries and vertex samples are
metered but never count against the cap.

Usage: python3 demos/oracle_metering.py
"""

from __future__ import annotations

from subtri.graph_store import Graph
from subtri.query_oracle import BudgetExhausted, QueryOracle


def tally(oracle: QueryOracle) -> str:
    s = oracle.stats
    return (f"degree={s.degree} neighbor={s.neighbor} pair={s.pair} "
            f"samples={s.vertex_samples} total={s.total}")


def main() -> None:
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    o = QueryOracle(g, seed=0)

    print("-- fresh oracle over the bowtie graph")
    print("   ", tally(o))

    d0 = o.q_degree(0)
    print(f"-- q_degree(0) -> {d0}")
    print("   ", tally(o))

    first = o.q_neighbor(0, 1)
    again = o.q_neighbor(0, 1)
    past = o.q_neighbor(3, 3)
    print(f"-- q_neighbor(0, 1) -> {first}, repeated -> {again} (free),"
          f" q_neighbor(3, 3) -> {past} (past the degree)")
    print("   ", tally(o))

    hit = o.q_pair(1, 2)
    miss = o.q_pair(1, 3)
    flipped = o.q_pair(3, 1)
    print(f"-- q_pair(1, 2) -> {hit}, q_pair(1, 3) -> {miss},"
          f" q_pair(3, 1) -> {flipped} (free: unordered memo)")
    print("   ", tally(o))

    vs = o.sample_vertices(3)
    print(f"-- sample_vertices(3) -> {vs.tolist()} (metered per id, never budgeted)")
    print("   ", tally(o))

    print("-- now a budget of 3 distinct neighbor/pair charges")
    o2 = QueryOracle(g, seed=0, budget=3)
    o2.q_neighbor(0, 1)
    o2.q_neighbor(0, 2)
    o2.q_pair(3, 4)
    print(f"   charged {o2.budget_charged}/{o2.budget_cap} after three probes")
    o2.q_neighbor(0, 1)
    print(f"   a repeat stays free: still {o2.budget_charged}/{o2.budget_cap}")
    try:
        o2.q_neighbor(0, 3)
    except BudgetExhausted as exc:
        print(f"   fourth distinct probe -> BudgetExhausted: {exc}")
    print(f"   degree queries keep working: q_degree(0) -> {o2.q_degree(0)}")
    print("   ", tally(o2))


if __name__ == "__main__":
    main()
