"""Sampled heavy/light classification on a graph with a planted hub.

Builds a hub joined to every vertex of a triangle-free 9-regular rim, so
the hub collects one triangle per rim edge (t_v = 81) while rim vertices
stay at t_v = 9. Prints the decision thresholds, the ground-truth labels,
and the sampled verdicts the classifier reaches through the oracle.

Usage: python3 demos/heavy_classifier.py
"""

from __future__ import annotations

import statistics

import numpy as np

from subtri import (
    Graph,
    HeavyParams,
    QueryOracle,
    classify_heavy,
    count_ordered,
    decision_threshold,
    degree_cutoff,
    heavy_tv_cutoff,
    label_ground_truth,
    light_tv_cutoff,
)


def wheel_like() -> tuple[Graph, int]:
    hub = 18
    edges = [(i, 9 + j) for i in range(9) for j in range(9)]
    edges += [(v, hub) for v in range(18)]
    return Graph.from_edges(19, edges), hub


def main() -> None:
    g, hub = wheel_like()
    m_bar, t_bar, eps = 120.0, 64.0, 0.5
    stats = count_ordered(g)

    print(f"graph: n={g.n} m={g.m} t={stats.t}; advice m_bar={m_bar} t_bar={t_bar} eps={eps}")
    print(f"thresholds: degree>{degree_cutoff(m_bar, t_bar, eps):.2f} is heavy, "
          f"t_v>{heavy_tv_cutoff(t_bar, eps):.2f} is heavy, "
          f"t_v<={light_tv_cutoff(t_bar, eps):.2f} is light, "
          f"median decides at {decision_threshold(t_bar, eps):.2f}")

    labels = label_ground_truth(stats, g, m_bar, t_bar, eps)
    print(f"ground truth: hub {hub} (t_v={stats.t_v[hub]}) -> {labels[hub]}, "
          f"rim (t_v={stats.t_v[0]}) -> {labels[0]}")

    params = HeavyParams.theoretical()
    oracle = QueryOracle(g, seed=0)
    rng = np.random.default_rng(1000)
    print("sampled verdicts (theoretical parameters, seed 0):")
    for v in (hub, 0, 9):
        verdict = classify_heavy(oracle, v, m_bar, t_bar, eps, params, rng)
        med = statistics.median(verdict.medians) if verdict.medians else float("nan")
        print(f"  vertex {v:2d} (degree {int(g.degrees[v]):2d}, t_v {stats.t_v[v]:2d}): "
              f"{verdict.verdict:5s} median estimate {med:7.2f} "
              f"using {verdict.queries_used} queries")
    print("note: queries_used counts new distinct queries only; by the third")
    print("verdict the oracle had memoized every probe, so it cost nothing")


if __name__ == "__main__":
    main()
