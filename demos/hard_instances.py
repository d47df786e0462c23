"""The generator families and their closed-form triangle counts.

Each family plants a known triangle count inside a graph built to be hard
for sampling estimators (most of the graph looks identical whether or not
the triangles exist). Every generated instance carries its exact count,
which this demo re-verifies by counting directly.

Usage: python3 demos/hard_instances.py
"""

from __future__ import annotations

from subtri.exact import count_ordered
from subtri.lb_gen import (
    gen_clique_family,
    gen_g1_bipartite,
    gen_g2_matching,
    gen_g2_multi_matching,
    gen_g2_partial_matching,
    gen_special_four,
)


def show(res) -> None:
    recount = count_ordered(res.graph).t
    flag = "ok" if recount == res.exact_t else "MISMATCH"
    print(f"{res.family:22s} n={res.graph.n:5d} m={res.graph.m:6d} "
          f"t={res.exact_t:6d} recount={recount:6d} [{flag}]  {res.formula}")


def main() -> None:
    print("family                     n      m       t  (verified by count_ordered)\n")
    show(gen_clique_family(4096, 1000, seed=0))
    show(gen_g1_bipartite(64, 32, seed=0))
    show(gen_g2_matching(40, 10, seed=0))
    show(gen_g2_multi_matching(32, 16, 2, seed=0))
    show(gen_g2_partial_matching(32, 16, 4, seed=0))
    show(gen_special_four(32, 8, 2, seed=0))
    show(gen_special_four(32, 8, 2, seed=0, special=False))

    res = gen_g2_matching(40, 10, seed=0, shuffle=True)
    print(f"\nshuffle relabels ids but keeps the count: t={count_ordered(res.graph).t}")
    print("multi-matching counts are randomized inside a band; the sidecar")
    print("records the realized exact_t, so verification never guesses")


if __name__ == "__main__":
    main()
