#!/usr/bin/env python3
"""Layered benchmark for subtri: estimate time and charged queries.

Usage:
    python3 bench/run.py --workload {panels,hidden-clique,powerlaw-file} \
        --seed N --seconds S --trace {0,1} [--tiny]

One process runs one workload in a closed loop: one caller, one thread, each
call waits for the previous one. After set-up (repeated SETUP_REPS times,
median reported), one untimed warm-up estimate per graph runs and is
repeated once to check determinism. Then whole rounds of the same
operations run until S seconds have passed. One round is, for each graph of
the workload, ``estimates_per_round`` calls of
``estimate(QueryOracle(g, seed=s), eps=0.5, EstimatorParams.practical(), seed=s)``
on fresh oracles with fixed seeds s derived from N, and
``exacts_per_round`` calls of ``count_ordered(g)`` spread between them.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
every operation runs once untraced and once traced, the per-layer metrics
come from the traced calls, and the spans are written to
``bench/out/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Figures over several
graphs (panels has two) are the mean over graphs of the per-graph median.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

EPS = 0.5
BAND = 0.5  # an estimate is accurate when it lies in (1 +- BAND) * t
ACCURACY_GATE = 0.8  # share of accurate estimates a run needs
SETUP_REPS = 5

E2E_UNITS = {
    "setup_s": "s", "estimate_s": "s", "exact_s": "s",
    "charged_queries": "queries", "degree_queries": "queries", "peak_rss_mib": "MiB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return p.parse_args(argv)


class Checks:
    """Failed operations and failed run-level checks, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, reason: str | None) -> bool:
        self.attempted += 1
        if reason:
            self.failed += 1
            self.problems.append(f"operation failed: {reason}")
        return reason is None

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def estimate_failure(report, oracle, t_ref: int) -> str | None:
    q = report.queries
    cap = oracle.budget_cap
    x = report.estimate
    if cap is not None and (oracle.budget_charged > cap or q["neighbor"] + q["pair"] > cap):
        return f"charged {oracle.budget_charged} (neighbor+pair {q['neighbor'] + q['pair']}) > cap {cap}"
    if not math.isfinite(x) or x < 0:
        return f"estimate {x} is negative or not finite"
    if report.fallback_used and x != t_ref:
        return f"fallback estimate {x} != reference {t_ref}"
    if not report.fallback_used and (report.t_bar is None or x < report.t_bar):
        return f"estimate {x} below accepted t_bar {report.t_bar}"
    return None


def exact_failure(stats, t_ref: int) -> str | None:
    t_v_sum = int(stats.t_v.sum())
    if stats.t != t_ref or t_v_sum != 3 * stats.t:
        return f"count_ordered t={stats.t}, sum t_v={t_v_sum}, reference {t_ref}"
    return None


def round_ops(n_graphs: int, seeds: list[int], exacts: int) -> list[tuple]:
    """One round: per graph, every seed's estimate and `exacts` count_ordered calls.

    The exact calls are spread between the estimates and the graphs take
    turns, so every kind of operation samples the whole run.
    """
    per = len(seeds) // exacts
    ops = []
    for j in range(exacts):
        for gi in range(n_graphs):
            ops += [("estimate", gi, s) for s in seeds[j * per : (j + 1) * per]]
            ops.append(("exact", gi, None))
    return ops


def run_estimate(subtri, graph, seed: int, t_ref: int):
    """One timed estimate on a fresh oracle: (seconds, report, failure or None).

    The oracle and its memo are dropped before returning, so peak memory
    reflects one operation at a time.
    """
    oracle = subtri.query_oracle.QueryOracle(graph, seed=seed)
    params = subtri.estimator.EstimatorParams.practical()
    gc.collect()
    t0 = time.perf_counter()
    try:
        report = subtri.estimator.estimate(oracle, eps=EPS, params=params, seed=seed)
    except Exception as exc:  # a raising estimate is a failed operation
        return time.perf_counter() - t0, None, f"estimate raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return wall, report, estimate_failure(report, oracle, t_ref)


def run_exact(subtri, graph, t_ref: int):
    """One timed count_ordered call: (seconds, failure or None)."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        stats = subtri.exact.count_ordered(graph)
    except Exception as exc:  # a raising count is a failed operation
        return time.perf_counter() - t0, f"count_ordered raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return wall, exact_failure(stats, t_ref)


def per_graph_median(rows, key) -> float:
    """Mean over graphs of the median of key over that graph's rows."""
    graphs = sorted({r["graph"] for r in rows})
    return statistics.fmean(
        statistics.median(r[key] for r in rows if r["graph"] == g) for g in graphs
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "subtri" / "__init__.py").is_file():
        print(f"error: subtri sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import subtri.estimator
    import subtri.exact
    import subtri.query_oracle

    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    sizes = workloads.SIZES["tiny" if args.tiny else "full"]
    tracer = Tracer() if args.trace else None
    checks = Checks()

    # Inputs (untimed), then set-up through subtri (timed, several times).
    spec = wl.prepare(args.seed, sizes, OUT_DIR)
    setup_times = []
    for rep in range(SETUP_REPS):
        graphs = None
        gc.collect()
        if tracer:
            tracer.op = ("setup", rep)
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            graphs = wl.build(spec)
            setup_times.append(time.perf_counter() - t0)
    try:
        refs = wl.references(spec, graphs)
    except workloads.ReferenceMismatch as exc:
        checks.require(False, str(exc))
        refs = []

    # Warm-up, repeated once: the same seed must give the same estimate and counts.
    warm_seed = args.seed * 1000 + 999
    for g, t_ref in zip(graphs, refs):
        _, first, reason = run_estimate(subtri, g, warm_seed, t_ref)
        _, again, _ = run_estimate(subtri, g, warm_seed, t_ref)
        checks.require(reason is None, f"warm-up estimate failed: {reason}")
        checks.require(
            first is not None and again is not None
            and (first.estimate, first.queries) == (again.estimate, again.queries),
            "warm-up estimate not deterministic",
        )

    seeds = [args.seed * 1000 + k for k in range(wl.estimates_per_round)]
    ops = round_ops(len(refs), seeds, wl.exacts_per_round)
    est_rows, exact_rows, traced = timed_rounds(subtri, graphs, refs, ops, args.seconds, tracer, checks)

    if est_rows:
        in_band = sum(r["rel_err"] <= BAND for r in est_rows) / len(est_rows)
        checks.require(in_band >= ACCURACY_GATE,
                       f"only {in_band:.0%} of estimates within (1 +- {BAND})t")
    checks.require(bool(est_rows) and bool(exact_rows), "no operation completed")
    for p in checks.problems:
        print(p, file=sys.stderr)

    metrics = {}
    if est_rows and exact_rows and tracer:
        metrics = layer_metrics(tracer, traced, est_rows)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    elif est_rows and exact_rows:
        values = {
            "setup_s": statistics.median(setup_times),
            "estimate_s": per_graph_median(est_rows, "wall"),
            "exact_s": per_graph_median(exact_rows, "wall"),
            "charged_queries": per_graph_median(est_rows, "charged"),
            "degree_queries": per_graph_median(est_rows, "degree"),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


def timed_rounds(subtri, graphs, refs, ops, seconds, tracer, checks):
    """Run whole rounds of ops until `seconds` have passed.

    Returns rows for the untraced estimates, the untraced count_ordered calls
    and (with a tracer) the traced estimates. With a tracer, every operation
    runs again traced right after its untraced run.
    """
    est_rows, exact_rows, traced = [], [], []
    first_seen: dict[tuple, tuple] = {}
    t_start = time.perf_counter()
    while ops:
        for kind, gi, s in ops:
            g, t_ref = graphs[gi], refs[gi]
            if kind == "exact":
                wall, reason = run_exact(subtri, g, t_ref)
                if checks.op(reason):
                    exact_rows.append({"graph": gi, "wall": wall})
                if tracer:
                    tracer.op = ("exact", len(exact_rows), gi)
                    with tracer.installed():
                        checks.op(run_exact(subtri, g, t_ref)[1])
                continue
            wall, report, reason = run_estimate(subtri, g, s, t_ref)
            if not checks.op(reason):
                continue
            q = report.queries
            row = {
                "graph": gi, "wall": wall, "estimate": report.estimate,
                "charged": q["neighbor"] + q["pair"], "neighbor": q["neighbor"],
                "pair": q["pair"], "degree": q["degree"],
                "vertex_samples": q["vertex_samples"], "fallback": report.fallback_used,
                "rel_err": abs(report.estimate - t_ref) / t_ref if t_ref else report.estimate,
            }
            seen = first_seen.setdefault((gi, s), (report.estimate, q))
            checks.require(seen == (report.estimate, q),
                           f"graph {gi} seed {s}: a repeat gave another estimate or counts")
            est_rows.append(row)
            if tracer:
                tracer.op = ("estimate", len(traced), gi)
                with tracer.installed():
                    t_wall, t_report, reason = run_estimate(subtri, g, s, t_ref)
                if reason is None and (t_report.estimate, t_report.queries) != (report.estimate, q):
                    reason = "traced estimate differs from the untraced one"
                checks.op(reason)
                traced.append({**row, "wall": t_wall, "op": tracer.op})
        if time.perf_counter() - t_start >= seconds:
            break
    return est_rows, exact_rows, traced


LAYER_UNITS = {
    "lb_gen.gen_s": "s", "graph_store.load_s": "s", "graph_store.from_edges_s": "s",
    "graph_store.has_edge_calls": "count", "graph_store.has_edge_s": "s",
    "query_oracle.q_degree_calls": "count", "query_oracle.q_degree_s": "s",
    "query_oracle.q_degree_batch_calls": "count", "query_oracle.q_degree_batch_s": "s",
    "query_oracle.q_neighbor_calls": "count", "query_oracle.q_neighbor_s": "s",
    "query_oracle.q_pair_calls": "count", "query_oracle.q_pair_s": "s",
    "query_oracle.q_random_edge_at_calls": "count", "query_oracle.q_random_edge_at_s": "s",
    "query_oracle.q_degree_batch_items": "count", "query_oracle.vertex_samples": "count",
    "query_oracle.neighbor_fresh_ratio": "ratio", "query_oracle.pair_fresh_ratio": "ratio",
    "heavy.classify_calls": "count", "heavy.classify_s": "s", "heavy.charged": "queries",
    "heavy.charged_share": "ratio", "heavy.shortcut_calls": "count",
    "heavy.heavy_verdicts": "count",
    "estimator.feige_s": "s", "estimator.feige_degree_queries": "queries",
    "estimator.advice_runs": "count", "estimator.advice_s": "s",
    "estimator.advice_charged": "queries",
    "estimator.fallbacks": "count", "estimator.fallback_s": "s",
    "estimator.rel_err_p50": "ratio", "estimator.in_band": "ratio",
    "exact.count_ordered_s": "s",
    "trace.overhead_pct": "%",
}


def layer_metrics(tracer, traced, est_rows) -> dict:
    """Per-layer metrics from the traced calls; ratios are taken per call."""
    from tracer import estimate_layers, setup_layers

    groups = tracer.by_op()
    setup = [setup_layers(spans) for op, spans in groups.items() if op[0] == "setup"]
    values = {k: statistics.median(s[k] for s in setup) for k in setup[0]}

    rows = []
    for t in traced:
        layers = estimate_layers(groups.get(t["op"], []))
        layers["query_oracle.vertex_samples"] = t["vertex_samples"]
        layers["query_oracle.neighbor_fresh_ratio"] = _ratio(
            t["neighbor"], layers["query_oracle.q_neighbor_calls"])
        layers["query_oracle.pair_fresh_ratio"] = _ratio(
            t["pair"], layers["query_oracle.q_pair_calls"])
        layers["heavy.charged_share"] = _ratio(layers["heavy.charged"], t["charged"])
        layers["estimator.fallbacks"] = int(t["fallback"])
        rows.append({**layers, "graph": t["graph"]})
    for key in rows[0]:
        values[key] = per_graph_median(rows, key)
    values["estimator.rel_err_p50"] = per_graph_median(est_rows, "rel_err")
    values["estimator.in_band"] = sum(r["rel_err"] <= BAND for r in est_rows) / len(est_rows)
    exact_rows = [
        {"graph": op[2], "wall": sum(s.duration for s in spans if s.name == "exact.count_ordered")}
        for op, spans in groups.items() if op[0] == "exact"
    ]
    values["exact.count_ordered_s"] = per_graph_median(exact_rows, "wall")
    values["trace.overhead_pct"] = 100.0 * (
        per_graph_median(traced, "wall") / per_graph_median(est_rows, "wall") - 1.0)
    return {k: {"value": values[k], "unit": LAYER_UNITS[k]} for k in LAYER_UNITS}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


if __name__ == "__main__":
    sys.exit(main())
