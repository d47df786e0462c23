"""Command-line interface: estimate, exact, gen, and bench subcommands.

Exit codes: 0 success, 2 usage errors, 3 input errors (missing or malformed
files, bad generator parameters), 4 internal errors. Output is byte-identical
for a fixed (input, flags, seed) triple; timing is only emitted under
--timing since it would break that.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

from .estimator import estimate
from .exact import count_ordered
from .graph_store import GraphFormatError, load_edge_list, write_edge_list
from .lb_gen import (
    gen_clique_family,
    gen_g1_bipartite,
    gen_g2_matching,
    gen_g2_multi_matching,
    gen_g2_partial_matching,
    gen_special_four,
)
from .query_oracle import QueryOracle

# family name -> (constructor, required argparse/genspec parameter names)
FAMILIES = {
    "clique": (gen_clique_family, ("n", "t")),
    "g1-bipartite": (gen_g1_bipartite, ("n", "side")),
    "g2-matching": (gen_g2_matching, ("n", "side")),
    "g2-multi-matching": (gen_g2_multi_matching, ("n", "side", "r")),
    "g2-partial-matching": (gen_g2_partial_matching, ("n", "side", "k")),
    "special-four": (gen_special_four, ("n", "side", "t")),
    "g1-double-bipartite": (
        functools.partial(gen_special_four, special=False),
        ("n", "side", "t"),
    ),
}


def _takes_shuffle(family: str) -> bool:
    return family != "clique"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="subtri",
        description="Triangle counting: sublinear estimation, exact counts, hard-instance generators.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate the triangle count through the query oracle")
    est.add_argument("--input", required=True, help="edge-list file")
    est.add_argument("--epsilon", type=float, default=0.5, help="target relative accuracy (clamped to 0.5)")
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--budget", type=int, default=None, help="override the query budget cap")
    est.add_argument("--json", action="store_true", help="emit the full report as JSON")
    est.add_argument("--exact-check", action="store_true", help="also count exactly and report the error")
    est.add_argument("--timing", action="store_true", help="include wall_ms (breaks byte determinism)")
    est.add_argument("--out", default=None, help="write output to this file instead of stdout")
    est.set_defaults(func=cmd_estimate)

    ex = sub.add_parser("exact", help="count triangles exactly")
    ex.add_argument("--input", required=True, help="edge-list file")
    ex.add_argument("--json", action="store_true", help="emit t, t_v, and t_e as JSON")
    ex.add_argument("--out", default=None)
    ex.set_defaults(func=cmd_exact)

    gen = sub.add_parser("gen", help="generate a hard-instance graph family")
    gen.add_argument("--family", required=True, choices=sorted(FAMILIES))
    gen.add_argument("--n", type=int, required=True, help="total vertex count")
    gen.add_argument("--side", type=int, help="bipartite side / vertex-set size")
    gen.add_argument("--t", type=int, help="target triangle count (clique) or block size (special-four)")
    gen.add_argument("--r", type=int, help="matchings per side (g2-multi-matching)")
    gen.add_argument("--k", type=int, help="partial matching size (g2-partial-matching)")
    gen.add_argument("--shuffle", action="store_true", help="randomize vertex id placement")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="edge-list output path; sidecar goes to <out>.json")
    gen.set_defaults(func=cmd_gen)

    bench = sub.add_parser("bench", help="run the estimator over a manifest of instances and seeds")
    bench.add_argument("--manifest", required=True, help="JSON array of {path|genspec, seeds}")
    bench.add_argument("--epsilon", type=float, default=0.5)
    bench.add_argument("--budget", type=int, default=None)
    bench.add_argument("--json", action="store_true")
    bench.add_argument("--timing", action="store_true")
    bench.add_argument("--out", default=None)
    bench.set_defaults(func=cmd_bench)
    return p


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _rel_error(x: float, t: int) -> float | None:
    """|x - t| / t for an exact count t >= 0: 0.0 when t and x are both 0,
    None when only t is."""
    if t > 0:
        return abs(x - t) / t
    return 0.0 if x == 0 else None


def cmd_estimate(args) -> int:
    graph = load_edge_list(args.input)
    oracle = QueryOracle(graph, seed=args.seed, budget=args.budget)
    report = estimate(oracle, args.epsilon, seed=args.seed)
    doc = report.to_json_dict(timing=args.timing)
    if args.exact_check:
        t_true = int(count_ordered(graph).t)
        doc["exact"] = t_true
        doc["rel_error"] = _rel_error(report.estimate, t_true)
    if args.json:
        _emit(json.dumps(doc, indent=2), args.out)
        return 0
    q = doc["queries"]
    lines = [
        f"estimate: {doc['estimate']}",
        f"fallback_used: {doc['fallback_used']}",
        f"fallback_reason: {doc['fallback_reason']}",
        f"advice: m_bar={doc['advice']['m_bar']} t_bar={doc['advice']['t_bar']}",
        f"queries: degree={q['degree']} neighbor={q['neighbor']} pair={q['pair']} "
        f"vertex_samples={q['vertex_samples']} total={q['total']}",
        f"runs: {doc['runs']}",
        f"seed: {doc['seed']}",
    ]
    if args.exact_check:
        lines.append(f"exact: {doc['exact']}")
        lines.append(f"rel_error: {doc['rel_error']}")
    if args.timing:
        lines.append(f"wall_ms: {doc['wall_ms']}")
    _emit("\n".join(lines), args.out)
    return 0


def cmd_exact(args) -> int:
    graph = load_edge_list(args.input)
    stats = count_ordered(graph)
    if args.json:
        _emit(json.dumps(stats.to_json_dict(), indent=2), args.out)
    else:
        _emit(f"t={stats.t}", args.out)
    return 0


def cmd_gen(args) -> int:
    ctor, needed = FAMILIES[args.family]
    kwargs = {}
    for name in needed:
        value = getattr(args, name)
        if value is None:
            sys.stderr.write(f"error: --family {args.family} requires --{name}\n")
            return 2
        kwargs[name] = value
    if _takes_shuffle(args.family):
        kwargs["shuffle"] = args.shuffle
    result = ctor(seed=args.seed, **kwargs)
    write_edge_list(result.graph, args.out)
    sidecar = args.out + ".json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(result.sidecar_dict(), fh, indent=2)
        fh.write("\n")
    print(
        f"wrote {args.out} (+{sidecar}): family={result.family} "
        f"n={result.graph.n} m={result.graph.m} exact_t={result.exact_t}"
    )
    return 0


def _manifest_exact_t(entry: dict, graph) -> int:
    """Exact count for a manifest instance: sidecar if present, else counted."""
    sidecar = entry["path"] + ".json"
    if os.path.exists(sidecar):
        with open(sidecar, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and isinstance(doc.get("exact_t"), int):
            return doc["exact_t"]
    return int(count_ordered(graph).t)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_genspec(spec) -> None:
    """Raise ValueError unless spec names a known family with exactly its parameters."""
    if not isinstance(spec, dict):
        raise ValueError("genspec must be an object")
    family = spec.get("family")
    if not isinstance(family, str) or family not in FAMILIES:
        raise ValueError(f"unknown genspec family {family!r}")
    params = spec.get("params")
    if not isinstance(params, dict):
        raise ValueError(f"genspec {family}: params must be an object")
    _, needed = FAMILIES[family]
    missing = sorted(set(needed) - params.keys())
    extra = sorted(params.keys() - set(needed) - ({"shuffle"} if _takes_shuffle(family) else set()))
    if missing or extra:
        raise ValueError(f"genspec {family}: missing params {missing}, unexpected params {extra}")
    if not all(_is_int(params[name]) for name in needed):
        raise ValueError(f"genspec {family}: params {list(needed)} must be integers")
    if not isinstance(params.get("shuffle", False), bool):
        raise ValueError(f"genspec {family}: shuffle must be true or false")
    if not _is_int(spec.get("seed", 0)):
        raise ValueError(f"genspec {family}: seed must be an integer")


def _bench_rows(args) -> list[dict]:
    with open(args.manifest, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, list):
        raise ValueError("manifest must be a JSON array")
    rows = []
    for entry in manifest:
        if not isinstance(entry, dict):
            raise ValueError("manifest entries must be objects")
        seeds = entry.get("seeds", [0])
        if not isinstance(seeds, list) or not all(_is_int(seed) for seed in seeds):
            raise ValueError("manifest seeds must be a list of integers")
        if "path" in entry:
            source = entry["path"]
            if not isinstance(source, str):
                raise ValueError("manifest path must be a string")
            graph = load_edge_list(source)
            exact_t = _manifest_exact_t(entry, graph)
        elif "genspec" in entry:
            spec = entry["genspec"]
            _check_genspec(spec)
            ctor, _ = FAMILIES[spec["family"]]
            result = ctor(seed=spec.get("seed", 0), **spec["params"])
            graph = result.graph
            source = f"{spec['family']}{spec['params']}"
            exact_t = result.exact_t
        else:
            raise ValueError("manifest entry needs 'path' or 'genspec'")
        for seed in seeds:
            oracle = QueryOracle(graph, seed=seed, budget=args.budget)
            report = estimate(oracle, args.epsilon, seed=seed)
            rows.append(
                {
                    "source": source,
                    "seed": seed,
                    "n": graph.n,
                    "m": graph.m,
                    "exact_t": exact_t,
                    "estimate": report.estimate,
                    "rel_err": _rel_error(report.estimate, exact_t),
                    "fallback_used": report.fallback_used,
                    "runs": report.runs,
                    "queries": report.queries,
                    "wall_ms": report.wall_ms if args.timing else None,
                }
            )
    return rows


BENCH_COLUMNS = (
    "source", "seed", "n", "m", "exact_t", "estimate", "rel_err",
    "fallback_used", "runs", "degree", "neighbor", "pair",
    "vertex_samples", "total", "wall_ms",
)


def cmd_bench(args) -> int:
    rows = _bench_rows(args)
    if args.json:
        _emit(json.dumps(rows, indent=2), args.out)
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    for row in rows:
        flat = dict(row)
        flat.update(row["queries"])
        writer.writerow(["" if flat.get(c) is None else flat.get(c) for c in BENCH_COLUMNS])
    _emit(buf.getvalue(), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, GraphFormatError, json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except Exception as exc:  # anything else is a bug in this package
        sys.stderr.write(f"internal error: {exc!r}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
