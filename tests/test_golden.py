"""Golden values: seeded outputs pinned exactly.

Each case runs the estimator, one advice run or the classifier on a small
fixed instance with a fixed seed and compares every output (floats included)
for exact equality with values recorded from an earlier revision. A change
that alters any seeded output, even by one RNG draw or one charged query,
fails here; such a change must update these values and say so as a
behaviour change.

The cases cover budget trips that end in the exact fallback, a
triangle-free graph whose search descends to the fallback under a budget it
never reaches, and skewed or dense graphs where d_u^2 > m_bar, so probes
take r > 1 draws. The `subtri exact` digests pin the exact counter's CLI
bytes on a regular graph, a skewed graph with isolated trailing vertices
and a triangle-free graph.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from subtri import (
    HEAVY,
    LIGHT,
    EstimatorParams,
    Graph,
    HeavyParams,
    QueryOracle,
    classify_heavy,
    estimate,
    estimate_with_advice,
    gen_clique_family,
    gen_g1_bipartite,
    gen_g2_matching,
    write_edge_list,
)
from subtri.cli import main
from util import complete_graph, gnp_graph, wheel_like_graph


def skewed_graph(n: int = 2000, pairs: int = 20000, seed: int = 11) -> Graph:
    """Chung-Lu-style graph with a heavy degree tail (weights (i+5)^-0.8)."""
    rng = np.random.default_rng(seed)
    w = (np.arange(n, dtype=np.float64) + 5.0) ** -0.8
    p = w / w.sum()
    u = rng.choice(n, size=pairs, p=p)
    v = rng.choice(n, size=pairs, p=p)
    keep = u != v
    keys = np.unique(np.minimum(u[keep], v[keep]) * n + np.maximum(u[keep], v[keep]))
    return Graph.from_edges(n, np.stack([keys // n, keys % n], axis=1))


GRAPHS = {
    "g2-side64": lambda: gen_g2_matching(256, 64, seed=3).graph,
    "clique-n3000": lambda: gen_clique_family(3000, 1000, seed=2).graph,
    "bipartite-side6": lambda: gen_g1_bipartite(12, 6, seed=0).graph,
    "k12": lambda: complete_graph(12),
    "k40": lambda: complete_graph(40),
    "skewed": skewed_graph,
    "gnp": lambda: gnp_graph(200, 0.3, seed=4),
    "wheel": lambda: wheel_like_graph()[0],
}


def report_fields(report) -> dict:
    return {
        "estimate": report.estimate,
        "queries": report.queries,
        "runs": report.runs,
        "t_bar": report.t_bar,
        "fallback_used": report.fallback_used,
        "fallback_reason": report.fallback_reason,
    }


# (graph, oracle budget or None, seed)
ESTIMATE_CASES = [
    ("g2-side64", None, 0),
    ("skewed", None, 0),
    ("k40", None, 0),
    ("gnp", None, 1),
    ("clique-n3000", None, 1),
    ("bipartite-side6", None, 0),
    ("bipartite-side6", 10**6, 0),
    ("skewed", 3000, 3),
    ("gnp", 40, 1),
]


def run_estimate(name, budget, seed) -> dict:
    oracle = QueryOracle(GRAPHS[name](), seed=seed, budget=budget)
    return report_fields(estimate(oracle, 0.5, EstimatorParams.practical(), seed=seed))


# (graph, m_bar, t_bar, profile, seeds sharing one verdict cache)
ADVICE_CASES = [
    ("k12", 66.0, 880.0, "theoretical", (0,)),
    ("k40", 780.0, 16000.0, "practical", (1, 2)),
    ("wheel", 99.0, 81.0, "practical", (3, 4)),
    ("skewed", 18000.0, 30000.0, "practical", (4, 5)),
    ("gnp", 6000.0, 30000.0, "practical", (6,)),
]


def run_advice(name, m_bar, t_bar, profile, seeds) -> dict:
    params = getattr(EstimatorParams, profile)()
    oracle = QueryOracle(GRAPHS[name](), seed=seeds[0])
    cache: dict = {}
    values = [
        estimate_with_advice(oracle, m_bar, t_bar, 0.5, params, seed=s, verdict_cache=cache)
        for s in seeds
    ]
    return {
        "values": values,
        "stats": oracle.stats.to_dict(),
        "heavy": sorted(v for v, verdict in cache.items() if verdict == HEAVY),
        "light": sorted(v for v, verdict in cache.items() if verdict == LIGHT),
    }


# (graph, vertex, m_bar, t_bar, HeavyParams fields, rng seed)
CLASSIFY_CASES = [
    ("wheel", 18, 99.0, 81.0, {"outer_reps": 5, "s_scale": 0.25}, 1),
    ("wheel", 0, 99.0, 81.0, {"outer_reps": 5, "s_scale": 0.25}, 2),
    ("wheel", 18, 99.0, 10000.0, {}, 0),
    ("k40", 3, 780.0, 4000.0, {"outer_reps": 4, "s_scale": 0.05}, 3),
    ("skewed", 0, 18000.0, 30000.0, {"outer_reps": 3, "s_scale": 1 / 64, "s_floor": 8}, 4),
    ("skewed", 1500, 18000.0, 30000.0, {"outer_reps": 3, "s_scale": 1 / 64, "s_floor": 8}, 5),
    ("gnp", 10, 6000.0, 30000.0, {"outer_reps": 3, "s_scale": 1 / 64}, 6),
]


def run_classify(name, v, m_bar, t_bar, fields, seed) -> dict:
    oracle = QueryOracle(GRAPHS[name](), seed=0)
    hv = classify_heavy(oracle, v, m_bar, t_bar, 0.5, HeavyParams(**fields), random.Random(seed))
    return {"verdict": hv.verdict, "medians": list(hv.medians), "queries_used": hv.queries_used}


def run_cli(tmp_path, capsys) -> dict:
    path = tmp_path / "skewed.edges"
    write_edge_list(skewed_graph(), path)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([
        {"genspec": {"family": "g2-matching", "params": {"n": 256, "side": 64}, "seed": 1},
         "seeds": [0, 1]},
        {"genspec": {"family": "clique", "params": {"n": 3000, "t": 1000}, "seed": 2},
         "seeds": [4]},
    ]))
    digests = {}
    for key, argv in {
        "estimate-json": ["estimate", "--input", str(path), "--json", "--seed", "7"],
        "estimate-plain": ["estimate", "--input", str(path), "--seed", "8", "--exact-check"],
        "bench-csv": ["bench", "--manifest", str(manifest)],
    }.items():
        assert main(argv) == 0
        digests[key] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    return digests


EXACT_GRAPHS = {
    "g2-side128": lambda: gen_g2_matching(512, 128, seed=1).graph,
    # The header declares 50 more vertices than the largest id, so the
    # trailing vertices are isolated.
    "skewed-padded": lambda: Graph.from_edges(2050, list(skewed_graph().edges())),
    "bipartite-side20": lambda: gen_g1_bipartite(40, 20, seed=0).graph,
}


def run_exact_cli(tmp_path, capsys) -> dict:
    digests = {}
    for name, build in EXACT_GRAPHS.items():
        path = tmp_path / f"{name}.edges"
        write_edge_list(build(), path)
        for mode, extra in (("json", ["--json"]), ("plain", [])):
            assert main(["exact", "--input", str(path), *extra]) == 0
            out = capsys.readouterr().out
            digests[f"{name}-{mode}"] = hashlib.sha256(out.encode()).hexdigest()
    return digests


# Recorded from the batched s2 stage: one numpy Generator per advice run.
GOLDEN_ESTIMATE = {('g2-side64', None, 0): {'estimate': 8876.380997404745,
                          'queries': {'degree': 256,
                                      'neighbor': 8113,
                                      'pair': 3089,
                                      'vertex_samples': 25288,
                                      'total': 11458},
                          'runs': 26,
                          't_bar': 4096.0,
                          'fallback_used': False,
                          'fallback_reason': None},
 ('skewed', None, 0): {'estimate': 33708.42444387377,
                       'queries': {'degree': 2000,
                                   'neighbor': 8368,
                                   'pair': 3416,
                                   'vertex_samples': 109593,
                                   'total': 13784},
                       'runs': 38,
                       't_bar': 30517.578125,
                       'fallback_used': False,
                       'fallback_reason': None},
 ('k40', None, 0): {'estimate': 9880.0,
                    'queries': {'degree': 40,
                                'neighbor': 1226,
                                'pair': 334,
                                'vertex_samples': 5115,
                                'total': 1600},
                    'runs': 7,
                    't_bar': None,
                    'fallback_used': True,
                    'fallback_reason': 'budget'},
 ('gnp', None, 1): {'estimate': 34604.52776338083,
                    'queries': {'degree': 200,
                                'neighbor': 6086,
                                'pair': 3459,
                                'vertex_samples': 18357,
                                'total': 9745},
                    'runs': 20,
                    't_bar': 15625.0,
                    'fallback_used': False,
                    'fallback_reason': None},
 ('clique-n3000', None, 1): {'estimate': 120.0,
                             'queries': {'degree': 3000,
                                         'neighbor': 56,
                                         'pair': 18,
                                         'vertex_samples': 185846,
                                         'total': 3074},
                             'runs': 44,
                             't_bar': None,
                             'fallback_used': True,
                             'fallback_reason': 'budget'},
 ('bipartite-side6', None, 0): {'estimate': 0.0,
                                'queries': {'degree': 12,
                                            'neighbor': 59,
                                            'pair': 13,
                                            'vertex_samples': 2806,
                                            'total': 84},
                                'runs': 15,
                                't_bar': None,
                                'fallback_used': True,
                                'fallback_reason': 'budget'},
 ('bipartite-side6', 1000000, 0): {'estimate': 0.0,
                                   'queries': {'degree': 12,
                                               'neighbor': 72,
                                               'pair': 15,
                                               'vertex_samples': 4052,
                                               'total': 99},
                                   'runs': 22,
                                   't_bar': None,
                                   'fallback_used': True,
                                   'fallback_reason': 'descent_exhausted'},
 ('skewed', 3000, 3): {'estimate': 33741.0,
                       'queries': {'degree': 2000,
                                   'neighbor': 2122,
                                   'pair': 878,
                                   'vertex_samples': 91681,
                                   'total': 5000},
                       'runs': 32,
                       't_bar': None,
                       'fallback_used': True,
                       'fallback_reason': 'budget'},
 ('gnp', 40, 1): {'estimate': 36421.0,
                  'queries': {'degree': 200,
                              'neighbor': 27,
                              'pair': 13,
                              'vertex_samples': 15217,
                              'total': 240},
                  'runs': 3,
                  't_bar': None,
                  'fallback_used': True,
                  'fallback_reason': 'budget'}}
GOLDEN_ADVICE = {('k12', 66.0, 880.0, 'theoretical', (0,)): {'values': [245.96721311475392],
                                             'stats': {'degree': 12,
                                                       'neighbor': 132,
                                                       'pair': 5,
                                                       'vertex_samples': 32,
                                                       'total': 149},
                                             'heavy': [],
                                             'light': [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]},
 ('k40', 780.0, 16000.0, 'practical', (1, 2)): {'values': [10140.0, 3380.0],
                                                'stats': {'degree': 40,
                                                          'neighbor': 403,
                                                          'pair': 183,
                                                          'vertex_samples': 112,
                                                          'total': 626},
                                                'heavy': [32, 34],
                                                'light': [12, 13, 15, 28, 29, 37]},
 ('wheel', 99.0, 81.0, 'practical', (3, 4)): {'values': [28.988970588235293, 59.375],
                                              'stats': {'degree': 19,
                                                        'neighbor': 155,
                                                        'pair': 40,
                                                        'vertex_samples': 256,
                                                        'total': 214},
                                              'heavy': [18],
                                              'light': [0, 1, 4, 10, 13, 17]},
 ('skewed', 18000.0, 30000.0, 'practical', (4, 5)): {'values': [40510.51981152123,
                                                                40318.01552380513],
                                                     'stats': {'degree': 1987,
                                                               'neighbor': 4124,
                                                               'pair': 1659,
                                                               'vertex_samples': 8542,
                                                               'total': 7770},
                                                     'heavy': [0, 1, 3, 5, 6, 7, 8, 10, 12, 15],
                                                     'light': [2, 4, 9, 13, 16, 19, 21, 22, 25, 26,
                                                               29, 32, 34, 36, 39, 43, 47, 48, 54,
                                                               55, 56, 58, 65, 66, 72, 74, 85, 93,
                                                               108, 109, 139, 147, 149, 182, 183,
                                                               185, 187, 197, 218, 253, 275, 284,
                                                               291, 304, 314, 336, 399, 422, 447,
                                                               454, 507, 567, 716, 940, 1127, 1547,
                                                               1895]},
 ('gnp', 6000.0, 30000.0, 'practical', (6,)): {'values': [35436.87249463765],
                                               'stats': {'degree': 198,
                                                         'neighbor': 961,
                                                         'pair': 545,
                                                         'vertex_samples': 309,
                                                         'total': 1704},
                                               'heavy': [],
                                               'light': [7, 15, 21, 29, 30, 37, 49, 59, 64, 68, 78,
                                                         79, 83, 92, 96, 146, 160, 164, 165, 169,
                                                         170, 178, 194]}}
GOLDEN_CLASSIFY = {('wheel', 18, 99.0, 81.0, 1): {'verdict': 'heavy',
                                'medians': [78.19672131147541, 84.8360655737705,
                                            78.56557377049181, 81.14754098360656,
                                            91.10655737704919],
                                'queries_used': 229},
 ('wheel', 0, 99.0, 81.0, 2): {'verdict': 'light',
                               'medians': [9.01639344262295, 10.860655737704919,
                                           9.426229508196721, 8.19672131147541,
                                           9.836065573770492],
                               'queries_used': 66},
 ('wheel', 18, 99.0, 10000.0, 0): {'verdict': 'heavy', 'medians': [], 'queries_used': 1},
 ('k40', 3, 780.0, 4000.0, 3): {'verdict': 'heavy',
                                'medians': [795.0681818181819, 587.6590909090909,
                                            587.6590909090909, 622.2272727272727],
                                'queries_used': 230},
 ('skewed', 0, 18000.0, 30000.0, 4): {'verdict': 'heavy',
                                      'medians': [5683.188118811881, 4647.6732673267325,
                                                  5007.564356435643],
                                      'queries_used': 1017},
 ('skewed', 1500, 18000.0, 30000.0, 5): {'verdict': 'light',
                                         'medians': [0.0, 0.0, 0.0],
                                         'queries_used': 6},
 ('gnp', 10, 6000.0, 30000.0, 6): {'verdict': 'light',
                                   'medians': [908.9, 518.5, 186.05],
                                   'queries_used': 174}}
GOLDEN_CLI = {'estimate-json': '9c8fc3f9142d7c4ef5d79dd4883b3e98f5a43d055cc0828a24db2f14d5348a66',
 'estimate-plain': '0d7677d3473abb5ec919c64d99c12e34d8774bee318e482e41c8c6aef7da9ec0',
 'bench-csv': 'cdfede004d272a7da8cddd1ce85759dbca586fa9db789f9d505639f4a9ccbc08'}

# Recorded from the revision before the vectorized exact counter.
GOLDEN_EXACT_CLI = {
    "g2-side128-json": "00ed4b106852bcc62a7d1ed61444d3bd1182d5f297c261c4dea6736a47fe245e",
    "g2-side128-plain": "97a89b7db16ac6f86b76653e6fc68c5ccc92deb526e7bfb22816ac135080ccf9",
    "skewed-padded-json": "28f2dd8ecb34c9663ec70873c8e8b924a7ed7f9a64da6f181ed21704a3b2f26f",
    "skewed-padded-plain": "e1055bf79fb1a845968a2b83401f50c40ad1e84f61e6c91e5bb6aac63510da6a",
    "bipartite-side20-json": "3805720e14af85020b99ec82a686ca3a1f550e813b5dadf8e048538783942aa6",
    "bipartite-side20-plain": "e96a98664492c75e6a8e9d64b025b1c50a89d445a57968be4be6fba22ff637e6",
}


@pytest.mark.parametrize("case", ESTIMATE_CASES, ids=str)
def test_estimate_report(case):
    assert run_estimate(*case) == GOLDEN_ESTIMATE[case]


@pytest.mark.parametrize("case", ADVICE_CASES, ids=str)
def test_advice_run(case):
    assert run_advice(*case) == GOLDEN_ADVICE[case]


@pytest.mark.parametrize("case", CLASSIFY_CASES, ids=str)
def test_classifier(case):
    key = case[:4] + (case[5],)
    assert run_classify(*case) == GOLDEN_CLASSIFY[key]


@pytest.mark.parametrize(
    "name, budget, seed, eps, reason",
    [
        ("skewed", 3000, 3, 0.5, "budget"),
        ("skewed", None, 0, 1e-5, "run_size"),
        ("bipartite-side6", 10**6, 0, 0.5, "descent_exhausted"),
        ("skewed", None, 0, 0.5, None),
    ],
)
def test_fallback_reason(name, budget, seed, eps, reason):
    oracle = QueryOracle(GRAPHS[name](), seed=seed, budget=budget)
    report = estimate(oracle, eps, EstimatorParams.practical(), seed=seed)
    assert report.fallback_reason == reason
    assert report.fallback_used == (reason is not None)


def test_cli_bytes(tmp_path, capsys):
    assert run_cli(tmp_path, capsys) == GOLDEN_CLI


def test_exact_cli_bytes(tmp_path, capsys):
    assert run_exact_cli(tmp_path, capsys) == GOLDEN_EXACT_CLI
