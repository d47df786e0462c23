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


# Recorded from the single-descent t_bar search.
GOLDEN_ESTIMATE = {('g2-side64', None, 0): {'estimate': 6379.898841884663,
                                            'queries': {'degree': 256,
                                                        'neighbor': 7889,
                                                        'pair': 3073,
                                                        'vertex_samples': 25288,
                                                        'total': 11218},
                                            'runs': 26,
                                            't_bar': 4096.0,
                                            'fallback_used': False},
                   ('skewed', None, 0): {'estimate': 35464.4843562365,
                                         'queries': {'degree': 2000,
                                                     'neighbor': 8524,
                                                     'pair': 3546,
                                                     'vertex_samples': 109593,
                                                     'total': 14070},
                                         'runs': 38,
                                         't_bar': 30517.578125,
                                         'fallback_used': False},
                   ('k40', None, 0): {'estimate': 9880.0,
                                      'queries': {'degree': 40,
                                                  'neighbor': 1242,
                                                  'pair': 318,
                                                  'vertex_samples': 5115,
                                                  'total': 1600},
                                      'runs': 7,
                                      't_bar': None,
                                      'fallback_used': True},
                   ('gnp', None, 1): {'estimate': 32117.626953601593,
                                      'queries': {'degree': 200,
                                                  'neighbor': 3562,
                                                  'pair': 1981,
                                                  'vertex_samples': 17589,
                                                  'total': 5743},
                                      'runs': 18,
                                      't_bar': 31250.0,
                                      'fallback_used': False},
                   ('clique-n3000', None, 1): {'estimate': 120.0,
                                               'queries': {'degree': 3000,
                                                           'neighbor': 55,
                                                           'pair': 19,
                                                           'vertex_samples': 211212,
                                                           'total': 3074},
                                               'runs': 46,
                                               't_bar': None,
                                               'fallback_used': True},
                   ('bipartite-side6', None, 0): {'estimate': 0.0,
                                                  'queries': {'degree': 12,
                                                              'neighbor': 57,
                                                              'pair': 15,
                                                              'vertex_samples': 2968,
                                                              'total': 84},
                                                  'runs': 16,
                                                  't_bar': None,
                                                  'fallback_used': True},
                   ('bipartite-side6', 1000000, 0): {'estimate': 0.0,
                                                     'queries': {'degree': 12,
                                                                 'neighbor': 72,
                                                                 'pair': 15,
                                                                 'vertex_samples': 4052,
                                                                 'total': 99},
                                                     'runs': 22,
                                                     't_bar': None,
                                                     'fallback_used': True},
                   ('skewed', 3000, 3): {'estimate': 33741.0,
                                         'queries': {'degree': 2000,
                                                     'neighbor': 2125,
                                                     'pair': 875,
                                                     'vertex_samples': 94357,
                                                     'total': 5000},
                                         'runs': 33,
                                         't_bar': None,
                                         'fallback_used': True},
                   ('gnp', 40, 1): {'estimate': 36421.0,
                                    'queries': {'degree': 200,
                                                'neighbor': 28,
                                                'pair': 12,
                                                'vertex_samples': 15563,
                                                'total': 240},
                                    'runs': 7,
                                    't_bar': None,
                                    'fallback_used': True}}
GOLDEN_ADVICE = {('k12', 66.0, 880.0, 'theoretical', (0,)): {'values': [210.26229508196724],
                                             'stats': {'degree': 12,
                                                       'neighbor': 132,
                                                       'pair': 52,
                                                       'vertex_samples': 32,
                                                       'total': 196},
                                             'heavy': [],
                                             'light': [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]},
 ('k40', 780.0, 16000.0, 'practical', (1, 2)): {'values': [8450.0, 18590.0],
                                                'stats': {'degree': 40,
                                                          'neighbor': 680,
                                                          'pair': 223,
                                                          'vertex_samples': 112,
                                                          'total': 943},
                                                'heavy': [21, 30, 32, 35],
                                                'light': [0, 5, 14, 18, 19, 25, 33, 34, 36, 37,
                                                          39]},
 ('wheel', 99.0, 81.0, 'practical', (3, 4)): {'values': [86.96691176470588, 0.0],
                                              'stats': {'degree': 19,
                                                        'neighbor': 164,
                                                        'pair': 48,
                                                        'vertex_samples': 256,
                                                        'total': 231},
                                              'heavy': [18],
                                              'light': [3, 5, 6, 7, 8, 9, 13, 14, 16, 17]},
 ('skewed', 18000.0, 30000.0, 'practical', (4, 5)): {'values': [28641.5532392273,
                                                                21886.922712922784],
                                                     'stats': {'degree': 1984,
                                                               'neighbor': 3695,
                                                               'pair': 1418,
                                                               'vertex_samples': 8542,
                                                               'total': 7097},
                                                     'heavy': [0, 1, 3, 5, 6, 7, 10],
                                                     'light': [2, 4, 8, 9, 11, 12, 14, 17, 19,
                                                               20, 21, 23, 25, 26, 27, 28, 31,
                                                               33, 35, 37, 40, 42, 46, 53, 75,
                                                               93, 103, 126, 129, 145, 165, 173,
                                                               212, 219, 235, 275, 322, 333,
                                                               354, 520, 563, 606, 613, 792,
                                                               852, 1249, 1361, 1448]},
 ('gnp', 6000.0, 30000.0, 'practical', (6,)): {'values': [22148.045309148532],
                                               'stats': {'degree': 195,
                                                         'neighbor': 675,
                                                         'pair': 363,
                                                         'vertex_samples': 309,
                                                         'total': 1233},
                                               'heavy': [],
                                               'light': [1, 14, 19, 28, 40, 46, 60, 81, 83, 101,
                                                         116, 169, 172, 185, 189]}}
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
GOLDEN_CLI = {'estimate-json': 'b94b822831b78fa5906fad301e9e977aa7a7c66d7dafa78d2187f2d65b1731b6',
 'estimate-plain': '249d8ad9400fe22ca179f4c7f56b3275dddee222a904980b8a5ccc03110716db',
 'bench-csv': '81a5969dce29cc03aed6eb5aeefd608c062a9ab82ea8059a70da50e8c9070954'}


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


def test_cli_bytes(tmp_path, capsys):
    assert run_cli(tmp_path, capsys) == GOLDEN_CLI


def test_exact_cli_bytes(tmp_path, capsys):
    assert run_exact_cli(tmp_path, capsys) == GOLDEN_EXACT_CLI
