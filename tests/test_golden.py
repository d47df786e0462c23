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

import numpy as np
import pytest

from subtri.cli import main
from subtri.estimator import EstimatorParams, estimate, estimate_with_advice
from subtri.graph_store import Graph, write_edge_list
from subtri.heavy import HEAVY, LIGHT, HeavyParams, classify_heavy
from subtri.lb_gen import gen_clique_family, gen_g1_bipartite, gen_g2_matching
from subtri.query_oracle import QueryOracle
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
    # s1 = 189 < n = 200 here, so these runs draw S and call the classifier;
    # every case above has s1 >= n and reads V.
    ("gnp", 6000.0, 131072.0, "practical", (7, 8)),
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
    rng = np.random.default_rng(seed)
    hv = classify_heavy(oracle, v, m_bar, t_bar, 0.5, HeavyParams(**fields), rng)
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


# Recorded from the batched classifier drawing from its run's Generator,
# with one classifier call per block of an advice run's samples, on rows
# stored by ascending neighbor id, with the classifier sampling through the
# advice run's edge-probe kernel (thinned samples included), with each
# pair query charged the first time its pair is asked, and with each t_bar
# level stopping at its first run below t_bar.
GOLDEN_ESTIMATE = {('g2-side64', None, 0): {'estimate': 8879.702996281021,
                          'queries': {'degree': 256,
                                      'neighbor': 3096,
                                      'pair': 1239,
                                      'vertex_samples': 411,
                                      'total': 4591},
                          'runs': 8,
                          't_bar': 5461.333333333334,
                          'fallback_used': False,
                          'fallback_reason': None},
 ('skewed', None, 0): {'estimate': 25966.571740601215,
                       'queries': {'degree': 2000,
                                   'neighbor': 4308,
                                   'pair': 710,
                                   'vertex_samples': 4833,
                                   'total': 7018},
                       'runs': 8,
                       't_bar': 18442.500996844465,
                       'fallback_used': False,
                       'fallback_reason': None},
 ('k40', None, 0): {'estimate': 6937.894736842104,
                    'queries': {'degree': 40,
                                'neighbor': 169,
                                'pair': 116,
                                'vertex_samples': 0,
                                'total': 325},
                    'runs': 5,
                    't_bar': 2567.294295557095,
                    'fallback_used': False,
                    'fallback_reason': None},
 ('gnp', None, 1): {'estimate': 32432.76467799898,
                    'queries': {'degree': 200,
                                'neighbor': 472,
                                'pair': 210,
                                'vertex_samples': 159,
                                'total': 882},
                    'runs': 5,
                    't_bar': 27591.780365717615,
                    'fallback_used': False,
                    'fallback_reason': None},
 ('clique-n3000', None, 1): {'estimate': 120.0,
                             'queries': {'degree': 3000,
                                         'neighbor': 68,
                                         'pair': 22,
                                         'vertex_samples': 0,
                                         'total': 3090},
                             'runs': 1,
                             't_bar': None,
                             'fallback_used': True,
                             'fallback_reason': 'budget'},
 ('bipartite-side6', None, 0): {'estimate': 0.0,
                                'queries': {'degree': 12,
                                            'neighbor': 59,
                                            'pair': 13,
                                            'vertex_samples': 0,
                                            'total': 84},
                                'runs': 4,
                                't_bar': None,
                                'fallback_used': True,
                                'fallback_reason': 'budget'},
 ('bipartite-side6', 1000000, 0): {'estimate': 0.0,
                                   'queries': {'degree': 12,
                                               'neighbor': 71,
                                               'pair': 15,
                                               'vertex_samples': 0,
                                               'total': 98},
                                   'runs': 7,
                                   't_bar': None,
                                   'fallback_used': True,
                                   'fallback_reason': 'descent_exhausted'},
 ('skewed', 3000, 3): {'estimate': 33741.0,
                       'queries': {'degree': 2000,
                                   'neighbor': 2651,
                                   'pair': 349,
                                   'vertex_samples': 4833,
                                   'total': 5000},
                       'runs': 6,
                       't_bar': None,
                       'fallback_used': True,
                       'fallback_reason': 'budget'},
 ('gnp', 40, 1): {'estimate': 36421.0,
                  'queries': {'degree': 200,
                              'neighbor': 34,
                              'pair': 6,
                              'vertex_samples': 159,
                              'total': 240},
                  'runs': 0,
                  't_bar': None,
                  'fallback_used': True,
                  'fallback_reason': 'budget'}}
GOLDEN_ADVICE = {('k12', 66.0, 880.0, 'theoretical', (0,)): {'values': [218.19672131147536],
                                             'stats': {'degree': 12,
                                                       'neighbor': 81,
                                                       'pair': 44,
                                                       'vertex_samples': 0,
                                                       'total': 137},
                                             'heavy': [],
                                             'light': []},
 ('k40', 780.0, 16000.0, 'practical', (1, 2)): {'values': [13520.0, 6760.0],
                                                'stats': {'degree': 40,
                                                          'neighbor': 18,
                                                          'pair': 12,
                                                          'vertex_samples': 0,
                                                          'total': 70},
                                                'heavy': [],
                                                'light': []},
 ('wheel', 99.0, 81.0, 'practical', (3, 4)): {'values': [77.6470588235294,
                                                         77.6470588235294],
                                              'stats': {'degree': 19,
                                                        'neighbor': 73,
                                                        'pair': 42,
                                                        'vertex_samples': 0,
                                                        'total': 134},
                                              'heavy': [],
                                              'light': []},
 ('skewed', 18000.0, 30000.0, 'practical', (4, 5)): {'values': [45446.2621248701,
                                                                37020.318693184665],
                                                     'stats': {'degree': 2000,
                                                               'neighbor': 1748,
                                                               'pair': 302,
                                                               'vertex_samples': 0,
                                                               'total': 4050},
                                                     'heavy': [],
                                                     'light': []},
 ('gnp', 6000.0, 30000.0, 'practical', (6,)): {'values': [22241.99007393402],
                                               'stats': {'degree': 200,
                                                         'neighbor': 118,
                                                         'pair': 48,
                                                         'vertex_samples': 0,
                                                         'total': 366},
                                               'heavy': [],
                                               'light': []},
 ('gnp', 6000.0, 131072.0, 'practical', (7, 8)): {'values': [19448.592297158844,
                                                             115933.35069401302],
                                                  'stats': {'degree': 200,
                                                            'neighbor': 743,
                                                            'pair': 384,
                                                            'vertex_samples': 378,
                                                            'total': 1327},
                                                  'heavy': [],
                                                  'light': [38,
                                                            41,
                                                            44,
                                                            63,
                                                            69,
                                                            78,
                                                            81,
                                                            83,
                                                            92,
                                                            95,
                                                            100,
                                                            139,
                                                            141,
                                                            159,
                                                            160,
                                                            161,
                                                            166,
                                                            179,
                                                            182,
                                                            187,
                                                            198]}}
GOLDEN_CLASSIFY = {('wheel', 18, 99.0, 81.0, 1): {'verdict': 'heavy',
                                'medians': [80.04098360655738,
                                            78.56557377049181,
                                            93.31967213114754,
                                            85.57377049180327,
                                            80.04098360655738],
                                'queries_used': 235},
 ('wheel', 0, 99.0, 81.0, 2): {'verdict': 'light',
                               'medians': [7.786885245901639,
                                           8.811475409836065,
                                           8.19672131147541,
                                           9.221311475409836,
                                           8.811475409836065],
                               'queries_used': 66},
 ('wheel', 18, 99.0, 10000.0, 0): {'verdict': 'heavy',
                                   'medians': [],
                                   'queries_used': 1},
 ('k40', 3, 780.0, 4000.0, 3): {'verdict': 'heavy',
                                'medians': [829.6363636363636,
                                            587.6590909090909,
                                            864.2045454545455,
                                            656.7954545454545],
                                'queries_used': 243},
 ('skewed', 0, 18000.0, 30000.0, 4): {'verdict': 'heavy',
                                      'medians': [592.4473176029145,
                                                  3554.683905617487,
                                                  3657.7316375195232],
                                      'queries_used': 623},
 ('skewed', 1500, 18000.0, 30000.0, 5): {'verdict': 'light',
                                         'medians': [0.0, 0.0, 0.0],
                                         'queries_used': 6},
 ('gnp', 10, 6000.0, 30000.0, 6): {'verdict': 'light',
                                   'medians': [708.7559523559573,
                                               236.25198411865244,
                                               472.5039682373049],
                                   'queries_used': 140}}
GOLDEN_CLI = {'estimate-json': 'c47c838485e870e488a50ad0148683688987b0611397cf2ccde4132f530d8ac4',
 'estimate-plain': '6ea2ab08be24261b6a940695dd7515cc82c769bf4dd7311e1966e88c7bb7c049',
 'bench-csv': '7d94c4a47d267d1746e5cf50458869ea81434f6b60e32ee41364aee62ab41416'}

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
