"""Acceptance gate: ten end-to-end criteria, one test per criterion.

Each test prints one machine-greppable line of the form

    ACCEPTANCE <k> (<name>): PASS|FAIL [<detail>]

before asserting, so a full run leaves a scoreboard even under output
capture (the lines bypass it). Criteria 5 and 6 deposit their per-trial
budget readings into a shared evidence list that criterion 8 audits; when
criterion 8 runs on its own it regenerates a small evidence set first.
"""

import math
import statistics
import time

import numpy as np
import pytest

from subtri import (
    HEAVY,
    LIGHT,
    EstimatorParams,
    HeavyParams,
    QueryOracle,
    classify_heavy,
    count_brute,
    count_ordered,
    degree_cutoff,
    estimate,
    estimate_with_advice,
    feige_avg_degree,
    gen_clique_family,
    gen_g1_bipartite,
    gen_g2_matching,
    gen_g2_multi_matching,
    gen_g2_partial_matching,
    gen_special_four,
    label_ground_truth,
)
from util import complete_graph, gnp_graph, wheel_like_graph

# (charged, cap) pairs deposited by criteria 5 and 6, audited by criterion 8.
_BUDGET_EVIDENCE: list[tuple[int, int]] = []

# Exact counts computed by criterion 1, reused by criterion 2.
_COUNTS: dict[int, object] = {}

GNP_COMBOS = [(n, p) for n in (20, 50, 200) for p in (0.05, 0.2, 0.5)]


def _report(capfd, num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    with capfd.disabled():
        print(line, flush=True)


@pytest.fixture(scope="module")
def gnp_corpus():
    """100 random graphs cycling over three sizes and three densities."""
    corpus = []
    for seed in range(100):
        n, p = GNP_COMBOS[seed % len(GNP_COMBOS)]
        corpus.append((seed, gnp_graph(n, p, seed)))
    return corpus


def test_criterion_1_exact_counters_agree(gnp_corpus, capfd):
    start = time.perf_counter()
    mismatches = 0
    for seed, g in gnp_corpus:
        a = count_brute(g)
        b = count_ordered(g)
        _COUNTS[seed] = b
        if not (a.t == b.t and np.array_equal(a.t_v, b.t_v) and a.t_e == b.t_e):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    detail = f"100 instances, {mismatches} mismatches, {elapsed:.1f}s (budget 30s)"
    _report(capfd, 1, "exact counters agree", ok, detail)
    assert ok, detail


def test_criterion_2_count_identities(gnp_corpus, capfd):
    violations = 0
    for seed, g in gnp_corpus:
        stats = _COUNTS.get(seed) or count_ordered(g)
        per_vertex = np.zeros(g.n, dtype=np.int64)
        for (v, _), c in stats.t_e.items():
            per_vertex[v] += c
        bound = math.isqrt(2 * g.m)
        checks = (
            int(stats.t_v.sum()) == 3 * stats.t,
            np.array_equal(per_vertex, stats.t_v),
            all(c <= bound for c in stats.t_e.values()),
            stats.t <= (4.0 / 3.0) * g.m**1.5,
        )
        if not all(checks):
            violations += 1
    ok = violations == 0
    detail = f"100 instances, 4 identities each, {violations} violations"
    _report(capfd, 2, "count identities", ok, detail)
    assert ok, detail


def test_criterion_3_generator_certificates(capfd):
    start = time.perf_counter()
    bad = 0
    for seed in range(20):
        checks = []
        res = gen_g2_matching(40, 10, seed=seed)
        checks.append(res.exact_t == 160 and count_ordered(res.graph).t == 160)
        res = gen_g2_partial_matching(32, 16, 4, seed=seed)
        checks.append(res.exact_t == 56 and count_ordered(res.graph).t == 56)
        res = gen_special_four(32, 8, 2, seed=seed)
        checks.append(res.exact_t == 8 and count_ordered(res.graph).t == 8)
        res = gen_special_four(32, 8, 2, seed=seed, special=False)
        checks.append(res.exact_t == 0 and count_ordered(res.graph).t == 0)
        res = gen_g2_multi_matching(32, 16, 2, seed=seed)
        checks.append(384 <= res.exact_t <= 512 and count_ordered(res.graph).t == res.exact_t)
        if not all(checks):
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 10.0
    detail = f"5 families x 20 seeds, {bad} bad seeds, {elapsed:.1f}s (budget 10s)"
    _report(capfd, 3, "generator certificates", ok, detail)
    assert ok, detail


def _expected_advice_estimate(graph, verdict_of) -> float:
    """Closed-form E[X] for fixed verdicts, by enumerating every probe path.

    Sums 1/ell over ordered adjacent pairs (v, x) and probe targets w that
    form an oriented hit (w adjacent to both, x before w in the vertex
    order), skipping pairs whose anchor v is heavy. Both probe-count
    branches (Bernoulli and ceil) leave this expectation unchanged.
    """
    total = 0.0
    for v in range(graph.n):
        for x in map(int, graph.neighbors(v)):
            u, o = (x, v) if graph.precedes(x, v) else (v, x)
            for w in map(int, graph.neighbors(u)):
                if w == v or w == x:
                    continue
                if not graph.has_edge(o, w):
                    continue
                if not graph.precedes(x, w):
                    continue
                verdicts = (verdict_of(v), verdict_of(x), verdict_of(w))
                if verdicts[0] == HEAVY:
                    continue
                total += 1.0 / sum(1 for val in verdicts if val == LIGHT)
    return total


def test_criterion_4_advice_estimator_expectation(capfd):
    start = time.perf_counter()
    g = complete_graph(4)
    m_bar = t_bar = 1.0
    eps = 0.5
    # With this advice every K4 vertex trips the degree shortcut, so the
    # verdicts are deterministic and the exact expectation is enumerable.
    cutoff = degree_cutoff(m_bar, t_bar, eps)
    assert all(g.degree(v) > cutoff for v in range(4))
    expected = _expected_advice_estimate(g, lambda v: HEAVY)
    sanity = _expected_advice_estimate(g, lambda v: LIGHT)
    params = EstimatorParams.theoretical()
    xs = []
    for seed in range(1000):
        o = QueryOracle(g, seed=seed)
        xs.append(estimate_with_advice(o, m_bar, t_bar, eps, params, seed=seed))
    mean = statistics.fmean(xs)
    se = statistics.stdev(xs) / math.sqrt(len(xs)) if len(set(xs)) > 1 else 0.0
    elapsed = time.perf_counter() - start
    ok = (
        expected == 0.0
        and sanity == pytest.approx(4.0)
        and abs(mean - expected) <= 3 * se
        and mean <= 4.0 + 3 * se
        and elapsed < 300.0
    )
    detail = (
        f"enumerated E[X]={expected}, all-light sanity {sanity:.1f}, "
        f"mean over 1000 runs {mean}, {elapsed:.1f}s (budget 300s)"
    )
    _report(capfd, 4, "advice estimator expectation", ok, detail)
    assert ok, detail


def _practical_trials(make_instance, trials: int) -> tuple[int, int]:
    in_band = 0
    fallbacks = 0
    for trial in range(trials):
        res = make_instance(trial)
        o = QueryOracle(res.graph, seed=trial)
        report = estimate(o, 0.5, EstimatorParams.practical(), seed=trial)
        if o.budget_cap is not None:
            _BUDGET_EVIDENCE.append((o.budget_charged, o.budget_cap))
        fallbacks += report.fallback_used
        if 0.5 * res.exact_t <= report.estimate <= 1.5 * res.exact_t:
            in_band += 1
    return in_band, fallbacks


def test_criterion_5_practical_profile_accuracy(capfd):
    start = time.perf_counter()
    cases = {
        "matched panels s=64": lambda s: gen_g2_matching(256, 64, seed=s),
        "hidden clique n=1e5": lambda s: gen_clique_family(100_000, 10**6, seed=s),
        "partial matching s=256": lambda s: gen_g2_partial_matching(768, 256, 64, seed=s),
    }
    scores = {}
    for name, make in cases.items():
        scores[name], _ = _practical_trials(make, 20)
    elapsed = time.perf_counter() - start
    ok = all(score >= 16 for score in scores.values()) and elapsed < 600.0
    detail = (
        ", ".join(f"{name}: {score}/20 within 50pct" for name, score in scores.items())
        + f", {elapsed:.1f}s (budget 600s)"
    )
    _report(capfd, 5, "practical profile accuracy", ok, detail)
    assert ok, detail


def test_criterion_6_triangle_free_reports_zero(capfd):
    start = time.perf_counter()
    instances = [
        gen_g1_bipartite(16, 8, seed=0),
        gen_g1_bipartite(64, 32, seed=0),
        gen_g1_bipartite(128, 64, seed=0),
        gen_special_four(32, 8, 2, seed=0, special=False),
        gen_special_four(64, 16, 4, seed=0, special=False),
        gen_special_four(128, 32, 8, seed=0, special=False),
    ]
    exact_zero = 0
    via_fallback = 0
    total = 0
    for res in instances:
        for seed in (0, 1):
            total += 1
            o = QueryOracle(res.graph, seed=seed)
            report = estimate(o, 0.5, EstimatorParams.practical(), seed=seed)
            if o.budget_cap is not None:
                _BUDGET_EVIDENCE.append((o.budget_charged, o.budget_cap))
            exact_zero += report.estimate == 0.0
            via_fallback += report.fallback_used
    elapsed = time.perf_counter() - start
    ok = exact_zero == total and via_fallback == total
    detail = (
        f"{exact_zero}/{total} exact zeros, {via_fallback}/{total} via fallback, "
        f"{elapsed:.1f}s"
    )
    _report(capfd, 6, "triangle free reports zero", ok, detail)
    assert ok, detail


def test_criterion_7_classifier_on_planted_hub(capfd):
    start = time.perf_counter()
    g, hub = wheel_like_graph()
    m_bar, t_bar, eps = 120.0, 64.0, 0.5
    labels = label_ground_truth(count_ordered(g), g, m_bar, t_bar, eps)
    assert labels[hub] == HEAVY
    rim = [v for v in range(g.n) if v != hub]
    assert all(labels[v] == LIGHT for v in rim)
    params = HeavyParams.theoretical()
    good = 0
    for trial in range(50):
        o = QueryOracle(g, seed=trial)
        rng = np.random.default_rng(1000 + trial)
        hub_heavy = classify_heavy(o, hub, m_bar, t_bar, eps, params, rng).verdict == HEAVY
        light = sum(
            classify_heavy(o, v, m_bar, t_bar, eps, params, rng).verdict == LIGHT
            for v in rim
        )
        # 95 percent of 18 ground-truth-light vertices rounds up to all 18.
        good += hub_heavy and light >= math.ceil(0.95 * len(rim))
    elapsed = time.perf_counter() - start
    ok = good >= 45 and elapsed < 300.0
    detail = f"{good}/50 trials fully correct, {elapsed:.1f}s (budget 300s)"
    _report(capfd, 7, "classifier on planted hub", ok, detail)
    assert ok, detail


def test_criterion_8_query_budget_never_exceeded(capfd):
    if not _BUDGET_EVIDENCE:
        # Standalone run: regenerate a small evidence set.
        _practical_trials(lambda s: gen_g2_matching(64, 16, seed=s), 4)
    over = [(charged, cap) for charged, cap in _BUDGET_EVIDENCE if charged > cap]
    worst = max((charged / cap) for charged, cap in _BUDGET_EVIDENCE)
    ok = not over and len(_BUDGET_EVIDENCE) > 0
    detail = (
        f"{len(_BUDGET_EVIDENCE)} runs audited, {len(over)} over cap, "
        f"worst charged/cap {worst:.3f}"
    )
    _report(capfd, 8, "query budget never exceeded", ok, detail)
    assert ok, detail


def test_criterion_9_query_cost_scaling(capfd):
    start = time.perf_counter()
    medians = []
    for side in (64, 128, 256):
        totals = []
        for seed in (0, 1, 2):
            res = gen_g2_matching(4 * side, side, seed=seed)
            o = QueryOracle(res.graph, seed=seed)
            estimate(o, 0.5, EstimatorParams.practical(), seed=seed)
            totals.append(o.stats.total)
        medians.append(statistics.median(totals))
    ratios = [medians[i + 1] / medians[i] for i in range(len(medians) - 1)]
    elapsed = time.perf_counter() - start
    ok = all(r <= 3.0 for r in ratios) and elapsed < 600.0
    detail = (
        f"median distinct queries {[int(v) for v in medians]} for sides (64, 128, 256), "
        f"step ratios {[round(r, 2) for r in ratios]} (cap 3.0), {elapsed:.1f}s"
    )
    _report(capfd, 9, "query cost scaling", ok, detail)
    assert ok, detail


def test_criterion_10_average_degree_brackets(capfd):
    start = time.perf_counter()
    outcomes = {}
    for p, graph_seed in ((1e-3, 101), (1e-2, 202)):
        g = gnp_graph(10_000, p, seed=graph_seed)
        hits = 0
        for trial in range(50):
            o = QueryOracle(g, seed=trial)
            m_bar = g.n * feige_avg_degree(o, seed=trial) / 2.0
            if g.m / 6.0 <= m_bar <= 2.0 * g.m:
                hits += 1
        outcomes[p] = hits
    elapsed = time.perf_counter() - start
    ok = all(hits >= 45 for hits in outcomes.values()) and elapsed < 120.0
    detail = (
        ", ".join(f"p={p}: {hits}/50 bracketed" for p, hits in outcomes.items())
        + f", {elapsed:.1f}s (budget 120s)"
    )
    _report(capfd, 10, "average degree brackets", ok, detail)
    assert ok, detail
