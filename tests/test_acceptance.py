"""Acceptance gate: one test per headline claim, one pass/fail line each.

The coverage-study criteria share a single Monte Carlo run (100 trials of
200 test points under the 4-client, 4-interval-group configuration) via
session fixtures; the compression trade-off adds a second run at delta=25.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import ACCEPTANCE_RESULTS, breakpoint_minimum, random_lp, small_lp

from gcfcp.conformal import CalibrationData, threshold_search
from gcfcp.datagen import SynthConfig
from gcfcp.federation import ClientDataset, message_from_json, message_to_json, run_round
from gcfcp.groups import interval_family
from gcfcp.harness import ExperimentConfig, bench_speedup, run_experiment
from gcfcp.pinball import AugmentedQrSolver
from gcfcp.tdigest import build_digest_arrays, max_cluster_mass

FOUR_INTERVALS = interval_family([(0, 2), (1, 3), (2, 4), (3, 5)])


def check(num, name, ok, detail=""):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_RESULTS.append(line)
    assert ok, line


def sketch_corpus(seed=0, count=200):
    """Random weighted datasets with per-sample mass below sin(pi/delta)."""
    rng = np.random.default_rng(seed)
    deltas = (10.0, 25.0, 100.0, 250.0)
    for i in range(count):
        delta = deltas[i % 4]
        ell = int(rng.integers(500, 10_001))
        values = rng.normal(scale=3.0, size=ell)
        if i % 2:
            weights = np.ones(ell)
        else:
            weights = rng.uniform(0.5, 1.5, ell)  # mild heterogeneity
        yield delta, values, weights


def exact_cdf_at(values, weights, probes):
    order = np.argsort(values, kind="stable")
    v, w = values[order], weights[order]
    cum = np.cumsum(w)
    idx = np.searchsorted(v, probes, side="right")
    return np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0) / w.sum()


def test_criterion_01_sketch_mass_bound():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for delta, values, weights in sketch_corpus():
        d = build_digest_arrays(values, weights, delta)
        margin = max_cluster_mass(d) - math.sin(math.pi / delta)
        worst = max(worst, margin)
        ok = ok and margin <= 1e-12
    elapsed = time.perf_counter() - t0
    check(1, "sketch mass bound", ok and elapsed < 30,
          f"worst excess {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_sketch_cdf_bound():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for delta, values, weights in sketch_corpus():
        d = build_digest_arrays(values, weights, delta)
        means = d.means()
        cl_w = d.weights()
        probes = np.unique(np.concatenate([values, means]))
        exact = exact_cdf_at(values, weights, probes)
        approx = np.cumsum(cl_w)[
            np.maximum(np.searchsorted(means, probes, side="right") - 1, 0)
        ] / d.total_weight
        approx[np.searchsorted(means, probes, side="right") == 0] = 0.0
        err = float(np.max(np.abs(exact - approx)))
        bound = math.sin(math.pi / delta)
        worst = max(worst, err - bound)
        ok = ok and err <= bound
    elapsed = time.perf_counter() - t0
    check(2, "sketch uniform CDF bound", ok and elapsed < 60,
          f"worst excess {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_strong_duality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_gap = worst_coupling = 0.0
    ok = True
    for _ in range(100):
        p = random_lp(rng)
        sol = p.solve()
        gap = abs(sol.primal_objective - sol.dual_objective) / (1 + abs(sol.primal_objective))
        feats, _, _ = p.rows()
        eta = np.concatenate([sol.eta, [sol.eta_test]])
        coupling = float(np.max(np.abs(feats.T @ eta)))
        worst_gap = max(worst_gap, gap)
        worst_coupling = max(worst_coupling, coupling)
        ok = ok and gap <= 1e-8 and coupling <= 1e-8
    elapsed = time.perf_counter() - t0
    check(3, "strong duality on random instances", ok and elapsed < 30,
          f"max gap {worst_gap:.1e}, max coupling {worst_coupling:.1e}, {elapsed:.1f}s")


def test_criterion_04_breakpoint_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    ok = True
    for _ in range(100):
        p = small_lp(rng)
        sol = p.solve()
        diff = abs(sol.primal_objective - breakpoint_minimum(p))
        worst = max(worst, diff)
        ok = ok and diff <= 1e-7
    elapsed = time.perf_counter() - t0
    check(4, "breakpoint-oracle equivalence", ok and elapsed < 30,
          f"max objective diff {worst:.1e}, {elapsed:.1f}s")


def test_criterion_05_single_group_reduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    ok = True
    for _ in range(100):
        k = int(rng.integers(1, 4))
        sizes = rng.integers(15, 61, size=k)
        pi = rng.dirichlet(np.ones(k))
        datasets = [
            ClientDataset(j + 1, np.full(n, 2.5), rng.random(n) * 4, float(p))
            for j, (n, p) in enumerate(zip(sizes, pi))
        ]
        n_total = int(sizes.sum())
        alpha = float(rng.uniform(0.05, 0.3))
        # delta = 4n >= n keeps every pooled cluster a singleton (lossless)
        round_ = run_round(datasets, interval_family([(0, 5)]), 4.0 * n_total)
        data = CalibrationData.from_coreset(round_.coreset, round_.test_weight)
        got = threshold_search(data, (1,), alpha)
        # oracle: exact augmented weighted quantile with the test mass at +inf
        scores = np.concatenate([d.scores for d in datasets])
        weights = np.concatenate([np.full(d.n, d.sample_weight) for d in datasets])
        order = np.argsort(scores)
        target = (1 - alpha) * (weights.sum() + round_.test_weight)
        cum = np.cumsum(weights[order])
        idx = int(np.searchsorted(cum, target - 1e-12))
        oracle = float(scores[order][idx]) if idx < n_total else data.default_bracket()[1]
        diff = abs(got - oracle)
        worst = max(worst, diff)
        ok = ok and diff <= 1e-5
    elapsed = time.perf_counter() - t0
    check(5, "single-group augmented-quantile reduction", ok and elapsed < 60,
          f"max threshold diff {worst:.1e}, {elapsed:.1f}s")


TABLE3 = ExperimentConfig(
    calibrators=("centralized_cp", "fcp_marginal", "gcfcp_centralized", "gcfcp_coreset"),
    alpha=0.1,
    delta=250.0,
    trials=100,
    test_points=200,
    family=FOUR_INTERVALS,
    synth=SynthConfig(seed=0),
)


@pytest.fixture(scope="session")
def table3_run():
    t0 = time.perf_counter()
    report = run_experiment(TABLE3)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def table3_run_delta25():
    t0 = time.perf_counter()
    report = run_experiment(
        replace(TABLE3, delta=25.0, calibrators=("gcfcp_coreset",))
    )
    return report, time.perf_counter() - t0


def _group_covs(summary):
    return {g: cov for g, (cov, _, _) in summary.group_coverage.items()}


def test_criterion_06_group_conditional_coverage(table3_run):
    report, elapsed = table3_run
    details = []
    ok = elapsed < 1200
    for kind in ("gcfcp_centralized", "gcfcp_coreset"):
        covs = _group_covs(report.summaries[kind])
        ok = ok and len(covs) == 4 and all(0.87 <= c <= 0.94 for c in covs.values())
        details.append(kind + " " + "/".join(f"{covs[g]:.3f}" for g in sorted(covs)))
    check(6, "group-conditional coverage in [0.87, 0.94]", ok,
          "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_07_baseline_contrast(table3_run):
    report, _ = table3_run
    def max_dev(kind):
        return max(abs(c - 0.9) for c in _group_covs(report.summaries[kind]).values())

    ours = max_dev("gcfcp_coreset")
    ok = True
    details = [f"gcfcp_coreset dev {ours:.4f}"]
    for kind in ("centralized_cp", "fcp_marginal"):
        dev = max_dev(kind)
        details.append(f"{kind} dev {dev:.4f}")
        ok = ok and dev >= 2.0 * ours
    check(7, "baselines miss group coverage by >= 2x", ok, ", ".join(details))


def test_criterion_08_compression_tradeoff(table3_run, table3_run_delta25):
    report250, _ = table3_run
    report25, elapsed = table3_run_delta25
    covs250 = _group_covs(report250.summaries["gcfcp_coreset"])
    covs25 = _group_covs(report25.summaries["gcfcp_coreset"])
    floor = 1.0 - 0.1 - math.pi / 25.0
    ok = (
        all(c >= floor for c in covs25.values())
        and min(covs25.values()) < min(covs250.values())
        and elapsed < 1200
    )
    check(8, "compression trade-off (delta=25 floor and ordering)", ok,
          f"min cov d25 {min(covs25.values()):.3f} vs d250 {min(covs250.values()):.3f}, "
          f"floor {floor:.3f}, {elapsed:.0f}s")


def test_criterion_09_speedup():
    t0 = time.perf_counter()
    config = ExperimentConfig(
        calibrators=("gcfcp_centralized", "gcfcp_coreset"),
        delta=250.0,
        synth=SynthConfig(seed=4, n_per_client=(1250, 1250, 1250, 1250)),
        family=FOUR_INTERVALS,
    )
    r250 = bench_speedup(config, n_test=20, warmup=3)
    r25 = bench_speedup(replace(config, delta=25.0), n_test=20, warmup=3)
    elapsed = time.perf_counter() - t0
    ok = r250.median >= 3.0 and r25.median > r250.median and elapsed < 600
    check(9, "coreset speedup (median >= 3x, delta ordering)", ok,
          f"median {r250.median:.1f}x at d250, {r25.median:.1f}x at d25, {elapsed:.0f}s")


def test_criterion_10_protocol_conservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    ok = True
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 7))
        sizes = rng.integers(20, 401, size=k)
        pi = rng.dirichlet(np.ones(k))
        delta = float(rng.choice([25.0, 100.0, 250.0]))
        datasets = [
            ClientDataset(j + 1, rng.uniform(0, 5, n), rng.random(n) * 3, float(p))
            for j, (n, p) in enumerate(zip(sizes, pi))
        ]
        round_ = run_round(datasets, FOUR_INTERVALS, delta)
        expected = sum(p * n / (n + 1) for n, p in zip(sizes, pi))
        err = abs(round_.coreset.total_weight - expected)
        worst = max(worst, err)
        ok = ok and err <= 1e-9
        for m in round_.messages[:5]:
            ok = ok and message_to_json(message_from_json(message_to_json(m))) == message_to_json(m)
    # comm scaling when delta doubles
    ds = ClientDataset(1, rng.uniform(0, 5, 3000), rng.random(3000), 1.0)
    small = run_round([ds], FOUR_INTERVALS, 125.0).wire_bytes
    big = run_round([ds], FOUR_INTERVALS, 250.0).wire_bytes
    ratio = big / small
    ok = ok and 1.5 <= ratio <= 2.5
    elapsed = time.perf_counter() - t0
    check(10, "protocol weight conservation and wire stability", ok and elapsed < 60,
          f"max weight err {worst:.1e}, byte ratio {ratio:.2f}, {elapsed:.1f}s")


def test_criterion_11_monotonicity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    ok = True
    alphas = (0.05, 0.1, 0.2, 0.3)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        datasets = [
            ClientDataset(j + 1, rng.uniform(0, 5, 80), rng.random(80) * 3, 1.0 / k)
            for j in range(k)
        ]
        round_ = run_round(datasets, FOUR_INTERVALS, 100.0)
        data = CalibrationData.from_coreset(round_.coreset, round_.test_weight)
        pattern = (1, 1, 0, 0)
        thresholds = [threshold_search(data, pattern, a) for a in alphas]
        ok = ok and all(b <= a + 1e-9 for a, b in zip(thresholds, thresholds[1:]))
        # classification set sizes are nested along the same grid
        candidates = np.sort(rng.random(12) * 3)
        sizes = [int(np.sum(candidates <= t)) for t in thresholds]
        ok = ok and all(b <= a for a, b in zip(sizes, sizes[1:]))
    # eta_test nondecreasing in the test score
    for _ in range(5):
        p = random_lp(rng, max_entries=30)
        solver = AugmentedQrSolver(*p.calibration, p.test_feature, p.test_weight)
        grid = np.linspace(-3, 3, 40)
        values = [solver.solve_at(float(s)).eta_test for s in grid]
        ok = ok and all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    elapsed = time.perf_counter() - t0
    check(11, "monotonicity suite (S* in alpha, eta in S)", ok and elapsed < 60,
          f"{elapsed:.1f}s")
