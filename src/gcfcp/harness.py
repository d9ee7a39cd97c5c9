"""Experiment orchestration: Monte Carlo runs, coverage metrics, timing.

Each trial regenerates calibration and test data from trial-indexed
substreams, runs every requested calibrator through the full pipeline, and
records per-point coverage, set size, threshold-search wall-clock, and wire
bytes. Trials are independent, so serial and parallel execution produce
identical reports.
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import datagen
from .conformal import (
    CALIBRATOR_KINDS,
    CalibrationData,
    DegenerateGroupError,
    calibrate_baseline,
    threshold_search,
)
from .datagen import ScoreRecord, SynthConfig, substream
from .federation import ClientDataset, run_round
from .groups import GroupFamily, interval_family, membership_matrix

DEFAULT_FAMILY = interval_family([(0, 2), (1, 3), (2, 4), (3, 5)])
CLASSIFICATION_BRACKET = (-0.01, 1.01)


@dataclass(frozen=True)
class ExperimentConfig:
    calibrators: tuple[str, ...] = ("centralized_cp", "fcp_marginal", "gcfcp_coreset")
    alpha: float = 0.1
    delta: float = 250.0
    trials: int = 100
    test_points: int = 200
    family: GroupFamily = DEFAULT_FAMILY
    synth: SynthConfig = field(default_factory=SynthConfig)
    ingest_path: str | None = None
    serial: bool = True

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.test_points < 1:
            raise ValueError("test_points must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha {self.alpha!r} outside (0, 1)")
        for kind in self.calibrators:
            if kind not in CALIBRATOR_KINDS:
                raise ValueError(f"unknown calibrator kind {kind!r}")


@dataclass
class TrialOutcome:
    covered: np.ndarray  # bool per test point
    set_sizes: np.ndarray
    memberships: np.ndarray  # (n_test, |groups|)
    search_times: list[float]
    wire_bytes: int


@dataclass
class CalibratorSummary:
    kind: str
    marginal_coverage: float
    marginal_se: float
    group_coverage: dict[int, tuple[float, float, int]]  # coverage, se, count
    mean_set_size: float
    mean_search_time: float
    wire_bytes: float
    n_points: int


@dataclass
class CoverageReport:
    summaries: dict[str, CalibratorSummary]
    trials: int
    test_points: int
    alpha: float
    delta: float


def coverage_estimate(sets, y_true, memberships) -> dict[int, tuple[float, int]]:
    """Per-group fraction of covered test points; empty groups are absent."""
    covered = np.array(
        [ps.contains(y) for ps, y in zip(sets, y_true)], dtype=bool
    )
    return _group_coverage(covered, np.asarray(memberships))


def _group_coverage(covered: np.ndarray, memberships: np.ndarray):
    out: dict[int, tuple[float, int]] = {}
    for g in range(memberships.shape[1]):
        mask = memberships[:, g] == 1
        n = int(mask.sum())
        if n:
            out[g] = (float(covered[mask].mean()), n)
    return out


def _synth_trial_data(config: ExperimentConfig, trial: int):
    cfg = config.synth
    model = datagen.fit_linear(datagen.make_training_set(cfg, trial))
    datasets = []
    for k in range(1, cfg.n_clients + 1):
        x = datagen.sample_covariates(cfg, k, cfg.n_per_client[k - 1], trial)
        rng = substream(cfg.seed, "response", trial, k)
        y = datagen.generate_response(x, k, rng)
        datasets.append(
            ClientDataset(k, x, datagen.score_absolute(model, x, y), cfg.pi[k - 1])
        )
    rng = substream(cfg.seed, "test", trial)
    clients = datagen.sample_mixture_clients(cfg, config.test_points, trial)
    xs = np.empty(config.test_points)
    ys = np.empty(config.test_points)
    for k in range(1, cfg.n_clients + 1):
        mask = clients == k
        xs[mask] = datagen._truncated_normal(
            rng, cfg.mu[k - 1], cfg.sigma[k - 1], int(mask.sum())
        )
        ys[mask] = datagen.generate_response(xs[mask], k, rng)
    test_scores = datagen.score_absolute(model, xs, ys)
    memberships = membership_matrix(xs, config.family)
    return datasets, model, test_scores, memberships


def _build_calibrator(kind: str, config: ExperimentConfig, datasets, bracket=None):
    if kind == "centralized_cp":
        data = np.concatenate([d.scores for d in datasets])
    elif kind == "condcp_centralized":
        feats = np.vstack(
            [membership_matrix(d.covariates, config.family) for d in datasets]
        )
        data = (feats, np.concatenate([d.scores for d in datasets]))
    else:
        data = datasets
    return calibrate_baseline(
        kind,
        data,
        config.alpha,
        family=config.family,
        delta=config.delta,
        bracket=bracket,
    )


def run_synth_trial(config: ExperimentConfig, trial: int) -> dict[str, TrialOutcome]:
    datasets, _, test_scores, memberships = _synth_trial_data(config, trial)
    outcomes = {}
    for kind in config.calibrators:
        calibrator = _build_calibrator(kind, config, datasets)
        thresholds = np.empty(config.test_points)
        try:
            for i in range(config.test_points):
                feature = (1,) if kind == "fcp_marginal" else tuple(memberships[i])
                thresholds[i] = calibrator.threshold(feature)
        except DegenerateGroupError as exc:
            raise DegenerateGroupError(exc.groups, trial) from exc
        outcomes[kind] = TrialOutcome(
            covered=test_scores <= thresholds,
            set_sizes=2.0 * thresholds,
            memberships=memberships,
            search_times=list(calibrator.search_times),
            wire_bytes=calibrator.wire_bytes,
        )
    return outcomes


def _ingest_trial_data(config: ExperimentConfig, records: list[ScoreRecord], trial: int):
    rng = substream(config.synth.seed, "mixture", trial)
    order = rng.permutation(len(records))
    half = len(records) // 2
    cal = [records[i] for i in order[:half]]
    test = [records[i] for i in order[half:]]
    client_ids = sorted({r.client_id for r in cal})
    pi = 1.0 / len(client_ids)
    datasets = []
    for cid in client_ids:
        rows = [r for r in cal if r.client_id == cid]
        datasets.append(
            ClientDataset(
                cid,
                np.array([r.predicted_label for r in rows]),
                np.array([r.true_score for r in rows]),
                pi,
            )
        )
    return datasets, test


def run_ingest_trial(
    config: ExperimentConfig, records: list[ScoreRecord], trial: int
) -> dict[str, TrialOutcome]:
    datasets, test = _ingest_trial_data(config, records, trial)
    memberships = membership_matrix(
        np.array([r.predicted_label for r in test]), config.family
    )
    outcomes = {}
    for kind in config.calibrators:
        calibrator = _build_calibrator(
            kind, config, datasets, bracket=CLASSIFICATION_BRACKET
        )
        covered = np.zeros(len(test), dtype=bool)
        sizes = np.zeros(len(test))
        for i, record in enumerate(test):
            feature = (1,) if kind == "fcp_marginal" else tuple(memberships[i])
            s_star = calibrator.threshold(feature)
            in_set = np.asarray(record.label_scores) <= s_star
            covered[i] = bool(in_set[record.true_label])
            sizes[i] = float(in_set.sum())
        outcomes[kind] = TrialOutcome(
            covered=covered,
            set_sizes=sizes,
            memberships=memberships,
            search_times=list(calibrator.search_times),
            wire_bytes=calibrator.wire_bytes,
        )
    return outcomes


def _run_trial(args) -> dict[str, TrialOutcome]:
    config, records, trial = args
    if records is None:
        return run_synth_trial(config, trial)
    return run_ingest_trial(config, records, trial)


def run_experiment(config: ExperimentConfig) -> CoverageReport:
    records = (
        datagen.ingest_scores(config.ingest_path) if config.ingest_path else None
    )
    jobs = [(config, records, t) for t in range(config.trials)]
    if config.serial or config.trials == 1:
        per_trial = [_run_trial(job) for job in jobs]
    else:
        with ProcessPoolExecutor() as pool:
            per_trial = list(pool.map(_run_trial, jobs))
    return _aggregate(config, per_trial)


def _aggregate(config: ExperimentConfig, per_trial) -> CoverageReport:
    summaries = {}
    for kind in config.calibrators:
        covered = np.concatenate([t[kind].covered for t in per_trial])
        memberships = np.vstack([t[kind].memberships for t in per_trial])
        sizes = np.concatenate([t[kind].set_sizes for t in per_trial])
        times = [s for t in per_trial for s in t[kind].search_times]
        n = covered.size
        marginal = float(covered.mean())
        group_cov = {}
        for g, (cov, ng) in _group_coverage(covered, memberships).items():
            group_cov[g] = (cov, math.sqrt(cov * (1.0 - cov) / ng), ng)
        summaries[kind] = CalibratorSummary(
            kind=kind,
            marginal_coverage=marginal,
            marginal_se=math.sqrt(marginal * (1 - marginal) / n),
            group_coverage=group_cov,
            mean_set_size=float(sizes.mean()),
            mean_search_time=float(np.mean(times)) if times else 0.0,
            wire_bytes=float(np.mean([t[kind].wire_bytes for t in per_trial])),
            n_points=n,
        )
    return CoverageReport(
        summaries=summaries,
        trials=config.trials,
        test_points=config.test_points,
        alpha=config.alpha,
        delta=config.delta,
    )


def write_report_csv(report: CoverageReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "calibrator",
                "group",
                "coverage",
                "stderr",
                "n",
                "mean_set_size",
                "mean_search_time_s",
                "wire_bytes",
                "trials",
            ]
        )
        for kind, s in report.summaries.items():
            writer.writerow(
                [
                    kind,
                    "marginal",
                    repr(s.marginal_coverage),
                    repr(s.marginal_se),
                    s.n_points,
                    repr(s.mean_set_size),
                    repr(s.mean_search_time),
                    repr(s.wire_bytes),
                    report.trials,
                ]
            )
            for g, (cov, se, n) in sorted(s.group_coverage.items()):
                writer.writerow(
                    [kind, f"G{g + 1}", repr(cov), repr(se), n, "", "", "", report.trials]
                )


def format_report_table(report: CoverageReport) -> str:
    groups = sorted(
        {g for s in report.summaries.values() for g in s.group_coverage}
    )
    header = (
        ["method", "marginal"]
        + [f"G{g + 1}" for g in groups]
        + ["set size", "time/pred (ms)", "bytes"]
    )
    rows = [header]
    for kind, s in report.summaries.items():
        row = [kind, f"{s.marginal_coverage:.3f}"]
        for g in groups:
            cov = s.group_coverage.get(g)
            row.append(f"{cov[0]:.3f}" if cov else "-")
        row += [
            f"{s.mean_set_size:.3f}",
            f"{1e3 * s.mean_search_time:.2f}",
            f"{s.wire_bytes:.0f}",
        ]
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in rows]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)


@dataclass
class BenchResult:
    ratios: np.ndarray
    centralized_times: np.ndarray
    coreset_times: np.ndarray

    @property
    def median(self) -> float:
        return float(np.median(self.ratios))

    @property
    def min(self) -> float:
        return float(np.min(self.ratios))

    @property
    def max(self) -> float:
        return float(np.max(self.ratios))


def bench_speedup(config: ExperimentConfig, n_test: int = 20, warmup: int = 3) -> BenchResult:
    """Per-prediction wall-clock of the centralized QR over the coreset QR.

    Thresholds are recomputed from scratch per test point (no pattern cache)
    so the measurement reflects one honest set construction each.
    """
    datasets, _, _, memberships = _synth_trial_data(
        replace(config, test_points=max(n_test, 20)), trial=0
    )
    central = CalibrationData.from_datasets(datasets, config.family)
    round_ = run_round(datasets, config.family, config.delta)
    coreset = CalibrationData.from_coreset(round_.coreset, round_.test_weight)

    features = [tuple(m) for m in memberships[: max(n_test, 20)]]
    for feature in features[:warmup]:
        threshold_search(central, feature, config.alpha)
        threshold_search(coreset, feature, config.alpha)

    def timed(data):
        out = np.empty(len(features))
        for i, feature in enumerate(features):
            t0 = time.perf_counter()
            threshold_search(data, feature, config.alpha)
            out[i] = time.perf_counter() - t0
        return out

    central_times = timed(central)
    coreset_times = timed(coreset)
    return BenchResult(
        ratios=central_times / coreset_times,
        centralized_times=central_times,
        coreset_times=coreset_times,
    )
