"""Experiment orchestration: Monte Carlo runs, coverage metrics, timing.

Each trial draws its calibration datasets and test points from
trial-indexed substreams: synthetic regression data, or a per-trial split of
ingested classification scores. ``run_trial`` is the one trial loop for both
sources: it builds every requested calibrator through ``calibrate_baseline``,
counts a test point covered iff its score is at most its threshold (so an
unbounded set, threshold +inf, covers), and records set size, threshold-search
wall-clock, and wire bytes. Trials are independent, so serial and parallel
execution produce identical reports.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable

import numpy as np

from . import datagen
from .conformal import CALIBRATOR_KINDS, DegenerateGroupError, calibrate_baseline
from .datagen import IngestError, ScoreRecord, SynthConfig, substream
from .federation import ClientDataset, client_datasets, run_round  # run_round unused: perfbench/tracing.py patches harness.run_round
from .groups import GroupFamily, interval_family, membership_matrix

DEFAULT_FAMILY = interval_family([(0, 2), (1, 3), (2, 4), (3, 5)])


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
        if not self.calibrators:
            raise ValueError("calibrators must name at least one kind")
        for kind in self.calibrators:
            if kind not in CALIBRATOR_KINDS:
                raise ValueError(f"unknown calibrator kind {kind!r}; choose from {', '.join(CALIBRATOR_KINDS)}")


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


def group_coverage(covered: np.ndarray, memberships: np.ndarray) -> dict[int, tuple[float, int]]:
    """Per-group fraction of covered test points and point count; empty
    groups are absent."""
    out: dict[int, tuple[float, int]] = {}
    for g in range(memberships.shape[1]):
        mask = memberships[:, g] == 1
        n = int(mask.sum())
        if n:
            out[g] = (float(covered[mask].mean()), n)
    return out


@dataclass
class _TrialData:
    """One trial's calibration datasets and test points; ``set_sizes`` maps
    the test points' thresholds to the sizes of their prediction sets."""

    datasets: list[ClientDataset]
    test_scores: np.ndarray
    memberships: np.ndarray  # (n_test, |groups|)
    set_sizes: Callable[[np.ndarray], np.ndarray]


def _synth_trial_data(config: ExperimentConfig, trial: int) -> _TrialData:
    cfg = config.synth
    model, draws = datagen.synth_clients(cfg, trial)
    datasets = [
        ClientDataset(k, x, scores, pi)
        for k, ((x, _, scores), pi) in enumerate(zip(draws, cfg.pi), start=1)
    ]
    rng = substream(cfg.seed, "test", trial)
    clients = datagen.sample_mixture_clients(cfg, config.test_points, trial)
    xs, ys = datagen.draw_points(cfg, clients, rng)
    return _TrialData(
        datasets,
        datagen.score_absolute(model, xs, ys),
        membership_matrix(xs, config.family),
        lambda thresholds: 2.0 * thresholds,
    )


def _ingest_trial_data(
    config: ExperimentConfig, records: list[ScoreRecord], trial: int
) -> _TrialData:
    """The first half of the records, shuffled per trial, calibrate; the rest
    are tested. A label set holds the labels whose score is at most the
    threshold, so it covers a point iff the point's true-label score is."""
    order = substream(config.synth.seed, "mixture", trial).permutation(len(records))
    half = len(records) // 2
    if half == 0:
        raise IngestError(
            f"{len(records)} score rows cannot fill both a calibration and a test half"
        )
    shuffled = [records[i] for i in order]
    labels = np.array([r.predicted_label for r in shuffled])
    scores = np.array([r.true_score for r in shuffled])
    datasets = client_datasets([r.client_id for r in shuffled[:half]], labels[:half], scores[:half])
    label_scores = np.array([r.label_scores for r in shuffled[half:]])
    return _TrialData(
        datasets,
        scores[half:],
        membership_matrix(labels[half:], config.family),
        lambda thresholds: np.sum(label_scores <= thresholds[:, None], axis=1, dtype=float),
    )


def run_trial(
    config: ExperimentConfig, trial: int, records: list[ScoreRecord] | None = None
) -> dict[str, TrialOutcome]:
    """Every calibrator on one trial: synthetic data, or ingested ``records``."""
    if records is None:
        data = _synth_trial_data(config, trial)
    else:
        data = _ingest_trial_data(config, records, trial)
    outcomes = {}
    for kind in config.calibrators:
        calibrator = calibrate_baseline(
            kind, data.datasets, config.alpha, family=config.family, delta=config.delta
        )
        thresholds = np.empty(len(data.test_scores))
        try:
            for i, row in enumerate(data.memberships):
                feature = (1,) if kind == "fcp_marginal" else tuple(row)
                thresholds[i] = calibrator.threshold(feature)
        except DegenerateGroupError as exc:
            raise DegenerateGroupError(exc.groups, trial) from exc
        outcomes[kind] = TrialOutcome(
            covered=data.test_scores <= thresholds,
            set_sizes=data.set_sizes(thresholds),
            memberships=data.memberships,
            search_times=list(calibrator.search_times),
            wire_bytes=calibrator.wire_bytes,
        )
    return outcomes


def run_experiment(config: ExperimentConfig) -> CoverageReport:
    records = (
        datagen.ingest_scores(config.ingest_path) if config.ingest_path else None
    )
    trials = range(config.trials)
    if config.serial or config.trials == 1:
        per_trial = [run_trial(config, t, records) for t in trials]
    else:
        with ProcessPoolExecutor() as pool:
            per_trial = list(pool.map(run_trial, repeat(config), trials, repeat(records)))
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
        for g, (cov, ng) in group_coverage(covered, memberships).items():
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
