"""Prediction-set construction and baseline calibrators.

The group-conditional threshold for a test point is the largest score S*
still admitted by the KKT condition of the augmented quantile regression:
the test entry's dual stays strictly below its upper box bound. The dual is
a nondecreasing step function of the test score, so S* is the breakpoint at
which it reaches the bound: after one solve at the bracket's low end the
optimum is followed up through the breakpoints of the test score, a few
pivots each (``AugmentedQrSolver.raise_test_score``), and S* is solved once
more as the verified optimum.

A calibrator serves many test patterns from one calibration set, so it
solves the calibration-only regression (the test entry's box set to [0, 0])
once, on its first fresh search, and starts every pattern's search from that
optimal basis instead of from scratch.

Baselines: a single global split-CP order statistic, the marginal reduction
of the coreset path to one all-covering group, and raw-score variants of the
same augmented regression (uniform weights, or per-client mixture weights).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .federation import ClientDataset, Coreset, run_round, test_term_weight
from .groups import SINGLE_GROUP, GroupFamily, MembershipVector, membership_matrix
from .pinball import AugmentedQrSolver, SimplexBasis

_ETA_GUARD = 1e-9

CALIBRATOR_KINDS = (
    "centralized_cp",
    "fcp_marginal",
    "condcp_centralized",
    "gcfcp_centralized",
    "gcfcp_coreset",
)


class EmptySetError(RuntimeError):
    """The test dual is already at its upper bound at the bracket's low end."""


class DegenerateGroupError(RuntimeError):
    """A group column carries zero calibration mass; its coverage is undefined."""

    def __init__(self, groups: tuple[int, ...], trial: int | None = None):
        self.groups = groups
        self.trial = trial
        where = f" in trial {trial}" if trial is not None else ""
        super().__init__(f"groups {list(groups)} have zero calibration mass{where}")


@dataclass(frozen=True)
class PredictionSet:
    kind: str  # "interval" | "label_set"
    threshold: float
    center: float = 0.0
    radius: float = 0.0
    labels: frozenset[int] = frozenset()

    def contains(self, y) -> bool:
        if self.kind == "interval":
            return abs(float(y) - self.center) <= self.radius
        return int(y) in self.labels

    @property
    def size(self) -> float:
        if self.kind == "interval":
            return 2.0 * self.radius
        return float(len(self.labels))


@dataclass(frozen=True)
class CalibrationData:
    """QR inputs: one row per calibration entry plus the aggregated test weight."""

    features: np.ndarray  # (n, |groups|) binary
    scores: np.ndarray
    weights: np.ndarray
    test_weight: float

    @classmethod
    def from_coreset(cls, coreset: Coreset, test_weight: float) -> "CalibrationData":
        features = np.array([atom for atom, _, _ in coreset.entries], dtype=float)
        scores = np.array([s for _, s, _ in coreset.entries])
        weights = np.array([w for _, _, w in coreset.entries])
        return cls(features, scores, weights, test_weight)

    @classmethod
    def from_datasets(
        cls, datasets: Sequence[ClientDataset], family: GroupFamily
    ) -> "CalibrationData":
        feats, scores, weights = [], [], []
        for ds in datasets:
            feats.append(membership_matrix(ds.covariates, family))
            scores.append(np.asarray(ds.scores, dtype=float))
            weights.append(np.full(ds.n, ds.sample_weight))
        return cls(
            np.vstack(feats).astype(float),
            np.concatenate(scores),
            np.concatenate(weights),
            test_term_weight(datasets),
        )

    def default_bracket(self) -> tuple[float, float]:
        return float(self.scores.min()) - 1.0, float(self.scores.max()) + 1.0


def _check_column_mass(data: CalibrationData) -> None:
    column_mass = data.features.T @ data.weights
    dead = tuple(int(g) for g in np.flatnonzero(column_mass <= 0.0))
    if dead:
        raise DegenerateGroupError(dead)


def calibration_basis(data: CalibrationData, alpha: float) -> SimplexBasis:
    """Optimal basis of the calibration-only regression, a start for any pattern.

    A test weight of 0 gives the test entry the box [0, 0], which makes it
    inert whatever its pattern and score.
    """
    _check_column_mass(data)
    d = data.features.shape[1]
    solver = AugmentedQrSolver(
        data.features, data.scores, data.weights, alpha, (0,) * d, 0.0
    )
    solver.solve_at(0.0)
    return solver.export_basis()


def threshold_search(
    data: CalibrationData,
    test_feature: MembershipVector,
    alpha: float,
    search_lo: float | None = None,
    search_hi: float | None = None,
    *,
    start_basis: SimplexBasis | None = None,
) -> float:
    """Largest S in the bracket whose test dual stays below the box bound.

    Solved at the bracket's low end, walked up to S* and solved there once
    more. ``start_basis`` (from ``calibration_basis`` on the same data and
    alpha) replaces the cold first solve with a warm one; the result is the
    same.
    """
    lo, hi = data.default_bracket()
    if search_lo is not None:
        lo = search_lo
    if search_hi is not None:
        hi = search_hi
    if not lo < hi:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    _check_column_mass(data)
    solver = AugmentedQrSolver(
        data.features,
        data.scores,
        data.weights,
        alpha,
        test_feature,
        data.test_weight,
        start_basis=start_basis,
    )
    bound = data.test_weight * (1.0 - alpha) - _ETA_GUARD

    if solver.solve_at(lo).eta_test >= bound:
        raise EmptySetError(f"test dual already at its bound at search_lo={lo}")
    s_star = solver.raise_test_score(hi, bound)
    solver.solve_at(s_star)
    return s_star


def predict_regression(model_prediction: float, s_star: float) -> PredictionSet:
    """Interval inversion of the absolute-residual score."""
    if s_star < 0.0:
        raise ValueError(f"negative threshold {s_star!r} (bracket failure upstream)")
    return PredictionSet(
        kind="interval",
        threshold=s_star,
        center=float(model_prediction),
        radius=float(s_star),
    )


def predict_classification(
    candidate_scores: Mapping[int, float], s_star: float
) -> PredictionSet:
    """All labels whose conformity score is at most the threshold."""
    if not candidate_scores:
        raise ValueError("no candidate labels")
    labels = frozenset(y for y, sc in candidate_scores.items() if sc <= s_star)
    return PredictionSet(kind="label_set", threshold=float(s_star), labels=labels)


def split_cp_threshold(scores: Sequence[float], alpha: float) -> float:
    """The ceil((1-alpha)(n+1))-th order statistic; +inf past sample support."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha {alpha!r} outside (0, 1)")
    scores = np.asarray(scores, dtype=float)
    n = scores.size
    if n == 0:
        raise ValueError("no calibration scores")
    k = math.ceil((1.0 - alpha) * (n + 1))
    if k > n:
        return math.inf
    return float(np.sort(scores)[k - 1])


class GlobalCalibrator:
    """A single covariate-independent threshold (vanilla split CP)."""

    def __init__(self, threshold: float):
        self._threshold = threshold
        self.search_times: list[float] = []
        self.wire_bytes = 0

    def threshold(self, test_feature: MembershipVector) -> float:
        return self._threshold


class ConditionalCalibrator:
    """Per-pattern thresholds from the augmented quantile regression.

    S* depends on the test point only through its membership pattern, so
    results are cached per pattern. Every pattern's search starts from one
    shared ``calibration_basis``, solved on the first fresh search.
    ``search_times`` records the wall-clock of each fresh search for the
    timing reports; the first one includes the shared solve.
    """

    def __init__(
        self,
        data: CalibrationData,
        alpha: float,
        bracket: tuple[float, float] | None = None,
    ):
        self.data = data
        self.alpha = alpha
        self.bracket = bracket if bracket is not None else data.default_bracket()
        self.search_times: list[float] = []
        self.wire_bytes = 0
        self._cache: dict[MembershipVector, float] = {}
        self._basis: SimplexBasis | None = None

    def threshold(self, test_feature: MembershipVector) -> float:
        key = tuple(test_feature)
        if key not in self._cache:
            t0 = time.perf_counter()
            if self._basis is None:
                self._basis = calibration_basis(self.data, self.alpha)
            s_star = threshold_search(
                self.data,
                key,
                self.alpha,
                search_lo=self.bracket[0],
                search_hi=self.bracket[1],
                start_basis=self._basis,
            )
            self.search_times.append(time.perf_counter() - t0)
            self._cache[key] = s_star
        return self._cache[key]


def calibrate_baseline(
    kind: str,
    data,
    alpha: float,
    *,
    family: GroupFamily | None = None,
    delta: float | None = None,
    bracket: tuple[float, float] | None = None,
):
    """Build the calibrator for one benchmark kind.

    ``data`` is pooled raw scores for centralized_cp, (features, scores) for
    condcp_centralized, and a sequence of ClientDataset otherwise.
    """
    if kind not in CALIBRATOR_KINDS:
        raise ValueError(f"unknown calibrator kind {kind!r}")
    if kind == "centralized_cp":
        return GlobalCalibrator(split_cp_threshold(data, alpha))
    if kind == "condcp_centralized":
        features, scores = data
        n = len(scores)
        if n == 0:
            raise ValueError("no calibration scores")
        w = 1.0 / (n + 1)
        cal = CalibrationData(
            np.asarray(features, dtype=float),
            np.asarray(scores, dtype=float),
            np.full(n, w),
            test_weight=w,
        )
        return ConditionalCalibrator(cal, alpha, bracket=bracket)
    if kind == "gcfcp_centralized":
        if family is None:
            raise ValueError("gcfcp_centralized requires the group family")
        return ConditionalCalibrator(
            CalibrationData.from_datasets(data, family), alpha, bracket=bracket
        )
    if delta is None:
        raise ValueError(f"{kind} requires the compression parameter delta")
    fam = SINGLE_GROUP if kind == "fcp_marginal" else family
    if fam is None:
        raise ValueError("gcfcp_coreset requires the group family")
    round_ = run_round(data, fam, delta)
    cal = CalibrationData.from_coreset(round_.coreset, round_.test_weight)
    calibrator = ConditionalCalibrator(cal, alpha, bracket=bracket)
    calibrator.wire_bytes = round_.wire_bytes
    return calibrator
