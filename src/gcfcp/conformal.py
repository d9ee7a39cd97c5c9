"""Prediction-set construction and baseline calibrators.

The group-conditional threshold for a test point is the largest score S*
still admitted by the KKT condition of the augmented quantile regression:
the test entry's dual stays strictly below its upper box bound. The dual is
a nondecreasing step function of the test score, so S* is the breakpoint at
which it reaches the bound, or +inf when it never does (the prediction set is
then the whole line). The search starts at the calibration fit f0 at the
test pattern: the optimum of the calibration-only regression (the test
entry's box set to [0, 0]) is optimal there with the test dual at 0, so
S* >= f0 and nothing below f0 is solved. From f0 the optimum is followed up
through the breakpoints of the test score, a few pivots each
(``AugmentedQrSolver.raise_test_score``), and the last breakpoint reached is
solved once, as the verified optimum. A finite S* is reported as it is,
above the highest calibration score too; +inf still reads as the bracket's
high end, one above the highest calibration score.

A calibrator serves many test patterns from one calibration set, so it
solves the calibration-only regression once, on its first fresh search, and
starts every pattern's search from that optimal basis; a search given no
basis solves it for itself.

``calibrate_baseline`` builds every calibrator kind from the same client
datasets. Besides the coreset path: a single global split-CP order statistic,
the marginal reduction of the coreset path to one all-covering group, and
raw-score variants of the same augmented regression (uniform weights, or
per-client mixture weights). ``CalibrationData.from_coreset`` reads the
coreset's structured array field by field.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .federation import ClientDataset, Coreset, check_mixture, run_round, test_term_weight
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
    """The prediction set is empty: S* is at or below one below the lowest
    score, or the test dual's bound is at or below 0 (a test weight of at
    most 1e-9 / (1 - alpha)), or S* is below every possible score."""


class DegenerateGroupError(RuntimeError):
    """A group column carries zero calibration mass; its coverage is undefined."""

    def __init__(self, groups: tuple[int, ...], trial: int | None = None):
        self.groups = groups
        self.trial = trial
        where = f" in trial {trial}" if trial is not None else ""
        super().__init__(f"groups {list(groups)} have zero calibration mass{where}")

    def __reduce__(self):
        # rebuilt from its fields when a worker process sends it back
        return type(self), (self.groups, self.trial)


@dataclass(frozen=True)
class CalibrationData:
    """QR inputs: one row per calibration entry plus the aggregated test weight."""

    features: np.ndarray  # (n, |groups|) binary
    scores: np.ndarray
    weights: np.ndarray
    test_weight: float

    @classmethod
    def from_coreset(cls, coreset: Coreset, test_weight: float) -> "CalibrationData":
        """The coreset's fields: its atoms as float features, means as scores."""
        entries = coreset.entries
        return cls(entries["atom"].astype(float), entries["mean"], entries["weight"], test_weight)

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
    *,
    start_basis: SimplexBasis | None = None,
) -> float:
    """Largest S whose test dual stays below the box bound, S*; when the dual
    never reaches its bound (S* = +inf), ``data.default_bracket()[1]``.

    The walk starts at the calibration fit f0 of ``start_basis`` (from
    ``calibration_basis`` on the same data and alpha, solved here when none
    is given), where the test dual is 0, goes up to S* and solves once more,
    as the verified optimum, at the returned threshold, or at the walk's last
    breakpoint if that is lower: the optimum there holds for every larger
    score. EmptySetError means S* is at or below the bracket's low end, or
    the test dual's bound is at or below 0, its value at f0.
    """
    lo, hi = data.default_bracket()
    if start_basis is None:
        start_basis = calibration_basis(data, alpha)
    else:
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
    if bound <= 0.0:  # the test dual is 0 at f0, the lowest score the walk reaches
        raise EmptySetError(f"test dual bound {bound!r} is not above its value 0 at the calibration fit")
    solver.start_walk()
    s_star = solver.raise_test_score(bound)
    solver.solve_at(min(solver.test_score, s_star))
    if s_star <= lo:
        raise EmptySetError(f"test dual already at its bound at score {lo}")
    return hi if s_star == math.inf else s_star  # an unbounded set reads as the bracket's high end


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

    def __init__(self, data: CalibrationData, alpha: float):
        self.data = data
        self.alpha = alpha
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
            s_star = threshold_search(self.data, key, self.alpha, start_basis=self._basis)
            self.search_times.append(time.perf_counter() - t0)
            self._cache[key] = s_star
        return self._cache[key]


def calibrate_baseline(
    kind: str,
    datasets: Sequence[ClientDataset],
    alpha: float,
    *,
    family: GroupFamily,
    delta: float,
):
    """Build the calibrator of one benchmark kind from the clients' datasets.

    centralized_cp pools the raw scores into one split-CP threshold.
    condcp_centralized pools features and scores at the uniform weight
    1 / (n + 1); gcfcp_centralized keeps each client's mixture weight.
    fcp_marginal and gcfcp_coreset run a federation round at ``delta``,
    fcp_marginal over the one all-covering group. Every kind first checks
    that the clients' mixture weights sum to 1, as the server does.
    """
    if kind not in CALIBRATOR_KINDS:
        raise ValueError(f"unknown calibrator kind {kind!r}")
    check_mixture(d.pi for d in datasets)
    if kind == "centralized_cp":
        scores = np.concatenate([d.scores for d in datasets])
        return GlobalCalibrator(split_cp_threshold(scores, alpha))
    if kind in ("condcp_centralized", "gcfcp_centralized"):
        data = CalibrationData.from_datasets(datasets, family)
        if kind == "condcp_centralized":
            n = data.scores.size
            if n == 0:
                raise ValueError("no calibration scores")
            w = 1.0 / (n + 1)
            data = replace(data, weights=np.full(n, w), test_weight=w)
        return ConditionalCalibrator(data, alpha)
    round_ = run_round(datasets, SINGLE_GROUP if kind == "fcp_marginal" else family, delta)
    cal = CalibrationData.from_coreset(round_.coreset, round_.test_weight)
    calibrator = ConditionalCalibrator(cal, alpha)
    calibrator.wire_bytes = round_.wire_bytes
    return calibrator
