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

A search splits into work that depends only on the calibration set and
work that depends on the pattern. ``calibration_start`` does the first once:
the group-mass check, the solver's matrix, bounds and costs, the cold
solve of the calibration-only regression, and the opening of its optimum
with the check that it is optimal. Per pattern, ``threshold_search``
copies that opened state, sets the test column, reads the fit f0, walks and
verifies. A calibrator serves many test patterns from one calibration set,
so it makes the start once, on its first fresh search, and shares it; a
search given no start makes one for itself and runs the same per-pattern
code.

``calibrate_baseline`` builds every calibrator kind from the same client
datasets. Besides the coreset path: a single global split-CP order statistic,
the marginal reduction of the coreset path to one all-covering group, and
raw-score variants of the same augmented regression (uniform weights, or
per-client mixture weights). ``CalibrationData.from_coreset`` reads the
coreset's structured array field by field, in its row order, which is the
calibration layout; ``from_datasets`` lays the pooled rows out once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .federation import ClientDataset, Coreset, check_mixture, run_round, test_term_weight
from .groups import SINGLE_GROUP, GroupFamily, MembershipVector, membership_matrix, sort_atoms
from .pinball import AugmentedQrSolver

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
    """QR inputs: one row per calibration entry plus the aggregated test weight.

    The rows come in the calibration layout: atoms in lexicographic bit
    order, scores ascending within an atom, tied scores in input order. The
    solver's cold crash takes each run of equal feature rows as an atom;
    rows in another order give the same S*, from a slower start. ValueError
    unless the features are 0/1 with one score and one weight per row.
    """

    features: np.ndarray  # (n, |groups|) binary
    scores: np.ndarray
    weights: np.ndarray
    test_weight: float

    def __post_init__(self):
        n = len(self.features)
        if len(self.scores) != n or len(self.weights) != n:
            raise ValueError(f"{len(self.scores)} scores and {len(self.weights)} weights for {n} feature rows")
        if not np.all((self.features == 0) | (self.features == 1)):
            raise ValueError("calibration features must be 0/1")

    @classmethod
    def from_coreset(cls, coreset: Coreset, test_weight: float) -> "CalibrationData":
        """The coreset's fields: its atoms as float features, means as scores,
        in its row order, which is the calibration layout."""
        entries = coreset.entries
        return cls(entries["atom"].astype(float), entries["mean"], entries["weight"], test_weight)

    @classmethod
    def from_datasets(
        cls, datasets: Sequence[ClientDataset], family: GroupFamily
    ) -> "CalibrationData":
        """The clients' rows pooled and laid out once."""
        feats, scores, weights = [], [], []
        for ds in datasets:
            feats.append(membership_matrix(ds.covariates, family))
            scores.append(np.asarray(ds.scores, dtype=float))
            weights.append(np.full(ds.n, ds.sample_weight))
        feats, scores = np.vstack(feats), np.concatenate(scores)
        order, _ = sort_atoms(feats.T == 1, np.argsort(scores, kind="stable"))
        return cls(
            feats[order].astype(float),
            scores[order],
            np.concatenate(weights)[order],
            test_term_weight(datasets),
        )

    def default_bracket(self) -> tuple[float, float]:
        return float(self.scores.min()) - 1.0, float(self.scores.max()) + 1.0


def _check_column_mass(data: CalibrationData) -> None:
    column_mass = data.features.T @ data.weights
    dead = tuple(int(g) for g in np.flatnonzero(column_mass <= 0.0))
    if dead:
        raise DegenerateGroupError(dead)


def calibration_start(data: CalibrationData, alpha: float) -> AugmentedQrSolver:
    """The calibration-only regression, built, solved and opened for walks at
    the data's test weight (``AugmentedQrSolver.open_walk``), after a check
    that every group column has calibration mass: the part of a threshold
    search that depends on the calibration set alone.

    A test weight of 0 gives the test entry the box [0, 0], which makes it
    inert whatever its pattern and score until ``open_walk`` gives it the
    real box.
    """
    _check_column_mass(data)
    d = data.features.shape[1]
    solver = AugmentedQrSolver(data.features, data.scores, data.weights, alpha, (0,) * d, 0.0)
    solver.solve_at(0.0)
    solver.open_walk(data.test_weight)
    return solver


def threshold_search(
    data: CalibrationData,
    test_feature: MembershipVector,
    alpha: float,
    *,
    start: AugmentedQrSolver | None = None,
) -> float:
    """Largest S whose test dual stays below the box bound, S*; when the dual
    never reaches its bound (S* = +inf), ``data.default_bracket()[1]``.

    ``start`` comes from ``calibration_start`` on the same data and alpha,
    and is made here when none is given. The walk starts from a copy of it
    at the calibration fit f0 of ``test_feature``, where the test dual is 0,
    goes up to S* and solves once more, as the verified optimum, where the
    walk stopped: at S*, or, when S* = +inf, at the last breakpoint, whose
    optimum holds for every larger score. EmptySetError means S*
    is at or below the bracket's low end, or the test dual's bound is at or
    below 0, its value at f0.
    """
    lo, hi = data.default_bracket()
    if start is None:
        start = calibration_start(data, alpha)
    bound = data.test_weight * (1.0 - alpha) - _ETA_GUARD
    if bound <= 0.0:  # the test dual is 0 at f0, the lowest score the walk reaches
        raise EmptySetError(f"test dual bound {bound!r} is not above its value 0 at the calibration fit")
    solver = start.start_pattern(test_feature)
    s_star = solver.raise_test_score(bound)
    solver.solve_at(solver.test_score)
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
    results are cached per pattern. The first fresh search makes one
    ``calibration_start`` (the calibration-only regression built, solved and
    opened), and every pattern's search walks from a copy of it.
    ``search_times`` records the wall-clock of each fresh search, one per
    distinct pattern, for the timing reports; the first one also carries the
    one-time build and open.
    """

    def __init__(self, data: CalibrationData, alpha: float):
        self.data = data
        self.alpha = alpha
        self.search_times: list[float] = []
        self.wire_bytes = 0
        self._cache: dict[MembershipVector, float] = {}
        self._start: AugmentedQrSolver | None = None

    def threshold(self, test_feature: MembershipVector) -> float:
        key = tuple(test_feature)
        if key not in self._cache:
            t0 = time.perf_counter()
            if self._start is None:
                self._start = calibration_start(self.data, self.alpha)
            s_star = threshold_search(self.data, key, self.alpha, start=self._start)
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
