import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import atom_features
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import reference_threshold_search

from gcfcp import conformal
from gcfcp.conformal import (
    CALIBRATOR_KINDS,
    CalibrationData,
    ConditionalCalibrator,
    DegenerateGroupError,
    EmptySetError,
    GlobalCalibrator,
    calibrate_baseline,
    predict_regression,
    split_cp_threshold,
    threshold_search,
)
from gcfcp.federation import ClientDataset, ProtocolError
from gcfcp.groups import SINGLE_GROUP, interval_family
from gcfcp.pinball import AugmentedQrSolver, SolverError

FOUR_INTERVALS = interval_family([(0, 2), (1, 3), (2, 4), (3, 5)])
FOUR_INTERVAL_PATTERNS = [(1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)]


@pytest.fixture
def lp_log(monkeypatch):
    """Record every solver the conformal module builds and every solve, on a
    fake clock that advances one second per solve."""
    log = SimpleNamespace(solvers=[], solves=0, scores=[], now=0.0)

    class Recording(AugmentedQrSolver):
        def __init__(self, *args, start_basis=None):
            super().__init__(*args, start_basis=start_basis)
            log.solvers.append((start_basis is None, args[5]))

        def solve_at(self, test_score):
            log.solves += 1
            log.scores.append(test_score)
            log.now += 1.0
            return super().solve_at(test_score)

    monkeypatch.setattr(conformal, "AugmentedQrSolver", Recording)
    monkeypatch.setattr(conformal, "time", SimpleNamespace(perf_counter=lambda: log.now))
    return log


def single_group_data(scores, weights, test_weight):
    scores = np.asarray(scores, dtype=float)
    return CalibrationData(
        np.ones((scores.size, 1)), scores, np.asarray(weights, dtype=float), test_weight
    )


def augmented_quantile(scores, weights, test_weight, alpha, hi):
    """Exact oracle: smallest score whose cumulative weight reaches
    (1 - alpha) of the total including the test mass (placed at +inf)."""
    order = np.argsort(scores)
    s, w = np.asarray(scores)[order], np.asarray(weights)[order]
    target = (1.0 - alpha) * (w.sum() + test_weight)
    cum = np.cumsum(w)
    idx = int(np.searchsorted(cum, target - 1e-12))
    return float(s[idx]) if idx < s.size else hi


class TestSplitCp:
    def test_order_statistic(self):
        assert split_cp_threshold(range(1, 10), 0.1) == 9.0

    def test_beyond_support_is_inf(self):
        assert split_cp_threshold([1.0, 2.0, 3.0], 0.001) == math.inf

    def test_small_alpha_large_n(self):
        scores = np.arange(1, 100, dtype=float)
        k = math.ceil(0.9 * 100)
        assert split_cp_threshold(scores, 0.1) == float(k)

    def test_empty(self):
        with pytest.raises(ValueError):
            split_cp_threshold([], 0.1)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.2])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError, match="outside"):
            split_cp_threshold(np.arange(1.0, 11.0), alpha)


class TestThresholdSearch:
    def test_matches_augmented_quantile_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(10, 80))
            scores = rng.random(n) * 5
            weights = rng.uniform(0.5, 2.0, n) / (n + 1)
            wt = float(rng.uniform(0.2, 1.5)) / (n + 1)
            alpha = float(rng.uniform(0.05, 0.3))
            data = single_group_data(scores, weights, wt)
            got = threshold_search(data, (1,), alpha)
            hi = data.default_bracket()[1]
            want = augmented_quantile(scores, weights, wt, alpha, hi)
            assert got == pytest.approx(want, abs=1e-5)

    def test_constant_scores(self):
        data = single_group_data([2.0] * 10, [0.1] * 10, 0.1)
        got = threshold_search(data, (1,), 0.2)
        assert got == pytest.approx(2.0, abs=1e-5)

    def test_tiny_alpha_returns_hi(self):
        data = single_group_data([1, 2, 3, 4, 5], [0.2] * 5, 0.2)
        hi = data.default_bracket()[1]
        assert threshold_search(data, (1,), 0.001) == hi

    def test_threshold_is_a_calibration_score(self):
        """One group: S* is exactly a calibration score, whatever the walk's start."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(20, 80))
            scores = rng.random(n) * 5
            data = single_group_data(scores, np.full(n, 1.0 / (n + 1)), 1.0 / (n + 1))
            for alpha in (0.05, 0.1, 0.2):
                assert threshold_search(data, (1,), alpha) in set(scores.tolist())

    def test_empty_set_error(self):
        """A test weight of 0 puts the test dual at its bound from the start."""
        data = single_group_data([1, 2, 3], [1.0] * 3, 0.0)
        with pytest.raises(EmptySetError):
            threshold_search(data, (1,), 0.5)

    def test_degenerate_group_detected(self):
        feats = np.array([[1.0, 0.0], [1.0, 0.0]])
        data = CalibrationData(feats, np.array([1.0, 2.0]), np.array([0.5, 0.5]), 0.1)
        with pytest.raises(DegenerateGroupError) as err:
            threshold_search(data, (1, 1), 0.1)
        assert err.value.groups == (1,)

    def test_nan_score_fails_verification(self):
        data = single_group_data([1.0, np.nan, 3.0], [1.0] * 3, 0.1)
        with pytest.raises(SolverError):
            threshold_search(data, (1,), 0.2)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(1)
        scores = rng.random(40) * 5
        data = single_group_data(scores, np.full(40, 1 / 41), 1 / 41)
        thresholds = [
            threshold_search(data, (1,), a) for a in (0.05, 0.1, 0.2, 0.3)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(thresholds, thresholds[1:]))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    ties=st.booleans(),
    label_sets=st.booleans(),
    tiny_alpha=st.booleans(),
    dead_group=st.booleans(),
    zero_test_weight=st.booleans(),
)
def test_parametric_threshold_matches_bisection(
    seed, d, ties, label_sets, tiny_alpha, dead_group, zero_test_weight
):
    """S* from the breakpoint walk lies within [-1e-7, 1e-6 + 1e-7] of the
    bisection to 1e-6 (which stops below the breakpoint), and both raise the
    same errors: EmptySetError for a test weight of 0, DegenerateGroupError
    for a group column without mass."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 80))
    feats = atom_features(rng, d, n, label_sets)
    scores = np.round(rng.random(n) * 10.0) / 2.0 if ties else rng.random(n) * 5.0
    weights = rng.uniform(0.5, 2.0, n) / (n + 1)
    if dead_group:
        feats[:, int(rng.integers(d))] = 0.0
    test_weight = 0.0 if zero_test_weight else float(rng.uniform(0.2, 1.5)) / (n + 1)
    data = CalibrationData(feats, scores, weights, test_weight)
    alpha = 0.001 if tiny_alpha else float(rng.uniform(0.05, 0.4))
    pattern = tuple(int(b) for b in feats[int(rng.integers(n))])
    try:
        want = reference_threshold_search(data, pattern, alpha)
    except (EmptySetError, DegenerateGroupError) as exc:
        with pytest.raises(type(exc)):
            threshold_search(data, pattern, alpha)
        return
    got = threshold_search(data, pattern, alpha)
    assert -1e-7 <= got - want <= 1e-6 + 1e-7


class TestPredictionSets:
    def test_regression_interval(self):
        ps = predict_regression(3.0, 0.5)
        assert (ps.center - ps.radius, ps.center + ps.radius) == (2.5, 3.5)
        assert ps.threshold == 0.5

    def test_regression_degenerate_point(self):
        ps = predict_regression(0.0, 0.0)
        assert (ps.center, ps.radius) == (0.0, 0.0)

    def test_regression_negative_center(self):
        ps = predict_regression(-1.2, 2.0)
        assert ps.center - ps.radius == pytest.approx(-3.2)
        assert ps.center + ps.radius == pytest.approx(0.8)

    def test_regression_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            predict_regression(0.0, -0.1)

    def test_label_sets_nested_in_alpha(self):
        rng = np.random.default_rng(2)
        datasets = [
            ClientDataset(k, rng.integers(0, 10, 50), rng.random(50), 0.5)
            for k in (1, 2)
        ]
        from gcfcp.groups import GroupFamily, LabelSet

        fam = GroupFamily(
            groups=(
                LabelSet(frozenset(range(0, 6))),
                LabelSet(frozenset(range(4, 10))),
            ),
            feature="predicted_label",
        )
        candidates = {y: float(s) for y, s in enumerate(rng.random(10))}
        prev = None
        for alpha in (0.05, 0.1, 0.2, 0.3):
            cal = calibrate_baseline("gcfcp_coreset", datasets, alpha, family=fam, delta=100.0)
            s_star = cal.threshold((1, 0))
            labels = {y for y, score in candidates.items() if score <= s_star}
            if prev is not None:
                assert labels <= prev
            prev = labels


class TestBaselines:
    def make_datasets(self, seed=3, n=(60, 40)):
        rng = np.random.default_rng(seed)
        return [
            ClientDataset(k + 1, rng.uniform(0, 5, nk), rng.random(nk) * 3, 1 / len(n))
            for k, nk in enumerate(n)
        ]

    def test_centralized_cp_is_global(self):
        datasets = [
            ClientDataset(1, np.zeros(4), np.arange(1.0, 5.0), 0.5),
            ClientDataset(2, np.zeros(5), np.arange(5.0, 10.0), 0.5),
        ]
        cal = calibrate_baseline(
            "centralized_cp", datasets, 0.1, family=FOUR_INTERVALS, delta=100.0
        )
        assert isinstance(cal, GlobalCalibrator)
        assert cal.threshold((1, 0, 1)) == 9.0

    def test_fcp_marginal_equals_single_group_coreset(self):
        datasets = self.make_datasets()
        a = calibrate_baseline(
            "fcp_marginal", datasets, 0.1, family=FOUR_INTERVALS, delta=500.0
        )
        b = calibrate_baseline(
            "gcfcp_coreset", datasets, 0.1, family=SINGLE_GROUP, delta=500.0
        )
        assert a.threshold((1,)) == pytest.approx(b.threshold((1,)), abs=1e-6)

    def test_gcfcp_centralized_single_client_equals_condcp(self):
        """With one client the mixture weights 1/(n+1) coincide exactly."""
        rng = np.random.default_rng(4)
        n = 100
        ds = ClientDataset(1, rng.uniform(0, 5, n), rng.random(n) * 3, 1.0)
        a, b = (
            calibrate_baseline(kind, [ds], 0.1, family=FOUR_INTERVALS, delta=100.0)
            for kind in ("gcfcp_centralized", "condcp_centralized")
        )
        for pattern in [(1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0)]:
            assert a.threshold(pattern) == pytest.approx(b.threshold(pattern), abs=1e-6)

    def test_gcfcp_centralized_equal_clients_proportional_weights(self):
        """Equal pi and n give uniform per-point weights, proportional to the
        CondCP weights; only the augmented test mass differs across the two."""
        rng = np.random.default_rng(5)
        n = 50
        datasets = [
            ClientDataset(k, rng.uniform(0, 5, n), rng.random(n) * 3, 0.5)
            for k in (1, 2)
        ]
        data = CalibrationData.from_datasets(datasets, FOUR_INTERVALS)
        assert np.allclose(data.weights, 0.5 / (n + 1))
        assert data.test_weight == pytest.approx(2 * 0.5 / (n + 1))

    @pytest.mark.parametrize("kind", CALIBRATOR_KINDS)
    def test_every_kind_checks_the_mixture(self, kind):
        datasets = [replace(ds, pi=0.6) for ds in self.make_datasets()]
        with pytest.raises(ProtocolError, match=r"mixture weights sum to 1\.2, expected 1"):
            calibrate_baseline(kind, datasets, 0.1, family=FOUR_INTERVALS, delta=100.0)

    def test_conditional_calibrator_caches(self):
        datasets = self.make_datasets()
        cal = calibrate_baseline(
            "gcfcp_coreset", datasets, 0.1, family=FOUR_INTERVALS, delta=100.0
        )
        assert isinstance(cal, ConditionalCalibrator)
        t1 = cal.threshold((1, 1, 0, 0))
        t2 = cal.threshold((1, 1, 0, 0))
        assert t1 == t2
        assert len(cal.search_times) == 1
        assert cal.wire_bytes > 0

    @pytest.mark.parametrize("kind", ["gcfcp_centralized", "gcfcp_coreset"])
    def test_shared_basis_matches_fresh_search(self, kind):
        for seed in (3, 6):
            datasets = self.make_datasets(seed=seed)
            cal = calibrate_baseline(
                kind, datasets, 0.1, family=FOUR_INTERVALS, delta=100.0
            )
            for pattern in FOUR_INTERVAL_PATTERNS:
                assert cal.threshold(pattern) == threshold_search(cal.data, pattern, 0.1)

    def test_one_cold_solve_per_calibrator(self, lp_log):
        datasets = self.make_datasets()
        cal = calibrate_baseline(
            "gcfcp_centralized", datasets, 0.1, family=FOUR_INTERVALS, delta=100.0
        )
        for pattern in FOUR_INTERVAL_PATTERNS * 2:
            cal.threshold(pattern)
        cold = [test_weight for is_cold, test_weight in lp_log.solvers if is_cold]
        assert cold == [0.0]
        assert len(lp_log.solvers) == 1 + len(FOUR_INTERVAL_PATTERNS)

    def test_search_times_include_shared_solve(self, lp_log):
        datasets = self.make_datasets()
        cal = calibrate_baseline(
            "gcfcp_centralized", datasets, 0.1, family=FOUR_INTERVALS, delta=100.0
        )
        cal.threshold(FOUR_INTERVAL_PATTERNS[0])
        first = lp_log.solves
        for pattern in FOUR_INTERVAL_PATTERNS:
            cal.threshold(pattern)
        assert len(cal.search_times) == len(FOUR_INTERVAL_PATTERNS)
        assert cal.search_times[0] == first
        assert sum(cal.search_times) == lp_log.solves

    def test_search_solves_at_lo_and_at_the_threshold(self, lp_log):
        """Every search is verified twice: one below the lowest score and at S*."""
        datasets = self.make_datasets()
        data = CalibrationData.from_datasets(datasets, FOUR_INTERVALS)
        lo = data.default_bracket()[0]
        for pattern in FOUR_INTERVAL_PATTERNS:
            lp_log.scores.clear()
            s_star = threshold_search(data, pattern, 0.1)
            assert lp_log.scores == [lo, s_star]

    def test_unbounded_search_solves_at_the_last_breakpoint(self, lp_log):
        """The walk returns +inf past the last breakpoint, 5; the optimum
        there holds for every larger score, so 5 is verified and the
        threshold reads as the bracket's high end."""
        data = single_group_data([1, 2, 3, 4, 5], [0.2] * 5, 0.2)
        assert threshold_search(data, (1,), 0.001) == data.default_bracket()[1]
        assert lp_log.scores == [0.0, 5.0]

    def test_degenerate_group_raised_before_any_solve(self, lp_log):
        feats = np.array([[1.0, 0.0], [1.0, 0.0]])
        data = CalibrationData(feats, np.array([1.0, 2.0]), np.array([0.5, 0.5]), 0.1)
        cal = ConditionalCalibrator(data, 0.1)
        with pytest.raises(DegenerateGroupError) as err:
            cal.threshold((1, 1))
        assert err.value.groups == (1,)
        assert lp_log.solvers == [] and cal.search_times == []

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            calibrate_baseline(
                "bogus", self.make_datasets(), 0.1, family=FOUR_INTERVALS, delta=100.0
            )
