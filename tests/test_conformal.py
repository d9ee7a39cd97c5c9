import math
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import atom_features
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import calibration_basis, reference_threshold_search, reference_walk_from_lo, search_from

from gcfcp import conformal
from gcfcp.conformal import (
    CALIBRATOR_KINDS,
    CalibrationData,
    ConditionalCalibrator,
    DegenerateGroupError,
    EmptySetError,
    GlobalCalibrator,
    calibrate_baseline,
    calibration_start,
    split_cp_threshold,
    threshold_search,
)
from gcfcp.federation import ClientDataset, ProtocolError, run_round
from gcfcp.groups import SINGLE_GROUP, GroupFamily, LabelSet, interval_family, membership_matrix
from gcfcp.pinball import AugmentedQrSolver, SolverError

FOUR_INTERVALS = interval_family([(0, 2), (1, 3), (2, 4), (3, 5)])
FOUR_INTERVAL_PATTERNS = [(1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)]


@pytest.fixture
def lp_log(monkeypatch):
    """Record every solver the conformal module builds, every pattern it
    starts a walk for from an opened start, and every solve, on a fake clock
    that advances one second per solve."""
    log = SimpleNamespace(solvers=[], patterns=[], solves=0, scores=[], now=0.0)

    class Recording(AugmentedQrSolver):
        def __init__(self, *args, start_basis=None):
            super().__init__(*args, start_basis=start_basis)
            log.solvers.append((start_basis is None, args[5]))

        def start_pattern(self, test_feature):
            log.patterns.append(tuple(test_feature))
            return super().start_pattern(test_feature)

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

    @pytest.mark.parametrize(
        "test_weight, empty, was_empty", [(0.5e-9, True, True), (1.5e-9, True, False), (2.5e-9, False, False)]
    )
    def test_empty_set_band(self, test_weight, empty, was_empty):
        """EmptySetError for a test weight up to 1e-9 / (1 - alpha), 2e-9 at
        alpha 0.5: there the test dual's bound w (1 - alpha) - 1e-9 is at or
        below 0, its value at the calibration fit, where the walk starts.
        The search that solved one below the lowest score first raised it
        only up to 1e-9, where the bound is at or below -w alpha."""
        data = single_group_data([1.0, 2.0, 3.0], [0.25] * 3, test_weight)
        for search, raises in ((threshold_search, empty), (reference_walk_from_lo, was_empty)):
            if raises:
                with pytest.raises(EmptySetError):
                    search(data, (1,), 0.5)
            else:
                assert search(data, (1,), 0.5) == 2.0

    def test_a_threshold_below_the_data_is_empty(self):
        """Atom (1, 0) holds the high scores, atom (1, 1) the low ones, so
        the unseen pattern (0, 1) is fitted at -4, below the bracket's low end
        0. The walk starts there and reaches the bound at -3.5, which reads as
        an empty set, as it does for the search from the low end and the
        bisection."""
        feats = np.array([[1, 0]] * 4 + [[1, 1]] * 4, dtype=float)
        scores = np.array([5.0, 5.5, 6.0, 6.5, 1.0, 1.5, 2.0, 2.5])
        data = CalibrationData(feats, scores, np.full(8, 1 / 9), 0.1)
        basis = calibration_basis(data, 0.2)
        solver = AugmentedQrSolver(feats, scores, data.weights, 0.2, (0, 1), 0.1, start_basis=basis)
        solver.start_walk()
        assert solver.test_score == pytest.approx(-4.0, abs=1e-12)
        assert solver.raise_test_score(0.1 * 0.8 - 1e-9) == pytest.approx(-3.5, abs=1e-12)
        for search in (threshold_search, reference_walk_from_lo, reference_threshold_search):
            with pytest.raises(EmptySetError):
                search(data, (0, 1), 0.2)
        with pytest.raises(EmptySetError):
            search_from(data, (0, 1), 0.2, basis)

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


SEARCH_DRAWS = dict(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    ties=st.booleans(),
    label_sets=st.booleans(),
    tiny_alpha=st.booleans(),
    dead_group=st.booleans(),
    zero_test_weight=st.booleans(),
    above=st.booleans(),
)


def search_case(seed, d, ties, label_sets, tiny_alpha, dead_group, zero_test_weight, above):
    """Calibration data, a pattern of one of its rows and alpha on atom
    features; with ``dead_group`` a group column without mass, with
    ``zero_test_weight`` a test weight of 0.

    With ``above``, the rows fall in at least 2 disjoint groups instead, each
    with a row, scores lie in [3.5, 5] and the pattern spans 2 or more
    groups: its calibration fit, a sum of group quantiles, is at least 7,
    above the highest score plus 1, and so is S*. Unless alpha is tiny, S* is
    then finite in most draws (see the test's docstring)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 80))
    feats = atom_features(rng, d, n, label_sets)
    scores = np.round(rng.random(n) * 10.0) / 2.0 if ties else rng.random(n) * 5.0
    weights = rng.uniform(0.5, 2.0, n) / (n + 1)
    if dead_group:
        feats[:, int(rng.integers(d))] = 0.0
    test_weight = 0.0 if zero_test_weight else float(rng.uniform(0.2, 1.5)) / (n + 1)
    alpha = 0.001 if tiny_alpha else float(rng.uniform(0.05, 0.4))
    pattern = tuple(int(b) for b in feats[int(rng.integers(n))])
    if above:
        d = max(d, 2)
        feats = np.eye(d)[rng.permutation(np.resize(np.arange(d), n))]
        scores = 3.5 + 0.3 * scores
        pattern = tuple(rng.permutation([1, 1] + rng.integers(0, 2, d - 2).tolist()).tolist())
        if dead_group:
            feats[:, int(rng.integers(d))] = 0.0
    return CalibrationData(feats, scores, weights, test_weight), pattern, alpha


@settings(max_examples=160, deadline=None)
@given(**SEARCH_DRAWS)
def test_parametric_threshold_matches_bisection(**draws):
    """S* from the breakpoint walk lies within [-1e-7, 1e-6 + 1e-7] of the
    bisection to 1e-6 (which stops below the breakpoint), and both raise the
    same errors: EmptySetError for a test weight of 0, DegenerateGroupError
    for a group column without mass. The ``above`` draws, half of all, give
    a finite S* above the highest score plus 1 in 9 of 10 cases without an
    error flag and with alpha not tiny, 1 draw in 18 overall; of the other
    draws, 1 searchable case in 40 does (over 400 seeds and every setting of
    the flags)."""
    data, pattern, alpha = search_case(**draws)
    try:
        want = reference_threshold_search(data, pattern, alpha)
    except (EmptySetError, DegenerateGroupError) as exc:
        with pytest.raises(type(exc)):
            threshold_search(data, pattern, alpha)
        return
    got = threshold_search(data, pattern, alpha)
    assert -1e-7 <= got - want <= 1e-6 + 1e-7


def ulps(a, b):
    """The number of doubles from a to b."""
    ordered = []
    for x in (a, b):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        ordered.append(i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF))
    return abs(ordered[0] - ordered[1])


def test_search_matches_the_walk_from_lo():
    """The walk from the calibration fit against the search it replaced, a
    solve one below the lowest score and a walk up from there, cold and from
    the calibration basis, on the bisection test's draws: S* within 4 ulp,
    the bracket's high end for both or neither, and the same errors. The
    largest distance is printed."""
    largest = []

    @settings(max_examples=120, deadline=None)
    @given(warm=st.booleans(), **SEARCH_DRAWS)
    def check(warm, **draws):
        data, pattern, alpha = search_case(**draws)
        start = None
        try:
            start = calibration_basis(data, alpha) if warm else None
            want = reference_walk_from_lo(data, pattern, alpha, start)
        except (EmptySetError, DegenerateGroupError) as exc:
            with pytest.raises(type(exc)):
                search_from(data, pattern, alpha, start)
            return
        got = search_from(data, pattern, alpha, start)
        hi = data.default_bracket()[1]
        assert (got == hi) == (want == hi)
        distance = ulps(got, want)
        assert distance <= 4
        largest.append(distance)

    check()
    print(f"largest distance from the walk from lo: {max(largest, default=0)} ulp over {len(largest)} searches")


@settings(max_examples=80, deadline=None)
@given(intervals=st.booleans(), **SEARCH_DRAWS)
def test_a_calibrator_answers_as_a_cold_search(intervals, **draws):
    """A calibrator walks every pattern from one shared calibration start; a
    cold ``threshold_search`` makes its own. For every pattern of the data,
    the drawn one and the all-ones pattern, the two give the same threshold
    as a repr string or raise the same error type. The draws are the
    bisection test's, with ``intervals`` replacing the features of the draws
    not ``above`` by the memberships of points uniform on [0, 5] in d random
    intervals that cover it: [0, 5] cut at d - 1 random points, each piece
    widened by up to 1 on either side (a dead group still drawn dead)."""
    data, pattern, alpha = search_case(**draws)
    if intervals and not draws["above"]:
        rng = np.random.default_rng(draws["seed"])
        n, d = data.features.shape
        edges = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 5.0, d - 1)), [5.0]])
        family = interval_family(list(zip(edges[:-1] - rng.random(d), edges[1:] + rng.random(d))))
        feats = membership_matrix(rng.uniform(0.0, 5.0, n), family).astype(float)
        if draws["dead_group"]:
            feats[:, int(rng.integers(d))] = 0.0
        data = replace(data, features=feats)
        pattern = tuple(int(b) for b in feats[0])
    d = data.features.shape[1]
    patterns = {tuple(int(b) for b in row) for row in data.features} | {pattern, (1,) * d}
    cal = ConditionalCalibrator(data, alpha)
    for p in sorted(patterns):
        try:
            want = threshold_search(data, p, alpha)
        except (EmptySetError, DegenerateGroupError, SolverError) as exc:
            with pytest.raises(type(exc)):
                cal.threshold(p)
            continue
        assert repr(cal.threshold(p)) == repr(want)


def lossless_round_case(seed, label_sets):
    """1 to 4 clients of 5 to 80 rows, Dirichlet mixture weights, scores
    rounded to 0.1 on [0, 4] (ties are common) and alpha in (0.05, 0.5);
    covariates on [0, 5] for the four intervals, or labels for up to 4
    label sets that cover every label."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    sizes = rng.integers(5, 81, k).tolist()
    pis = rng.dirichlet(np.ones(k)).tolist()
    if label_sets:
        d, labels = int(rng.integers(1, 5)), int(rng.integers(2, 9))
        groups = [set(rng.choice(labels, int(rng.integers(1, labels + 1)), replace=False).tolist()) for _ in range(d)]
        groups[0] |= set(range(labels)) - set().union(*groups)
        family = GroupFamily(tuple(LabelSet(frozenset(g)) for g in groups))
        covariates = [rng.integers(0, labels, n) for n in sizes]
    else:
        family = FOUR_INTERVALS
        covariates = [rng.uniform(0.0, 5.0, n) for n in sizes]
    datasets = [
        ClientDataset(j + 1, x, np.round(rng.random(n) * 40.0) / 10.0, pi)
        for j, (x, n, pi) in enumerate(zip(covariates, sizes, pis))
    ]
    return datasets, family, float(rng.uniform(0.05, 0.5))


def test_an_uncompressed_coreset_is_the_calibration_set():
    """When no two samples share a cluster, the coreset is the calibration
    set with its rows in (atom, score) order, and the coreset path gives
    every pattern the centralized path's S*, within 16 ulp: the two solve
    one LP with its rows in two orders, so a tie can end the walk at another
    basis, whose breakpoint -r0/r1 rounds differently (6 ulp at most over
    22 492 patterns of 6 000 draws). The largest distance is printed.

    The compression: a segment's scale r(q) = (delta / 2 pi) arcsin(2q - 1)
    rises by at least delta / pi per unit of quantile, its least slope (at
    q = 1/2), and a sample moves its segment's quantile by its weight over
    the segment's total, at least w_min / W, with w_min the smallest sample
    weight pi_k / (n_k + 1) and W the total weight of all samples. With
    delta = 2 pi W / w_min every sample moves the scale by at least 2, more
    than the span of 1 (plus 1e-12) a cluster may cover, so every cluster
    holds one sample. That holds on the server, whose samples weigh
    pi_k / (n_k + 1) >= w_min, and on each client, whose samples weigh 1 in
    atoms of at most n_k samples, with n_k <= W / w_min.
    """
    largest = []

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), label_sets=st.booleans())
    def check(seed, label_sets):
        datasets, family, alpha = lossless_round_case(seed, label_sets)
        w = [ds.sample_weight for ds in datasets]
        delta = 2.0 * math.pi * sum(wk * ds.n for wk, ds in zip(w, datasets)) / min(w)
        round_ = run_round(datasets, family, delta)
        rows = np.vstack([membership_matrix(ds.covariates, family) for ds in datasets])
        scores = np.concatenate([ds.scores for ds in datasets])
        weights = np.concatenate([np.full(ds.n, wk) for ds, wk in zip(datasets, w)])
        assert rows.any(axis=1).all()  # every row in some group, so in the coreset
        assert all((m.sizes == 1).all() for m in round_.messages)
        assert len(round_.coreset) == scores.size  # every cluster a singleton
        order = np.lexsort((scores, *rows.T[::-1]))
        entries = round_.coreset.entries
        np.testing.assert_array_equal(entries["atom"], rows[order])
        assert entries["mean"].tobytes() == scores[order].tobytes()
        assert entries["weight"].tobytes() == weights[order].tobytes()

        central, coreset = (
            calibrate_baseline(kind, datasets, alpha, family=family, delta=delta)
            for kind in ("gcfcp_centralized", "gcfcp_coreset")
        )
        for pattern in sorted({tuple(row) for row in rows.tolist()}):
            try:
                want = central.threshold(pattern)
            except DegenerateGroupError:
                with pytest.raises(DegenerateGroupError):
                    coreset.threshold(pattern)
                return
            got = coreset.threshold(pattern)
            distance = ulps(got, want)
            assert distance <= 16
            largest.append(distance)

    check()
    print(f"largest distance, coreset from centralized: {max(largest, default=0)} ulp over {len(largest)} patterns")


class TestPredictionSets:
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

    @pytest.mark.parametrize("kind", ["condcp_centralized", "gcfcp_centralized", "gcfcp_coreset"])
    def test_a_finite_threshold_above_the_highest_score_is_exact(self, kind):
        """At alpha 0.1 these four patterns have a finite S* above the highest
        score plus 1 (3.9117), the bracket's high end, which the search once
        reported in S*'s place. The search returns S* itself, as the widened
        bisection finds it."""
        cal = calibrate_baseline(kind, self.make_datasets(), 0.1, family=FOUR_INTERVALS, delta=100.0)
        want = [4.2014, 5.1602, 4.7986, 4.6526] if kind == "condcp_centralized" else [5.1414, 5.1820, 5.3656, 5.4190]
        hi = cal.data.default_bracket()[1]
        assert hi == pytest.approx(3.9117, abs=5e-5)
        for pattern, s_star in zip([(1, 1, 0, 0), (1, 1, 1, 0), (0, 1, 1, 1), (0, 0, 1, 1)], want):
            got = cal.threshold(pattern)
            assert got > hi and got == pytest.approx(s_star, abs=5e-5)
            assert -1e-7 <= got - reference_threshold_search(cal.data, pattern, 0.1) <= 1e-6 + 1e-7

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

    @pytest.mark.parametrize("kind", ["gcfcp_centralized", "gcfcp_coreset", "fcp_marginal"])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_one_cold_solve_per_calibrator(self, lp_log, monkeypatch, kind, seed):
        """A calibrator that answers k patterns (each asked twice) builds one
        solver, the calibration-only one at test weight 0, and runs one
        crash, one calibration-only solve and one start check in all; per
        distinct pattern it starts one walk from a copy of that start and
        solves once to verify. A pattern's search inverts no basis between
        the copy of the start and its walk."""
        events = []

        def record(name, label=None):
            original = getattr(AugmentedQrSolver, name)

            def recording(solver, *args):
                events.append(label(solver) if label else name)
                return original(solver, *args)

            monkeypatch.setattr(AugmentedQrSolver, name, recording)

        for name in ("_crash", "_factor", "open_walk", "start_pattern", "raise_test_score"):
            record(name)
        record("solve_at", lambda solver: "calibration solve" if solver.test_weight == 0.0 else "verifying solve")
        datasets = self.make_datasets(seed=seed)
        cal = calibrate_baseline(kind, datasets, 0.1, family=FOUR_INTERVALS, delta=100.0)
        patterns = [(1,)] if kind == "fcp_marginal" else FOUR_INTERVAL_PATTERNS
        for pattern in patterns * 2:
            cal.threshold(pattern)
        k = len(patterns)
        assert lp_log.solvers == [(True, 0.0)]
        assert lp_log.patterns == patterns
        counts = {name: events.count(name) for name in set(events)}
        assert counts["_crash"] == counts["calibration solve"] == counts["open_walk"] == 1
        assert counts["start_pattern"] == counts["raise_test_score"] == counts["verifying solve"] == k
        assert events.index("open_walk") < events.index("start_pattern")
        for i, event in enumerate(events):
            if event == "start_pattern":
                assert events[i + 1] == "raise_test_score"

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

    def test_search_solves_once_at_the_threshold(self, lp_log):
        """A search solves its pattern's problem once, at S*, where it
        verifies the walk's optimum; it does not solve below the data. A cold
        search first solves the calibration-only regression at score 0 for
        its start, and gives the S* of a search from a shared start, which
        builds no solver of its own."""
        datasets = self.make_datasets()
        data = CalibrationData.from_datasets(datasets, FOUR_INTERVALS)
        start = calibration_start(data, 0.1)
        for pattern in FOUR_INTERVAL_PATTERNS:
            lp_log.scores.clear()
            s_star = threshold_search(data, pattern, 0.1)
            assert lp_log.scores == [0.0, s_star]
            lp_log.scores.clear()
            lp_log.solvers.clear()
            assert threshold_search(data, pattern, 0.1, start=start) == s_star
            assert lp_log.scores == [s_star] and lp_log.solvers == []

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
