import itertools
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from conftest import atom_features, breakpoint_minimum, laid_out, random_lp, small_lp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import (
    ArtificialStart,
    pinball_loss,
    reference_crash,
    reference_ratio_test,
    reference_threshold_search,
)

from gcfcp import harness
from gcfcp.conformal import (
    CalibrationData,
    DegenerateGroupError,
    calibration_start,
    threshold_search,
)
from gcfcp.datagen import SynthConfig
from gcfcp.federation import run_round
from gcfcp.pinball import (
    _BLAND_AFTER,
    _COUPLING_TOL,
    _GAP_TOL,
    AugmentedQrSolver,
    SolverError,
)

TINY = 1e-12


def single_group_solver(scores, weights, alpha, test_weight):
    """One all-covering group, the test entry in it."""
    scores = np.asarray(scores, dtype=float)
    features = np.ones((scores.size, 1))
    return AugmentedQrSolver(features, scores, np.asarray(weights, dtype=float), alpha, (1,), test_weight)


class TestPinballLoss:
    def test_zero_residual(self):
        assert pinball_loss(0.0, 0.0, 0.1) == 0.0

    def test_above(self):
        assert pinball_loss(0.0, 1.0, 0.1) == pytest.approx(0.9)

    def test_below(self):
        assert pinball_loss(1.0, 0.0, 0.1) == pytest.approx(0.1)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            pinball_loss(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            pinball_loss(0.0, 0.0, 1.0)

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.01, 0.99))
    def test_nonnegative_zero_iff_equal(self, theta, s, alpha):
        loss = pinball_loss(theta, s, alpha)
        assert loss >= 0.0
        if s == theta:
            assert loss == 0.0


class TestSolverInputs:
    def test_table3_test_weight(self):
        # K=4 clients, sizes 1000/333/333/333, uniform mixture
        w = 0.25 * (1.0 / 1001 + 3.0 / 334)
        assert w == pytest.approx(0.0024953, abs=5e-7)

    def test_errors(self):
        features, scores, weights = np.array([[1.0, 0.0]]), np.array([1.0]), np.array([0.1])
        with pytest.raises(ValueError):
            AugmentedQrSolver(features, scores, weights, 0.1, (1,), 0.01)  # dimension mismatch
        with pytest.raises(ValueError):
            AugmentedQrSolver(features, scores, weights, 1.5, (1, 0), 0.01)


class TestSolve:
    def test_single_group_quantile(self):
        """With a negligible test entry the fit is the weighted 0.8-quantile."""
        sol = single_group_solver(range(1, 6), [1.0] * 5, 0.2, TINY).solve_at(0.0)
        assert sol.beta[0] == pytest.approx(4.0, abs=1e-8)

    def test_constant_scores_zero_loss(self):
        rng = np.random.default_rng(0)
        feats = [(1, 0), (0, 1), (1, 0), (0, 1)]
        weights = [float(rng.uniform(0.1, 1)) for _ in feats]
        solver = AugmentedQrSolver(np.array(feats, dtype=float), np.full(4, 2.5), np.array(weights), 0.1, (1, 0), 0.05)
        sol = solver.solve_at(2.5)
        assert sol.primal_objective == pytest.approx(0.0, abs=1e-10)
        for f in set(feats):
            assert float(np.dot(f, sol.beta)) == pytest.approx(2.5, abs=1e-8)

    def test_duality_and_coupling_random(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            p = random_lp(rng)
            sol = p.solve()
            gap = abs(sol.primal_objective - sol.dual_objective)
            assert gap <= 1e-8 * (1 + abs(sol.primal_objective))
            tf = np.array(p.test_feature, dtype=float)
            coupling = p.features.T @ sol.eta + tf * sol.eta_test
            assert np.max(np.abs(coupling)) <= 1e-8

    def test_matches_scipy_dual(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_lp(rng)
            sol = p.solve()
            F, s, w = p.rows()
            res = linprog(
                -s,
                A_eq=F.T,
                b_eq=np.zeros(p.dimension),
                bounds=list(zip(-w * p.alpha, w * (1 - p.alpha))),
                method="highs",
            )
            assert res.status == 0
            assert -res.fun == pytest.approx(sol.dual_objective, abs=1e-8)

    def test_breakpoint_oracle_small(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = small_lp(rng)
            sol = p.solve()
            best = breakpoint_minimum(p)
            assert sol.primal_objective == pytest.approx(best, abs=1e-7)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(4)
        p = random_lp(rng)
        scaled = replace(p, weights=7.5 * p.weights, test_weight=7.5 * p.test_weight)
        b1 = p.solve().beta
        b2 = scaled.solve().beta
        assert np.max(np.abs(b1 - b2)) <= 1e-6

    def test_degenerate_group(self):
        data = CalibrationData(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 2.0]), np.array([1.0, 1.0]), 0.1)
        with pytest.raises(DegenerateGroupError) as err:
            threshold_search(data, (1, 1), 0.1)
        assert err.value.groups == (1,)


class TestEtaTest:
    def build(self, test_score, alpha=0.2, wt=0.1):
        return single_group_solver([1.0, 2.0, 3.0], [1.0] * 3, alpha, wt).solve_at(test_score)

    def test_far_above(self):
        sol = self.build(100.0)
        assert sol.eta_test == pytest.approx(0.1 * 0.8, abs=1e-9)

    def test_far_below(self):
        sol = self.build(-100.0)
        assert sol.eta_test == pytest.approx(-0.1 * 0.2, abs=1e-9)

    def test_tie_interior(self):
        sol = self.build(3.0)  # fitted value lands on a calibration score
        assert -0.1 * 0.2 - 1e-9 <= sol.eta_test <= 0.1 * 0.8 + 1e-9

    def test_monotone_in_test_score(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            p = random_lp(rng, max_entries=30)
            solver = AugmentedQrSolver(*p.calibration, p.test_feature, p.test_weight)
            grid = np.linspace(-3, 3, 25)
            values = [solver.solve_at(float(s)).eta_test for s in grid]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_warm_start_matches_cold():
    rng = np.random.default_rng(6)
    p = random_lp(rng)
    solver = AugmentedQrSolver(*p.calibration, p.test_feature, p.test_weight)
    for s in (-2.0, 0.5, 1.7, -1.1, 3.0):
        warm = solver.solve_at(s)
        cold = replace(p, test_score=s).solve()
        assert warm.dual_objective == pytest.approx(cold.dual_objective, abs=1e-9)
        assert warm.eta_test == pytest.approx(cold.eta_test, abs=1e-8)


def _calibration_only(p):
    solver = AugmentedQrSolver(*p.calibration, (0,) * p.dimension, 0.0)
    solver.solve_at(0.0)
    return solver


def _opened(p):
    """The calibration-only problem of ``p``, solved and opened at its test weight."""
    solver = _calibration_only(p)
    solver.open_walk(p.test_weight)
    return solver


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_calibration_basis_start_matches_cold(seed):
    rng = np.random.default_rng(seed)
    p = random_lp(rng, max_entries=40)
    # beta is unique only when the calibration features have full column rank
    assume(np.linalg.matrix_rank(p.features) == p.dimension)
    opened = _opened(p)
    for pattern in itertools.product((0, 1), repeat=p.dimension):
        if not any(pattern):
            continue
        for score in rng.normal(scale=2.0, size=3):
            warm = opened.start_pattern(pattern).solve_at(float(score))
            cold = AugmentedQrSolver(*p.calibration, pattern, p.test_weight).solve_at(float(score))
            assert warm.primal_objective == pytest.approx(cold.primal_objective, abs=1e-9)
            assert warm.eta_test == pytest.approx(cold.eta_test, abs=1e-9)
            np.testing.assert_allclose(warm.eta, cold.eta, rtol=0, atol=1e-9)
            np.testing.assert_allclose(warm.beta, cold.beta, rtol=0, atol=1e-9)


def test_calibration_basis_leaves_test_columns_nonbasic():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = random_lp(rng)
        test_entry = len(p.scores)
        # the test weight 0 makes the pattern and score inert
        inert = [((0,) * p.dimension, 0.0), (p.test_feature, 5.0), (p.test_feature, -5.0)]
        for pattern, score in inert:
            solver = AugmentedQrSolver(*p.calibration, pattern, 0.0)
            solver.solve_at(score)
            assert test_entry not in solver._basis.tolist()
            assert solver._value(test_entry) == 0.0
            solver.open_walk(p.test_weight)
            resumed = solver.start_pattern(p.test_feature)
            cold = AugmentedQrSolver(*p.calibration, p.test_feature, p.test_weight)
            assert resumed.solve_at(p.test_score).eta_test == pytest.approx(
                cold.solve_at(p.test_score).eta_test, abs=1e-9
            )


def test_calibration_basis_is_already_optimal():
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = random_lp(rng)
        assert _calibration_only(p).solve_at(0.0).iterations == 0
        # the zero-width test entry is never priced, whatever its pattern and score
        for score in (5.0, -5.0):
            inert = AugmentedQrSolver(*p.calibration, p.test_feature, 0.0)
            inert.solve_at(0.0)
            assert inert.solve_at(score).iterations == 0


def _build(p):
    """A solver for ``p``, built cold at its test pattern and weight."""
    return AugmentedQrSolver(*p.calibration, p.test_feature, p.test_weight)


def _assert_verified(sol):
    assert 0.0 <= sol.duality_gap <= _GAP_TOL * (1.0 + abs(sol.primal_objective))
    assert 0.0 <= sol.coupling_residual <= _COUPLING_TOL


def test_solutions_record_gap_and_coupling():
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = random_lp(rng)
        crashed = AugmentedQrSolver(*p.calibration, (0,) * p.dimension, 0.0)
        _assert_verified(crashed.solve_at(0.0))
        crashed.open_walk(p.test_weight)
        warm = crashed.start_pattern(p.test_feature)
        _assert_verified(warm.solve_at(-4.0))
        _assert_verified(warm.solve_at(p.test_score))
        bound = p.test_weight * (1.0 - p.alpha) - 1e-9
        warm.raise_test_score(bound)
        _assert_verified(warm.solve_at(warm.test_score))


def test_raise_test_score_needs_a_solve():
    p = random_lp(np.random.default_rng(11))
    with pytest.raises(ValueError):
        AugmentedQrSolver(*p.calibration, p.test_feature, p.test_weight).raise_test_score(0.0)


def test_unreachable_bound_walks_to_inf():
    """With alpha times the calibration mass (0.6) below the test entry's
    upper bound (0.8), eta_test never reaches it: the walk returns +inf at
    the last breakpoint, whose optimum holds for every larger score."""
    solver = single_group_solver([1.0, 2.0, 3.0], [1.0] * 3, 0.2, 1.0)
    solver.solve_at(0.0)
    assert solver.raise_test_score(0.8 - 1e-9) == math.inf
    assert solver.test_score == 3.0
    assert solver.solve_at(solver.test_score).eta_test == pytest.approx(0.6, abs=1e-12)
    for score in (4.0, 1e6):
        fresh = single_group_solver([1.0, 2.0, 3.0], [1.0] * 3, 0.2, 1.0)
        assert fresh.solve_at(score).eta_test == pytest.approx(0.6, abs=1e-12)


@pytest.mark.parametrize("score", [math.inf, -math.inf, math.nan])
def test_non_finite_test_score_fails_verification(score):
    with pytest.raises(SolverError):
        single_group_solver([1.0, 2.0, 3.0], [1.0] * 3, 0.2, 0.1).solve_at(score)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    ties=st.booleans(),
    singletons=st.integers(0, 3),
    zero_test_weight=st.booleans(),
    unseen_test_pattern=st.booleans(),
    label_sets=st.booleans(),
)
def test_crash_start_matches_all_artificial_start(
    seed, d, ties, singletons, zero_test_weight, unseen_test_pattern, label_sets
):
    """The per-atom quantile crash reaches the optimum of the old start.

    With scores on a grid, the fitted values of several atoms can land on
    tied scores at once, and the eta of entries with zero residual is then
    not unique; there eta is compared only where the residual fixes it at a
    bound, and the rest is covered by the verified gap and coupling.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(d + 1, 60))
    feats = atom_features(rng, d, n, label_sets)
    if singletons:
        # rows with a pattern of their own: single-entry atoms
        extra = rng.random((singletons, d)) < 0.5
        extra[:, 0] = True
        feats = np.vstack([feats, extra.astype(float)])
    # beta is unique only when the calibration features have full column rank
    assume(np.linalg.matrix_rank(feats) == d)
    n = len(feats)
    scores = np.round(rng.normal(size=n) * 2.0) / 2.0 if ties else rng.normal(size=n)
    weights = rng.uniform(0.1, 2.0, n)
    alpha = float(rng.uniform(0.05, 0.4))
    seen = {tuple(r) for r in feats.astype(int).tolist()}
    unseen = [p for p in itertools.product((0, 1), repeat=d) if any(p) and p not in seen]
    if unseen_test_pattern and unseen:
        pattern = unseen[int(rng.integers(len(unseen)))]
    else:
        pattern = tuple(int(b) for b in feats[int(rng.integers(n))])
    test_weight = 0.0 if zero_test_weight else float(rng.uniform(0.01, 0.3))
    inputs = (feats, scores, weights, alpha, pattern, test_weight)
    crash = AugmentedQrSolver(*inputs)
    old = ArtificialStart(*inputs)
    for score in rng.normal(scale=2.0, size=3):
        new_sol, old_sol = crash.solve_at(float(score)), old.solve_at(float(score))
        _assert_verified(new_sol)
        assert new_sol.primal_objective == pytest.approx(old_sol.primal_objective, abs=1e-9)
        assert new_sol.eta_test == pytest.approx(old_sol.eta_test, abs=1e-9)
        np.testing.assert_allclose(new_sol.beta, old_sol.beta, rtol=0, atol=1e-9)
        fixed = np.abs(scores - feats @ old_sol.beta) > 1e-7 if ties else slice(None)
        np.testing.assert_allclose(new_sol.eta[fixed], old_sol.eta[fixed], rtol=0, atol=1e-9)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), ties=st.booleans(), label_sets=st.booleans())
def test_crash_reads_the_layout_as_the_sorting_crash(seed, d, ties, label_sets):
    """On rows in the calibration layout, the crash, which sorts nothing,
    starts from the point of the crash that sorted the rows itself
    (``reference_crash``): to the bit when the scores are distinct. Scores
    tied within an atom are ranked in reverse input order by the one and in
    input order by the other, so the points may differ on those rows; there
    only the rows whose score is not tied within their atom are compared,
    within 1e-12. On the rows in a random order the crash's point still
    lies in its box and couples to 0, within 1e-12."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    feats = atom_features(rng, d, n, label_sets)
    scores = np.round(rng.normal(size=n) * 2.0) / 2.0 if ties else rng.normal(size=n)
    feats, scores, weights = laid_out(feats, scores, rng.uniform(0.1, 2.0, n))
    alpha = float(rng.uniform(0.05, 0.4))
    pattern = tuple(int(b) for b in feats[int(rng.integers(n))])
    solver = AugmentedQrSolver(feats, scores, weights, alpha, pattern, 0.1)
    start, want = solver._start, reference_crash(solver, feats)
    if ties:
        keys = [(*f, s) for f, s in zip(feats.tolist(), scores.tolist())]
        untied = np.append([keys.count(k) == 1 for k in keys], False)
        np.testing.assert_allclose(start[:-d][untied], want[:-d][untied], rtol=0, atol=1e-12)
    else:
        assert start.tobytes() == want.tobytes()
    perm = rng.permutation(n)
    shuffled = AugmentedQrSolver(feats[perm], scores[perm], weights[perm], alpha, pattern, 0.1)
    x = shuffled._start
    assert np.all((x >= shuffled._lo) & (x <= shuffled._up))
    assert np.max(np.abs(shuffled._A @ x)) <= 1e-12


def test_cold_solve_iterations_on_criterion_09_data():
    """The calibration-only cold solve on 4 x 1 250 rows takes a few pivots,
    not one per row (from the artificial basis at 0 it takes 5 342 and 945)."""
    config = harness.ExperimentConfig(
        calibrators=("gcfcp_centralized", "gcfcp_coreset"),
        delta=250.0,
        synth=SynthConfig(seed=4, n_per_client=(1250, 1250, 1250, 1250)),
    )
    datasets = harness._synth_trial_data(replace(config, test_points=20), trial=0).datasets
    central = CalibrationData.from_datasets(datasets, config.family)
    round_ = run_round(datasets, config.family, config.delta)
    coreset = CalibrationData.from_coreset(round_.coreset, round_.test_weight)
    for data, limit in ((central, 500), (coreset, 100)):
        d = data.features.shape[1]
        solver = AugmentedQrSolver(data.features, data.scores, data.weights, 0.1, (0,) * d, 0.0)
        sol = solver.solve_at(0.0)
        _assert_verified(sol)
        assert sol.iterations <= limit


def _assert_kept_state(solver):
    """The kept basis inverse is the inverse of the basis columns, and the
    direction array is 0 for a basic or zero-width column and +1 or -1 for
    every other."""
    fresh = np.linalg.inv(solver._A[:, solver._basis])
    assert np.max(np.abs(solver._Binv - fresh)) <= 1e-9 * np.max(np.abs(fresh))
    basic = np.zeros(solver._dir.size, dtype=bool)
    basic[solver._basis] = True
    assert np.count_nonzero(basic) == solver._basis.size
    still = basic | ~(solver._lo < solver._up)
    np.testing.assert_array_equal(np.abs(solver._dir), np.where(still, 0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_kept_inverse_and_directions_follow_the_basis(seed, warm):
    rng = np.random.default_rng(seed)
    p = random_lp(rng)
    opened = _opened(p) if warm else None
    solver = opened.start_pattern(p.test_feature) if warm else _build(p)
    solver.solve_at(float(rng.normal(scale=2.0)) - 3.0)
    _assert_kept_state(solver)
    solver.raise_test_score(p.test_weight * (1.0 - p.alpha) - 1e-9)
    _assert_kept_state(solver)
    solver.solve_at(solver.test_score)
    _assert_kept_state(solver)
    if warm:  # the walk from the calibration fit, on a copy of an opened start
        walker = opened.start_pattern(p.test_feature)
        _assert_kept_state(walker)
        walker.raise_test_score(p.test_weight * (1.0 - p.alpha) - 1e-9)
        _assert_kept_state(walker)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("warm", [False, True])
def test_a_solve_with_no_step_inverts_once(monkeypatch, seed, warm):
    """Solving again at the same score takes no step and inverts the basis
    only as it opens; the solution is the first one to the bit."""
    rng = np.random.default_rng(seed)
    p = random_lp(rng)
    solver = _opened(p).start_pattern(p.test_feature) if warm else _build(p)
    first = solver.solve_at(p.test_score)
    factors = []
    factor = AugmentedQrSolver._factor

    def counting_factor(self):
        factors.append(self)
        factor(self)

    monkeypatch.setattr(AugmentedQrSolver, "_factor", counting_factor)
    again = solver.solve_at(p.test_score)
    assert again.iterations == 0
    assert factors == [solver]
    for name in ("beta", "eta"):
        assert getattr(again, name).tobytes() == getattr(first, name).tobytes()
    for name in ("eta_test", "duality_gap", "coupling_residual"):
        assert _bits(getattr(again, name)) == _bits(getattr(first, name))
    _assert_kept_state(solver)


def test_blands_rule_on_a_degenerate_start(monkeypatch):
    """A start at a vertex where every basic column sits on a bound: 50
    disjoint groups, each with two tied high scores at the lower bound and
    two tied low ones at the upper bound, equal weights, the artificials
    basic at 0. Each group's first pivot is degenerate, so the
    calibration-only solve from it passes 40 degenerate steps in a row and
    enters by Bland's rule; a search started from its optimum matches the
    cold search and the bisection."""
    bland_entries = []
    enter = AugmentedQrSolver._enter

    def counting_enter(self, j):
        bland_entries.append(self._degenerate > _BLAND_AFTER)
        enter(self, j)

    monkeypatch.setattr(AugmentedQrSolver, "_enter", counting_enter)
    d, m = 50, 4
    n = d * m
    features = np.zeros((n, d))
    features[np.arange(n), np.arange(n) // m] = 1.0
    high = np.arange(n) % m < m // 2
    weights = np.full(n, 1.0 / (n + 1))
    alpha = 0.5
    point = np.zeros(n + 1 + d)
    point[:n] = np.where(high, -weights * alpha, weights * (1.0 - alpha))
    data = CalibrationData(features, np.where(high, 10.0, 9.0), weights, 1.0 / (n + 1))
    solver = ArtificialStart(features, data.scores, weights, alpha, (0,) * d, 0.0, point=point)
    _assert_verified(solver.solve_at(0.0))
    assert any(bland_entries)
    solver.open_walk(data.test_weight)
    pattern = tuple(int(b) for b in features[0])
    got = threshold_search(data, pattern, alpha, start=solver)
    assert got == threshold_search(data, pattern, alpha)
    want = reference_threshold_search(data, pattern, alpha)
    assert -1e-7 <= got - want <= 1e-6 + 1e-7


def test_an_opened_start_serves_every_pattern_unchanged():
    """``start_pattern`` copies an opened start: the start's basis, inverse,
    basic values, directions, matrix and costs, and the bounds, weights,
    movable flags, costs at score 0 and multipliers y it shares with every
    copy, are untouched by the copies' walks and solves, and each copy walks
    as a copy of a second start, built and opened on its own, does, to the
    bit. A pattern in no group is rejected. A start opens once, from a solved
    calibration-only problem (test weight 0), and a copy needs an opened
    start that has not walked or solved."""
    rng = np.random.default_rng(14)
    for _ in range(20):
        p = random_lp(rng)
        bound = p.test_weight * (1.0 - p.alpha) - 1e-9
        opened, second = _opened(p), _opened(p)
        names = ("_basis", "_Binv", "_xB", "_dir", "_A", "_c")
        names += ("_lo", "_up", "_w", "_movable", "_parametric", "_y0")  # shared with the copies
        before = [getattr(opened, name).tobytes() for name in names]
        for pattern in itertools.product((0, 1), repeat=p.dimension):
            if not any(pattern):
                with pytest.raises(ValueError):
                    opened.start_pattern(pattern)
                continue
            copy = opened.start_pattern(pattern)
            walker = second.start_pattern(pattern)
            assert _bits(copy.test_score) == _bits(walker.test_score)
            assert _bits(copy.raise_test_score(bound)) == _bits(walker.raise_test_score(bound))
            got, want = copy.solve_at(copy.test_score), walker.solve_at(walker.test_score)
            assert got.eta.tobytes() == want.eta.tobytes() and _bits(got.eta_test) == _bits(want.eta_test)
        assert [getattr(opened, name).tobytes() for name in names] == before
        with pytest.raises(ValueError):
            opened.open_walk(p.test_weight)  # already open
        with pytest.raises(ValueError):
            opened.start_pattern((1,) * (p.dimension + 1))  # dimension mismatch
        with pytest.raises(ValueError):
            copy.start_pattern(p.test_feature)  # a copy that has walked
        solved = AugmentedQrSolver(*p.calibration, p.test_feature, p.test_weight)
        solved.solve_at(p.test_score)
        with pytest.raises(ValueError):  # solved, but not the calibration-only problem
            solved.open_walk(p.test_weight)
        with pytest.raises(ValueError):  # not opened
            AugmentedQrSolver(*p.calibration, p.test_feature, p.test_weight).start_pattern(p.test_feature)


def test_the_walk_starts_only_from_an_optimal_calibration_basis():
    """``open_walk`` checks the solved calibration-only start once: with its
    costs at score 0 negated (a basis optimal for the reversed scores), or
    with one basic value pushed below its box, it raises SolverError; an
    unsolved solver, one solved at a positive test weight and one already
    opened raise ValueError."""
    rng = np.random.default_rng(12)
    for _ in range(40):
        p = random_lp(rng)
        reversed_costs = _calibration_only(p)
        reversed_costs._parametric[0] *= -1.0
        with pytest.raises(SolverError, match="not optimal"):
            reversed_costs.open_walk(p.test_weight)
        below = _calibration_only(p)
        i = int(rng.integers(p.dimension))
        below._xB[i] = below._loB[i] - 1e-6
        with pytest.raises(SolverError, match="not optimal"):
            below.open_walk(p.test_weight)
        with pytest.raises(ValueError):
            _build(p).open_walk(p.test_weight)  # not solved
        solved = _build(p)
        solved.solve_at(p.test_score)
        with pytest.raises(ValueError):
            solved.open_walk(p.test_weight)  # solved at a positive test weight
        opened = _opened(p)
        with pytest.raises(ValueError):
            opened.open_walk(p.test_weight)  # already opened


def _bits(value):
    return struct.pack("<d", value)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    warm=st.booleans(),
    sgn=st.sampled_from([1.0, -1.0]),
    offset=st.sampled_from([-2e-13, -1e-13, -5e-14, 0.0, 5e-14, 1e-13, 1.5e-13, 2e-13, 1.0, math.inf]),
)
def test_ratio_test_matches_the_array_reference(seed, warm, sgn, offset):
    """The float loop picks the same leaving row and the same step length,
    bit for bit, as the array ratio test: rates and ratios on small grids
    tie within and across the two sides, some rows sit on or past their
    bound (-0.0 at a lower bound 0.0 among them), some rates are within
    1e-11 of 0, and the bound-flip length lies within 1e-13 of a ratio."""
    rng = np.random.default_rng(seed)
    p = random_lp(rng)
    solver = _opened(p).start_pattern(p.test_feature) if warm else _build(p)
    solver.solve_at(p.test_score)
    d = p.dimension
    lo, up = solver._lo[solver._basis], solver._up[solver._basis]
    rates = rng.choice([-2.0, -1.0, -0.5, -1e-12, 0.0, 1e-12, 0.5, 1.0, 2.0], d)
    ratios = rng.choice([0.0, 0.125, 0.25, 0.5], d)
    xB = np.where(rates > 0, lo + ratios * rates, up + ratios * rates)
    past = rng.random(d) < 0.2
    xB[past] = np.where(rates > 0, lo - 0.1, up + 0.1)[past]
    for i in np.flatnonzero(rng.random(d) < 0.2).tolist():  # at a lower bound 0.0 as -0.0
        solver._lo[solver._basis[i]] = solver._loB[i] = 0.0
        xB[i] = -0.0
    solver._xB = xB
    col = rates / sgn  # row i falls at sgn * col_i
    tmax = float(rng.choice(ratios)) + offset
    got = solver._ratio_test(col, sgn, tmax)
    want = reference_ratio_test(solver, col, sgn, tmax)
    assert got[0] == want[0]
    assert _bits(got[1]) == _bits(want[1])
    # the solver's own states: every nonbasic column of the optimum
    for j in np.flatnonzero(solver._dir != 0.0)[:20].tolist():
        col = solver._Binv @ solver._A[:, j]
        s = solver._dir.item(j)
        flip = solver._up.item(j) - solver._lo.item(j)
        got, want = solver._ratio_test(col, s, flip), reference_ratio_test(solver, col, s, flip)
        assert got[0] == want[0] and _bits(got[1]) == _bits(want[1])


def _table3_trial0(seed):
    config = harness.ExperimentConfig(synth=SynthConfig(seed=seed, n_per_client=(1000, 333, 333, 333)))
    datasets = harness._synth_trial_data(replace(config, test_points=5), trial=0).datasets
    round_ = run_round(datasets, config.family, 250.0)
    return (
        CalibrationData.from_datasets(datasets, config.family),
        CalibrationData.from_coreset(round_.coreset, round_.test_weight),
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_searches_with_the_array_ratio_test_are_identical(monkeypatch, seed):
    """Whole threshold searches on Table-3 trial-0 draws, centralized and
    coreset, cold and warm: the array ratio test in place of the float loop
    gives the same thresholds (as repr) and the same iteration counts."""
    solves = []
    solve_at = AugmentedQrSolver.solve_at

    def counting_solve_at(self, score):
        sol = solve_at(self, score)
        solves.append(sol.iterations)
        return sol

    monkeypatch.setattr(AugmentedQrSolver, "solve_at", counting_solve_at)

    def run():
        solves.clear()
        out = []
        for data in _table3_trial0(seed):
            start = calibration_start(data, 0.1)
            for pattern in ((1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)):
                out.append(repr(threshold_search(data, pattern, 0.1)))
                out.append(repr(threshold_search(data, pattern, 0.1, start=start)))
        return out, list(solves)

    floats = run()
    monkeypatch.setattr(AugmentedQrSolver, "_ratio_test", reference_ratio_test)
    arrays = run()
    assert floats == arrays
