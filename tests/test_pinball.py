import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import atom_features, breakpoint_minimum, random_lp, small_lp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import artificial_basis_at_zero, pinball_loss

from gcfcp import harness
from gcfcp.conformal import CalibrationData, DegenerateGroupError, threshold_search
from gcfcp.datagen import SynthConfig
from gcfcp.federation import run_round
from gcfcp.pinball import _COUPLING_TOL, _GAP_TOL, AugmentedQrSolver, SimplexBasis, SolverError

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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_calibration_basis_start_matches_cold(seed):
    rng = np.random.default_rng(seed)
    p = random_lp(rng, max_entries=40)
    # beta is unique only when the calibration features have full column rank
    assume(np.linalg.matrix_rank(p.features) == p.dimension)
    basis = _calibration_only(p).export_basis()
    for pattern in itertools.product((0, 1), repeat=p.dimension):
        if not any(pattern):
            continue
        for score in rng.normal(scale=2.0, size=3):
            warm = AugmentedQrSolver(
                *p.calibration, pattern, p.test_weight, start_basis=basis
            ).solve_at(float(score))
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
            basis = solver.export_basis()
            assert test_entry not in basis.basic.tolist()
            assert basis.point[test_entry] == 0.0
            resumed = AugmentedQrSolver(*p.calibration, p.test_feature, p.test_weight, start_basis=basis)
            cold = AugmentedQrSolver(*p.calibration, p.test_feature, p.test_weight)
            assert resumed.solve_at(p.test_score).eta_test == pytest.approx(
                cold.solve_at(p.test_score).eta_test, abs=1e-9
            )


def test_calibration_basis_is_already_optimal():
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = random_lp(rng)
        basis = _calibration_only(p).export_basis()
        again = AugmentedQrSolver(*p.calibration, (0,) * p.dimension, 0.0, start_basis=basis)
        assert again.solve_at(0.0).iterations == 0
        # the zero-width test entry is never priced, whatever its pattern and score
        for score in (5.0, -5.0):
            inert = AugmentedQrSolver(*p.calibration, p.test_feature, 0.0, start_basis=basis)
            assert inert.solve_at(score).iterations == 0


def test_start_basis_must_fit():
    rng = np.random.default_rng(8)
    p = random_lp(rng)
    basis = _calibration_only(p).export_basis()
    fewer = (p.features[1:], p.scores[1:], p.weights[1:], p.alpha)
    with pytest.raises(ValueError):
        AugmentedQrSolver(*fewer, p.test_feature, p.test_weight, start_basis=basis)
    test_entry = len(p.scores)
    nonbasic = np.setdiff1d(np.arange(test_entry), basis.basic)[0]
    outside = basis.point.copy()
    outside[nonbasic] = 2.0 * p.weights[nonbasic]  # above w (1 - alpha)
    basic_test = basis.basic.copy()
    basic_test[0] = test_entry
    misfits = [
        SimplexBasis(basis.basic, basis.point[:-1]),  # a point of the wrong length
        SimplexBasis(basis.basic, outside),  # a nonbasic value outside its box
        SimplexBasis(basic_test, basis.point),  # a basic test column
    ]
    for misfit in misfits:
        with pytest.raises(ValueError):
            AugmentedQrSolver(*p.calibration, p.test_feature, p.test_weight, start_basis=misfit)
    solver = AugmentedQrSolver(*p.calibration, p.test_feature, p.test_weight)
    with pytest.raises(ValueError):
        solver.export_basis()  # not solved yet
    solver.solve_at(p.test_score)
    with pytest.raises(ValueError):
        solver.export_basis()  # a positive test weight is not calibration-only


def _assert_verified(sol):
    assert 0.0 <= sol.duality_gap <= _GAP_TOL * (1.0 + abs(sol.primal_objective))
    assert 0.0 <= sol.coupling_residual <= _COUPLING_TOL


def test_solutions_record_gap_and_coupling():
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = random_lp(rng)
        crashed = _calibration_only(p)
        _assert_verified(crashed.solve_at(0.0))
        warm = AugmentedQrSolver(
            *p.calibration, p.test_feature, p.test_weight, start_basis=crashed.export_basis()
        )
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
    old = AugmentedQrSolver(*inputs, start_basis=artificial_basis_at_zero(n, d))
    for score in rng.normal(scale=2.0, size=3):
        new_sol, old_sol = crash.solve_at(float(score)), old.solve_at(float(score))
        _assert_verified(new_sol)
        assert new_sol.primal_objective == pytest.approx(old_sol.primal_objective, abs=1e-9)
        assert new_sol.eta_test == pytest.approx(old_sol.eta_test, abs=1e-9)
        np.testing.assert_allclose(new_sol.beta, old_sol.beta, rtol=0, atol=1e-9)
        fixed = np.abs(scores - feats @ old_sol.beta) > 1e-7 if ties else slice(None)
        np.testing.assert_allclose(new_sol.eta[fixed], old_sol.eta[fixed], rtol=0, atol=1e-9)


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
