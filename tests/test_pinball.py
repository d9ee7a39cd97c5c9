import itertools
from dataclasses import replace

import numpy as np
import pytest
from conftest import atom_features
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import all_artificial_basis

from gcfcp import harness
from gcfcp.conformal import CalibrationData
from gcfcp.datagen import SynthConfig
from gcfcp.federation import Coreset, run_round
from gcfcp.pinball import (
    _COUPLING_TOL,
    _GAP_TOL,
    AugmentedQrSolver,
    QrEntry,
    QrProblem,
    assemble_problem,
    degenerate_groups,
    eta_test,
    pinball_loss,
    solve,
)

TINY = 1e-12


def make_coreset(entries):
    return Coreset(entries=tuple(entries), per_atom_digests={})


def random_problem(rng, max_entries=50, max_dim=4, alpha=None):
    d = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(d + 1, max_entries + 1))
    feats = (rng.random((n, d)) < 0.5).astype(int)
    feats[feats.sum(axis=1) == 0, 0] = 1
    # make sure every group column has mass
    for g in range(d):
        if feats[:, g].sum() == 0:
            feats[int(rng.integers(n)), g] = 1
    entries = [
        QrEntry(tuple(int(b) for b in feats[i]), float(rng.normal()), float(rng.uniform(0.1, 2)))
        for i in range(n)
    ]
    tf = tuple(int(b) for b in feats[int(rng.integers(n))])
    entries.append(QrEntry(tf, float(rng.normal()), float(rng.uniform(0.01, 0.2)), is_test=True))
    a = alpha if alpha is not None else float(rng.uniform(0.05, 0.4))
    return QrProblem(entries=tuple(entries), alpha=a, dimension=d)


def problem_objective(problem, beta):
    total = 0.0
    for e in problem.entries:
        theta = float(np.dot(e.feature, beta))
        total += e.weight * pinball_loss(theta, e.score, problem.alpha)
    return total


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


class TestAssemble:
    def test_counts(self):
        cs = make_coreset([((1, 0), 1.0, 0.1), ((0, 1), 2.0, 0.2), ((1, 1), 3.0, 0.3)])
        p = assemble_problem(cs, (1, 0), 0.5, 0.01, 0.1)
        assert len(p.entries) == 4
        assert sum(e.is_test for e in p.entries) == 1
        assert p.dimension == 2

    def test_single_group_features(self):
        cs = make_coreset([((1,), 1.0, 0.5), ((1,), 2.0, 0.5)])
        p = assemble_problem(cs, (1,), 0.0, 0.01, 0.1)
        assert all(e.feature == (1,) for e in p.entries)

    def test_table3_test_weight(self):
        # K=4 clients, sizes 1000/333/333/333, uniform mixture
        w = 0.25 * (1.0 / 1001 + 3.0 / 334)
        assert w == pytest.approx(0.0024953, abs=5e-7)

    def test_errors(self):
        cs = make_coreset([((1, 0), 1.0, 0.1)])
        with pytest.raises(ValueError):
            assemble_problem(cs, (1,), 0.0, 0.01, 0.1)  # dimension mismatch
        with pytest.raises(ValueError):
            assemble_problem(make_coreset([]), (1,), 0.0, 0.01, 0.1)
        with pytest.raises(ValueError):
            assemble_problem(cs, (1, 0), 0.0, 0.01, 1.5)


class TestSolve:
    def test_single_group_quantile(self):
        """With a negligible test entry the fit is the weighted 0.8-quantile."""
        entries = [QrEntry((1,), float(s), 1.0) for s in range(1, 6)]
        entries.append(QrEntry((1,), 0.0, TINY, is_test=True))
        sol = solve(QrProblem(tuple(entries), alpha=0.2, dimension=1))
        assert sol.status == "optimal"
        assert sol.beta[0] == pytest.approx(4.0, abs=1e-8)

    def test_constant_scores_zero_loss(self):
        rng = np.random.default_rng(0)
        feats = [(1, 0), (0, 1), (1, 0), (0, 1)]
        entries = [QrEntry(f, 2.5, float(rng.uniform(0.1, 1))) for f in feats]
        entries.append(QrEntry((1, 0), 2.5, 0.05, is_test=True))
        sol = solve(QrProblem(tuple(entries), alpha=0.1, dimension=2))
        assert sol.primal_objective == pytest.approx(0.0, abs=1e-10)
        for f in set(feats):
            assert float(np.dot(f, sol.beta)) == pytest.approx(2.5, abs=1e-8)

    def test_duality_and_coupling_random(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            p = random_problem(rng)
            sol = solve(p)
            assert sol.status == "optimal"
            gap = abs(sol.primal_objective - sol.dual_objective)
            assert gap <= 1e-8 * (1 + abs(sol.primal_objective))
            feats = np.array(
                [e.feature for e in p.entries if not e.is_test], dtype=float
            )
            tf = np.array(
                next(e.feature for e in p.entries if e.is_test), dtype=float
            )
            coupling = feats.T @ sol.eta + tf * sol.eta_test
            assert np.max(np.abs(coupling)) <= 1e-8

    def test_matches_scipy_dual(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_problem(rng)
            sol = solve(p)
            F = np.array([e.feature for e in p.entries], dtype=float)
            s = np.array([e.score for e in p.entries])
            w = np.array([e.weight for e in p.entries])
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
            p = small_instance(rng)
            sol = solve(p)
            best = brute_force_objective(p)
            assert sol.primal_objective == pytest.approx(best, abs=1e-7)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(4)
        p = random_problem(rng)
        scaled = QrProblem(
            entries=tuple(
                QrEntry(e.feature, e.score, 7.5 * e.weight, e.is_test)
                for e in p.entries
            ),
            alpha=p.alpha,
            dimension=p.dimension,
        )
        b1 = solve(p).beta
        b2 = solve(scaled).beta
        assert np.max(np.abs(b1 - b2)) <= 1e-6

    def test_degenerate_group(self):
        entries = (
            QrEntry((1, 0), 1.0, 1.0),
            QrEntry((1, 0), 2.0, 1.0),
            QrEntry((1, 1), 0.5, 0.1, is_test=True),
        )
        p = QrProblem(entries, alpha=0.1, dimension=2)
        assert degenerate_groups(p) == (1,)
        sol = solve(p)
        assert sol.status == "degenerate_group"
        assert sol.degenerate_groups == (1,)
        with pytest.raises(ValueError):
            eta_test(sol)

    def test_requires_one_test_entry(self):
        p = QrProblem((QrEntry((1,), 1.0, 1.0),), alpha=0.1, dimension=1)
        with pytest.raises(ValueError):
            solve(p)


def small_instance(rng):
    """Dimension <= 2 with unit patterns present so vertices are enumerable."""
    d = int(rng.integers(1, 3))
    n = int(rng.integers(d + 1, 13))
    if d == 2:
        rows = [(1, 0), (0, 1)]
    else:
        rows = [(1,)]
    while len(rows) < n:
        pat = tuple(int(b) for b in (rng.random(d) < 0.6))
        if any(pat):
            rows.append(pat)
    entries = [
        QrEntry(r, float(rng.normal()), float(rng.uniform(0.1, 2))) for r in rows
    ]
    entries.append(
        QrEntry(rows[int(rng.integers(len(rows)))], float(rng.normal()), 0.05, is_test=True)
    )
    return QrProblem(tuple(entries), alpha=float(rng.uniform(0.05, 0.4)), dimension=d)


def brute_force_objective(problem):
    """Exhaustive minimum over the breakpoint lattice (dimension <= 2 only)."""
    d = problem.dimension
    entries = problem.entries
    candidates = []
    if d == 1:
        candidates = [np.array([e.score]) for e in entries]
    else:
        for a, b in itertools.combinations(range(len(entries)), 2):
            M = np.array([entries[a].feature, entries[b].feature], dtype=float)
            if abs(np.linalg.det(M)) < 1e-12:
                continue
            rhs = np.array([entries[a].score, entries[b].score])
            candidates.append(np.linalg.solve(M, rhs))
    return min(problem_objective(problem, beta) for beta in candidates)


class TestEtaTest:
    def build(self, test_score, alpha=0.2, wt=0.1):
        entries = [QrEntry((1,), float(s), 1.0) for s in (1, 2, 3)]
        entries.append(QrEntry((1,), test_score, wt, is_test=True))
        return solve(QrProblem(tuple(entries), alpha=alpha, dimension=1))

    def test_far_above(self):
        sol = self.build(100.0)
        assert eta_test(sol) == pytest.approx(0.1 * 0.8, abs=1e-9)

    def test_far_below(self):
        sol = self.build(-100.0)
        assert eta_test(sol) == pytest.approx(-0.1 * 0.2, abs=1e-9)

    def test_tie_interior(self):
        sol = self.build(3.0)  # fitted value lands on a calibration score
        assert -0.1 * 0.2 - 1e-9 <= eta_test(sol) <= 0.1 * 0.8 + 1e-9

    def test_monotone_in_test_score(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            p = random_problem(rng, max_entries=30)
            cal = [e for e in p.entries if not e.is_test]
            test = next(e for e in p.entries if e.is_test)
            solver = AugmentedQrSolver(
                np.array([e.feature for e in cal], dtype=float),
                np.array([e.score for e in cal]),
                np.array([e.weight for e in cal]),
                p.alpha,
                test.feature,
                test.weight,
            )
            grid = np.linspace(-3, 3, 25)
            values = [solver.solve_at(float(s)).eta_test for s in grid]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_warm_start_matches_cold():
    rng = np.random.default_rng(6)
    p = random_problem(rng)
    cal = [e for e in p.entries if not e.is_test]
    test = next(e for e in p.entries if e.is_test)
    solver = AugmentedQrSolver(
        np.array([e.feature for e in cal], dtype=float),
        np.array([e.score for e in cal]),
        np.array([e.weight for e in cal]),
        p.alpha,
        test.feature,
        test.weight,
    )
    for s in (-2.0, 0.5, 1.7, -1.1, 3.0):
        warm = solver.solve_at(s)
        cold = solve(
            QrProblem(
                tuple(cal) + (QrEntry(test.feature, s, test.weight, is_test=True),),
                alpha=p.alpha,
                dimension=p.dimension,
            )
        )
        assert warm.dual_objective == pytest.approx(cold.dual_objective, abs=1e-9)
        assert warm.eta_test == pytest.approx(cold.eta_test, abs=1e-8)


def _solver_inputs(problem):
    cal = [e for e in problem.entries if not e.is_test]
    test = next(e for e in problem.entries if e.is_test)
    inputs = (
        np.array([e.feature for e in cal], dtype=float),
        np.array([e.score for e in cal]),
        np.array([e.weight for e in cal]),
        problem.alpha,
    )
    return inputs, test


def _calibration_only(inputs, dimension):
    solver = AugmentedQrSolver(*inputs, (0,) * dimension, 0.0)
    solver.solve_at(0.0)
    return solver


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_calibration_basis_start_matches_cold(seed):
    rng = np.random.default_rng(seed)
    p = random_problem(rng, max_entries=40)
    inputs, test = _solver_inputs(p)
    # beta is unique only when the calibration features have full column rank
    assume(np.linalg.matrix_rank(inputs[0]) == p.dimension)
    basis = _calibration_only(inputs, p.dimension).export_basis()
    for pattern in itertools.product((0, 1), repeat=p.dimension):
        if not any(pattern):
            continue
        for score in rng.normal(scale=2.0, size=3):
            warm = AugmentedQrSolver(
                *inputs, pattern, test.weight, start_basis=basis
            ).solve_at(float(score))
            cold = AugmentedQrSolver(*inputs, pattern, test.weight).solve_at(float(score))
            assert warm.primal_objective == pytest.approx(cold.primal_objective, abs=1e-9)
            assert warm.eta_test == pytest.approx(cold.eta_test, abs=1e-9)
            np.testing.assert_allclose(warm.eta, cold.eta, rtol=0, atol=1e-9)
            np.testing.assert_allclose(warm.beta, cold.beta, rtol=0, atol=1e-9)


def test_calibration_basis_leaves_test_columns_nonbasic():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = random_problem(rng)
        inputs, test = _solver_inputs(p)
        e = len(inputs[1]) + 1
        test_columns = [e - 1, 2 * e - 1]
        # the test weight 0 makes the pattern and score inert
        inert = [((0,) * p.dimension, 0.0), (test.feature, 5.0), (test.feature, -5.0)]
        for pattern, score in inert:
            solver = AugmentedQrSolver(*inputs, pattern, 0.0)
            solver.solve_at(score)
            basis = solver.export_basis()
            assert not set(test_columns) & set(basis.basic.tolist())
            assert np.all(basis.status[test_columns] == 0)
            assert np.count_nonzero(basis.status == 2) == p.dimension
            resumed = AugmentedQrSolver(*inputs, test.feature, test.weight, start_basis=basis)
            cold = AugmentedQrSolver(*inputs, test.feature, test.weight)
            assert resumed.solve_at(test.score).eta_test == pytest.approx(
                cold.solve_at(test.score).eta_test, abs=1e-9
            )


def test_calibration_basis_is_already_optimal():
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = random_problem(rng)
        inputs, _ = _solver_inputs(p)
        basis = _calibration_only(inputs, p.dimension).export_basis()
        again = AugmentedQrSolver(*inputs, (0,) * p.dimension, 0.0, start_basis=basis)
        assert again.solve_at(0.0).iterations == 0


def test_start_basis_must_fit():
    rng = np.random.default_rng(8)
    p = random_problem(rng)
    inputs, test = _solver_inputs(p)
    basis = _calibration_only(inputs, p.dimension).export_basis()
    fewer = (inputs[0][1:], inputs[1][1:], inputs[2][1:], inputs[3])
    with pytest.raises(ValueError):
        AugmentedQrSolver(*fewer, test.feature, test.weight, start_basis=basis)
    solver = AugmentedQrSolver(*inputs, test.feature, test.weight)
    with pytest.raises(ValueError):
        solver.export_basis()  # not solved yet
    solver.solve_at(test.score)
    with pytest.raises(ValueError):
        solver.export_basis()  # a positive test weight is not calibration-only


def _assert_verified(sol):
    assert 0.0 <= sol.duality_gap <= _GAP_TOL * (1.0 + abs(sol.primal_objective))
    assert 0.0 <= sol.coupling_residual <= _COUPLING_TOL


def test_solutions_record_gap_and_coupling():
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = random_problem(rng)
        inputs, test = _solver_inputs(p)
        crashed = _calibration_only(inputs, p.dimension)
        _assert_verified(crashed.solve_at(0.0))
        warm = AugmentedQrSolver(
            *inputs, test.feature, test.weight, start_basis=crashed.export_basis()
        )
        _assert_verified(warm.solve_at(-4.0))
        _assert_verified(warm.solve_at(test.score))
        bound = test.weight * (1.0 - p.alpha) - 1e-9
        _assert_verified(warm.solve_at(warm.raise_test_score(10.0, bound)))
    assert np.isnan(solve(QrProblem((QrEntry((1, 0), 1.0, 1.0), QrEntry((1, 1), 0.0, 0.1, True)), 0.1, 2)).duality_gap)


def test_raise_test_score_needs_a_solve():
    inputs, test = _solver_inputs(random_problem(np.random.default_rng(11)))
    with pytest.raises(ValueError):
        AugmentedQrSolver(*inputs, test.feature, test.weight).raise_test_score(1.0, 0.0)


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
    old = AugmentedQrSolver(*inputs, start_basis=all_artificial_basis(n, d))
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
    not one per row (the all-artificial start took 5 056 and 758)."""
    config = harness.ExperimentConfig(
        calibrators=("gcfcp_centralized", "gcfcp_coreset"),
        delta=250.0,
        synth=SynthConfig(seed=4, n_per_client=(1250, 1250, 1250, 1250)),
    )
    datasets, _, _, _ = harness._synth_trial_data(replace(config, test_points=20), trial=0)
    central = CalibrationData.from_datasets(datasets, config.family)
    round_ = run_round(datasets, config.family, config.delta)
    coreset = CalibrationData.from_coreset(round_.coreset, round_.test_weight)
    for data, limit in ((central, 500), (coreset, 100)):
        d = data.features.shape[1]
        solver = AugmentedQrSolver(data.features, data.scores, data.weights, 0.1, (0,) * d, 0.0)
        sol = solver.solve_at(0.0)
        _assert_verified(sol)
        assert sol.iterations <= limit
