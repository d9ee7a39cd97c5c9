"""Augmented weighted pinball quantile regression over binary group features.

The primal problem minimizes, over beta, the weighted pinball loss of the
residuals score_e - beta.feature_e (one calibration entry per coreset row
or raw score, plus a single aggregated test entry). Its LP dual has a very
particular shape: one box-constrained variable eta_e per entry and only
|groups| equality constraints coupling them,

    max  sum_e eta_e * score_e
    s.t. sum_e eta_e * feature_e = 0,
         -weight_e * alpha <= eta_e <= weight_e * (1 - alpha).

We solve that dual directly with a dense bounded-variable revised simplex
whose basis is only |groups| wide. The simplex multipliers of the final
basis are exactly the primal beta, and the eta at a vertex are exact KKT
multipliers, which the threshold search requires. ``AugmentedQrSolver``, built
for one calibration set and one test pattern, is the only entry point; the
caller (``conformal``) rejects a group column without calibration mass first.

A cold solve does not start from eta = 0. All rows of an atom (one
membership pattern) share one column of the coupling, so starting each atom
at its own weighted (1 - alpha)-quantile split keeps the coupling at 0 and
lands within a few dozen entries of the optimum; a crossover moves the one
interior entry per atom to a bound or into the basis, and the simplex
finishes from there.

Only the test entry's cost depends on the test score t, so every reduced
cost is affine in t, r0 + t * r1 with r0 priced at t = 0, and an optimal
basis stays optimal between breakpoints, the scores -r0 / r1.
``raise_test_score`` walks those breakpoints with one pivot each and finds
the exact score at which the test dual reaches its bound. When no reduced
cost can still change sign, the basis is optimal for every larger score, the
dual never reaches its bound and the walk returns +inf. Koenker & d'Orey
(AS 229) trace regression quantiles through the breakpoints of the quantile
level the same way.

The first solve for a new test pattern need not start cold either. Setting
the test entry's box to [0, 0] (test weight 0) gives the calibration-only
problem; a zero-width column is never priced, so at its optimum the test
entry is nonbasic at 0. ``export_basis`` hands out that basis and point, and
a solver built with ``start_basis`` resumes from it: the calibration part
does not depend on the test pattern, so it stays primal feasible, and the
test entry, at 0 inside its new box, goes through the crossover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import MembershipVector

_BOX_TOL = 1e-9
_COUPLING_TOL = 1e-8
_GAP_TOL = 1e-8
# A reduced-cost slope below this is treated as 0 in the parametric walk.
_SLOPE_TOL = 1e-9
# Breakpoints closer than this, relative to 1 + |t|, are one breakpoint.
_BREAKPOINT_RTOL = 1e-10


class SolverError(RuntimeError):
    """The simplex failed to reach a verified optimum (internal error)."""


@dataclass(frozen=True)
class SimplexBasis:
    """A start for AugmentedQrSolver: the basic columns and a point.

    ``point`` holds a value for every column (the entries, then the
    artificials); the values of the basic columns are recomputed from the
    others. ``export_basis`` makes one, and so does the crash.
    """

    basic: np.ndarray  # column index per basis row
    point: np.ndarray  # value per column


@dataclass(frozen=True)
class QrSolution:
    beta: np.ndarray
    primal_objective: float
    dual_objective: float
    eta: np.ndarray  # one per calibration entry, problem order
    eta_test: float
    iterations: int  # crossover steps, simplex pivots and bound flips of this solve
    duality_gap: float  # |primal - dual| as verified
    coupling_residual: float  # max |sum_e eta_e phi_e| as verified


class AugmentedQrSolver:
    """Stateful solver for one calibration set and one test membership pattern.

    The dual is solved as  max c.x  s.t.  A x = 0,  lo <= x <= up  by a
    bounded-variable primal simplex (Dantzig, Econometrica 1955): x holds
    eta, one column per entry (the test entry last) in its own box, followed
    by ``d`` artificial columns with box [0, 0]. Zero-width columns are never
    priced. The first solve starts from ``start_basis`` when one is given,
    and from the per-atom quantile crash with the artificial basis otherwise.
    Every nonbasic value of the start that sits on a bound sets that column's
    status; every one strictly inside its box is moved to a bound or into
    the basis by a crossover before the simplex prices anything.

    ``solve_at`` re-solves after changing only the test score, warm-starting
    from the previous optimal basis (primal feasibility is unaffected by the
    objective change, so the simplex resumes directly).
    ``raise_test_score`` follows the optimum as the test score rises, one
    breakpoint at a time. Both enter columns the same way: Dantzig pricing,
    with Bland's rule after a run of degenerate steps.
    """

    def __init__(
        self,
        features: np.ndarray,
        scores: np.ndarray,
        weights: np.ndarray,
        alpha: float,
        test_feature: MembershipVector,
        test_weight: float,
        *,
        start_basis: SimplexBasis | None = None,
    ):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha {alpha!r} outside (0, 1)")
        features = np.asarray(features, dtype=float)
        scores = np.asarray(scores, dtype=float)
        weights = np.asarray(weights, dtype=float)
        n_cal, d = features.shape
        if len(test_feature) != d:
            raise ValueError("test feature dimension mismatch")
        self.alpha = alpha
        self.test_weight = float(test_weight)

        self._phi = np.vstack([features, np.asarray(test_feature, dtype=float)])
        self._w = np.append(weights, self.test_weight)
        e = self._e = n_cal + 1
        N = e + d
        self._A = np.hstack([self._phi.T, np.eye(d)])
        self._lo = np.concatenate([-self._w * alpha, np.zeros(d)])
        self._up = np.concatenate([self._w * (1.0 - alpha), np.zeros(d)])
        self._movable = self._up > self._lo
        self._c = np.concatenate([scores, np.zeros(d + 1)])
        self._s = self._c[:e]  # the entries' scores, the test score last
        # the costs at test score 0 and their rate of change with the score
        self._parametric = np.array([self._c, np.zeros(N)])
        self._parametric[1, e - 1] = 1.0
        self.test_score: float | None = None  # the score of the last solve or walk step

        if start_basis is None:
            start_basis = SimplexBasis(np.arange(e, N), self._crash(features, scores))
        basic, x = start_basis.basic, start_basis.point
        in_basis = np.isin(np.arange(N), basic)
        if (
            x.shape != (N,)
            or basic.shape != (d,)
            or np.count_nonzero(in_basis) != d
            or in_basis[e - 1]
            or not np.all(in_basis | ((x >= self._lo) & (x <= self._up)))
        ):
            raise ValueError("start basis does not fit this problem")
        self._basis = basic.copy()
        self._status = (x == self._up).astype(np.int8)  # 0 lower, 1 upper, 2 basic
        self._status[basic] = 2
        self._start: np.ndarray | None = np.where(in_basis, 0.0, x)

    def _crash(self, features: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """A point with every atom (the rows sharing one pattern) at its
        weighted (1 - alpha)-quantile split.

        Ranked by score, the top alpha of an atom's weight sits at
        eta = w (1 - alpha), the rest at -w alpha, and the one entry that
        straddles the split takes the interior value that makes the atom's
        eta sum to 0: each row's share of the split, clipped into its box.
        Every atom sums to 0, so sum_e eta_e phi_e = 0 holds and the
        artificial basis stays feasible; the test entry starts at 0.
        """
        order = np.lexsort((-scores,) + tuple(features.T[::-1]))
        f, w = features[order], self._w[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = np.any(f[1:] != f[:-1], axis=1)
        starts = np.flatnonzero(first)
        atom = np.cumsum(first) - 1
        cum = np.cumsum(w)
        through = cum - (cum - w)[starts][atom]  # atom weight ranked at or above each entry
        target = self.alpha * through[np.append(starts[1:], len(order)) - 1][atom]
        x = np.zeros(len(self._c))
        x[order] = np.clip(target - (through - w) - self.alpha * w, self._lo[order], self._up[order])
        return x

    def _refresh(self) -> None:
        x = np.where(self._status == 1, self._up, self._lo)
        x[self._basis] = 0.0
        self._xB = np.linalg.solve(self._A[:, self._basis], -self._A @ x)

    def _prices(self, costs: np.ndarray) -> np.ndarray:
        """Reduced costs of every column for each row of ``costs`` under the current basis."""
        y = np.linalg.solve(self._A[:, self._basis].T, costs[..., self._basis].T)
        return costs - y.T @ self._A

    def _step(self, j: int, sgn: float, value: float) -> float:
        """Move nonbasic column j from ``value`` in direction ``sgn`` until it
        reaches a bound (a bound flip) or a basic variable does (a pivot);
        returns the length of the move."""
        dxB = -sgn * np.linalg.solve(self._A[:, self._basis], self._A[:, j])
        loB, upB = self._lo[self._basis], self._up[self._basis]
        tmax = self._up[j] - value if sgn > 0 else value - self._lo[j]
        leave = -1
        neg = np.flatnonzero(dxB < -1e-11)
        if neg.size:
            ratios = np.maximum(self._xB[neg] - loB[neg], 0.0) / -dxB[neg]
            k = int(np.argmin(ratios))
            if ratios[k] < tmax - 1e-13:
                tmax, leave = float(ratios[k]), int(neg[k])
        pos = np.flatnonzero(dxB > 1e-11)
        if pos.size:
            ratios = np.maximum(upB[pos] - self._xB[pos], 0.0) / dxB[pos]
            k = int(np.argmin(ratios))
            if ratios[k] < tmax - 1e-13:
                tmax, leave = float(ratios[k]), int(pos[k])

        self._xB += dxB * tmax
        if leave < 0:
            self._status[j] = 1 if sgn > 0 else 0
        else:
            self._status[self._basis[leave]] = 0 if dxB[leave] < 0 else 1
            self._basis[leave] = j
            self._status[j] = 2
            self._xB[leave] = value + sgn * tmax
        return tmax

    def _enter(self, candidates: np.ndarray, rank: np.ndarray) -> None:
        """Move one nonbasic candidate off its bound: the one with the largest
        |rank| (Dantzig), or the smallest index (Bland's rule) after more than
        40 degenerate steps in a row."""
        if self._degenerate > 40:
            j = int(candidates[0])
        else:
            j = int(candidates[np.argmax(np.abs(rank[candidates]))])
        at_lower = self._status[j] == 0
        moved = self._step(j, 1.0 if at_lower else -1.0, self._lo[j] if at_lower else self._up[j])
        self._degenerate = self._degenerate + 1 if moved < 1e-13 else 0

    def _crossover(self) -> int:
        """Move each nonbasic column of the start point that lies strictly
        inside its box to a bound or into the basis, one ratio test each."""
        x, self._start = self._start, None
        self._xB = np.linalg.solve(self._A[:, self._basis], -self._A @ x)
        interior = np.flatnonzero((x > self._lo) & (x < self._up) & (self._status != 2))
        for j in interior.tolist():
            y = np.linalg.solve(self._A[:, self._basis].T, self._c[self._basis])
            r = self._c[j] - y @ self._A[:, j]
            self._step(j, 1.0 if r > 0.0 else -1.0, float(x[j]))
        return len(interior)

    def _optimize(self, max_iter: int = 500_000) -> tuple[np.ndarray, int]:
        """The simplex multipliers of the optimal basis and the iteration count."""
        c = self._c
        price_tol = 1e-9 * (1.0 + float(np.max(np.abs(c))))
        self._degenerate = 0
        crossed = self._crossover() if self._start is not None else 0
        self._refresh()
        for it in range(max_iter):
            y = np.linalg.solve(self._A[:, self._basis].T, c[self._basis])
            r = c - y @ self._A
            cand = np.flatnonzero(
                self._movable
                & (((self._status == 0) & (r > price_tol)) | ((self._status == 1) & (r < -price_tol)))
            )
            if cand.size == 0:
                self._refresh()
                return y, crossed + it
            self._enter(cand, r)
            if it % 512 == 511:
                self._refresh()
        raise SolverError("simplex iteration limit exceeded")

    def _primal_values(self) -> np.ndarray:
        x = np.where(self._status == 1, self._up, self._lo)
        x[self._basis] = self._xB
        return x

    def solve_at(self, test_score: float) -> QrSolution:
        if not math.isfinite(test_score):
            raise SolverError(f"test score {test_score!r} is not finite")
        self.test_score = self._s[-1] = float(test_score)
        beta, iterations = self._optimize()

        eta = self._primal_values()[: self._e]
        theta = self._phi @ beta
        resid = self._s - theta
        pin = np.where(resid >= 0.0, (1.0 - self.alpha) * resid, -self.alpha * resid)
        primal = float(self._w @ pin)
        dual = float(eta @ self._s)
        gap, coupling = self._verify(eta, beta, primal, dual)
        return QrSolution(
            beta=beta,
            primal_objective=primal,
            dual_objective=dual,
            eta=eta[:-1],
            eta_test=float(eta[-1]),
            iterations=iterations,
            duality_gap=gap,
            coupling_residual=coupling,
        )

    def raise_test_score(self, eta_bound: float) -> float:
        """The lowest test score from the last solved one up at which eta_test
        reaches ``eta_bound``; +inf if none does.

        Only the test entry's cost moves with the test score t, so every
        reduced cost is r0 + t * r1, with r0 priced at t = 0, and the optimal
        basis of the last solve stays optimal until the first breakpoint, the
        score -r0 / r1 at which a nonbasic reduced cost changes sign. There
        the crossing columns are pivoted in directly, one at a time: the
        optimum after them has the largest eta_test among the optima at t (r1
        is the rate of eta_test along each move), and eta_test is tested only
        then. Breakpoints are matched with a relative tolerance, and one found
        slightly below t counts as at t. Once no reduced cost can change sign
        the basis is optimal for every larger score, and ``test_score`` is the
        last breakpoint reached.
        """
        if self.test_score is None:
            raise ValueError("raise_test_score needs a preceding solve_at")
        t = self.test_score
        self._degenerate = 0
        for _ in range(500_000):
            r0, r1 = self._prices(self._parametric)
            lower = self._movable & (self._status == 0)
            upper = self._movable & (self._status == 1)
            losing = np.flatnonzero((lower & (r1 > _SLOPE_TOL)) | (upper & (r1 < -_SLOPE_TOL)))
            breakpoints = -r0[losing] / r1[losing]
            crossing = losing[breakpoints <= t + _BREAKPOINT_RTOL * (1.0 + abs(t))]
            if crossing.size:
                self._enter(crossing, r1)
                continue
            if self._primal_values()[self._e - 1] >= eta_bound:
                return t
            if not losing.size:
                return math.inf
            t = self.test_score = float(breakpoints.min())
        raise SolverError("parametric iteration limit exceeded")

    def export_basis(self) -> SimplexBasis:
        """The optimal basis and point of a solved calibration-only problem.

        Only test weight 0 exports: its test entry is zero-width, so it sits
        nonbasic at 0, and the point stays feasible for any test pattern.
        """
        if self.test_score is None or self.test_weight != 0.0:
            raise ValueError("only a solved problem with test weight 0 exports its basis")
        return SimplexBasis(self._basis.copy(), self._primal_values())

    def _verify(self, eta, beta, primal, dual) -> tuple[float, float]:
        """Check the box, the coupling and the duality gap; returns the gap and
        the residual. The tests are written so that a NaN fails them."""
        lo, up = self._lo[: self._e], self._up[: self._e]
        if not np.all((eta >= lo - _BOX_TOL) & (eta <= up + _BOX_TOL)):
            raise SolverError("dual box constraint violated")
        coupling = float(np.max(np.abs(self._phi.T @ eta)))
        if not coupling <= _COUPLING_TOL:
            raise SolverError(f"coupling residual {coupling:.2e} outside tolerance")
        gap = abs(primal - dual)
        if not gap <= _GAP_TOL * (1.0 + abs(primal)):
            raise SolverError(f"duality gap {gap:.2e} outside tolerance")
        return gap, coupling
