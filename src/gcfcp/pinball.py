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
multipliers, which the threshold search requires.

The solver keeps the inverse of its basis. It is inverted afresh wherever
the basic values are recomputed, and each pivot updates it by one rank-one
(eta) step, the product form of Dantzig & Orchard-Hays (1954), with a fresh
inversion at least every 512 pivots; a solve that takes no step keeps the
inverse it opened with. Each column also keeps the direction it can move in:
+1 at its lower bound, -1 at its upper bound, 0 when basic or zero-width. A
reduced cost times that direction is the gain of entering the column, so
Dantzig pricing is one argmax over that product.
``AugmentedQrSolver``, built for one calibration set and one test pattern, is
the only entry point; the caller (``conformal``) rejects a group column
without calibration mass first. A solver opened for walks hands out copies
of itself for other test patterns.

Work over all N columns (pricing, recomputing the basic values,
verification) is vectorized. The ratio test of a step, over only the d basis
rows, is one loop in Python floats over the basic values, the moving column
and the bounds of the basic columns, kept by basis row: the first row with
the smallest ratio among those falling to their lower bound, replaced by the
first with the smallest ratio among those rising to their upper bound only
below it less 1e-13. The arithmetic is that of the array code, so every
pivot is the same to the bit; the eta update of the inverse stays in numpy.

A cold solve does not start from eta = 0. All rows of an atom (one
membership pattern) share one column of the coupling, so starting each atom
at its own weighted (1 - alpha)-quantile split keeps the coupling at 0 and
lands within a few dozen entries of the optimum; a crossover moves the one
interior entry per atom to a bound or into the basis, and the simplex
finishes from there. The crash sorts nothing: it reads the rows in the
layout of ``conformal.CalibrationData`` (each atom's rows in one run, scores
ascending), takes each run of equal feature rows as an atom and ranks it from
its last row up. Each run sums to 0 in any row order, so rows out of the
layout only start the simplex further from the optimum.

Only the test entry's cost depends on the test score t, so every reduced
cost is affine in t, r0 + t * r1 with r0 priced at t = 0, and an optimal
basis stays optimal between breakpoints, the scores -r0 / r1.
``raise_test_score`` walks those breakpoints with one pivot each and finds
the exact score at which the test dual reaches its bound. r0 and r1 depend
on the basis alone, so they are priced once per basis. When no reduced
cost can still change sign, the basis is optimal for every larger score, the
dual never reaches its bound and the walk returns +inf. Koenker & d'Orey
(AS 229) trace regression quantiles through the breakpoints of the quantile
level the same way.

A threshold search starts from the calibration-only problem instead of a
solve at a low test score. Setting the test entry's box to [0, 0] (test
weight 0) gives that problem; a zero-width column is never priced, so at its
optimum the test entry is nonbasic at 0. The calibration part does not
depend on the test pattern, so that optimum stays primal feasible for every
pattern. With y the multipliers of its basis, the test column's reduced cost
at the calibration fit f0 = y . phi_test is 0, so at score f0 the start is
optimal for the augmented problem too, with eta_test = 0 inside its new box;
hence S* >= f0.

That start splits into work per calibration set and work per pattern.
``open_walk`` runs once per calibration set, on the solved calibration-only
problem: it gives the test entry the box of the real test weight, keeps y
and checks with one pricing pass that the start is optimal.
``start_pattern`` runs once per pattern: it copies the opened state, sets
the test column and the test score f0 and moves the test entry up by one
step; ``raise_test_score`` walks on from there. A solver built with a
positive test weight and solved by ``solve_at`` instead sends the test
entry, at 0 inside its box, through the crossover.
"""

from __future__ import annotations

import copy
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
# Enter by Bland's rule instead of Dantzig's after this many degenerate steps in a row.
_BLAND_AFTER = 40
# The kept basis inverse is inverted afresh after this many rank-one updates.
_REFACTOR_EVERY = 512
# The simplex and the parametric walk each give up after this many steps.
_MAX_ITER = 500_000


class SolverError(RuntimeError):
    """The simplex failed to reach a verified optimum (internal error)."""


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
    priced. The first solve starts from the per-atom quantile crash, over the
    runs of equal feature rows, with the artificial basis. Every value of the
    crash that sits on a bound sets that column's direction; every one
    strictly inside its box is moved to a bound or into the basis by a
    crossover before the simplex prices anything.

    ``solve_at`` re-solves after changing only the test score, warm-starting
    from the previous optimal basis (primal feasibility is unaffected by the
    objective change, so the simplex resumes directly).
    ``open_walk`` opens an optimal calibration-only start once,
    ``start_pattern`` copies it for one test pattern and starts that copy's
    walk at the pattern's calibration fit, and ``raise_test_score`` follows
    the optimum as the test score rises, one breakpoint at a time.
    ``solve_at`` and the walk enter columns the same way: Dantzig pricing,
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
    ):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha {alpha!r} outside (0, 1)")
        features = np.asarray(features, dtype=float)
        n_cal, d = features.shape
        if len(test_feature) != d:
            raise ValueError("test feature dimension mismatch")
        self.alpha = alpha
        self.test_weight = float(test_weight)

        e = self._e = n_cal + 1
        N = e + d
        # one column per entry (the test entry last), then the artificials
        self._A = np.empty((d, N))
        self._A[:, :n_cal] = features.T
        self._A[:, n_cal] = test_feature
        self._A[:, e:] = np.eye(d)
        self._w = np.empty(e)
        self._w[:n_cal] = weights
        self._w[n_cal] = self.test_weight
        self._lo = np.zeros(N)
        self._up = np.zeros(N)
        np.multiply(self._w, -alpha, out=self._lo[:e])
        np.multiply(self._w, 1.0 - alpha, out=self._up[:e])
        self._movable = self._up > self._lo
        # the costs at test score 0 and their rate of change with the score
        self._parametric = np.zeros((2, N))
        self._parametric[0, :n_cal] = scores
        self._parametric[1, n_cal] = 1.0
        self._c = self._parametric[0].copy()
        self._s = self._c[:e]  # the entries' scores, the test score last
        self.test_score: float | None = None  # the score of the last solve or walk step

        x = self._crash(features)
        self._basis = np.arange(e, N)  # the artificials, each at 0 in its box [0, 0]
        # the bounds of the basic columns by basis row, for the ratio test
        self._loB, self._upB = [0.0] * d, [0.0] * d
        # the direction each nonbasic column can move in: +1 up from its
        # lower bound, -1 down from its upper one, 0 if basic or zero-width
        self._dir = np.where(x == self._up, -1.0, 1.0)
        self._dir *= self._movable
        self._start: np.ndarray | None = x
        self._y0: np.ndarray | None = None  # the multipliers at test score 0 of an opened start

    def _crash(self, features: np.ndarray) -> np.ndarray:
        """A point with every atom, a run of equal feature rows, at its
        weighted (1 - alpha)-quantile split.

        Ranked from the run's last row up, by descending score in the
        calibration layout, the top alpha of an atom's weight sits at
        eta = w (1 - alpha), the rest at -w alpha, and the one entry that
        straddles the split takes the interior value that makes the atom's
        eta sum to 0: each row's share of the split, clipped into its box.
        Every atom sums to 0, so sum_e eta_e phi_e = 0 holds and the
        artificial basis stays feasible; the test entry starts at 0.
        """
        n = len(features)
        new = np.ones(n, dtype=bool)
        new[1:] = (features[1:] != features[:-1]).any(axis=1)
        starts = np.flatnonzero(new)
        sizes = np.diff(starts, append=n)
        order = np.repeat(2 * starts + sizes - 1, sizes) - np.arange(n)  # each run from its last row up
        w = self._w[order]
        cum = np.cumsum(w)
        through = cum - np.repeat((cum - w)[starts], sizes)  # atom weight ranked at or above each entry
        target = self.alpha * np.repeat(through[starts + sizes - 1], sizes)
        x = np.zeros(len(self._c))
        x[order] = np.clip(target - (through - w) - self.alpha * w, self._lo[order], self._up[order])
        return x

    def _factor(self) -> None:
        """Invert the basis afresh, dropping the rank-one updates made since."""
        self._Binv = np.linalg.inv(self._A[:, self._basis])
        self._updates = 0

    def _refresh(self) -> None:
        self._factor()
        x = np.where(self._dir > 0.0, self._lo, self._up)
        x[self._basis] = 0.0
        self._xB = self._Binv @ -(self._A @ x)

    def _prices(self, costs: np.ndarray) -> np.ndarray:
        """Reduced costs of every column for each row of ``costs`` under the current basis."""
        return costs - (costs[..., self._basis] @ self._Binv) @ self._A

    def _ratio_test(self, col: np.ndarray, sgn: float, tmax: float) -> tuple[int, float]:
        """The basis row that reaches a bound first when a nonbasic column
        with basis representation ``col`` moves in direction ``sgn``, and the
        length of the move; row -1 if the column reaches its own other bound
        first, at ``tmax``.

        One loop over the d basis rows in Python floats. Row i falls at the
        rate sgn * col_i per unit of the move. The first row with the smallest
        ratio among those falling to their lower bound is taken if its ratio
        is below ``tmax`` less 1e-13, then the first with the smallest ratio
        among those rising to their upper bound if below that length less
        1e-13. A rate within 1e-11 of 0 does not move its row.
        """
        xB, loB, upB = self._xB.tolist(), self._loB, self._upB
        fall, fall_at, rise, rise_at = math.inf, -1, math.inf, -1
        for i, c in enumerate(col.tolist()):
            rate = sgn * c
            if rate > 1e-11:
                room = xB[i] - loB[i]
                ratio = 0.0 if room <= 0.0 else room / rate
                if ratio < fall:
                    fall, fall_at = ratio, i
            elif rate < -1e-11:
                room = upB[i] - xB[i]
                ratio = 0.0 if room <= 0.0 else room / -rate
                if ratio < rise:
                    rise, rise_at = ratio, i
        leave = -1
        if fall < tmax - 1e-13:
            tmax, leave = fall, fall_at
        if rise < tmax - 1e-13:
            tmax, leave = rise, rise_at
        return leave, tmax

    def _step(self, j: int, sgn: float, value: float) -> float:
        """Move nonbasic column j from ``value`` in direction ``sgn`` until it
        reaches a bound (a bound flip) or a basic variable does (a pivot);
        returns the length of the move."""
        col = self._Binv @ self._A[:, j]
        tmax = self._up.item(j) - value if sgn > 0 else value - self._lo.item(j)
        leave, tmax = self._ratio_test(col, sgn, tmax)
        self._xB += (-sgn * col) * tmax
        if leave < 0:
            self._dir[j] = -sgn
            return tmax
        out = self._basis.item(leave)
        falls = -sgn * col.item(leave) < 0
        self._dir[out] = (1.0 if falls else -1.0) if self._movable[out] else 0.0
        self._basis[leave] = j
        self._loB[leave], self._upB[leave] = self._lo.item(j), self._up.item(j)
        self._dir[j] = 0.0
        self._xB[leave] = value + sgn * tmax
        self._updates += 1
        if self._updates >= _REFACTOR_EVERY:
            self._factor()
        else:  # the product-form (eta) update of the inverse
            row = self._Binv[leave] / col[leave]
            self._Binv -= col[:, None] * row
            self._Binv[leave] = row
        return tmax

    def _enter(self, j: int) -> None:
        """Move nonbasic column j off its bound along its direction, and count
        the degenerate steps in a row."""
        sgn = self._dir.item(j)
        moved = self._step(j, sgn, (self._lo if sgn > 0 else self._up).item(j))
        self._degenerate = self._degenerate + 1 if moved < 1e-13 else 0

    def _crossover(self) -> int:
        """Take the start point, invert its basis, set the basic values from
        it and move each nonbasic column that lies strictly inside its box to
        a bound or into the basis, one ratio test each."""
        x, self._start = self._start, None
        self._factor()
        self._xB = self._Binv @ -(self._A @ x)
        interior = np.flatnonzero((x > self._lo) & (x < self._up) & (self._dir != 0.0))
        for j in interior.tolist():
            y = self._c[self._basis] @ self._Binv
            r = self._c[j] - y @ self._A[:, j]
            self._step(j, 1.0 if r > 0.0 else -1.0, float(x[j]))
        return len(interior)

    def _optimize(self) -> tuple[np.ndarray, int]:
        """The simplex multipliers of the optimal basis and the iteration count."""
        c = self._c
        price_tol = 1e-9 * (1.0 + float(np.max(np.abs(c))))
        self._degenerate = 0
        crossed = self._crossover() if self._start is not None else 0
        self._refresh()
        for it in range(_MAX_ITER):
            y = c[self._basis] @ self._Binv
            rank = (c - y @ self._A) * self._dir
            j = int(np.argmax(rank))  # Dantzig: the largest gain, the lowest index on ties
            if not rank[j] > price_tol:
                if it:  # with no step taken, the opening refresh still holds
                    self._refresh()
                return y, crossed + it
            if self._degenerate > _BLAND_AFTER:
                j = int(np.argmax(rank > price_tol))  # Bland: the first column that gains
            self._enter(j)
            if it % 512 == 511:
                self._refresh()
        raise SolverError("simplex iteration limit exceeded")

    def _primal_values(self) -> np.ndarray:
        x = np.where(self._dir > 0.0, self._lo, self._up)
        x[self._basis] = self._xB
        return x

    def _value(self, j: int) -> float:
        """The current value of column j."""
        basis = self._basis.tolist()
        if j in basis:
            return self._xB.item(basis.index(j))
        return (self._lo if self._dir.item(j) > 0.0 else self._up).item(j)

    def solve_at(self, test_score: float) -> QrSolution:
        if not math.isfinite(test_score):
            raise SolverError(f"test score {test_score!r} is not finite")
        self.test_score = self._s[-1] = float(test_score)
        beta, iterations = self._optimize()

        eta = self._primal_values()[: self._e]
        theta = beta @ self._A[:, : self._e]
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

    def open_walk(self, test_weight: float) -> None:
        """Open a walk's start, the part that does not depend on the test
        pattern, with the test entry weighing ``test_weight``.

        The start is a solved calibration-only problem (test weight 0), whose
        solve left its basis inverted afresh and every nonbasic column on a
        bound. It must be optimal: basic values in their boxes, no column that
        could still gain. One pricing pass at score 0 checks that (SolverError
        if not) and keeps the multipliers y. The test entry stays nonbasic at
        0, out of the check and of pricing until the walk moves it.
        """
        test = self._e - 1
        if self._y0 is not None or self.test_score is None or self.test_weight != 0.0:
            raise ValueError("open_walk needs a solved calibration-only problem")
        self.test_score = None
        self.test_weight = self._w[test] = float(test_weight)
        self._lo[test], self._up[test] = self.test_weight * -self.alpha, self.test_weight * (1.0 - self.alpha)
        self._movable[test] = self._up[test] > self._lo[test]
        self._dir[test] = 0.0
        costs = self._parametric[0]
        self._y0 = costs[self._basis] @ self._Binv
        r0 = costs - self._y0 @ self._A
        price_tol = 1e-9 * (1.0 + float(np.max(np.abs(costs))))
        loB, upB = self._lo[self._basis], self._up[self._basis]
        if (
            not np.all((self._xB >= loB - _BOX_TOL) & (self._xB <= upB + _BOX_TOL))
            or np.max(r0 * self._dir) > price_tol
        ):
            raise SolverError("the calibration-only basis is not optimal")

    def _walk_from_fit(self) -> None:
        """Set the test score to the calibration fit f0 = y . phi_test, where
        the test column's reduced cost is 0 and the opened start is optimal
        for the augmented problem, and move the test entry up by one step,
        the crossing that ``raise_test_score`` makes at any breakpoint."""
        test = self._e - 1
        # minus the reduced cost at score 0, as a pricing pass rounds it (-0.0 for a fit of 0)
        self.test_score = self._s[-1] = -(0.0 - float(self._y0 @ self._A[:, test]))
        if self._movable.item(test):
            self._step(test, 1.0, 0.0)

    def start_pattern(self, test_feature: MembershipVector) -> AugmentedQrSolver:
        """A copy of this opened start with ``test_feature`` as its test
        column, its walk started at that pattern's calibration fit. The copy
        shares the bounds, weights and costs at score 0, which no solve or
        walk changes, and copies the rest; the start itself does not change."""
        if self._y0 is None or self.test_score is not None:
            raise ValueError("start_pattern needs a start opened by open_walk and not walked")
        if len(test_feature) != self._A.shape[0]:
            raise ValueError("test feature dimension mismatch")
        if not any(test_feature) or not set(test_feature) <= {0, 1}:
            raise ValueError(f"test pattern {tuple(test_feature)!r} is not 0/1 or lies in no group")
        walker = copy.copy(self)
        for name in ("_A", "_c", "_basis", "_loB", "_upB", "_dir", "_Binv", "_xB"):
            setattr(walker, name, getattr(self, name).copy())
        walker._A[:, self._e - 1] = test_feature
        walker._s = walker._c[: self._e]
        walker._walk_from_fit()
        return walker

    def raise_test_score(self, eta_bound: float) -> float:
        """The lowest test score from the last solved or started one up at
        which eta_test reaches ``eta_bound``; +inf if none does.

        Only the test entry's cost moves with the test score t, so every
        reduced cost is r0 + t * r1, with r0 priced at t = 0, and the optimal
        basis of the last solve stays optimal until the first breakpoint, the
        score -r0 / r1 at which a nonbasic reduced cost changes sign. r0 and
        r1 depend on the basis alone, so they are priced once per basis: at a
        new breakpoint the crossing columns come from the same prices. There
        the crossing columns are pivoted in directly, one at a time: the
        optimum after them has the largest eta_test among the optima at t (r1
        is the rate of eta_test along each move), and eta_test is tested only
        then. Breakpoints are matched with a relative tolerance, and one found
        slightly below t counts as at t. Once no reduced cost can change sign
        the basis is optimal for every larger score, and ``test_score`` is the
        last breakpoint reached.
        """
        if self.test_score is None:
            raise ValueError("raise_test_score needs a preceding solve_at or start_pattern")
        t = self.test_score
        self._degenerate = 0
        for _ in range(_MAX_ITER):
            prices = self._prices(self._parametric)
            rank = prices[1] * self._dir
            losing = np.flatnonzero(rank > _SLOPE_TOL)
            r0, r1 = prices[:, losing]
            breakpoints = -r0 / r1
            first = float(breakpoints.min()) if losing.size else math.inf
            if first > t + _BREAKPOINT_RTOL * (1.0 + abs(t)):  # no breakpoint at t
                if self._value(self._e - 1) >= eta_bound:
                    return t
                if not losing.size:
                    return math.inf
                t = self.test_score = first
            crossing = losing[breakpoints <= t + _BREAKPOINT_RTOL * (1.0 + abs(t))]
            if crossing.size > 1 and self._degenerate <= _BLAND_AFTER:
                self._enter(int(crossing[np.argmax(rank[crossing])]))
            else:
                self._enter(int(crossing[0]))
        raise SolverError("parametric iteration limit exceeded")

    def _verify(self, eta, beta, primal, dual) -> tuple[float, float]:
        """Check the box, the coupling and the duality gap; returns the gap and
        the residual. The tests are written so that a NaN fails them."""
        lo, up = self._lo[: self._e], self._up[: self._e]
        if not np.all((eta >= lo - _BOX_TOL) & (eta <= up + _BOX_TOL)):
            raise SolverError("dual box constraint violated")
        coupling = float(np.max(np.abs(self._A[:, : self._e] @ eta)))
        if not coupling <= _COUPLING_TOL:
            raise SolverError(f"coupling residual {coupling:.2e} outside tolerance")
        gap = abs(primal - dual)
        if not gap <= _GAP_TOL * (1.0 + abs(primal)):
            raise SolverError(f"duality gap {gap:.2e} outside tolerance")
        return gap, coupling
