"""Shared pytest plumbing and test-data builders.

The acceptance tests append one line per criterion to ACCEPTANCE_RESULTS;
the terminal-summary hook prints them after the run so every pass/fail
verdict is visible even when the tests succeed.
"""

import csv
import itertools
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from reference import pinball_loss

from gcfcp import tdigest
from gcfcp.groups import GroupFamily, LabelSet, membership_matrix
from gcfcp.pinball import AugmentedQrSolver

ACCEPTANCE_RESULTS: list[str] = []
# how far the library's cluster sums may lie from the exact ones: see
# reference.reference_clusters
SUM_TOL = 8.0 * np.finfo(float).eps


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


def atom_features(rng, d, n, label_sets):
    """(n, d) binary features on a few shared patterns (atoms): drawn from a
    random pool of patterns, or the memberships of random labels in d random
    label sets that together cover every label. Above 10 groups the pool is
    drawn pattern by pattern instead of from the list of all patterns."""
    if label_sets:
        labels = int(rng.integers(d + 1, max(9, d + 2)))
        groups = [set(rng.choice(labels, int(rng.integers(1, labels)), replace=False).tolist()) for _ in range(d)]
        groups[0] |= set(range(labels)) - set().union(*groups)
        family = GroupFamily(tuple(LabelSet(frozenset(g)) for g in groups))
        return membership_matrix(rng.integers(0, labels, n), family).astype(float)
    if d > 10:  # too many patterns to list: a random pool, group 0 in every pattern
        pool = (rng.random((int(rng.integers(1, 2 * n)), d)) < 0.5).astype(float)
        pool[:, 0] = 1.0
        return pool[rng.integers(0, len(pool), n)]
    patterns = np.array([p for p in itertools.product((0, 1), repeat=d) if any(p)], dtype=float)
    pool = patterns[rng.choice(len(patterns), int(rng.integers(1, len(patterns) + 1)), replace=False)]
    return pool[rng.integers(0, len(pool), n)]


def laid_out(features, scores, weights):
    """The rows in the calibration layout: by atom in lexicographic bit order,
    scores ascending within an atom, tied scores in input order."""
    order = np.lexsort((scores, *features.T[::-1]))
    return features[order], scores[order], weights[order]


@dataclass(frozen=True)
class LpInstance:
    """One augmented pinball LP: calibration rows plus one test entry."""

    features: np.ndarray  # (n, d) binary, float
    scores: np.ndarray
    weights: np.ndarray
    alpha: float
    test_feature: tuple[int, ...]
    test_score: float
    test_weight: float

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    @property
    def calibration(self) -> tuple:
        """The leading ``AugmentedQrSolver`` arguments: features, scores, weights, alpha."""
        return self.features, self.scores, self.weights, self.alpha

    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Features, scores and weights with the test entry as the last row."""
        return (
            np.vstack([self.features, self.test_feature]),
            np.append(self.scores, self.test_score),
            np.append(self.weights, self.test_weight),
        )

    def solve(self):
        """A cold solve at the test score."""
        return AugmentedQrSolver(*self.calibration, self.test_feature, self.test_weight).solve_at(self.test_score)


def _draw_entries(rng, patterns):
    """Score and weight row by row, then the test pattern and score: the draw
    order the acceptance figures were recorded with."""
    rows = [(float(rng.normal()), float(rng.uniform(0.1, 2))) for _ in patterns]
    scores, weights = (np.array(col) for col in zip(*rows))
    test_feature = tuple(int(b) for b in patterns[int(rng.integers(len(patterns)))])
    return scores, weights, test_feature, float(rng.normal())


def random_lp(rng, max_entries=50) -> LpInstance:
    """Up to 4 groups, every group column with calibration mass."""
    d = int(rng.integers(1, 5))
    n = int(rng.integers(d + 1, max_entries + 1))
    feats = (rng.random((n, d)) < 0.5).astype(int)
    feats[feats.sum(axis=1) == 0, 0] = 1
    for g in range(d):
        if feats[:, g].sum() == 0:
            feats[int(rng.integers(n)), g] = 1
    scores, weights, test_feature, test_score = _draw_entries(rng, feats)
    test_weight = float(rng.uniform(0.01, 0.2))
    alpha = float(rng.uniform(0.05, 0.4))
    return LpInstance(feats.astype(float), scores, weights, alpha, test_feature, test_score, test_weight)


def small_lp(rng) -> LpInstance:
    """Dimension <= 2 with the unit patterns present, so vertices are enumerable."""
    d = int(rng.integers(1, 3))
    patterns = [(1, 0), (0, 1)] if d == 2 else [(1,)]
    n = int(rng.integers(d + 1, 13))
    while len(patterns) < n:
        pat = tuple(int(b) for b in (rng.random(d) < 0.6))
        if any(pat):
            patterns.append(pat)
    scores, weights, test_feature, test_score = _draw_entries(rng, patterns)
    alpha = float(rng.uniform(0.05, 0.4))
    return LpInstance(np.array(patterns, dtype=float), scores, weights, alpha, test_feature, test_score, 0.05)


def breakpoint_minimum(lp: LpInstance) -> float:
    """Exhaustive minimum of the primal objective over the breakpoint lattice
    (dimension <= 2 only), the test entry included."""
    features, scores, weights = lp.rows()
    if lp.dimension == 1:
        candidates = [np.array([s]) for s in scores]
    else:
        candidates = []
        for a, b in itertools.combinations(range(len(scores)), 2):
            M = features[[a, b]]
            if abs(np.linalg.det(M)) < 1e-12:
                continue
            candidates.append(np.linalg.solve(M, [scores[a], scores[b]]))
    return min(
        sum(w * pinball_loss(float(np.dot(f, beta)), s, lp.alpha) for f, s, w in zip(features, scores, weights))
        for beta in candidates
    )


def score_records(rows):
    """Score records as ``datagen.ingest_scores`` returns them, one per
    (client_id, predicted_label, true_label, scores) tuple."""
    spec = [("client_id", "<i8"), ("predicted_label", "<i8"), ("true_label", "<i8")]
    return np.array(rows, dtype=[*spec, ("scores", "<f8", (len(rows[0][3]),))])


def export_scores(records, path):
    """Write score records, as ``datagen.ingest_scores`` returns them, as the
    CSV it reads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["client_id", "predicted_label", "true_label"]
            + [f"score_{i}" for i in range(records["scores"].shape[1])]
        )
        for client_id, predicted, true_label, scores in records.tolist():
            writer.writerow([client_id, predicted, true_label, *map(repr, scores.tolist())])


@contextmanager
def recorded_cluster_sizes():
    """Within the block, every sketch pass appends its clusters' sample
    counts, in the order it returns them, to the list it yields."""
    passes, cluster_starts = [], tdigest._cluster_starts

    def record(r, delta, heads, ends):
        starts = cluster_starts(r, delta, heads, ends)
        passes.append(np.diff(np.append(starts, r.size)).tolist())
        return starts

    tdigest._cluster_starts = record
    try:
        yield passes
    finally:
        tdigest._cluster_starts = cluster_starts


def assert_close_to_reference(ref, means, weights=None):
    """Means within SUM_TOL of their cluster's reach, and weights (if
    given) within SUM_TOL of themselves, of the exact ``reference_clusters``
    ``ref``."""
    ref_means, ref_weights, _, reach, _ = ref
    assert np.all(np.abs(means - ref_means) <= SUM_TOL * reach)
    if weights is not None:
        assert np.all(np.abs(weights - ref_weights) <= SUM_TOL * ref_weights)
