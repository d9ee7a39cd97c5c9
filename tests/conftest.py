"""Shared pytest plumbing and test-data builders.

The acceptance tests append one line per criterion to ACCEPTANCE_RESULTS;
the terminal-summary hook prints them after the run so every pass/fail
verdict is visible even when the tests succeed.
"""

import itertools

import numpy as np

from gcfcp.groups import GroupFamily, LabelSet, membership_matrix

ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


def atom_features(rng, d, n, label_sets):
    """(n, d) binary features on a few shared patterns (atoms): drawn from a
    random pool of patterns, or the memberships of random labels in d random
    label sets that together cover every label."""
    if label_sets:
        labels = int(rng.integers(d + 1, 9))
        groups = [set(rng.choice(labels, int(rng.integers(1, labels)), replace=False).tolist()) for _ in range(d)]
        groups[0] |= set(range(labels)) - set().union(*groups)
        family = GroupFamily(tuple(LabelSet(frozenset(g)) for g in groups), feature="predicted_label")
        return membership_matrix(rng.integers(0, labels, n), family).astype(float)
    patterns = np.array([p for p in itertools.product((0, 1), repeat=d) if any(p)], dtype=float)
    pool = patterns[rng.choice(len(patterns), int(rng.integers(1, len(patterns) + 1)), replace=False)]
    return pool[rng.integers(0, len(pool), n)]
