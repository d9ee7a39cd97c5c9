"""A fixed workload that times how fast the host runs right now.

The host's CPU speed drifts by up to 1.75x between and within runs, and
process CPU time drifts just as much as wall time. The benchmark therefore
runs this probe between operations and rescales each operation's time to a
host on which the probe takes ``REFERENCE_S``. The probe mixes the kinds of
work gcfcp does: dict and tuple churn like atom stratification, JSON encoding
and decoding of float pairs like the wire codec, small dense solves like the
simplex, and vector arithmetic. It uses no gcfcp code, so a change to the
program cannot move it.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# The probe's time on the reference host at its usual speed; it only sets the scale.
REFERENCE_S = 0.010

_MATRIX = np.random.default_rng(0).random((4, 4)) + 4.0 * np.eye(4)
_VECTOR = np.arange(5000.0)
_PAIRS = [[i * 0.37, i * 1e-4] for i in range(1500)]


def probe() -> float:
    """Seconds taken by the fixed workload."""
    t = time.perf_counter()
    groups: dict[tuple[int, int], list[int]] = {}
    for i in range(15000):
        groups.setdefault((i % 97, i % 13), []).append(i)
    json.loads(json.dumps(_PAIRS))
    for _ in range(150):
        np.linalg.solve(_MATRIX, _MATRIX[0])
    for _ in range(150):
        (_VECTOR * 2.0 - _VECTOR).sum()
    return time.perf_counter() - t


def to_reference(seconds: float, probes: list[float]) -> float:
    """``seconds`` measured while the probe took ``probes``, rescaled to reference speed."""
    return seconds * REFERENCE_S / statistics.median(probes)
