"""How the threshold search's LP scales with the calibration set.

    python scripts/lp_scaling.py

Takes the Table-3 trial-0 draw (synthetic seed 0, clients of 1 000, 333, 333
and 333 rows, alpha 0.1, delta 250, the four default intervals) with every
client's rows multiplied by 1, 10 and 50: n = 1 999, 19 990 and 99 950
scores. For the centralized path (the pooled scores) and the coreset path
(one federation round), it prints one JSON line per scale with

    rows          the rows of the calibration set
    cold_ms       a cold ``threshold_search``, which makes its own start: the
                  median over the five patterns, best of 3 repeats
    pattern_ms    a calibrator's search for a pattern after its first search:
                  the median over the other four patterns, best of 3 repeats
    first_steps   the steps (crossover steps, pivots and bound flips) of the
                  cold calibration-only solve

Run from the root of a checkout; the package is imported from its ``src``.
One BLAS thread, as in the benchmark.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gcfcp import harness  # noqa: E402
from gcfcp.conformal import CalibrationData, ConditionalCalibrator, threshold_search  # noqa: E402
from gcfcp.datagen import SynthConfig  # noqa: E402
from gcfcp.federation import run_round  # noqa: E402
from gcfcp.pinball import AugmentedQrSolver  # noqa: E402

ALPHA, DELTA = 0.1, 250.0
SIZES = (1000, 333, 333, 333)
SCALES = (1, 10, 50)
REPEATS = 3
PATTERNS = ((1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1))


def calibration_sets(scale: int) -> dict[str, CalibrationData]:
    config = harness.ExperimentConfig(synth=SynthConfig(seed=0, n_per_client=tuple(scale * n for n in SIZES)))
    datasets = harness._synth_trial_data(replace(config, test_points=5), trial=0).datasets
    round_ = run_round(datasets, config.family, DELTA)
    return {
        "centralized": CalibrationData.from_datasets(datasets, config.family),
        "coreset": CalibrationData.from_coreset(round_.coreset, round_.test_weight),
    }


def measure(data: CalibrationData) -> dict:
    cold, warm = [], []
    for _ in range(REPEATS):
        times = []
        for pattern in PATTERNS:
            t0 = time.perf_counter()
            threshold_search(data, pattern, ALPHA)
            times.append(time.perf_counter() - t0)
        cold.append(statistics.median(times))
        calibrator = ConditionalCalibrator(data, ALPHA)
        for pattern in PATTERNS:
            calibrator.threshold(pattern)
        warm.append(statistics.median(calibrator.search_times[1:]))
    d = data.features.shape[1]
    first = AugmentedQrSolver(data.features, data.scores, data.weights, ALPHA, (0,) * d, 0.0).solve_at(0.0)
    return {
        "rows": int(data.scores.size),
        "cold_ms": round(1e3 * min(cold), 3),
        "pattern_ms": round(1e3 * min(warm), 3),
        "first_steps": first.iterations,
    }


def main() -> None:
    for scale in SCALES:
        for path, data in calibration_sets(scale).items():
            print(json.dumps({"scale": scale, "path": path, **measure(data)}), flush=True)


if __name__ == "__main__":
    main()
