"""Smoke tests of the scripts under ``scripts/``: each runs against the
library as it is, on its smallest input, with no timing pinned."""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(monkeypatch, name):
    """The script ``name`` imported by path, its changes to the environment
    and to ``sys.path`` undone after the test."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(sys, "path", sys.path[:])
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lp_scaling_measures_both_paths(monkeypatch):
    lp_scaling = load_script(monkeypatch, "lp_scaling")
    sets = lp_scaling.calibration_sets(1)
    assert sorted(sets) == ["centralized", "coreset"]
    for data in sets.values():
        line = lp_scaling.measure(data)
        assert sorted(line) == ["cold_ms", "first_steps", "pattern_ms", "rows"]
        assert line["rows"] == data.scores.size
        assert line["cold_ms"] > 0.0 and line["pattern_ms"] > 0.0
        assert isinstance(line["first_steps"], int) and line["first_steps"] >= 0
        json.dumps(line)  # printed as one JSON line
