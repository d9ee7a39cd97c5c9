"""The package's public surface and the names the benchmark reaches into.

``perfbench/`` imports gcfcp modules and wraps functions by name (for
example ``cli.membership_vector``, ``tdigest.build_digest_arrays``,
``AugmentedQrSolver.solve_at``) and slices ``Coreset.entries``. Its self-test
runs every workload briefly, so a rename or removal of one of those names
fails here rather than in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

import gcfcp

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    assert len(set(gcfcp.__all__)) == len(gcfcp.__all__)
    missing = [name for name in gcfcp.__all__ if getattr(gcfcp, name, None) is None]
    assert missing == []


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
