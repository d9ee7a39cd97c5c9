"""Self-tests of the benchmark: a tiny smoke run of every workload, and the output checks.

    python3 perfbench/selftest.py

The smoke run checks that every metric BENCHMARK.json names is emitted with
its unit. The check tests feed each workload's check a deliberately corrupted
result, built here from a sound one, and expect it to be rejected.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gcfcp import conformal, federation, pinball  # noqa: E402
from workloads import CheckFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for name in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    record, _ = run.run_workload(name, seed=5, seconds=0.2, trace=trace, tiny=True)
                    self.assertTrue(record["correct"], record["errors"])
                    line = run.result_line(record)
                    json.dumps(line, allow_nan=False)
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    self.assertGreaterEqual(line["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual(set(line["metrics"]), set(want))
                    for metric, unit in want.items():
                        got = line["metrics"][metric]
                        self.assertEqual(got["unit"], unit, metric)
                        self.assertTrue(math.isfinite(got["value"]), metric)
                        if trace == 0:
                            self.assertGreater(got["value"], 0.0, metric)

    def test_times_are_rescaled_by_the_probes_around_them(self):
        record, _ = run.run_workload("cli-predict", seed=6, seconds=0.3, trace=0, tiny=True)
        self.assertEqual(record["failed"], 0)
        walls, probes = record["durations_ms"], record["probes_ms"]
        self.assertEqual(len(probes), len(walls) + 1)
        ref = [w * 1e3 * probe.REFERENCE_S / ((probes[i] + probes[i + 1]) / 2) for i, w in enumerate(walls)]
        got = record["end_to_end"]["op_ms_p50"]["value"]
        self.assertAlmostEqual(got, statistics.median(ref), delta=1e-9 * got)
        self.assertAlmostEqual(record["wall"]["op_ms_p50"], statistics.median(walls), delta=1e-9 * got)

    def test_tracer_restores_every_name(self):
        names = [
            (conformal, "threshold_search"),
            (federation, "message_from_json"),
            (pinball.AugmentedQrSolver, "solve_at"),
        ]
        before = [getattr(owner, attr) for owner, attr in names]
        tracer = tracing.Tracer()
        tracer.install()
        self.assertNotEqual(getattr(conformal, "threshold_search"), before[0])
        tracer.uninstall()
        self.assertEqual([getattr(owner, attr) for owner, attr in names], before)
        # classmethods keep binding to the class after a restore
        self.assertEqual(conformal.CalibrationData.from_coreset.__self__, conformal.CalibrationData)


class CheckTest(unittest.TestCase):
    def sound(self, workload):
        workload.setup()
        self.addCleanup(workload.close)
        out = workload.call(workload.prepare(0))
        workload.check(out)
        return out

    def test_coreset_missing_one_row_is_rejected(self):
        w = workloads.FedRound(seed=2, tiny=True)
        fed, round_, data = self.sound(w)
        coreset = replace(round_.coreset, entries=round_.coreset.entries[:-1])
        short_round = replace(round_, coreset=coreset)
        short_data = conformal.CalibrationData.from_coreset(coreset, round_.test_weight)
        with self.assertRaisesRegex(CheckFailed, "weight"):
            w.check((fed, short_round, short_data))
        short_arrays = replace(
            data, features=data.features[:-1], scores=data.scores[:-1], weights=data.weights[:-1]
        )
        with self.assertRaisesRegex(CheckFailed, "rows"):
            w.check((fed, round_, short_arrays))

    def test_miscounted_wire_bytes_are_rejected(self):
        w = workloads.FedRound(seed=2, tiny=True)
        fed, round_, data = self.sound(w)
        with self.assertRaisesRegex(CheckFailed, "wire_bytes"):
            w.check((fed, replace(round_, wire_bytes=round_.wire_bytes + 1), data))

    def test_non_finite_threshold_is_rejected(self):
        w = workloads.Table3(seed=2, tiny=True)
        report = self.sound(w)
        for bad in (math.inf, math.nan):
            summaries = dict(report.summaries)
            summaries["gcfcp_coreset"] = replace(summaries["gcfcp_coreset"], mean_set_size=bad)
            with self.assertRaisesRegex(CheckFailed, "non-finite"):
                w.check(replace(report, summaries=summaries))

    def test_coverage_outside_the_band_is_rejected(self):
        w = workloads.Table3(seed=2, tiny=True)
        self.sound(w)
        w.finish()
        w.covered[("gcfcp_coreset", 0)] = (700, 1000)
        with self.assertRaisesRegex(CheckFailed, "coverage band"):
            w.finish()

    def test_nonzero_exit_code_is_rejected(self):
        w = workloads.CliPredict(seed=2, workdir=run.OUT / "work", tiny=True)
        j, code, text = self.sound(w)
        with self.assertRaisesRegex(CheckFailed, "exit code"):
            w.check((j, 2, text))

    def test_interval_off_the_threshold_is_rejected(self):
        w = workloads.CliPredict(seed=2, workdir=run.OUT / "work", tiny=True)
        j, code, text = self.sound(w)
        prefix, _, _ = text.partition("interval=")
        with self.assertRaisesRegex(CheckFailed, "interval"):
            w.check((j, code, prefix + "interval=[0.000000, 1.000000]\n"))


if __name__ == "__main__":
    unittest.main()
