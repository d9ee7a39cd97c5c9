import dataclasses

import numpy as np
import pytest

from gcfcp.conformal import PredictionSet
from gcfcp.datagen import ScoreRecord, SynthConfig, export_scores
from gcfcp.harness import (
    DegenerateGroupError,
    ExperimentConfig,
    bench_speedup,
    coverage_estimate,
    format_report_table,
    run_experiment,
    run_synth_trial,
    write_report_csv,
)
from gcfcp.groups import interval_family

SMALL_SYNTH = SynthConfig(seed=0, n_per_client=(60, 40, 40, 40))

SMALL = ExperimentConfig(
    calibrators=("centralized_cp", "gcfcp_coreset"),
    trials=2,
    test_points=25,
    delta=50.0,
    synth=SMALL_SYNTH,
)


def interval(center, radius):
    return PredictionSet(kind="interval", threshold=radius, center=center, radius=radius)


class TestCoverageEstimate:
    def test_all_covered(self):
        sets = [interval(0.0, 1.0)] * 3
        memberships = np.array([[1, 0], [1, 1], [0, 1]])
        cov = coverage_estimate(sets, [0.0, 0.5, -0.5], memberships)
        assert cov == {0: (1.0, 2), 1: (1.0, 2)}

    def test_none_covered(self):
        sets = [interval(0.0, 1.0)] * 2
        cov = coverage_estimate(sets, [5.0, -5.0], np.array([[1, 0], [1, 1]]))
        assert cov[0] == (0.0, 2)

    def test_hand_built_four_points(self):
        memberships = np.array([[1, 0], [1, 1], [0, 1], [0, 1]])
        covered = [True, False, True, True]
        sets = [interval(0.0, 1.0 if c else 0.0) for c in covered]
        y = [0.5 if c else 99.0 for c in covered]
        cov = coverage_estimate(sets, y, memberships)
        assert cov[0] == (pytest.approx(0.5), 2)
        assert cov[1] == (pytest.approx(2 / 3), 3)

    def test_absent_group_omitted(self):
        cov = coverage_estimate([interval(0.0, 1.0)], [0.0], np.array([[1, 0]]))
        assert 1 not in cov

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        memberships = (rng.random((30, 3)) < 0.6).astype(int)
        memberships[memberships.sum(axis=1) == 0, 0] = 1
        covered = rng.random(30) < 0.8
        sets = [interval(0.0, 1.0 if c else 0.0) for c in covered]
        y = [0.5 if c else 9.0 for c in covered]
        base = coverage_estimate(sets, y, memberships)
        perm = rng.permutation(30)
        shuffled = coverage_estimate(
            [sets[i] for i in perm], [y[i] for i in perm], memberships[perm]
        )
        assert base == shuffled


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            dataclasses.replace(SMALL, trials=0)
        with pytest.raises(ValueError):
            dataclasses.replace(SMALL, alpha=1.5)
        with pytest.raises(ValueError):
            dataclasses.replace(SMALL, calibrators=("nope",))


class TestRunExperiment:
    def test_zero_test_points(self):
        for test_points in (0, -1):
            with pytest.raises(ValueError, match="test_points"):
                dataclasses.replace(SMALL, trials=1, test_points=test_points)

    def test_smoke_and_report_shape(self):
        report = run_experiment(SMALL)
        assert set(report.summaries) == {"centralized_cp", "gcfcp_coreset"}
        s = report.summaries["gcfcp_coreset"]
        assert s.n_points == 50
        assert 0.0 <= s.marginal_coverage <= 1.0
        assert s.wire_bytes > 0
        assert s.mean_search_time > 0
        for cov, se, n in s.group_coverage.values():
            assert 0.0 <= cov <= 1.0
            assert se == pytest.approx(np.sqrt(cov * (1 - cov) / n))
        table = format_report_table(report)
        assert "gcfcp_coreset" in table and "marginal" in table

    def test_serial_parallel_identical(self):
        config = dataclasses.replace(SMALL, trials=3)
        serial = run_experiment(dataclasses.replace(config, serial=True))
        parallel = run_experiment(dataclasses.replace(config, serial=False))
        for kind in config.calibrators:
            a, b = serial.summaries[kind], parallel.summaries[kind]
            assert a.marginal_coverage == b.marginal_coverage
            assert a.group_coverage == b.group_coverage
            assert a.mean_set_size == b.mean_set_size

    def test_csv_deterministic(self, tmp_path):
        import csv as csv_mod

        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(run_experiment(SMALL), p1)
        write_report_csv(run_experiment(SMALL), p2)

        def rows_without_timing(path):
            with open(path, newline="") as fh:
                reader = csv_mod.reader(fh)
                header = next(reader)
                drop = header.index("mean_search_time_s")
                return [[v for i, v in enumerate(r) if i != drop] for r in reader]

        # every statistical column is byte-identical; only wall-clock varies
        assert rows_without_timing(p1) == rows_without_timing(p2)
        assert b"marginal" in p1.read_bytes()

    def test_degenerate_group_names_trial(self):
        family = interval_family([(0, 5), (90, 91)])
        config = dataclasses.replace(
            SMALL, family=family, trials=1, calibrators=("gcfcp_coreset",)
        )
        # test covariates never reach [90, 91] either; membership stays valid
        with pytest.raises(DegenerateGroupError) as err:
            run_experiment(config)
        assert err.value.groups == (1,)
        assert err.value.trial == 0
        assert "trial 0" in str(err.value)


class TestIngestExperiment:
    def make_records(self, rng, count=160):
        records = []
        for _ in range(count):
            true = int(rng.integers(0, 6))
            scores = rng.uniform(0.2, 1.0, 6)
            scores[true] = rng.uniform(0.0, 0.6)
            pred = int(np.argmin(scores))
            records.append(
                ScoreRecord(int(rng.integers(1, 4)), pred, true, tuple(scores))
            )
        return records

    def test_label_set_pipeline(self, tmp_path):
        from gcfcp.groups import GroupFamily, LabelSet

        rng = np.random.default_rng(1)
        path = tmp_path / "scores.csv"
        export_scores(self.make_records(rng), path)
        family = GroupFamily(
            groups=(
                LabelSet(frozenset(range(0, 4))),
                LabelSet(frozenset(range(2, 6))),
            ),
            feature="predicted_label",
        )
        config = ExperimentConfig(
            calibrators=("centralized_cp", "gcfcp_coreset"),
            trials=2,
            test_points=1,  # ignored on the ingestion path, but must be valid
            delta=50.0,
            family=family,
            ingest_path=str(path),
        )
        report = run_experiment(config)
        s = report.summaries["gcfcp_coreset"]
        assert s.n_points == 160  # half of each shuffled split, two trials
        assert 0.0 <= s.marginal_coverage <= 1.0
        assert 0.0 <= s.mean_set_size <= 6.0


class TestBench:
    def test_lossless_ratio_near_one(self):
        config = ExperimentConfig(
            calibrators=("gcfcp_centralized", "gcfcp_coreset"),
            delta=4000.0,  # far above n: the sketch keeps every sample
            synth=SynthConfig(seed=1, n_per_client=(80, 80, 80, 80)),
        )
        result = bench_speedup(config, n_test=20, warmup=3)
        assert result.ratios.size >= 20
        assert 0.5 <= result.median <= 2.0
        assert result.min <= result.median <= result.max


def test_trial_outcomes_reproducible():
    a = run_synth_trial(SMALL, 1)
    b = run_synth_trial(SMALL, 1)
    for kind in SMALL.calibrators:
        assert np.array_equal(a[kind].covered, b[kind].covered)
        assert np.array_equal(a[kind].set_sizes, b[kind].set_sizes)
