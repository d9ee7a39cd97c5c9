import dataclasses

import numpy as np
import pytest
from conftest import export_scores

from gcfcp.datagen import ScoreRecord, SynthConfig
from gcfcp.groups import GroupFamily, LabelSet, interval_family
from gcfcp.harness import (
    DegenerateGroupError,
    ExperimentConfig,
    format_report_table,
    group_coverage,
    run_experiment,
    run_trial,
    write_report_csv,
)

SMALL_SYNTH = SynthConfig(seed=0, n_per_client=(60, 40, 40, 40))

SMALL = ExperimentConfig(
    calibrators=("centralized_cp", "gcfcp_coreset"),
    trials=2,
    test_points=25,
    delta=50.0,
    synth=SMALL_SYNTH,
)


class TestGroupCoverage:
    def test_all_covered(self):
        memberships = np.array([[1, 0], [1, 1], [0, 1]])
        cov = group_coverage(np.array([True, True, True]), memberships)
        assert cov == {0: (1.0, 2), 1: (1.0, 2)}

    def test_none_covered(self):
        cov = group_coverage(np.array([False, False]), np.array([[1, 0], [1, 1]]))
        assert cov[0] == (0.0, 2)

    def test_hand_built_four_points(self):
        memberships = np.array([[1, 0], [1, 1], [0, 1], [0, 1]])
        covered = np.array([True, False, True, True])
        cov = group_coverage(covered, memberships)
        assert cov[0] == (pytest.approx(0.5), 2)
        assert cov[1] == (pytest.approx(2 / 3), 3)

    def test_absent_group_omitted(self):
        cov = group_coverage(np.array([True]), np.array([[1, 0]]))
        assert 1 not in cov

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        memberships = (rng.random((30, 3)) < 0.6).astype(int)
        memberships[memberships.sum(axis=1) == 0, 0] = 1
        covered = rng.random(30) < 0.8
        base = group_coverage(covered, memberships)
        perm = rng.permutation(30)
        shuffled = group_coverage(covered[perm], memberships[perm])
        assert base == shuffled


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            dataclasses.replace(SMALL, trials=0)
        with pytest.raises(ValueError):
            dataclasses.replace(SMALL, alpha=1.5)
        with pytest.raises(ValueError):
            dataclasses.replace(SMALL, calibrators=("nope",))
        with pytest.raises(ValueError, match="at least one"):
            dataclasses.replace(SMALL, calibrators=())


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

    def test_infinite_threshold_covers(self):
        """Split CP past its sample's support gives +inf: every point is
        covered and every set is the whole line."""
        config = dataclasses.replace(SMALL, alpha=0.005, calibrators=("centralized_cp",))
        outcome = run_trial(config, 0)["centralized_cp"]
        assert np.all(outcome.set_sizes == np.inf)
        assert outcome.covered.all()

    @pytest.mark.parametrize("serial", [True, False])
    def test_degenerate_group_names_trial(self, serial):
        family = interval_family([(0, 5), (90, 91)])
        config = dataclasses.replace(
            SMALL, family=family, trials=2, calibrators=("gcfcp_coreset",), serial=serial
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

    def test_tiny_alpha_label_set_holds_every_label(self):
        family = GroupFamily(
            groups=(LabelSet(frozenset(range(0, 4))), LabelSet(frozenset(range(2, 6)))),
            feature="predicted_label",
        )
        config = ExperimentConfig(
            calibrators=("centralized_cp", "gcfcp_coreset"), alpha=0.001, delta=50.0, family=family
        )
        records = self.make_records(np.random.default_rng(3))
        for outcome in run_trial(config, 0, records).values():
            assert np.all(outcome.set_sizes == 6.0)
            assert outcome.covered.all()

    def test_degenerate_group_names_trial(self, tmp_path):
        path = tmp_path / "scores.csv"
        export_scores(self.make_records(np.random.default_rng(2)), path)
        # no predicted label reaches the second group, so it has no mass
        family = GroupFamily(
            groups=(LabelSet(frozenset(range(6))), LabelSet(frozenset({7}))),
            feature="predicted_label",
        )
        config = ExperimentConfig(
            calibrators=("gcfcp_coreset",),
            trials=1,
            delta=50.0,
            family=family,
            ingest_path=str(path),
        )
        with pytest.raises(DegenerateGroupError) as err:
            run_experiment(config)
        assert err.value.groups == (1,)
        assert err.value.trial == 0
        assert "trial 0" in str(err.value)


def test_trial_outcomes_reproducible():
    a = run_trial(SMALL, 1)
    b = run_trial(SMALL, 1)
    for kind in SMALL.calibrators:
        assert np.array_equal(a[kind].covered, b[kind].covered)
        assert np.array_equal(a[kind].set_sizes, b[kind].set_sizes)
