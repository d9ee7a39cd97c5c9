import math

import numpy as np
import pytest
from conftest import export_scores

from gcfcp.datagen import (
    IngestError,
    LinearModel,
    ScoreRecord,
    SynthConfig,
    covariate_law,
    fit_linear,
    generate_response,
    ingest_scores,
    make_training_set,
    sample_covariates,
    sample_mixture_clients,
    score_absolute,
    substream,
)


def truncated_normal_mean(mu, sigma, lo=0.0, hi=5.0):
    from scipy.stats import norm

    a, b = (lo - mu) / sigma, (hi - mu) / sigma
    z = norm.cdf(b) - norm.cdf(a)
    return mu + sigma * (norm.pdf(a) - norm.pdf(b)) / z


class TestConfig:
    def test_table_defaults(self):
        cfg = SynthConfig()
        mu, sigma = zip(*(covariate_law(k, cfg.n_clients) for k in range(1, 5)))
        assert mu == pytest.approx((0.5, 0.5 + 4 / 3, 0.5 + 8 / 3, 4.5))
        assert sigma == pytest.approx((0.5, 0.6, 0.7, 0.8))
        assert cfg.pi == (0.25,) * 4
        assert cfg.n_per_client == (1000, 333, 333, 333)

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n_clients=3)  # n_per_client length mismatch
        with pytest.raises(ValueError):
            SynthConfig(pi=(0.5, 0.5))
        with pytest.raises(ValueError, match="at least 2"):
            SynthConfig(n_clients=1, n_per_client=(10,))


class TestCovariates:
    def test_in_domain(self):
        cfg = SynthConfig()
        for k in (1, 4):
            x = sample_covariates(cfg, k, 500)
            assert np.all((x >= 0) & (x <= 5))

    def test_client1_analytic_mean(self):
        pytest.importorskip("scipy")
        cfg = SynthConfig(seed=5)
        x = sample_covariates(cfg, 1, 100_000)
        assert x.mean() == pytest.approx(truncated_normal_mean(0.5, 0.5), abs=0.02)

    def test_determinism(self):
        cfg = SynthConfig(seed=9)
        a = sample_covariates(cfg, 2, 1000, trial=3)
        b = sample_covariates(cfg, 2, 1000, trial=3)
        assert np.array_equal(a, b)
        c = sample_covariates(cfg, 2, 1000, trial=4)
        assert not np.array_equal(a, c)

    def test_client_index_range(self):
        with pytest.raises(ValueError):
            sample_covariates(SynthConfig(), 0, 10)

    def test_client_means_increasing(self):
        cfg = SynthConfig(seed=6)
        means = [sample_covariates(cfg, k, 10_000).mean() for k in (1, 2, 3, 4)]
        assert all(b > a for a, b in zip(means, means[1:]))


class TestResponse:
    def test_conditional_mean(self):
        rng = substream(0, "response", 99, 1)
        x = np.full(100_000, math.pi / 2)
        y = generate_response(x, 1, rng)
        assert y.mean() == pytest.approx(1.1, abs=0.03)

    def test_outlier_frequency(self):
        # isolate the 1% indicator by looking at huge residuals from the mean
        rng = substream(0, "response", 98, 1)
        x = np.full(100_000, 1.0)
        y = generate_response(x, 1, rng)
        frac = np.mean(np.abs(y - y.mean()) > 10.0)
        assert frac == pytest.approx(0.01, abs=0.004)

    def test_scalar_input(self):
        rng = substream(0, "response", 0, 1)
        y = generate_response(2.0, 1, rng)
        assert isinstance(y, float)


class TestLinearModel:
    def test_exact_line(self):
        x = np.linspace(0, 5, 20)
        model = fit_linear(np.column_stack([x, 2 * x + 1]))
        assert model.slope == pytest.approx(2.0, abs=1e-10)
        assert model.intercept == pytest.approx(1.0, abs=1e-10)

    def test_constant_response(self):
        x = np.array([0.0, 1.0, 2.0])
        model = fit_linear(np.column_stack([x, np.full(3, 7.0)]))
        assert model.slope == pytest.approx(0.0, abs=1e-10)
        assert model.intercept == pytest.approx(7.0, abs=1e-10)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 5, 200)
        y = 1.3 * x - 0.4 + rng.normal(0, 0.3, 200)
        model = fit_linear(np.column_stack([x, y]))
        sxx = np.sum((x - x.mean()) ** 2)
        slope = np.sum((x - x.mean()) * (y - y.mean())) / sxx
        intercept = y.mean() - slope * x.mean()
        assert model.slope == pytest.approx(slope, abs=1e-9)
        assert model.intercept == pytest.approx(intercept, abs=1e-9)
        resid = y - model.predict(x)
        assert abs(resid.sum()) <= 1e-6 * np.abs(y).sum()
        assert abs((x * resid).sum()) <= 1e-6 * np.abs(x * y).sum()

    def test_singular_design(self):
        with pytest.raises(ValueError):
            fit_linear([(1.0, 2.0), (1.0, 3.0)])

    def test_score_absolute(self):
        ident = LinearModel(1.0, 0.0)
        assert score_absolute(ident, 1.0, 1.0) == 0.0
        assert score_absolute(ident, 1.0, 3.0) == 2.0
        assert score_absolute(LinearModel(2.0, 1.0), 0.5, 0.0) == 2.0


class TestTrainingSet:
    def test_shape_and_determinism(self):
        cfg = SynthConfig(seed=3)
        a = make_training_set(cfg, trial=1)
        b = make_training_set(cfg, trial=1)
        assert a.shape == (2000, 2)
        assert np.array_equal(a, b)

    def test_mixture_clients(self):
        cfg = SynthConfig(seed=4)
        clients = sample_mixture_clients(cfg, 10_000, trial=0)
        assert set(np.unique(clients)) <= {1, 2, 3, 4}
        counts = np.bincount(clients, minlength=5)[1:]
        assert np.all(np.abs(counts / 10_000 - 0.25) < 0.02)


class TestIngestion:
    def write(self, tmp_path, rows, header="client_id,predicted_label,true_label,score_0,score_1,score_2"):
        path = tmp_path / "scores.csv"
        path.write_text("\n".join([header] + rows) + "\n")
        return path

    def test_well_formed(self, tmp_path):
        path = self.write(
            tmp_path,
            ["1,0,1,0.2,0.5,0.9", "2,2,2,0.9,0.8,0.1", "1,1,0,0.4,0.3,0.6"],
        )
        records = ingest_scores(path)
        assert len(records) == 3
        assert records[0].true_score == 0.5
        assert records[1].label_scores == (0.9, 0.8, 0.1)

    def test_score_out_of_range(self, tmp_path):
        path = self.write(tmp_path, ["1,0,1,0.2,1.5,0.9"])
        with pytest.raises(IngestError, match="row 2"):
            ingest_scores(path)

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, ["1,0,1,0.2"], header="id,label,score_0")
        with pytest.raises(IngestError, match="header"):
            ingest_scores(path)

    def test_bad_row_width(self, tmp_path):
        path = self.write(tmp_path, ["1,0,1,0.2,0.5"])
        with pytest.raises(IngestError, match="row 2"):
            ingest_scores(path)

    def test_label_out_of_range(self, tmp_path):
        path = self.write(tmp_path, ["1,0,7,0.2,0.5,0.9"])
        with pytest.raises(IngestError, match="row 2"):
            ingest_scores(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(IngestError):
            ingest_scores(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        records = [
            ScoreRecord(
                client_id=int(rng.integers(1, 5)),
                predicted_label=int(rng.integers(0, 4)),
                true_label=int(rng.integers(0, 4)),
                label_scores=tuple(float(v) for v in rng.random(4)),
            )
            for _ in range(25)
        ]
        path = tmp_path / "rt.csv"
        export_scores(records, path)
        assert ingest_scores(path) == records


def test_substream_independence():
    a = substream(1, "train", 0).random(5)
    b = substream(1, "covariates", 0).random(5)
    c = substream(2, "train", 0).random(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(KeyError):
        substream(1, "bogus")
