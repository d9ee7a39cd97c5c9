"""Synthetic regression benchmark, model fitting, and score ingestion.

Client covariates are truncated normals on [0, 5] with per-client location
and spread; responses mix a Poisson term driven by sin^2(x), covariate-scaled
noise, rare large outliers, and client-indexed Gaussian noise. A centralized
linear model is fit on a separate training draw and scored by absolute
residual. Classification scores computed elsewhere enter through a CSV
ingestion path.

All randomness flows through named substreams of a single master seed so
per-client and per-trial generation is reproducible regardless of ordering.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DOMAIN = (0.0, 5.0)

# substream purpose codes (part of the seeding contract, do not renumber)
_PURPOSE = {"train": 1, "covariates": 2, "response": 3, "test": 4, "mixture": 5}


class IngestError(ValueError):
    """Malformed score-ingestion file."""


# the training draw the linear model is fit on
TRAIN_SIZE = 2000


def covariate_law(client: int, n_clients: int) -> tuple[float, float]:
    """(mu, sigma) of a 1-based client's covariates: locations evenly spaced
    over [0.5, 4.5] and spreads 0.5, 0.6, 0.7, ... in client order."""
    return 0.5 + 4.0 * (client - 1) / (n_clients - 1), 0.5 + 0.1 * (client - 1)


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_clients: int = 4
    n_per_client: tuple[int, ...] = (1000, 333, 333, 333)
    pi: tuple[float, ...] = ()

    def __post_init__(self):
        k = self.n_clients
        if k < 2:
            raise ValueError(f"n_clients {k!r} must be at least 2")
        if not self.pi:
            object.__setattr__(self, "pi", tuple(1.0 / k for _ in range(k)))
        if len(self.n_per_client) != k or len(self.pi) != k:
            raise ValueError(f"n_per_client and pi must each hold n_clients = {k} values")


def substream(seed: int, purpose: str, *keys: int) -> np.random.Generator:
    """Independent generator for (seed, purpose, keys); stable across runs."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), _PURPOSE[purpose], *map(int, keys)])
    )


def _truncated_normal(
    rng: np.random.Generator, mu: float, sigma: float, count: int
) -> np.ndarray:
    """Rejection sampling of N(mu, sigma^2) conditioned on the domain."""
    out = np.empty(0)
    while out.size < count:
        draw = rng.normal(mu, sigma, size=max(count, 64))
        out = np.concatenate([out, draw[(draw >= DOMAIN[0]) & (draw <= DOMAIN[1])]])
    return out[:count]


def sample_covariates(
    config: SynthConfig, client: int, count: int, trial: int = 0
) -> np.ndarray:
    """i.i.d. truncated-normal draws for a 1-based client index."""
    if not 1 <= client <= config.n_clients:
        raise ValueError(f"client index {client} out of range")
    rng = substream(config.seed, "covariates", trial, client)
    return _truncated_normal(rng, *covariate_law(client, config.n_clients), count)


def generate_response(x, client: int, rng: np.random.Generator):
    """Poisson signal plus covariate-scaled, outlier, and client noise terms."""
    x = np.asarray(x, dtype=float)
    rate = np.sin(x) ** 2 + 0.1
    y = np.asarray(rng.poisson(rate), dtype=float)
    y += 0.03 * x * rng.normal(size=x.shape)
    y += 25.0 * (rng.uniform(size=x.shape) < 0.01) * rng.normal(size=x.shape)
    y += rng.normal(0.0, 0.1 * client, size=x.shape)
    return y if y.shape else float(y)


@dataclass(frozen=True)
class LinearModel:
    slope: float
    intercept: float

    def predict(self, x):
        return self.slope * np.asarray(x, dtype=float) + self.intercept


def fit_linear(train: Sequence[tuple[float, float]]) -> LinearModel:
    """Ordinary least squares on (x, y) pairs."""
    arr = np.asarray(train, dtype=float)
    x, y = arr[:, 0], arr[:, 1]
    if np.ptp(x) == 0.0:
        raise ValueError("all covariates identical: singular design")
    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    return LinearModel(slope=float(slope), intercept=float(intercept))


def score_absolute(model: LinearModel, x, y):
    return np.abs(np.asarray(y, dtype=float) - model.predict(x))


def synth_clients(
    config: SynthConfig, trial: int = 0
) -> tuple[LinearModel, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """The trial's fitted model and, for each client in index order, its
    covariates, responses and absolute-residual scores."""
    model = fit_linear(make_training_set(config, trial))
    clients = []
    for k, count in enumerate(config.n_per_client, start=1):
        x = sample_covariates(config, k, count, trial)
        y = generate_response(x, k, substream(config.seed, "response", trial, k))
        clients.append((x, y, score_absolute(model, x, y)))
    return model, clients


def sample_mixture_clients(config: SynthConfig, count: int, trial: int) -> np.ndarray:
    """1-based client index per point, drawn from the mixture weights."""
    rng = substream(config.seed, "mixture", trial)
    return rng.choice(config.n_clients, size=count, p=np.asarray(config.pi)) + 1


def draw_points(
    config: SynthConfig, clients: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Covariates and responses of points with the given 1-based client
    indices, drawn from ``rng`` one client at a time in index order."""
    xs = np.empty(clients.size)
    ys = np.empty(clients.size)
    for k in range(1, config.n_clients + 1):
        mask = clients == k
        xs[mask] = _truncated_normal(rng, *covariate_law(k, config.n_clients), int(mask.sum()))
        ys[mask] = generate_response(xs[mask], k, rng)
    return xs, ys


def make_training_set(config: SynthConfig, trial: int = 0) -> np.ndarray:
    """(x, y) pairs from the uniform client mixture; a disjoint substream."""
    rng = substream(config.seed, "train", trial)
    clients = rng.integers(1, config.n_clients + 1, size=TRAIN_SIZE)
    return np.column_stack(draw_points(config, clients, rng))


@dataclass(frozen=True)
class ScoreRecord:
    client_id: int
    predicted_label: int
    true_label: int
    label_scores: tuple[float, ...]

    @property
    def true_score(self) -> float:
        return self.label_scores[self.true_label]


def ingest_scores(path) -> list[ScoreRecord]:
    """Read precomputed per-label conformity scores from CSV.

    Header: client_id,predicted_label,true_label,score_0,...,score_{C-1};
    each score must lie in [0, 1] up to 1e-6 slack.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError("empty file") from None
        fixed = ["client_id", "predicted_label", "true_label"]
        if header[: len(fixed)] != fixed:
            raise IngestError(f"bad header {header!r}")
        score_cols = header[len(fixed) :]
        if score_cols != [f"score_{i}" for i in range(len(score_cols))] or not score_cols:
            raise IngestError(f"bad score columns {score_cols!r}")
        n_labels = len(score_cols)
        records = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise IngestError(f"row {lineno}: expected {len(header)} fields")
            try:
                client_id = int(row[0])
                predicted = int(row[1])
                true_label = int(row[2])
                scores = tuple(float(v) for v in row[3:])
            except ValueError as exc:
                raise IngestError(f"row {lineno}: {exc}") from exc
            if not 0 <= true_label < n_labels or not 0 <= predicted < n_labels:
                raise IngestError(f"row {lineno}: label out of range")
            for s in scores:
                if not -1e-6 <= s <= 1.0 + 1e-6:
                    raise IngestError(f"row {lineno}: score {s} outside [0, 1]")
            records.append(ScoreRecord(client_id, predicted, true_label, scores))
    return records

