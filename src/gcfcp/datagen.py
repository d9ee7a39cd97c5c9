"""Synthetic regression benchmark, model fitting, and score ingestion.

Client covariates are truncated normals on [0, 5] with per-client location
and spread; responses mix a Poisson term driven by sin^2(x), covariate-scaled
noise, rare large outliers, and client-indexed Gaussian noise. A centralized
linear model is fit on a separate training draw and scored by absolute
residual. Classification scores computed elsewhere enter through a CSV
ingestion path as one record array. ``read_csv`` reads both input files,
the dataset CSV and the score CSV.

All randomness flows through named substreams of a single master seed so
per-client and per-trial generation is reproducible regardless of ordering.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

DOMAIN = (0.0, 5.0)

# substream purpose codes (part of the seeding contract, do not renumber)
_PURPOSE = {"train": 1, "covariates": 2, "response": 3, "test": 4, "mixture": 5}


class IngestError(ValueError):
    """Malformed input file: a dataset CSV or a score CSV."""


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


def csv_rows(fh):
    """The rows of the CSV file ``fh``; IngestError on text the csv module
    cannot read, such as a field longer than its field size limit."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise IngestError(f"line {reader.line_num}: {exc}") from exc


def _parse_rows(lines: list[str], spec: list, width: int) -> np.ndarray:
    """One ``spec`` record of ``width`` fields per line, read by numpy's C
    parser; ValueError unless every line reads as one row."""
    if "" in lines:  # numpy would skip a blank line, and warn on no data at all
        raise ValueError(f"expected {width} fields")
    rows = np.loadtxt(lines, dtype=spec, delimiter=",", comments=None, quotechar='"', ndmin=1)
    if len(rows) != len(lines):  # a quoted field ran on into the next line
        raise ValueError("a quoted field runs on past its line")
    return rows


def _row_error(lines: list[str], spec: list, width: int, error: ValueError) -> IngestError:
    """The IngestError naming the first line of the body ``lines`` that does
    not read as one row, given ``error``, the whole body's.

    Bisection: parse the first half of a failing range, descend into it if
    it fails, else into the second half; O(log n) parses, about 2n lines in
    all with the whole body's. Each parse ends in a row of zeros, which a
    quote left open at the end of the range swallows, as the next line
    would."""
    close = ",".join(["0"] * width)
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse_rows([*lines[lo:mid], close], spec, width)
        except ValueError:
            hi = mid
        else:
            lo = mid
    try:
        _parse_rows([lines[lo], close], spec, width)
    except ValueError as exc:
        error = exc
    # numpy's row numbers count from 0 or 1 and skip blank lines: cut them
    return IngestError(f"row {lo + 2}: {str(error).rsplit(' at row ', 1)[0]}")


def read_csv(path, spec_of_header: Callable[[list[str] | None], list]) -> np.ndarray:
    """The body of the UTF-8 CSV file ``path`` as one record array.

    The csv module reads the header (None for an empty file), which
    ``spec_of_header`` turns into a dtype spec or rejects with IngestError:
    a list, made a dtype per call, as a structured np.dtype built at import
    raised the peak memory of processes that read no CSV. numpy's C parser
    reads the body in one call, each line one record; an error names row N,
    the file's N-th line (header = 1). A body without lines has no records.
    """
    try:
        with open(path, encoding="utf-8") as fh:  # universal newlines: each line ends in "\n"
            header = next(csv_rows(fh), None)
            spec = spec_of_header(header)
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise IngestError(f"not UTF-8 text: {exc}") from exc
    if lines[-1] == "":  # the file's final newline
        lines.pop()
    if not lines:
        return np.zeros(0, dtype=spec)
    try:
        return _parse_rows(lines, spec, len(header))
    except ValueError as exc:
        raise _row_error(lines, spec, len(header), exc) from exc


def _score_spec(header: list[str] | None) -> list:
    """The score CSV's records: three int64 columns, then its C scores as
    one float64 field of shape (C,)."""
    if header is None:
        raise IngestError("empty file")
    fixed = ["client_id", "predicted_label", "true_label"]
    if header[: len(fixed)] != fixed:
        raise IngestError(f"bad header {header!r}")
    score_cols = header[len(fixed) :]
    if score_cols != [f"score_{i}" for i in range(len(score_cols))] or not score_cols:
        raise IngestError(f"bad score columns {score_cols!r}")
    return [*((name, "<i8") for name in fixed), ("scores", "<f8", (len(score_cols),))]


def ingest_scores(path) -> np.ndarray:
    """Read precomputed per-label conformity scores from CSV.

    Header: client_id,predicted_label,true_label,score_0,...,score_{C-1};
    both labels must lie in [0, C) and each score in [0, 1] up to 1e-6
    slack. Returns one record per row, read by ``read_csv``: int64
    ``client_id``, ``predicted_label`` and ``true_label``, and float64
    ``scores`` of shape (C,). A row that does not read as numbers is named
    first; else an error names the first row out of range, its labels
    checked before its scores.
    """
    records = read_csv(path, _score_spec)
    scores = records["scores"]
    labels = np.column_stack([records["predicted_label"], records["true_label"]])
    bad_label = ~np.all((labels >= 0) & (labels < scores.shape[1]), axis=1)
    bad_score = ~((scores >= -1e-6) & (scores <= 1.0 + 1e-6))  # NaN too
    bad = bad_label | bad_score.any(axis=1)
    if bad.any():
        row = int(bad.argmax())
        if bad_label[row]:
            raise IngestError(f"row {row + 2}: label out of range")
        raise IngestError(f"row {row + 2}: score {float(scores[row][bad_score[row]][0])} outside [0, 1]")
    return records
