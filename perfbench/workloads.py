"""The benchmark's three workloads against the gcfcp package.

Each workload derives all of its inputs from the seed in ``setup`` (which also
runs one small warm-up operation), turns operation ``i`` into a program input
with ``prepare``, calls the program once with ``call`` (the only timed part),
and checks the output with ``check``. ``finish`` runs the checks that need the
whole run, and ``wire_bytes`` reads the bytes one operation put on the wire.

The workloads keep the two dominant costs apart: ``table3`` is dominated by
the augmented pinball LP, ``fed-round`` by the sketch-and-wire round with no
LP at all, and ``cli-predict`` by fixed per-call costs plus one cold search.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from gcfcp import cli, datagen, federation, harness
from gcfcp.conformal import CalibrationData
from gcfcp.datagen import SynthConfig

ALPHA = 0.1
DELTA = 250.0
# The default CLI and Table-3 family, restated so the pattern check does not
# trust the program's own membership code.
INTERVALS = ((0.0, 2.0), (1.0, 3.0), (2.0, 4.0), (3.0, 5.0))
# Coverage band half-width: Z binomial standard errors plus a fixed slack for
# the per-trial calibration draw and the sketch error (sin(pi/250) ~ 0.013).
BAND_Z = 4.0
BAND_SLACK = 0.02


class CheckFailed(Exception):
    """An operation's output, or the run as a whole, failed a correctness check."""


class Workload:
    """Defaults for workloads without run-level checks or resources to release."""

    def finish(self) -> None:
        pass

    def close(self) -> None:
        pass


def expected_pattern(x: float) -> str:
    return "".join("1" if lo <= x <= hi else "0" for lo, hi in INTERVALS)


class Table3(Workload):
    """One trial of the acceptance Table-3 coverage study per operation."""

    name = "table3"
    calibrators = ("centralized_cp", "fcp_marginal", "gcfcp_centralized", "gcfcp_coreset")
    banded = ("gcfcp_centralized", "gcfcp_coreset")

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        sizes = (60, 20, 20, 20) if tiny else (1000, 333, 333, 333)
        self.config = harness.ExperimentConfig(
            calibrators=self.calibrators,
            alpha=ALPHA,
            delta=DELTA,
            trials=1,
            test_points=10 if tiny else 200,
            family=harness.DEFAULT_FAMILY,
            synth=SynthConfig(n_per_client=sizes),
            serial=True,
        )

    def setup(self) -> None:
        # One synthetic-data seed per trial; cycled if a run outlasts the list.
        self.trial_seeds = [
            int(s) for s in np.random.SeedSequence(self.seed).generate_state(4096)
        ]
        self.covered = {}
        warm = replace(
            self.config,
            test_points=5,
            synth=SynthConfig(seed=self.seed, n_per_client=(60, 20, 20, 20)),
        )
        harness.run_experiment(warm)

    def prepare(self, i: int):
        seed = self.trial_seeds[i % len(self.trial_seeds)]
        return replace(self.config, synth=replace(self.config.synth, seed=seed))

    def call(self, config):
        return harness.run_experiment(config)

    def check(self, report) -> None:
        for kind in self.calibrators:
            s = report.summaries[kind]
            # the mean of 2*S* over the trial is finite iff every S* is
            if not math.isfinite(s.mean_set_size):
                raise CheckFailed(f"{kind}: non-finite S* (mean set size {s.mean_set_size})")
            if s.n_points != self.config.test_points:
                raise CheckFailed(f"{kind}: {s.n_points} test points scored")
        for kind in self.banded:
            for g, (cov, _, n) in report.summaries[kind].group_coverage.items():
                hit, total = self.covered.get((kind, g), (0, 0))
                self.covered[(kind, g)] = (hit + round(cov * n), total + n)

    def finish(self) -> None:
        target = 1.0 - ALPHA
        bad = []
        for (kind, g), (hit, n) in sorted(self.covered.items()):
            half = BAND_Z * math.sqrt(target * ALPHA / n) + BAND_SLACK
            if abs(hit / n - target) > half:
                bad.append(f"{kind} G{g + 1} {hit}/{n} outside {target}+-{half:.4f}")
        if bad:
            raise CheckFailed("coverage band: " + "; ".join(bad))

    def wire_bytes(self, report) -> int:
        return int(sum(s.wire_bytes for s in report.summaries.values()))


@dataclass(frozen=True)
class Federation:
    datasets: tuple
    total_weight: float  # sum_k pi_k n_k / (n_k + 1)
    test_weight: float  # sum_k pi_k / (n_k + 1)


def make_federation(seed: int, sizes: tuple[int, ...], trial: int) -> Federation:
    """Skewed clients from the synthetic generator, mixture weights pi_k = n_k / N."""
    n_total = sum(sizes)
    cfg = SynthConfig(
        seed=seed,
        n_clients=len(sizes),
        n_per_client=sizes,
        pi=tuple(n / n_total for n in sizes),
    )
    model = datagen.fit_linear(datagen.make_training_set(cfg, trial))
    datasets = []
    for k, n in enumerate(sizes, start=1):
        x = datagen.sample_covariates(cfg, k, n, trial)
        y = datagen.generate_response(x, k, datagen.substream(seed, "response", trial, k))
        scores = datagen.score_absolute(model, x, y)
        datasets.append(federation.ClientDataset(k, x, scores, cfg.pi[k - 1]))
    return Federation(
        datasets=tuple(datasets),
        total_weight=math.fsum(p * n / (n + 1) for p, n in zip(cfg.pi, sizes)),
        test_weight=math.fsum(p / (n + 1) for p, n in zip(cfg.pi, sizes)),
    )


class FedRound(Workload):
    """One federation round plus the coreset-to-arrays step per operation."""

    name = "fed-round"
    # Rounds cycle through this many distinct federations; run_round keeps no
    # state between calls, so a federation seen POOL rounds ago is as fresh.
    pool = 16

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.sizes = (2000, 2000) + (100,) * 6 if tiny else (40_000, 40_000) + (1000,) * 30

    def setup(self) -> None:
        count = 2 if self.tiny else self.pool
        self.federations = [make_federation(self.seed, self.sizes, p) for p in range(count)]
        warm = make_federation(self.seed, (500, 200, 100), count)
        federation.run_round(warm.datasets, harness.DEFAULT_FAMILY, DELTA)

    def prepare(self, i: int) -> Federation:
        return self.federations[i % len(self.federations)]

    def call(self, fed: Federation):
        round_ = federation.run_round(fed.datasets, harness.DEFAULT_FAMILY, DELTA)
        data = CalibrationData.from_coreset(round_.coreset, round_.test_weight)
        return fed, round_, data

    def check(self, out) -> None:
        fed, round_, data = out
        if len(data.scores) != len(round_.coreset):
            raise CheckFailed(f"{len(data.scores)} arrays rows for {len(round_.coreset)} coreset rows")
        for label, got, want in (
            ("coreset weight", round_.coreset.total_weight, fed.total_weight),
            ("array weight", float(np.sum(data.weights)), fed.total_weight),
            ("test weight", round_.test_weight, fed.test_weight),
        ):
            if not abs(got - want) <= 1e-9 * want:
                raise CheckFailed(f"{label} {got!r} != {want!r}")
        bound = math.sin(math.pi / DELTA)
        for atom, digest in round_.coreset.per_atom_digests.items():
            w = digest.weights()
            if not w.max() <= bound * (1.0 + 1e-9) * w.sum():
                raise CheckFailed(f"atom {atom}: cluster mass {w.max() / w.sum()} > {bound}")
        encoded = sum(
            len(federation.message_to_json(m).encode("utf-8")) for m in round_.messages
        )
        if round_.wire_bytes != encoded:
            raise CheckFailed(f"wire_bytes {round_.wire_bytes} != encoded {encoded}")

    def wire_bytes(self, out) -> int:
        return out[1].wire_bytes


_PREDICT_LINE = re.compile(
    r"pattern=(?P<pattern>[01]+) threshold=(?P<t>\S+) "
    r"interval=\[(?P<lo>\S+), (?P<hi>\S+)\]"
)


class CliPredict(Workload):
    """One in-process ``gcfcp predict`` call on a ``gcfcp synth`` CSV per operation."""

    name = "cli-predict"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.tiny = tiny
        self.tmp: Path | None = None

    def setup(self) -> None:
        self.close()
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-predict-", dir=self.workdir))
        self.csv = str(self.tmp / "data.csv")
        synth = ["synth", "--out", self.csv, "--seed", str(self.seed)]
        if self.tiny:
            synth += ["--clients", "2"]
        messages = self.tmp / "messages.jsonl"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if cli.main(synth) != 0:
                raise RuntimeError("gcfcp synth failed")
            # the same round every predict call runs, written out once to count its bytes
            if cli.main(["calibrate", self.csv, "--out", str(messages)]) != 0:
                raise RuntimeError("gcfcp calibrate failed")
        lines = messages.read_text(encoding="utf-8").splitlines()
        self.wire = sum(len(line.encode("utf-8")) for line in lines)
        rng = np.random.default_rng(self.seed)
        self.xs = [float(v) for v in rng.uniform(0.0, 5.0, size=1024)]
        self.predictions = [float(v) for v in rng.uniform(-1.0, 3.0, size=1024)]
        self.call(self.prepare(0))

    def prepare(self, i: int):
        j = i % len(self.xs)
        argv = ["predict", self.csv, "--x", repr(self.xs[j]), "--prediction", repr(self.predictions[j])]
        return j, argv

    def call(self, request):
        j, argv = request
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return j, code, buf.getvalue()

    def check(self, out) -> None:
        j, code, text = out
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        m = _PREDICT_LINE.search(text)
        if m is None:
            raise CheckFailed(f"unparsed output {text!r}")
        t, lo, hi = float(m["t"]), float(m["lo"]), float(m["hi"])
        if not (math.isfinite(t) and t >= 0.0):
            raise CheckFailed(f"threshold {t!r}")
        p = self.predictions[j]
        # each printed number is rounded to 6 decimals
        if abs(lo - (p - t)) > 1.01e-6 or abs(hi - (p + t)) > 1.01e-6:
            raise CheckFailed(f"interval [{lo}, {hi}] != {p} +- {t}")
        if m["pattern"] != expected_pattern(self.xs[j]):
            raise CheckFailed(f"pattern {m['pattern']} for x={self.xs[j]!r}")

    def wire_bytes(self, out) -> int:
        return self.wire

    def close(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None


def make(name: str, seed: int, workdir: Path, tiny: bool = False):
    if name == Table3.name:
        return Table3(seed, tiny)
    if name == FedRound.name:
        return FedRound(seed, tiny)
    if name == CliPredict.name:
        return CliPredict(seed, workdir, tiny)
    raise ValueError(f"unknown workload {name!r}")
