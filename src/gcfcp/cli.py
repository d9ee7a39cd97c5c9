"""Command-line entry point.

Subcommands:
  synth       write a synthetic calibration dataset as CSV
  calibrate   build per-client digest messages from a dataset CSV
  predict     print the prediction set for a single test covariate
  experiment  Monte Carlo coverage study, report written as CSV

``predict`` answers its one pattern with one cold threshold search on the
round's calibration data: the search makes the calibration start itself
and walks once from it, as a calibrator's shared start pays back only over
several patterns. ``main`` parses with one parser per
process, built on the first call; every parsed value lives in the returned
namespace, so calls stay independent.

``datagen.read_csv`` reads a dataset CSV as it reads a score CSV
(``experiment --ingest``): numpy's C parser reads the body in one call, and
an error names row N, the file's N-th line (header = 1).

exit codes:
  0  success
  2  configuration error
  3  degenerate group (a group with zero calibration mass)
  4  ingestion error (a malformed file, or too few rows to split)
  5  threshold search failure (an empty prediction set, or an LP optimum
     that fails verification)
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys

from . import conformal, datagen
from .conformal import CALIBRATOR_KINDS, EmptySetError, calibrate_baseline
from .datagen import IngestError, SynthConfig
from .federation import ClientDataset, check_mixture, client_datasets, run_round
from .groups import FamilyConfigError, GroupFamily, family_from_json, membership_vector
from .harness import (
    DEFAULT_FAMILY,
    DegenerateGroupError,
    ExperimentConfig,
    format_report_table,
    run_experiment,
    write_report_csv,
)
from .pinball import SolverError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_INGEST = 4
EXIT_SEARCH = 5

# the docstring's table; python -OO strips docstrings
EXIT_CODES_HELP = __doc__[__doc__.index("exit codes:"):] if __doc__ else ""

_HEADER = ["client_id", "x", "y", "score"]


def _parse_family(arg: str | None) -> GroupFamily:
    if arg is None:
        return DEFAULT_FAMILY
    try:
        return family_from_json(arg)
    except FamilyConfigError as exc:
        raise ValueError(f"bad --groups value: {exc}") from exc


def _parse_mixture(arg: str) -> tuple[float, ...]:
    """The --mixture weights, a JSON list of numbers; () for "uniform"."""
    if arg == "uniform":
        return ()
    try:
        weights = json.loads(arg)
        if not (isinstance(weights, list) and all(type(v) in (int, float) for v in weights)):  # a bool is no weight
            raise ValueError(f"{arg!r} is not a JSON list of numbers")
        pi = tuple(map(float, weights))
    except (ValueError, RecursionError, OverflowError) as exc:  # a JSONDecodeError is a ValueError
        raise ValueError(f"bad --mixture value: {exc}") from exc
    check_mixture(pi)
    return pi


def _synth_config(args, pi: tuple[float, ...] = ()) -> SynthConfig:
    if args.clients == SynthConfig.n_clients:
        sizes = SynthConfig.n_per_client
    else:
        sizes = tuple(500 for _ in range(args.clients))
    return SynthConfig(seed=args.seed, n_clients=args.clients, n_per_client=sizes, pi=pi)


def _dataset_spec(header: list[str] | None) -> list:
    if header != _HEADER:
        raise IngestError(f"bad dataset header {header!r}")
    return [("client_id", "<i8"), ("x", "<f8"), ("y", "<f8"), ("score", "<f8")]


def _read_dataset_csv(path, mixture_arg: str) -> list[ClientDataset]:
    rows = datagen.read_csv(path, _dataset_spec)
    if not rows.size:
        raise IngestError("dataset has no rows")
    return client_datasets(rows["client_id"], rows["x"], rows["score"], _parse_mixture(mixture_arg))


def cmd_synth(args) -> int:
    if not args.out:
        raise ValueError("synth requires --out")
    _, clients = datagen.synth_clients(_synth_config(args))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for k, (x, y, s) in enumerate(clients, start=1):
            for row in zip(x.tolist(), y.tolist(), s.tolist()):
                writer.writerow([k, *map(repr, row)])
    print(f"wrote dataset to {args.out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    datasets = _read_dataset_csv(args.dataset, args.mixture)
    family = _parse_family(args.groups)
    round_ = run_round(datasets, family, args.delta)
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        for line in round_.lines:
            print(line, file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    print(
        f"{len(round_.messages)} messages, {len(round_.coreset)} coreset rows, "
        f"{round_.wire_bytes} wire bytes",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_predict(args) -> int:
    if not math.isfinite(args.prediction):
        raise ValueError(f"prediction {args.prediction!r} must be finite")
    datasets = _read_dataset_csv(args.dataset, args.mixture)
    family = _parse_family(args.groups)
    calibrator = calibrate_baseline("gcfcp_coreset", datasets, args.alpha, family=family, delta=args.delta)
    feature = membership_vector(args.x, family)
    # one pattern: a cold search, which makes its own calibration start;
    # read off the module, where perfbench's tracer and the tests patch it
    s_star = conformal.threshold_search(calibrator.data, feature, args.alpha)
    if s_star < 0.0:  # no absolute residual is negative
        raise EmptySetError(f"empty prediction set: threshold {s_star!r} is negative")
    print(
        f"x={args.x} pattern={''.join(map(str, feature))} threshold={s_star:.6f} "
        f"interval=[{args.prediction - s_star:.6f}, {args.prediction + s_star:.6f}]"
    )
    return EXIT_OK


def _experiment_config(args) -> ExperimentConfig:
    return ExperimentConfig(
        calibrators=tuple(k.strip() for k in args.calibrators.split(",") if k.strip()),
        alpha=args.alpha,
        delta=args.delta,
        trials=args.trials,
        test_points=args.test_points,
        family=_parse_family(args.groups),
        synth=_synth_config(args, _parse_mixture(args.mixture)),
        ingest_path=args.ingest,
        serial=args.serial,
    )


def cmd_experiment(args) -> int:
    report = run_experiment(_experiment_config(args))
    print(format_report_table(report))
    if args.out:
        write_report_csv(report, args.out)
        print(f"wrote report to {args.out}", file=sys.stderr)
    return EXIT_OK


_OPTIONS = {
    "alpha": dict(type=float, default=ExperimentConfig.alpha),
    "delta": dict(type=float, default=ExperimentConfig.delta),
    "clients": dict(type=int, default=SynthConfig.n_clients),
    "trials": dict(type=int, default=ExperimentConfig.trials),
    "test-points": dict(type=int, default=ExperimentConfig.test_points),
    "seed": dict(type=int, default=SynthConfig.seed),
    "groups": dict(help="group family JSON"),
    "mixture": dict(default="uniform", help='JSON weights or "uniform"'),
    "calibrators": dict(
        default=",".join(ExperimentConfig.calibrators),
        help=f"comma-separated subset of {', '.join(CALIBRATOR_KINDS)}",
    ),
    "out": dict(help="output path"),
    "serial": dict(action="store_true", help="disable trial parallelism"),
}


def _add_options(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(f"--{name}", **_OPTIONS[name])


class _Parser(argparse.ArgumentParser):
    """Reads a value such as ``-2.5e-05`` as a negative number, not as an option.

    The stock argparse pattern for negative numbers (as of Python 3.11)
    matches only forms like ``-2`` and ``-2.5``, so ``--prediction -2.5e-05``,
    the ``repr`` of a small negative float, failed as a missing argument.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gcfcp",
        description="Group-conditional federated conformal prediction toolkit",
        epilog=EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic calibration dataset CSV")
    _add_options(p, "clients", "seed", "out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("calibrate", help="emit digest messages for a dataset CSV")
    p.add_argument("dataset", help="dataset CSV from the synth subcommand")
    _add_options(p, "delta", "groups", "mixture", "out")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("predict", help="prediction set for one test covariate")
    p.add_argument("dataset", help="dataset CSV from the synth subcommand")
    p.add_argument("--x", type=float, required=True, help="test covariate")
    p.add_argument(
        "--prediction", type=float, default=0.0, help="model prediction at x (interval center)"
    )
    _add_options(p, "alpha", "delta", "groups", "mixture")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("experiment", help="Monte Carlo coverage study")
    _add_options(p, *_OPTIONS)
    p.add_argument("--ingest", help="classification score CSV instead of synth data")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateGroupError as exc:
        print(f"error: degenerate group: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except IngestError as exc:
        print(f"error: ingestion: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except (EmptySetError, SolverError) as exc:
        print(f"error: threshold search: {exc}", file=sys.stderr)
        return EXIT_SEARCH
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
