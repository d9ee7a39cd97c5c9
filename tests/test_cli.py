import argparse
import base64
import contextlib
import csv
import io
import json
import re
import zlib
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from gcfcp import cli, conformal, datagen, federation
from gcfcp.cli import main
from gcfcp.conformal import EmptySetError
from gcfcp.datagen import IngestError, SynthConfig
from gcfcp.federation import message_from_json
from gcfcp.groups import Interval, LabelSet, family_from_json
from gcfcp.harness import DEFAULT_FAMILY, ExperimentConfig, _synth_trial_data
from gcfcp.pinball import SolverError
from reference import reference_ingest_scores, reference_read_dataset

SMALL_GROUPS = json.dumps(
    {
        "kind": "intervals",
        "groups": [
            {"lo": 0, "hi": 2},
            {"lo": 1, "hi": 3},
            {"lo": 2, "hi": 4},
            {"lo": 3, "hi": 5},
        ],
    }
)


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.csv"
    code = main(["synth", "--out", str(path), "--seed", "1"])
    assert code == 0
    return path


def test_synth_writes_csv(dataset_csv):
    lines = dataset_csv.read_text().splitlines()
    assert lines[0] == "client_id,x,y,score"
    assert len(lines) == 1 + 1000 + 3 * 333


@pytest.mark.parametrize("seed, clients", [(1, 4), (2, 3)])
def test_synth_rows_are_the_harness_trial_0_draws(tmp_path, seed, clients):
    path = tmp_path / "data.csv"
    assert main(["synth", "--out", str(path), "--seed", str(seed), "--clients", str(clients)]) == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    sizes = (1000, 333, 333, 333) if clients == 4 else (500,) * clients
    config = ExperimentConfig(synth=SynthConfig(seed=seed, n_clients=clients, n_per_client=sizes))
    datasets = _synth_trial_data(config, trial=0).datasets
    assert [int(r[0]) for r in rows] == [d.client_id for d in datasets for _ in range(d.n)]
    x, score = (np.array([float(r[i]) for r in rows]) for i in (1, 3))
    assert np.array_equal(x, np.concatenate([d.covariates for d in datasets]))
    assert np.array_equal(score, np.concatenate([d.scores for d in datasets]))


def test_synth_requires_out(capsys):
    assert main(["synth"]) == 2
    assert "error" in capsys.readouterr().err


def test_calibrate_emits_messages(dataset_csv, tmp_path, capsys):
    out = tmp_path / "messages.jsonl"
    code = main(
        ["calibrate", str(dataset_csv), "--delta", "100", "--groups", SMALL_GROUPS,
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # one line per client
    first = json.loads(lines[0])
    assert list(first) == ["client_id", "n", "pi", "delta", "family", "atoms", "counts", "bits", "crc32", "data"]
    assert [message_from_json(line).client_id for line in lines] == [1, 2, 3, 4]
    assert capsys.readouterr().err.startswith("4 messages, ")


def corrupt_line(line, bad):
    """The line with one wire fault, or None where the line has no room
    for it (no padding bits, a checksum of decimal digits only)."""
    obj = json.loads(line)
    raw = bytearray(base64.b64decode(obj["data"]))
    if bad == "bits one too many":  # the counts repacked at one bit more
        size, sizes = sum(obj["counts"]), message_from_json(line).sizes
        obj["bits"] += 1
        raw[8 * size :] = federation._pack_counts(sizes, obj["bits"])
    elif bad == "padding bit set":
        if not sum(obj["counts"]) * obj["bits"] % 8:
            return None
        raw[-1] |= 0x80
    elif bad == "payload one byte long":
        raw.append(0)
    elif obj["crc32"].upper() == obj["crc32"]:  # an uppercase checksum
        return None
    else:
        obj["crc32"] = obj["crc32"].upper()
    if raw != base64.b64decode(obj["data"]):
        obj["data"] = base64.b64encode(raw).decode("ascii")
        obj["crc32"] = "%08x" % zlib.crc32(obj["data"].encode("ascii"))
    return json.dumps(obj, separators=(",", ":"))


@pytest.mark.parametrize(
    "bad, error",
    [
        ("bits one too many", "the largest count needs fewer bits"),
        ("padding bit set", "padding bits"),
        ("payload one byte long", "payload of"),
        ("uppercase checksum", "checksum mismatch"),
    ],
)
def test_corrupt_wire_line_exits_2(dataset_csv, tmp_path, monkeypatch, capsys, bad, error):
    # the round decodes every line it sends: a fault in one is a
    # ProtocolError, which the CLI reports with exit code 2
    corrupted = []

    def send(message):
        line = encode(message)
        corrupted.append(corrupt_line(line, bad))
        return corrupted[-1] or line

    encode = federation.message_to_json
    monkeypatch.setattr(federation, "message_to_json", send)
    assert main(["calibrate", str(dataset_csv), "--delta", "100", "--out", str(tmp_path / "m.jsonl")]) == 2
    assert any(corrupted)
    out, err = capsys.readouterr()
    assert err.startswith("error: client ") and error in err and "Traceback" not in out + err


def test_calibrate_prints_the_lines_the_round_sent(dataset_csv, tmp_path, monkeypatch, capsys):
    rounds = []

    def recording_round(*args):
        rounds.append(cli_run_round(*args))
        return rounds[-1]

    cli_run_round = cli.run_round
    monkeypatch.setattr(cli, "run_round", recording_round)
    out = tmp_path / "messages.jsonl"
    assert main(["calibrate", str(dataset_csv), "--delta", "100", "--out", str(out)]) == 0
    (round_,) = rounds
    assert out.read_bytes() == "".join(line + "\n" for line in round_.lines).encode("utf-8")
    assert f"{round_.wire_bytes} wire bytes" in capsys.readouterr().err


def test_predict_prints_interval(dataset_csv, capsys):
    code = main(
        ["predict", str(dataset_csv), "--x", "1.5", "--prediction", "2.0",
         "--delta", "100", "--groups", SMALL_GROUPS]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "pattern=1100" in out
    # the absolute-residual interval: the prediction plus or minus S*
    threshold = float(re.search(r"threshold=(\S+)", out)[1])
    lo, hi = (float(v) for v in re.search(r"interval=\[(\S+), (\S+)\]", out).groups())
    assert threshold > 0.0
    assert (lo, hi) == pytest.approx((2.0 - threshold, 2.0 + threshold), abs=2e-6)


def predict_out(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_one_parser_keeps_calls_independent(dataset_csv, capsys):
    """``main`` parses with one parser per process, and no call leaves a
    value, an error or a help request behind for the next."""
    assert cli.build_parser() is cli.build_parser()
    plain = ["predict", str(dataset_csv), "--x", "2.5", "--delta", "100"]
    first = predict_out(capsys, plain)
    options = ["--alpha", "0.2", "--groups", SMALL_GROUPS, "--mixture", "[0.4, 0.2, 0.2, 0.2]"]
    assert predict_out(capsys, plain + options) != first
    assert predict_out(capsys, plain) == first
    for argv, code in ((plain + ["--alpha", "x"], 2), (plain + ["--bogus"], 2), (["predict", "--help"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        capsys.readouterr()
        assert predict_out(capsys, plain) == first


def test_predict_runs_one_cold_search(dataset_csv, monkeypatch, capsys):
    """``predict`` makes one threshold search, cold: the search itself solves
    the one calibration-only regression it starts from. Its threshold is the
    coreset calibrator's for the point's pattern."""
    searches, bases = [], []
    search, basis = conformal.threshold_search, conformal.calibration_basis

    def spy_search(*args, **kwargs):
        searches.append(kwargs)
        return search(*args, **kwargs)

    def spy_basis(*args, **kwargs):
        bases.append(args)
        return basis(*args, **kwargs)

    monkeypatch.setattr(conformal, "threshold_search", spy_search)
    monkeypatch.setattr(conformal, "calibration_basis", spy_basis)
    predict_out(capsys, ["predict", str(dataset_csv), "--x", "1.5"])
    assert searches == [{}] and len(bases) == 1
    monkeypatch.undo()

    datasets = cli._read_dataset_csv(dataset_csv, "uniform")
    calibrator = conformal.calibrate_baseline(
        "gcfcp_coreset", datasets, ExperimentConfig.alpha, family=DEFAULT_FAMILY, delta=ExperimentConfig.delta
    )
    for x in np.linspace(0.0, 5.0, 21).tolist():
        out = predict_out(capsys, ["predict", str(dataset_csv), "--x", repr(x)])
        pattern = tuple(map(int, re.search(r"pattern=(\d+)", out)[1]))
        assert re.search(r"threshold=(\S+)", out)[1] == f"{calibrator.threshold(pattern):.6f}"


@pytest.mark.parametrize(
    "groups",
    [
        '{"kind": "intervals", "groups": [{"lo": "0", "hi": "5"}]}',
        '{"kind": "intervals", "groups": [{"lo": 0, "hi": true}]}',
        '{"kind": "label_sets", "groups": [[false, true]]}',
        '{"kind": "label_sets", "groups": [[0, 1], [true]]}',
        '{"kind": "intervals", "groups": [{"lo": 0, "hi": 1' + "0" * 400 + '}]}',
        '{"kind": "intervals", "feature": 0, "groups": [{"lo": 0, "hi": 5}]}',
        '{"kind": "label_sets", "feature": "predicted_label", "groups": [[0, 1]]}',
        '{"kind": "intervals", "groups": [{"lo": 0, "hi": 5}], "comment": ""}',
        '{"kind": "intervals", "groups": [{"lo": 0, "hi": 5, "feature": 0}]}',
        '{"kind": "intervals", "groups": [{"lo": 0, "hi": 5, "hi_closd": false}]}',
        "[" * 100_000,
    ],
    ids=[
        "string-bounds", "boolean-bound", "boolean-labels", "boolean-label", "huge-bound",
        "interval-feature", "label-set-feature", "extra-family-key", "interval-feature-key",
        "misspelled-interval-key", "deep-nest",
    ],
)
def test_predict_takes_only_numbers_in_the_family(dataset_csv, capsys, groups):
    """Bounds must be JSON numbers that a float holds and labels integers,
    not strings or booleans, and a family holds exactly the keys it reads."""
    assert main(["predict", str(dataset_csv), "--x", "1.5", "--groups", groups]) == 2
    assert "bad --groups value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mixture, code, err",
    [("[0.5, 0.5, 0, 0]", 0, ""), ("[1, 0, 0, 0]", 3, "error: degenerate group: groups [3] ")],
)
def test_predict_with_zero_weight_clients(dataset_csv, capsys, mixture, code, err):
    # a client with pi_k = 0 sends no atoms; with only client 1 left, the
    # highest group holds none of its covariates
    assert main(["predict", str(dataset_csv), "--x", "2.5", "--mixture", mixture]) == code
    assert capsys.readouterr().err.startswith(err)


@pytest.mark.parametrize("delta", ["inf", "nan"])
@pytest.mark.parametrize("command", [["predict", "--x", "2.5"], ["calibrate"]], ids=["predict", "calibrate"])
def test_non_finite_delta_exits_2(dataset_csv, capsys, command, delta):
    argv = [command[0], str(dataset_csv), *command[1:], "--delta", delta]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: compression {float(delta)!r} must be finite")


@pytest.mark.parametrize("prediction", ["nan", "inf", "-inf"])
def test_non_finite_prediction_exits_2(dataset_csv, capsys, prediction):
    # before, nan printed interval=[nan, nan] and inf interval=[inf, inf], exit 0
    assert main(["predict", str(dataset_csv), "--x", "2.5", f"--prediction={prediction}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: prediction {float(prediction)!r} must be finite\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "data.csv", "--x", "1.5", "--trials", "0"],
        ["synth", "--out", "data.csv", "--groups", "x"],
        ["synth", "--out", "data.csv", "--mixture", "uniform"],
        ["calibrate", "data.csv", "--alpha", "5"],
    ],
)
def test_subcommands_reject_options_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-2.2970343551254047e-05", "-3E+2", "-.5", "-1."])
def test_predict_takes_negative_numbers(dataset_csv, capsys, value):
    code = main(
        ["predict", str(dataset_csv), "--x", "1.5", "--prediction", value,
         "--delta", "100", "--groups", SMALL_GROUPS]
    )
    assert code == 0
    interval = capsys.readouterr().out.split("interval=[")[1].rstrip().rstrip("]")
    lo, hi = (float(v) for v in interval.split(", "))
    assert (lo + hi) / 2.0 == pytest.approx(float(value), abs=1e-6)


def test_experiment_small(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(
        ["experiment", "--trials", "1", "--test-points", "10", "--delta", "50",
         "--calibrators", "centralized_cp", "--serial", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().startswith("calibrator,group,coverage")
    assert "centralized_cp" in capsys.readouterr().out


def test_exit_code_config_error(capsys):
    assert main(["experiment", "--calibrators", "bogus", "--trials", "1"]) == 2
    assert main(["experiment", "--calibrators", ",", "--trials", "1"]) == 2
    assert main(["experiment", "--mixture", "[0.9, 0.9]", "--trials", "1"]) == 2
    # a list of JSON numbers and nothing else: no strings, no bools, no
    # nesting too deep to decode, no number too large for a float
    for mixture in (
        '["0.25", "0.25", "0.25", "0.25"]', "[true, false, false, false]", "[" * 100_000, "[1" + "0" * 400 + "]"
    ):
        assert main(["experiment", "--mixture", mixture, "--trials", "1"]) == 2
        assert "bad --mixture value" in capsys.readouterr().err
    repeated_key = '{"kind": "label_sets", "kind": "intervals", "groups": [{"lo": 0, "hi": 5}]}'
    assert main(["experiment", "--groups", repeated_key, "--trials", "1"]) == 2
    assert "repeated key 'kind'" in capsys.readouterr().err
    assert main(["experiment", "--groups", "{bad json", "--trials", "1"]) == 2
    reversed_bounds = '{"kind": "intervals", "groups": [{"lo": 0, "hi": 5}, {"lo": 3, "hi": 1}]}'
    assert main(["experiment", "--groups", reversed_bounds, "--trials", "1"]) == 2
    for empty_group in (
        '{"kind": "label_sets", "groups": [[], [0, 1]]}',
        '{"kind": "intervals", "groups": [{"lo": 2, "hi": 2, "hi_closed": false}]}',
        '{"kind": "intervals", "groups": 5}',
    ):
        assert main(["experiment", "--groups", empty_group, "--trials", "1"]) == 2
        assert "bad --groups value" in capsys.readouterr().err
    capsys.readouterr()


def test_exit_code_zero_test_points(capsys):
    code = main(
        ["experiment", "--trials", "1", "--test-points", "0", "--serial",
         "--calibrators", "centralized_cp"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "test_points must be >= 1" in captured.err
    assert "nan" not in captured.out


def test_exit_code_degenerate_group(capsys):
    groups = json.dumps(
        {"kind": "intervals", "groups": [{"lo": 0, "hi": 5}, {"lo": 90, "hi": 91}]}
    )
    code = main(
        ["experiment", "--trials", "1", "--test-points", "5", "--delta", "50",
         "--calibrators", "gcfcp_coreset", "--groups", groups, "--serial"]
    )
    assert code == 3
    assert "degenerate" in capsys.readouterr().err


@pytest.mark.parametrize("error", [EmptySetError, SolverError])
def test_exit_code_search_error(dataset_csv, monkeypatch, capsys, error):
    def failing_search(*args, **kwargs):
        raise error("search failed")

    monkeypatch.setattr(conformal, "threshold_search", failing_search)
    code = main(["predict", str(dataset_csv), "--x", "1.5", "--delta", "100"])
    assert code == 5
    assert "error: threshold search: search failed" in capsys.readouterr().err


def test_predict_exits_5_on_an_empty_set(dataset_csv, capsys):
    """At alpha 0.999 the seed-1 data give x = 2.5 a negative S*: no absolute
    residual is that small, so the set is empty, a search failure (exit 5)
    and not a configuration error."""
    code = main(["predict", str(dataset_csv), "--x", "2.5", "--alpha", "0.999"])
    assert code == 5
    err = capsys.readouterr().err
    assert "empty prediction set: threshold -0.0149" in err


def test_exit_code_ingest_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("client_id,predicted_label,true_label,score_0\n1,0,0,2.5\n")
    code = main(
        ["experiment", "--trials", "1", "--ingest", str(bad),
         "--calibrators", "centralized_cp", "--serial"]
    )
    assert code == 4
    assert "ingestion" in capsys.readouterr().err


def test_exit_code_ingest_error_on_a_field_too_long(tmp_path, capsys):
    """A score past the csv module's field size limit, which the csv module
    rejected (exit 4), reads as the number it spells: 131 073 ones read inf,
    a score outside [0, 1] (exit 4 at its row), and 131 073 zeros read 0.0."""
    long = tmp_path / "long.csv"
    long.write_text("client_id,predicted_label,true_label,score_0\n1,0,0," + "1" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(IngestError, match="^line 2: field larger than field limit"):
        reference_ingest_scores(long)
    code = main(
        ["experiment", "--trials", "1", "--ingest", str(long),
         "--calibrators", "centralized_cp", "--serial"]
    )
    assert code == 4
    assert capsys.readouterr().err.startswith("error: ingestion: row 2: score inf outside [0, 1]")
    long.write_text("client_id,predicted_label,true_label,score_0\n1,0,0," + "0" * (csv.field_size_limit() + 1) + "\n")
    assert datagen.ingest_scores(long)["scores"].tolist() == [[0.0]]


@pytest.mark.parametrize(
    "row", ["1,1.0,abc,0.5", "1,1.0,0.0,0.5,junk", "1,1.0,abc,0.5,junk", "1,1.0,0.5"],
    ids=["text-y", "extra-field", "text-y-and-extra-field", "missing-field"],
)
@pytest.mark.parametrize("command", [["predict", "--x", "1.5"], ["calibrate"]], ids=["predict", "calibrate"])
def test_dataset_row_must_match_the_header(tmp_path, capsys, command, row):
    """Every dataset row has the header's four fields and a numeric y, as
    score-CSV rows have theirs, though only x and the score are read."""
    path = tmp_path / "data.csv"
    path.write_text("\n".join(["client_id,x,y,score", "1,2.0,0.0,0.5", row]) + "\n")
    assert main([command[0], str(path), *command[1:]]) == 4
    assert capsys.readouterr().err.startswith("error: ingestion: row 3: ")


def dataset_outcome(datasets):
    """Each dataset's id, covariate and score bits and weight."""
    return [
        (d.client_id, d.covariates.view(np.uint64).tolist(), d.scores.view(np.uint64).tolist(), d.pi)
        for d in datasets
    ]


def score_outcome(records):
    """Each row's id, labels and score bits: the records of
    ``ingest_scores``, or the tuples of ``reference_ingest_scores``."""
    rows = records.tolist() if isinstance(records, np.ndarray) else records
    return [(c, p, t, np.asarray(s, dtype=float).view(np.uint64).tolist()) for c, p, t, s in rows]


def spelled(values):
    return st.builds(lambda value, spelling: spelling % value, values, st.sampled_from(["%r", "%.17g", "%.25e", "%.3f"]))


NUMBER_TEXT = spelled(
    st.one_of(
        st.sampled_from([-0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308]),
        st.floats(allow_nan=False, allow_infinity=False),
    )
)
SCORE_TEXT = spelled(st.one_of(st.sampled_from([-0.0, 5e-324, 1e-310, 1.0]), st.floats(0.0, 1.0)))


class CsvKind(NamedTuple):
    """One input file: its header, the numbers its fields hold (``ints``
    int64 columns, then ``number`` text) and a row's fields at line 3 of a
    file between ``context`` rows; the library's reader and the row-by-row
    reference, each read made comparable by ``outcome``; and the gcfcp
    command that reads it, which prints ``done`` on success."""

    header: str
    ints: int
    number: st.SearchStrategy
    context: tuple[str, str, str]
    read: Callable
    reference: Callable
    outcome: Callable
    argv: Callable
    done: str

    @property
    def width(self):
        return self.header.count(",") + 1

    def file(self, tmp_path, lines, eol="\n", final=True):
        """A file of the header and ``lines``, each ended by ``eol`` (the last
        one only if ``final``), written as UTF-8 bytes."""
        path = tmp_path / "data.csv"
        path.write_bytes((eol.join([self.header, *lines]) + eol * final).encode("utf-8"))
        return path


KINDS = {
    "dataset": CsvKind(
        "client_id,x,y,score",
        1,
        NUMBER_TEXT,
        ("1,2.0,0.0,0.5", "2,3.0,0.0,0.25", "2,4.0,0.0,1.5"),
        lambda path: cli._read_dataset_csv(path, "uniform"),
        reference_read_dataset,
        dataset_outcome,
        lambda path, out: ["calibrate", str(path), "--out", str(out)],
        "2 messages",
    ),
    "scores": CsvKind(
        "client_id,predicted_label,true_label,score_0,score_1,score_2",
        3,
        SCORE_TEXT,
        ("1,0,1,0.2,0.5,0.9", "2,2,2,0.9,0.8,0.1", "2,1,0,0.4,0.3,0.6"),
        datagen.ingest_scores,
        reference_ingest_scores,
        score_outcome,
        lambda path, out: ["experiment", "--trials", "1", "--ingest", str(path), "--calibrators",
                           "centralized_cp", "--serial", "--out", str(out)],
        "wrote report",
    ),
}


def read_outcome(kind, read, path):
    """What ``read``, the kind's reader or its reference, makes of ``path``:
    its comparable outcome, or the message of its IngestError."""
    try:
        return kind.outcome(read(path))
    except IngestError as exc:
        return str(exc)


def read_outcomes(kind, path):
    """The library's and the reference's outcomes on ``path``, an error cut
    to the row it names (the two parsers word their messages apart)."""
    return [
        re.match(r"row \d+(?=: )|.*", got)[0] if isinstance(got, str) else got
        for got in (read_outcome(kind, kind.read, path), read_outcome(kind, kind.reference, path))
    ]


JUNK = ("x", "", "1e", "--1", "0x10", "nan(1)", "1.2.3", ".", "1 2", '4"')
OUT_OF_RANGE = {"label": ("3", "-1", "7"), "score": ("1.5", "-0.5", "nan", "inf", "-inf", "1.0001")}


def quoted(draw, field):
    return '"' + field.replace('"', '""') + '"' if draw(st.booleans()) else field


@st.composite
def csv_lines(draw, kind):
    """1-12 well-formed rows over 1-5 client ids in any order, each field
    quoted or not; score-CSV labels in [0, 3) and scores in [0, 1]."""
    ids = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=5, unique=True))
    fields = [st.integers(0, 2).map(str)] * (kind.ints - 1) + [kind.number] * (kind.width - kind.ints)
    return [
        ",".join(quoted(draw, f) for f in [str(draw(st.sampled_from(ids))), *(draw(s) for s in fields)])
        for _ in range(draw(st.integers(1, 12)))
    ]


READER_SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("kind", KINDS)
@READER_SETTINGS
@given(eol=st.sampled_from(["\n", "\r\n", "\r"]), final=st.booleans(), data=st.data())
def test_reader_matches_the_row_by_row_reference(tmp_path, kind, eol, final, data):
    """numpy's parser reads a well-formed file to the ids, labels, covariate
    bits and score bits that the csv module and Python's int and float read."""
    kind = KINDS[kind]
    path = kind.file(tmp_path, data.draw(csv_lines(kind), label="lines"), eol, final)
    got, want = read_outcomes(kind, path)
    assert isinstance(got, list)
    assert got == want


@pytest.mark.parametrize("kind", KINDS)
@READER_SETTINGS
@given(eol=st.sampled_from(["\n", "\r\n", "\r"]), final=st.booleans(), data=st.data())
def test_reader_names_the_row_the_reference_names(tmp_path, kind, eol, final, data):
    """A file with one defect, often on its first or last line: both readers
    name the defect's line in the file, header = 1. On the score CSV a
    defect may also be a label or a score out of range."""
    kind = KINDS[kind]
    lines = data.draw(csv_lines(kind), label="lines")
    defects = ["blank", "short", "long", "junk"] + ["label", "score"] * (kind is KINDS["scores"])
    defect = data.draw(st.sampled_from(defects), label="defect")
    last = len(lines) - (defect != "blank")  # a blank line goes in before a row or after all
    at = data.draw(st.one_of(st.sampled_from([0, last]), st.integers(0, last)), label="at")
    if defect == "blank":
        lines.insert(at, "")
        final = final or at == last  # a blank last line has its line end
    else:
        fields = lines[at].split(",")  # no number holds a comma
        if defect == "short":
            del fields[data.draw(st.integers(0, kind.width - 1), label="field")]
        elif defect == "long":
            fields.insert(data.draw(st.integers(0, kind.width), label="field"), data.draw(kind.number, label="extra"))
        elif defect == "junk":
            column = data.draw(st.integers(0, kind.width - 1), label="column")
            junk = JUNK + ("1.5", "1e3", "nan") * (column < kind.ints)
            fields[column] = quoted(data.draw, data.draw(st.sampled_from(junk), label="junk"))
        else:
            column = data.draw(st.integers(1, 2) if defect == "label" else st.integers(3, 5), label="column")
            fields[column] = quoted(data.draw, data.draw(st.sampled_from(OUT_OF_RANGE[defect]), label=defect))
        lines[at] = ",".join(fields)
    path = kind.file(tmp_path, lines, eol, final)
    got, want = read_outcomes(kind, path)
    assert got == want == f"row {at + 2}"


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("at", range(8))
def test_reader_names_the_row_of_a_quote_left_open(tmp_path, kind, at):
    """A quote left open runs on into the next line, whose text the csv
    module reads into the field, and the line that opened it names the error.
    On the last line the quote ends with the file, and both readers read
    the row."""
    kind = KINDS[kind]
    lines = [f"{1 + i % 2}{kind.context[i % 2][1:]}" for i in range(8)]
    head, _, last_field = lines[at].rpartition(",")
    lines[at] = f'{head},"{last_field}'
    got, want = read_outcomes(kind, kind.file(tmp_path, lines))
    assert got == want
    if at < 7:
        assert got == f"row {at + 2}"
    else:
        assert isinstance(got, list)


@pytest.mark.parametrize("kind, no_rows", [("dataset", "dataset has no rows"), ("scores", [])])
@pytest.mark.parametrize(
    "body, blank",
    [("", False), ("\n", False), ("\n\n", True), ("\n\n\n\n", True), ("\r\n\r\n\r\n", True)],
    ids=["header-only", "header-and-line-end", "blank-body", "all-blank-lines", "all-blank-lines-crlf"],
)
def test_reader_on_files_without_data_rows(tmp_path, kind, no_rows, body, blank):
    """The reference's outcome, message for message: a dataset without rows
    is an error, a score CSV without rows reads as no records. And no numpy
    warning that the input held no data (the test settings make a
    UserWarning an error)."""
    kind = KINDS[kind]
    path = tmp_path / "data.csv"
    path.write_bytes((kind.header + body).encode("utf-8"))
    want = f"row 2: expected {kind.width} fields" if blank else no_rows
    assert read_outcome(kind, kind.read, path) == read_outcome(kind, kind.reference, path) == want


@pytest.mark.parametrize(
    "rows, want",
    [
        (["1,0,1,0.2,1.5,0.9", "1,0,7,0.2,0.5,0.9"], "row 2: score 1.5 outside [0, 1]"),
        (["1,0,1,0.2,0.5,0.9", "1,3,1,0.2,-0.5,0.9"], "row 3: label out of range"),
        (["1,0,1,0.2,0.5,nan", "1,0,1,0.2,0.5,inf"], "row 2: score nan outside [0, 1]"),
        (["1,0,1,0.2,2.0,-inf"], "row 2: score 2.0 outside [0, 1]"),
        (["1,0,1,-1e-06,1.000001,0.5", "2,2,2,0.9,0.8,0.1"], None),
    ],
    ids=["first-row", "label-before-score", "nan", "first-score-of-a-row", "slack"],
)
def test_range_checks_name_what_the_reference_names(tmp_path, rows, want):
    """The array checks name the first row out of range, its labels before
    its scores and its first bad score, in the reference's words; a score
    within 1e-6 of [0, 1] passes."""
    scores = KINDS["scores"]
    path = scores.file(tmp_path, rows)
    got = read_outcome(scores, scores.read, path)
    assert got == read_outcome(scores, scores.reference, path)
    assert got == want if want else isinstance(got, list)


def test_a_row_that_does_not_parse_is_named_before_an_earlier_range_error(tmp_path):
    """The range checks run on the parsed records, so a row that does not
    parse is named first; the reference, row by row, named the earlier row
    out of range."""
    scores = KINDS["scores"]
    path = scores.file(tmp_path, ["1,0,7,0.2,0.5,0.9", "1,0,1,0.2,x,0.9"])
    assert read_outcome(scores, scores.reference, path) == "row 2: label out of range"
    assert read_outcome(scores, scores.read, path).startswith("row 3: could not convert string 'x' to float64")


def run_row(kind, tmp_path, row):
    """The exit code, output (None unless 0) and standard error of the
    kind's gcfcp command, and the reference's outcome, on the kind's file
    whose line 3 is ``row``."""
    path = kind.file(tmp_path, [kind.context[0], row, *kind.context[1:]])
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(kind.argv(path, out))
    return code, out.read_text() if code == 0 else None, err.getvalue(), read_outcome(kind, kind.reference, path)


@pytest.mark.parametrize(
    "kind, row",
    [
        ("dataset", "1_0,2.0,0.0,0.5"),
        ("dataset", "1,0_7,0.0,0.5"),
        ("dataset", "1,2.0,0_0,0.5"),
        ("dataset", "1,2.0,0.0,0_5"),
        ("scores", "1_0,0,1,0.2,0.5,0.9"),
        ("scores", "1,0_1,1,0.2,0.5,0.9"),
        ("scores", "1,0,0_1,0.2,0.5,0.9"),
        ("scores", "1,0,1,0.2_5,0.5,0.9"),
    ],
)
def test_a_number_with_underscores_exits_4(tmp_path, kind, row):
    """Python's int and float read ``0_7`` as 7; numpy's parser does not."""
    code, _, err, before = run_row(KINDS[kind], tmp_path, row)
    assert isinstance(before, list) and before == run_row(KINDS[kind], tmp_path, row.replace("_", ""))[3]
    assert code == 4 and err.startswith("error: ingestion: row 3: could not convert string ")


def rows_of(outcome, client_id):
    return [row[1:] for row in outcome if row[0] == client_id]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("client_id", [str(2**63), str(-(2**63) - 1), "99999999999999999999"])
def test_a_client_id_outside_int64_exits_4(tmp_path, kind, client_id):
    """Before, such an id was read: a round sent it on the wire, and the
    score CSV's records carried it."""
    kind = KINDS[kind]
    rest = kind.context[0][1:]
    code, _, err, before = run_row(kind, tmp_path, client_id + rest)
    assert rows_of(before, int(client_id)) == rows_of(run_row(kind, tmp_path, "3" + rest)[3], 3) != []
    assert code == 4 and err.startswith(f"error: ingestion: row 3: could not convert string '{client_id}' to int64")


@pytest.mark.parametrize("label", [str(2**63), str(-(2**63) - 1)])
@pytest.mark.parametrize("column", [1, 2], ids=["predicted", "true"])
def test_a_label_outside_int64_names_the_conversion(tmp_path, column, label):
    """Before, Python's int read such a label, and the range check named its
    row; now the int64 conversion does, still exit 4."""
    fields = KINDS["scores"].context[0].split(",")
    fields[column] = label
    code, _, err, before = run_row(KINDS["scores"], tmp_path, ",".join(fields))
    assert before == "row 3: label out of range"
    assert code == 4 and err.startswith(f"error: ingestion: row 3: could not convert string '{label}' to int64")


@pytest.mark.parametrize("kind, row", [("dataset", "1,{},0.0,0.5"), ("scores", "{},0,1,0.2,0.5,0.9")])
@pytest.mark.parametrize("digit", ["\u0663", "\uff13"], ids=["arabic-indic", "fullwidth"])
def test_a_non_ascii_digit_exits_4(tmp_path, kind, row, digit):
    """Python's int and float read any Unicode decimal digit; numpy's parser
    reads ASCII digits only."""
    code, _, err, before = run_row(KINDS[kind], tmp_path, row.format(digit))
    assert isinstance(before, list) and before == run_row(KINDS[kind], tmp_path, row.format("3"))[3]
    assert code == 4 and err.startswith("error: ingestion: row 3: ")


@pytest.mark.parametrize("kind, row", [("dataset", '1,"3.0{}",0.0,0.5'), ("scores", '1,0,1,0.2,"0.5{}",0.9')])
def test_a_quoted_line_break_exits_4(tmp_path, kind, row):
    """A quoted field that runs on over a line end: the csv module read the
    two lines as one row, and Python's float stripped the line break. Now
    each line is one row, and the first names the error."""
    code, _, err, before = run_row(KINDS[kind], tmp_path, row.format("\n"))
    assert isinstance(before, list) and before == run_row(KINDS[kind], tmp_path, row.format(""))[3]
    assert code == 4 and err.startswith("error: ingestion: row 3: ")


@pytest.mark.parametrize("kind, row", [("dataset", "1,{0}3.0{0},0.0,0.5"), ("scores", "1,0,1,0.2,{0}0.5{0},0.9")])
@pytest.mark.parametrize("control", ["\x1c", "\x1d", "\x1e", "\x1f"])
def test_a_separator_control_next_to_a_number_reads_as_whitespace(tmp_path, kind, row, control):
    """Python's float rejects the information separators U+001C-U+001F around
    a number; numpy's parser skips them as whitespace."""
    code, lines, _, before = run_row(KINDS[kind], tmp_path, row.format(control))
    assert before.startswith("row 3: could not convert string to float")
    assert code == 0 and lines == run_row(KINDS[kind], tmp_path, row.format(""))[1]


@pytest.mark.parametrize("digit, code", [("0", 0), ("1", 2)])
def test_a_field_past_the_csv_limit_reads_as_its_number(tmp_path, digit, code):
    """The csv module rejected the field (exit 4). numpy's parser reads it:
    131 073 zeros are 0.0, and 131 073 ones are inf, a covariate outside
    every group (exit 2)."""
    dataset = KINDS["dataset"]
    got, lines, err, before = run_row(dataset, tmp_path, f"1,{digit * (csv.field_size_limit() + 1)},0.0,0.5")
    assert before.startswith("line 3: field larger than field limit")
    assert got == code
    if code == 0:
        assert lines == run_row(dataset, tmp_path, "1,0.0,0.0,0.5")[1]
    else:
        assert err.startswith("error: covariate value inf ")


@pytest.mark.parametrize(
    "kind, lines, eol, code",
    [
        ("dataset", ["1,2.0,0.0,0.5", "", "2,3.0,0.0,0.25"], "\n", 4),
        ("dataset", ['"1","2.0",0.0,"0.5"', '2,"3.0","0.0",0.25'], "\n", 0),
        ("dataset", ["1,2.0,0.0,0.5", "2,3.0,0.0,0.25"], "\r\n", 0),
        ("dataset", ["-1,2.0,0.0,0.5", "-2,3.0,0.0,0.25"], "\n", 0),
        ("scores", ["1,0,1,0.2,0.5,0.9", "", "2,2,2,0.9,0.8,0.1"], "\n", 4),
        ("scores", ['"1","0",1,"0.2",0.5,0.9', '2,"2","2",0.9,0.8,"0.1"'], "\n", 0),
        ("scores", ["1,0,1,0.2,0.5,0.9", "2,2,2,0.9,0.8,0.1"], "\r\n", 0),
        ("scores", ["-1,0,1,0.2,0.5,0.9", "-2,2,2,0.9,0.8,0.1"], "\n", 0),
    ],
    ids=[f"{kind}-{case}" for kind in KINDS for case in ["blank-line", "quoted-fields", "crlf", "negative-ids"]],
)
def test_inputs_whose_outcome_is_unchanged(tmp_path, capsys, kind, lines, eol, code):
    """Blank lines, quoted fields, CRLF line ends and negative ids read as the
    csv module and Python's int and float read them."""
    kind = KINDS[kind]
    path = kind.file(tmp_path, lines, eol)
    got, want = read_outcomes(kind, path)
    assert got == want
    assert main(kind.argv(path, tmp_path / "out")) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: ingestion: row 3: expected {kind.width} fields" if code else kind.done)


@pytest.mark.parametrize("kind, message", [("dataset", "bad dataset header"), ("scores", "bad header")])
def test_a_byte_order_mark_before_the_header_exits_4(tmp_path, capsys, kind, message):
    kind = KINDS[kind]
    path = kind.file(tmp_path, [kind.context[0], kind.context[1]])
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    got, want = read_outcomes(kind, path)
    assert got == want
    assert main(kind.argv(path, tmp_path / "out")) == 4
    assert capsys.readouterr().err.startswith(f"error: ingestion: {message} ['\\ufeffclient_id'")


@pytest.mark.parametrize("command", [["predict", "--x", "1.5"], ["calibrate"]], ids=["predict", "calibrate"])
@pytest.mark.parametrize("at", ["header", "row"])
def test_a_dataset_csv_that_is_not_utf8_exits_4(tmp_path, capsys, command, at):
    """Before, the decoder's UnicodeDecodeError, a ValueError, exited 2."""
    path = tmp_path / "data.csv"
    path.write_bytes(b"client_id,x,y,score\xff\n1,2.0,0.0,0.5\n" if at == "header" else b"client_id,x,y,score\n1,2.0,0.0,0.5\xff\n")
    assert main([command[0], str(path), *command[1:]]) == 4
    assert capsys.readouterr().err.startswith("error: ingestion: not UTF-8 text: 'utf-8' codec can't decode byte 0xff")


def test_a_score_csv_that_is_not_utf8_exits_4(tmp_path, capsys):
    path = tmp_path / "scores.csv"
    path.write_bytes(b"client_id,predicted_label,true_label,score_0\n1,0,0,0.5\xff\n")
    argv = ["experiment", "--trials", "1", "--ingest", str(path), "--calibrators", "centralized_cp", "--serial"]
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith("error: ingestion: not UTF-8 text: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("rows", [[], ["1,0,0,0.2,0.7"]], ids=["header-only", "one-row"])
def test_exit_code_ingest_without_both_halves(tmp_path, capsys, rows):
    path = tmp_path / "scores.csv"
    path.write_text("\n".join(["client_id,predicted_label,true_label,score_0,score_1", *rows]) + "\n")
    code = main(
        ["experiment", "--trials", "1", "--ingest", str(path),
         "--calibrators", "centralized_cp", "--serial"]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert "error: ingestion:" in err and "Traceback" not in err


def test_help_lists_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for code in (0, 2, 3, 4, 5):
        assert f"\n  {code}  " in out
    assert cli.EXIT_CODES_HELP in cli.__doc__


def test_bench_is_not_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--delta", "250"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_docs_match_the_parser():
    """README's options table and the module docstring's subcommand list
    name exactly the subcommands and options that ``build_parser`` defines."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: [flag for action in p._actions for flag in action.option_strings if flag.startswith("--")]
        for name, p in sub.choices.items()
    }
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("Each subcommand accepts only the options it reads:\n\n")[1].split("\n\n")[0]
    rows = [re.fullmatch(r"\| `(\w+)` \| `([^`]*)` \|", line) for line in table.splitlines()[2:]]
    assert all(rows), table
    assert {row[1]: sorted(row[2].split()) for row in rows} == {
        name: sorted(set(flags) - {"--help"}) for name, flags in parsed.items()
    }
    listed = cli.__doc__.split("Subcommands:\n")[1].split("\n\n")[0]
    assert [line.split()[0] for line in listed.splitlines()] == list(parsed)


def test_readme_family_examples_parse():
    """Every family JSON in README, a ```json block or an inline
    `{"kind": ...}` span, parses with ``family_from_json``, and the examples
    show both kinds."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    examples = re.findall(r"```json\n(.*?)```", readme, re.S) + re.findall(r'`(\{"kind".*?\})`', readme)
    kinds = {type(family_from_json(text).groups[0]) for text in examples}
    assert kinds == {Interval, LabelSet}, examples


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
FIELD = st.one_of(
    ANY_FLOAT.map(repr),
    st.sampled_from(["nan", "inf", "-inf", "", "x", "1e999", "0", "2.5"]),
)


@st.composite
def dataset_text(draw):
    """A dataset CSV of two clients: well-formed half the time, otherwise with
    one defect: no rows at all, a bad header, a junk or short row, one
    non-finite or out-of-range covariate or score, or one field longer than
    the csv module reads."""
    rows = [
        f"{1 + i % 2},{draw(st.floats(0.0, 5.0))!r},0.0,{draw(st.floats(0.0, 3.0))!r}"
        for i in range(draw(st.integers(2, 30)))
    ]
    defect = draw(st.sampled_from(["none"] * 5 + ["empty", "header", "junk", "value", "long"]))
    if defect == "empty":
        return draw(st.sampled_from(["", "\n", "client_id,x,y,score\n"]))
    header = draw(st.sampled_from(["client_id,x,y", "", "a,b,c,d"])) if defect == "header" else "client_id,x,y,score"
    at = draw(st.integers(0, len(rows) - 1))
    if defect == "junk":
        rows[at] = ",".join(draw(st.lists(FIELD, max_size=5)))
    if defect == "value":
        fields = rows[at].split(",")
        fields[draw(st.sampled_from([1, 3]))] = draw(st.sampled_from(["nan", "inf", "-inf", "-1.0", "9.0", "1e308"]))
        rows[at] = ",".join(fields)
    if defect == "long":
        fields = rows[at].split(",")
        fields[draw(st.integers(0, 3))] = "1" * (csv.field_size_limit() + 1)
        rows[at] = ",".join(fields)
    return "\n".join([header, *rows]) + "\n"


OPTION_VALUES = {
    "--alpha": st.one_of(st.floats(1e-6, 0.5), ANY_FLOAT).map(repr),
    "--delta": st.one_of(st.floats(2.0, 500.0), ANY_FLOAT).map(repr),
    "--groups": st.sampled_from(
        [SMALL_GROUPS, "{bad json", "[]", '{"kind": "intervals", "groups": []}', "null",
         '{"kind": "intervals", "groups": [{"lo": 0, "hi": "x"}]}',
         '{"kind": "intervals", "groups": [{"lo": 0, "hi": 5, "hi_closd": false}]}',
         '{"kind": "intervals", "feature": 0, "groups": [{"lo": 0, "hi": 5}]}',
         "[" * 100_000,
         '{"kind": "intervals", "groups": [{"lo": 0, "hi": 1' + "0" * 400 + '}]}']
    ),
    "--mixture": st.sampled_from(
        ["uniform", "[0.5, 0.5]", "[NaN, 1]", "[1]", "{", "[2, -1]", "[" * 100_000, '["0.5", "0.5"]']
    ),
    "--x": st.one_of(st.floats(0.0, 5.0), ANY_FLOAT).map(repr),
    "--prediction": ANY_FLOAT.map(repr),
}
OPTIONAL_FLAGS = {
    "predict": ["--alpha", "--delta", "--groups", "--mixture", "--prediction"],
    "calibrate": ["--delta", "--groups", "--mixture"],
}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(OPTIONAL_FLAGS)), text=dataset_text(), data=st.data())
def test_no_traceback_from_predict_or_calibrate(tmp_path, command, text, data):
    """Every run exits with a documented code and prints no traceback."""
    path = tmp_path / "data.csv"
    path.write_text(text)
    flags = data.draw(st.sets(st.sampled_from(OPTIONAL_FLAGS[command]), max_size=4), label="flags")
    if command == "predict":
        flags.add("--x")
    argv = [command, str(path)]
    for flag in sorted(flags):
        argv += [flag, data.draw(OPTION_VALUES[flag], label=flag)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    event(f"exit {code}")
    assert code in (0, 2, 3, 4, 5), err.getvalue()
    assert "Traceback" not in err.getvalue()
