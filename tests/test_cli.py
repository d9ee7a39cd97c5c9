import argparse
import contextlib
import csv
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from gcfcp import cli, conformal
from gcfcp.cli import main
from gcfcp.conformal import EmptySetError
from gcfcp.datagen import SynthConfig
from gcfcp.federation import message_from_json
from gcfcp.harness import ExperimentConfig, _synth_trial_data
from gcfcp.pinball import SolverError

SMALL_GROUPS = json.dumps(
    {
        "kind": "intervals",
        "feature": 0,
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
    assert list(first) == ["client_id", "n", "pi", "delta", "family", "atoms", "counts", "crc32", "data"]
    assert [message_from_json(line).client_id for line in lines] == [1, 2, 3, 4]
    assert capsys.readouterr().err.startswith("4 messages, ")


def test_predict_prints_interval(dataset_csv, capsys):
    code = main(
        ["predict", str(dataset_csv), "--x", "1.5", "--prediction", "2.0",
         "--delta", "100", "--groups", SMALL_GROUPS]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "pattern=1100" in out and "interval=[" in out


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
    assert main(["experiment", "--groups", "{bad json", "--trials", "1"]) == 2
    reversed_bounds = '{"kind": "intervals", "groups": [{"lo": 0, "hi": 5}, {"lo": 3, "hi": 1}]}'
    assert main(["experiment", "--groups", reversed_bounds, "--trials", "1"]) == 2
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
        {"kind": "intervals", "feature": 0,
         "groups": [{"lo": 0, "hi": 5}, {"lo": 90, "hi": 91}]}
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


def test_exit_code_ingest_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("client_id,predicted_label,true_label,score_0\n1,0,0,2.5\n")
    code = main(
        ["experiment", "--trials", "1", "--ingest", str(bad),
         "--calibrators", "centralized_cp", "--serial"]
    )
    assert code == 4
    assert "ingestion" in capsys.readouterr().err


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


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
FIELD = st.one_of(
    ANY_FLOAT.map(repr),
    st.sampled_from(["nan", "inf", "-inf", "", "x", "1e999", "0", "2.5"]),
)


@st.composite
def dataset_text(draw):
    """A dataset CSV of two clients: well-formed half the time, otherwise with
    one defect: no rows at all, a bad header, a junk or short row, or one
    non-finite or out-of-range covariate or score."""
    rows = [
        f"{1 + i % 2},{draw(st.floats(0.0, 5.0))!r},0.0,{draw(st.floats(0.0, 3.0))!r}"
        for i in range(draw(st.integers(2, 30)))
    ]
    defect = draw(st.sampled_from(["none"] * 5 + ["empty", "header", "junk", "value"]))
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
    return "\n".join([header, *rows]) + "\n"


OPTION_VALUES = {
    "--alpha": st.one_of(st.floats(1e-6, 0.5), ANY_FLOAT).map(repr),
    "--delta": st.one_of(st.floats(2.0, 500.0), ANY_FLOAT).map(repr),
    "--groups": st.sampled_from(
        [SMALL_GROUPS, "{bad json", "[]", '{"kind": "intervals", "groups": []}', "null",
         '{"kind": "intervals", "feature": 0, "groups": [{"lo": 0, "hi": "x"}]}']
    ),
    "--mixture": st.sampled_from(["uniform", "[0.5, 0.5]", "[NaN, 1]", "[1]", "{", "[2, -1]"]),
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
