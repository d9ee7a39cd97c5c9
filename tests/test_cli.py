import json

import pytest

from gcfcp import conformal
from gcfcp.cli import main
from gcfcp.conformal import EmptySetError
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
    assert lines
    first = json.loads(lines[0])
    assert set(first) == {"client_id", "atom", "compression", "clusters"}


def test_predict_prints_interval(dataset_csv, capsys):
    code = main(
        ["predict", str(dataset_csv), "--x", "1.5", "--prediction", "2.0",
         "--delta", "100", "--groups", SMALL_GROUPS]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "pattern=1100" in out and "interval=[" in out


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
    assert main(["experiment", "--mixture", "[0.9, 0.9]", "--trials", "1"]) == 2
    assert main(["experiment", "--groups", "{bad json", "--trials", "1"]) == 2
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


def test_bench_runs(capsys):
    code = main(
        ["bench", "--clients", "4", "--delta", "100", "--test-points", "20",
         "--calibrators", "gcfcp_centralized,gcfcp_coreset"]
    )
    assert code == 0
    assert "speedup" in capsys.readouterr().out
