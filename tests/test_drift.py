"""The drift tool's number matching and output comparison, on short strings."""

import importlib.util
import json
from pathlib import Path

import pytest

import tradegains.cli as cli

SPEC = importlib.util.spec_from_file_location("drift", Path(__file__).resolve().parent.parent / "tools" / "drift.py")
drift = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(drift)


@pytest.mark.parametrize(
    "text",
    ["margin_315", "x2", "lambda_0.5", "3a", "v1.2", "a.5"],
)
def test_digits_inside_a_name_are_not_a_number(text):
    assert drift.NUMBER.findall(text) == []


@pytest.mark.parametrize(
    "text, numbers",
    [
        ("fb 0.3275", ["0.3275"]),
        ("slack -2.8e-08", ["-2.8e-08"]),
        ("1e+15 and 1E-300", ["1e+15", "1E-300"]),
        ("u_B: -0.25, gft: 3", ["-0.25", "3"]),
        ('{"ratio": 1.5041}', ["1.5041"]),
        ("a,b\n0.1,-7\n", ["0.1", "-7"]),
    ],
)
def test_exponents_and_negative_numbers_are_numbers(text, numbers):
    assert drift.NUMBER.findall(text) == numbers


def test_identical_outputs_move_by_zero():
    out = "margin_315 0.30625 -1e-17\n"
    assert drift.compare(out, out) == (True, 0.0)


def test_a_change_in_the_text_is_flagged():
    assert drift.compare("gft 0.5\n", "fb 0.5\n") == (False, 0.0)
    # a name's digits are text, not a number that moved
    assert drift.compare("margin_315 0.5", "margin_316 0.5") == (False, 0.0)
    # so is a number that appears or disappears
    assert drift.compare("fb 0.5", "fb 0.5 0.5")[0] is False


def test_a_moved_number_reports_its_move_relative_to_max_one_and_the_base():
    same, move = drift.compare("fb 0.25 gft 1000.0", "fb 0.5 gft 1001.0")
    assert same
    assert move == 0.25  # 0.25 / max(1, 0.25) beats 1 / 1000
    assert drift.compare("x -4e2", "x -4.04e2") == (True, pytest.approx(0.01))


def test_each_seed_ends_with_long_grid_and_other_calls_on_existing_instances(tmp_path):
    calls = drift.build_calls([1], tmp_path)
    assert calls[-1] == ("other", ["lambda-opt"])
    assert sum(argv[0] == "lambda-opt" for _, argv in calls) == 1
    tail = calls[-11:-1]
    assert [name for name, _ in tail] == (["long-grid"] * 2 + ["other"] * 3) * 2
    assert [Path(argv[2]).name for _, argv in tail] == ["d256.json"] * 5 + ["pd320.json"] * 5
    for k in (0, 5):
        (_, json_sweep), (_, csv_sweep), (_, fb), (_, aggregate), (_, fixed_v) = tail[k : k + 5]
        path = fb[2]
        assert Path(path).is_file()
        assert json_sweep == ["sweep", "--instance", path, "--lambda-grid", drift.LONG_GRID, "--format", "json"]
        assert csv_sweep == json_sweep[:-1] + ["csv"]
        assert fb == ["fb", "--instance", path]
        assert aggregate == ["decompose", "--instance", path, "--lambda", drift.DECOMPOSE_LAMBDA]
        # the fixed-v call conditions on a value of one of the buyer's atoms or knots
        assert fixed_v[:-1] == aggregate + ["--v"]
        buyer = json.loads(Path(path).read_text())["buyer"]
        assert float(fixed_v[-1]) in [entry["value"] for entry in buyer.get("atoms") or buyer["knots"]]


def test_each_refused_call_exits_one_with_error_lines(tmp_path, capsys):
    calls = drift.refused_calls(tmp_path / "refused")
    assert [name for name, _ in calls] == ["refused"] * 11
    for _, argv in calls:
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


def test_a_changed_error_line_is_flagged(tmp_path, monkeypatch, capsys):
    argv = ["eq", "--instance", "bad.json"]
    monkeypatch.setattr(drift, "refused_calls", lambda directory: [("refused", argv)] * 2)
    monkeypatch.setattr(drift, "build_calls", lambda seeds, directory: [])
    base = [[1, "", "error: buyer: need at least 2 knots\n"]] * 2
    head = [base[0], [1, "", "error: buyer: need at least two knots\n"]]
    monkeypatch.setattr(drift, "run_checkouts", lambda checkouts, argvs, directory: [base, head])
    assert drift.main(["--base", str(drift.ROOT), "--seeds", "1"]) == 1
    total = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("total"))
    # calls, exit codes differing, identical, text differing, stderr differing
    assert total.split()[1:6] == ["2", "0", "1", "0", "1"]
