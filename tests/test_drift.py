"""The drift tool's number matching and output comparison, on short strings."""

import importlib.util
from pathlib import Path

import pytest

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


def test_each_seed_ends_with_long_grid_sweeps_on_existing_instances(tmp_path):
    calls = drift.build_calls([1], tmp_path)
    long_grid = [argv for name, argv in calls if name == "long-grid"]
    assert [name for name, _ in calls[-4:]] == ["long-grid"] * 4 and len(long_grid) == 4
    for argv in long_grid:
        assert argv[:2] + argv[3:6] == ["sweep", "--instance", "--lambda-grid", drift.LONG_GRID, "--format"]
        assert Path(argv[2]).is_file()
    assert {Path(argv[2]).name for argv in long_grid} == {"d256.json", "pd320.json"}
    assert {argv[-1] for argv in long_grid} == {"json", "csv"}
