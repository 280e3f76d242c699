"""CLI: dispatch, exit codes, deterministic serialization."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tradegains.cli as cli
import tradegains.geometry as geometry
import tradegains.ratio as ratio
import tradegains.search as search
from tradegains.errors import InvariantViolation

from conftest import NON_NUMBER_SUGAR

UU_JSON = {
    "buyer": {"kind": "uniform", "lo": 0, "hi": 1},
    "seller": {"kind": "uniform", "lo": 0, "hi": 1},
}
EMPTY_TRADE_JSON = {
    "buyer": {"kind": "point", "value": 0.0},
    "seller": {"kind": "point", "value": 1.0},
}


@pytest.fixture
def uu_path(tmp_path):
    path = tmp_path / "uu.json"
    path.write_text(json.dumps(UU_JSON))
    return str(path)


@pytest.fixture
def empty_trade_path(tmp_path):
    path = tmp_path / "empty-trade.json"
    path.write_text(json.dumps(EMPTY_TRADE_JSON))
    return str(path)


@pytest.fixture(autouse=True)
def printed_payloads_match_json(monkeypatch):
    """Every JSON payload a test here prints is checked against ``json.dumps(payload, indent=2)``."""
    dispatch = cli._dispatch

    def checked(args):
        payload = dispatch(args)
        if not isinstance(payload, str):
            assert cli.dumps_indented(payload) == json.dumps(payload, indent=2)
        return payload

    monkeypatch.setattr(cli, "_dispatch", checked)


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_fb_command(capsys, uu_path):
    code, payload = run_json(capsys, ["fb", "--instance", uu_path])
    assert code == 0
    assert payload["fb"] == pytest.approx(1 / 6, abs=1e-12)


def test_eq_command(capsys, uu_path):
    code, payload = run_json(capsys, ["eq", "--instance", uu_path])
    assert code == 0
    assert payload["gft"] == pytest.approx(1 / 8, abs=1e-12)
    assert payload["u_buyer"] == pytest.approx(1 / 12, abs=1e-12)


def test_lambda_opt_command(capsys):
    code, payload = run_json(capsys, ["lambda-opt"])
    assert code == 0
    assert payload["lambda_star"] == pytest.approx(0.31784, abs=1e-4)
    assert payload["ratio_star"] == pytest.approx(3.1462, abs=1e-4)


@pytest.mark.parametrize("tol", ["1", "3", "1e308", "inf"])
def test_lambda_opt_tolerance_of_one_or_more_exits_one(capsys, tol):
    assert cli.run(["lambda-opt", "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: tol must lie in (0, 1), got {float(tol)!r}\n"


def test_decompose_fixed_v(capsys, uu_path):
    code, payload = run_json(
        capsys, ["decompose", "--instance", uu_path, "--lambda", "0.5", "--v", "1.0"]
    )
    assert code == 0
    assert payload["area_S"] == 0.125
    assert payload["area_B"] == 0.375


@pytest.mark.parametrize("v", ["nan", "inf"])
@pytest.mark.parametrize(
    "seller",
    [{"kind": "uniform", "lo": 0, "hi": 1}, {"kind": "discrete", "atoms": [[0.2, 0.5], [0.7, 0.5]]}],
    ids=["pwl", "discrete"],
)
def test_decompose_non_finite_v_exits_one(capsys, tmp_path, v, seller):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"buyer": UU_JSON["buyer"], "seller": seller}))
    argv = ["decompose", "--instance", str(path), "--lambda", "0.5", "--v", v]
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: v must be finite")


def test_decompose_aggregate(capsys, uu_path):
    code, payload = run_json(capsys, ["decompose", "--instance", uu_path, "--lambda", "0.5"])
    assert code == 0
    assert payload["fb"] == pytest.approx(1 / 6, abs=1e-12)
    assert payload["area_S"] + payload["area_B"] == pytest.approx(payload["fb"], abs=1e-12)


def test_verify_command_embeds_margins(capsys, uu_path):
    code, payload = run_json(capsys, ["verify", "--instance", uu_path, "--lambda", "0.5"])
    assert code == 0
    assert payload["slacks"]["quarter"] >= 0.0
    assert payload["margin_315"] > 0.0
    assert payload["margin_4"] > 0.0


def test_verify_trivial_instance(capsys, empty_trade_path):
    code, payload = run_json(
        capsys, ["verify", "--instance", empty_trade_path, "--lambda", "0.5"]
    )
    assert code == 0
    assert payload["fb"] == 0.0
    assert payload["gft"] == 0.0
    assert all(abs(s) <= 1e-12 for s in payload["slacks"].values())


def test_simulate_command(capsys, uu_path):
    code, payload = run_json(
        capsys, ["simulate", "--instance", uu_path, "--trials", "20000", "--seed", "5"]
    )
    assert code == 0
    est = payload["fb"]
    assert abs(est["mean"] - 1 / 6) <= 5 * est["stderr"]
    assert payload["mechanism"]["gft"]["trials"] == 20000


def test_search_command(capsys):
    code, payload = run_json(
        capsys, ["search", "--atoms", "4", "--iters", "10", "--restarts", "2", "--seed", "3"]
    )
    assert code == 0
    assert 1.0 <= payload["best_ratio"] <= 3.1463
    assert "buyer" in payload["best_instance"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--step-scale", "inf"], "step_scale must be finite and positive, got inf"),
        (["--lo=-1.7e308", "--hi=1.7e308"], "the width hi - lo of value_range (-1.7e+308, 1.7e+308) overflows a float"),
    ],
)
def test_search_unbounded_step_or_range_exits_one_with_one_line(capsys, flags, message):
    assert cli.run(["search", "--atoms", "2", "--iters", "2", "--restarts", "1", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_sweep_json_and_csv_agree(capsys, uu_path):
    code = cli.run(["sweep", "--instance", uu_path, "--lambda-grid", "0.1:0.9:9"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 9

    code = cli.run(["sweep", "--instance", uu_path, "--lambda-grid", "0.1:0.9:9", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert header == list(cli.SWEEP_COLUMNS)
    assert len(lines) == 10
    for row, line in zip(rows, lines[1:]):
        cells = line.split(",")
        for col, cell in zip(header, cells):
            assert float(cell) == row[col]  # identical to full precision
            assert cell == repr(float(row[col]))
    for row in rows:
        for name in ("slack_identity", "slack_area_log", "slack_avg", "slack_avg_swap", "slack_gft_floor"):
            assert row[name] >= -1e-9


def test_sweep_single_point_matches_verify(capsys, uu_path):
    code, rows = run_json(capsys, ["sweep", "--instance", uu_path, "--lambda-grid", "0.5:0.5:1"])
    assert code == 0
    assert len(rows) == 1
    code, verify_payload = run_json(capsys, ["verify", "--instance", uu_path, "--lambda", "0.5"])
    assert rows[0]["fb"] == verify_payload["fb"]
    assert rows[0]["slack_avg"] == verify_payload["slacks"]["avg"]


def test_sweep_minimal_ratio_bound_at_reported_lambda(capsys, uu_path):
    # grid contains the reported optimum; its row has the smallest bound
    code, rows = run_json(
        capsys, ["sweep", "--instance", uu_path, "--lambda-grid", "0.11784:0.51784:5"]
    )
    assert code == 0
    best = min(rows, key=lambda r: r["ratio_bound"])
    assert best["lambda"] == pytest.approx(0.31784, abs=1e-12)


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("lam", ["5e-324", "1e-310"])
def test_subnormal_lambda_prints_strict_json(capsys, uu_path, lam):
    # ln(1/lambda) must not go through 1/lambda, which overflows to inf here
    assert cli.run(["verify", "--instance", uu_path, "--lambda", lam]) == 0
    report = _strict_json(capsys.readouterr().out)
    assert report["slacks"]["area_log"] > 0.0
    assert cli.run(["sweep", "--instance", uu_path, "--lambda-grid", f"{lam}:{lam}:1"]) == 0
    (row,) = _strict_json(capsys.readouterr().out)
    assert cli.run(["sweep", "--instance", uu_path, "--lambda-grid", f"{lam}:{lam}:1", "--format", "csv"]) == 0
    cells = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert all(math.isfinite(float(cell)) for cell in cells)
    assert row["ratio_bound"] == float(cells[cli.SWEEP_COLUMNS.index("ratio_bound")])


def test_cli_outputs_are_byte_identical(capsys, uu_path):
    cli.run(["verify", "--instance", uu_path, "--lambda", "0.31784"])
    first = capsys.readouterr().out
    cli.run(["verify", "--instance", uu_path, "--lambda", "0.31784"])
    second = capsys.readouterr().out
    assert first == second


def test_closed_stdout_exits_one_without_a_traceback(uu_path):
    # stdout's reader is gone before the sweep writes its ~80 KB of rows,
    # as in ``tradegains sweep ... | head -1`` once head has exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = ["sweep", "--instance", uu_path, "--lambda-grid", "0.01:0.99:200"]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tradegains.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert b"Traceback" not in proc.stderr
    assert proc.stderr == b""
    assert proc.returncode == 1


def test_missing_file_exits_one(capsys):
    assert cli.run(["fb", "--instance", "/nonexistent/file.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_invalid_json_exits_one(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.run(["fb", "--instance", str(path)]) == 1


def test_invalid_distribution_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "buyer": {"kind": "discrete", "atoms": [{"value": 0, "prob": 0.4}]},
        "seller": {"kind": "uniform", "lo": 0, "hi": 1},
    }))
    assert cli.run(["fb", "--instance", str(path)]) == 1
    err = capsys.readouterr().err
    assert "sum != 1" in err


@pytest.mark.parametrize("buyer", NON_NUMBER_SUGAR)
def test_non_number_sugar_exits_one(capsys, tmp_path, buyer):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"buyer": buyer, "seller": UU_JSON["seller"]}))
    assert cli.run(["eq", "--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_a_buyer_prior_whose_own_span_overflows_exits_one_with_one_line(capsys, tmp_path):
    # refused as a prior, before the two priors' span is checked
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"buyer": {"kind": "uniform", "lo": -1e308, "hi": 1e308}, "seller": UU_JSON["seller"]}))
    assert cli.run(["eq", "--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: buyer: the value span -1e+308 .. 1e+308 of the prior overflows a float\n"


def test_non_utf8_file_exits_one(capsys, tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{}")
    assert cli.run(["eq", "--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_one_equilibrium_per_command(capsys, uu_path, monkeypatch):
    solved = []
    for module in (geometry, ratio, search):
        def counted(instance, solve=module.equilibrium):
            solved.append(instance)
            return solve(instance)

        monkeypatch.setattr(module, "equilibrium", counted)

    assert cli.run(["sweep", "--instance", uu_path, "--lambda-grid", "0.05:0.95:19"]) == 0
    assert len(solved) == 1
    solved.clear()
    assert cli.run(["verify", "--instance", uu_path, "--lambda", "0.5"]) == 0
    assert len(solved) == 1
    solved.clear()
    capsys.readouterr()
    code, payload = run_json(
        capsys, ["search", "--atoms", "3", "--iters", "4", "--restarts", "2", "--seed", "1"]
    )
    assert code == 0
    assert len(solved) == payload["evaluations"] == 10


def test_unknown_command_and_flag_exit_one(capsys):
    assert cli.run(["frobnicate"]) == 1
    assert cli.run(["fb", "--nope"]) == 1
    assert cli.run([]) == 1


def test_argument_error_leaves_the_shared_parser_usable(capsys, uu_path):
    # the parser is built once per process and reused by every run
    assert cli._build_parser() is cli._build_parser()
    assert cli.run(["eq", "--instance"]) == 1
    assert "error:" in capsys.readouterr().err
    code, payload = run_json(capsys, ["eq", "--instance", uu_path])
    assert code == 0
    assert payload["u_buyer"] == pytest.approx(1 / 12, abs=1e-12)


def test_bad_lambda_grid_exits_one(capsys, uu_path):
    assert cli.run(["sweep", "--instance", uu_path, "--lambda-grid", "0:0.9:5"]) == 1
    assert cli.run(["sweep", "--instance", uu_path, "--lambda-grid", "0.9:0.1:5"]) == 1
    assert cli.run(["sweep", "--instance", uu_path, "--lambda-grid", "nope"]) == 1
    assert cli.run(["sweep", "--instance", uu_path, "--lambda-grid", "0.2:0.4:1"]) == 1


def test_bad_lambda_exits_one(capsys, uu_path):
    assert cli.run(["verify", "--instance", uu_path, "--lambda", "1.5"]) == 1


def test_invariant_violation_exits_two(capsys, uu_path, monkeypatch):
    def boom(instance, lam):
        raise InvariantViolation("forced for the exit-code contract")

    monkeypatch.setattr(cli, "verify_bounds", boom)
    assert cli.run(["verify", "--instance", uu_path, "--lambda", "0.5"]) == 2
    assert "invariant violation" in capsys.readouterr().err


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
    | st.text()
    | st.sampled_from(["\x00\x1f\x7f", "\u00e9\u2028\U0001f600", '"\\/\b\f\n\r\t'])
)
KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
PAYLOADS = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(KEYS, children, max_size=5),
    max_leaves=40,
)


@given(PAYLOADS)
def test_writer_matches_json_dumps(payload):
    assert cli.dumps_indented(payload) == json.dumps(payload, indent=2)


def test_writer_on_the_cli_payload_shapes():
    flat = {"a": -0.0, "b": math.nan, "c": math.inf, "d": -math.inf, "e": 1e-310, "f": 2, "g": "x"}
    for payload in (
        [dict(flat) for _ in range(3)],  # sweep
        {**flat, "slacks": dict(flat), "margin_315": 0.5, "margin_4": 0.25},  # verify
        {"fb": dict(flat), "mechanism": {"gft": dict(flat), "trials": 7, "seed": 3}},  # simulate
        {"best_ratio": 1.5, "best_instance": {"buyer": {"values": [0.1], "probs": [1.0]}}, "trace": [[0, 1.5], []]},
        [], {}, [[]], [{}, 1, [2, [3]], {"k": []}], 0.1, "s", None,
    ):
        assert cli.dumps_indented(payload) == json.dumps(payload, indent=2)


def test_writer_leaves_json_its_own_text_and_errors(monkeypatch):
    cyclic = []
    cyclic.append(cyclic)
    with pytest.raises(ValueError, match="Circular reference detected"):
        cli.dumps_indented({"a": [1, cyclic]})
    with pytest.raises(TypeError, match="is not JSON serializable"):
        cli.dumps_indented({"a": [1, {"b": object()}]})
    # where json has no C encoder
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    payload = {"a": [1.5, {"b": -0.0}], "c": math.nan}
    assert cli.dumps_indented(payload) == json.dumps(payload, indent=2)
