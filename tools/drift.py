"""Drift run: every CLI call of the benchmark's workloads on two checkouts, compared.

    python tools/drift.py --base <checkout> --seeds 1 5

For each seed it builds every workload's instance files with the builders
of ``perfbench/workloads.py`` (from this checkout, into a temporary
directory) and lists the CLI calls of one round of each: 1,402 per seed.
Four ``long-grid`` calls per seed follow: ``sweep`` over a 1,000-lambda
grid, as JSON and as CSV, on discrete-large's 256-atom ``d256`` and on
pwl-exact's 32-knot ``pd320``. Their grids cross the block boundaries of
``geometry._bound_report``, which no workload's 19-lambda grid reaches.
The base and this checkout then run all of them, in order, each in one
process of its own that imports ``tradegains`` from the checkout's
``src/``. Nothing under ``perfbench/`` is written.

It prints, per workload, in total and then per workload and command: the
calls, the exit-code mismatches, the byte-identical outputs, the outputs
whose text differs outside its numbers, and the largest move of a printed
number relative to ``max(1, |x|)``, with ``x`` the base's number. The exit
code is 1 when an exit code or the text around the numbers differs, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: A printed number; digits inside a name such as ``margin_315`` are not one.
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.])")


#: The long-grid sweeps: their grid, and the (workload, instance) files they run on.
LONG_GRID = "0.001:0.999:1000"
LONG_GRID_INSTANCES = (("discrete-large", "d256"), ("pwl-exact", "pd320"))


def build_calls(seeds: list[int], directory: Path) -> list[tuple[str, list[str]]]:
    """``(workload, argv)`` of every call of one round of each workload, then the long-grid sweeps, seed by seed."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    calls = []
    for seed in seeds:
        for name, workload in WORKLOADS.items():
            _, ops = workload.build(seed, str(directory / f"{name}-{seed}"))
            calls.extend((name, list(argv)) for op in ops for argv in op.calls)
        for name, key in LONG_GRID_INSTANCES:
            path = str(directory / f"{name}-{seed}" / f"{key}.json")
            for fmt in ("json", "csv"):
                calls.append(("long-grid", ["sweep", "--instance", path, "--lambda-grid", LONG_GRID, "--format", fmt]))
    return calls


def worker(src: str, calls_path: str, out_path: str) -> None:
    """Run every call through ``tradegains.cli.run``; write ``[exit code, stdout]`` per call."""
    sys.path.insert(0, src)
    import tradegains.cli

    package = Path(tradegains.__file__).resolve().parent
    if package != (Path(src) / "tradegains").resolve():
        sys.exit(f"error: imported tradegains from {package}, not from {src}")
    results = []
    for argv in json.loads(Path(calls_path).read_text()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = tradegains.cli.run(argv)
        results.append([rc, out.getvalue()])
    Path(out_path).write_text(json.dumps(results))


def run_checkouts(checkouts: list[Path], argvs: list[list[str]], directory: Path) -> list[list]:
    """Each checkout's results, its process running alongside the others."""
    calls_path = directory / "calls.json"
    calls_path.write_text(json.dumps(argvs))
    procs = []
    for i, checkout in enumerate(checkouts):
        out_path = directory / f"results-{i}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(checkout / "src"), str(calls_path), str(out_path)]
        procs.append((subprocess.Popen(cmd), out_path))
    codes = [proc.wait() for proc, _ in procs]
    for checkout, code in zip(checkouts, codes):
        if code != 0:
            sys.exit(f"error: the run on {checkout} failed")
    return [json.loads(out_path.read_text()) for _, out_path in procs]


def compare(base: str, head: str) -> tuple[bool, float]:
    """Whether the two outputs agree outside their numbers, and the largest relative move."""
    if base == head:
        return True, 0.0
    if NUMBER.sub("#", base) != NUMBER.sub("#", head):
        return False, 0.0
    move = 0.0
    for b, h in zip(NUMBER.findall(base), NUMBER.findall(head)):
        x, y = float(b), float(h)
        move = max(move, abs(y - x) / max(1.0, abs(x)))
    return True, move


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, help="checkout whose outputs are the reference")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 5])
    parser.add_argument("--worker", nargs=3, metavar=("SRC", "CALLS", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(*args.worker)
        return 0
    if args.base is None:
        parser.error("--base is required")
    if not (args.base / "src" / "tradegains" / "__init__.py").is_file():
        parser.error(f"{args.base} is not a checkout of tradegains")

    with tempfile.TemporaryDirectory(prefix="drift-") as tmp:
        directory = Path(tmp)
        calls = build_calls(args.seeds, directory)
        base_results, head_results = run_checkouts(
            [args.base.resolve(), ROOT], [argv for _, argv in calls], directory
        )

    counts = ("calls", "exit_mismatch", "identical", "text_differs")
    rows: dict[str, dict] = {}
    command_rows: dict[str, dict] = {}
    worst = (0.0, "")
    for (name, argv), (b_rc, b_out), (h_rc, h_out) in zip(calls, base_results, head_results):
        same_text, move = compare(b_out, h_out) if b_rc == h_rc else (True, 0.0)
        for row in (rows.setdefault(name, {}), command_rows.setdefault(f"{name} {argv[0]}", {})):
            for key, add in zip(counts, (1, b_rc != h_rc, b_rc == h_rc and b_out == h_out, not same_text)):
                row[key] = row.get(key, 0) + add
            row["max_move"] = max(row.get("max_move", 0.0), move)
        if move > worst[0]:
            worst = (move, f"{name}: {' '.join(argv[:1] + [Path(a).name for a in argv[1:]])}")
    total = {key: sum(row[key] for row in rows.values()) for key in counts}
    total["max_move"] = worst[0]
    rows["total"] = total

    print(f"seeds {' '.join(map(str, args.seeds))}: base {args.base}, head {ROOT}")
    print(f"{'workload':<24}{'calls':>7}{'exit≠':>7}{'identical':>11}{'text≠':>7}  max relative move")
    for name, row in [*rows.items(), *command_rows.items()]:
        print(
            f"{name:<24}{row['calls']:>7}{row['exit_mismatch']:>7}{row['identical']:>11}"
            f"{row['text_differs']:>7}  {row['max_move']:.3g}"
        )
    if worst[0] > 0.0:
        print(f"largest move in {worst[1]}")
    return 1 if total["exit_mismatch"] or total["text_differs"] else 0


if __name__ == "__main__":
    sys.exit(main())
