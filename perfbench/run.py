"""tradegains benchmark: run one workload through the CLI and print its metrics.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload sweep-small --repeat 10 [--against FILE]
    python3 perfbench/run.py --workload sweep-small --seed 1 --write-instances DIR

A run sets up (imports the library from ``src/`` of this checkout, generates
the workload's instances from ``--seed``, writes them as instance files and
runs one warm-up operation) five times, then runs whole rounds of the
workload's operations through ``tradegains.cli.run`` in this process for
about ``--seconds``, then checks every distinct output against the oracles
in ``oracles.py``. Every timed stretch is bracketed by a host-speed probe
(``hostspeed.py``) and scaled to the host's calm speed. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. The line before it holds every
figure of the run, including the workload-specific ones and the plain
wall-time ones, and the versions of the machine's software.

``--repeat N`` runs the workload N times, each in its own process with
seeds ``seed .. seed+N-1``, saves the results under ``perfbench/_work/``
and prints each metric's median, quartiles and spread; ``--against`` an
earlier result file also says whether the two sets agree within the bounds
of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_REPEATS = 5
#: A traced run alternates untraced and traced rounds and traces at most
#: this many, which bounds the spans kept in memory.
TRACED_ROUNDS = 2

# one process, one thread: the machine has 2 cores and each run must not
# compete with itself
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

# the keys of workloads.WORKLOADS, listed here because importing workloads
# imports numpy, which must come after the timed import of the library
WORKLOAD_NAMES = ("sweep-small", "discrete-large", "pwl-exact", "montecarlo")


class BudgetExceeded(BaseException):
    """Raised from SIGALRM when an operation outlives its budget.

    A ``BaseException`` so that no handler in the library catches it.
    """


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def import_library():
    """Import ``tradegains`` (and with it numpy) from this checkout; return (package, scaled seconds)."""
    package = ROOT / "src" / "tradegains"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    from hostspeed import HostProbe

    probe = HostProbe("interpreter")
    before = probe()
    t0 = time.perf_counter()
    import tradegains
    import tradegains.cli

    seconds = (time.perf_counter() - t0) * probe.scale(before, probe())
    if Path(tradegains.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported tradegains from {tradegains.__file__}, not from {package}")
    return tradegains, seconds


def run_op(cli, op, budget_s, tracer=None):
    """Run one operation under its time budget; return (seconds, status, outputs)."""
    outputs = []
    status = "ok"
    real_out, real_err = sys.stdout, sys.stderr
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            for argv in op.calls:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    if tracer is None:
                        rc = cli.run(list(argv))
                    else:
                        rc = tracer.call("cli.run", cli.run, list(argv))
                if rc != 0:
                    status = f"exit {rc}"
                    break
                outputs.append(buf.getvalue())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        status = "budget"
    elapsed = time.perf_counter() - t0
    sys.stdout, sys.stderr = real_out, real_err
    if tracer is not None:
        tracer.reset_stack()
    return elapsed, status, outputs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment() -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def measure(args) -> tuple[dict, dict]:
    tg, import_s = import_library()
    from hostspeed import HostProbe
    from workloads import WORKLOADS, Op

    wl = WORKLOADS[args.workload]
    cli = tg.cli
    signal.signal(signal.SIGALRM, _on_alarm)
    directory = WORK / f"{wl.name}-seed{args.seed}"

    reference: dict[str, list[str]] = {}  # op name -> outputs of its first success
    setup_probe = HostProbe("interpreter")
    setups = []
    for _ in range(SETUP_REPEATS):
        before = setup_probe()
        t0 = time.perf_counter()
        instances, ops = wl.build(args.seed, str(directory))
        _, status, outputs = run_op(cli, ops[0], wl.budget_s)
        setups.append((time.perf_counter() - t0) * setup_probe.scale(before, setup_probe()))
        if status == "ok":
            reference.setdefault(ops[0].name, outputs)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer("tradegains")

    # records: (round, index, seconds, status, traced, scaled seconds)
    records = []
    round_walls = []
    probe = HostProbe(wl.host_kernel)
    before = probe()
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(round_walls) % 2 == 1 and len(round_walls) < 2 * TRACED_ROUNDS
        if traced:
            tracer.install()
        t_round = time.perf_counter()
        try:
            for i, op in enumerate(ops):
                if traced:
                    tracer.op = len(round_walls) * len(ops) + i
                seconds, status, outputs = run_op(cli, op, wl.budget_s, tracer if traced else None)
                after = probe()
                # an operation stopped by its budget ran for the budget's wall
                # time, which the host's speed does not change
                scaled = seconds if status == "budget" else seconds * probe.scale(before, after)
                before = after
                if status == "ok":
                    if reference.setdefault(op.name, outputs) != outputs:
                        status = "nondeterministic"
                records.append((len(round_walls), i, seconds, status, traced, scaled))
        finally:
            if traced:
                tracer.remove()
        round_walls.append(time.perf_counter() - t_round)
        min_rounds = 2 if tracer is not None else 1
        if len(round_walls) >= min_rounds and (
            time.perf_counter() - start + statistics.median(round_walls) > args.seconds
        ):
            break
    measured_s = time.perf_counter() - start

    # correctness, outside the timed region
    from checks import Checker, check_outputs

    def eq_output(key):
        op = Op("eq", "instance", (("eq", "--instance", str(directory / f"{key}.json")),), key)
        _, status, outputs = run_op(cli, op, wl.budget_s)
        return json.loads(outputs[0]) if status == "ok" else {}

    t_check = time.perf_counter()
    problems = check_outputs(Checker(instances, eq_output), ops, reference)
    check_s = time.perf_counter() - t_check
    records = [
        (r, i, s, "oracle" if st == "ok" and ops[i].name in problems else st, tr, sc)
        for r, i, s, st, tr, sc in records
    ]
    wrong = any(rec[3] in ("oracle", "nondeterministic") for rec in records)
    completed = [rec for rec in records if rec[3] == "ok"]

    failures: dict[str, int] = {}
    for rec in records:
        if rec[3] != "ok":
            failures[rec[3]] = failures.get(rec[3], 0) + 1
    summary = {
        "correct": not wrong and bool(completed),
        "attempted": len(records),
        "failed": len(records) - len(completed),
    }
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "rounds": len(round_walls),
        "ops_per_round": len(ops),
        "import_s": import_s,
        "setup_repeats_s": setups,
        "check_s": check_s,
        "host_kernel": probe.kernel,
        "host_slowdown": statistics.median(probe.samples) / probe.nominal_s,
        "failures": failures,
        "problems": problems,
        "env": environment(),
    }

    if tracer is None:
        metrics = end_to_end(records, ops, reference, import_s + statistics.median(setups), len(round_walls))
    else:
        from spans import UNITS, probe_metrics

        traced_ops = {r * len(ops) + i: ops[i].kind for r, i, _, st, tr, _ in records if tr and st == "ok"}
        values = tracer.layer_metrics(traced_ops)
        values["trace.overhead_pct"] = tracing_overhead(records, ops)
        values.update(probe_metrics(tg))
        metrics = {name: (value, UNITS[name]) for name, value in values.items()}
        WORK.mkdir(parents=True, exist_ok=True)
        spans_path = WORK / f"spans-{wl.name}-seed{args.seed}.jsonl.gz"
        tracer.write(str(spans_path))
        detail["spans"] = str(spans_path.relative_to(ROOT))
    detail["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    return summary, detail


def typical(records, ops, scaled=True) -> dict[str, float]:
    """Each operation's median time over the run's rounds, by name.

    Scaled times (see ``hostspeed.py``) by default; ``scaled=False`` gives
    the plain wall times for the detail line.
    """
    times: dict[str, list[float]] = {}
    for rec in records:
        times.setdefault(ops[rec[1]].name, []).append(rec[5] if scaled else rec[2])
    return {name: statistics.median(values) for name, values in times.items()}


def fastest(records, ops, traced) -> dict[str, float]:
    """Each operation's fastest scaled time in the traced or the untraced rounds, by name."""
    best: dict[str, float] = {}
    for _, i, _, _, was_traced, scaled in records:
        if was_traced == traced:
            name = ops[i].name
            best[name] = min(scaled, best.get(name, scaled))
    return best


def end_to_end(records, ops, reference, setup_s, rounds) -> dict:
    """End-to-end metrics as (value, unit); the workload-specific ones ride along."""
    from workloads import MC_TRIALS

    times = typical(records, ops)
    wall = typical(records, ops, scaled=False)
    kind = {op.name: op.kind for op in ops}
    completed = sum(1 for rec in records if rec[3] == "ok")
    latencies = sorted(times[name] * 1e3 for name in times if kind[name] != "search")
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (completed / rounds / sum(times[op.name] for op in ops), "op/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "wall_ops_per_s": (completed / rounds / sum(wall[op.name] for op in ops), "op/s"),
        "wall_op_p50_ms": (statistics.median(wall[n] * 1e3 for n in wall if kind[n] != "search"), "ms"),
    }
    # a tail percentile needs at least ten samples beyond it
    if len(latencies) >= 100:
        metrics["op_p90_ms"] = (statistics.quantiles(latencies, n=10)[-1], "ms")
    search = [name for name in times if kind[name] == "search" and name in reference]
    if search:
        evaluations = sum(json.loads(reference[name][0])["evaluations"] for name in search)
        metrics["search_evals_per_s"] = (evaluations / sum(times[name] for name in search), "eval/s")
    simulate = [name for name in times if kind[name] == "simulate"]
    if simulate:
        metrics["mc_trials_per_s"] = (MC_TRIALS * len(simulate) / sum(times[name] for name in simulate), "trial/s")
    return metrics


def tracing_overhead(records, ops) -> float:
    """Percent by which traced operations took longer than the same ones untraced.

    Only the alternating rounds count, so both sides get as many tries;
    each side takes each operation's fastest scaled time of its two rounds.
    """
    ok = [rec for rec in records if rec[3] == "ok" and rec[0] < 2 * TRACED_ROUNDS]
    plain, traced = fastest(ok, ops, traced=False), fastest(ok, ops, traced=True)
    both = [i for i in traced if i in plain]
    if not both:
        return 0.0
    return (sum(traced[i] for i in both) / sum(plain[i] for i in both) - 1.0) * 100.0


# --------------------------------------------------------------------------
# repeat mode


def benchmark_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def repeat(args) -> int:
    spec = benchmark_spec()
    seconds = args.seconds or spec.get("run_seconds", 20)
    runs = []
    for i in range(args.repeat):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed + i), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"run {i} (seed {args.seed + i}) failed with exit {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
            return 1
        runs.append({"summary": json.loads(lines[-1]), "detail": json.loads(lines[-2])})
        s = runs[-1]["summary"]
        print(f"seed {args.seed + i}: correct={s['correct']} attempted={s['attempted']} failed={s['failed']}", flush=True)
    result = {"workload": args.workload, "trace": args.trace, "seconds": seconds, "env": environment(), "runs": runs}
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"repeat-{args.workload}-trace{args.trace}-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(result, indent=1))
    print(f"saved {path.relative_to(ROOT)}")
    earlier = json.loads(Path(args.against).read_text()) if args.against else None
    return report(result, earlier, spec)


def _series(result: dict) -> dict[str, list[float]]:
    series: dict[str, list[float]] = {}
    for run in result["runs"]:
        for name, m in run["detail"]["metrics"].items():
            series.setdefault(name, []).append(m["value"])
    return series


def _failed_shares(result: dict) -> set:
    return {r["summary"]["failed"] / r["summary"]["attempted"] for r in result["runs"]}


def report(result: dict, earlier: dict | None, spec: dict) -> int:
    metrics = {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    now_series = _series(result)
    before = _series(earlier) if earlier else {}
    ok = True
    print(f"{'metric':44} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
    for name, values in now_series.items():
        q1, med, q3 = _quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        m = metrics.get(name, {})
        bound = m.get("bound")
        verdict = []
        if bound is not None and name != "setup_s":
            verdict.append("steady" if spread <= bound / 3 else "SPREAD OVER BOUND/3")
            ok &= spread <= bound
        if name in before and bound is not None:
            med0 = statistics.median(before[name])
            worse = (med - med0) / med0 if m["better"] == "lower" else (med0 - med) / med0
            verdict.append(f"vs earlier {worse * 100:+.1f}% worse -> {'agree' if worse <= bound else 'DISAGREE'}")
            ok &= worse <= bound
        print(f"{name:44} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread * 100:7.2f}% {bound if bound is not None else '-':>6}  {' '.join(verdict)}")
    shares = _failed_shares(result)
    print(f"failed share: {sorted(shares)}")
    ok &= len(shares) == 1 and all(r["summary"]["correct"] for r in result["runs"])
    if earlier:
        same = shares == _failed_shares(earlier)
        print(f"failed share equal to the earlier set: {same}")
        ok &= same
    return 0 if ok else 1


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run N times in separate processes")
    parser.add_argument("--against", default=None, help="earlier --repeat result file to compare with")
    parser.add_argument("--write-instances", default=None, metavar="DIR",
                        help="only write the workload's instance files for --seed into DIR")
    args = parser.parse_args(argv)

    if args.write_instances:
        from workloads import WORKLOADS

        WORKLOADS[args.workload].build(args.seed, args.write_instances)
        return 0
    if args.repeat:
        return repeat(args)
    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = spec.get("run_seconds", 20)
    summary, detail = measure(args)
    print(json.dumps(detail))
    # the result line carries exactly the metrics BENCHMARK.json lists
    metrics = detail["metrics"]
    listed = [m["name"] for m in spec.get("per_layer" if args.trace else "end_to_end", [])]
    if listed:
        metrics = {name: metrics[name] for name in listed}
    print(json.dumps(dict(summary, metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
