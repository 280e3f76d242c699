"""Scaling tables: exact-pipeline wall times by atom and knot count, Monte Carlo cost by trial count.

    python tools/scaling.py [--atoms 8 32 128 512 2048] [--knots 201 801 3201]
                            [--trials 10000 250000 1000000]
                            [--sweep-atoms 8 256] [--sweep-lambdas 1 19 1000] [--repeat 3]

Imports ``tradegains`` from this checkout's ``src/`` and prints four
Markdown tables, each time the best of ``--repeat`` wall times:

* discrete x discrete instances with uniform values and Dirichlet(1)
  masses (seeded): ``equilibrium``, ``verify_bounds`` at one lambda, a
  19-lambda ``sweep_bounds``, and the two envelope builds an
  ``equilibrium`` makes (the seller's and the negated buyer's);
* the mirrored equal-revenue pwl pair at H = 100: the buyer quantile is
  ``min(1 / (1 - q), H)`` on a uniform q-grid and the seller's cost is
  ``H + 1 - v``; ``fb / gft``, ``equilibrium`` and ``verify_bounds``;
* ``simulate_mechanism`` at seed 0 on three instances (64 midpoint atoms
  per side, uniform x uniform, and a seeded 32-knot pwl buyer against a
  32-atom discrete seller): ns per trial, and the peak bytes per trial
  that ``tracemalloc`` (which sees numpy's buffers) reads over one
  further call on a warm instance;
* ``tradegains sweep`` through ``cli.run``, loading and printing included,
  on the discrete instances of the first table written to a file: ms per
  call at each lambda count (one lambda is 0.31784, more span 0.05:0.95),
  and the microseconds each lambda beyond the smallest count adds.

An empty list skips its table. Every timed call gets a freshly built
instance, so no prior's caches are warm; building it is not timed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tradegains import (  # noqa: E402
    DiscreteDistribution,
    PiecewiseLinearDistribution,
    TradeInstance,
    equilibrium,
    simulate_mechanism,
    sweep_bounds,
    trade_instance_to_json,
    uniform,
    verify_bounds,
)
from tradegains.cli import run  # noqa: E402

LAMBDA = 0.31784
LAMBDA_GRID = tuple(i / 20 for i in range(1, 20))
TOP = 100.0


def discrete_instance(atoms: int, seed: int) -> TradeInstance:
    rng = np.random.default_rng([atoms, seed])
    sides = []
    for _ in range(2):
        values = np.unique(rng.uniform(0.0, 1.0, atoms))
        probs = rng.dirichlet(np.ones(len(values)))
        sides.append(DiscreteDistribution.from_atoms(zip(values.tolist(), probs.tolist())))
    return TradeInstance(buyer=sides[0], seller=sides[1])


def equal_revenue_instance(knots: int) -> TradeInstance:
    steps = knots - 1
    qs = [i / steps for i in range(knots)]
    vals = [min(1.0 / (1.0 - q), TOP) if q < 1.0 else TOP for q in qs]
    buyer = PiecewiseLinearDistribution.from_knots(zip(qs, vals))
    seller = PiecewiseLinearDistribution.from_knots(
        zip([1.0 - q for q in reversed(qs)], [TOP + 1.0 - v for v in reversed(vals)])
    )
    return TradeInstance(buyer=buyer, seller=seller)


def canonical_instance() -> TradeInstance:
    d = DiscreteDistribution.from_atoms(((2 * i + 1) / 128, 1 / 64) for i in range(64))
    return TradeInstance(buyer=d, seller=d)


def pwl_discrete_instance() -> TradeInstance:
    rng = np.random.default_rng(13)
    buyer = PiecewiseLinearDistribution.from_knots(
        zip(np.linspace(0.0, 1.0, 32).tolist(), np.sort(rng.uniform(0.0, 1.0, 32)).tolist())
    )
    values = np.unique(rng.uniform(0.0, 1.0, 32))
    seller = DiscreteDistribution.from_atoms(zip(values.tolist(), rng.dirichlet(np.ones(len(values))).tolist()))
    return TradeInstance(buyer=buyer, seller=seller)


MC_INSTANCES = {
    "c064": canonical_instance,
    "uu": lambda: TradeInstance(buyer=uniform(0, 1), seller=uniform(0, 1)),
    "pd32": pwl_discrete_instance,
}


def envelope_builds(instance: TradeInstance) -> None:
    instance.seller.buyer_envelope
    instance.buyer.negate().buyer_envelope


def best_time(build, call, repeat: int) -> float:
    """Least wall time of ``call(build(i))`` over ``repeat`` fresh instances, in seconds."""
    best = math.inf
    for i in range(repeat):
        instance = build(i)
        start = time.perf_counter()
        call(instance)
        best = min(best, time.perf_counter() - start)
    return best


def ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3g} ms"


def discrete_table(atom_counts, repeat: int) -> list[str]:
    calls = (
        ("`equilibrium`", equilibrium),
        ("`verify_bounds`", lambda inst: verify_bounds(inst, LAMBDA)),
        ("`sweep_bounds`, 19 λ", lambda inst: sweep_bounds(inst, LAMBDA_GRID)),
        ("two envelope builds", envelope_builds),
    )
    lines = ["| atoms per side | " + " | ".join(name for name, _ in calls) + " |"]
    lines.append("| " + " | ".join("---" for _ in range(len(calls) + 1)) + " |")
    for atoms in atom_counts:
        times = [best_time(lambda i: discrete_instance(atoms, i), call, repeat) for _, call in calls]
        lines.append(f"| {atoms:,} | " + " | ".join(ms(t) for t in times) + " |")
    return lines


def equal_revenue_table(knot_counts, repeat: int) -> list[str]:
    lines = ["| knots | fb/gft | `equilibrium` | `verify_bounds` |", "| --- | --- | --- | --- |"]
    for knots in knot_counts:
        eq = equilibrium(equal_revenue_instance(knots))
        build = lambda i: equal_revenue_instance(knots)  # noqa: E731
        t_eq = best_time(build, equilibrium, repeat)
        t_verify = best_time(build, lambda inst: verify_bounds(inst, LAMBDA), repeat)
        lines.append(f"| {knots:,} | {eq.fb / eq.gft:.4f} | {ms(t_eq)} | {ms(t_verify)} |")
    return lines


def peak_bytes(instance: TradeInstance, trials: int) -> int:
    """Peak traced bytes of one ``simulate_mechanism`` call on a warm instance."""
    simulate_mechanism(instance, 1, 0)
    tracemalloc.start()
    try:
        simulate_mechanism(instance, trials, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def montecarlo_table(trial_counts, repeat: int) -> list[str]:
    header = " | ".join(f"{name} ns/trial | {name} B/trial" for name in MC_INSTANCES)
    lines = [f"| trials | {header} |", "| " + " | ".join("---" for _ in range(2 * len(MC_INSTANCES) + 1)) + " |"]
    for trials in trial_counts:
        cells = []
        for build in MC_INSTANCES.values():
            t = best_time(lambda i: build(), lambda inst: simulate_mechanism(inst, trials, 0), repeat)
            cells += [f"{t / trials * 1e9:.3g}", f"{peak_bytes(build(), trials) / trials:.1f}"]
        lines.append(f"| {trials:,} | " + " | ".join(cells) + " |")
    return lines


def sweep_table(atom_counts, lambda_counts, repeat: int) -> list[str]:
    counts = sorted(set(lambda_counts))
    header = [f"{n:,} λ" for n in counts] + [f"us per λ beyond {counts[0]:,}, at {n:,} λ" for n in counts if n > counts[0]]
    lines = ["| atoms per side | " + " | ".join(header) + " |", "| " + " | ".join("---" for _ in range(len(header) + 1)) + " |"]
    with tempfile.TemporaryDirectory(prefix="scaling-") as tmp:
        for atoms in atom_counts:

            def build(i):
                path = Path(tmp) / f"d{atoms}-{i}.json"
                path.write_text(json.dumps(trade_instance_to_json(discrete_instance(atoms, i))))
                return str(path)

            times = {}
            for n in counts:
                grid = f"{LAMBDA}:{LAMBDA}:1" if n == 1 else f"0.05:0.95:{n}"

                def sweep(path):
                    with contextlib.redirect_stdout(io.StringIO()):
                        if run(["sweep", "--instance", path, "--lambda-grid", grid]) != 0:
                            raise RuntimeError(f"sweep failed on {path}")

                times[n] = best_time(build, sweep, repeat)
            cells = [ms(times[n]) for n in counts]
            cells += [f"{(times[n] - times[counts[0]]) / (n - counts[0]) * 1e6:.3g}" for n in counts if n > counts[0]]
            lines.append(f"| {atoms:,} | " + " | ".join(cells) + " |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--atoms", type=int, nargs="*", default=[8, 32, 128, 512, 2048])
    parser.add_argument("--knots", type=int, nargs="*", default=[201, 801, 3201])
    parser.add_argument("--trials", type=int, nargs="*", default=[10_000, 250_000, 1_000_000])
    parser.add_argument("--sweep-atoms", type=int, nargs="*", default=[8, 256])
    parser.add_argument("--sweep-lambdas", type=int, nargs="*", default=[1, 19, 1000])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    counts = args.atoms + args.trials + args.sweep_atoms + args.sweep_lambdas
    if args.repeat < 1 or any(n < 1 for n in counts) or any(n < 2 for n in args.knots):
        parser.error("--repeat, --atoms, --trials, --sweep-atoms and --sweep-lambdas take counts of at least 1, --knots of at least 2")
    print(f"best of {args.repeat}; tradegains from {ROOT / 'src'}")
    if args.atoms:
        print("\n" + "\n".join(discrete_table(args.atoms, args.repeat)))
    if args.knots:
        print("\n" + "\n".join(equal_revenue_table(args.knots, args.repeat)))
    if args.trials:
        print("\n" + "\n".join(montecarlo_table(args.trials, args.repeat)))
    if args.sweep_atoms and args.sweep_lambdas:
        print("\n" + "\n".join(sweep_table(args.sweep_atoms, args.sweep_lambdas, args.repeat)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
