"""Command-line front end.

Exit codes: 0 on success, 1 on input or validation errors, 2 when a
provably-true inequality evaluates negative (an internal defect). Output is
JSON by default; sweeps can emit CSV. Floats are serialized with
round-trip-exact shortest decimals, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import DomainError, InvariantViolation, ValidationError
from .geometry import aggregate_decomposition, decompose_fixed_v, sweep_bounds, verify_bounds
from .mechanism import (
    TradeInstance,
    equilibrium,
    first_best,
    trade_instance_from_json,
)
from .montecarlo import simulate_mechanism
# unused here, kept importable: the benchmark's traced runs wrap these names
from .montecarlo import simulate_fb  # noqa: F401
from .ratio import ratio_bound  # noqa: F401
from .ratio import guarantee_check, optimize_lambda
from .search import SearchConfig, worst_case_search

SWEEP_COLUMNS = (
    "lambda",
    "fb",
    "u_B",
    "u_S",
    "E_area_A",
    "E_u_S_geom",
    "ratio_bound",
    "slack_identity",
    "slack_area_log",
    "slack_avg",
    "slack_avg_swap",
    "slack_gft_floor",
)


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; reserve 2 for
    # invariant violations and report usage problems as exit 1 instead
    def error(self, message):
        raise _ArgumentError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="tradegains", description="Gains-from-trade analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fb = sub.add_parser("fb", help="first-best gains from trade")
    p_fb.add_argument("--instance", required=True, metavar="PATH")

    p_eq = sub.add_parser("eq", help="best-response equilibrium report")
    p_eq.add_argument("--instance", required=True, metavar="PATH")

    p_dec = sub.add_parser("decompose", help="fixed-v geometric decomposition")
    p_dec.add_argument("--instance", required=True, metavar="PATH")
    p_dec.add_argument("--lambda", dest="lam", required=True, type=float)
    p_dec.add_argument("--v", type=float, default=None,
                       help="conditioning buyer value; omitted aggregates over the buyer prior")

    p_ver = sub.add_parser("verify", help="check proven identities and inequalities")
    p_ver.add_argument("--instance", required=True, metavar="PATH")
    p_ver.add_argument("--lambda", dest="lam", required=True, type=float)

    p_opt = sub.add_parser("lambda-opt", help="optimal scaling parameter")
    p_opt.add_argument("--tol", type=float, default=1e-12)

    p_sim = sub.add_parser("simulate", help="Monte Carlo cross-check")
    p_sim.add_argument("--instance", required=True, metavar="PATH")
    p_sim.add_argument("--trials", required=True, type=int)
    p_sim.add_argument("--seed", required=True, type=int)

    p_search = sub.add_parser("search", help="adversarial instance search")
    p_search.add_argument("--atoms", type=int, default=8)
    p_search.add_argument("--iters", type=int, default=200)
    p_search.add_argument("--restarts", type=int, default=4)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--step-scale", type=float, default=0.08)
    p_search.add_argument("--lo", type=float, default=0.0)
    p_search.add_argument("--hi", type=float, default=1.0)

    p_sweep = sub.add_parser("sweep", help="verify_bounds over a lambda grid")
    p_sweep.add_argument("--instance", required=True, metavar="PATH")
    p_sweep.add_argument("--lambda-grid", dest="grid", required=True, metavar="A:B:N")
    p_sweep.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def _load_instance(path: str) -> TradeInstance:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return trade_instance_from_json(data)


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _ArgumentError(f"--lambda-grid must look like A:B:N, got {text!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise _ArgumentError(f"--lambda-grid must look like A:B:N, got {text!r}") from None
    if not (0.0 < a <= b < 1.0):
        raise _ArgumentError(f"grid bounds must satisfy 0 < A <= B < 1, got {text!r}")
    if n < 1:
        raise _ArgumentError(f"grid size must be >= 1, got {n}")
    if n == 1:
        if a != b:
            raise _ArgumentError("a single-point grid requires A == B")
        return [a]
    if a == b:
        raise _ArgumentError("a multi-point grid requires A < B")
    step = (b - a) / (n - 1)
    return [a + i * step for i in range(n - 1)] + [b]


def _sweep_row(report) -> dict:
    return {
        "lambda": report.lam,
        "fb": report.fb,
        "u_B": report.u_buyer,
        "u_S": report.u_seller,
        "E_area_A": report.mean_area_A,
        "E_u_S_geom": report.mean_u_S_geom,
        "ratio_bound": report.ratio_bound,
        "slack_identity": report.slacks["identity"],
        "slack_area_log": report.slacks["area_log"],
        "slack_avg": report.slacks["avg"],
        "slack_avg_swap": report.slacks["avg_swap"],
        "slack_gft_floor": report.slacks["gft_floor"],
    }


def _format_csv(rows: list[dict]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(repr(float(row[col])) for col in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def dumps_indented(payload) -> str:
    """Exactly ``json.dumps(payload, indent=2)``, written by json's C encoder.

    json's C encoder has no indent, so ``indent=2`` sends ``json.dumps``
    down its pure-Python path. Here the C encoder, given the item separator
    ``",\\n"`` plus the indent, writes each container that holds no
    non-empty container in one call, and each run of such items of any
    other container in one call; Python assembles only the nesting. Where
    json has no C encoder, or the nesting is cyclic or too deep, the text
    (or the error) is ``json.dumps``'s own.
    """
    if json.encoder.c_make_encoder is None:
        return json.dumps(payload, indent=2)
    try:
        return _indented(payload, 0)
    except RecursionError:
        return json.dumps(payload, indent=2)


#: Types that json writes as one token.
_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _flat_encoder(depth: int):
    """json's C encoder for ``json.dumps(..., indent=2)`` items at nesting ``depth``."""
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
        ": ", ",\n" + "  " * depth, False, False, True,
    )


def _indented(obj, depth: int) -> str:
    """``json.dumps(obj, indent=2)`` for ``obj`` nested ``depth`` levels deep."""
    if isinstance(obj, dict):
        is_dict, values = True, obj.values()
    elif isinstance(obj, (list, tuple)):
        is_dict, values = False, obj
    else:
        return "".join(_flat_encoder(depth)(obj, 0))
    if not obj:
        return "{}" if is_dict else "[]"
    encode = _flat_encoder(depth + 1)

    def inner(run) -> str:
        return "".join(encode(run, 0))[1:-1]

    if _SCALARS.issuperset(map(type, values)):
        parts = [inner(obj)]
    else:
        parts = []
        items = list(obj.items()) if is_dict else list(obj)
        start = 0
        for i, item in enumerate(items):
            value = item[1] if is_dict else item
            if not (isinstance(value, (list, tuple, dict)) and value):
                continue
            # the flat items before ``value`` and its key, written with a
            # null in its place, which is then cut off
            if is_dict:
                parts.append(inner(dict(items[start:i] + [(item[0], None)]))[:-4])
            else:
                parts.append(inner(items[start:i] + [None])[:-4] if start < i else "")
            parts[-1] += _indented(value, depth + 1)
            start = i + 1
        if start < len(items):
            rest = items[start:]
            parts.append(inner(dict(rest) if is_dict else rest))
    pad = "  " * depth
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}\n{pad}  " + f",\n{pad}  ".join(parts) + f"\n{pad}{closing}"


def _dispatch(args: argparse.Namespace):
    if args.command == "fb":
        return {"fb": first_best(_load_instance(args.instance))}
    if args.command == "eq":
        return equilibrium(_load_instance(args.instance)).to_json()
    if args.command == "decompose":
        instance = _load_instance(args.instance)
        if args.v is not None:
            return decompose_fixed_v(args.v, instance.seller, args.lam).to_json()
        return aggregate_decomposition(instance, args.lam).to_json()
    if args.command == "verify":
        report = verify_bounds(_load_instance(args.instance), args.lam)
        return {**report.to_json(), **guarantee_check(report).to_json()}
    if args.command == "lambda-opt":
        return optimize_lambda(args.tol).to_json()
    if args.command == "simulate":
        report = simulate_mechanism(_load_instance(args.instance), args.trials, args.seed)
        return {"fb": report.fb.to_json(), "mechanism": report.to_json()}
    if args.command == "search":
        cfg = SearchConfig(
            atoms_per_side=args.atoms,
            value_range=(args.lo, args.hi),
            iterations=args.iters,
            restarts=args.restarts,
            seed=args.seed,
            step_scale=args.step_scale,
        )
        return worst_case_search(cfg).to_json()
    if args.command == "sweep":
        instance = _load_instance(args.instance)
        rows = [_sweep_row(report) for report in sweep_bounds(instance, _parse_grid(args.grid))]
        if args.format == "csv":
            return _format_csv(rows)
        return rows
    raise _ArgumentError(f"unknown command {args.command!r}")


def run(argv=None) -> int:
    """Entry point returning the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload = _dispatch(args)
    except _ArgumentError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValidationError as err:
        for problem in err.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    except (DomainError, OSError, json.JSONDecodeError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InvariantViolation as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        return 2
    if isinstance(payload, str):
        sys.stdout.write(payload)
    else:
        print(dumps_indented(payload))
    return 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe must fail here, not at interpreter exit
    except BrokenPipeError:
        # the reader went away (``tradegains ... | head``): send what is left
        # in the buffer to devnull and exit 1 without a traceback, as the
        # SIGPIPE note in Python's ``signal`` docs does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
