"""Hostile but valid inputs: every command finishes with finite output or refuses the input.

A seeded corpus of instances built to stress rounding and range:

* atoms and pwl knots one ulp apart, within a prior and across the two;
* masses of 1e-300;
* value scales of 2**900 and 2**-900, values near the top of the float
  range, and value spans that overflow a float;
* pwl priors with 20+ flat runs (each an atom);
* mirrored equal-revenue pwl pairs at 16-64 knots.

Each instance must finish every command that reads an instance (``fb``,
``eq``, ``decompose``, ``verify``, ``sweep`` and ``simulate``) within a
wall-time budget. A valid instance prints strict JSON (no ``Infinity`` or
``NaN``) and exits 0; an instance the library cannot represent is refused
with a ``ValidationError`` (exit 1). None may exit 2, the code reserved for
a failed proven inequality.
"""

import json

import numpy as np
import pytest

import tradegains.cli as cli
from tradegains import (
    PiecewiseLinearDistribution,
    TradeInstance,
    ValidationError,
    equilibrium,
    first_best,
    point,
    trade_instance_from_json,
    uniform,
    verify_bounds,
)

from conftest import budget

#: Wall-time budget per command; each takes well under 0.1 s.
BUDGET_S = 5.0
COMMANDS = (
    ("fb",),
    ("eq",),
    ("decompose", "--lambda", "0.31784"),
    ("verify", "--lambda", "0.31784"),
    ("sweep", "--lambda-grid", "0.05:0.95:19"),
    ("simulate", "--trials", "5000", "--seed", "1"),
)
TOP = 2.0**1023


def _discrete(values, probs):
    return {"kind": "discrete", "atoms": [[float(v), float(p)] for v, p in zip(values, probs)]}


def _pwl(qs, vals):
    return {"kind": "pwl", "knots": [[float(q), float(v)] for q, v in zip(qs, vals)]}


def _masses(rng, n):
    return rng.dirichlet(np.ones(n)).tolist()


def _near_duplicates(seed):
    rng = np.random.default_rng([seed, 1])
    base = np.sort(rng.uniform(0.0, 1.0, 3))
    up = sorted({*base.tolist(), *np.nextafter(base, 2.0).tolist()})
    down = sorted({*np.nextafter(base, -1.0).tolist(), *base.tolist()})
    # a segment one ulp tall after a flat run, and one one ulp wide in q
    vals = np.sort(rng.uniform(0.0, 1.0, 6))
    vals[2] = vals[1]
    vals[3] = np.nextafter(vals[2], 2.0)
    vals[4:] = np.maximum(vals[4:], vals[3])
    steep = _pwl([0.0, 0.5, np.nextafter(0.5, 1.0), 1.0], [base[0], base[1], base[2], 1.0])
    return {
        f"ulp-disc-disc-{seed}": _discrete(up, _masses(rng, len(up))),
        f"ulp-disc-disc-{seed}:seller": _discrete(down, _masses(rng, len(down))),
        f"ulp-pwl-disc-{seed}": _pwl(np.linspace(0.0, 1.0, 6), vals),
        f"ulp-pwl-disc-{seed}:seller": _discrete(up, _masses(rng, len(up))),
        f"ulp-disc-pwl-{seed}": _discrete(down, _masses(rng, len(down))),
        f"ulp-disc-pwl-{seed}:seller": steep,
    }


def _tiny_masses(seed):
    rng = np.random.default_rng([seed, 2])
    probs = np.asarray(_masses(rng, 4))
    probs[int(rng.integers(4))] = 1e-300
    probs /= probs.sum()
    return {
        f"tiny-{seed}": _discrete(np.sort(rng.uniform(0.0, 1.0, 4)), probs),
        # the top atom's mass vanishes from the cumulative sums entirely
        f"tiny-{seed}:seller": _discrete(np.sort(rng.uniform(0.0, 1.0, 3)), [1e-300, 0.5, 0.5]),
        f"tiny-pwl-{seed}": _pwl(np.linspace(0.0, 1.0, 5), np.sort(rng.uniform(0.0, 1.0, 5))),
        f"tiny-pwl-{seed}:seller": _discrete([0.2, 0.4, 0.9], [0.5, 1e-300, 0.5]),
    }


def _scaled(seed, k):
    rng = np.random.default_rng([seed, 3])
    buyer, seller = (np.sort(rng.uniform(0.0, 1.0, 5)) * 2.0**k for _ in range(2))
    grid = np.linspace(0.0, 1.0, 5)
    return {
        f"scale{k:+d}-disc-pwl-{seed}": _discrete(buyer, _masses(rng, 5)),
        f"scale{k:+d}-disc-pwl-{seed}:seller": _pwl(grid, seller),
        f"scale{k:+d}-pwl-pwl-{seed}": _pwl(grid, buyer),
        f"scale{k:+d}-pwl-pwl-{seed}:seller": _pwl(grid, seller),
    }


def _flat_runs(seed):
    rng = np.random.default_rng([seed, 4])
    runs = 20 + 3 * seed
    levels = np.sort(rng.uniform(0.0, 1.0, runs))
    edges = np.sort(rng.uniform(0.0, 1.0, 2 * runs - 2)).tolist()
    qs = [0.0, *edges, 1.0]
    vals = np.repeat(levels, 2)  # knots 2i and 2i + 1 bound run i
    return {
        f"flat-pwl-disc-{seed}": _pwl(qs, vals),
        f"flat-pwl-disc-{seed}:seller": _discrete(np.sort(rng.uniform(0.0, 1.0, 4)), _masses(rng, 4)),
        f"flat-pwl-pwl-{seed}": _pwl(np.linspace(0.0, 1.0, 8), np.sort(rng.uniform(0.0, 1.0, 8))),
        f"flat-pwl-pwl-{seed}:seller": _pwl(qs, vals),
    }


def _equal_revenue(steps, top=100.0):
    """Buyer quantile ``min(1 / (1 - q), top)`` on ``q = i / steps``; the seller mirrors it."""
    qs = [i / steps for i in range(steps + 1)]
    vals = [min(1.0 / (1.0 - q), top) if q < 1.0 else top for q in qs]
    return {
        f"equal-revenue-{steps}": _pwl(qs, vals),
        f"equal-revenue-{steps}:seller": _pwl([1.0 - q for q in reversed(qs)], [top + 1.0 - v for v in reversed(vals)]),
    }


def _corpus():
    sides = {}
    for seed in range(3):
        for part in (_near_duplicates(seed), _tiny_masses(seed), _flat_runs(seed), _scaled(seed, 900), _scaled(seed, -900)):
            sides.update(part)
    for steps in (16, 32, 64):
        sides.update(_equal_revenue(steps))
    corpus = {
        name: ({"buyer": side, "seller": sides[f"{name}:seller"]}, True)
        for name, side in sides.items()
        if not name.endswith(":seller")
    }
    scale = 2.0**1015
    corpus["near-top"] = (
        {"buyer": _discrete([0.3 * scale, 0.9 * scale], [0.5, 0.5]),
         "seller": _discrete([0.1 * scale, 0.6 * scale], [0.5, 0.5])},
        True,
    )
    # the surplus v - c overflows: refused
    corpus["span-overflow-disc"] = (
        {"buyer": _discrete([2.0**1000, 1.9 * TOP], [0.5, 0.5]),
         "seller": _discrete([-1.9 * TOP, 2.0**1000], [0.5, 0.5])},
        False,
    )
    corpus["span-overflow-pwl"] = (
        {"buyer": _pwl([0.0, 1.0], [0.0, 1.5 * TOP]), "seller": _pwl([0.0, 1.0], [-1.5 * TOP, 0.0])},
        False,
    )
    # a pwl mass of 1e-300 at q = 0 has no mirror image 1 - q: refused
    corpus["tiny-pwl-mirror"] = (
        {"buyer": _pwl([0.0, 1e-300, 0.5, 1.0], [0.1, 0.6, 0.7, 0.9]), "seller": _discrete([0.2, 0.5], [0.5, 0.5])},
        False,
    )
    corpus["ulp-pwl-mirror"] = (
        {"buyer": _discrete([0.2, 0.5], [0.5, 0.5]), "seller": _pwl([0.0, 0.3, np.nextafter(0.3, 1.0), 1.0], [0.1, 0.4, 0.6, 0.9])},
        False,
    )
    return corpus


CORPUS = _corpus()


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def test_corpus_covers_every_stress():
    prefixes = ("ulp-", "tiny-", "scale+900", "scale-900", "near-top", "span-overflow", "flat-", "equal-revenue-")
    assert all(any(name.startswith(p) for name in CORPUS) for p in prefixes)
    flat = CORPUS["flat-pwl-disc-0"][0]["buyer"]["knots"]
    assert sum(a[1] == b[1] for a, b in zip(flat, flat[1:])) >= 20


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_hostile_instance_finishes_with_finite_output_or_is_refused(name, tmp_path, capsys):
    data, valid = CORPUS[name]
    if valid:
        trade_instance_from_json(data)
    else:
        with pytest.raises(ValidationError):
            trade_instance_from_json(data)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    for command, *rest in COMMANDS:
        with budget(BUDGET_S):
            code = cli.run([command, "--instance", str(path), *rest])
        out = capsys.readouterr()
        if valid:
            assert code == 0, (command, out.err)
            payload = _strict_json(out.out)
            assert payload
        else:
            assert (code, out.out) == (1, ""), (command, out.err)
            assert out.err.startswith("error: ")


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-TOP, TOP)])
def test_search_over_an_overflowing_range_is_refused(lo, hi, capsys):
    argv = ["search", "--atoms", "2", "--iters", "3", "--restarts", "2", f"--lo={lo!r}", f"--hi={hi!r}"]
    with budget(BUDGET_S):
        assert cli.run(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and "overflows" in out.err


@pytest.mark.parametrize(
    "buyer, seller, fb",
    [
        (point(-1e200), uniform(0.0, 1.0), 0.0),
        (point(-1e10), PiecewiseLinearDistribution.from_knots([(0.0, 0.0), (0.5, 1e-300), (1.0, 1.0)]), 0.0),
        (point(3e200), PiecewiseLinearDistribution.from_knots([(0.0, 1e200), (1.0, 1e200)]), 2e200),
    ],
    ids=["uniform-seller", "ulp-tall-step", "flat-seller"],
)
def test_prices_far_outside_a_pwl_support_raise_no_overflow(buyer, seller, fb):
    # the pwl array methods evaluate their segment formula in lanes outside
    # the support, then discard those lanes; under the suite's
    # filterwarnings = error an overflow there fails the call
    instance = TradeInstance(buyer=buyer, seller=seller)
    assert first_best(instance) == fb
    assert equilibrium(instance).fb == fb
    assert verify_bounds(instance, 0.31784).fb == fb
