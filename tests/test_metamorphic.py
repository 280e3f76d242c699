"""Metamorphic relations that pin every printed number without reusing its arithmetic.

* Power-of-two scaling: multiplying every value of both priors by ``2**k``
  scales every ``eq`` field, every ``verify`` field and every slack by
  exactly ``2**k``. Scaling by a power of two is exact at these magnitudes,
  so the relation holds bit for bit.
* Midpoint knot insertion: adding a knot at the midpoint of every segment of
  a pwl prior describes the same distribution, so every ``eq`` field stays
  put up to rounding.

Both run over seeded ``random_discrete`` / ``random_pwl`` priors in all four
buyer x seller pairings.
"""

import dataclasses
import math

import numpy as np
import pytest

from tradegains import (
    DiscreteDistribution,
    PiecewiseLinearDistribution,
    TradeInstance,
    equilibrium,
    guarantee_check,
    verify_bounds,
)

from conftest import random_discrete, random_pwl

LAM = 0.31784
SEEDS = range(6)
PAIRINGS = ("disc-disc", "disc-pwl", "pwl-disc", "pwl-pwl")
SCALES = (1, -1, 300, -300, 900, -900)
INSERTION_TOL = 1e-12


def _instance(pairing, seed):
    rng = np.random.default_rng([seed, PAIRINGS.index(pairing)])
    buyer, seller = (
        random_pwl(rng, int(rng.integers(2, 9))) if kind == "pwl" else random_discrete(rng, 8)
        for kind in pairing.split("-")
    )
    return TradeInstance(buyer=buyer, seller=seller)


def _scaled(dist, k):
    if isinstance(dist, DiscreteDistribution):
        return DiscreteDistribution.from_atoms(
            (math.ldexp(v, k), p) for v, p in zip(dist.values, dist.probs)
        )
    return PiecewiseLinearDistribution.from_knots((q, math.ldexp(v, k)) for q, v in zip(dist.qs, dist.vals))


def _with_midpoints(dist):
    knots = [(dist.qs[0], dist.vals[0])]
    for q0, q1, v0, v1 in zip(dist.qs, dist.qs[1:], dist.vals, dist.vals[1:]):
        knots += [(0.5 * (q0 + q1), 0.5 * (v0 + v1)), (q1, v1)]
    return PiecewiseLinearDistribution.from_knots(knots)


def _printed_fields(instance):
    """Every value-scaled number ``eq`` and ``verify`` print, by name."""
    fields = {f"eq.{name}": x for name, x in equilibrium(instance).to_json().items()}
    report = verify_bounds(instance, LAM)
    verify = {**report.to_json(), **guarantee_check(report).to_json()}
    del verify["lambda"]  # the one field that does not scale
    slacks = verify.pop("slacks")
    fields.update((f"verify.{name}", x) for name, x in verify.items())
    fields.update((f"slack.{name}", x) for name, x in slacks.items())
    return fields


@pytest.mark.parametrize("pairing", PAIRINGS)
@pytest.mark.parametrize("seed", SEEDS)
def test_power_of_two_scaling_is_bit_exact(pairing, seed):
    instance = _instance(pairing, seed)
    base = _printed_fields(instance)
    for k in SCALES:
        scaled = _printed_fields(TradeInstance(_scaled(instance.buyer, k), _scaled(instance.seller, k)))
        assert scaled.keys() == base.keys()
        moved = {
            name: (x, scaled[name])
            for name, x in base.items()
            if scaled[name].hex() != math.ldexp(x, k).hex()
        }
        assert not moved, f"k = {k}: {moved}"


@pytest.mark.parametrize("pairing", PAIRINGS[1:])
@pytest.mark.parametrize("seed", SEEDS)
def test_midpoint_knot_insertion_keeps_eq(pairing, seed):
    instance = _instance(pairing, seed)
    base = equilibrium(instance).to_json()
    for side in ("buyer", "seller"):
        prior = getattr(instance, side)
        if isinstance(prior, PiecewiseLinearDistribution):
            moved = equilibrium(dataclasses.replace(instance, **{side: _with_midpoints(prior)})).to_json()
            for name, x in base.items():
                assert abs(moved[name] - x) <= INSERTION_TOL * max(1.0, abs(x)), (side, name)
