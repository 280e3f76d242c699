"""Known defects, each pinned by the answer it should give: strict xfails that flip when their ROADMAP item is mended."""

import math
from fractions import Fraction

import numpy as np
import pytest

from tradegains import DiscreteDistribution, TradeInstance, buyer_best_response, equilibrium, point, uniform


def discrete(atoms, shift=0.0):
    return DiscreteDistribution.from_atoms([(value + shift, prob) for value, prob in atoms])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: rounding, not the tie rule, decides a near-tie")
def test_a_near_tie_goes_to_the_larger_trade_probability():
    # posting 0.19 or 0.33 earns 0.44 in decimal, and 1.3e-17 more at 0.33 on the stored floats
    seller = discrete([(0.19, 0.7586206896551724), (0.33, 0.24137931034482762)])
    eq = equilibrium(TradeInstance(buyer=point(0.77), seller=seller))
    assert eq.gft_buyer_proposes == pytest.approx(0.5462068965517242, rel=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP item 2: rounding, not the tie rule, decides generated near-ties; 901 other draws post b where "
        "exact arithmetic prefers a, and the recommended rule keeps those as they are"
    ),
)
def test_no_generated_near_tie_posts_the_lower_trade_price_against_a_better_one():
    # buyer point(v) against seller {a: m, b: 1 - m}, a < b < v distinct in 0.01 .. 0.99: posting a or b
    # earns v - b in decimal. None may post a while the exact utility at b, on the stored cum, is larger.
    rng = np.random.default_rng([2026, 27])
    wrong = []
    for _ in range(2000):
        a, b, v = (np.sort(rng.choice(np.arange(1, 100), 3, replace=False)) / 100).tolist()
        m = (v - b) / (v - a)
        seller = DiscreteDistribution.from_atoms([(a, m), (b, 1 - m)])
        u_a, u_b = ((Fraction(v) - Fraction(p)) * Fraction(x) for p, x in zip(seller.values, seller.cum))
        if buyer_best_response(v, seller).price == a and u_b > u_a:
            wrong.append((a, b, v))
    assert wrong == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: values far from 0 lose the surplus integrals")
def test_an_exact_shift_leaves_the_discrete_equilibrium_alone():
    # 1e15 + 0.25 and 1e15 + 0.75 are stored exactly, so the shift changes no surplus; unshifted, 0.46875
    buyer = discrete([(0.25, 0.25), (0.75, 0.25), (1.0, 0.5)], 1e15)
    seller = discrete([(0.0, 0.5), (0.5, 0.5)], 1e15)
    eq = equilibrium(TradeInstance(buyer=buyer, seller=seller))
    assert eq.gft_seller_proposes == pytest.approx(0.46875, rel=1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: values far from 0 lose the surplus integrals")
def test_a_shifted_uniform_pair_keeps_its_buyer_utility():
    prior = uniform(1e9, 1e9 + 1)
    eq = equilibrium(TradeInstance(buyer=prior, seller=prior))
    assert eq.u_buyer == pytest.approx(1 / 12, rel=1e-15)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: values near the float limit overflow the surplus integrals")
def test_a_uniform_pair_near_the_float_limit_has_finite_gains():
    prior = uniform(0, 1.7e308)
    assert math.isfinite(equilibrium(TradeInstance(buyer=prior, seller=prior)).gft)
