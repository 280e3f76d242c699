"""Discrete x discrete equilibria against the exact reference of ``exact_reference.py``.

Every field must lie within ``1e-12 * max(|x|, fb)`` of the exact value
``x``: a bound that scales with the instance. A gft field that a near-tied
proposer type moves is not compared, and the test reports it as a skip.
"""

from fractions import Fraction

import numpy as np
import pytest

import exact_reference
from conftest import budget, random_discrete
from tradegains import DiscreteDistribution, TradeInstance, canonical_uniform_instance, equilibrium
from tradegains.distributions import point

BOUND = Fraction(1e-12)

#: The seller's first mass is (0.77 - 0.33) / (0.77 - 0.19): both offers earn 0.44 in decimal.
NEAR_TIE = TradeInstance(
    buyer=point(0.77),
    seller=DiscreteDistribution.from_atoms([(0.19, 0.7586206896551724), (0.33, 0.24137931034482762)]),
)


def seeded(seed):
    rng = np.random.default_rng([seed, 26])
    return TradeInstance(buyer=random_discrete(rng, 64), seller=random_discrete(rng, 64))


INSTANCES = (
    [pytest.param(seeded(seed), id=f"seeded-{seed}") for seed in range(24)]
    + [pytest.param(canonical_uniform_instance(atoms), id=f"canonical-{atoms}") for atoms in (1, 2, 3, 8, 64)]
    + [pytest.param(NEAR_TIE, id="near-tie-0.77")]
)


@pytest.mark.parametrize("instance", INSTANCES)
def test_equilibrium_matches_the_exact_reference(instance):
    with budget(5):
        got = equilibrium(instance)
        want, (near_buyers, near_sellers) = exact_reference.equilibrium(instance)
    unsettled = {name for name, near in (("gft_buyer_proposes", near_buyers), ("gft_seller_proposes", near_sellers)) if near}
    unsettled |= {"gft"} if unsettled else set()
    for name, x in want.items():
        if name not in unsettled:
            assert abs(Fraction(getattr(got, name)) - x) <= BOUND * max(abs(x), want["fb"]), name
    if unsettled:
        pytest.skip(f"{near_buyers} buyer and {near_sellers} seller types near-tied: {sorted(unsettled)} not compared")
