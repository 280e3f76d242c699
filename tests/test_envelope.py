"""The buyer's upper envelope: same answers as scanning every candidate, less work.

The reference is the all-candidates scan the library used before the
envelope: every knot value at or below ``v`` plus every stationary price
valid at ``v``, each scored with the key ``(utility, trade_prob, -price)``.
"""

import bisect
import math

import numpy as np
import pytest

import tradegains.montecarlo as mc
from tradegains import (
    BestResponse,
    DiscreteDistribution,
    PiecewiseLinearDistribution,
    TradeInstance,
    buyer_best_response,
    equilibrium,
    mechanism,
    seller_best_response,
)

from conftest import budget, random_pwl


def scan(v, seller):
    """``(price, utility, trade_prob)`` of the best of all candidates."""
    knots = seller.knot_values()
    prices = list(knots[: bisect.bisect_right(knots, v)])
    for lo, hi, _, r in seller.stationary_segments:
        if lo <= v <= hi:
            prices.append(0.5 * (v - r))
    best_key = None
    best = None
    for p in prices:
        x = seller.cdf(p)
        u = (v - p) * x
        key = (u, x, -p)
        if best_key is None or key > best_key:
            best_key = key
            best = (p, u, x)
    if best is None:
        return (v, 0.0, 0.0)
    return best


def probes(seller, rng):
    """Knots, validity ends and envelope starts with their neighbouring floats, plus a spread."""
    marks = set(seller.knot_values()) | set(seller.buyer_envelope.starts[1:])
    for lo, hi, _, _ in seller.stationary_segments:
        marks.update((lo, hi))
    out = set()
    for m in marks:
        out.update((m, math.nextafter(m, -math.inf), math.nextafter(m, math.inf)))
    lo, hi = seller.support_min, seller.support_max
    span = hi - lo if hi > lo else 1.0
    out.update(rng.uniform(lo - 0.2 * span, hi + 1.2 * span, 100).tolist())
    return sorted(out)


def discrete_seller(seed):
    rng = np.random.default_rng([seed, 11])
    values = np.unique(rng.uniform(0.0, 1.0, int(rng.integers(1, 301))))
    probs = rng.dirichlet(np.ones(len(values)))
    return DiscreteDistribution.from_atoms(zip(values.tolist(), probs.tolist()))


def pwl_seller(seed, skew):
    rng = np.random.default_rng([seed, 12])
    knots = int(rng.integers(2, 41))
    if not skew:
        return random_pwl(rng, knots)
    vals = np.sort(rng.uniform(0.0, 1.0, knots)) ** 3
    return PiecewiseLinearDistribution.from_knots(zip(np.linspace(0.0, 1.0, knots).tolist(), vals.tolist()))


def canonical(atoms):
    return DiscreteDistribution.from_atoms([((2 * i + 1) / (2 * atoms), 1.0 / atoms) for i in range(atoms)])


SELLERS = (
    [pytest.param(discrete_seller(seed), id=f"discrete-{seed}") for seed in range(16)]
    + [pytest.param(pwl_seller(seed, False), id=f"pwl-{seed}") for seed in range(16)]
    + [pytest.param(pwl_seller(seed, True), id=f"pwl-cubed-{seed}") for seed in range(16)]
    + [pytest.param(canonical(atoms), id=f"canonical-{atoms}") for atoms in (1, 2, 3, 8, 64, 256)]
)


@pytest.mark.parametrize("negate", (False, True), ids=("as-is", "negated"))
@pytest.mark.parametrize("seller", SELLERS)
def test_envelope_matches_the_scan_bit_for_bit(seller, negate):
    if negate:
        seller = seller.negate()
    vs = probes(seller, np.random.default_rng(len(seller.knot_values())))
    got = [buyer_best_response(v, seller) for v in vs]
    want = [scan(v, seller) for v in vs]
    assert [(g.price, g.utility, g.trade_prob) for g in got] == want
    # the Monte Carlo pricer reads the same envelope
    assert mc._buyer_prices(np.asarray(vs), seller).tolist() == [w[0] for w in want]


@pytest.mark.parametrize("k", (1, -1, 300, -300, 900, -900))
def test_envelope_scales_by_powers_of_two(k):
    # scaling every value by 2**k is exact, so the breakpoints and every best
    # response must scale bit for bit (expect then integrates the same pieces)
    for seed in range(8):
        seller = pwl_seller(seed, seed % 2 == 1)
        scaled = PiecewiseLinearDistribution(seller.qs, tuple(math.ldexp(v, k) for v in seller.vals))
        assert mechanism.buyer_response_breakpoints(scaled) == [
            math.ldexp(b, k) for b in mechanism.buyer_response_breakpoints(seller)
        ]
        for v in probes(seller, np.random.default_rng(seed)):
            got = buyer_best_response(math.ldexp(v, k), scaled)
            want = buyer_best_response(v, seller)
            assert (got.price, got.utility, got.trade_prob) == (
                math.ldexp(want.price, k), math.ldexp(want.utility, k), want.trade_prob
            )


COIN_AT_HALF = DiscreteDistribution.from_atoms([(0.0, 0.5), (0.5, 0.5)])
THREE_WAY = DiscreteDistribution.from_atoms([(0.0, 0.25), (0.5, 0.25), (0.75, 0.5)])


def test_dyadic_ties_go_to_the_larger_trade_probability():
    # at v = 1 the offers 0 and 0.5 both earn exactly 0.5
    got = buyer_best_response(1.0, COIN_AT_HALF)
    assert (got.price, got.utility, got.trade_prob) == (0.5, 0.5, 1.0)
    assert buyer_best_response(math.nextafter(1.0, 0.0), COIN_AT_HALF).price == 0.0
    # three offers earn exactly 0.25 at v = 1; the middle one is never alone on top
    got = buyer_best_response(1.0, THREE_WAY)
    assert (got.price, got.utility, got.trade_prob) == (0.75, 0.25, 1.0)
    assert THREE_WAY.buyer_envelope.starts == (-math.inf, 1.0)
    # the seller side inherits the rule through negation: at c = 0 the
    # offers 0.5 and 1 both earn exactly 0.5, and the larger sale chance wins
    buyer = DiscreteDistribution.from_atoms([(0.5, 0.5), (1.0, 0.5)])
    got = seller_best_response(0.0, buyer)
    assert (got.price, got.utility, got.trade_prob) == (0.5, 0.5, 1.0)


def test_equal_trade_probabilities_go_to_the_better_price():
    # an atom of mass 1e-300 leaves the cumulative mass unchanged, and at
    # v = 2**60 the offers 0 and 1 earn the same rounded utility 2**59
    seller = DiscreteDistribution.from_atoms([(0.0, 0.5), (1.0, 1e-300), (2.0**62, 0.5)])
    got = buyer_best_response(2.0**60, seller)
    assert (got.price, got.utility, got.trade_prob) == (0.0, 2.0**59, 0.5)
    assert got == BestResponse(*scan(2.0**60, seller))
    # mirrored: a seller of cost -2**60 takes the larger of the prices 0 and -1
    buyer = DiscreteDistribution.from_atoms([(-(2.0**62), 0.5), (-1.0, 1e-300), (0.0, 0.5)])
    got = seller_best_response(-(2.0**60), buyer)
    assert (got.price, got.utility, got.trade_prob) == (0.0, 2.0**59, 0.5)


def test_a_segment_meets_its_end_knots_at_its_validity_ends():
    # against the uniform seller a buyer of value 2 offers the top knot 1,
    # which is also the stationary price: one price, no duplicate breakpoint
    seller = PiecewiseLinearDistribution.from_knots([(0.0, 0.0), (1.0, 1.0)])
    assert seller.buyer_envelope.starts == (-math.inf, 0.0, 2.0)
    assert mechanism.buyer_response_breakpoints(seller) == [0.0, 2.0]
    got = buyer_best_response(2.0, seller)
    assert (got.price, got.utility, got.trade_prob) == (1.0, 1.0, 1.0)


def coarse_grid(seed):
    rng = np.random.default_rng([seed, 13])
    if seed % 2:
        values = np.unique(rng.integers(0, 16, int(rng.integers(1, 12)))) / 8
        weights = rng.integers(1, 5, len(values)).astype(float)
        return DiscreteDistribution.from_atoms(zip(values.tolist(), (weights / weights.sum()).tolist()))
    knots = int(rng.integers(2, 10))
    vals = np.sort(rng.integers(0, 8, knots)) / 4
    return PiecewiseLinearDistribution.from_knots(zip(np.linspace(0.0, 1.0, knots).tolist(), vals.tolist()))


def test_coarse_grid_ties_keep_the_optimal_utility():
    # three or more candidates can tie in real arithmetic here, and which
    # one wins in floating point is a matter of the last bit
    worst = 0.0
    for seed in range(400):
        for seller in (coarse_grid(seed), coarse_grid(seed).negate()):
            sign = 1.0 if seller.support_max >= 0.0 else -1.0
            for v in (sign * i / 16 for i in range(-40, 120)):
                want = scan(v, seller)[1]
                got = buyer_best_response(v, seller).utility
                worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    assert worst <= 1e-15


# --------------------------------------------------------------------------
# work bounds, by count


def test_best_response_cdf_calls_are_logarithmic(monkeypatch):
    atoms = 4096
    seller = canonical(atoms)
    calls = 0
    cdf = DiscreteDistribution.cdf

    def counting_cdf(self, p):
        nonlocal calls
        calls += 1
        return cdf(self, p)

    monkeypatch.setattr(DiscreteDistribution, "cdf", counting_cdf)
    buyer_best_response(0.5, seller)  # builds the envelope once per prior
    assert calls <= atoms
    limit = 4 * math.log2(atoms)
    for v in np.linspace(-0.5, 2.5, 101).tolist():
        calls = 0
        buyer_best_response(v, seller)
        assert calls <= limit


@pytest.mark.parametrize("seed", range(10))
def test_breakpoints_grow_linearly_in_the_knots(seed):
    seller = random_pwl(np.random.default_rng(seed), 32)
    assert len(mechanism.buyer_response_breakpoints(seller)) <= 4 * len(seller.qs)


def equal_revenue_pair(steps, top):
    """Buyer quantile ``min(1 / (1 - q), top)`` on ``q = i / steps``; the seller mirrors it."""
    qs = [i / steps for i in range(steps + 1)]
    vals = [min(1.0 / (1.0 - q), top) if q < 1.0 else top for q in qs]
    buyer = PiecewiseLinearDistribution.from_knots(zip(qs, vals))
    seller = PiecewiseLinearDistribution.from_knots(
        zip([1.0 - q for q in reversed(qs)], [top + 1.0 - v for v in reversed(vals)])
    )
    return TradeInstance(buyer=buyer, seller=seller)


def test_equal_revenue_pair_at_200_steps_finishes():
    with budget(5):
        eq = equilibrium(equal_revenue_pair(200, 100.0))
    assert 1.90 <= eq.fb / eq.gft <= 1.91
