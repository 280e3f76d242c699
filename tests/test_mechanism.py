"""Mechanism: best responses, first best, equilibrium, role swap."""

import math

import numpy as np
import pytest
from scipy import integrate

from tradegains import (
    DiscreteDistribution,
    DomainError,
    PiecewiseLinearDistribution,
    TradeInstance,
    acceptance_prob,
    buyer_best_response,
    equilibrium,
    first_best,
    point,
    role_swap,
    seller_best_response,
    trade_instance_from_json,
    trade_instance_to_json,
    uniform,
)

from conftest import random_discrete, random_discrete_instance, random_pwl

COIN = DiscreteDistribution.from_atoms([(0.0, 0.5), (1.0, 0.5)])
UU = TradeInstance(buyer=uniform(0, 1), seller=uniform(0, 1))
P1U = TradeInstance(buyer=point(1.0), seller=uniform(0, 1))


# --------------------------------------------------------------------------
# exhaustive oracle for discrete x discrete instances
#
# Independent of the library's code paths: plain Python sums over atoms and
# enumeration of candidate prices (the opponent's atom values).


def brute_force_equilibrium(instance):
    bvals, bprobs = instance.buyer.values, instance.buyer.probs
    svals, sprobs = instance.seller.values, instance.seller.probs

    def cdf(vals, probs, p):
        if p >= vals[-1]:
            return 1.0  # total mass is exactly one by contract
        acc = 0.0
        for v, pr in zip(vals, probs):
            if v <= p:
                acc += pr
        return acc

    def survival(vals, probs, p):
        # complement of the strictly-below mass, Pr[X >= p] = 1 - Pr[X < p]
        acc = 0.0
        for v, pr in zip(vals, probs):
            if v < p:
                acc += pr
        return 1.0 - acc

    buyer_rows = []
    for v in bvals:
        best = None
        for p in svals:
            if p > v:
                continue
            x = cdf(svals, sprobs, p)
            key = ((v - p) * x, x, -p)
            if best is None or key > best[0]:
                best = (key, p, (v - p) * x, x)
        if best is None:
            buyer_rows.append((v, v, 0.0, 0.0))
        else:
            buyer_rows.append((v, best[1], best[2], best[3]))

    seller_rows = []
    for c in svals:
        best = None
        for p in bvals:
            if p < c:
                continue
            s = survival(bvals, bprobs, p)
            key = ((p - c) * s, s, p)
            if best is None or key > best[0]:
                best = (key, p, (p - c) * s, s)
        if best is None:
            seller_rows.append((c, c, 0.0, 0.0))
        else:
            seller_rows.append((c, best[1], best[2], best[3]))

    u_b = math.fsum(pb * row[2] for pb, row in zip(bprobs, buyer_rows))
    u_s = math.fsum(ps * row[2] for ps, row in zip(sprobs, seller_rows))
    gft_b = math.fsum(
        pb * ps * (v - c)
        for pb, (v, price, _, _) in zip(bprobs, buyer_rows)
        for ps, c in zip(sprobs, svals)
        if c <= price
    )
    gft_s = math.fsum(
        ps * pb * (v - c)
        for ps, (c, price, _, _) in zip(sprobs, seller_rows)
        for pb, v in zip(bprobs, bvals)
        if v >= price
    )
    fb = math.fsum(
        pb * ps * (v - c)
        for pb, v in zip(bprobs, bvals)
        for ps, c in zip(sprobs, svals)
        if v > c
    )
    return {
        "buyer_rows": buyer_rows,
        "seller_rows": seller_rows,
        "u_b": u_b,
        "u_s": u_s,
        "gft_b": gft_b,
        "gft_s": gft_s,
        "gft": 0.5 * (gft_b + gft_s),
        "fb": fb,
    }


@pytest.mark.parametrize("seed", range(60))
def test_equilibrium_matches_brute_force(seed):
    instance = random_discrete_instance(seed)
    oracle = brute_force_equilibrium(instance)
    for v, price, utility, trade in oracle["buyer_rows"]:
        got = buyer_best_response(v, instance.seller)
        assert (got.price, got.utility, got.trade_prob) == (price, utility, trade)
    for c, price, utility, trade in oracle["seller_rows"]:
        got = seller_best_response(c, instance.buyer)
        assert (got.price, got.utility, got.trade_prob) == (price, utility, trade)
    eq = equilibrium(instance)
    assert eq.u_buyer == oracle["u_b"]
    assert eq.u_seller == oracle["u_s"]
    assert eq.gft_buyer_proposes == pytest.approx(oracle["gft_b"], rel=1e-12, abs=1e-12)
    assert eq.gft_seller_proposes == pytest.approx(oracle["gft_s"], rel=1e-12, abs=1e-12)
    assert eq.fb == pytest.approx(oracle["fb"], rel=1e-12, abs=1e-12)


# --------------------------------------------------------------------------
# first best


def test_first_best_point_buyer_uniform_seller():
    # independent oracle: quadrature of (1 - c) over the cost prior
    oracle, err = integrate.quad(lambda c: 1.0 - c, 0.0, 1.0)
    assert err < 1e-10
    got = first_best(P1U)
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(0.5, abs=1e-12)


def test_first_best_uniform_uniform():
    # integrate v - c over the trade region c <= v only, keeping the
    # quadrature oracle smooth
    oracle, err = integrate.dblquad(
        lambda c, v: v - c, 0.0, 1.0, lambda v: 0.0, lambda v: v
    )
    assert err < 1e-9
    got = first_best(UU)
    assert got == pytest.approx(oracle, abs=1e-9)
    assert got == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_first_best_no_trade():
    assert first_best(TradeInstance(buyer=point(0.0), seller=point(1.0))) == 0.0


def test_first_best_orientation_identity():
    # E[(v - c)^+] can also be read as the expected area under the seller's
    # acceptance curve up to v; both orientations must agree
    for instance in (UU, P1U, TradeInstance(buyer=uniform(0.2, 0.9), seller=COIN)):
        seller = instance.seller

        def horizontal(v):
            if v <= seller.support_min:
                return 0.0
            return seller.integrate_cdf(seller.support_min, v)

        alt = sum(
            pb * horizontal(v)
            for v, pb in zip(instance.buyer.values, instance.buyer.probs)
        ) if isinstance(instance.buyer, DiscreteDistribution) else None
        if alt is None:
            from tradegains import expect

            alt = expect(
                instance.buyer,
                lambda vs: np.asarray([horizontal(v) for v in vs.tolist()]),
                breakpoints=seller.knot_values(),
            )
        assert first_best(instance) == pytest.approx(alt, rel=1e-12, abs=1e-12)


# --------------------------------------------------------------------------
# best responses


def test_acceptance_prob_examples():
    assert acceptance_prob(uniform(0, 1), 0.5) == 0.5
    assert acceptance_prob(COIN, 0.0) == 0.5  # accepts at indifference
    assert acceptance_prob(uniform(0, 1), 2.0) == 1.0


def test_buyer_best_response_examples():
    got = buyer_best_response(1.0, uniform(0, 1))
    assert (got.price, got.utility, got.trade_prob) == (0.5, 0.25, 0.5)
    got = buyer_best_response(1.0, COIN)
    assert (got.price, got.utility, got.trade_prob) == (0.0, 0.5, 0.5)
    got = buyer_best_response(2.0, point(0.5))
    assert (got.price, got.utility, got.trade_prob) == (0.5, 1.5, 1.0)
    # value below the support floor: no useful offer
    got = buyer_best_response(0.2, point(0.5))
    assert (got.utility, got.trade_prob) == (0.0, 0.0)
    # at indifference the trade still happens (prefer larger trade probability)
    got = buyer_best_response(0.5, point(0.5))
    assert (got.price, got.utility, got.trade_prob) == (0.5, 0.0, 1.0)


def test_seller_best_response_examples():
    got = seller_best_response(0.0, uniform(0, 1))
    assert (got.price, got.utility, got.trade_prob) == (0.5, 0.25, 0.5)
    got = seller_best_response(0.3, point(1.0))
    assert (got.price, got.utility, got.trade_prob) == (1.0, 0.7, 1.0)
    got = seller_best_response(0.0, COIN)
    assert (got.price, got.utility, got.trade_prob) == (1.0, 0.5, 0.5)
    got = seller_best_response(1.5, point(1.0))
    assert (got.utility, got.trade_prob) == (0.0, 0.0)


@pytest.mark.parametrize("response", [buyer_best_response, seller_best_response])
@pytest.mark.parametrize("opponent", [uniform(0, 1), COIN], ids=["pwl", "discrete"])
@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
def test_best_responses_reject_non_finite_type(response, opponent, w):
    with pytest.raises(DomainError):
        response(w, opponent)


@pytest.mark.parametrize("seed", range(20))
def test_best_response_dominates_price_grid(seed):
    rng = np.random.default_rng(seed)
    sellers = [
        uniform(*sorted(rng.uniform(0, 1, 2))),
        DiscreteDistribution.from_atoms(
            zip(np.unique(rng.uniform(0, 1, 5)).tolist(), np.random.default_rng(seed).dirichlet(np.ones(len(np.unique(rng.uniform(0, 1, 5))))).tolist())
        ),
    ]
    v = float(rng.uniform(0, 1.2))
    grid = np.linspace(-0.1, 1.2, 301)
    for seller in sellers:
        best = buyer_best_response(v, seller).utility
        for p in grid:
            assert best >= (v - p) * seller.cdf(p) - 1e-12
        c = float(rng.uniform(0, 1.2))
        buyer = seller  # reuse as a buyer prior
        best_s = seller_best_response(c, buyer).utility
        for p in grid:
            assert best_s >= (p - c) * buyer.survival(p) - 1e-12


def test_best_response_utility_monotone(corpus_small):
    vs = np.linspace(-0.2, 1.2, 29)
    for instance in corpus_small[:20]:
        ub = [buyer_best_response(v, instance.seller).utility for v in vs]
        assert all(a <= b + 1e-12 for a, b in zip(ub, ub[1:]))
        us = [seller_best_response(c, instance.buyer).utility for c in vs]
        assert all(a >= b - 1e-12 for a, b in zip(us, us[1:]))


# --------------------------------------------------------------------------
# dense-grid seller oracle
#
# The library computes the seller side as the buyer side on negated priors,
# so the role-swap tests partly check that arithmetic against itself. This
# oracle shares none of it: Pr[value >= p] comes straight from the raw atoms
# or knots, and the best response is a maximum over a dense price grid.

GRID_PRICES = 20001


def grid_survival(buyer, prices):
    """``Pr[value >= p]`` for each price, numpy only, from the raw atoms or knots."""
    p = prices[:, None]
    if isinstance(buyer, DiscreteDistribution):
        values, probs = np.asarray(buyer.values), np.asarray(buyer.probs)
        return np.where(values >= p, probs, 0.0).sum(axis=1)
    qs, vals = np.asarray(buyer.qs), np.asarray(buyer.vals)
    ya, yb, width = vals[:-1], vals[1:], np.diff(qs)
    # share of each segment's quantiles whose value lies strictly below p
    rising = yb > ya
    below = np.where(
        rising,
        np.clip((p - ya) / np.where(rising, yb - ya, 1.0), 0.0, 1.0),
        (ya < p).astype(float),
    )
    return 1.0 - (below * width).sum(axis=1)


def grid_seller_best(c, buyer):
    """(largest grid utility, grid step) over prices from ``c`` to the buyer's top."""
    hi = max(c, buyer.support_max)
    prices = np.linspace(c, hi, GRID_PRICES)
    return float(((prices - c) * grid_survival(buyer, prices)).max()), (hi - c) / (GRID_PRICES - 1)


@pytest.mark.parametrize("seed", range(20))
def test_seller_best_response_brackets_grid_oracle(seed):
    # some grid point lies within one step below the optimal price and trades
    # at least as often, so the optimum is at most one step above the grid's
    rng = np.random.default_rng(seed)
    buyers = (random_pwl(rng, int(rng.integers(3, 13))), random_discrete(rng, 12))
    for buyer in buyers:
        for c in rng.uniform(-0.2, 1.1, 5).tolist():
            grid_best, step = grid_seller_best(c, buyer)
            got = seller_best_response(c, buyer).utility
            assert grid_best - 1e-12 <= got <= grid_best + step


# --------------------------------------------------------------------------
# equilibrium closed forms (derived by integrating the explicit price maps:
# against a unit-uniform opponent the buyer offers v/2 and the seller
# offers (1 + c)/2)


def test_equilibrium_uniform_uniform():
    eq = equilibrium(UU)
    assert eq.u_buyer == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert eq.u_seller == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert eq.gft_buyer_proposes == pytest.approx(1.0 / 8.0, abs=1e-12)
    assert eq.gft_seller_proposes == pytest.approx(1.0 / 8.0, abs=1e-12)
    assert eq.gft == pytest.approx(1.0 / 8.0, abs=1e-12)
    assert eq.fb == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_equilibrium_point_buyer_uniform_seller():
    eq = equilibrium(P1U)
    assert eq.gft_buyer_proposes == pytest.approx(3.0 / 8.0, abs=1e-12)
    assert eq.gft_seller_proposes == pytest.approx(0.5, abs=1e-12)
    assert eq.gft == pytest.approx(7.0 / 16.0, abs=1e-12)
    assert eq.u_buyer == pytest.approx(0.25, abs=1e-12)
    assert eq.u_seller == pytest.approx(0.5, abs=1e-12)


def test_equilibrium_two_points_full_extraction():
    eq = equilibrium(TradeInstance(buyer=point(1.0), seller=point(0.0)))
    assert eq.u_buyer == 1.0
    assert eq.u_seller == 1.0
    assert eq.gft == 1.0
    assert eq.fb == 1.0


def test_equilibrium_report_invariants(corpus_small):
    for instance in corpus_small:
        eq = equilibrium(instance)
        tol = 1e-12 * max(1.0, eq.fb)
        assert -tol <= eq.u_buyer <= eq.gft_buyer_proposes + tol
        assert eq.gft_buyer_proposes <= eq.fb + tol
        assert -tol <= eq.u_seller <= eq.gft_seller_proposes + tol
        assert eq.gft_seller_proposes <= eq.fb + tol
        assert eq.gft == 0.5 * (eq.gft_buyer_proposes + eq.gft_seller_proposes)
        assert eq.gft <= eq.fb + tol


def test_equilibrium_pwl_cross_validated_by_simulation():
    # shifted/partial-overlap supports and a pwl atom exercise the
    # breakpoint enumeration away from the canonical cases
    from tradegains import simulate_fb, simulate_mechanism

    step = PiecewiseLinearDistribution.from_knots([(0.0, 0.0), (0.5, 0.5), (1.0, 0.5)])
    cases = [
        TradeInstance(buyer=uniform(0.2, 1.2), seller=uniform(0.0, 0.5)),
        TradeInstance(buyer=uniform(0.0, 0.6), seller=uniform(0.4, 1.0)),
        TradeInstance(buyer=uniform(0.0, 1.0), seller=step),
        TradeInstance(buyer=step, seller=uniform(0.0, 1.0)),
        TradeInstance(buyer=step, seller=COIN),
    ]
    for instance in cases:
        eq = equilibrium(instance)
        fb_est = simulate_fb(instance, 400000, 31)
        assert abs(fb_est.mean - eq.fb) <= 4.0 * fb_est.stderr + 1e-12
        sim = simulate_mechanism(instance, 400000, 32)
        assert abs(sim.gft.mean - eq.gft) <= 4.0 * sim.gft.stderr + 1e-12
        assert abs(sim.u_buyer.mean - eq.u_buyer) <= 4.0 * sim.u_buyer.stderr + 1e-12
        assert abs(sim.u_seller.mean - eq.u_seller) <= 4.0 * sim.u_seller.stderr + 1e-12


# --------------------------------------------------------------------------
# role swap


def test_role_swap_shape():
    swapped = role_swap(P1U)
    assert isinstance(swapped.buyer, PiecewiseLinearDistribution)
    assert swapped.buyer.vals == (-1.0, 0.0)
    assert swapped.seller == point(-1.0)


def test_role_swap_preserves_first_best():
    assert first_best(role_swap(P1U)) == pytest.approx(0.5, abs=1e-12)
    assert first_best(role_swap(UU)) == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_role_swap_exchanges_utilities(corpus_small):
    for instance in corpus_small[:30]:
        eq = equilibrium(instance)
        eq_swapped = equilibrium(role_swap(instance))
        assert eq_swapped.u_buyer == pytest.approx(eq.u_seller, rel=1e-12, abs=1e-12)
        assert eq_swapped.u_seller == pytest.approx(eq.u_buyer, rel=1e-12, abs=1e-12)
        assert eq_swapped.fb == pytest.approx(eq.fb, rel=1e-12, abs=1e-12)
        assert eq_swapped.gft == pytest.approx(eq.gft, rel=1e-12, abs=1e-12)


def test_negating_twice_gives_back_the_prior():
    # a discrete negation's cum holds the complements of the original's, and
    # re-negating took complements again: {0.1, 0.2, 0.7} came back with cum
    # (0.09999999999999998, 0.30000000000000004, 1.0), 1 ulp off the first
    thirds = DiscreteDistribution.from_atoms([(0.1, 0.1), (0.2, 0.2), (0.7, 0.7)])
    for prior in (thirds, random_pwl(np.random.default_rng(5), 6)):
        assert prior.negate().negate() is prior
    instance = TradeInstance(buyer=thirds, seller=random_discrete(np.random.default_rng(7), 64))
    twice = role_swap(role_swap(instance))
    assert [x.hex() for x in twice.buyer.cum + twice.seller.cum] == [x.hex() for x in thirds.cum + instance.seller.cum]
    assert equilibrium(twice) == equilibrium(instance)


# --------------------------------------------------------------------------
# serialization


def test_instance_json_round_trip():
    blob = trade_instance_to_json(P1U)
    back = trade_instance_from_json(blob)
    assert back.buyer == P1U.buyer
    assert back.seller == P1U.seller


def test_instance_json_reports_both_sides():
    bad = {"buyer": {"kind": "discrete", "atoms": [[0, 0.4]]}, "seller": {"kind": "nope"}}
    from tradegains import ValidationError

    with pytest.raises(ValidationError) as err:
        trade_instance_from_json(bad)
    assert any(msg.startswith("buyer:") for msg in err.value.problems)
    assert any(msg.startswith("seller:") for msg in err.value.problems)
