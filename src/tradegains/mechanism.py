"""Random proposer mechanism: first best, posted-price best responses, equilibrium.

A fair coin picks the buyer or the seller to quote a take-it-or-leave-it
price against the opponent's prior; the responder accepts whenever the
trade is weakly beneficial. This module computes the canonical
best-response equilibrium of that game exactly:

* best-response prices are optimized in closed form per linear segment of
  the opponent's CDF (no grid search), and
* outer expectations over a piecewise-linear prior are taken with
  Gauss-Legendre quadrature after splitting the quantile domain at every
  point where the best-response formula can switch.

Only the buyer's side is implemented: a seller of cost ``c`` proposing
against buyer prior ``F`` is a buyer of value ``-c`` proposing against the
negated prior, which keeps the surplus ``v - c`` and maps her larger-price
tie-break onto his smaller-price one. So the seller side is the buyer side
of :func:`role_swap` of the instance, with prices negated back.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

from .distributions import (
    Distribution,
    PiecewiseLinearDistribution,
    distribution_from_json,
    expect,
)
from .errors import DomainError, ValidationError


@dataclass(frozen=True)
class TradeInstance:
    """Independent buyer-value and seller-cost priors (product data model)."""

    buyer: Distribution
    seller: Distribution


@dataclass(frozen=True)
class BestResponse:
    """Optimal posted price for one proposer type against the opponent prior."""

    price: float
    utility: float
    trade_prob: float


@dataclass(frozen=True)
class EquilibriumReport:
    """Expected utilities and gains from trade of the best-response equilibrium."""

    u_buyer: float
    u_seller: float
    gft_buyer_proposes: float
    gft_seller_proposes: float
    gft: float
    fb: float

    def to_json(self) -> dict:
        return {
            "u_buyer": self.u_buyer,
            "u_seller": self.u_seller,
            "gft_buyer_proposes": self.gft_buyer_proposes,
            "gft_seller_proposes": self.gft_seller_proposes,
            "gft": self.gft,
            "fb": self.fb,
        }


def acceptance_prob(seller: Distribution, p: float) -> float:
    """Probability that the seller accepts an offer of ``p``.

    The seller accepts iff her cost is at most ``p``, accepting at
    indifference, so this is the right-continuous CDF.
    """
    return seller.cdf(p)


def _check_value(v: float) -> float:
    v = float(v)
    if not math.isfinite(v):
        raise DomainError(f"v must be finite, got {v!r}")
    return v


# --------------------------------------------------------------------------
# candidate prices
#
# Against a discrete opponent the only undominated prices are the opponent's
# atom values (on the profitable side). Against a piecewise-linear opponent
# the objective is quadratic on each strictly increasing CDF segment, so the
# candidates are the knot values plus each segment's stationary point
# (``Distribution.stationary_segments``) while it stays inside the segment,
# which also keeps it at or below v. The opponent's ``buyer_envelope`` says
# which few of them can win at each buyer value.


def buyer_best_response(v: float, seller: Distribution) -> BestResponse:
    """Price maximizing ``(v - p) * Pr[cost <= p]`` for a buyer of value ``v``.

    Ties are broken toward the larger trade probability, then the smaller
    price. When no offer can trade (``v`` below the seller's support) the
    buyer quotes his own value and keeps utility zero. A non-finite ``v``
    raises :class:`DomainError`.

    Only the envelope entry on top at ``v`` and its two neighbours are
    scored, so rounding in the envelope's starts cannot drop the winner.
    """
    v = _check_value(v)
    env = seller.buyer_envelope
    i = bisect.bisect_right(env.starts, v)  # entry i - 1 is on top
    keys = []  # (utility, trade probability, -price) per candidate
    for fixed, lo, hi, r in env.entries[max(i - 2, 0) : i + 1]:
        keys += [((v - p) * x, x, -p) for p, x in fixed if p <= v]
        if lo <= v <= hi:
            p = 0.5 * (v - r)
            x = seller.cdf(p)
            keys.append(((v - p) * x, x, -p))
    if not keys:
        return BestResponse(price=v, utility=0.0, trade_prob=0.0)
    u, x, neg_p = max(keys)
    return BestResponse(price=-neg_p, utility=u, trade_prob=x)


def seller_best_response(c: float, buyer: Distribution) -> BestResponse:
    """Price maximizing ``(p - c) * Pr[value >= p]`` for a seller of cost ``c``.

    Solved as a buyer of value ``-c`` against the negated prior, whose CDF at
    ``-p`` is the survival at ``p`` (a buyer atom at the price accepts). Ties
    go to the larger trade probability, then the larger price.
    """
    r = buyer_best_response(-float(c), buyer.negate())
    return BestResponse(price=-r.price, utility=r.utility, trade_prob=r.trade_prob)


# --------------------------------------------------------------------------
# breakpoints of the best-response map


def buyer_response_breakpoints(seller: Distribution) -> list[float]:
    """Buyer values where the buyer's best-response formula may switch.

    These are where an envelope entry takes over, the seller's support
    minimum (below it no offer trades) and the ends of every stationary
    price's validity, so every quantity integrated over the buyer prior is
    polynomial between them.
    """
    breaks = set(seller.buyer_envelope.starts[1:])
    breaks.add(seller.support_min)
    for lo, hi, _, _ in seller.stationary_segments:
        breaks.update((lo, hi))
    return sorted(b for b in breaks if math.isfinite(b))


def seller_response_breakpoints(buyer: Distribution) -> list[float]:
    """Seller costs where the seller's best-response formula may switch."""
    return [-w for w in reversed(buyer_response_breakpoints(buyer.negate()))]


# --------------------------------------------------------------------------
# headline quantities


def first_best(instance: TradeInstance) -> float:
    """Expected surplus of the omniscient benchmark, ``E[(v - c)^+]``.

    Conditioned on ``v`` this is ``v * x(v) - integral of cost quantile up
    to x(v)``; the outer expectation over the buyer prior is exact.
    """
    seller = instance.seller

    def conditional(v: float) -> float:
        x = seller.cdf(v)
        if x <= 0.0:
            return 0.0
        return v * x - seller.integrate_quantile(0.0, x)

    return expect(instance.buyer, conditional, breakpoints=seller.knot_values())


def _buyer_proposer_side(buyer: Distribution, seller: Distribution) -> tuple[float, float]:
    """(expected proposer utility, expected GFT) when the buyer proposes."""

    @functools.cache
    def br(v: float) -> BestResponse:
        return buyer_best_response(v, seller)

    def gft_cond(v: float) -> float:
        x = br(v).trade_prob
        if x <= 0.0:
            return 0.0
        return v * x - seller.integrate_quantile(0.0, x)

    breaks: list[float] = []
    if isinstance(buyer, PiecewiseLinearDistribution):  # expect ignores them otherwise
        breaks = buyer_response_breakpoints(seller)
    u = expect(buyer, lambda v: br(v).utility, breaks)
    gft = expect(buyer, gft_cond, breaks)
    return u, gft


def equilibrium(instance: TradeInstance) -> EquilibriumReport:
    """Canonical best-response equilibrium of the random proposer mechanism.

    Each side proposes its exact best-response price and the responder
    accepts at indifference; the two proposer roles are averaged with equal
    weight.
    """
    swapped = role_swap(instance)
    u_b, gft_b = _buyer_proposer_side(instance.buyer, instance.seller)
    u_s, gft_s = _buyer_proposer_side(swapped.buyer, swapped.seller)
    return EquilibriumReport(
        u_buyer=u_b,
        u_seller=u_s,
        gft_buyer_proposes=gft_b,
        gft_seller_proposes=gft_s,
        gft=0.5 * (gft_b + gft_s),
        fb=first_best(instance),
    )


def role_swap(instance: TradeInstance) -> TradeInstance:
    """Swap the two roles by negating values: surplus ``v - c`` is preserved."""
    return TradeInstance(buyer=instance.seller.negate(), seller=instance.buyer.negate())


# --------------------------------------------------------------------------
# serialization


def trade_instance_from_json(obj) -> TradeInstance:
    if not isinstance(obj, dict) or "buyer" not in obj or "seller" not in obj:
        raise ValidationError(["instance must be an object with 'buyer' and 'seller'"])
    problems: list[str] = []
    dists = {}
    for side in ("buyer", "seller"):
        try:
            dists[side] = distribution_from_json(obj[side])
        except ValidationError as err:
            problems.extend(f"{side}: {msg}" for msg in err.problems)
    if problems:
        raise ValidationError(problems)
    return TradeInstance(buyer=dists["buyer"], seller=dists["seller"])


def trade_instance_to_json(instance: TradeInstance) -> dict:
    return {"buyer": instance.buyer.to_json(), "seller": instance.seller.to_json()}
