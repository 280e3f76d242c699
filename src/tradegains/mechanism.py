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
import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    Distribution,
    PiecewiseLinearDistribution,
    distribution_from_json,
    expect,
)
from .errors import DomainError, ValidationError


@dataclass(frozen=True)
class TradeInstance:
    """Independent buyer-value and seller-cost priors (product data model).

    The span of values over both priors must be a finite float, so that
    every surplus ``v - c`` is; otherwise :class:`ValidationError`.
    """

    buyer: Distribution
    seller: Distribution

    def __post_init__(self):
        lo = min(self.buyer.support_min, self.seller.support_min)
        hi = max(self.buyer.support_max, self.seller.support_max)
        if not math.isfinite(hi - lo):
            raise ValidationError(
                [f"the value span {lo!r} .. {hi!r} of the two priors overflows a float"]
            )


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


#: Below this many values a best response is solved value by value. The array
#: fold makes 40-140 numpy calls whatever its size; on a 2-CPU host at about
#: 2x slowdown it breaks even with the value-by-value fold near 14-21 values
#: against a discrete seller and 42-56 against a pwl one. Run at every size,
#: it costs the benchmark's sweep-small and pwl-exact workloads, whose calls
#: mostly score 1-8 values, 12% and 16% of their operations per second.
_ARRAY_MIN = 24

#: From this many values the array fold finds each value's envelope entry
#: through the envelope's guide table, not numpy's binary search. On a 2-CPU
#: host against 64 entries, the binary search is faster at every size on
#: sorted values, such as the exact path's atoms and nodes (2-4 calls of
#: 49-256 values per ``eq`` plus ``verify``): 3 against 23 us at 256 values.
#: On unsorted ones, such as Monte Carlo's samples (about 65,000 per call),
#: the guide is faster from about 4,096 values: 1.6 against 3.5 ms at 65,536.
_GUIDE_MIN = 1 << 14


def buyer_best_response_many(
    vs: np.ndarray, seller: Distribution
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Price, utility and trade probability maximizing ``(v - p) * Pr[cost <= p]`` at each ``v``.

    Ties are broken toward the larger trade probability, then the smaller
    price. When no offer can trade (``v`` below the seller's support) the
    buyer quotes his own value and keeps utility zero. A non-finite value
    raises :class:`DomainError`.

    Only the envelope entry on top at ``v`` and its two neighbours are
    scored, so rounding in the envelope's starts cannot drop the winner.
    Their candidates, entry by entry and each entry's knots before its
    stationary price, are folded into a running best under the key
    ``(utility, trade probability, -price)``: a candidate replaces the best
    only when its key is larger, so on an exact tie the first one stays, as
    with ``max``. Below ``_ARRAY_MIN`` values the fold runs value by value;
    from there on it runs over arrays, one candidate at a time: the knots'
    trade probabilities come from the envelope's columns and the stationary
    prices take one ``cdf_many`` call, so every element is bit-identical to
    the value-by-value fold.
    """
    vs = np.asarray(vs, dtype=float)
    finite = np.isfinite(vs)
    if not finite.all():
        raise DomainError(f"v must be finite, got {float(vs[~finite][0])!r}")
    if vs.size < _ARRAY_MIN:
        best = np.asarray([_best_response_at(v, seller) for v in vs.ravel().tolist()])
        best = best.reshape(*vs.shape, 3)
        return best[..., 0], best[..., 1], best[..., 2]

    envelope = seller.buyer_envelope
    starts, price, trade, lo, hi, r = envelope.columns
    if vs.size < _GUIDE_MIN:
        top = starts.searchsorted(vs, side="right")
    else:
        top = envelope._starts_guide.search(vs, "right")
    window = (top - 1, top, top + 1)  # columns of the entries i - 2 .. i, entry i - 1 on top
    segments = len(price) > 1  # an entry offers two knots only when it is a segment
    if segments:  # trade probabilities of the stationary prices inside [lo, hi], in one call
        inside = [(lo[col] <= vs) & (vs <= hi[col]) for col in window]
        xs = seller.cdf_many(np.concatenate([0.5 * (vs[m] - r[col][m]) for col, m in zip(window, inside)]))
        stationary_x = np.split(xs, np.cumsum([np.count_nonzero(m) for m in inside[:-1]]))

    best_p, best_u, best_x = vs.copy(), np.full_like(vs, -np.inf), np.zeros_like(vs)

    def fold(p, x, u):
        # a NaN utility marks a candidate not offered at v, and loses every comparison
        better = (u > best_u) | ((u == best_u) & ((x > best_x) | ((x == best_x) & (p < best_p))))
        np.copyto(best_p, p, where=better)
        np.copyto(best_u, u, where=better)
        np.copyto(best_x, x, where=better)

    for j, col in enumerate(window):
        for k in range(len(price)):
            p, x = price[k][col], trade[k][col]
            u = (vs - p) * x
            u[p > vs] = np.nan
            fold(p, x, u)
        if segments:
            p, x = 0.5 * (vs - r[col]), np.full_like(vs, np.nan)
            x[inside[j]] = stationary_x[j]
            fold(p, x, (vs - p) * x)
    # no offer can trade (v below the seller's support): quote v, keep 0
    return best_p, np.where(best_u == -np.inf, 0.0, best_u), best_x


def _best_response_at(v: float, seller: Distribution) -> tuple[float, float, float]:
    """The fold of :func:`buyer_best_response_many` at one finite value, over ``max`` of the keys."""
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
        return v, 0.0, 0.0
    u, x, neg_p = max(keys)
    return -neg_p, u, x


def buyer_best_response(v: float, seller: Distribution) -> BestResponse:
    """:func:`buyer_best_response_many` at the one value ``v``, by the value-by-value fold."""
    price, utility, trade_prob = _best_response_at(_check_value(v), seller)
    return BestResponse(price=price, utility=utility, trade_prob=trade_prob)


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


def _trade_surplus(v: np.ndarray, seller: Distribution, x: np.ndarray) -> np.ndarray:
    """Surplus ``v * x - integral of c(q) over [0, x]`` of trading quantiles ``[0, x]`` at each ``v``."""
    return np.where(x > 0.0, v * x - seller._integrate_quantile_to_many(x), 0.0)


def first_best(instance: TradeInstance) -> float:
    """Expected surplus of the omniscient benchmark, ``E[(v - c)^+]``.

    Conditioned on ``v`` this is ``v * x(v) - integral of cost quantile up
    to x(v)``; the outer expectation over the buyer prior is exact.
    """
    seller = instance.seller
    return expect(
        instance.buyer, lambda v: _trade_surplus(v, seller, seller.cdf_many(v)), seller.knot_values()
    )


def _buyer_proposer_side(buyer: Distribution, seller: Distribution) -> tuple[float, float]:
    """(expected proposer utility, expected GFT) when the buyer proposes."""

    def record(vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        _, utility, trade_prob = buyer_best_response_many(vs, seller)
        return utility, _trade_surplus(vs, seller, trade_prob)

    breaks: list[float] = []
    if isinstance(buyer, PiecewiseLinearDistribution):  # expect ignores them otherwise
        breaks = buyer_response_breakpoints(seller)
    return expect(buyer, record, breaks)


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
