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
from dataclasses import dataclass, fields

import numpy as np

from .distributions import (
    Distribution,
    PiecewiseLinearDistribution,
    distribution_from_json,
    expect,
)
from .errors import DomainError, ValidationError


#: The ``dataclasses.field`` metadata of a report field that ``to_json`` leaves out.
_UNPRINTED = {"printed": False}


class _Report:
    """A report dataclass whose JSON form is its fields in declaration order.

    ``lam`` is printed as ``lambda``, a nested report as its own JSON and a
    dict as a copy; a field declared with ``metadata=_UNPRINTED`` is left out.
    """

    def to_json(self) -> dict:
        out = {}
        for f in fields(self):
            if f.metadata.get("printed", True):
                value = getattr(self, f.name)
                if isinstance(value, _Report):
                    value = value.to_json()
                elif isinstance(value, dict):
                    value = dict(value)
                out["lambda" if f.name == "lam" else f.name] = value
        return out


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
class EquilibriumReport(_Report):
    """Expected utilities and gains from trade of the best-response equilibrium."""

    u_buyer: float
    u_seller: float
    gft_buyer_proposes: float
    gft_seller_proposes: float
    gft: float
    fb: float


def acceptance_prob(seller: Distribution, p: float) -> float:
    """Probability that the seller accepts an offer of ``p``.

    The seller accepts iff her cost is at most ``p``, accepting at
    indifference, so this is the right-continuous CDF.
    """
    return seller.cdf(p)


def _check_value(v: float, prior: Distribution) -> float:
    """``v`` as a float; :class:`DomainError` unless it is finite and its span with ``prior`` is."""
    v = float(v)
    if not math.isfinite(v):
        raise DomainError(f"v must be finite, got {v!r}")
    _check_span(v, v, prior)
    return v


def _check_span(lo: float, hi: float, prior: Distribution) -> None:
    """:class:`DomainError` if ``lo .. hi`` and ``prior``'s support, where every surplus lies, span more than a float."""
    lo, hi = min(lo, prior.support_min), max(hi, prior.support_max)
    if not math.isfinite(hi - lo):
        raise DomainError(f"the value span {lo!r} .. {hi!r} of v and the prior overflows a float")


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
#: through the envelope's guide table, not numpy's binary search. Monte
#: Carlo prices about 8,192 unsorted samples per call (half a 2**14-trial
#: chunk), twice this threshold. There, on a 2-CPU host (best of 7 x 20
#: lookups, two runs), the guide took 96-114 against 156-187 us on a
#: 12-entry envelope and 93-112 against 318-426 us on 64 entries, and tied
#: on 3; on unsorted values it breaks even near 2,048-4,096. The binary
#: search is faster on sorted values, such as the exact path's atoms and
#: nodes (3 against 23 us at 256 values), whose calls mostly score 49-2,048.
_GUIDE_MIN = 1 << 12


def _better(u, x, p, best_u, best_x, best_p):
    """Whether a candidate price ``p``, earning ``u`` at trade probability ``x``, beats the best so far.

    The one tie rule of every best response: the larger utility wins, then
    the larger trade probability, then the smaller price. A candidate equal
    to the best on all three does not replace it, so the first one stays,
    as with ``max`` over the keys ``(u, x, -p)``. On floats it returns a
    bool, on arrays an array of them; a NaN utility loses every comparison.
    """
    return (u > best_u) | ((u == best_u) & ((x > best_x) | ((x == best_x) & (p < best_p))))


def buyer_best_response_many(
    vs: np.ndarray, seller: Distribution
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Price, utility and trade probability maximizing ``(v - p) * Pr[cost <= p]`` at each ``v``.

    Ties are broken by :func:`_better`. When no offer can trade (``v``
    below the seller's support) the buyer quotes his own value and keeps
    utility zero. A non-finite value, or values whose span with the
    seller's support overflows a float, raise :class:`DomainError`.

    Only the envelope entry on top at ``v`` and its two neighbours are
    scored, so rounding in the envelope's starts cannot drop the winner.
    Their candidates, entry by entry and each entry's knots before its
    stationary price, are folded by :func:`_better` into a running best
    that starts at that quote of ``v``. Every candidate earns at least 0,
    so where there are candidates the fold returns the best of them.
    Below ``_ARRAY_MIN`` values the fold runs value by value; from there on
    it runs over arrays, one candidate at a time: the knots' trade
    probabilities come from the envelope's columns and the stationary
    prices take one ``cdf_many`` call, so every element is bit-identical to
    the value-by-value fold.
    """
    vs = np.asarray(vs, dtype=float)
    if vs.size:
        lo, hi = float(vs.min()), float(vs.max())  # NaN if any value is NaN
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"v must be finite, got {float(vs[~np.isfinite(vs)][0])!r}")
        _check_span(lo, hi, seller)
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
    # a candidate not offered at v, a knot above it or a stationary price outside [lo, hi],
    # gets a NaN utility, which loses every comparison
    if segments:  # the stationary prices' trade probabilities in one call, NaN outside [lo, hi]
        inside = np.array([(lo[col] <= vs) & (vs <= hi[col]) for col in window])
        stationary_x = np.full(inside.shape, np.nan)
        stationary_x[inside] = seller.cdf_many(np.concatenate([0.5 * (vs[m] - r[col][m]) for col, m in zip(window, inside)]))

    best_p, best_u, best_x = vs.copy(), np.zeros_like(vs), np.zeros_like(vs)  # quote v, keep 0
    for j, col in enumerate(window):
        offers = [(ps[col], xs[col]) for ps, xs in zip(price, trade)]
        if segments:
            offers.append((0.5 * (vs - r[col]), stationary_x[j]))
        for k, (p, x) in enumerate(offers):
            u = (vs - p) * x
            if k < len(price):  # a knot
                u[p > vs] = np.nan
            better = _better(u, x, p, best_u, best_x, best_p)
            for best, new in ((best_p, p), (best_u, u), (best_x, x)):
                np.copyto(best, new, where=better)
    return best_p, best_u, best_x


def _best_response_at(v: float, seller: Distribution) -> tuple[float, float, float]:
    """The fold of :func:`buyer_best_response_many` at one finite value, over the same three columns."""
    env = seller.buyer_envelope
    top = bisect.bisect_right(env.starts, v)  # column top holds the entry on top
    slots, lo, hi = tuple(zip(env.price, env.trade)), env.lo, env.hi
    offers = []
    for col in (top - 1, top, top + 1):
        for prices, trades in slots:
            if prices[col] <= v:
                offers.append((prices[col], trades[col]))
        if lo[col] <= v <= hi[col]:
            p = 0.5 * (v - env.r[col])
            offers.append((p, seller.cdf(p)))
    best_p, best_u, best_x = v, 0.0, 0.0  # quote v, keep 0
    for p, x in offers:
        u = (v - p) * x
        if _better(u, x, p, best_u, best_x, best_p):
            best_p, best_u, best_x = p, u, x
    return best_p, best_u, best_x


def buyer_best_response(v: float, seller: Distribution) -> BestResponse:
    """:func:`buyer_best_response_many` at the one value ``v``, by the value-by-value fold."""
    price, utility, trade_prob = _best_response_at(_check_value(v, seller), seller)
    return BestResponse(price=price, utility=utility, trade_prob=trade_prob)


def seller_best_response(c: float, buyer: Distribution) -> BestResponse:
    """Price maximizing ``(p - c) * Pr[value >= p]`` for a seller of cost ``c``.

    Solved as a buyer of value ``-c`` against the negated prior, whose CDF at
    ``-p`` is the survival at ``p`` (a buyer atom at the price accepts).
    :func:`_better` breaks ties on the negated prices, so of two offers
    equal in utility and trade probability the larger price wins.
    """
    r = buyer_best_response(-_check_value(c, buyer), buyer.negate())
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
