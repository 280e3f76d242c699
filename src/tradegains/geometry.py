"""Geometric decomposition of the gains from trade for a fixed buyer value.

Fix a buyer value ``v`` and let ``x(p)`` be the seller's acceptance curve
(her CDF) with quantile inverse ``c(q)``. With a scaling parameter
``lambda`` in (0, 1), define the deviation price ``b = c(lambda * x(v))``.
This module computes, exactly:

* ``fb_v``       -- conditional first best, integral of ``v - c(q)`` over
  ``q`` in ``[0, x(v)]``;
* ``area_S``     -- area under ``x(p)`` for prices up to ``b``;
* ``area_B``     -- area under ``x(p)`` for prices in ``[b, v]``;
* ``area_A``     -- integral of ``v - c(q)`` over ``q`` in
  ``[lambda * x(v), x(v)]`` (the wedge above the scaled quantile);
* ``u_S_geom``   -- integral of ``c(q / lambda) - c(q)`` over ``q`` in
  ``[0, lambda * x(v)]``, a lower bound on the utility of the seller's
  quantile-scaling strategy;
* ``u_B_dev``    -- the buyer's deviation utility ``(v - b) * x(b)``.

They satisfy ``area_S + area_B = fb_v`` and
``u_S_geom + area_A = (1 - lambda) * fb_v`` identically; the aggregate
inequalities verified by :func:`verify_bounds` follow from these plus the
best-response optimality of the equilibrium prices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    DiscreteDistribution,
    Distribution,
    PiecewiseLinearDistribution,
    expect,
)
from .errors import DomainError, InvariantViolation
from .mechanism import (
    EquilibriumReport,
    TradeInstance,
    _check_value,
    buyer_best_response,
    buyer_response_breakpoints,
    equilibrium,
)
from .ratio import _check_lambda, _log_inverse

#: Slack tolerance for the proven identities/inequalities, relative to
#: max(1, magnitude).
SLACK_TOL = 1e-9


@dataclass(frozen=True)
class Decomposition:
    """All fixed-v geometric quantities at one scaling parameter."""

    v: float
    lam: float
    x_v: float
    b_lambda: float
    fb_v: float
    area_S: float
    area_B: float
    area_A: float
    u_S_geom: float
    u_B_dev: float
    u_B_opt: float

    def to_json(self) -> dict:
        return {
            "v": self.v,
            "lambda": self.lam,
            "x_v": self.x_v,
            "b_lambda": self.b_lambda,
            "fb_v": self.fb_v,
            "area_S": self.area_S,
            "area_B": self.area_B,
            "area_A": self.area_A,
            "u_S_geom": self.u_S_geom,
            "u_B_dev": self.u_B_dev,
            "u_B_opt": self.u_B_opt,
        }


def decompose_fixed_v(v: float, seller: Distribution, lam: float) -> Decomposition:
    """Exact geometric decomposition for buyer value ``v``.

    When ``x(v) = 0`` no trade is possible and every area is zero.
    """
    lam = _check_lambda(lam)
    v = _check_value(v)
    return _decompose(v, seller, lam, buyer_best_response(v, seller).utility)


def _decompose(v: float, seller: Distribution, lam: float, u_b_opt: float) -> Decomposition:
    """:func:`decompose_fixed_v` on checked arguments, with ``u_B_opt`` given."""
    x_v, b, fb_v, area_a, u_s_geom = _quantile_fields(v, seller, lam)
    area_s = area_b = u_b_dev = 0.0
    if x_v > 0.0:
        area_s = seller.integrate_cdf(seller.support_min, b)
        area_b = seller.integrate_cdf(b, v)
        u_b_dev = (v - b) * seller.cdf(b)
    return Decomposition(
        v=v, lam=lam, x_v=x_v, b_lambda=b, fb_v=fb_v,
        area_S=area_s, area_B=area_b, area_A=area_a,
        u_S_geom=u_s_geom, u_B_dev=u_b_dev, u_B_opt=u_b_opt,
    )


def _quantile_fields(v: float, seller: Distribution, lam: float) -> tuple[float, ...]:
    """``(x_v, b_lambda, fb_v, area_A, u_S_geom)``: the decomposition with no ``integrate_cdf``."""
    x_v = seller.cdf(v)
    if x_v <= 0.0:
        return 0.0, seller.quantile(0.0), 0.0, 0.0, 0.0
    lx = lam * x_v
    cost_to_xv = seller.integrate_quantile(0.0, x_v)
    cost_to_lx = seller.integrate_quantile(0.0, lx)
    area_a = v * (x_v - lx) - (cost_to_xv - cost_to_lx)
    return x_v, seller.quantile(lx), v * x_v - cost_to_xv, area_a, lam * cost_to_xv - cost_to_lx


def buyer_deviation_bound(v: float, seller: Distribution, lam: float) -> tuple[float, float]:
    """Deviation price ``b = c(lambda * x(v))`` and its utility ``(v - b) * x(b)``.

    Because ``x(b) >= lambda * x(v)`` under the left-continuous quantile
    convention, the utility is at least ``lambda * x(v) * (v - b)``.
    """
    lam = _check_lambda(lam)
    v = _check_value(v)
    x_v = seller.cdf(v)
    b = seller.quantile(lam * x_v)
    if x_v <= 0.0:
        return b, 0.0
    return b, (v - b) * seller.cdf(b)


def seller_scaling_utility(v: float, seller: Distribution, lam: float) -> float:
    """Expected utility against value ``v`` of offering ``c(min(q / lambda, 1))``.

    The offer is accepted exactly while it is at most ``v`` (acceptance at
    indifference), i.e. while ``min(q / lambda, 1) <= x(v)``. The result is
    never below ``u_S_geom``, which discards the utility earned at
    quantiles above ``lambda * x(v)``.
    """
    lam = _check_lambda(lam)
    v = _check_value(v)
    x_v = seller.cdf(v)
    if x_v <= 0.0:
        return 0.0
    total_cost = seller.integrate_quantile(0.0, 1.0)
    if x_v >= 1.0:
        # every offer is accepted; quantiles above lambda all quote the top
        return lam * total_cost + (1.0 - lam) * seller.quantile(1.0) - total_cost
    return lam * seller.integrate_quantile(0.0, x_v) - seller.integrate_quantile(0.0, lam * x_v)


def key_lemma_margin(v: float, seller: Distribution, q: float) -> float:
    """Optimal buyer utility minus ``q * (v - c(q))`` for ``q`` in ``[0, x(v)]``.

    Offering ``c(q)`` trades with probability at least ``q``, so the margin
    is non-negative up to roundoff.
    """
    v = _check_value(v)
    q = float(q)
    x_v = seller.cdf(v)
    if not 0.0 <= q <= x_v:
        raise DomainError(f"q must lie in [0, x(v)] = [0, {x_v!r}], got {q!r}")
    u_opt = buyer_best_response(v, seller).utility
    return u_opt - q * (v - seller.quantile(q))


def key_lemma_margins(v: float, seller: Distribution, qs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`key_lemma_margin` over an array of quantiles."""
    v = _check_value(v)
    qs = np.asarray(qs, dtype=float)
    x_v = seller.cdf(v)
    if qs.size and (qs.min() < 0.0 or qs.max() > x_v):
        raise DomainError(f"all q must lie in [0, x(v)] = [0, {x_v!r}]")
    u_opt = buyer_best_response(v, seller).utility
    return u_opt - qs * (v - seller.quantile_many(qs))


# --------------------------------------------------------------------------
# aggregation over the buyer prior


def _decomposition_breakpoints(seller: Distribution, lam: float) -> list[float]:
    """Buyer values where any fixed-v decomposition field can kink."""
    breaks = set(seller.knot_values())
    if isinstance(seller, PiecewiseLinearDistribution):
        # values where lambda * x(v) crosses a quantile knot level
        for qk in seller.qs:
            level = qk / lam
            if level <= 1.0:
                breaks.add(seller.quantile(level))
    return sorted(breaks)


def _probe_values(buyer: Distribution, grid: int = 129) -> list[float]:
    """Deterministic conditioning values covering the buyer prior."""
    if isinstance(buyer, DiscreteDistribution):
        return list(buyer.values)
    ts = sorted(set(buyer.qs) | {i / (grid - 1) for i in range(grid)})
    return sorted({buyer.quantile(t) for t in ts})


@dataclass(frozen=True)
class AggregateDecomposition:
    """Expectations of the fixed-v decomposition over the buyer prior."""

    lam: float
    fb: float
    area_S: float
    area_B: float
    area_A: float
    u_S_geom: float
    u_B_dev: float
    u_B_opt: float

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "fb": self.fb,
            "area_S": self.area_S,
            "area_B": self.area_B,
            "area_A": self.area_A,
            "u_S_geom": self.u_S_geom,
            "u_B_dev": self.u_B_dev,
            "u_B_opt": self.u_B_opt,
        }


def aggregate_decomposition(instance: TradeInstance, lam: float) -> AggregateDecomposition:
    """Expectation of every decomposition field over the buyer prior."""
    lam = _check_lambda(lam)
    buyer, seller = instance.buyer, instance.seller

    def record(v: float) -> tuple[float, ...]:
        d = decompose_fixed_v(v, seller, lam)
        return d.fb_v, d.area_S, d.area_B, d.area_A, d.u_S_geom, d.u_B_dev, d.u_B_opt

    breaks = _decomposition_breakpoints(seller, lam)
    if isinstance(buyer, PiecewiseLinearDistribution):  # expect ignores them otherwise
        breaks += buyer_response_breakpoints(seller)
    # the record's fields follow AggregateDecomposition's after lam
    return AggregateDecomposition(lam, *expect(buyer, record, breaks))


# --------------------------------------------------------------------------
# bound verification


@dataclass(frozen=True)
class BoundReport:
    """Aggregate quantities and signed slacks of the proven bounds.

    Slack names (all non-negative up to tolerance, except ``identity``
    which must be zero up to tolerance):

    * ``identity``         -- ``E[u_S_geom] + E[area_A] - (1 - lambda) * fb``
    * ``area_log``         -- ``u_buyer * ln(1/lambda) - E[area_A]``
    * ``avg``              -- ``u_seller + u_buyer * ln(1/lambda) - (1 - lambda) * fb``
    * ``avg_swap``         -- the same bound on the role-swapped instance,
      ``u_buyer + u_seller * ln(1/lambda) - (1 - lambda) * fb``, taken from this
      equilibrium, whose seller side is the swapped instance's buyer side
    * ``gft_floor``        -- ``gft - (1 - lambda) * fb / (1 + ln(1/lambda))``
    * ``buyer_scale_min``  -- min over probed v of ``u_B_dev - lambda * area_B``
    * ``seller_scale_min`` -- min over probed v of ``u_S_geom - (1 - lambda) * area_S``
    * ``quarter``          -- ``gft - fb / 4`` (present only at lambda = 1/2)
    """

    lam: float
    fb: float
    gft: float
    u_buyer: float
    u_seller: float
    mean_area_A: float
    mean_u_S_geom: float
    slacks: dict[str, float]

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "fb": self.fb,
            "gft": self.gft,
            "u_buyer": self.u_buyer,
            "u_seller": self.u_seller,
            "mean_area_A": self.mean_area_A,
            "mean_u_S_geom": self.mean_u_S_geom,
            "slacks": dict(self.slacks),
        }


def verify_bounds(instance: TradeInstance, lam: float) -> BoundReport:
    """Evaluate every proven identity/inequality at one scaling parameter.

    Raises :class:`InvariantViolation` if any slack is negative beyond
    ``SLACK_TOL`` (relative to ``max(1, fb)``): the bounds hold for every
    instance, so a violation is an implementation bug, not data.
    """
    return sweep_bounds(instance, (lam,))[0]


def sweep_bounds(instance: TradeInstance, lams) -> list[BoundReport]:
    """:func:`verify_bounds` at each lambda of ``lams``, on one equilibrium."""
    lams = [_check_lambda(lam) for lam in lams]
    eq = equilibrium(instance)
    return [_bound_report(instance, eq, lam) for lam in lams]


def _bound_report(instance: TradeInstance, eq: EquilibriumReport, lam: float) -> BoundReport:
    buyer, seller = instance.buyer, instance.seller
    log_term = _log_inverse(lam)

    # full decompositions at the probe values, which include every atom of a
    # discrete buyer; no bound reads u_B_opt, so no best response is computed
    probes = {v: _decompose(v, seller, lam, math.nan) for v in _probe_values(buyer)}

    def record(v: float) -> tuple[float, float]:
        d = probes.get(v)
        if d is not None:
            return d.area_A, d.u_S_geom
        return _quantile_fields(v, seller, lam)[3:]

    breaks: list[float] = []
    if isinstance(buyer, PiecewiseLinearDistribution):  # expect ignores them otherwise
        breaks = _decomposition_breakpoints(seller, lam)
    mean_area_a, mean_u_s_geom = expect(buyer, record, breaks)

    # seeded with inf and taken in probe order, so a NaN term is skipped
    decs = probes.values()
    buyer_scale_min = min([math.inf] + [d.u_B_dev - lam * d.area_B for d in decs])
    seller_scale_min = min([math.inf] + [d.u_S_geom - (1.0 - lam) * d.area_S for d in decs])

    slacks = {
        "identity": mean_u_s_geom + mean_area_a - (1.0 - lam) * eq.fb,
        "area_log": eq.u_buyer * log_term - mean_area_a,
        "avg": eq.u_seller + eq.u_buyer * log_term - (1.0 - lam) * eq.fb,
        "avg_swap": eq.u_buyer + eq.u_seller * log_term - (1.0 - lam) * eq.fb,
        "gft_floor": eq.gft - (1.0 - lam) * eq.fb / (1.0 + log_term),
        "buyer_scale_min": buyer_scale_min,
        "seller_scale_min": seller_scale_min,
    }
    if lam == 0.5:
        slacks["quarter"] = eq.gft - eq.fb / 4.0

    tol = SLACK_TOL * max(1.0, abs(eq.fb))
    # written so that a NaN slack fails too
    if not abs(slacks["identity"]) <= tol:
        raise InvariantViolation(
            f"identity slack {slacks['identity']!r} exceeds tolerance {tol!r}"
        )
    for name, slack in slacks.items():
        if name != "identity" and not slack >= -tol:
            raise InvariantViolation(f"slack {name} = {slack!r} below -{tol!r}")

    return BoundReport(
        lam=lam,
        fb=eq.fb,
        gft=eq.gft,
        u_buyer=eq.u_buyer,
        u_seller=eq.u_seller,
        mean_area_A=mean_area_a,
        mean_u_S_geom=mean_u_s_geom,
        slacks=slacks,
    )
