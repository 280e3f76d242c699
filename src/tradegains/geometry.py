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
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    DiscreteDistribution,
    Distribution,
    PiecewiseLinearDistribution,
    _atom_sums,
    expect,
)
from .errors import DomainError
from .mechanism import (
    _UNPRINTED,
    EquilibriumReport,
    TradeInstance,
    _Report,
    _buyer_proposer_side,
    _check_value,
    buyer_best_response,
    equilibrium,
    first_best,
)
# unused here, kept importable: the benchmark's traced runs wrap this name
from .mechanism import buyer_response_breakpoints  # noqa: F401
from .ratio import _check_lambda, _check_slacks, _log_inverse, _ratio_from_log


@dataclass(frozen=True)
class Decomposition(_Report):
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


def decompose_fixed_v(v: float, seller: Distribution, lam: float) -> Decomposition:
    """Exact geometric decomposition for buyer value ``v``.

    When ``x(v) = 0`` no trade is possible and every area is zero.
    """
    lam = _check_lambda(lam)
    v = _check_value(v, seller)
    x_v, b, *fields = (float(f[0]) for f in _decompose(np.asarray([v]), seller, lam))
    return Decomposition(v, lam, x_v, b, *fields, u_B_opt=buyer_best_response(v, seller).utility)


def _decompose(v: np.ndarray, seller: Distribution, lam) -> tuple[np.ndarray, ...]:
    """The fields of :class:`Decomposition` from ``x_v`` to ``u_B_dev``, elementwise.

    ``v`` and ``lam`` broadcast against each other: a column of lambdas
    against a row of values gives one row per lambda. ``x_v`` and ``fb_v``,
    which do not depend on lambda, keep the shape of ``v``.
    """
    x_v, b, fb_v, area_a, u_s_geom = _quantile_fields(v, seller, lam)
    traded = x_v > 0.0
    # the cdf's prefix table reads 0 at support_min, so it is area_S itself
    area_s = np.where(traded, seller._integrate_cdf_to_many(b), 0.0)
    area_b = np.where(traded, seller._integrate_cdf_to_many(v) - area_s, 0.0)
    u_b_dev = np.where(traded, (v - b) * seller.cdf_many(b), 0.0)
    return x_v, b, fb_v, area_s, area_b, area_a, u_s_geom, u_b_dev


def _quantile_fields(v: np.ndarray, seller: Distribution, lam) -> tuple[np.ndarray, ...]:
    """``(x_v, b_lambda, fb_v, area_A, u_S_geom)`` at each value: the decomposition with no ``integrate_cdf``."""
    x_v = seller.cdf_many(v)
    lx = lam * x_v
    cost_to_xv = seller._integrate_quantile_to_many(x_v)
    cost_to_lx = seller._integrate_quantile_to_many(lx)
    area_a = v * (x_v - lx) - (cost_to_xv - cost_to_lx)
    traded = x_v > 0.0
    return (
        x_v,
        seller.quantile_many(lx),
        np.where(traded, v * x_v - cost_to_xv, 0.0),
        np.where(traded, area_a, 0.0),
        np.where(traded, lam * cost_to_xv - cost_to_lx, 0.0),
    )


def buyer_deviation_bound(v: float, seller: Distribution, lam: float) -> tuple[float, float]:
    """Deviation price ``b = c(lambda * x(v))`` and its utility ``(v - b) * x(b)``.

    Because ``x(b) >= lambda * x(v)`` under the left-continuous quantile
    convention, the utility is at least ``lambda * x(v) * (v - b)``.
    """
    d = decompose_fixed_v(v, seller, lam)
    return d.b_lambda, d.u_B_dev


def seller_scaling_utility(v: float, seller: Distribution, lam: float) -> float:
    """Expected utility against value ``v`` of offering ``c(min(q / lambda, 1))``.

    The offer is accepted exactly while it is at most ``v`` (acceptance at
    indifference), i.e. while ``min(q / lambda, 1) <= x(v)``. The result is
    never below ``u_S_geom``, which discards the utility earned at
    quantiles above ``lambda * x(v)``.
    """
    lam = _check_lambda(lam)
    v = _check_value(v, seller)
    x_v = seller.cdf(v)
    if x_v <= 0.0:
        return 0.0
    total_cost = seller.integrate_quantile(0.0, 1.0)
    if x_v >= 1.0:
        # every offer is accepted; quantiles above lambda all quote the top
        return lam * total_cost + (1.0 - lam) * seller.quantile(1.0) - total_cost
    return lam * seller.integrate_quantile(0.0, x_v) - seller.integrate_quantile(0.0, lam * x_v)


def key_lemma_margin(v: float, seller: Distribution, q: float) -> float:
    """:func:`key_lemma_margins` at the one quantile ``q``."""
    return float(key_lemma_margins(v, seller, [q])[0])


def key_lemma_margins(v: float, seller: Distribution, qs: np.ndarray) -> np.ndarray:
    """Optimal buyer utility minus ``q * (v - c(q))`` at each ``q`` in ``[0, x(v)]``.

    Offering ``c(q)`` trades with probability at least ``q``, so each margin
    is non-negative up to roundoff.
    """
    v = _check_value(v, seller)
    qs = np.asarray(qs, dtype=float)
    x_v = seller.cdf(v)
    # written so that a NaN fails too
    if qs.size and not (qs.min() >= 0.0 and qs.max() <= x_v):
        raise DomainError(f"all q must lie in [0, x(v)] = [0, {x_v!r}]")
    u_opt = buyer_best_response(v, seller).utility
    return u_opt - qs * (v - seller.quantile_many(qs))


# --------------------------------------------------------------------------
# aggregation over the buyer prior


def _decomposition_breakpoints(seller: Distribution, lam: float) -> list[float]:
    """Buyer values where any fixed-v decomposition field can kink."""
    breaks = set(seller.knot_values())
    if isinstance(seller, PiecewiseLinearDistribution):
        # values where lambda * x(v) crosses a quantile knot level; a
        # subnormal lambda overflows the high levels to inf, which are dropped
        with np.errstate(over="ignore"):
            levels = seller._qs_arr / lam
        breaks.update(seller.quantile_many(levels[levels <= 1.0]).tolist())
    return sorted(breaks)


#: 129 evenly spaced quantiles, 0 and 1 included, added to a pwl buyer's knots as probes.
_PROBE_QS = np.arange(129) / 128
_PROBE_QS.flags.writeable = False


def _probe_values(buyer: Distribution) -> np.ndarray:
    """Deterministic conditioning values covering the buyer prior, ascending."""
    if isinstance(buyer, DiscreteDistribution):
        return buyer._values_arr
    ts = _sorted_set(np.concatenate((buyer._qs_arr, _PROBE_QS)))
    # the quantile can be 1 ulp out of order at a knot, and -0.0 equals 0.0
    return _sorted_set(buyer.quantile_many(ts))


def _sorted_set(x: np.ndarray) -> np.ndarray:
    """``sorted(set(x))``: each value once, the first of its equals standing for them, as in a set.

    ``return_index`` makes ``np.unique`` sort stably, so that the first of
    equal values is kept. It also takes another path than a plain
    ``np.unique``, whose first call in a process took 7 ms with numpy 2.4.6
    on a 2-CPU host, a cost every pwl ``verify`` run from the shell paid.
    """
    return np.unique(x, return_index=True)[0]


@dataclass(frozen=True)
class AggregateDecomposition(_Report):
    """Expectations of the fixed-v decomposition over the buyer prior."""

    lam: float
    fb: float
    area_S: float
    area_B: float
    area_A: float
    u_S_geom: float
    u_B_dev: float
    u_B_opt: float


def aggregate_decomposition(instance: TradeInstance, lam: float) -> AggregateDecomposition:
    """Expectation of every decomposition field over the buyer prior, by the integrals ``eq`` and ``verify`` run."""
    lam = _check_lambda(lam)
    buyer, seller = instance.buyer, instance.seller
    breaks: list[float] = []
    if isinstance(buyer, PiecewiseLinearDistribution):  # expect ignores them otherwise
        breaks = _decomposition_breakpoints(seller, lam)
    # the fields from area_S to u_B_dev, in AggregateDecomposition's order
    areas = expect(buyer, lambda vs: _decompose(vs, seller, lam)[3:], breaks)
    return AggregateDecomposition(lam, first_best(instance), *areas, _buyer_proposer_side(buyer, seller)[0])


# --------------------------------------------------------------------------
# bound verification


@dataclass(frozen=True)
class BoundReport(_Report):
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

    ``ratio_bound`` is :func:`~tradegains.ratio.ratio_bound` at ``lam``.
    """

    lam: float
    fb: float
    gft: float
    u_buyer: float
    u_seller: float
    mean_area_A: float
    mean_u_S_geom: float
    ratio_bound: float = field(metadata=_UNPRINTED)
    slacks: dict[str, float]


def verify_bounds(instance: TradeInstance, lam: float) -> BoundReport:
    """Evaluate every proven identity/inequality at one scaling parameter.

    Raises :class:`InvariantViolation` if any slack is negative beyond
    ``ratio.SLACK_TOL`` (relative to ``max(1, |fb|)``): the bounds hold for every
    instance, so a violation is an implementation bug, not data.
    """
    return sweep_bounds(instance, (lam,))[0]


def sweep_bounds(instance: TradeInstance, lams) -> list[BoundReport]:
    """:func:`verify_bounds` at each lambda of ``lams``, on one equilibrium."""
    lams = [_check_lambda(lam) for lam in lams]
    return _bound_report(instance, equilibrium(instance), lams)


#: Most probe value x lambda pairs that :func:`_bound_report` decomposes in
#: one pass, so that its memory stays bounded however many lambdas it gets.
_BLOCK_PAIRS = 2**16


def _bound_report(instance: TradeInstance, eq: EquilibriumReport, lams: list[float]) -> list[BoundReport]:
    """One :class:`BoundReport` per lambda of the checked list ``lams``."""
    # the probe values include every atom of a discrete buyer
    probes = _probe_values(instance.buyer)
    block = max(1, _BLOCK_PAIRS // probes.size)
    reports = []
    for start in range(0, len(lams), block):
        reports += _block_reports(instance, eq, probes, lams[start : start + block])
    return reports


def _block_reports(instance: TradeInstance, eq: EquilibriumReport, probes: np.ndarray, lams: list[float]) -> list[BoundReport]:
    """:func:`_bound_report` on one block of lambdas, whose means and scale minima are taken over the whole block."""
    buyer, seller = instance.buyer, instance.seller
    # the full decompositions at the probe values, a row per lambda; no bound
    # reads u_B_opt, so no best response is computed
    lam_col = np.asarray(lams)[:, None]
    _, _, _, area_s, area_b, area_a, u_s_geom, u_b_dev = _decompose(probes, seller, lam_col)
    if isinstance(buyer, PiecewiseLinearDistribution):
        # the quadrature's breakpoints depend on lambda, so one expect per lambda
        means = [
            expect(buyer, lambda vs, lam=lam: _quantile_fields(vs, seller, lam)[3:], _decomposition_breakpoints(seller, lam))
            for lam in lams
        ]
        means_area_a, means_u_s_geom = zip(*means)
    else:
        # expect's atom sums, a row per lambda: the probe values are the atoms
        means_area_a, means_u_s_geom = _atom_sums(buyer, area_a), _atom_sums(buyer, u_s_geom)

    fb, gft, u_buyer, u_seller = eq.fb, eq.gft, eq.u_buyer, eq.u_seller
    reports = []
    for lam, mean_area_a, mean_u_s_geom, buyer_min, seller_min in zip(
        lams, means_area_a, means_u_s_geom,
        # seeded with inf and taken in probe order, so a NaN term is skipped
        [min([math.inf] + row) for row in (u_b_dev - lam_col * area_b).tolist()],
        [min([math.inf] + row) for row in (u_s_geom - (1.0 - lam_col) * area_s).tolist()],
    ):
        log_term = _log_inverse(lam)
        scaled_fb = (1.0 - lam) * fb
        slacks = {
            "identity": mean_u_s_geom + mean_area_a - scaled_fb,
            "area_log": u_buyer * log_term - mean_area_a,
            "avg": u_seller + u_buyer * log_term - scaled_fb,
            "avg_swap": u_buyer + u_seller * log_term - scaled_fb,
            "gft_floor": gft - scaled_fb / (1.0 + log_term),
            "buyer_scale_min": buyer_min,
            "seller_scale_min": seller_min,
        }
        if lam == 0.5:
            slacks["quarter"] = gft - fb / 4.0
        _check_slacks(slacks, fb)
        reports.append(BoundReport(
            lam=lam,
            fb=fb,
            gft=gft,
            u_buyer=u_buyer,
            u_seller=u_seller,
            mean_area_A=mean_area_a,
            mean_u_S_geom=mean_u_s_geom,
            ratio_bound=_ratio_from_log(lam, log_term),
            slacks=slacks,
        ))
    return reports
