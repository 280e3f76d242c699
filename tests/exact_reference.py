"""Exact equilibrium and bound means of a discrete x discrete instance, from the definitions alone.

It reads each prior's stored ``values``, ``probs`` and ``cum`` tables and
takes every float in them as the exact rational it stores
(``fractions.Fraction``). Each proposer type is weighted by its ``probs``
entry. Every trade probability comes from the responder's own ``cum`` table:
a buyer posting the seller's atom ``j`` trades with probability ``cum[j]``,
and a seller posting the buyer's atom ``k`` with ``1 - cum[k - 1]`` (1 for
``k = 0``). A trade with the responder's atom ``i`` carries the step of that
probability at ``i``. Each best response scans every candidate price, the
responder's atoms on the proposer's profitable side. Ties go to the larger
trade probability, then to the price better for the proposer.

A proposer type is near-tied when its two best utilities differ, but by at
most ``NEAR`` of the larger. There float rounding, not the tie rule, decides
the library's choice, so such types are counted beside the fields. An exact
tie is decided by the rule.

The means of the fixed-v wedge ``area_A`` and of ``u_S_geom`` over the buyer
prior take the scaling parameter as the exact rational of its float. They
integrate the seller's left-continuous quantile, which is the cost of atom
``j`` on the quantiles ``(cum[j - 1], cum[j]]``, atom by atom, up to ``x(v)``,
the ``cum`` entry of the last atom at or below ``v``. No best response enters
them.
"""

from fractions import Fraction
from heapq import nlargest

#: Eight units of rounding, 8 * 2**-53: a float utility ``(v - p) * x`` is
#: within three of its exact value, on a seller's complemented ``cum`` too.
NEAR = Fraction(1, 2**50)


def _proposer_side(types, weights, atoms, trade, masses, sign):
    """Expected ``(utility, gft)`` of one proposer and its number of near-tied types.

    ``sign`` is 1 when the buyer proposes and -1 when the seller does, so
    that a type ``t`` posting ``p`` earns ``sign * (t - p)`` per trade.
    """
    utility = gft = Fraction(0)
    near = 0
    for t, w in zip(types, weights):
        keys = nlargest(2, ((sign * (t - p) * x, x, -sign * p) for p, x in zip(atoms, trade) if sign * (t - p) >= 0))
        if not keys:
            continue
        u, _, signed_price = keys[0]
        price = -sign * signed_price
        near += len(keys) > 1 and 0 < u - keys[1][0] <= NEAR * u
        utility += Fraction(w) * u
        gft += Fraction(w) * sum(m * sign * (t - a) for a, m in zip(atoms, masses) if sign * (price - a) >= 0)
    return utility, gft, near


def equilibrium(instance):
    """``tradegains.equilibrium``'s fields as ``Fraction``s, and the near-tied buyer and seller types."""
    buyer, seller = instance.buyer, instance.seller
    values, costs = [Fraction(v) for v in buyer.values], [Fraction(c) for c in seller.values]
    cum = [Fraction(x) for x in seller.cum]
    survival = [1 - Fraction(x) for x in (0.0, *buyer.cum[:-1])]
    steps_up = [x - y for x, y in zip(cum, [0, *cum])]
    steps_down = [x - y for x, y in zip(survival, [*survival[1:], 0])]
    u_b, gft_b, near_b = _proposer_side(values, buyer.probs, costs, cum, steps_up, 1)
    u_s, gft_s, near_s = _proposer_side(costs, seller.probs, values, survival, steps_down, -1)
    fb = sum(Fraction(w) * sum(m * (v - c) for c, m in zip(costs, steps_up) if c <= v) for v, w in zip(values, buyer.probs))
    fields = {"u_buyer": u_b, "u_seller": u_s, "gft_buyer_proposes": gft_b, "gft_seller_proposes": gft_s}
    return {**fields, "gft": (gft_b + gft_s) / 2, "fb": fb}, (near_b, near_s)


def _integrate_quantile(costs, cum, t):
    """The exact integral of the seller's quantile over ``[0, t]``, atom by atom."""
    return sum(c * (min(hi, t) - lo) for c, lo, hi in zip(costs, [0, *cum], cum) if lo < t)


def bound_means(instance, lam):
    """``verify_bounds``' ``mean_area_A`` and ``mean_u_S_geom`` at the float ``lam``, as ``Fraction``s."""
    buyer, seller = instance.buyer, instance.seller
    lam = Fraction(lam)
    costs, cum = [Fraction(c) for c in seller.values], [Fraction(x) for x in seller.cum]
    area_a = u_s_geom = Fraction(0)
    for v, w in zip(map(Fraction, buyer.values), map(Fraction, buyer.probs)):
        x_v = next((x for c, x in zip(reversed(costs), reversed(cum)) if c <= v), Fraction(0))
        cost_x, cost_lx = _integrate_quantile(costs, cum, x_v), _integrate_quantile(costs, cum, lam * x_v)
        area_a += w * (v * (x_v - lam * x_v) - (cost_x - cost_lx))
        u_s_geom += w * (lam * cost_x - cost_lx)
    return {"mean_area_A": area_a, "mean_u_S_geom": u_s_geom}
