"""Reference computations that check the CLI's outputs.

Written apart from the library and calling none of its arithmetic: every
value below comes from the instance arrays the benchmark generated.

* ``discrete_reference`` -- numpy over all atom pairs: first best and the
  equilibrium utilities and gains from trade with the documented tie-breaks
  (larger trade probability first, then the smaller buyer / larger seller
  price); ``discrete_geometry`` -- the means ``E[area_A]`` and
  ``E[u_S_geom]`` at one scaling parameter.
* ``first_best_quad`` -- scipy quadrature of ``E[(v - c)^+]``.
* ``grid_utilities`` -- best responses over a dense price grid, integrated
  over the proposer prior: bounds on ``u_B`` and ``u_S``.
* ``ratio_star`` -- the optimal ratio, from its stationarity condition.
"""

from __future__ import annotations

import math

import numpy as np

#: Tolerance of the atom-pair comparisons, relative to max(1, |value|).
EXACT_TOL = 1e-12
#: Tolerance of the quadrature comparison of the first best.
QUAD_TOL = 1e-9
#: Tolerance of the proven inequalities (the library's own slack tolerance).
SLACK_TOL = 1e-9
#: Monte Carlo estimates must lie within this many standard errors.
MC_SIGMAS = 5.0
#: Price-grid points and quantile cells of the dense-grid best responses.
GRID_PRICES = 4096
GRID_TYPES = 4096


def ratio_star() -> float:
    """Minimum of ``(1 + ln(1/l)) / (1 - l)``: bisect ``2 - 1/l - ln(l) = 0``."""
    lo, hi = 0.05, 0.95
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 - 1.0 / mid - math.log(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    return (1.0 + math.log(1.0 / lam)) / (1.0 - lam)


def ratio_bound(lam: float) -> float:
    return (1.0 + math.log(1.0 / lam)) / (1.0 - lam)


def close(a: float, b: float, tol: float = EXACT_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# --------------------------------------------------------------------------
# distribution arithmetic on the generated arrays


def _cum(probs: np.ndarray) -> np.ndarray:
    cum = np.cumsum(probs)
    cum[-1] = 1.0  # the top of a CDF is 1
    return cum


def cdf(d: dict, p: np.ndarray) -> np.ndarray:
    """``Pr[X <= p]`` (right-continuous)."""
    p = np.asarray(p, float)
    if d["kind"] == "discrete":
        idx = np.searchsorted(d["values"], p, side="right")
        return np.concatenate(([0.0], _cum(d["probs"])))[idx]
    _check_pwl(d)
    return np.interp(p, d["vals"], d["qs"], left=0.0, right=1.0)


def survival(d: dict, p: np.ndarray) -> np.ndarray:
    """``Pr[X >= p]`` (left-continuous: an atom at ``p`` counts)."""
    p = np.asarray(p, float)
    if d["kind"] == "discrete":
        idx = np.searchsorted(d["values"], p, side="left")
        return 1.0 - np.concatenate(([0.0], _cum(d["probs"])))[idx]
    return 1.0 - cdf(d, p)


def _check_pwl(d: dict) -> None:
    # the generated pwl priors have no flat runs, so they have no atoms and
    # their CDF is the inverse interpolation of the knots
    if not np.all(np.diff(d["vals"]) > 0.0):
        raise ValueError("oracle expects strictly increasing pwl knot values")


def _quantile(d: dict, u: np.ndarray) -> np.ndarray:
    return np.interp(u, d["qs"], d["vals"])


def _type_grid(d: dict) -> tuple[np.ndarray, np.ndarray, float]:
    """Proposer types and weights, plus the quadrature error bound per unit slope.

    A discrete prior is summed exactly. A pwl prior is integrated with the
    midpoint rule over ``GRID_TYPES`` quantile cells; for a function with
    slope at most 1 in the type the error is at most the support width
    divided by the number of cells.
    """
    if d["kind"] == "discrete":
        return d["values"], d["probs"], 0.0
    u = (np.arange(GRID_TYPES) + 0.5) / GRID_TYPES
    width = float(d["vals"][-1] - d["vals"][0])
    return _quantile(d, u), np.full(GRID_TYPES, 1.0 / GRID_TYPES), width / GRID_TYPES


def _surplus_below(seller: dict, v: np.ndarray) -> np.ndarray:
    """``E[(v - C)^+]`` for each ``v``, exactly."""
    v = np.asarray(v, float)
    if seller["kind"] == "discrete":
        return (np.maximum(v[:, None] - seller["values"][None, :], 0.0) * seller["probs"][None, :]).sum(axis=1)
    q0, q1 = seller["qs"][:-1], seller["qs"][1:]
    y0, y1 = seller["vals"][:-1], seller["vals"][1:]
    vv = v[:, None]
    full = (q1 - q0) * (vv - 0.5 * (y0 + y1))  # the whole segment lies below v
    frac = np.clip((vv - y0) / (y1 - y0), 0.0, 1.0)
    partial = 0.5 * (q1 - q0) * frac * (vv - y0)  # triangle up to the crossing
    return np.where(vv >= y1, full, np.where(vv <= y0, 0.0, partial)).sum(axis=1)


def first_best_quad(inst: dict) -> float:
    """``E[(v - c)^+]`` by scipy quadrature over the buyer's quantile.

    Between the buyer's knots and the quantiles where the buyer's value
    crosses a seller kink the integrand is a polynomial of degree at most
    2, so a 4-point Gauss rule on each piece is exact.
    """
    from scipy.integrate import fixed_quad

    buyer, seller = inst["buyer"], inst["seller"]
    if buyer["kind"] == "discrete":
        return float(np.dot(buyer["probs"], _surplus_below(seller, buyer["values"])))
    kinks = seller["vals"] if seller["kind"] == "pwl" else seller["values"]
    cuts = np.union1d(buyer["qs"], cdf(buyer, kinks))

    def integrand(u):
        return _surplus_below(seller, _quantile(buyer, u))

    return math.fsum(fixed_quad(integrand, a, b, n=4)[0] for a, b in zip(cuts[:-1], cuts[1:]) if b > a)


# --------------------------------------------------------------------------
# atom-pair reference for discrete x discrete


def discrete_reference(inst: dict) -> dict:
    """Exact equilibrium quantities of a discrete x discrete instance."""
    v, b = inst["buyer"]["values"], inst["buyer"]["probs"]
    c, s = inst["seller"]["values"], inst["seller"]["probs"]
    sc = _cum(s)
    bc = _cum(b)
    surplus = v[:, None] - c[None, :]

    # buyer of value v_i offers c_j <= v_i; trade probability F_s(c_j)
    ok = surplus >= 0.0
    util = np.where(ok, surplus * sc[None, :], -np.inf)
    best_u = util.max(axis=1)
    tied = ok & (util == best_u[:, None])
    best_x = np.where(tied, sc[None, :], -np.inf).max(axis=1)
    pick = np.argmax(tied & (sc[None, :] == best_x[:, None]), axis=1)  # smallest price
    has = ok.any(axis=1)
    trades = has[:, None] & (np.arange(len(c))[None, :] <= pick[:, None])
    u_b = np.where(has, best_u, 0.0)
    gft_b = (np.where(trades, surplus, 0.0) * s[None, :]).sum(axis=1)

    # seller of cost c_j offers v_k >= c_j; trade probability Pr[V >= v_k]
    surv = 1.0 - np.concatenate(([0.0], bc[:-1]))
    ok_s = surplus.T >= 0.0  # [j, k]: v_k >= c_j
    util_s = np.where(ok_s, surplus.T * surv[None, :], -np.inf)
    best_us = util_s.max(axis=1)
    tied_s = ok_s & (util_s == best_us[:, None])
    best_s = np.where(tied_s, surv[None, :], -np.inf).max(axis=1)
    last = tied_s & (surv[None, :] == best_s[:, None])
    pick_s = len(v) - 1 - np.argmax(last[:, ::-1], axis=1)  # largest price
    has_s = ok_s.any(axis=1)
    trades_s = has_s[:, None] & (np.arange(len(v))[None, :] >= pick_s[:, None])
    u_s = np.where(has_s, best_us, 0.0)
    gft_s = (np.where(trades_s, surplus.T, 0.0) * b[None, :]).sum(axis=1)

    fb = math.fsum((np.maximum(surplus, 0.0) * b[:, None] * s[None, :]).ravel())
    out = {
        "fb": fb,
        "u_buyer": math.fsum(b * u_b),
        "u_seller": math.fsum(s * u_s),
        "gft_buyer_proposes": math.fsum(b * gft_b),
        "gft_seller_proposes": math.fsum(s * gft_s),
    }
    out["gft"] = 0.5 * (out["gft_buyer_proposes"] + out["gft_seller_proposes"])

    return out


def discrete_geometry(inst: dict, lam: float) -> dict:
    """``E[area_A]`` and ``E[u_S_geom]`` of a discrete x discrete instance.

    With ``x = F_s(v)`` and the seller's left-continuous quantile ``c(q)``:
    ``area_A = v * (1 - lam) * x - int_{lam x}^{x} c`` and
    ``u_S_geom = lam * int_0^x c - int_0^{lam x} c``.
    """
    v, b = inst["buyer"]["values"], inst["buyer"]["probs"]
    c, s = inst["seller"]["values"], inst["seller"]["probs"]
    sc = _cum(s)
    lo_q = np.concatenate(([0.0], sc[:-1]))
    x = cdf(inst["seller"], v)

    def cost_integral(q):  # integral of c over [0, q], per buyer atom
        return (c[None, :] * np.clip(np.minimum(sc[None, :], q[:, None]) - lo_q[None, :], 0.0, None)).sum(axis=1)

    to_x = cost_integral(x)
    to_lx = cost_integral(lam * x)
    trades = x > 0.0
    return {
        "mean_area_A": math.fsum(b * np.where(trades, v * (x - lam * x) - (to_x - to_lx), 0.0)),
        "mean_u_S_geom": math.fsum(b * np.where(trades, lam * to_x - to_lx, 0.0)),
    }


# --------------------------------------------------------------------------
# dense-grid best responses


def grid_utilities(inst: dict) -> dict:
    """``[low, high]`` brackets of ``u_buyer`` and ``u_seller``.

    A grid price is a feasible offer, so its utility bounds the optimum from
    below. The grid point next to the optimal price (above it for the
    buyer, below it for the seller) trades at least as often and gives up
    at most one grid step ``h``, so the optimum is at most the grid best
    plus ``h``. The quadrature error of a pwl proposer prior widens both
    ends.
    """
    buyer, seller = inst["buyer"], inst["seller"]
    lo = min(float(np.min(d["values"] if d["kind"] == "discrete" else d["vals"])) for d in (buyer, seller))
    hi = max(float(np.max(d["values"] if d["kind"] == "discrete" else d["vals"])) for d in (buyer, seller))
    prices = np.linspace(lo, hi, GRID_PRICES)
    h = (hi - lo) / (GRID_PRICES - 1)
    out = {}
    for role, proposer, take in (
        ("u_buyer", buyer, cdf(seller, prices)),
        ("u_seller", seller, survival(buyer, prices)),
    ):
        types, weights, quad_err = _type_grid(proposer)
        best = np.empty(len(types))
        for start in range(0, len(types), 256):
            t = types[start:start + 256, None]
            margin = t - prices[None, :] if role == "u_buyer" else prices[None, :] - t
            best[start:start + 256] = np.maximum((margin * take[None, :]).max(axis=1), 0.0)
        mean = float(np.dot(weights, best))
        out[role] = (mean - quad_err - 1e-12, mean + h + quad_err + 1e-12)
    return out
