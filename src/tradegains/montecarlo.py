"""Simulation oracle for cross-checking the exact pipeline.

Randomness is counter-based: draw ``k`` of trial ``t`` is a pure hash of
``(seed, t, k)`` (a splitmix64 stream indexed by position), so results are
bit-identical for identical inputs no matter how trials are chunked or
scheduled. Estimates use a single pairwise-summation reduction over the
per-trial values, which is likewise independent of the partitioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import DiscreteDistribution, Distribution
from .errors import DomainError
from .mechanism import TradeInstance, buyer_best_response, role_swap
# unused here, kept importable: the benchmark's traced runs wrap this name
from .mechanism import seller_best_response  # noqa: F401

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
# draws reserved per trial: 0 = proposer coin, 1 = buyer value, 2 = seller cost
_DRAWS_PER_TRIAL = 4
_CHUNK = 1 << 17


def _uniforms(seed: int, start: int, count: int, draw: int) -> np.ndarray:
    """Uniform [0, 1) variates for trials ``start .. start+count-1`` at ``draw``."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    pos = idx * np.uint64(_DRAWS_PER_TRIAL) + np.uint64(draw)
    z = np.uint64(seed & _MASK64) + pos * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class SimEstimate:
    """Sample mean with its standard error."""

    mean: float
    stderr: float
    trials: int
    seed: int

    def to_json(self) -> dict:
        return {"mean": self.mean, "stderr": self.stderr, "trials": self.trials, "seed": self.seed}


def _estimate(samples: np.ndarray, seed: int) -> SimEstimate:
    n = int(samples.size)
    if n == 0:
        return SimEstimate(mean=0.0, stderr=0.0, trials=0, seed=seed)
    mean = float(np.sum(samples) / n)
    if n > 1:
        var = float(np.sum((samples - mean) ** 2) / (n - 1))
        stderr = math.sqrt(max(var, 0.0) / n)
    else:
        stderr = 0.0
    return SimEstimate(mean=mean, stderr=stderr, trials=n, seed=seed)


def _check_trials(trials: int) -> int:
    trials = int(trials)
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials!r}")
    return trials


def simulate_fb(instance: TradeInstance, trials: int, seed: int) -> SimEstimate:
    """Monte Carlo estimate of the first best, ``E[(v - c)^+]``."""
    trials = _check_trials(trials)
    parts = []
    for start in range(0, trials, _CHUNK):
        count = min(_CHUNK, trials - start)
        v = instance.buyer.sample_many(_uniforms(seed, start, count, 1))
        c = instance.seller.sample_many(_uniforms(seed, start, count, 2))
        parts.append(np.maximum(v - c, 0.0))
    return _estimate(np.concatenate(parts), seed)


# --------------------------------------------------------------------------
# vectorized best-response prices


def _buyer_prices(values: np.ndarray, seller: Distribution) -> np.ndarray:
    price_cols: list[np.ndarray] = []
    valid_cols: list[np.ndarray] = []
    n = values.size
    for p0 in seller.knot_values():
        price_cols.append(np.full(n, p0))
        valid_cols.append(p0 <= values)
    for lo, hi, _, r in seller.stationary_segments:
        price_cols.append(0.5 * (values - r))
        valid_cols.append((lo <= values) & (values <= hi))
    prices = np.stack(price_cols, axis=1)
    valid = np.stack(valid_cols, axis=1)
    trade = seller.cdf_many(prices.ravel()).reshape(prices.shape)
    utility = np.where(valid, (values[:, None] - prices) * trade, -np.inf)
    best_u = utility.max(axis=1)
    tie_u = utility == best_u[:, None]
    trade_masked = np.where(tie_u, trade, -np.inf)
    best_t = trade_masked.max(axis=1)
    neg_price = np.where(tie_u & (trade == best_t[:, None]), -prices, -np.inf)
    best = -neg_price.max(axis=1)
    return np.where(np.isfinite(best_u), best, values)


def _proposer_prices(
    buyer: Distribution, seller: Distribution
) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized best-response prices of buyer values proposing against ``seller``."""
    if isinstance(buyer, DiscreteDistribution):
        table = np.asarray([buyer_best_response(v, seller).price for v in buyer.values])
        return lambda values: table[np.searchsorted(buyer._values_arr, values)]
    return lambda values: _buyer_prices(values, seller)


@dataclass(frozen=True)
class MechanismSimReport:
    """Estimates from simulating the random proposer mechanism."""

    gft: SimEstimate
    u_buyer: SimEstimate
    u_seller: SimEstimate
    trials: int
    seed: int

    def to_json(self) -> dict:
        return {
            "gft": self.gft.to_json(),
            "u_buyer": self.u_buyer.to_json(),
            "u_seller": self.u_seller.to_json(),
            "trials": self.trials,
            "seed": self.seed,
        }


def simulate_mechanism(instance: TradeInstance, trials: int, seed: int) -> MechanismSimReport:
    """Simulate the mechanism: coin, both types, best-response price, response.

    ``u_buyer``/``u_seller`` are proposer utilities conditioned on the
    respective agent proposing (their trial counts add up to ``trials``).
    For a discrete proposer prior the best-response price is solved once
    per atom and looked up by the sampled type; otherwise prices are
    optimized per sample over the scalar path's candidates. The seller
    proposes as the buyer of the role-swapped instance.
    """
    trials = _check_trials(trials)
    buyer, seller = instance.buyer, instance.seller

    price_b = _proposer_prices(buyer, seller)
    swapped = role_swap(instance)
    price_s = _proposer_prices(swapped.buyer, swapped.seller)

    gft_parts, ub_parts, us_parts = [], [], []
    for start in range(0, trials, _CHUNK):
        count = min(_CHUNK, trials - start)
        coin = _uniforms(seed, start, count, 0)
        v = buyer.sample_many(_uniforms(seed, start, count, 1))
        c = seller.sample_many(_uniforms(seed, start, count, 2))
        buyer_side = coin < 0.5

        gft = np.zeros(count)

        vb, cb = v[buyer_side], c[buyer_side]
        if vb.size:
            pb = price_b(vb)
            accept = cb <= pb
            gft[buyer_side] = np.where(accept, vb - cb, 0.0)
            ub_parts.append(np.where(accept, vb - pb, 0.0))

        vs, cs = v[~buyer_side], c[~buyer_side]
        if vs.size:
            ps = -price_s(-cs)
            accept = vs >= ps
            gft[~buyer_side] = np.where(accept, vs - cs, 0.0)
            us_parts.append(np.where(accept, ps - cs, 0.0))

        gft_parts.append(gft)

    empty = np.empty(0)
    return MechanismSimReport(
        gft=_estimate(np.concatenate(gft_parts), seed),
        u_buyer=_estimate(np.concatenate(ub_parts) if ub_parts else empty, seed),
        u_seller=_estimate(np.concatenate(us_parts) if us_parts else empty, seed),
        trials=trials,
        seed=seed,
    )
