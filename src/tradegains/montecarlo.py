"""Simulation oracle for cross-checking the exact pipeline.

Randomness is counter-based: draw ``k`` of trial ``t`` is a pure hash of
``(seed, t, k)`` (a splitmix64 stream indexed by position), so results are
bit-identical for identical inputs no matter how trials are chunked or
scheduled. Estimates use a single pairwise-summation reduction over the
per-trial values, which is likewise independent of the partitioning.

One pass of draws feeds every estimate: each trial's buyer value and seller
cost are sampled once, and both the first best ``(v - c)^+`` and the
mechanism's outcome are read off them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import DiscreteDistribution, Distribution
from .errors import DomainError
from .mechanism import TradeInstance, buyer_best_response_many, role_swap
# unused here, kept importable: the benchmark's traced runs wrap these names
from .mechanism import buyer_best_response, seller_best_response  # noqa: F401

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
# draws reserved per trial: 0 = proposer coin, 1 = buyer value, 2 = seller cost
_DRAWS_PER_TRIAL = 4
_CHUNK = 1 << 17


def _uniforms(seed: int, start: int, count: int, draw: int) -> np.ndarray:
    """Uniform [0, 1) variates for trials ``start .. start+count-1`` at ``draw``."""
    # seed + (trial * _DRAWS_PER_TRIAL + draw) * _GAMMA modulo 2**64, then
    # splitmix64's finalizer, each step in place over one scratch array
    z = np.arange(start, start + count, dtype=np.uint64)
    z *= np.uint64(_DRAWS_PER_TRIAL * _GAMMA & _MASK64)
    z += np.uint64((seed + draw * _GAMMA) & _MASK64)
    shifted = np.empty_like(z)
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=shifted)
        z *= np.uint64(mix)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    z >>= np.uint64(11)
    out = z.astype(np.float64)
    out *= 2.0**-53
    return out


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
    with np.errstate(over="ignore"):
        total = float(np.sum(samples))
    if math.isfinite(total):
        mean = total / n
    else:
        # the plain sum overflowed: sum on the power-of-two scale of the
        # largest sample instead, which is exact
        k = math.frexp(float(np.max(np.abs(samples))))[1]
        mean = math.ldexp(float(np.sum(np.ldexp(samples, -k))) / n, k)
    if n > 1:
        # deviations scaled into [0.5, 1) by a power of two, which is exact,
        # so their squares neither overflow at huge values nor vanish at tiny ones
        dev = samples - mean
        k = math.frexp(float(np.max(np.abs(dev))))[1]
        var = float(np.sum(np.ldexp(dev, -k) ** 2) / (n - 1))
        stderr = math.ldexp(math.sqrt(max(var, 0.0) / n), k)
    else:
        stderr = 0.0
    return SimEstimate(mean=mean, stderr=stderr, trials=n, seed=seed)


def _check_trials(trials: int) -> int:
    trials = int(trials)
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials!r}")
    return trials


# --------------------------------------------------------------------------
# vectorized best-response prices


def _proposer_prices(
    instance: TradeInstance,
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """Vectorized best-response prices of the buyer and of the seller as proposers.

    Each takes the keys :func:`_draw` returns with the types, and prices
    them with :func:`buyer_best_response_many`, the exact path's pricer. A
    discrete proposer's prices are solved once over its atoms and looked up
    by atom index; otherwise each sampled type is priced. The seller of cost
    ``c`` proposes as the buyer of value ``-c`` of the role-swapped instance;
    negation is exact.
    """
    buyer, seller = instance.buyer, instance.seller
    swapped = role_swap(instance)

    def price_b(values):
        return buyer_best_response_many(values, seller)[0]

    def price_s(costs):
        return -buyer_best_response_many(-costs, swapped.seller)[0]

    if isinstance(buyer, DiscreteDistribution):
        price_b = price_b(buyer._values_arr).__getitem__
    if isinstance(seller, DiscreteDistribution):
        price_s = price_s(seller._values_arr).__getitem__
    return price_b, price_s


def _draw(dist: Distribution, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Types sampled at ``u`` and the keys their proposer prices are looked up by.

    The keys are the atom indices for a discrete prior and the types
    themselves otherwise.
    """
    if isinstance(dist, DiscreteDistribution):
        idx = dist.sample_indices_many(u)
        return dist._values_arr[idx], idx
    values = dist.sample_many(u)
    return values, values


@dataclass(frozen=True)
class MechanismSimReport:
    """Estimates from simulating the random proposer mechanism."""

    gft: SimEstimate
    u_buyer: SimEstimate
    u_seller: SimEstimate
    trials: int
    seed: int
    #: first best ``E[(v - c)^+]`` over the same draws; not part of ``to_json``
    fb: SimEstimate

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
    ``fb`` estimates the first best from the same sampled types. For a
    discrete proposer prior the best-response price is solved once per atom
    and looked up by the sampled atom; otherwise each sample's price is
    chosen among the opponent's envelope entries around it.
    """
    trials = _check_trials(trials)
    price_b, price_s = _proposer_prices(instance)

    fb_parts, gft_parts, ub_parts, us_parts = [], [], [], []
    for start in range(0, trials, _CHUNK):
        count = min(_CHUNK, trials - start)
        coin = _uniforms(seed, start, count, 0)
        v, key_v = _draw(instance.buyer, _uniforms(seed, start, count, 1))
        c, key_c = _draw(instance.seller, _uniforms(seed, start, count, 2))
        fb_parts.append(np.maximum(v - c, 0.0))
        # trial indices of each proposer: gathering by index is several
        # times faster than by a boolean mask with random entries
        buyer_side = np.flatnonzero(coin < 0.5)
        seller_side = np.flatnonzero(coin >= 0.5)

        gft = np.zeros(count)

        vb, cb = v[buyer_side], c[buyer_side]
        if vb.size:
            pb = price_b(key_v[buyer_side])
            accept = cb <= pb
            gft[buyer_side] = np.where(accept, vb - cb, 0.0)
            ub_parts.append(np.where(accept, vb - pb, 0.0))

        vs, cs = v[seller_side], c[seller_side]
        if vs.size:
            ps = price_s(key_c[seller_side])
            accept = vs >= ps
            gft[seller_side] = np.where(accept, vs - cs, 0.0)
            us_parts.append(np.where(accept, ps - cs, 0.0))

        gft_parts.append(gft)

    empty = np.empty(0)
    return MechanismSimReport(
        gft=_estimate(np.concatenate(gft_parts), seed),
        u_buyer=_estimate(np.concatenate(ub_parts) if ub_parts else empty, seed),
        u_seller=_estimate(np.concatenate(us_parts) if us_parts else empty, seed),
        trials=trials,
        seed=seed,
        fb=_estimate(np.concatenate(fb_parts), seed),
    )


def simulate_fb(instance: TradeInstance, trials: int, seed: int) -> SimEstimate:
    """Monte Carlo estimate of the first best, ``E[(v - c)^+]``.

    The ``fb`` of :func:`simulate_mechanism` at the same arguments.
    """
    return simulate_mechanism(instance, trials, seed).fb
