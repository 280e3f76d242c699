"""Simulation oracle for cross-checking the exact pipeline.

Randomness is counter-based: draw ``k`` of trial ``t`` is a pure hash of
``(seed, t, k)`` (a splitmix64 stream indexed by position), so results are
bit-identical for identical inputs no matter how trials are chunked or
scheduled. Chunks of ``_CHUNK`` trials, small enough that their scratch
arrays stay in cache, write their per-trial values into arrays allocated
once at the trial count. Each estimate is a single pairwise-summation
reduction over those values, which is likewise independent of the
partitioning, and works in place on one scratch buffer.

One pass of draws feeds every estimate: each trial's buyer value and seller
cost are sampled once, and both the first best ``(v - c)^+`` and the
mechanism's outcome are read off them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import DiscreteDistribution, Distribution
from .errors import DomainError, _check_integer
from .mechanism import _UNPRINTED, TradeInstance, _Report, buyer_best_response_many, role_swap
# unused here, kept importable: the benchmark's traced runs wrap these names
from .mechanism import buyer_best_response, seller_best_response  # noqa: F401

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
# draws reserved per trial: 0 = proposer coin, 1 = buyer value, 2 = seller cost
_DRAWS_PER_TRIAL = 4
_CHUNK = 1 << 14


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
class SimEstimate(_Report):
    """Sample mean with its standard error."""

    mean: float
    stderr: float
    trials: int
    seed: int


def _estimate(samples: np.ndarray, seed: int) -> SimEstimate:
    n = int(samples.size)
    if n == 0:
        return SimEstimate(mean=0.0, stderr=0.0, trials=0, seed=seed)
    with np.errstate(over="ignore"):
        total = float(np.sum(samples))
    buf = np.empty_like(samples)  # every later step runs in place here

    def scale(x):
        # k with max |x| in [2**(k - 1), 2**k); leaves |x| in buf
        return math.frexp(float(np.abs(x, out=buf).max()))[1]

    if math.isfinite(total):
        mean = total / n
    else:
        # the plain sum overflowed: sum on the power-of-two scale of the
        # largest sample instead, which is exact
        k = scale(samples)
        mean = math.ldexp(float(np.sum(np.ldexp(samples, -k, out=buf))) / n, k)
    if n > 1:
        # |deviations| (their squares are the deviations') scaled into
        # [0.5, 1) by a power of two, which is exact, so their squares
        # neither overflow at huge values nor vanish at tiny ones
        k = scale(np.subtract(samples, mean, out=buf))
        var = float(np.sum(np.square(np.ldexp(buf, -k, out=buf), out=buf)) / (n - 1))
        stderr = math.ldexp(math.sqrt(max(var, 0.0) / n), k)
    else:
        stderr = 0.0
    return SimEstimate(mean=mean, stderr=stderr, trials=n, seed=seed)


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
class MechanismSimReport(_Report):
    """Estimates from simulating the random proposer mechanism."""

    gft: SimEstimate
    u_buyer: SimEstimate
    u_seller: SimEstimate
    trials: int
    seed: int
    #: first best ``E[(v - c)^+]`` over the same draws
    fb: SimEstimate = field(metadata=_UNPRINTED)


def simulate_mechanism(instance: TradeInstance, trials: int, seed: int) -> MechanismSimReport:
    """Simulate the mechanism: coin, both types, best-response price, response.

    ``u_buyer``/``u_seller`` are proposer utilities conditioned on the
    respective agent proposing (their trial counts add up to ``trials``).
    ``fb`` estimates the first best from the same sampled types. For a
    discrete proposer prior the best-response price is solved once per atom
    and looked up by the sampled atom; otherwise each sample's price is
    chosen among the opponent's envelope entries around it.
    """
    trials, seed = _check_integer("trials", trials, 1), _check_integer("seed", seed)
    price_b, price_s = _proposer_prices(instance)

    # each chunk writes its slice of fb and gft and appends its proposers'
    # utilities to u_b / u_s; each estimate reads the filled prefix
    try:
        fb, gft, u_b, u_s = (np.empty(trials) for _ in range(4))
    except (MemoryError, ValueError):  # numpy raises ValueError for a size past its largest array
        raise DomainError(f"trials must fit in memory, got {trials}") from None
    n_b = n_s = 0
    for start in range(0, trials, _CHUNK):
        stop = min(start + _CHUNK, trials)
        count = stop - start
        buyer_proposes = _uniforms(seed, start, count, 0) < 0.5
        # trial indices of each proposer: gathering by index is several
        # times faster than by a boolean mask with random entries
        buyer_side = np.flatnonzero(buyer_proposes)
        seller_side = np.flatnonzero(~buyer_proposes)
        v, key_v = _draw(instance.buyer, _uniforms(seed, start, count, 1))
        c, key_c = _draw(instance.seller, _uniforms(seed, start, count, 2))
        surplus = np.subtract(v, c, out=gft[start:stop])
        np.maximum(surplus, 0.0, out=fb[start:stop])
        # a rejected offer leaves the proposer's utility and the gft at 0
        pb = price_b(key_v[buyer_side])
        u = np.subtract(v[buyer_side], pb, out=u_b[n_b : n_b + pb.size])
        np.copyto(u, 0.0, where=(no := c[buyer_side] > pb))
        surplus[buyer_side[no]] = 0.0
        n_b += pb.size
        ps = price_s(key_c[seller_side])
        u = np.subtract(ps, c[seller_side], out=u_s[n_s : n_s + ps.size])
        np.copyto(u, 0.0, where=(no := v[seller_side] < ps))
        surplus[seller_side[no]] = 0.0
        n_s += ps.size

    return MechanismSimReport(
        gft=_estimate(gft, seed),
        u_buyer=_estimate(u_b[:n_b], seed),
        u_seller=_estimate(u_s[:n_s], seed),
        trials=trials,
        seed=seed,
        fb=_estimate(fb, seed),
    )


def simulate_fb(instance: TradeInstance, trials: int, seed: int) -> SimEstimate:
    """Monte Carlo estimate of the first best, ``E[(v - c)^+]``.

    The ``fb`` of :func:`simulate_mechanism` at the same arguments.
    """
    return simulate_mechanism(instance, trials, seed).fb
