"""Adversarial instance search: probe the gap between observed and proven ratios.

Hill-climbing over discrete×discrete instances maximizes the exactly
evaluated ratio ``fb / gft``. Every evaluated instance is also run through
the guarantee check; the proven ceiling can never be exceeded, so any
evaluation above it aborts the search as an implementation bug.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import DiscreteDistribution, PiecewiseLinearDistribution
from .errors import DomainError, InvariantViolation, _check_integer
from .mechanism import TradeInstance, equilibrium, trade_instance_to_json
from .ratio import default_optimum, guarantee_check

#: Probability mass floor for perturbed weights.
MIN_MASS = 1e-9

#: Atom count per side of the canonical uniform-by-uniform seed instance.
CANONICAL_ATOMS = 64

#: Top value H of the equal-revenue buyer quantile ``min(1 / (1 - q), H)``.
EQUAL_REVENUE_TOP = 100.0


@dataclass(frozen=True)
class SearchConfig:
    """Hill-climbing parameters; ``seed`` fixes the whole run."""

    atoms_per_side: int = 8
    value_range: tuple[float, float] = (0.0, 1.0)
    iterations: int = 200
    restarts: int = 4
    seed: int = 0
    step_scale: float = 0.08


@dataclass(frozen=True)
class SearchResult:
    """Best instance found, its ratio, and per-restart best-so-far traces."""

    best_instance: TradeInstance
    best_ratio: float
    trace: tuple[tuple[float, ...], ...]
    evaluations: int

    def to_json(self) -> dict:
        return {
            "best_ratio": self.best_ratio,
            "best_instance": trade_instance_to_json(self.best_instance),
            "trace": [list(t) for t in self.trace],
            "evaluations": self.evaluations,
        }


def _validate_config(cfg: SearchConfig) -> SearchConfig:
    """``cfg`` with its counts and seed as ``int``; :class:`DomainError` on a bad field."""
    counts = {name: _check_integer(name, getattr(cfg, name), 1) for name in ("atoms_per_side", "iterations", "restarts")}
    lo, hi = cfg.value_range
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"value_range must be a finite interval, got {cfg.value_range!r}")
    if not math.isfinite(hi - lo):
        raise DomainError(f"the width hi - lo of value_range {cfg.value_range!r} overflows a float")
    if not 0.0 < cfg.step_scale < math.inf:
        raise DomainError(f"step_scale must be finite and positive, got {cfg.step_scale!r}")
    return dataclasses.replace(cfg, **counts, seed=_check_integer("seed", cfg.seed))


def _restart_rng(seed: int, restart: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed & ((1 << 128) - 1), spawn_key=(restart,))
    return np.random.default_rng(seq)


def _random_discrete(cfg: SearchConfig, rng: np.random.Generator) -> DiscreteDistribution:
    lo, hi = cfg.value_range
    values = rng.uniform(lo, hi, cfg.atoms_per_side)
    probs = rng.dirichlet(np.ones(cfg.atoms_per_side))
    return DiscreteDistribution.from_atoms(zip(values.tolist(), probs.tolist()))


def random_instance(cfg: SearchConfig, stream: np.random.Generator) -> TradeInstance:
    """Discrete×discrete instance with uniform values and simplex-uniform weights."""
    return TradeInstance(buyer=_random_discrete(cfg, stream), seller=_random_discrete(cfg, stream))


def _perturb_discrete(
    dist: DiscreteDistribution, cfg: SearchConfig, rng: np.random.Generator
) -> DiscreteDistribution:
    lo, hi = cfg.value_range
    n = len(dist.values)
    values = np.clip(
        np.asarray(dist.values) + rng.normal(0.0, cfg.step_scale * (hi - lo), n), lo, hi
    )
    weights = (1.0 - cfg.step_scale) * np.asarray(dist.probs) + cfg.step_scale * rng.dirichlet(
        np.ones(n)
    )
    weights = np.clip(weights, MIN_MASS, None)
    weights /= weights.sum()
    return DiscreteDistribution.from_atoms(zip(values.tolist(), weights.tolist()))


def canonical_uniform_instance(atoms: int = CANONICAL_ATOMS) -> TradeInstance:
    """Midpoint discretization of the unit-uniform by unit-uniform instance."""
    pairs = [((2 * i + 1) / (2 * atoms), 1.0 / atoms) for i in range(atoms)]
    dist = DiscreteDistribution.from_atoms(pairs)
    return TradeInstance(buyer=dist, seller=dist)


def equal_revenue_instance(knots: int) -> TradeInstance:
    """Mirrored equal-revenue pwl pair: buyer quantile ``min(1 / (1 - q), H)`` on ``q = i / (knots - 1)``.

    ``H`` is :data:`EQUAL_REVENUE_TOP`; the seller's cost is ``H + 1 - v`` on the mirrored grid ``1 - q``.
    """
    steps = _check_integer("knots", knots, 2) - 1
    top = EQUAL_REVENUE_TOP
    qs = [i / steps for i in range(steps + 1)]
    vals = [min(1.0 / (1.0 - q), top) if q < 1.0 else top for q in qs]
    buyer = PiecewiseLinearDistribution.from_knots(zip(qs, vals))
    seller = PiecewiseLinearDistribution.from_knots(
        zip([1.0 - q for q in reversed(qs)], [top + 1.0 - v for v in reversed(vals)])
    )
    return TradeInstance(buyer=buyer, seller=seller)


def worst_case_search(
    cfg: SearchConfig,
    on_evaluate: Callable[[TradeInstance, float], None] | None = None,
) -> SearchResult:
    """Hill-climb ``fb / gft`` from several restarts; deterministic in ``cfg``.

    Restart 0 always starts from the canonical uniform×uniform
    discretization (:data:`CANONICAL_ATOMS` atoms per side, independent of
    ``cfg.atoms_per_side``); remaining restarts start from random
    instances on independent substreams. Instances with ``fb = 0`` score
    ratio 1 so vacuous no-trade instances never dominate.
    """
    cfg = _validate_config(cfg)
    ceiling = default_optimum().ratio_star + 1e-6
    evaluations = 0

    def evaluate(instance: TradeInstance) -> float:
        nonlocal evaluations
        evaluations += 1
        eq = equilibrium(instance)
        guarantee_check(eq)
        ratio = eq.fb / eq.gft if eq.fb > 0.0 else 1.0
        if ratio > ceiling:
            raise InvariantViolation(f"evaluated ratio {ratio!r} exceeds proven ceiling {ceiling!r}")
        if on_evaluate is not None:
            on_evaluate(instance, ratio)
        return ratio

    best_key = None
    best_instance = None
    traces: list[tuple[float, ...]] = []
    for restart in range(cfg.restarts):
        rng = _restart_rng(cfg.seed, restart)
        if restart == 0:
            current = canonical_uniform_instance()
        else:
            current = random_instance(cfg, rng)
        current_ratio = evaluate(current)
        trace = [current_ratio]
        for _ in range(cfg.iterations):
            candidate = TradeInstance(
                buyer=_perturb_discrete(current.buyer, cfg, rng),
                seller=_perturb_discrete(current.seller, cfg, rng),
            )
            ratio = evaluate(candidate)
            if ratio > current_ratio:
                current, current_ratio = candidate, ratio
            trace.append(current_ratio)
        traces.append(tuple(trace))
        key = (current_ratio, restart)
        if best_key is None or key > best_key:
            best_key, best_instance = key, current
    return SearchResult(
        best_instance=best_instance,
        best_ratio=best_key[0],
        trace=tuple(traces),
        evaluations=evaluations,
    )
