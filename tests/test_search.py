"""Worst-case instance search: determinism, traces, proven ceiling."""

import dataclasses
import math
import re

import numpy as np
import pytest

from tradegains import (
    DomainError,
    SearchConfig,
    TradeInstance,
    canonical_uniform_instance,
    equal_revenue_instance,
    equilibrium,
    first_best,
    optimize_lambda,
    point,
    random_instance,
    worst_case_search,
)
from tradegains.search import _restart_rng

CFG = SearchConfig(atoms_per_side=6, iterations=40, restarts=3, seed=123)


def test_random_instance_deterministic():
    a = random_instance(CFG, _restart_rng(CFG.seed, 1))
    b = random_instance(CFG, _restart_rng(CFG.seed, 1))
    assert a.buyer == b.buyer and a.seller == b.seller
    c = random_instance(CFG, _restart_rng(CFG.seed, 2))
    assert a.buyer != c.buyer


def test_single_atom_instances():
    cfg = SearchConfig(atoms_per_side=1, seed=5)
    inst = random_instance(cfg, _restart_rng(cfg.seed, 1))
    assert len(inst.buyer.values) == 1 and len(inst.seller.values) == 1
    # with v > c both proposers extract the whole surplus: ratio exactly 1
    eq = equilibrium(TradeInstance(buyer=point(0.8), seller=point(0.3)))
    assert eq.fb == eq.gft
    assert eq.fb == pytest.approx(0.5, abs=1e-15)
    # with v < c there is no trade at all
    assert first_best(TradeInstance(buyer=point(0.3), seller=point(0.8))) == 0.0


def test_canonical_seed_ratio():
    inst = canonical_uniform_instance()
    eq = equilibrium(inst)
    assert eq.fb / eq.gft == pytest.approx(1.3131313131313131, abs=1e-12)


def test_equal_revenue_instance_pins_its_equilibrium():
    # fb / gft = 1.9031, the ratio tools/scaling.py prints at 201 knots
    eq = equilibrium(equal_revenue_instance(201))
    assert (eq.fb.hex(), eq.gft.hex()) == ("0x1.7d89d02aa3172p-4", "0x1.90f99d48fc123p-5")
    with pytest.raises(DomainError, match=r"^knots must be >= 2, got 1$"):
        equal_revenue_instance(1)


def test_search_deterministic():
    a = worst_case_search(CFG)
    b = worst_case_search(CFG)
    assert a.best_ratio == b.best_ratio
    assert a.trace == b.trace
    assert a.best_instance.buyer == b.best_instance.buyer
    assert a.best_instance.seller == b.best_instance.seller


def test_search_traces_monotone_and_bounded():
    result = worst_case_search(CFG)
    opt = optimize_lambda(1e-12)
    assert len(result.trace) == CFG.restarts
    for trace in result.trace:
        assert len(trace) == CFG.iterations + 1
        assert all(a <= b for a, b in zip(trace, trace[1:]))
        assert all(1.0 <= r <= opt.ratio_star + 1e-6 for r in trace)
    assert result.evaluations == CFG.restarts * (CFG.iterations + 1)
    assert result.best_ratio == max(t[-1] for t in result.trace)


def test_search_keeps_canonical_floor():
    cfg = SearchConfig(atoms_per_side=4, iterations=2, restarts=1, seed=0)
    result = worst_case_search(cfg)
    assert result.best_ratio >= 1.3131313131313131 - 1e-12


def test_search_vacuous_instances_score_one():
    # no-trade instances must never dominate; their ratio is pinned to 1
    seen = []

    def record(instance, ratio):
        seen.append((first_best(instance), ratio))

    cfg = SearchConfig(
        atoms_per_side=1, value_range=(0.0, 1.0), iterations=8, restarts=6, seed=2
    )
    worst_case_search(cfg, on_evaluate=record)
    vacuous = [r for fb, r in seen if fb == 0.0]
    assert vacuous and all(r == 1.0 for r in vacuous)


def test_search_config_validation():
    with pytest.raises(DomainError, match="^atoms_per_side must be >= 1, got 0$"):
        worst_case_search(SearchConfig(atoms_per_side=0))
    with pytest.raises(DomainError, match="^iterations must be >= 1, got 0$"):
        worst_case_search(SearchConfig(iterations=0))
    with pytest.raises(DomainError, match="^restarts must be >= 1, got 0$"):
        worst_case_search(SearchConfig(restarts=0))
    with pytest.raises(DomainError):
        worst_case_search(SearchConfig(value_range=(1.0, 0.0)))
    with pytest.raises(DomainError):
        worst_case_search(SearchConfig(step_scale=0.0))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("step_scale", math.inf, "step_scale must be finite and positive, got inf"),
        ("step_scale", math.nan, "step_scale must be finite and positive, got nan"),
        ("step_scale", -0.1, "step_scale must be finite and positive, got -0.1"),
        # each bound is finite, but hi - lo overflows
        ("value_range", (-1.7e308, 1.7e308), "the width hi - lo of value_range (-1.7e+308, 1.7e+308) overflows a float"),
        ("value_range", (0.0, math.inf), "value_range must be a finite interval, got (0.0, inf)"),
        ("value_range", (math.nan, 1.0), "value_range must be a finite interval, got (nan, 1.0)"),
    ],
)
def test_search_refuses_an_unbounded_step_or_range(field, value, message):
    cfg = dataclasses.replace(SearchConfig(atoms_per_side=2, iterations=2, restarts=1), **{field: value})
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        worst_case_search(cfg)


@pytest.mark.parametrize("field", ["atoms_per_side", "iterations", "restarts", "seed"])
@pytest.mark.parametrize("value", [True, 2.0, 1.5, "2", None])
def test_search_counts_and_seed_must_be_integers(field, value):
    # not coerced: True would run one iteration, 2.0 two atoms per side
    cfg = dataclasses.replace(SearchConfig(atoms_per_side=2, iterations=2, restarts=1), **{field: value})
    with pytest.raises(DomainError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
        worst_case_search(cfg)


def test_search_takes_numpy_integers_as_their_ints():
    ints = SearchConfig(atoms_per_side=3, iterations=4, restarts=2, seed=-7)
    numpy_ints = SearchConfig(
        atoms_per_side=np.int64(3), iterations=np.int32(4), restarts=np.uint8(2), seed=np.int64(-7)
    )
    assert worst_case_search(numpy_ints) == worst_case_search(ints)


def test_search_guarantees_hold_on_evaluated_instances():
    margins = []

    def record(instance, ratio):
        eq = equilibrium(instance)
        margins.append(eq.gft - eq.fb / 4.0)

    worst_case_search(SearchConfig(atoms_per_side=5, iterations=15, restarts=2, seed=9), record)
    assert margins and all(m >= -1e-9 for m in margins)
