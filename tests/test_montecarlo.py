"""Simulation oracle: determinism, partition independence, convergence."""

import json
import math
import warnings

import numpy as np
import pytest

import tradegains.cli as cli
import tradegains.montecarlo as mc
from tradegains import (
    DiscreteDistribution,
    DomainError,
    PiecewiseLinearDistribution,
    TradeInstance,
    equilibrium,
    first_best,
    point,
    simulate_fb,
    simulate_mechanism,
    uniform,
)

from conftest import random_discrete, random_discrete_instance, random_pwl

UU = TradeInstance(buyer=uniform(0, 1), seller=uniform(0, 1))
P1U = TradeInstance(buyer=point(1.0), seller=uniform(0, 1))


def test_uniforms_are_counter_based():
    a = mc._uniforms(42, 0, 100, 1)
    b = mc._uniforms(42, 50, 50, 1)
    assert np.array_equal(a[50:], b)
    assert a.min() >= 0.0 and a.max() < 1.0
    # distinct draws and seeds decorrelate
    assert not np.array_equal(a, mc._uniforms(42, 0, 100, 2))
    assert not np.array_equal(a, mc._uniforms(43, 0, 100, 1))


def test_simulate_fb_deterministic():
    first = simulate_fb(UU, 20000, 42)
    second = simulate_fb(UU, 20000, 42)
    assert first == second
    assert first != simulate_fb(UU, 20000, 43)


def test_simulate_mechanism_deterministic():
    first = simulate_mechanism(P1U, 20000, 7)
    second = simulate_mechanism(P1U, 20000, 7)
    assert first == second


def test_chunking_does_not_change_results(monkeypatch):
    baseline_fb = simulate_fb(UU, 30000, 3)
    baseline_mech = simulate_mechanism(UU, 30000, 3)
    monkeypatch.setattr(mc, "_CHUNK", 999)
    assert simulate_fb(UU, 30000, 3) == baseline_fb
    assert simulate_mechanism(UU, 30000, 3) == baseline_mech


def test_simulate_fb_consistent_with_exact():
    est = simulate_fb(UU, 200000, 42)
    assert abs(est.mean - 1.0 / 6.0) <= 4.0 * est.stderr
    est = simulate_fb(P1U, 200000, 42)
    assert abs(est.mean - 0.5) <= 4.0 * est.stderr


def test_simulate_mechanism_consistent_with_exact():
    sim = simulate_mechanism(UU, 200000, 7)
    assert abs(sim.gft.mean - 1.0 / 8.0) <= 4.0 * sim.gft.stderr
    assert abs(sim.u_buyer.mean - 1.0 / 12.0) <= 4.0 * sim.u_buyer.stderr
    assert abs(sim.u_seller.mean - 1.0 / 12.0) <= 4.0 * sim.u_seller.stderr
    assert sim.u_buyer.trials + sim.u_seller.trials == sim.trials

    sim = simulate_mechanism(P1U, 200000, 7)
    assert abs(sim.gft.mean - 7.0 / 16.0) <= 4.0 * sim.gft.stderr


@pytest.mark.parametrize("seed", range(6))
def test_simulate_matches_exact_on_discrete_instances(seed):
    instance = random_discrete_instance(seed)
    eq = equilibrium(instance)
    est = simulate_fb(instance, 150000, seed)
    assert abs(est.mean - first_best(instance)) <= 4.0 * max(est.stderr, 1e-12)
    sim = simulate_mechanism(instance, 150000, seed)
    assert abs(sim.gft.mean - eq.gft) <= 4.0 * max(sim.gft.stderr, 1e-12)
    assert abs(sim.u_buyer.mean - eq.u_buyer) <= 4.0 * max(sim.u_buyer.stderr, 1e-12)
    assert abs(sim.u_seller.mean - eq.u_seller) <= 4.0 * max(sim.u_seller.stderr, 1e-12)


def test_degenerate_instances_are_exact():
    est = simulate_fb(TradeInstance(buyer=point(0.0), seller=point(1.0)), 100, 1)
    assert (est.mean, est.stderr) == (0.0, 0.0)
    sim = simulate_mechanism(TradeInstance(buyer=point(1.0), seller=point(0.0)), 10, 1)
    assert (sim.gft.mean, sim.gft.stderr) == (1.0, 0.0)


def test_pwl_proposer_prices_match_scalar_path():
    # the vectorized candidate optimization must agree with the scalar rule
    from tradegains import buyer_best_response, seller_best_response

    rng = np.random.default_rng(9)
    atoms = np.unique(rng.uniform(0, 1, 5))
    discrete = DiscreteDistribution.from_atoms(
        zip(atoms.tolist(), rng.dirichlet(np.ones(len(atoms))).tolist())
    )
    # a flat run of knot values is an atom of the pwl prior
    with_atom = PiecewiseLinearDistribution.from_knots(
        [(0.0, 0.1), (0.25, 0.35), (0.6, 0.35), (0.8, 0.7), (1.0, 0.95)]
    )
    for opponent in (uniform(0, 1), uniform(0.3, 0.8), discrete, random_pwl(rng, 8), with_atom):
        w = np.linspace(-0.2, 1.3, 61)
        vb = mc._buyer_prices(w, opponent)
        # the seller side is priced on the role-swapped instance
        vs = -mc._buyer_prices(-w, opponent.negate())
        for i, x in enumerate(w):
            assert vb[i] == buyer_best_response(x, opponent).price
            assert vs[i] == seller_best_response(x, opponent).price


def test_trials_domain():
    with pytest.raises(DomainError):
        simulate_fb(UU, 0, 1)
    with pytest.raises(DomainError):
        simulate_mechanism(UU, -5, 1)


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def _floats(payload):
    if isinstance(payload, dict):
        for key in sorted(payload):
            yield from _floats(payload[key])
    elif isinstance(payload, float):
        yield payload


@pytest.mark.parametrize("k", (900, -900, 300))
def test_simulate_scales_by_powers_of_two(k, tmp_path, capsys):
    # multiplying every value by 2**k is exact, so every printed float must
    # be the unit-scale one times 2**k, with no overflow or underflow in the
    # standard errors
    rng = np.random.default_rng(17)
    buyer, seller = random_pwl(rng, 6), random_discrete(rng, 5)
    outputs = []
    for scale in (1.0, 2.0**k):
        instance = {
            "buyer": {"kind": "pwl", "knots": [[q, v * scale] for q, v in zip(buyer.qs, buyer.vals)]},
            "seller": {"kind": "discrete", "atoms": [[v * scale, p] for v, p in zip(seller.values, seller.probs)]},
        }
        path = tmp_path / f"scaled-{scale!r}.json"
        path.write_text(json.dumps(instance))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(["simulate", "--instance", str(path), "--trials", "20000", "--seed", "3"]) == 0
        outputs.append(list(_floats(_strict_json(capsys.readouterr().out))))
    unit, scaled = outputs
    assert len(unit) == 8 and all(x > 0.0 for x in unit)
    assert scaled == [math.ldexp(x, k) for x in unit]
