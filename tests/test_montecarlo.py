"""Simulation oracle: determinism, partition independence, convergence."""

import json
import math
import re
import tracemalloc
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
    buyer_best_response,
    buyer_best_response_many,
    canonical_uniform_instance,
    equilibrium,
    first_best,
    point,
    seller_best_response,
    simulate_fb,
    simulate_mechanism,
    trade_instance_to_json,
    uniform,
)

from conftest import budget, random_discrete, random_discrete_instance, random_pwl, strict_json

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
        vb = buyer_best_response_many(w, opponent)[0]
        # the seller side is priced on the role-swapped instance
        vs = -buyer_best_response_many(-w, opponent.negate())[0]
        for i, x in enumerate(w):
            assert vb[i] == buyer_best_response(x, opponent).price
            assert vs[i] == seller_best_response(x, opponent).price


def _reference_report(instance, trials, seed):
    """Estimates from one chunk, pricing each discrete type by its scalar best response.

    Independent of the atom-index lookup and of the role-swapped seller
    table: a discrete proposer's price is keyed by its sampled value.
    """
    buyer, seller = instance.buyer, instance.seller
    coin = mc._uniforms(seed, 0, trials, 0)
    v = buyer.sample_many(mc._uniforms(seed, 0, trials, 1))
    c = seller.sample_many(mc._uniforms(seed, 0, trials, 2))

    def by_value(types, scalar):
        unique, inverse = np.unique(types, return_inverse=True)
        return np.asarray([scalar(x).price for x in unique.tolist()])[inverse]

    b, s = coin < 0.5, coin >= 0.5
    if isinstance(buyer, DiscreteDistribution):
        pb = by_value(v[b], lambda x: buyer_best_response(x, seller))
    else:
        pb = buyer_best_response_many(v[b], seller)[0]
    if isinstance(seller, DiscreteDistribution):
        ps = by_value(c[s], lambda x: seller_best_response(x, buyer))
    else:
        ps = -buyer_best_response_many(-c[s], buyer.negate())[0]
    gft = np.zeros(trials)
    gft[b] = np.where(c[b] <= pb, v[b] - c[b], 0.0)
    gft[s] = np.where(v[s] >= ps, v[s] - c[s], 0.0)
    return {
        "fb": mc._estimate(np.maximum(v - c, 0.0), seed).to_json(),
        "mechanism": {
            "gft": mc._estimate(gft, seed).to_json(),
            "u_buyer": mc._estimate(np.where(c[b] <= pb, v[b] - pb, 0.0), seed).to_json(),
            "u_seller": mc._estimate(np.where(v[s] >= ps, ps - c[s], 0.0), seed).to_json(),
            "trials": trials,
            "seed": seed,
        },
    }


_ULP_ATOMS = DiscreteDistribution.from_atoms(
    [(0.3, 0.25), (math.nextafter(0.3, 1.0), 0.25), (0.6, 0.2), (math.nextafter(0.6, 1.0), 0.3)]
)
_TINY_MASS = DiscreteDistribution.from_atoms([(0.1, 1e-300), (0.45, 0.5), (0.8, 0.5), (0.95, 1e-300)])
_FLAT_RUNS = PiecewiseLinearDistribution.from_knots(
    [(0.0, 0.0), (0.2, 0.3), (0.35, 0.3), (0.5, 0.55), (0.7, 0.55), (0.8, 0.55), (1.0, 1.0)]
)
SHARED_DRAW_INSTANCES = {
    "discrete": random_discrete_instance(11),
    "pwl": TradeInstance(buyer=random_pwl(np.random.default_rng(5), 7), seller=uniform(0.1, 0.9)),
    "pwl-discrete": TradeInstance(buyer=random_pwl(np.random.default_rng(6), 5), seller=_ULP_ATOMS),
    "discrete-pwl": TradeInstance(buyer=_ULP_ATOMS, seller=_FLAT_RUNS),
    "flat-runs": TradeInstance(buyer=_FLAT_RUNS, seller=_FLAT_RUNS),
    "near-duplicates": TradeInstance(
        buyer=_ULP_ATOMS,
        seller=DiscreteDistribution.from_atoms([(math.nextafter(0.3, 0.0), 0.5), (0.3, 0.2), (0.6, 0.3)]),
    ),
    "tiny-mass": TradeInstance(buyer=_TINY_MASS, seller=_TINY_MASS),
}


@pytest.mark.parametrize("name", sorted(SHARED_DRAW_INSTANCES))
def test_simulate_prints_one_pass_of_draws(name, tmp_path, capsys, monkeypatch):
    # the CLI's one simulate_mechanism call must print what the two library
    # calls return, and both must equal a one-chunk reference that prices
    # each sampled value by its scalar best response
    monkeypatch.setattr(mc, "_CHUNK", 1 << 12)
    trials, seed = mc._CHUNK + 5, 29
    instance = SHARED_DRAW_INSTANCES[name]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(trade_instance_to_json(instance)))
    assert cli.run(["simulate", "--instance", str(path), "--trials", str(trials), "--seed", str(seed)]) == 0
    printed = json.loads(capsys.readouterr().out)
    library = {
        "fb": simulate_fb(instance, trials, seed).to_json(),
        "mechanism": simulate_mechanism(instance, trials, seed).to_json(),
    }
    assert printed == library == _reference_report(instance, trials, seed)


def test_simulate_draws_each_trial_once(tmp_path, capsys, monkeypatch):
    # coin, buyer value and seller cost: three uniforms per chunk, shared by
    # the first best and the mechanism
    monkeypatch.setattr(mc, "_CHUNK", 1 << 12)
    calls = []
    uniforms = mc._uniforms

    def counting(seed, start, count, draw):
        calls.append((start, draw))
        return uniforms(seed, start, count, draw)

    monkeypatch.setattr(mc, "_uniforms", counting)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(trade_instance_to_json(SHARED_DRAW_INSTANCES["discrete"])))
    chunks = 3
    trials = 2 * mc._CHUNK + 1
    assert cli.run(["simulate", "--instance", str(path), "--trials", str(trials), "--seed", "1"]) == 0
    assert sorted(calls) == sorted((k * mc._CHUNK, draw) for k in range(chunks) for draw in range(3))


def test_trials_domain():
    with pytest.raises(DomainError):
        simulate_fb(UU, 0, 1)
    with pytest.raises(DomainError):
        simulate_mechanism(UU, -5, 1)
    # not truncated or coerced to an integer: 2.7 would run 2 trials and True 1
    for trials in (2.7, True, math.inf, math.nan):
        with pytest.raises(DomainError, match="trials must be an integer"):
            simulate_mechanism(UU, trials, 0)
    assert simulate_mechanism(UU, np.int64(3), 0) == simulate_mechanism(UU, 3, 0)
    with pytest.raises(DomainError, match=r"^trials must be >= 1, got 0$"):
        simulate_mechanism(UU, 0, 0)


def test_a_trial_count_past_the_address_space_is_refused(tmp_path, capsys):
    # 10**15 trials need 7.11 PiB per array, past the address space, so
    # nothing is allocated; a size the host could overcommit is never tried
    trials = 10**15
    with pytest.raises(DomainError, match=f"^trials must fit in memory, got {trials}$"):
        simulate_mechanism(UU, trials, 0)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(trade_instance_to_json(UU)))
    assert cli.run(["simulate", "--instance", str(path), "--trials", str(trials), "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: trials must fit in memory, got {trials}\n")


@pytest.mark.parametrize("seed", [1.5, 2.0, True, "3", None])
def test_seed_must_be_an_integer(seed):
    with pytest.raises(DomainError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
        simulate_mechanism(UU, 3, seed)


def test_seed_takes_numpy_integers_as_their_ints():
    report = simulate_mechanism(UU, 3, np.int64(-4))
    assert report == simulate_mechanism(UU, 3, -4) and type(report.seed) is int


def _floats(payload):
    if isinstance(payload, dict):
        for key in sorted(payload):
            yield from _floats(payload[key])
    elif isinstance(payload, float):
        yield payload


@pytest.mark.parametrize("k", (900, -900, 300, 1015))
def test_simulate_scales_by_powers_of_two(k, tmp_path, capsys):
    # multiplying every value by 2**k is exact, so every printed float must
    # be the unit-scale one times 2**k, with no overflow or underflow in the
    # standard errors; at 2**1015 the plain sum of the samples overflows
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
        outputs.append(list(_floats(strict_json(capsys.readouterr().out))))
    unit, scaled = outputs
    assert len(unit) == 8 and all(x > 0.0 for x in unit)
    assert scaled == [math.ldexp(x, k) for x in unit]


def _pwl_against_discrete(seed=13):
    rng = np.random.default_rng(seed)
    buyer = random_pwl(rng, 32)
    values = np.unique(rng.uniform(0.0, 1.0, 32))
    seller = DiscreteDistribution.from_atoms(zip(values.tolist(), rng.dirichlet(np.ones(len(values))).tolist()))
    return TradeInstance(buyer=buyer, seller=seller)


PINNED_INSTANCES = {"c064": canonical_uniform_instance(), "uu": UU, "pd32": _pwl_against_discrete()}
#: ``(mean, stderr[, trials])`` of each estimate at 2**17 + 5 trials and seed 41, by ``float.hex``,
#: recorded when every draw and envelope lookup was numpy's binary search
PINNED_SIMULATIONS = {
    "c064": {
        "gft": ("0x1.046784fd33870p-3", "0x1.5b4f9d6a243d6p-11"),
        "u_buyer": ("0x1.5d8bcf524f264p-4", "0x1.42373183a2434p-11", 65464),
        "u_seller": ("0x1.5f11a7b08fe4cp-4", "0x1.420584906c0bbp-11", 65613),
        "fb": ("0x1.55928a11a6d3ep-3", "0x1.5588e845f4ecdp-11"),
    },
    "uu": {
        "gft": ("0x1.00cac766dc3f4p-3", "0x1.5aff991f0ae85p-11"),
        "u_buyer": ("0x1.5670e45cd654ep-4", "0x1.407e3de60df90p-11", 65464),
        "u_seller": ("0x1.577360d53feeep-4", "0x1.4014b568683a6p-11", 65613),
        "fb": ("0x1.55abbc246db2cp-3", "0x1.55932629fae50p-11"),
    },
    "pd32": {
        "gft": ("0x1.00fe099dc2a5ep-3", "0x1.5be9d3c2b2541p-11"),
        "u_buyer": ("0x1.5359679b21ae0p-4", "0x1.2c3b877f31b9bp-11", 65464),
        "u_seller": ("0x1.899b9daa71121p-4", "0x1.85ace9d1b7f92p-11", 65613),
        "fb": ("0x1.504fde867c7a0p-3", "0x1.597d8609612f9p-11"),
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_INSTANCES))
def test_simulate_is_pinned_across_a_chunk_edge(name):
    trials, seed = 2**17 + 5, 41
    report = simulate_mechanism(PINNED_INSTANCES[name], trials, seed)
    got = {"gft": report.gft, "u_buyer": report.u_buyer, "u_seller": report.u_seller, "fb": report.fb}
    for field, pinned in PINNED_SIMULATIONS[name].items():
        estimate = got[field]
        assert (estimate.mean.hex(), estimate.stderr.hex()) == pinned[:2], field
        assert estimate.trials == (pinned[2] if len(pinned) > 2 else trials)
        assert estimate.seed == seed
    assert report.to_json()["trials"] == trials


def test_simulate_one_bucket_prior_in_budget():
    # an atom of mass 1 - 511e-300 under 511 atoms of mass 1e-300: every
    # cumulative mass is 1.0, so the guide has one bucket and every draw
    # searches all 512 entries, in 10 steps
    hostile = DiscreteDistribution.from_atoms([(0.5 + i / 1024, 1e-300 if i else 1.0) for i in range(512)])
    assert hostile._cum_guide.top == 0
    instance = TradeInstance(buyer=hostile, seller=uniform(0.0, 1.0))
    trials, seed = 2**17 + 5, 5
    with budget(10):
        report = simulate_mechanism(instance, trials, seed)
    reference = _reference_report(instance, trials, seed)
    assert report.to_json() == reference["mechanism"]
    assert report.fb.to_json() == reference["fb"]


def _hex_report(report):
    return [
        (e.mean.hex(), e.stderr.hex(), e.trials, e.seed)
        for e in (report.gft, report.u_buyer, report.u_seller, report.fb)
    ]


#: a chunk edge of each chunk size, run at one trial below, at and above it
CHUNK_EDGES = {1: 64, 999: 2 * 999, 1 << 12: 1 << 13, mc._CHUNK: 2 * mc._CHUNK, 1 << 17: 1 << 17}


@pytest.mark.parametrize("chunk", sorted(CHUNK_EDGES))
@pytest.mark.parametrize("name", sorted(PINNED_INSTANCES))
def test_simulate_is_independent_of_the_chunk_size(name, chunk, monkeypatch):
    # a chunk of 1 leaves one proposer side empty in every chunk, so each
    # side's utilities are appended at a running count that skips chunks
    instance, seed = PINNED_INSTANCES[name], 23
    reference_chunk = 1 << 17 if chunk == mc._CHUNK else mc._CHUNK
    for trials in (CHUNK_EDGES[chunk] - 1, CHUNK_EDGES[chunk], CHUNK_EDGES[chunk] + 1):
        monkeypatch.setattr(mc, "_CHUNK", reference_chunk)
        reference = _hex_report(simulate_mechanism(instance, trials, seed))
        monkeypatch.setattr(mc, "_CHUNK", chunk)
        assert _hex_report(simulate_mechanism(instance, trials, seed)) == reference, trials


@pytest.mark.parametrize("name", sorted(PINNED_INSTANCES))
def test_simulate_peak_memory_per_trial(name):
    # numpy reports its buffers to tracemalloc. The four per-trial arrays
    # take 32 bytes a trial and an estimate's scratch buffer 8 more: 43-44
    # in all. With 2**17-trial chunks, the per-chunk arrays concatenated at
    # the end and the estimator's full-length temporaries, this read 100-131
    # bytes (77-83 at 250,000 trials).
    instance, trials = PINNED_INSTANCES[name], 2**17 + 5
    simulate_mechanism(instance, 100, 0)  # build the priors' cached tables outside the trace
    tracemalloc.start()
    try:
        simulate_mechanism(instance, trials, 41)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / trials <= 48
