"""Geometric decomposition: identities, deviation bounds, aggregate inequalities."""

import dataclasses
import math

import numpy as np
import pytest

import tradegains.geometry as geometry
import tradegains.mechanism as mechanism
from tradegains import (
    DiscreteDistribution,
    DomainError,
    InvariantViolation,
    PiecewiseLinearDistribution,
    TradeInstance,
    aggregate_decomposition,
    buyer_best_response,
    buyer_deviation_bound,
    decompose_fixed_v,
    equilibrium,
    key_lemma_margin,
    key_lemma_margins,
    point,
    guarantee_check,
    ratio_bound,
    seller_scaling_utility,
    sweep_bounds,
    uniform,
    verify_bounds,
)

from conftest import LAMBDA_GRID, budget, random_discrete, random_discrete_instance, random_pwl

U01 = uniform(0, 1)
COIN = DiscreteDistribution.from_atoms([(0.0, 0.5), (1.0, 0.5)])
UU = TradeInstance(buyer=U01, seller=U01)
P1U = TradeInstance(buyer=point(1.0), seller=U01)


# --------------------------------------------------------------------------
# fixed-v decomposition examples (closed-form integrals of the uniform
# quantile: fb_v = 1/2, S = b^2/2, B = (1 - b^2)/2, A = (1 - lam)^2 / 2)


def test_decompose_uniform_half():
    d = decompose_fixed_v(1.0, U01, 0.5)
    assert d.x_v == 1.0
    assert d.b_lambda == 0.5
    assert d.fb_v == pytest.approx(0.5, abs=1e-15)
    assert d.area_S == pytest.approx(0.125, abs=1e-15)
    assert d.area_B == pytest.approx(0.375, abs=1e-15)
    assert d.area_A == pytest.approx(0.125, abs=1e-15)
    assert d.u_S_geom == pytest.approx(0.125, abs=1e-15)
    assert d.u_B_dev == pytest.approx(0.25, abs=1e-15)
    assert d.u_B_opt == pytest.approx(0.25, abs=1e-15)


def test_decompose_uniform_optimal_lambda():
    lam = 0.31784
    d = decompose_fixed_v(1.0, U01, lam)
    assert d.area_A == pytest.approx((1.0 - lam) ** 2 / 2.0, abs=1e-12)
    assert d.u_S_geom == pytest.approx((1.0 - lam) * 0.5 - (1.0 - lam) ** 2 / 2.0, abs=1e-12)


def test_decompose_no_trade_is_all_zero():
    d = decompose_fixed_v(0.0, point(1.0), 0.5)
    assert (d.x_v, d.fb_v, d.area_S, d.area_B, d.area_A, d.u_S_geom, d.u_B_dev) == (
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    )


def test_decompose_lambda_domain():
    for lam in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            decompose_fixed_v(1.0, U01, lam)


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("seller", [U01, COIN], ids=["pwl", "discrete"])
def test_fixed_v_functions_reject_non_finite_v(v, seller):
    for call in (
        lambda: decompose_fixed_v(v, seller, 0.5),
        lambda: buyer_deviation_bound(v, seller, 0.5),
        lambda: seller_scaling_utility(v, seller, 0.5),
        lambda: key_lemma_margin(v, seller, 0.0),
        lambda: key_lemma_margins(v, seller, np.zeros(1)),
    ):
        with pytest.raises(DomainError, match="v must be finite"):
            call()


# --------------------------------------------------------------------------
# buyer deviation


def test_buyer_deviation_examples():
    assert buyer_deviation_bound(1.0, U01, 0.5) == (0.5, 0.25)
    # lam * x(v) = 0.5 maps to the lower atom, which half the sellers accept
    price, utility = buyer_deviation_bound(1.0, COIN, 0.5)
    assert (price, utility) == (0.0, 0.5)
    price, utility = buyer_deviation_bound(2.0, point(0.5), 0.7)
    assert (price, utility) == (0.5, 1.5)


def test_buyer_deviation_quantile_lower_bound(corpus_small):
    # x(b) >= lam * x(v) makes the utility at least lam * x(v) * (v - b)
    for instance in corpus_small[:30]:
        seller = instance.seller
        for v in instance.buyer.values:
            for lam in (0.1, 0.31784, 0.5, 0.9):
                x_v = seller.cdf(v)
                price, utility = buyer_deviation_bound(v, seller, lam)
                assert utility >= lam * x_v * (v - price) - 1e-12


# --------------------------------------------------------------------------
# seller scaling strategy


def test_seller_scaling_examples():
    # all offers accepted: 0.5 * mean + 0.5 * top - mean
    assert seller_scaling_utility(1.0, U01, 0.5) == pytest.approx(0.25, abs=1e-15)
    # offers 2q accepted only while 2q <= 0.4
    assert seller_scaling_utility(0.4, U01, 0.5) == pytest.approx(0.02, abs=1e-15)
    assert seller_scaling_utility(2.0, point(0.5), 0.5) == 0.0
    assert seller_scaling_utility(0.2, point(0.5), 0.5) == 0.0


def test_seller_scaling_tops_out_at_the_quantile_of_one():
    # the cdf reaches 1 at the atom 1.0, so the top quote c(1) is 1.0, which
    # the value 1.0 accepts; the atom at 2.0, which the cdf gives no mass, is
    # dropped, so support_max is 1.0 too
    seller = DiscreteDistribution.from_atoms([(0.0, 0.5), (1.0, 0.5), (2.0, 1e-13)])
    assert (seller.quantile(1.0), seller.support_max) == (1.0, 1.0)
    # 0.5 * mean + 0.5 * c(1) - mean
    assert seller_scaling_utility(1.0, seller, 0.5) == 0.25


def test_seller_scaling_dominates_geometric_bound(corpus_small):
    for instance in corpus_small[:30]:
        seller = instance.seller
        for v in instance.buyer.values:
            for lam in LAMBDA_GRID[::3]:
                d = decompose_fixed_v(v, seller, lam)
                assert seller_scaling_utility(v, seller, lam) >= d.u_S_geom - 1e-12


def test_seller_scaling_riemann_oracle():
    # independent midpoint-rule evaluation of the strategy's expected utility
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(1, 7))
        vals = np.unique(rng.uniform(0, 1, n))
        seller = DiscreteDistribution.from_atoms(
            zip(vals.tolist(), rng.dirichlet(np.ones(len(vals))).tolist())
        )
        v = float(rng.uniform(0, 1.2))
        lam = float(rng.uniform(0.1, 0.9))
        m = 200001
        qs = (np.arange(m) + 0.5) / m
        offers = seller.quantile_many(np.minimum(qs / lam, 1.0))
        costs = seller.quantile_many(qs)
        oracle = float(np.mean((offers - costs) * (offers <= v)))
        assert seller_scaling_utility(v, seller, lam) == pytest.approx(oracle, abs=5e-3)


# --------------------------------------------------------------------------
# key lemma


def test_key_lemma_examples():
    assert key_lemma_margin(1.0, U01, 0.3) == pytest.approx(0.04, abs=1e-15)
    # tight at the best-response quantile
    assert key_lemma_margin(1.0, U01, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert key_lemma_margin(1.0, COIN, 0.0) >= 0.0
    with pytest.raises(DomainError):
        key_lemma_margin(0.5, U01, 0.6)


def test_key_lemma_margins_random(corpus_small):
    rng = np.random.default_rng(17)
    for instance in corpus_small[:40]:
        seller = instance.seller
        for v in instance.buyer.values:
            qs = rng.uniform(0.0, seller.cdf(v), 200)
            margins = key_lemma_margins(v, seller, qs)
            assert margins.min() >= -1e-9


def test_key_lemma_margins_refuse_a_nan_quantile():
    for qs in ([math.nan, 0.3], [0.3, math.nan], [math.nan]):
        with pytest.raises(DomainError):
            key_lemma_margins(1.0, U01, np.array(qs))
    with pytest.raises(DomainError):
        key_lemma_margin(1.0, U01, math.nan)


# --------------------------------------------------------------------------
# identities on random instances


def test_identities_on_corpus(corpus_small):
    for instance in corpus_small:
        seller = instance.seller
        for lam in LAMBDA_GRID[::2]:
            for v in instance.buyer.values:
                d = decompose_fixed_v(v, seller, lam)
                scale = max(1.0, abs(d.fb_v))
                assert abs(d.area_S + d.area_B - d.fb_v) <= 1e-9 * scale
                assert abs(d.u_S_geom + d.area_A - (1.0 - lam) * d.fb_v) <= 1e-9 * scale
                assert d.area_S >= -1e-12 and d.area_B >= -1e-12 and d.area_A >= -1e-12
                assert d.u_B_dev >= lam * d.area_B - 1e-9
                assert d.u_S_geom >= (1.0 - lam) * d.area_S - 1e-9


def test_identities_on_pwl_instances():
    rng = np.random.default_rng(3)
    for dist in (U01, uniform(0.25, 0.75)):
        for lam in (0.1, 0.31784, 0.5, 0.77):
            for v in rng.uniform(-0.2, 1.4, 40):
                d = decompose_fixed_v(float(v), dist, lam)
                assert abs(d.area_S + d.area_B - d.fb_v) <= 1e-12
                assert abs(d.u_S_geom + d.area_A - (1.0 - lam) * d.fb_v) <= 1e-12


def test_discrete_integrals_match_direct_atom_sums(corpus_small):
    # independent per-atom accumulation of each region
    for instance in corpus_small[:25]:
        seller = instance.seller
        vals, probs, cum = seller.values, seller.probs, seller.cum
        for lam in (0.2, 0.5, 0.8):
            for v in instance.buyer.values:
                x_v = seller.cdf(v)
                if x_v == 0.0:
                    continue
                lx = lam * x_v
                fb_direct = sum(p * (v - c) for c, p in zip(vals, probs) if c <= v)
                a_direct = sum(
                    (v - c) * (min(hi, x_v) - max(lo, lx))
                    for c, lo, hi in zip(vals, (0.0,) + cum[:-1], cum)
                    if min(hi, x_v) > max(lo, lx)
                )
                d = decompose_fixed_v(v, seller, lam)
                assert d.fb_v == pytest.approx(fb_direct, rel=1e-12, abs=1e-12)
                assert d.area_A == pytest.approx(a_direct, rel=1e-12, abs=1e-12)


def test_limit_lambda_to_one(corpus_small):
    lam = 1.0 - 1e-6
    for instance in corpus_small[:20]:
        for v in instance.buyer.values:
            d = decompose_fixed_v(v, instance.seller, lam)
            # u_S_geom + area_A = (1 - lam) * fb_v and both are non-negative
            bound = (1.0 - lam) * max(1.0, d.fb_v) + 1e-12
            assert 0.0 <= d.area_A <= bound
            assert -1e-12 <= d.u_S_geom <= bound


# --------------------------------------------------------------------------
# aggregate reports


def test_aggregate_decomposition_identity():
    for instance in (UU, P1U):
        for lam in (0.31784, 0.5):
            agg = aggregate_decomposition(instance, lam)
            assert agg.area_S + agg.area_B == pytest.approx(agg.fb, abs=1e-12)
            assert agg.u_S_geom + agg.area_A == pytest.approx((1 - lam) * agg.fb, abs=1e-12)


def test_aggregate_decomposition_declares_no_breakpoints_for_a_discrete_buyer(monkeypatch):
    # expect sums a discrete buyer's atoms and ignores breakpoints, so none are
    # built, neither by the aggregate nor by the buyer-proposer side it reuses
    instance = random_discrete_instance(7)
    want = aggregate_decomposition(instance, 0.31784)

    def refuse(*args):
        raise AssertionError("breakpoints built for a discrete buyer")

    monkeypatch.setattr(geometry, "_decomposition_breakpoints", refuse)
    monkeypatch.setattr(geometry, "buyer_response_breakpoints", refuse)
    monkeypatch.setattr(mechanism, "buyer_response_breakpoints", refuse)
    assert aggregate_decomposition(instance, 0.31784) == want


def test_aggregate_decomposition_agrees_with_eq_and_verify():
    # the aggregate reuses eq's first-best and buyer-proposer integrals and
    # verify's cut of the buyer prior, so every number it shares with them is
    # bit-identical: seeded pwl buyers of 2-11 knots against pwl and discrete
    # sellers, plus uniform x uniform and a point buyer
    rng = np.random.default_rng(1818)
    instances = [UU, P1U] + [
        TradeInstance(
            buyer=random_pwl(rng, int(rng.integers(2, 12))),
            seller=random_pwl(rng, int(rng.integers(2, 12))) if i % 2 else random_discrete(rng),
        )
        for i in range(48)
    ]
    with budget(0.5):
        for instance in instances:
            for report in sweep_bounds(instance, (0.31784, 0.5)):
                agg = aggregate_decomposition(instance, report.lam)
                got = (agg.fb, agg.u_B_opt, agg.area_A, agg.u_S_geom)
                want = (report.fb, report.u_buyer, report.mean_area_A, report.mean_u_S_geom)
                assert [x.hex() for x in got] == [x.hex() for x in want]


def test_verify_bounds_uniform_uniform_optimal_lambda():
    lam = 0.31784
    report = verify_bounds(UU, lam)
    # closed forms: fb = 1/6, u_B = u_S = 1/12, E[A] = (1-lam)^2/6 via
    # integrating (1-lam)^2 v^2 / 2 over v
    assert report.fb == pytest.approx(1 / 6, abs=1e-12)
    assert report.u_buyer == pytest.approx(1 / 12, abs=1e-12)
    assert report.u_seller == pytest.approx(1 / 12, abs=1e-12)
    assert report.mean_area_A == pytest.approx((1 - lam) ** 2 / 6, abs=1e-12)
    log_term = math.log(1 / lam)
    expected_avg = 1 / 12 + log_term / 12 - (1 - lam) / 6
    assert report.slacks["avg"] == pytest.approx(expected_avg, abs=1e-12)
    assert report.slacks["avg"] == pytest.approx(0.0651572639, abs=1e-9)
    assert abs(report.slacks["identity"]) <= 1e-12
    assert report.slacks["avg_swap"] == pytest.approx(expected_avg, abs=1e-12)


def test_verify_bounds_point_uniform_identity_parts():
    report = verify_bounds(P1U, 0.5)
    assert report.mean_u_S_geom == pytest.approx(0.125, abs=1e-12)
    assert report.mean_area_A == pytest.approx(0.125, abs=1e-12)
    assert report.mean_u_S_geom + report.mean_area_A == pytest.approx(0.25, abs=1e-12)
    assert report.slacks["quarter"] == pytest.approx(7 / 16 - 1 / 8, abs=1e-12)


def test_verify_bounds_trivial_instance_all_zero():
    report = verify_bounds(TradeInstance(buyer=point(0.0), seller=point(1.0)), 0.5)
    assert report.fb == 0.0
    assert report.gft == 0.0
    assert all(abs(s) <= 1e-12 for s in report.slacks.values())


def test_verify_bounds_on_corpus(corpus_small):
    lams = (0.1, 0.31784, 0.5, 0.9)
    for instance in corpus_small[:25]:
        for lam in lams:
            report = verify_bounds(instance, lam)
            assert float.hex(report.ratio_bound) == float.hex(ratio_bound(lam))
            tol = 1e-9 * max(1.0, report.fb)
            assert abs(report.slacks["identity"]) <= tol
            for name, slack in report.slacks.items():
                if name != "identity":
                    assert slack >= -tol
        reports = [verify_bounds(instance, lam) for lam in lams]
        assert [report_hex(r) for r in sweep_bounds(instance, lams)] == [report_hex(r) for r in reports]
        assert guarantee_check(reports[0]) == guarantee_check(equilibrium(instance))


@pytest.mark.parametrize("field", ["u_buyer", "u_seller", "gft", "fb"])
def test_bound_report_refuses_a_nan_slack(field):
    # NaN compares false with everything, so a check written as
    # ``slack < -tol`` would let it through
    instance = random_discrete_instance(3)
    eq = dataclasses.replace(equilibrium(instance), **{field: math.nan})
    with pytest.raises(InvariantViolation):
        geometry._bound_report(instance, eq, [0.31784])


def test_verify_bounds_lambda_domain():
    with pytest.raises(DomainError):
        verify_bounds(UU, 1.0)


@pytest.mark.parametrize("seller", [U01, COIN], ids=["pwl", "discrete"])
def test_verify_bounds_integrates_cdf_only_at_probe_values(monkeypatch, seller):
    # a decomposition's price-space fields read the cdf's prefix table at
    # support_min, at b and at v: once per probe value, with b = c(lam * x(v));
    # the quadrature nodes of E[area_A] and E[u_S_geom] need only its
    # quantile-space fields
    buyer = PiecewiseLinearDistribution.from_knots([(0.0, 0.0), (0.3, 0.4), (0.6, 0.4), (1.0, 1.5)])
    lam = 0.31784
    calls = []
    original = type(seller)._integrate_cdf_to_many

    def spy(self, p):
        # the deviation prices come as a row per lambda
        calls.extend(np.ravel(p).tolist())
        return original(self, p)

    monkeypatch.setattr(type(seller), "_integrate_cdf_to_many", spy)
    verify_bounds(TradeInstance(buyer=buyer, seller=seller), lam)
    probes = geometry._probe_values(buyer)
    deviations = seller.quantile_many(lam * seller.cdf_many(probes))
    assert calls and len(calls) <= 2 * len(probes) + 1
    assert set(calls) <= set(probes.tolist()) | set(deviations.tolist()) | {seller.support_min}


def test_sweep_bounds_decomposes_a_bounded_block_at_a_time(monkeypatch):
    # a long lambda grid on a 4,096-atom buyer: no pass decomposes more than
    # _BLOCK_PAIRS probe value x lambda pairs, so memory does not grow with the
    # grid, and each report is the one-lambda report
    rng = np.random.default_rng(4096)

    def prior():
        values = np.unique(rng.uniform(0.0, 1.0, 4096))
        return DiscreteDistribution.from_atoms(zip(values.tolist(), rng.dirichlet(np.ones(len(values))).tolist()))

    buyer, seller = prior(), prior()
    instance = TradeInstance(buyer=buyer, seller=seller)
    lams = np.linspace(0.01, 0.99, 100).tolist()
    sizes = []
    original = geometry._decompose

    def spy(v, dist, lam):
        # the pairs of the broadcast lambda x value grid
        sizes.append(np.broadcast(v, lam).size)
        return original(v, dist, lam)

    monkeypatch.setattr(geometry, "_decompose", spy)
    reports = sweep_bounds(instance, lams)
    assert max(sizes) <= geometry._BLOCK_PAIRS
    assert sum(sizes) == len(lams) * len(buyer.values)
    block = geometry._BLOCK_PAIRS // len(buyer.values)
    for k in (0, block - 1, block, len(lams) - 1):
        assert report_hex(reports[k]) == report_hex(verify_bounds(instance, lams[k]))


def report_hex(report):
    """Every float of a :class:`BoundReport`, slacks included, as ``float.hex``.

    ``==`` on reports takes 0.0 for -0.0, which print differently.
    """
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report) if f.name != "slacks"}
    fields.update((f"slack {name}", slack) for name, slack in report.slacks.items())
    return {name: float.hex(value) for name, value in fields.items()}


def test_report_hex_tells_zero_from_negative_zero():
    report = verify_bounds(P1U, 0.5)
    assert "slack quarter" in report_hex(report)
    flipped = dataclasses.replace(report, slacks={**report.slacks, "identity": -report.slacks["identity"]})
    assert report.slacks["identity"] == 0.0 and flipped == report
    assert report_hex(flipped) != report_hex(report)


@pytest.mark.parametrize(
    "instance, patch, message",
    [
        # gft / fb = 0.3 is above the floor (1 - lambda) / (1 + ln(1/lambda))
        # at lambda = 0.05, 0.10 and 0.15, and first below it at 0.20
        (UU, lambda eq: {"gft": 0.3 * eq.fb}, "slack gft_floor = -0.0010965724449673378 below -1e-09"),
        (random_discrete_instance(1), lambda eq: {"gft": 0.3 * eq.fb},
         "slack gft_floor = -0.0010145940392908073 below -1e-09"),
        # area_log and avg both fail at lambda = 0.05; area_log comes first
        (UU, lambda eq: {"u_buyer": 0.0}, "slack area_log = -0.15041666666666664 below -1e-09"),
        (random_discrete_instance(1), lambda eq: {"u_buyer": 0.0},
         "slack area_log = -0.13714469548684832 below -1e-09"),
        # identity and others fail at lambda = 0.05; identity comes first
        (UU, lambda eq: {"fb": 2.0 * eq.fb}, "identity slack -0.15833333333333338 exceeds tolerance 1e-09"),
        (random_discrete_instance(1), lambda eq: {"fb": 2.0 * eq.fb},
         "identity slack -0.14649652830354432 exceeds tolerance 1e-09"),
    ],
    ids=["gft-pwl", "gft-discrete", "u_buyer-pwl", "u_buyer-discrete", "fb-pwl", "fb-discrete"],
)
def test_sweep_reports_the_first_failing_lambda_and_slack(monkeypatch, instance, patch, message):
    eq = equilibrium(instance)
    patched = dataclasses.replace(eq, **patch(eq))
    monkeypatch.setattr(geometry, "equilibrium", lambda _: patched)
    if "gft" in patch(eq):
        sweep_bounds(instance, LAMBDA_GRID[:3])  # the failure is at a later lambda only
    with pytest.raises(InvariantViolation) as err:
        sweep_bounds(instance, LAMBDA_GRID)
    assert str(err.value) == message
