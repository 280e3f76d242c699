"""Distribution representations: conventions, exact integrals, validation."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradegains import (
    DiscreteDistribution,
    DomainError,
    PiecewiseLinearDistribution,
    ValidationError,
    distribution_from_json,
    expect,
    point,
    uniform,
    validate,
)

from conftest import NON_NUMBER_SUGAR, random_discrete

COIN = DiscreteDistribution.from_atoms([(0.0, 0.5), (1.0, 0.5)])
STEP_PWL = PiecewiseLinearDistribution.from_knots([(0.0, 0.0), (0.5, 0.5), (1.0, 0.5)])


# --------------------------------------------------------------------------
# hypothesis strategies: rational-ish grids keep float bookkeeping exact


@st.composite
def discrete_dists(draw):
    weighted = draw(st.dictionaries(st.integers(-64, 64), st.integers(1, 20), min_size=1, max_size=8))
    total = sum(weighted.values())
    return DiscreteDistribution.from_atoms(
        (k / 16.0, w / total) for k, w in sorted(weighted.items())
    )


@st.composite
def pwl_dists(draw):
    segments = draw(st.integers(1, 6))
    gaps = draw(st.lists(st.integers(1, 10), min_size=segments, max_size=segments))
    total = sum(gaps)
    qs = [0.0]
    for g in gaps:
        qs.append(qs[-1] + g)
    qs = [q / total for q in qs]
    steps = draw(st.lists(st.integers(0, 8), min_size=segments, max_size=segments))
    vals = [draw(st.integers(-50, 50)) / 8.0]
    for s in steps:
        vals.append(vals[-1] + s / 8.0)
    return PiecewiseLinearDistribution.from_knots(zip(qs, vals))


dists = st.one_of(discrete_dists(), pwl_dists())


# --------------------------------------------------------------------------
# quantile / cdf / sample examples


def test_quantile_examples():
    assert uniform(0, 1).quantile(0.25) == 0.25
    # left-continuous generalized inverse picks the lower atom at the boundary
    assert COIN.quantile(0.5) == 0.0
    assert COIN.quantile(0.5 + 1e-12) == 1.0
    # a flat segment encodes an atom at 0.5
    assert STEP_PWL.quantile(0.75) == 0.5
    # q = 0 gives the infimum of the support
    assert COIN.quantile(0.0) == 0.0
    assert uniform(2, 3).quantile(0.0) == 2.0


@pytest.mark.parametrize("bad_q", [-0.1, 1.1, math.nan])
def test_quantile_domain(bad_q):
    with pytest.raises(DomainError):
        uniform(0, 1).quantile(bad_q)


def test_cdf_examples():
    assert uniform(0, 1).cdf(0.3) == 0.3
    # weak inequality includes the atom at the evaluation point
    assert COIN.cdf(0.0) == 0.5
    assert COIN.cdf(-0.1) == 0.0
    assert COIN.cdf(1.0) == 1.0
    assert STEP_PWL.cdf(0.5) == 1.0
    assert STEP_PWL.cdf(0.25) == 0.25


def test_survival_is_left_continuous():
    assert COIN.survival(1.0) == 0.5
    assert COIN.survival(1.0 + 1e-12) == 0.0
    assert STEP_PWL.survival(0.5) == 0.5
    assert uniform(0, 1).survival(0.3) == 0.7


def test_sample_examples():
    assert point(1.0).sample(0.7) == 1.0
    assert uniform(0, 1).sample(0.42) == 0.42
    # 0.6 lies above the 0.5 cumulative boundary, so the upper atom is drawn
    assert COIN.sample(0.6) == 1.0
    with pytest.raises(DomainError):
        COIN.sample(1.0)
    with pytest.raises(DomainError):
        COIN.sample(-0.01)
    for bad in (1.0, -0.01, math.nan):
        u = np.array([0.5, bad])
        for sample in (COIN.sample_many, COIN.sample_indices_many, uniform(0, 1).sample_many):
            with pytest.raises(DomainError):
                sample(u)


# --------------------------------------------------------------------------
# exact integration


def test_integrate_quantile_examples():
    assert uniform(0, 1).integrate_quantile(0.0, 0.5) == 0.125
    assert COIN.integrate_quantile(0.0, 1.0) == 0.5
    # quantile is 0 on (0, 0.5] and 1 on (0.5, 1]
    assert COIN.integrate_quantile(0.25, 0.75) == 0.25


def test_integrate_quantile_domain():
    with pytest.raises(DomainError):
        uniform(0, 1).integrate_quantile(0.5, 0.25)
    with pytest.raises(DomainError):
        uniform(0, 1).integrate_quantile(-0.1, 0.5)
    with pytest.raises(DomainError):
        uniform(0, 1).integrate_quantile(0.0, 1.5)


@given(dists, st.integers(0, 1000), st.integers(0, 1000))
@settings(max_examples=150, deadline=None)
def test_integrate_quantile_matches_riemann_oracle(d, a, b):
    q0, q1 = sorted((a / 1000, b / 1000))
    exact = d.integrate_quantile(q0, q1)
    n = 4000
    # midpoint Riemann sum as an independent oracle; step quantiles make the
    # error O(range / n)
    qs = q0 + (np.arange(n) + 0.5) * (q1 - q0) / n
    approx = float(np.sum(d.quantile_many(qs))) * (q1 - q0) / n
    span = d.support_max - d.support_min
    assert abs(exact - approx) <= 2.0 * span * (q1 - q0) / n + 1e-12


@given(dists, st.integers(-80, 80), st.integers(-80, 80))
@settings(max_examples=150, deadline=None)
def test_integrate_cdf_matches_riemann_oracle(d, a, b):
    p0, p1 = sorted((a / 8, b / 8))
    exact = d.integrate_cdf(p0, p1)
    n = 4000
    ps = p0 + (np.arange(n) + 0.5) * (p1 - p0) / n
    approx = float(np.sum(d.cdf_many(ps))) * (p1 - p0) / n
    assert abs(exact - approx) <= 2.0 * (p1 - p0) / n + 1e-12


@given(dists)
@settings(max_examples=100, deadline=None)
def test_integrate_quantile_equals_mean(d):
    total = d.integrate_quantile(0.0, 1.0)
    assert total == pytest.approx(d.mean(), rel=1e-12, abs=1e-12)


@given(dists, st.integers(0, 16), st.integers(0, 16), st.integers(0, 16))
@settings(max_examples=150, deadline=None)
def test_integrate_quantile_additivity(d, a, b, c):
    q0, q1, q2 = sorted((a / 16, b / 16, c / 16))
    whole = d.integrate_quantile(q0, q2)
    split = d.integrate_quantile(q0, q1) + d.integrate_quantile(q1, q2)
    assert split == pytest.approx(whole, rel=1e-12, abs=1e-12)


# --------------------------------------------------------------------------
# Galois connection and monotonicity


@given(dists, st.integers(1, 10**6))
@settings(max_examples=200, deadline=None)
def test_galois_cdf_of_quantile(d, k):
    q = k / 10**6
    if isinstance(d, DiscreteDistribution):
        # exact with atoms; this is what the accept-at-indifference bounds use
        assert d.cdf(d.quantile(q)) >= q
    else:
        # linear interpolation round-trips can lose one ulp
        assert d.cdf(d.quantile(q)) >= q - 1e-12


@given(dists, st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_galois_quantile_of_cdf(d, k):
    p = d.quantile(k / 10**6)  # a support point
    if isinstance(d, DiscreteDistribution):
        assert d.quantile(d.cdf(p)) <= p
    else:
        assert d.quantile(d.cdf(p)) <= p + 1e-12 * max(1.0, abs(p))


@given(dists, st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_monotonicity(d, i, j):
    q0, q1 = sorted((i / 10**6, j / 10**6))
    assert d.quantile(q0) <= d.quantile(q1)
    p0, p1 = sorted((i / 10**5 - 5.0, j / 10**5 - 5.0))
    assert d.cdf(p0) <= d.cdf(p1)


# --------------------------------------------------------------------------
# negation


def test_negate_examples():
    assert point(1.0).negate() == point(-1.0)
    neg_u = uniform(0, 1).negate()
    assert neg_u.qs == (0.0, 1.0) and neg_u.vals == (-1.0, 0.0)
    assert COIN.negate() == DiscreteDistribution.from_atoms([(-1.0, 0.5), (0.0, 0.5)])


@given(discrete_dists())
@settings(max_examples=100, deadline=None)
def test_negate_involution_discrete(d):
    assert d.negate().negate() == d


@given(pwl_dists())
@settings(max_examples=100, deadline=None)
def test_negate_involution_pwl(d):
    dd = d.negate().negate()
    assert dd.vals == d.vals
    # complementing q twice can be off by one ulp
    assert np.allclose(dd.qs, d.qs, rtol=0.0, atol=5e-16)


@given(dists, st.integers(-80, 80))
@settings(max_examples=150, deadline=None)
def test_negate_flips_cdf_to_survival(d, k):
    p = k / 8
    assert d.negate().cdf(p) == pytest.approx(d.survival(-p), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_negate_cdf_is_survival_bit_for_bit(seed):
    # seeded masses whose running sums round: the seller side is computed on
    # negated priors and must see exactly the survival probabilities
    d = random_discrete(np.random.default_rng(seed), max_atoms=12)
    values = np.asarray(d.values)
    probes = np.concatenate(
        (values, 0.5 * (values[1:] + values[:-1]), [values[0] - 1.0, values[-1] + 1.0])
    )
    neg = d.negate()
    for p in probes.tolist():
        assert neg.cdf(-p) == d.survival(p)
    assert np.array_equal(neg.cdf_many(-probes), d.survival_many(probes))


@given(dists)
@settings(max_examples=100, deadline=None)
def test_negate_mean(d):
    assert d.negate().mean() == pytest.approx(-d.mean(), rel=1e-12, abs=1e-12)


# --------------------------------------------------------------------------
# inverse-transform sampling frequencies


@given(discrete_dists(), st.integers(100, 2000))
@settings(max_examples=50, deadline=None)
def test_equispaced_sampling_frequencies(d, n):
    u = (np.arange(n) + 0.5) / n
    samples = d.sample_many(u)
    assert np.array_equal(np.asarray(d.values)[d.sample_indices_many(u)], samples)
    for v, p in zip(d.values, d.probs):
        freq = float(np.sum(samples == v)) / n
        assert abs(freq - p) <= 1.0 / n


# --------------------------------------------------------------------------
# vectorized paths agree with the scalar ones bitwise


@given(dists)
@settings(max_examples=100, deadline=None)
def test_vectorized_matches_scalar(d):
    qs = np.linspace(0.0, 1.0, 41)
    assert all(d.quantile_many(qs)[i] == d.quantile(q) for i, q in enumerate(qs))
    ps = np.linspace(d.support_min - 0.5, d.support_max + 0.5, 41)
    assert all(d.cdf_many(ps)[i] == d.cdf(p) for i, p in enumerate(ps))
    assert all(d.survival_many(ps)[i] == d.survival(p) for i, p in enumerate(ps))


# --------------------------------------------------------------------------
# validation and serialization


def test_validate_normalizes_atom_order():
    report = validate({"kind": "discrete", "atoms": [[1.0, 0.5], [0.0, 0.5]]})
    assert report.ok
    assert report.distribution.values == (0.0, 1.0)


def test_validate_merges_duplicates_and_drops_zero_mass():
    d = DiscreteDistribution.from_atoms([(1.0, 0.25), (1.0, 0.75), (2.0, 0.0)])
    assert d.values == (1.0,)
    assert d.probs == (1.0,)


def test_validate_rejects_bad_probability_sum():
    report = validate({"kind": "discrete", "atoms": [{"value": 0, "prob": 0.4}, {"value": 1, "prob": 0.5}]})
    assert not report.ok
    assert any("sum != 1" in msg for msg in report.problems)


def test_validate_rejects_non_monotone_pwl():
    report = validate({"kind": "pwl", "knots": [{"q": 0, "value": 1}, {"q": 1, "value": 0}]})
    assert not report.ok
    assert any("not monotone" in msg for msg in report.problems)


def test_validate_rejects_bad_knot_grid():
    with pytest.raises(ValidationError):
        PiecewiseLinearDistribution.from_knots([(0.2, 0.0), (1.0, 1.0)])
    with pytest.raises(ValidationError):
        PiecewiseLinearDistribution.from_knots([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)])


def test_json_sugar_desugars():
    assert distribution_from_json({"kind": "point", "value": 2.0}) == point(2.0)
    u = distribution_from_json({"kind": "uniform", "lo": 0, "hi": 1})
    assert isinstance(u, PiecewiseLinearDistribution)
    assert u.qs == (0.0, 1.0) and u.vals == (0.0, 1.0)
    with pytest.raises(ValidationError):
        distribution_from_json({"kind": "gaussian", "mu": 0})


@pytest.mark.parametrize("obj", NON_NUMBER_SUGAR)
def test_json_sugar_rejects_non_numbers(obj):
    with pytest.raises(ValidationError):
        distribution_from_json(obj)


@given(dists)
@settings(max_examples=100, deadline=None)
def test_json_round_trip(d):
    assert distribution_from_json(json.loads(json.dumps(d.to_json()))) == d


# --------------------------------------------------------------------------
# expectations


def test_expect_discrete_is_exact_sum():
    got = expect(COIN, lambda v: 3.0 * v + 1.0)
    assert got == 0.5 * 1.0 + 0.5 * 4.0


def test_expect_pwl_polynomial_is_exact():
    u = uniform(0.0, 1.0)
    assert expect(u, lambda v: v * v) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert expect(u, lambda v: v**3 - v) == pytest.approx(0.25 - 0.5, abs=1e-15)


def test_expect_handles_declared_jump():
    u = uniform(0.0, 1.0)
    f = lambda v: 1.0 if v >= 0.3 else 0.0
    assert expect(u, f, breakpoints=[0.3]) == pytest.approx(0.7, abs=1e-14)


def test_expect_integrates_each_piece_once():
    # knots at q = 0, 0.25, 0.5, 1 with an atom at 0.5 (the flat run); the
    # breakpoint 1.0 adds the cut q = 2/3, the atom and the out-of-support
    # breakpoints add none: four pieces, one 7-point rule each
    d = PiecewiseLinearDistribution.from_knots([(0.0, 0.0), (0.25, 0.5), (0.5, 0.5), (1.0, 2.0)])
    calls = []
    expect(d, lambda v: calls.append(v) or v, breakpoints=[-1.0, 0.5, 1.0, 5.0])
    assert len(calls) == 4 * 7


def _record(v):
    # three fields with different kinks, jumps and magnitudes
    return (v * v - 0.3 * v, max(v - 0.45, 0.0), 1.0 if v >= 0.5 else math.exp(v))


@pytest.mark.parametrize(
    "dist, breakpoints",
    [
        (random_discrete(np.random.default_rng(7), max_atoms=12), [0.45, 0.5]),
        # atom at 0.5 (flat run); breakpoints inside the support and outside it
        (
            PiecewiseLinearDistribution.from_knots([(0.0, 0.0), (0.25, 0.5), (0.5, 0.5), (1.0, 2.0)]),
            [-1.0, 0.45, 0.5, 1.0, 5.0],
        ),
    ],
    ids=["discrete", "pwl"],
)
def test_expect_record_matches_separate_scalar_calls(dist, breakpoints):
    fields = expect(dist, _record, breakpoints)
    assert isinstance(fields, tuple) and len(fields) == 3
    for i, got in enumerate(fields):
        alone = expect(dist, lambda v: _record(v)[i], breakpoints)
        assert got.hex() == alone.hex()


def test_expect_record_runs_once_per_node():
    # the pieces of test_expect_integrates_each_piece_once
    d = PiecewiseLinearDistribution.from_knots([(0.0, 0.0), (0.25, 0.5), (0.5, 0.5), (1.0, 2.0)])
    calls = []
    expect(d, lambda v: calls.append(v) or _record(v), breakpoints=[-1.0, 0.5, 1.0, 5.0])
    assert len(calls) == 4 * 7
    calls.clear()
    expect(COIN, lambda v: calls.append(v) or _record(v))
    assert calls == list(COIN.values)
