"""Distribution representations: conventions, exact integrals, validation."""

import bisect
import collections
import functools
import json
import math
from collections.abc import Sequence
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradegains import (
    DiscreteDistribution,
    DomainError,
    PiecewiseLinearDistribution,
    TradeInstance,
    ValidationError,
    distribution_from_json,
    equilibrium,
    expect,
    point,
    uniform,
    validate,
)

from tradegains.distributions import _Guide

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


def test_cdf_refuses_a_nan_price():
    two = DiscreteDistribution.from_atoms([(0.1, 0.5), (0.6, 0.5)])
    for d in (two, uniform(0, 1)):
        for f in (d.cdf, d.cdf_left, d.survival):
            with pytest.raises(DomainError):
                f(math.nan)
        assert (d.cdf(-math.inf), d.cdf(math.inf)) == (0.0, 1.0)
        assert (d.cdf_left(-math.inf), d.cdf_left(math.inf)) == (0.0, 1.0)
        assert (d.survival(-math.inf), d.survival(math.inf)) == (1.0, 0.0)


def test_vectorized_prices_refuse_nan():
    # np.searchsorted sorts NaN above every value, so unchecked the discrete
    # prior read [1.0, 0.5] here and the pwl prior NaN
    two = DiscreteDistribution.from_atoms([(0.1, 0.5), (0.6, 0.5)])
    for d in (two, uniform(0, 1)):
        for f in (d.cdf_many, d.cdf_left_many, d.survival_many):
            with pytest.raises(DomainError):
                f(np.array([math.nan, 0.3]))
        assert d.cdf_many(np.array([-math.inf, math.inf])).tolist() == [0.0, 1.0]
        assert d.survival_many(np.array([-math.inf, math.inf])).tolist() == [1.0, 0.0]


def test_vectorized_quantile_refuses_q_outside_the_unit_interval():
    # unchecked, the discrete prior read a NaN or a q above 1 as its top atom and
    # one below 0 as its bottom atom, and the pwl prior extrapolated them
    two = DiscreteDistribution.from_atoms([(0.1, 0.5), (0.6, 0.5)])
    for d in (two, uniform(0, 1)):
        for bad in (math.nan, 1.5, -0.2, math.inf):
            with pytest.raises(DomainError):
                d.quantile(bad)
            with pytest.raises(DomainError):
                d.quantile_many(np.array([0.3, bad]))
        assert d.quantile_many(np.array([0.0, 1.0])).tolist() == [d.quantile(0.0), d.quantile(1.0)]
        assert d.quantile_many(np.empty(0)).size == 0


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


def test_integrate_cdf_domain():
    two = DiscreteDistribution.from_atoms([(0.1, 0.5), (0.6, 0.5)])
    for d in (two, uniform(0, 1)):
        for p0, p1 in ((math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan), (0.5, 0.25), (math.inf, -math.inf)):
            with pytest.raises(DomainError):
                d.integrate_cdf(p0, p1)


def test_integrate_cdf_infinite_bounds():
    inf = math.inf
    two = DiscreteDistribution.from_atoms([(0.1, 0.5), (0.6, 0.5)])
    assert two.integrate_cdf(-inf, 0.5) == 0.2
    assert uniform(0, 1).integrate_cdf(-inf, 0.5) == 0.125
    for d in (two, uniform(0, 1)):
        assert d.integrate_cdf(-inf, -inf) == 0.0
        assert d.integrate_cdf(inf, inf) == 0.0
        assert d.integrate_cdf(0.5, inf) == inf
        assert d.integrate_cdf(-inf, inf) == inf


def test_integrate_cdf_far_above_the_support_does_not_overflow():
    # a bound's distance to the support overflowed in the lookup, which returned
    # inf and, under the suite's filterwarnings = error, raised
    high = PiecewiseLinearDistribution.from_knots([(0.0, -1e308), (1.0, -1e307)])
    for d in (point(-1e308), high):
        assert d.integrate_cdf(0.0, 1.7e308) == 1.7e308
        assert d.integrate_cdf(-1.7e308, 1.7e308) == d.integrate_cdf(-1.7e308, 0.0) + 1.7e308
    assert point(1e308).integrate_cdf(-1.7e308, 0.0) == 0.0
    assert point(-1e308).integrate_cdf(-1.7e308, -1e308) == 0.0


def reference_integrate_cdf(d, p0, p1):
    """``E[(p1 - X)^+ - (p0 - X)^+]`` summed exactly over the atoms."""
    return math.fsum(p * (max(p1 - v, 0.0) - max(p0 - v, 0.0)) for v, p in zip(d.values, d.probs))


def seeded_discrete(atoms, offset=0.0):
    rng = np.random.default_rng([atoms, 13])
    values = np.unique(rng.uniform(0.0, 1.0, atoms)) + offset
    return DiscreteDistribution.from_atoms(zip(values.tolist(), rng.dirichlet(np.ones(len(values))).tolist()))


def seeded_pwl(knots, offset=0.0):
    """Seeded pwl prior whose value steps are, in about equal shares, flat, 1 ulp and uniform gaps."""
    rng = np.random.default_rng([knots, 29])
    qs = [0.0] + np.sort(rng.uniform(0.0, 1.0, knots - 2)).tolist() + [1.0]
    vals = [offset + float(rng.uniform(0.0, 1.0))]
    for kind, gap in zip(rng.integers(0, 3, knots - 1).tolist(), rng.uniform(0.0, 1.0, knots - 1).tolist()):
        vals.append((vals[-1], math.nextafter(vals[-1], math.inf), vals[-1] + gap / knots)[kind])
    return PiecewiseLinearDistribution.from_knots(zip(qs, vals))


def scaled_prior(d, k):
    """``d`` with every value multiplied by ``2**k``."""
    if isinstance(d, DiscreteDistribution):
        return DiscreteDistribution.from_atoms((math.ldexp(v, k), p) for v, p in zip(d.values, d.probs))
    return PiecewiseLinearDistribution.from_knots((q, math.ldexp(v, k)) for q, v in zip(d.qs, d.vals))


def cdf_bounds(d):
    """Every knot value and both its neighbouring floats, the midpoints, points outside the support, +-inf."""
    vs = d.knot_values()
    span = vs[-1] - vs[0]
    out = {-math.inf, math.inf, vs[0] - 0.5 * span - 0.25, vs[-1] + 0.5 * span + 0.25}
    for v in vs:
        out.update((v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)))
    out.update(0.5 * (a + b) for a, b in zip(vs, vs[1:]))
    return sorted(out)


def cdf_bound_pairs(d, rng, n=300):
    """Each bound above ``-inf`` and above ``support_min`` (where the geometry starts), plus ``n`` random ordered pairs."""
    bounds = cdf_bounds(d)
    pairs = [(lo, b) for lo in (-math.inf, d.support_min) for b in bounds if b >= lo]
    for i, j in rng.integers(0, len(bounds), (n, 2)).tolist():
        pairs.append((bounds[min(i, j)], bounds[max(i, j)]))
    return pairs


@pytest.mark.parametrize("offset", [0.0, 1000.0])
@pytest.mark.parametrize("atoms", [1, 2, 5, 37, 128, 300])
def test_integrate_cdf_matches_atom_sum_reference(atoms, offset):
    base = seeded_discrete(atoms, offset)
    rng = np.random.default_rng(atoms)
    for d in (base, base.negate()):
        span = d.support_max - d.support_min
        for p0, p1 in cdf_bound_pairs(d, rng):
            got = d.integrate_cdf(p0, p1)
            if p0 == p1:
                assert got == 0.0
                continue
            want = reference_integrate_cdf(d, p0, p1)
            if math.isinf(want):
                assert got == want
            else:
                assert abs(got - want) <= 1e-13 * max(1.0, span * (p1 - p0)), (p0, p1)


def quantile_bounds(d):
    """Every knot of the quantile function and both its neighbouring floats in [0, 1], and the midpoints."""
    ks = d.qs if isinstance(d, PiecewiseLinearDistribution) else (0.0,) + d.cum
    out = set()
    for q in ks:
        out.update((q, math.nextafter(q, -math.inf), math.nextafter(q, math.inf)))
    out.update(0.5 * (a + b) for a, b in zip(ks, ks[1:]))
    return sorted(q for q in out if 0.0 <= q <= 1.0)


def quantile_bound_pairs(d, rng, n=300):
    """Each bound above 0 (the form of every integral the library takes), plus ``n`` random ordered pairs."""
    bounds = quantile_bounds(d)
    pairs = [(0.0, b) for b in bounds]
    for i, j in rng.integers(0, len(bounds), (n, 2)).tolist():
        pairs.append((bounds[min(i, j)], bounds[max(i, j)]))
    return pairs


def exact_area(xs, ys):
    """``area(x)``: the integral from ``xs[0]`` to ``x`` of the polyline through ``(xs, ys)``, in Fractions.

    ``xs`` is non-decreasing and a repeated ``x`` is a jump; the polyline is
    0 below ``xs[0]`` and ``ys[-1]`` above ``xs[-1]``.
    """
    X, Y = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    trapezoids = [Fraction(0)]
    for k in range(1, len(X)):
        trapezoids.append(trapezoids[-1] + (X[k] - X[k - 1]) * (Y[k - 1] + Y[k]) / 2)

    def area(x):
        if x <= xs[0]:
            return Fraction(0)
        if x >= xs[-1]:
            return trapezoids[-1] + (Fraction(x) - X[-1]) * Y[-1]
        k = next(k for k in range(1, len(xs)) if xs[k] > x)  # xs[k - 1] <= x < xs[k]
        x = Fraction(x)
        y = Y[k - 1] + (x - X[k - 1]) * (Y[k] - Y[k - 1]) / (X[k] - X[k - 1])
        return trapezoids[k - 1] + (x - X[k - 1]) * (Y[k - 1] + y) / 2

    return area


@pytest.mark.parametrize("offset", [0.0, 1000.0])
@pytest.mark.parametrize("knots", [2, 3, 17, 64, 200])
def test_pwl_integrals_match_exact_trapezoid_sums(knots, offset):
    # rounding bound: one relative error of 2**-52 per trapezoid summed, with
    # room to spare, times the size of the running sums
    eps = 4 * knots * 2.0**-52
    base = seeded_pwl(knots, offset)
    rng = np.random.default_rng(knots)
    for d in (base, base.negate()):
        area = exact_area(d.qs, d.vals)
        scale = max(1.0, abs(d.support_min), abs(d.support_max))
        for q0, q1 in quantile_bound_pairs(d, rng):
            got = d.integrate_quantile(q0, q1)
            assert abs(Fraction(got) - (area(q1) - area(q0))) <= eps * scale, (q0, q1)
        area = exact_area(d.vals, d.qs)
        for p0, p1 in cdf_bound_pairs(d, rng):
            got = d.integrate_cdf(p0, p1)
            if p0 == p1 or p1 == math.inf:
                assert got == (0.0 if p0 == p1 else math.inf)
                continue
            want = area(p1) - (area(p0) if p0 > -math.inf else 0)
            assert abs(Fraction(got) - want) <= eps * max(1, area(p1)), (p0, p1)


@pytest.mark.parametrize("k", [1, -1, 300, -300, 900, -900])
def test_integrate_cdf_scales_by_powers_of_two_bit_for_bit(k):
    for base in [seeded_discrete(atoms) for atoms in (1, 5, 128)] + [seeded_pwl(knots) for knots in (2, 5, 128)]:
        scaled_base = scaled_prior(base, k)
        rng = np.random.default_rng(len(base.knot_values()))
        for d, scaled in ((base, scaled_base), (base.negate(), scaled_base.negate())):
            for p0, p1 in cdf_bound_pairs(d, rng, 100):
                got = scaled.integrate_cdf(math.ldexp(p0, k), math.ldexp(p1, k))
                assert got == math.ldexp(d.integrate_cdf(p0, p1), k), (p0, p1)


class CountingSequence(Sequence):
    """A read-only sequence that counts the elements read from it."""

    def __init__(self, items):
        self.items = tuple(items)
        self.reads = 0

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        out = self.items[i]
        self.reads += len(out) if isinstance(i, slice) else 1
        return out


def count_table_builds(monkeypatch, cls):
    """Count the builds of each of ``cls``'s two prefix tables."""
    builds = collections.Counter()
    for name in ("_quantile_prefix", "_cdf_prefix"):
        build = getattr(cls, name).func

        def counting_build(self, build=build, name=name):
            builds[name] += 1
            return build(self)

        table = functools.cached_property(counting_build)
        table.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, table)
    return builds


def test_integrate_cdf_reads_logarithmically_many_atoms(monkeypatch):
    """Both integrals on both priors read O(log K) entries of the prior's own
    sequences (``values`` / ``cum`` or ``qs`` / ``vals``), and each prefix
    table is built once per prior."""
    size = 4096
    limit = 4 * math.log2(size)
    rng = np.random.default_rng(size)
    values = ((np.arange(size) + rng.uniform(0.0, 1.0, size)) / size).tolist()
    # rounding the values down to 1/1024 makes flat runs of about four knots
    flat_runs = (np.floor(np.multiply(values, 1024)) / 1024).tolist()
    priors = (
        (DiscreteDistribution.from_atoms(zip(values, rng.dirichlet(np.ones(size)).tolist())), ("values", "cum")),
        (PiecewiseLinearDistribution.from_knots(zip(np.linspace(0.0, 1.0, size).tolist(), flat_runs)), ("qs", "vals")),
    )
    for d, fields in priors:
        builds = count_table_builds(monkeypatch, type(d))
        q_pairs = quantile_bound_pairs(d, rng, 200)[-200:] + [(0.0, 1.0), (0.0, 0.5)]
        p_pairs = cdf_bound_pairs(d, rng, 200)[-200:] + [(-math.inf, math.inf), (d.support_min, 0.5)]
        d.integrate_quantile(0.25, 0.75)  # builds the tables
        d.integrate_cdf(0.25, 0.75)
        assert builds == {"_quantile_prefix": 1, "_cdf_prefix": 1}
        counters = [CountingSequence(getattr(d, name)) for name in fields]
        for name, counter in zip(fields, counters):
            d.__dict__[name] = counter
        for integral, pairs in ((d.integrate_quantile, q_pairs), (d.integrate_cdf, p_pairs)):
            for a, b in pairs:
                for counter in counters:
                    counter.reads = 0
                integral(a, b)
                assert sum(counter.reads for counter in counters) <= limit, (type(d).__name__, integral.__name__, a, b)
        assert builds == {"_quantile_prefix": 1, "_cdf_prefix": 1}
        # one table per prior: the negation builds its own, once
        neg = (seeded_discrete(300) if isinstance(d, DiscreteDistribution) else seeded_pwl(300)).negate()
        for (q0, q1), (p0, p1) in zip(q_pairs, p_pairs):
            neg.integrate_quantile(q0, q1)
            neg.integrate_cdf(p0, p1)
        assert builds == {"_quantile_prefix": 2, "_cdf_prefix": 2}


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
# each table against the loop that first built it, bit for bit


def loop_cum(probs):
    out = []
    acc = 0.0
    for p in probs:
        acc += p
        out.append(acc)
    out[-1] = 1.0  # guard cumulative roundoff; probs sum to 1 within PROB_TOL
    return tuple(out)


def loop_quantile_prefix(values, cum):
    out = [0.0]
    total = prev = 0.0
    for v, c in zip(values, cum):
        if c > prev:
            total += v * (c - prev)
        out.append(total)
        prev = c
    return out


def loop_cdf_prefix(values, cum):
    out = [0.0]
    for i in range(1, len(values)):
        out.append(out[-1] + cum[i - 1] * (values[i] - values[i - 1]))
    return out


def loop_trapezoid_sums(xs, ys):
    out = [0.0]
    for k in range(1, len(xs)):
        out.append(out[-1] + (xs[k] - xs[k - 1]) * (ys[k - 1] + ys[k]) * 0.5)
    return out


def hexes(xs):
    return [float(x).hex() for x in xs]


TABLE_PRIORS = {
    "one-atom": DiscreteDistribution.from_atoms([(0.3, 1.0)]),
    "one-atom-at-minus-zero": DiscreteDistribution.from_atoms([(-0.0, 1.0)]),
    "dirichlet-4096": seeded_discrete(4096),
    "dirichlet-4095-negative": seeded_discrete(4095, -3.0),
    # a mass of 1e-300 adds nothing to a running sum of 0.3, and one after the
    # sum reaches 1 (kept when built directly): cum repeats a value
    "tiny-mass-inside": DiscreteDistribution.from_atoms([(0.1, 0.3), (0.2, 1e-300), (0.4, 0.7)]),
    "tiny-mass-past-one": DiscreteDistribution(values=(0.1, 0.5, 0.9), probs=(0.5, 0.5, 1e-300)),
    "negative-and-minus-zero": DiscreteDistribution.from_atoms([(-2.0, 0.25), (-0.0, 0.25), (-1e-300, 0.25), (1.5, 0.25)]),
    # the first term -1e-300 * 1e-300 underflows to -0.0, and the sums start from 0.0
    "underflowing-first-term": DiscreteDistribution(values=(-1e-300, 1.0), probs=(1e-300, 1.0)),
    # built directly, masses past 1 make cum fall, and a NaN mass makes it NaN: no rise, nothing added
    "cum-falls": DiscreteDistribution(values=(0.0, 1.0, 2.0), probs=(0.5, 0.7, 0.1)),
    "nan-mass": DiscreteDistribution(values=(0.0, 1.0, 2.0), probs=(0.5, math.nan, 0.5)),
}


@pytest.mark.parametrize("name", sorted(TABLE_PRIORS))
def test_discrete_tables_match_their_loops_bit_for_bit(name):
    d = TABLE_PRIORS[name]
    cum = loop_cum(d.probs)
    assert hexes(d.cum) == hexes(cum)
    assert hexes(d._quantile_prefix) == hexes(loop_quantile_prefix(d.values, cum))
    assert hexes(d._cdf_prefix) == hexes(loop_cdf_prefix(d.values, cum))
    # the negation, as it was built: values and masses reversed, cum from complements
    neg = d.negate()
    values = tuple(-v for v in reversed(d.values))
    probs = tuple(reversed(d.probs))
    neg_cum = tuple(1.0 - c for c in reversed(cum[:-1])) + (1.0,)
    assert (hexes(neg.values), hexes(neg.probs), hexes(neg.cum)) == (hexes(values), hexes(probs), hexes(neg_cum))
    assert hexes(neg._values_arr) == hexes(values) and hexes(neg._probs_arr) == hexes(probs)
    assert hexes(neg._cum_arr) == hexes(neg_cum) and hexes(neg._cum_padded) == hexes((0.0, *neg_cum))
    assert hexes(neg._quantile_prefix) == hexes(loop_quantile_prefix(values, neg_cum))
    assert hexes(neg._cdf_prefix) == hexes(loop_cdf_prefix(values, neg_cum))


PWL_TABLE_PRIORS = {
    "uniform": uniform(0.0, 1.0),
    "point-as-pwl": PiecewiseLinearDistribution.from_knots([(0.0, -0.0), (1.0, -0.0)]),
    "flat-runs": STEP_PWL,
    "minus-zero": PiecewiseLinearDistribution.from_knots([(0.0, -1.0), (0.5, -0.0), (0.75, 0.0), (1.0, 2.0)]),
    "random-4096": PiecewiseLinearDistribution.from_knots(
        zip(
            np.linspace(0.0, 1.0, 4096).tolist(),
            np.floor(np.sort(np.random.default_rng(4096).uniform(-1.0, 1.0, 4096)) * 1024).tolist(),
        )
    ),
}


@pytest.mark.parametrize("name", sorted(PWL_TABLE_PRIORS))
def test_pwl_tables_match_their_loops_bit_for_bit(name):
    d = PWL_TABLE_PRIORS[name]
    assert hexes(d._quantile_prefix) == hexes(loop_trapezoid_sums(d.qs, d.vals))
    assert hexes(d._cdf_prefix) == hexes(loop_trapezoid_sums(d.vals, d.qs))
    neg = d.negate()
    qs = tuple(1.0 - q for q in reversed(d.qs))
    vals = tuple(-v for v in reversed(d.vals))
    assert (hexes(neg.qs), hexes(neg.vals)) == (hexes(qs), hexes(vals))
    assert hexes(neg._quantile_prefix) == hexes(loop_trapezoid_sums(qs, vals))


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
# guide tables


def one_bucket_cum():
    """Cumulative masses of 512 atoms, the first of mass 1 - 511e-300: every entry is 1.0.

    Built without ``from_atoms``, which drops the atoms after the first.
    """
    d = DiscreteDistribution(values=tuple(map(float, range(512))), probs=(1.0,) + (1e-300,) * 511)
    assert d._cum_arr.tolist() == [1.0] * 512
    return d._cum_arr


GUIDE_TABLES = {
    "empty": np.empty(0),
    "one entry": np.array([0.25]),
    "leading -inf": np.array([-math.inf, -2.0, 0.0, 0.5, 0.5, 3.0]),
    "repeated": np.array([0.1, 0.1, 0.1, 0.2, 0.7, 0.7, 1.0, 1.0]),
    "512 atoms, one bucket": one_bucket_cum(),
    "ulp steps": np.array([math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 2.0]),
    "subnormal span": np.array([0.0, 5e-324, 1e-323]),
    "span overflows": np.array([-1.7e308, -1.0, 0.0, 1e-300, 1.0, 1.7e308]),
    "spread": np.sort(np.random.default_rng(3).standard_cauchy(300)),
}


@pytest.mark.parametrize("name", sorted(GUIDE_TABLES))
def test_guide_matches_searchsorted(name):
    table = GUIDE_TABLES[name]
    guide = _Guide(table)
    assert len(guide.steps) <= len(table).bit_length()
    finite = table[np.isfinite(table)]
    keys = np.concatenate([
        table, np.nextafter(table, -np.inf), np.nextafter(table, np.inf),
        [-math.inf, -1.7e308, -1.0, 0.0, -0.0, 1.0, 1.7e308],
        finite.min(initial=0.0) - np.array([1.0, 1e300]), finite.max(initial=0.0) + np.array([1.0, 1e300]),
    ])
    keys = keys[keys < math.inf]
    for side in ("left", "right"):
        assert np.array_equal(guide.search(keys, side), table.searchsorted(keys, side)), side


def test_guide_of_one_bucket_searches_in_log_steps():
    guide = _Guide(one_bucket_cum())
    assert (guide.top, len(guide.steps)) == (0, (512).bit_length())


@given(dists)
@settings(max_examples=100, deadline=None)
def test_sampling_through_the_guide_matches_the_quantile_bit_for_bit(d):
    table = d._cum_arr if d.kind == "discrete" else d._qs_arr
    u = np.concatenate([np.linspace(0.0, 1.0, 97), table, np.nextafter(table, -np.inf), np.nextafter(table, np.inf)])
    u = u[(u >= 0.0) & (u < 1.0)]
    assert [x.hex() for x in d.sample_many(u).tolist()] == [x.hex() for x in d.quantile_many(u).tolist()]
    if d.kind == "discrete":
        want = np.minimum(d._cum_arr.searchsorted(u, "left"), len(d.values) - 1)
        assert np.array_equal(d.sample_indices_many(u), want)


# --------------------------------------------------------------------------
# vectorized paths agree with the scalar ones bitwise


def scalar_quantile(d, q):
    """``quantile(q)`` by a bisect over the prior's own tuples, the reference."""
    if d.kind == "pwl":
        qs, vals = d.qs, d.vals
        i = bisect.bisect_right(qs, q)
        if i >= len(qs):
            return vals[-1]
        q0, q1 = qs[i - 1], qs[i]
        y0, y1 = vals[i - 1], vals[i]
        return y0 + (q - q0) * (y1 - y0) / (q1 - q0)
    i = bisect.bisect_left(d.cum, q)
    return d.values[min(i, len(d.values) - 1)]


def scalar_cdf_left(d, p):
    """``cdf_left(p)`` by a bisect over the prior's own tuples, the reference."""
    if d.kind == "pwl":
        vals, qs = d.vals, d.qs
        if p <= vals[0]:
            return 0.0
        if p > vals[-1]:
            return 1.0
        j = bisect.bisect_left(vals, p)
        if vals[j] == p:
            # first knot at p: everything strictly below q = qs[j] is < p
            return qs[j]
        y0, y1 = vals[j - 1], vals[j]
        return qs[j - 1] + (p - y0) * (qs[j] - qs[j - 1]) / (y1 - y0)
    i = bisect.bisect_left(d.values, p)
    return d.cum[i - 1] if i > 0 else 0.0


#: Priors with flat runs, 1-ulp steps, masses lost to rounding and one atom,
#: on top of the hypothesis ones.
POINT_LOOKUP_PRIORS = {
    # the flat run's left limit is its first knot's q, which the interpolation
    # from the segment below misses by rounding
    "flat run": PiecewiseLinearDistribution.from_knots(zip([0.0, 0.2, 0.45, 0.7, 1.0], [0.0, 0.1, 0.1, 0.1, 1.0])),
    "flat ends": PiecewiseLinearDistribution.from_knots(zip([0.0, 0.25, 0.5, 0.75, 1.0], [0.5, 0.5, 0.75, 1.0, 1.0])),
    "all flat": PiecewiseLinearDistribution.from_knots([(0.0, 0.3), (0.4, 0.3), (1.0, 0.3)]),
    "seeded pwl": seeded_pwl(64),
    "seeded pwl, offset": seeded_pwl(33, offset=1e6),
    "seeded discrete": seeded_discrete(64),
    "one atom": point(-2.5),
    # cum reaches 1.0 at the second atom, so the third has no mass in the cdf;
    # built without from_atoms, which drops such atoms
    "mass lost to rounding": DiscreteDistribution(values=(0.0, 1.0, 2.0), probs=(0.5, 0.5, 1e-13)),
    "tiny masses": DiscreteDistribution(values=tuple(map(float, range(8))), probs=(1.0,) + (1e-300,) * 7),
}


def check_point_lookups(d):
    """The scalar method and the ``_many`` method of each point lookup against its reference, bit for bit.

    The references are ``scalar_quantile``, ``scalar_cdf_left`` and the
    scalar ``cdf``, which keeps a bisect of its own; ``survival`` is one
    minus the left limit. The probes are a spread, every ``cum`` / ``qs``
    entry and knot value with both its neighbouring floats, and +-inf.
    """
    table = d._cum_arr if d.kind == "discrete" else d._qs_arr
    qs = np.concatenate([np.linspace(0.0, 1.0, 41), table, np.nextafter(table, -np.inf), np.nextafter(table, np.inf)])
    qs = qs[(qs >= 0.0) & (qs <= 1.0)]
    knots = np.asarray(d.knot_values())
    ps = np.concatenate([
        np.linspace(d.support_min - 0.5, d.support_max + 0.5, 41),
        knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf), [-math.inf, math.inf],
    ])

    def hexes(xs):
        return [float(x).hex() for x in xs]

    lookups = (
        ("quantile", qs, lambda q: scalar_quantile(d, q)),
        ("cdf", ps, d.cdf),
        ("cdf_left", ps, lambda p: scalar_cdf_left(d, p)),
        ("survival", ps, lambda p: 1.0 - scalar_cdf_left(d, p)),
    )
    for name, xs, reference in lookups:
        want = hexes(reference(x) for x in xs.tolist())
        assert hexes(getattr(d, name)(x) for x in xs.tolist()) == want, name
        assert hexes(getattr(d, f"{name}_many")(xs).tolist()) == want, f"{name}_many"


@given(dists)
@settings(max_examples=100, deadline=None)
def test_vectorized_matches_scalar(d):
    check_point_lookups(d)


@pytest.mark.parametrize("d", POINT_LOOKUP_PRIORS.values(), ids=POINT_LOOKUP_PRIORS.keys())
def test_point_lookups_match_the_references_on_edge_priors(d):
    check_point_lookups(d)


def scalar_integrate_quantile_to(d, q):
    """``integrate_quantile(0, q)`` by a scalar lookup in the prior's table, the reference."""
    prefix = d._quantile_prefix.tolist()
    if d.kind == "pwl":
        return scalar_polyline_area(d.qs, d.vals, prefix, q)
    i = bisect.bisect_left(d.cum, q)
    prev = d.cum[i - 1] if i > 0 else 0.0
    return prefix[i] + d.values[i] * (q - prev)


def scalar_integrate_cdf_to(d, p):
    """``integrate_cdf(support_min, p)`` by a scalar lookup in the prior's table, the reference."""
    prefix = d._cdf_prefix.tolist()
    if d.kind == "pwl":
        return scalar_polyline_area(d.vals, d.qs, prefix, p)
    i = bisect.bisect_right(d.values, p)
    if i == 0:
        return 0.0
    return prefix[i - 1] + d.cum[i - 1] * (p - d.values[i - 1])


def scalar_polyline_area(xs, ys, sums, x):
    """Area under the polyline through ``(xs, ys)`` from ``xs[0]`` to ``x``: 0 below, ``ys[-1]`` above."""
    i = bisect.bisect_right(xs, x)
    if i == 0:
        return 0.0
    if i == len(xs):
        return sums[-1] + (x - xs[-1]) * ys[-1]
    x0, y0 = xs[i - 1], ys[i - 1]
    y = y0 + (x - x0) * (ys[i] - y0) / (xs[i] - x0)
    return sums[i - 1] + (x - x0) * (y0 + y) * 0.5


@given(dists)
@settings(max_examples=100, deadline=None)
def test_array_prefix_lookups_match_scalar_bit_for_bit(d):
    # knots, their neighbouring floats and a spread, inside and outside the
    # support, and far outside it: the spread scaled by 2**900 and 2**-900, and +-inf
    qs = np.unique(np.concatenate([np.linspace(0.0, 1.0, 41), d._cum_arr if d.kind == "discrete" else d._qs_arr]))
    knots = np.asarray(d.knot_values())
    spread = np.linspace(d.support_min - 0.5, d.support_max + 0.5, 41)
    scaled = np.concatenate([spread * 2.0**900, spread * 2.0**-900])
    ps = np.concatenate([
        spread, knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        scaled[(scaled < d.support_min) | (scaled > d.support_max)], [-math.inf, math.inf],
    ])
    got = d._integrate_quantile_to_many(qs).tolist()
    assert [x.hex() for x in got] == [scalar_integrate_quantile_to(d, q).hex() for q in qs.tolist()]
    got = d._integrate_cdf_to_many(ps).tolist()
    assert [x.hex() for x in got] == [scalar_integrate_cdf_to(d, p).hex() for p in ps.tolist()]


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


def test_validate_drops_atoms_past_a_cumulative_mass_of_one():
    # the running sum reaches 1 at the atom 1, and cum gives the atom 2 no
    # mass; probs and expect must not give it any either
    d = DiscreteDistribution.from_atoms([(0.0, 0.5), (1.0, 0.5), (2.0, 1e-13)])
    assert (d.values, d.probs, d.support_max, d.mean()) == ((0.0, 1.0), (0.5, 0.5), 1.0, 0.5)
    eq = equilibrium(TradeInstance(buyer=d, seller=point(0.0)))
    assert (eq.u_buyer, eq.u_seller, eq.fb) == (0.5, 0.5, 0.5)


def test_validate_rejects_bad_probability_sum():
    report = validate({"kind": "discrete", "atoms": [{"value": 0, "prob": 0.4}, {"value": 1, "prob": 0.5}]})
    assert not report.ok
    assert any("sum != 1" in msg for msg in report.problems)


def test_validate_rejects_non_monotone_pwl():
    report = validate({"kind": "pwl", "knots": [{"q": 0, "value": 1}, {"q": 1, "value": 0}]})
    assert not report.ok
    assert any("not monotone" in msg for msg in report.problems)


def test_validate_refuses_a_segment_whose_slope_overflows():
    # an overflowing span is reported alone: see test_a_prior_whose_value_span_overflows_is_refused
    report = validate({"kind": "pwl", "knots": [[0.0, 0.0], [2.0**-53, 1e300], [1.0, 1e300]]})
    assert report.problems == ("knot 1: segment too steep, its slope 1e+300 / 1.1102230246251565e-16 overflows a float",)


def test_validate_normalizes_a_hand_built_discrete_prior():
    # built without from_atoms: unsorted, with the value 1.0 twice
    report = validate(DiscreteDistribution(values=(1.0, 0.0, 1.0, 2.0), probs=(0.25, 0.5, 0.125, 0.125)))
    assert report.problems == ()
    assert report.distribution == DiscreteDistribution(values=(0.0, 1.0, 2.0), probs=(0.5, 0.375, 0.125))


def test_validate_reports_every_problem_of_a_hand_built_pwl_prior():
    report = validate(PiecewiseLinearDistribution(qs=(0.0, 0.5, 0.5, 0.9), vals=(1.0, 0.0, 2.0, 3.0)))
    assert report.distribution is None
    assert report.problems == (
        "knot grid must run from 0 to 1, got [0.0, 0.9]",
        "knot 1: quantile not monotone (0.0 < 1.0)",
        "knot 2: q=0.5 not strictly above q=0.5",
    )


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


@pytest.mark.parametrize(
    "obj, problem",
    [
        ([], "expected a JSON object, got list"),
        ({"kind": "beta"}, "unknown distribution kind 'beta'"),
        ({"kind": ["discrete"], "atoms": [[0.0, 1.0]]}, "unknown distribution kind ['discrete']"),
        ({"kind": "discrete"}, "discrete distribution needs an 'atoms' list"),
        ({"kind": "discrete", "atoms": {"value": 0.0, "prob": 1.0}}, "discrete distribution needs an 'atoms' list"),
        ({"kind": "pwl"}, "pwl distribution needs a 'knots' list"),
        ({"kind": "pwl", "knots": "[[0, 0], [1, 1]]"}, "pwl distribution needs a 'knots' list"),
        ({"kind": "uniform", "lo": 0.0}, "uniform distribution needs 'lo' and 'hi'"),
        ({"kind": "point"}, "point distribution needs 'value'"),
    ],
    ids=[
        "not-an-object", "unknown-kind", "unhashable-kind", "no-atoms", "atoms-not-a-list", "no-knots",
        "knots-a-string", "uniform-without-hi", "point-without-value",
    ],
)
def test_the_loader_words_each_structural_refusal(obj, problem):
    with pytest.raises(ValidationError) as err:
        distribution_from_json(obj)
    assert err.value.problems == (problem,)


def test_to_json_writes_each_prior_in_its_json_form():
    # compared as text, so that the order of the keys counts too
    atoms = DiscreteDistribution.from_atoms([(0.25, 0.5), (1.0, 0.5)])
    knots = PiecewiseLinearDistribution.from_knots([(0.0, -1.0), (0.5, 0.0), (1.0, 0.0)])
    assert json.dumps(atoms.to_json()) == json.dumps(
        {"kind": "discrete", "atoms": [{"value": 0.25, "prob": 0.5}, {"value": 1.0, "prob": 0.5}]}
    )
    assert json.dumps(knots.to_json()) == json.dumps(
        {
            "kind": "pwl",
            "knots": [{"q": 0.0, "value": -1.0}, {"q": 0.5, "value": 0.0}, {"q": 1.0, "value": 0.0}],
        }
    )


@pytest.mark.parametrize(
    "obj, problems",
    [
        # a string is indexed character by character, a bool and a numeric string convert
        ({"kind": "discrete", "atoms": ["01"]}, ["atom 0: expected a (value, prob) pair, got '01'"]),
        (
            {"kind": "pwl", "knots": ["00", "11"]},
            ["knot 0: expected a (q, value) pair, got '00'", "knot 1: expected a (q, value) pair, got '11'"],
        ),
        ({"kind": "discrete", "atoms": [[0.5, 1.0, 7]]}, ["atom 0: expected a (value, prob) pair, got [0.5, 1.0, 7]"]),
        ({"kind": "discrete", "atoms": [[True, 1.0]]}, ["atom 0: expected a (value, prob) pair, got [True, 1.0]"]),
        ({"kind": "discrete", "atoms": [[0.5, True]]}, ["atom 0: expected a (value, prob) pair, got [0.5, True]"]),
        ({"kind": "discrete", "atoms": [["0.5", 1.0]]}, ["atom 0: expected a (value, prob) pair, got ['0.5', 1.0]"]),
        (
            {"kind": "discrete", "atoms": [{"value": "0.5", "prob": 1}]},
            ["atom 0: expected a (value, prob) pair, got ('0.5', 1)"],
        ),
        (
            {"kind": "pwl", "knots": [[0, 0], {"q": 1, "value": "1"}]},
            ["knot 1: expected a (q, value) pair, got (1, '1')"],
        ),
        ({"kind": "uniform", "lo": "0", "hi": 1}, ["uniform lo must be a number, got '0'"]),
        ({"kind": "uniform", "lo": 0, "hi": False}, ["uniform hi must be a number, got False"]),
        ({"kind": "point", "value": True}, ["point value must be a number, got True"]),
        ({"kind": "point", "value": "2"}, ["point value must be a number, got '2'"]),
        # too large for a float: refused rather than an OverflowError
        ({"kind": "discrete", "atoms": [[10**400, 1.0]]}, [f"atom 0: expected a (value, prob) pair, got {[10**400, 1.0]!r}"]),
        ({"kind": "point", "value": 10**400}, [f"point value must be a number, got {10**400!r}"]),
    ],
    ids=[
        "atom-string", "knot-strings", "atom-triple", "atom-bool-value", "atom-bool-prob", "atom-numeric-string",
        "atom-object-string", "knot-object-string", "uniform-string", "uniform-bool", "point-bool", "point-string",
        "atom-huge-int", "point-huge-int",
    ],
)
def test_json_entries_must_be_real_numbers(obj, problems):
    with pytest.raises(ValidationError) as err:
        distribution_from_json(obj)
    assert list(err.value.problems) == problems
    # a JSON file carries the same entries
    with pytest.raises(ValidationError) as err:
        distribution_from_json(json.loads(json.dumps(obj)))
    assert list(err.value.problems) == problems


def test_atoms_and_knots_refuse_bytes():
    # the items of bytes are ints, so b"01" would read as the pair (48, 49)
    with pytest.raises(ValidationError, match=r"expected a \(value, prob\) pair, got b'01'"):
        DiscreteDistribution.from_atoms([b"01"])
    with pytest.raises(ValidationError, match=r"expected a \(q, value\) pair, got bytearray"):
        PiecewiseLinearDistribution.from_knots([bytearray(b"00"), (1.0, 1.0)])


def test_atoms_and_knots_take_python_and_numpy_numbers():
    want = DiscreteDistribution.from_atoms([(0.0, 0.5), (1.0, 0.5)])
    for atoms in (
        [(0, Fraction(1, 2)), (1, 0.5)],
        [(np.float64(0.0), np.float32(0.5)), (np.int64(1), Fraction(1, 2))],
        np.asarray([[0.0, 0.5], [1.0, 0.5]]),
        [np.asarray([0.0, 0.5]), [1.0, 0.5]],
    ):
        assert DiscreteDistribution.from_atoms(atoms) == want
    knots = [(np.int8(0), Fraction(0)), (np.float16(1.0), 2)]
    assert PiecewiseLinearDistribution.from_knots(knots) == uniform(0.0, 2.0)
    assert uniform(np.float64(0.0), Fraction(2)) == uniform(0, 2) == uniform(0.0, 2.0)
    assert point(np.int64(3)) == point(3) == point(3.0)


OVERFLOWING_SPAN = "the value span -1e+308 .. 1e+308 of the prior overflows a float"


@pytest.mark.parametrize(
    "build",
    [
        lambda: DiscreteDistribution.from_atoms([(-1e308, 0.5), (1e308, 0.5)]),
        lambda: PiecewiseLinearDistribution.from_knots([(0.0, -1e308), (0.5, 0.0), (1.0, 1e308)]),
        lambda: uniform(-1e308, 1e308),
        lambda: distribution_from_json({"kind": "discrete", "atoms": [[1e308, 0.25], [-1e308, 0.75]]}),
        lambda: distribution_from_json({"kind": "uniform", "lo": -1e308, "hi": 1e308}),
    ],
    ids=["from_atoms", "from_knots", "uniform", "json-atoms", "json-uniform"],
)
def test_a_prior_whose_value_span_overflows_is_refused(build):
    # its cdf, quantile and integrals would divide or subtract across the span
    with pytest.raises(ValidationError) as err:
        build()
    assert err.value.problems == (OVERFLOWING_SPAN,)


def test_a_prior_spanning_most_of_the_float_range_is_kept():
    top = 1.7e308
    d = uniform(-top / 2, top / 2)
    assert d.cdf(0.0) == 0.5 and d.quantile(0.5) == 0.0
    coin = DiscreteDistribution.from_atoms([(-top / 2, 0.5), (top / 2, 0.5)])
    assert coin.integrate_cdf(-top / 2, top / 2) == top / 2


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
    f = lambda v: np.where(v >= 0.3, 1.0, 0.0)
    assert expect(u, f, breakpoints=[0.3]) == pytest.approx(0.7, abs=1e-14)


def test_expect_integrates_each_piece_once():
    # knots at q = 0, 0.25, 0.5, 1 with an atom at 0.5 (the flat run); the
    # breakpoint 1.0 adds the cut q = 2/3, the atom and the out-of-support
    # breakpoints add none: four pieces, one 7-point rule each, in one call
    d = PiecewiseLinearDistribution.from_knots([(0.0, 0.0), (0.25, 0.5), (0.5, 0.5), (1.0, 2.0)])
    calls = []
    expect(d, lambda v: calls.append(v) or v, breakpoints=[-1.0, 0.5, 1.0, 5.0])
    assert [v.shape for v in calls] == [(4 * 7,)]


def _record(v):
    # three fields with different kinks, jumps and magnitudes
    return (v * v - 0.3 * v, np.maximum(v - 0.45, 0.0), np.where(v >= 0.5, 1.0, np.exp(v)))


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
    assert [v.shape for v in calls] == [(4 * 7,)]
    calls.clear()
    expect(COIN, lambda v: calls.append(v) or _record(v))
    assert [v.tolist() for v in calls] == [list(COIN.values)]


def test_cached_arrays_refuse_in_place_writes():
    # a discrete prior hands expect's integrand its own cached atom values, so
    # an integrand that works in place must fail, not rewrite the frozen prior
    d = DiscreteDistribution.from_atoms([(-1.0, 0.25), (0.5, 0.25), (2.0, 0.5)])
    before = expect(d, lambda v: np.maximum(v, 0.0))
    with pytest.raises(ValueError, match="read-only"):
        expect(d, lambda v: np.maximum(v, 0.0, out=v))
    with pytest.raises(ValueError, match="read-only"):
        expect(d, lambda v: v.__isub__(1.0))
    assert expect(d, lambda v: np.maximum(v, 0.0)) == before
    assert d.cdf_many(np.asarray([-1.0, 0.5, 2.0])).tolist() == [0.25, 0.5, 1.0]
    pwl = PiecewiseLinearDistribution.from_knots([(0.0, 0.0), (0.25, 0.5), (0.5, 0.5), (1.0, 2.0)])
    cached = [
        d._values_arr, d._probs_arr, d._cum_arr, d._cum_padded, d._quantile_prefix, d._cdf_prefix,
        pwl._qs_arr, pwl._vals_arr, *pwl._steps, pwl._quantile_prefix, pwl._cdf_prefix,
        *d.buyer_envelope.columns, *pwl.buyer_envelope.columns,
    ]
    assert not any(a.flags.writeable for a in cached)
