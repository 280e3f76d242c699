"""Seeded pwl x pwl and pwl x discrete corpus: bounded work, complete breakpoints.

Every instance must finish ``equilibrium`` and ``verify_bounds`` within a
fixed wall-time budget and without an invariant violation. Because ``expect``
integrates each piece between declared breakpoints with one fixed rule, the
breakpoints must also be complete: splitting every piece at its midpoint must
not move the results.
"""

import time

import numpy as np
import pytest

from tradegains import (
    PiecewiseLinearDistribution,
    TradeInstance,
    equilibrium,
    expect,
    mechanism,
    verify_bounds,
)

from conftest import budget, random_discrete, random_pwl

#: Wall-time budget per instance, generous against the ~0.1 s they take.
BUDGET_S = 10
LAM = 0.31784


def _pwl_pwl(seed, knots):
    # seed 1 with 3 knots is the reproduction of the former pwl x pwl hang
    rng = np.random.default_rng(seed)
    buyer = random_pwl(rng, knots)
    return TradeInstance(buyer=buyer, seller=random_pwl(rng, knots))


def _pwl_discrete(seed, knots, pwl_buys):
    rng = np.random.default_rng([seed, knots])
    pwl, disc = random_pwl(rng, knots), random_discrete(rng, 8)
    if pwl_buys:
        return TradeInstance(buyer=pwl, seller=disc)
    return TradeInstance(buyer=disc, seller=pwl)


CORPUS = [
    pytest.param(_pwl_pwl(seed, k), id=f"pwl{k}-pwl{k}-seed{seed}")
    for k in (3, 4, 6, 8, 12)
    for seed in range(6)
] + [
    pytest.param(_pwl_discrete(seed, k, pwl_buys), id=f"{order}{k}-seed{seed}")
    for k in (3, 8, 16, 32)
    for seed in range(2)
    for pwl_buys, order in ((True, "pwl-disc"), (False, "disc-pwl"))
]


def _expect_split_at_midpoints(dist, fn, breakpoints=()):
    """``expect`` with every piece it would integrate split at its midpoint."""
    if isinstance(dist, PiecewiseLinearDistribution):
        cuts = set(dist.qs)
        for b in breakpoints:
            cuts.update((dist.cdf_left(b), dist.cdf(b)))
        ts = sorted(t for t in cuts if 0.0 <= t <= 1.0)
        mids = [dist.quantile(0.5 * (a + b)) for a, b in zip(ts, ts[1:]) if b > a]
        breakpoints = list(breakpoints) + mids
    return expect(dist, fn, breakpoints)


@pytest.mark.parametrize("instance", CORPUS)
def test_equilibrium_and_bounds_finish_within_budget(instance):
    with budget(BUDGET_S):
        eq = equilibrium(instance)
        report = verify_bounds(instance, LAM)
    assert report.fb == eq.fb
    assert 0.0 <= eq.gft <= eq.fb + 1e-12


@pytest.mark.parametrize("instance", CORPUS)
def test_declared_breakpoints_are_complete(instance, monkeypatch):
    with budget(BUDGET_S):
        eq = equilibrium(instance)
        monkeypatch.setattr(mechanism, "expect", _expect_split_at_midpoints)
        split = equilibrium(instance)
    for field in ("u_buyer", "u_seller", "gft_buyer_proposes", "gft_seller_proposes", "fb"):
        assert getattr(split, field) == pytest.approx(getattr(eq, field), rel=0, abs=1e-12), field


def test_budget_interrupts_a_stalled_body():
    start = time.monotonic()
    with pytest.raises(pytest.fail.Exception, match="budget"):
        with budget(0.05):
            time.sleep(5)
    assert time.monotonic() - start < 1.0
