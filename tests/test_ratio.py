"""Ratio curve, optimal scaling parameter, end-to-end guarantees."""

import dataclasses
import math
import time

import pytest

from tradegains import (
    DomainError,
    InvariantViolation,
    TradeInstance,
    equilibrium,
    guarantee_check,
    optimize_lambda,
    point,
    ratio_bound,
    uniform,
)

UU = TradeInstance(buyer=uniform(0, 1), seller=uniform(0, 1))


def test_ratio_bound_values():
    # reported optimum of the curve
    assert ratio_bound(0.31784) == pytest.approx(3.1462, abs=1e-4)
    assert ratio_bound(0.5) == pytest.approx(2.0 * (1.0 + math.log(2.0)), abs=1e-15)
    assert ratio_bound(1.0 / math.e) == pytest.approx(2.0 / (1.0 - math.exp(-1.0)), abs=1e-15)


@pytest.mark.parametrize("lam", [0.0, 1.0, -0.5, 2.0, math.nan])
def test_ratio_bound_domain(lam):
    with pytest.raises(DomainError):
        ratio_bound(lam)


def test_ratio_bound_divergence():
    assert ratio_bound(1e-6) > 10.0
    assert ratio_bound(1.0 - 1e-6) > 1e5


def test_ratio_bound_at_subnormal_lambda():
    # 1/lambda overflows below 2**-1024; ln(1/lambda) = -ln(lambda) does not
    for lam in (5e-324, 1e-310, 2.0**-1024):
        assert ratio_bound(lam) == (1.0 - math.log(lam)) / (1.0 - lam)
    assert math.isfinite(ratio_bound(5e-324))
    # every normal lambda keeps the 1/lambda form bit for bit
    for lam in (2.0**-1022, 1e-300, 1e-6, 0.31784, 0.5, 0.999):
        assert ratio_bound(lam) == (1.0 + math.log(1.0 / lam)) / (1.0 - lam)


def test_optimize_lambda_reproduces_reported_optimum():
    opt = optimize_lambda(1e-12)
    assert opt.lambda_star == pytest.approx(0.31784, abs=1e-4)
    assert opt.ratio_star == pytest.approx(3.1462, abs=1e-4)
    assert opt.stationarity_residual <= 1e-10
    # substituting the stationarity condition into the curve gives 1/lambda
    assert opt.ratio_star == pytest.approx(1.0 / opt.lambda_star, rel=1e-9)


def test_optimize_lambda_is_local_minimum():
    opt = optimize_lambda(1e-12)
    assert ratio_bound(opt.lambda_star - 0.01) > opt.ratio_star
    assert ratio_bound(opt.lambda_star + 0.01) > opt.ratio_star


def test_optimize_lambda_grid_global_minimum():
    opt = optimize_lambda(1e-12)
    for i in range(1, 1000):
        lam = 0.001 + (0.999 - 0.001) * (i - 1) / 998
        assert ratio_bound(lam) >= opt.ratio_star - 1e-12


def test_optimize_lambda_runtime_under_one_millisecond():
    optimize_lambda(1e-12)  # warm any lazy imports
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        optimize_lambda(1e-12)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, 1.0, 3.0, 1e308, math.inf])
def test_optimize_lambda_tolerance_domain(tol):
    # from 3 on, a tolerance used to return the initial guess 0.3 as the optimum
    with pytest.raises(DomainError, match=r"tol must lie in \(0, 1\)"):
        optimize_lambda(tol)


def test_optimize_lambda_converges_at_the_tightest_tolerances():
    assert optimize_lambda(1e-14).stationarity_residual <= 1e-10


def test_guarantee_check_examples():
    opt = optimize_lambda(1e-12)
    margins = guarantee_check(equilibrium(UU))
    assert margins.margin_315 == pytest.approx(1 / 8 - (1 / 6) / opt.ratio_star, abs=1e-12)
    assert margins.margin_315 == pytest.approx(0.0720, abs=1e-4)
    assert margins.margin_4 == pytest.approx(1 / 8 - 1 / 24, abs=1e-12)

    p1u = TradeInstance(buyer=point(1.0), seller=uniform(0, 1))
    margins = guarantee_check(equilibrium(p1u))
    assert margins.margin_4 == pytest.approx(7 / 16 - 1 / 8, abs=1e-12)

    trivial = TradeInstance(buyer=point(0.0), seller=point(1.0))
    margins = guarantee_check(equilibrium(trivial))
    assert margins.margin_315 == 0.0
    assert margins.margin_4 == 0.0


@pytest.mark.parametrize("field", ["gft", "fb"])
def test_guarantee_check_refuses_a_nan_margin(field):
    eq = dataclasses.replace(equilibrium(UU), **{field: math.nan})
    with pytest.raises(InvariantViolation, match=r"^slack margin_315 = nan below -1e-09$"):
        guarantee_check(eq)


def test_guarantee_check_on_corpus(corpus_small):
    for instance in corpus_small:
        margins = guarantee_check(equilibrium(instance))
        eq = equilibrium(instance)
        tol = 1e-9 * max(1.0, eq.fb)
        assert margins.margin_315 >= -tol
        assert margins.margin_4 >= -tol
