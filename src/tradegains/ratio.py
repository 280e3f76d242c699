"""Approximation-ratio curve, its optimal scaling parameter, and guarantees.

Averaging the two proposer-side bounds shows the mechanism retains at
least a ``(1 - lambda) / (1 + ln(1/lambda))`` fraction of the first best
for every ``lambda`` in (0, 1). The best constant solves the stationarity
condition ``2 - 1/lambda - ln(lambda) = 0``, at which point the ratio
equals ``1 / lambda``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, InvariantViolation
from .mechanism import equilibrium  # noqa: F401  # unused, kept: traced benchmark runs wrap it

#: Tolerance for the guarantee margins, relative to max(1, fb).
MARGIN_TOL = 1e-9


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not 0.0 < lam < 1.0 or math.isnan(lam):
        raise DomainError(f"lambda must lie in (0, 1), got {lam!r}")
    return lam


def _log_inverse(lam: float) -> float:
    """``ln(1/lambda)``, finite also for a subnormal ``lambda``, where ``1/lambda`` overflows."""
    inverse = 1.0 / lam
    return math.log(inverse) if math.isfinite(inverse) else -math.log(lam)


def ratio_bound(lam: float) -> float:
    """Proven worst-case ratio ``(1 + ln(1/lambda)) / (1 - lambda)``.

    Diverges at both endpoints, so the domain is the open interval (0, 1).
    """
    lam = _check_lambda(lam)
    return _ratio_from_log(lam, _log_inverse(lam))


def _ratio_from_log(lam: float, log_term: float) -> float:
    """:func:`ratio_bound` at a checked ``lambda`` whose ``ln(1/lambda)`` is ``log_term``."""
    return (1.0 + log_term) / (1.0 - lam)


@dataclass(frozen=True)
class LambdaOptimum:
    """Optimal scaling parameter and the ratio it certifies."""

    lambda_star: float
    ratio_star: float
    stationarity_residual: float

    def to_json(self) -> dict:
        return {
            "lambda_star": self.lambda_star,
            "ratio_star": self.ratio_star,
            "stationarity_residual": self.stationarity_residual,
        }


def optimize_lambda(tol: float = 1e-12) -> LambdaOptimum:
    """Minimize :func:`ratio_bound` by solving its stationarity condition.

    ``g(lambda) = 2 - 1/lambda - ln(lambda)`` is strictly increasing on
    (0, 1), so a safeguarded Newton iteration inside a sign-changing
    bracket converges quadratically to the unique root. ``tol``, in (0, 1),
    is the relative tolerance on ``lambda_star``.
    """
    tol = float(tol)
    # a relative tolerance of 1 or more certifies no digit of lambda_star;
    # from 3 on the first bracket test passes and the initial guess is returned
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tol must lie in (0, 1), got {tol!r}")

    def g(x: float) -> float:
        return 2.0 - 1.0 / x - math.log(x)

    def g_prime(x: float) -> float:
        return 1.0 / (x * x) - 1.0 / x

    lo, hi = 0.05, 0.95
    x = 0.3
    for _ in range(200):
        gx = g(x)
        if gx < 0.0:
            lo = x
        else:
            hi = x
        if hi - lo <= tol * x or gx == 0.0:
            break
        step = gx / g_prime(x)
        nxt = x - step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        x = nxt
    else:
        raise ArithmeticError("lambda optimization did not converge")

    residual = abs(g(x))
    ratio_star = ratio_bound(x)
    delta = 10.0 * tol
    for probe in (x - delta, x + delta):
        if 0.0 < probe < 1.0 and ratio_bound(probe) < ratio_star - 1e-12:
            raise ArithmeticError("stationary point is not a local minimum")
    return LambdaOptimum(lambda_star=x, ratio_star=ratio_star, stationarity_residual=residual)


@lru_cache(maxsize=1)
def default_optimum() -> LambdaOptimum:
    """The optimum at default tolerance, cached for guarantee checks."""
    return optimize_lambda()


@dataclass(frozen=True)
class GuaranteeMargins:
    """Non-negative margins of the two end-to-end guarantees."""

    margin_315: float
    margin_4: float

    def to_json(self) -> dict:
        return {"margin_315": self.margin_315, "margin_4": self.margin_4}


def guarantee_check(eq) -> GuaranteeMargins:
    """Margins of ``eq.gft >= eq.fb / ratio_star`` and ``eq.gft >= eq.fb / 4``.

    ``eq`` is an ``EquilibriumReport`` or a ``BoundReport``. The ratio is the
    computed optimum (about 3.1462), which the analysis certifies, not 3.15.
    A margin below ``-MARGIN_TOL * max(1, fb)``, or a NaN margin, raises
    :class:`InvariantViolation`.
    """
    ratio_star = default_optimum().ratio_star
    margin_315 = eq.gft - eq.fb / ratio_star
    margin_4 = eq.gft - eq.fb / 4.0
    tol = MARGIN_TOL * max(1.0, abs(eq.fb))
    # written so that a NaN margin fails too
    if not (margin_315 >= -tol and margin_4 >= -tol):
        raise InvariantViolation(
            f"guarantee margins ({margin_315!r}, {margin_4!r}) below -{tol!r}"
        )
    return GuaranteeMargins(margin_315=margin_315, margin_4=margin_4)
