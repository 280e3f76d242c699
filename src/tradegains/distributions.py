"""One-dimensional priors with exact quantile/CDF evaluation and integration.

Two representations are supported, both admitting closed-form partial
integrals of the quantile function:

* :class:`DiscreteDistribution` -- finitely many atoms ``(value, prob)``.
* :class:`PiecewiseLinearDistribution` -- a continuous piecewise-linear
  quantile function given by knots ``(q, value)``; flat segments encode
  atoms.

Conventions (fixed package-wide):

* ``quantile(q)`` is the left-continuous generalized inverse
  ``inf{p : cdf(p) >= q}``; ``quantile(0)`` is the infimum of the support.
* ``cdf(p)`` is ``Pr[X <= p]``, right-continuous (weak inequality, so an
  atom at ``p`` is included).
* ``survival(p)`` is ``Pr[X >= p]``, left-continuous (an atom at ``p`` is
  included).

These choices make ``cdf(quantile(q)) >= q`` hold exactly, atoms included,
which the geometric bounds in :mod:`tradegains.geometry` rely on.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, ValidationError

#: Absolute tolerance for probability bookkeeping (sums to one, etc.).
PROB_TOL = 1e-12

# 7-point Gauss-Legendre rule on [-1, 1]; exact for polynomials up to
# degree 13, which covers every piecewise-polynomial integrand produced by
# the mechanism/geometry modules once their breakpoints are split out.
_GL_NODES, _GL_WEIGHTS = (tuple(a.tolist()) for a in np.polynomial.legendre.leggauss(7))


def _check_prob_arg(q: float, name: str = "q") -> float:
    q = float(q)
    if not 0.0 <= q <= 1.0 or math.isnan(q):
        raise DomainError(f"{name} must lie in [0, 1], got {q!r}")
    return q


class Distribution:
    """Common interface of the two prior representations.

    Instances are immutable after construction; every method is a pure
    function, safe for concurrent use.
    """

    kind: str

    # -- scalar evaluation -------------------------------------------------

    def quantile(self, q: float) -> float:
        """Left-continuous generalized inverse of the CDF at ``q`` in [0, 1]."""
        raise NotImplementedError

    def cdf(self, p: float) -> float:
        """Right-continuous ``Pr[X <= p]``."""
        raise NotImplementedError

    def cdf_left(self, p: float) -> float:
        """Left limit ``Pr[X < p]``."""
        raise NotImplementedError

    def survival(self, p: float) -> float:
        """Left-continuous ``Pr[X >= p]``; an atom at ``p`` counts."""
        return 1.0 - self.cdf_left(p)

    def sample(self, u: float) -> float:
        """Inverse-transform sample: ``quantile(u)`` for ``u`` in [0, 1)."""
        u = float(u)
        if not 0.0 <= u < 1.0 or math.isnan(u):
            raise DomainError(f"u must lie in [0, 1), got {u!r}")
        return self.quantile(u)

    # -- exact integrals ---------------------------------------------------

    def integrate_quantile(self, q0: float, q1: float) -> float:
        """Exact ``integral of quantile(q) dq`` over ``[q0, q1]``."""
        raise NotImplementedError

    def integrate_cdf(self, p0: float, p1: float) -> float:
        """Exact ``integral of cdf(p) dp`` over ``[p0, p1]``.

        Computed directly in price space (horizontal orientation), not by
        change of variables, so it can serve as an independent counterpart
        to :meth:`integrate_quantile`.
        """
        raise NotImplementedError

    def mean(self) -> float:
        """Expected value, computed directly from atoms/knots."""
        raise NotImplementedError

    # -- structure ---------------------------------------------------------

    @property
    def support_min(self) -> float:
        raise NotImplementedError

    @property
    def support_max(self) -> float:
        raise NotImplementedError

    def knot_values(self) -> tuple[float, ...]:
        """Values at which the CDF changes slope or jumps."""
        raise NotImplementedError

    #: ``(lo, hi, slope, r)`` per strictly rising CDF segment, where the CDF
    #: is ``slope * (p + r)``: the price maximizing ``(v - p) * cdf(p)`` on
    #: the segment is ``0.5 * (v - r)``, inside it for ``lo <= v <= hi``.
    stationary_segments: tuple[tuple[float, float, float, float], ...] = ()

    def negate(self) -> "Distribution":
        """Distribution of ``-X``."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    # -- vectorized evaluation (mirrors the scalar arithmetic exactly) -----

    def quantile_many(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cdf_many(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def survival_many(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample_many(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.size and (u.min() < 0.0 or u.max() >= 1.0):
            raise DomainError("all u must lie in [0, 1)")
        return self.quantile_many(u)


@dataclass(frozen=True, eq=True)
class DiscreteDistribution(Distribution):
    """Finitely many atoms with strictly increasing values and positive mass."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    kind = "discrete"

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple[float, float]]) -> "DiscreteDistribution":
        problems, normalized = _normalize_atoms(atoms)
        if problems:
            raise ValidationError(problems)
        values, probs = normalized
        return cls(values=values, probs=probs)

    @cached_property
    def cum(self) -> tuple[float, ...]:
        out = []
        acc = 0.0
        for p in self.probs:
            acc += p
            out.append(acc)
        out[-1] = 1.0  # guard cumulative roundoff; probs sum to 1 within PROB_TOL
        return tuple(out)

    # cached numpy views for the vectorized paths
    @cached_property
    def _values_arr(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @cached_property
    def _cum_arr(self) -> np.ndarray:
        return np.asarray(self.cum, dtype=float)

    @property
    def support_min(self) -> float:
        return self.values[0]

    @property
    def support_max(self) -> float:
        return self.values[-1]

    def knot_values(self) -> tuple[float, ...]:
        return self.values

    def quantile(self, q: float) -> float:
        q = _check_prob_arg(q)
        i = bisect.bisect_left(self.cum, q)
        if i >= len(self.values):
            i = len(self.values) - 1
        return self.values[i]

    def cdf(self, p: float) -> float:
        i = bisect.bisect_right(self.values, p)
        return self.cum[i - 1] if i > 0 else 0.0

    def cdf_left(self, p: float) -> float:
        i = bisect.bisect_left(self.values, p)
        return self.cum[i - 1] if i > 0 else 0.0

    def integrate_quantile(self, q0: float, q1: float) -> float:
        q0 = _check_prob_arg(q0, "q0")
        q1 = _check_prob_arg(q1, "q1")
        if q0 > q1:
            raise DomainError(f"inverted bounds: q0={q0!r} > q1={q1!r}")
        cum = self.cum
        values = self.values
        lo = bisect.bisect_left(cum, q0)
        total = 0.0
        prev = cum[lo - 1] if lo > 0 else 0.0
        for i in range(lo, len(values)):
            left = max(prev, q0)
            right = min(cum[i], q1)
            if right > left:
                total += values[i] * (right - left)
            if cum[i] >= q1:
                break
            prev = cum[i]
        return total

    def integrate_cdf(self, p0: float, p1: float) -> float:
        if p0 > p1:
            raise DomainError(f"inverted bounds: p0={p0!r} > p1={p1!r}")
        # integral of the CDF equals E[(b - X)^+]; take the difference of
        # the two upper limits atom by atom to stay exact
        total = 0.0
        for v, p in zip(self.values, self.probs):
            hi = p1 - v if p1 > v else 0.0
            lo = p0 - v if p0 > v else 0.0
            total += p * (hi - lo)
        return total

    def mean(self) -> float:
        return math.fsum(v * p for v, p in zip(self.values, self.probs))

    def negate(self) -> "DiscreteDistribution":
        neg = DiscreteDistribution(
            values=tuple(-v for v in reversed(self.values)),
            probs=tuple(reversed(self.probs)),
        )
        # built from complements, not re-summed, so that neg.cdf(-p) equals
        # self.survival(p) bit for bit: seller sides are solved on negations
        neg.__dict__["cum"] = tuple(1.0 - c for c in reversed(self.cum[:-1])) + (1.0,)
        return neg

    def to_json(self) -> dict:
        return {
            "kind": "discrete",
            "atoms": [{"value": v, "prob": p} for v, p in zip(self.values, self.probs)],
        }

    def quantile_many(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        idx = np.searchsorted(self._cum_arr, q, side="left")
        idx = np.minimum(idx, len(self.values) - 1)
        return self._values_arr[idx]

    def cdf_many(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        idx = np.searchsorted(self._values_arr, p, side="right")
        padded = np.concatenate(([0.0], self._cum_arr))
        return padded[idx]

    def survival_many(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        idx = np.searchsorted(self._values_arr, p, side="left")
        padded = np.concatenate(([0.0], self._cum_arr))
        return 1.0 - padded[idx]


@dataclass(frozen=True, eq=True)
class PiecewiseLinearDistribution(Distribution):
    """Continuous piecewise-linear quantile function on [0, 1].

    ``qs`` is strictly increasing from 0 to 1 and ``vals`` is
    non-decreasing; a flat run of ``vals`` is an atom of mass equal to the
    run's width in ``q``.
    """

    qs: tuple[float, ...]
    vals: tuple[float, ...]

    kind = "pwl"

    @classmethod
    def from_knots(cls, knots: Iterable[tuple[float, float]]) -> "PiecewiseLinearDistribution":
        problems, normalized = _normalize_knots(knots)
        if problems:
            raise ValidationError(problems)
        qs, vals = normalized
        return cls(qs=qs, vals=vals)

    @cached_property
    def _qs_arr(self) -> np.ndarray:
        return np.asarray(self.qs, dtype=float)

    @cached_property
    def _vals_arr(self) -> np.ndarray:
        return np.asarray(self.vals, dtype=float)

    @property
    def support_min(self) -> float:
        return self.vals[0]

    @property
    def support_max(self) -> float:
        return self.vals[-1]

    @cached_property
    def _knot_values(self) -> tuple[float, ...]:
        return tuple(sorted(set(self.vals)))

    def knot_values(self) -> tuple[float, ...]:
        return self._knot_values

    @cached_property
    def stationary_segments(self) -> tuple[tuple[float, float, float, float], ...]:
        qs, vals = self.qs, self.vals
        out = []
        for k in range(len(qs) - 1):
            ya, yb = vals[k], vals[k + 1]
            if ya == yb:
                continue
            slope = (qs[k + 1] - qs[k]) / (yb - ya)
            r = qs[k] / slope - ya
            out.append((2.0 * ya + r, 2.0 * yb + r, slope, r))
        return tuple(out)

    def quantile(self, q: float) -> float:
        q = _check_prob_arg(q)
        qs, vals = self.qs, self.vals
        i = bisect.bisect_right(qs, q)
        if i >= len(qs):
            return vals[-1]
        q0, q1 = qs[i - 1], qs[i]
        y0, y1 = vals[i - 1], vals[i]
        return y0 + (q - q0) * (y1 - y0) / (q1 - q0)

    def cdf(self, p: float) -> float:
        vals, qs = self.vals, self.qs
        if p < vals[0]:
            return 0.0
        if p >= vals[-1]:
            return 1.0
        j = bisect.bisect_right(vals, p)
        # vals[j-1] <= p < vals[j], and the two differ, so the segment is
        # strictly increasing there
        y0, y1 = vals[j - 1], vals[j]
        return qs[j - 1] + (p - y0) * (qs[j] - qs[j - 1]) / (y1 - y0)

    def cdf_left(self, p: float) -> float:
        vals, qs = self.vals, self.qs
        if p <= vals[0]:
            return 0.0
        if p > vals[-1]:
            return 1.0
        j = bisect.bisect_left(vals, p)
        if vals[j] == p:
            # first knot at p: everything strictly below q=qs[j] is < p
            return qs[j]
        y0, y1 = vals[j - 1], vals[j]
        return qs[j - 1] + (p - y0) * (qs[j] - qs[j - 1]) / (y1 - y0)

    def integrate_quantile(self, q0: float, q1: float) -> float:
        q0 = _check_prob_arg(q0, "q0")
        q1 = _check_prob_arg(q1, "q1")
        if q0 > q1:
            raise DomainError(f"inverted bounds: q0={q0!r} > q1={q1!r}")
        if q0 == q1:
            return 0.0
        qs = self.qs
        total = 0.0
        prev_q = q0
        prev_y = self.quantile(q0)
        i = bisect.bisect_right(qs, q0)
        while i < len(qs) and qs[i] < q1:
            total += (qs[i] - prev_q) * (prev_y + self.vals[i]) * 0.5
            prev_q, prev_y = qs[i], self.vals[i]
            i += 1
        total += (q1 - prev_q) * (prev_y + self.quantile(q1)) * 0.5
        return total

    def integrate_cdf(self, p0: float, p1: float) -> float:
        if p0 > p1:
            raise DomainError(f"inverted bounds: p0={p0!r} > p1={p1!r}")
        vals = self.vals
        total = 0.0
        # region above the support: cdf == 1
        if p1 > vals[-1]:
            total += p1 - max(p0, vals[-1])
            p1 = vals[-1]
            if p0 >= p1:
                return total
        if p1 <= vals[0]:
            return total
        p0 = max(p0, vals[0])
        # walk the strictly-increasing value intervals; cdf is linear on each,
        # so each trapezoid closes at the left limit (a jump at the endpoint
        # has zero width) and reopens at the right-continuous value
        lo = bisect.bisect_right(vals, p0)
        prev_p = p0
        prev_c = self.cdf(p0)
        for j in range(lo, len(vals)):
            vj = vals[j]
            if vj >= p1:
                break
            if vj > prev_p:
                total += (vj - prev_p) * (prev_c + self.cdf_left(vj)) * 0.5
                prev_p = vj
            prev_c = self.cdf(vj)
        total += (p1 - prev_p) * (prev_c + self.cdf_left(p1)) * 0.5
        return total

    def mean(self) -> float:
        qs, vals = self.qs, self.vals
        return math.fsum(
            (qs[i + 1] - qs[i]) * (vals[i] + vals[i + 1]) * 0.5
            for i in range(len(qs) - 1)
        )

    def negate(self) -> "PiecewiseLinearDistribution":
        return PiecewiseLinearDistribution(
            qs=tuple(1.0 - q for q in reversed(self.qs)),
            vals=tuple(-v for v in reversed(self.vals)),
        )

    def to_json(self) -> dict:
        return {
            "kind": "pwl",
            "knots": [{"q": q, "value": v} for q, v in zip(self.qs, self.vals)],
        }

    def quantile_many(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        qs, vals = self._qs_arr, self._vals_arr
        i = np.searchsorted(qs, q, side="right")
        top = i >= len(qs)
        i = np.clip(i, 1, len(qs) - 1)
        q0 = qs[i - 1]
        out = vals[i - 1] + (q - q0) * (vals[i] - vals[i - 1]) / (qs[i] - q0)
        return np.where(top, vals[-1], out)

    def cdf_many(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        vals, qs = self._vals_arr, self._qs_arr
        j = np.searchsorted(vals, p, side="right")
        below = p < vals[0]
        above = p >= vals[-1]
        j = np.clip(j, 1, len(vals) - 1)
        y0 = vals[j - 1]
        denom = vals[j] - y0
        safe = np.where(denom > 0, denom, 1.0)
        out = qs[j - 1] + (p - y0) * (qs[j] - qs[j - 1]) / safe
        return np.where(below, 0.0, np.where(above, 1.0, out))

    def survival_many(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        vals, qs = self._vals_arr, self._qs_arr
        below = p <= vals[0]
        above = p > vals[-1]
        j = np.searchsorted(vals, p, side="left")
        jc = np.clip(j, 1, len(vals) - 1)
        at_knot = vals[np.minimum(j, len(vals) - 1)] == p
        y0 = vals[jc - 1]
        denom = vals[jc] - y0
        safe = np.where(denom > 0, denom, 1.0)
        interp = qs[jc - 1] + (p - y0) * (qs[jc] - qs[jc - 1]) / safe
        left = np.where(at_knot, qs[np.minimum(j, len(vals) - 1)], interp)
        left = np.where(below, 0.0, np.where(above, 1.0, left))
        return 1.0 - left


# --------------------------------------------------------------------------
# construction sugar


def _number(name: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError([f"{name} must be a number, got {value!r}"]) from None


def point(value: float) -> DiscreteDistribution:
    """Point mass at ``value``."""
    return DiscreteDistribution.from_atoms([(_number("point value", value), 1.0)])


def uniform(lo: float, hi: float) -> Distribution:
    """Uniform distribution on ``[lo, hi]`` (a point mass when ``lo == hi``)."""
    lo, hi = _number("uniform lo", lo), _number("uniform hi", hi)
    if math.isnan(lo) or math.isnan(hi) or lo > hi:
        raise ValidationError([f"uniform bounds must satisfy lo <= hi, got {lo!r}, {hi!r}"])
    if lo == hi:
        return point(lo)
    return PiecewiseLinearDistribution.from_knots([(0.0, lo), (1.0, hi)])


# --------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating raw distribution data."""

    problems: tuple[str, ...]
    distribution: Distribution | None

    @property
    def ok(self) -> bool:
        return not self.problems


def _normalize_atoms(atoms) -> tuple[list[str], tuple | None]:
    problems: list[str] = []
    pairs: list[tuple[float, float]] = []
    for i, atom in enumerate(atoms):
        try:
            v, p = float(atom[0]), float(atom[1])
        except (TypeError, ValueError, IndexError, KeyError):
            problems.append(f"atom {i}: expected a (value, prob) pair, got {atom!r}")
            continue
        if not math.isfinite(v):
            problems.append(f"atom {i}: value {v!r} is not finite")
        elif not math.isfinite(p):
            problems.append(f"atom {i}: prob {p!r} is not finite")
        elif p < 0.0:
            problems.append(f"atom {i}: prob {p!r} is negative")
        else:
            pairs.append((v, p))
    if problems:
        return problems, None
    # normalize: sort, merge duplicate values, drop zero-probability atoms
    pairs.sort(key=lambda t: t[0])
    merged: list[list[float]] = []
    for v, p in pairs:
        if merged and merged[-1][0] == v:
            merged[-1][1] += p
        else:
            merged.append([v, p])
    merged = [[v, p] for v, p in merged if p > 0.0]
    if not merged:
        return ["no atoms with positive probability"], None
    total = math.fsum(p for _, p in merged)
    if abs(total - 1.0) > PROB_TOL:
        return [f"probabilities sum != 1 (got {total!r})"], None
    # keep the given masses (rescaling would break round-trip idempotence);
    # the cumulative top is pinned to exactly 1 when cum is built
    values = tuple(v for v, _ in merged)
    probs = tuple(p for _, p in merged)
    return [], (values, probs)


def _normalize_knots(knots) -> tuple[list[str], tuple | None]:
    problems: list[str] = []
    pairs: list[tuple[float, float]] = []
    for i, knot in enumerate(knots):
        try:
            q, v = float(knot[0]), float(knot[1])
        except (TypeError, ValueError, IndexError, KeyError):
            problems.append(f"knot {i}: expected a (q, value) pair, got {knot!r}")
            continue
        if not math.isfinite(q) or not math.isfinite(v):
            problems.append(f"knot {i}: non-finite entry {knot!r}")
        else:
            pairs.append((q, v))
    if problems:
        return problems, None
    if len(pairs) < 2:
        return ["need at least 2 knots"], None
    qs = [q for q, _ in pairs]
    vals = [v for _, v in pairs]
    if abs(qs[0]) > PROB_TOL or abs(qs[-1] - 1.0) > PROB_TOL:
        problems.append(f"knot grid must run from 0 to 1, got [{qs[0]!r}, {qs[-1]!r}]")
    else:
        qs[0], qs[-1] = 0.0, 1.0
    for i in range(1, len(qs)):
        if qs[i] <= qs[i - 1]:
            problems.append(f"knot {i}: q={qs[i]!r} not strictly above q={qs[i - 1]!r}")
        if vals[i] < vals[i - 1]:
            problems.append(f"knot {i}: quantile not monotone ({vals[i]!r} < {vals[i - 1]!r})")
    if problems:
        return problems, None
    return [], (tuple(qs), tuple(vals))


def validate(data) -> ValidationReport:
    """Validate raw distribution data and return a normalized distribution.

    Accepts a JSON-style mapping (see :func:`distribution_from_json`) or an
    existing :class:`Distribution`, and reports every violated invariant.
    """
    if isinstance(data, DiscreteDistribution):
        problems, normalized = _normalize_atoms(zip(data.values, data.probs))
        if problems:
            return ValidationReport(tuple(problems), None)
        return ValidationReport((), DiscreteDistribution(*normalized))
    if isinstance(data, PiecewiseLinearDistribution):
        problems, normalized = _normalize_knots(zip(data.qs, data.vals))
        if problems:
            return ValidationReport(tuple(problems), None)
        return ValidationReport((), PiecewiseLinearDistribution(*normalized))
    try:
        dist = distribution_from_json(data)
    except ValidationError as err:
        return ValidationReport(err.problems, None)
    return ValidationReport((), dist)


def distribution_from_json(obj) -> Distribution:
    """Build a distribution from its JSON object form (sugar is desugared)."""
    if not isinstance(obj, dict):
        raise ValidationError([f"expected a JSON object, got {type(obj).__name__}"])
    kind = obj.get("kind")
    if kind == "discrete":
        atoms = obj.get("atoms")
        if not isinstance(atoms, list):
            raise ValidationError(["discrete distribution needs an 'atoms' list"])
        return DiscreteDistribution.from_atoms(
            (a.get("value"), a.get("prob")) if isinstance(a, dict) else a for a in atoms
        )
    if kind == "pwl":
        knots = obj.get("knots")
        if not isinstance(knots, list):
            raise ValidationError(["pwl distribution needs a 'knots' list"])
        return PiecewiseLinearDistribution.from_knots(
            (k.get("q"), k.get("value")) if isinstance(k, dict) else k for k in knots
        )
    if kind == "uniform":
        if "lo" not in obj or "hi" not in obj:
            raise ValidationError(["uniform distribution needs 'lo' and 'hi'"])
        return uniform(obj["lo"], obj["hi"])
    if kind == "point":
        if "value" not in obj:
            raise ValidationError(["point distribution needs 'value'"])
        return point(obj["value"])
    raise ValidationError([f"unknown distribution kind {kind!r}"])


# --------------------------------------------------------------------------
# expectations over a prior


def expect(
    dist: Distribution,
    fn: Callable[[float], float],
    breakpoints: Sequence[float] = (),
) -> float:
    """Expectation ``E[fn(X)]`` for a piecewise-polynomial integrand.

    Over a discrete prior this is the exact atom sum and ``breakpoints`` is
    ignored. Over a piecewise-linear prior the caller must declare in
    ``breakpoints`` every value of ``X`` where ``fn`` kinks or jumps: the
    quantile domain is split there and at the distribution's own knots, and
    each piece gets one fixed 7-point Gauss-Legendre rule, exact for
    polynomials up to degree 13. A kink or jump left undeclared is not
    detected; it costs accuracy on the piece that contains it.
    """
    if isinstance(dist, DiscreteDistribution):
        return math.fsum(p * fn(v) for v, p in zip(dist.values, dist.probs))

    cuts = set(dist.qs)
    for b in breakpoints:
        b = float(b)
        if math.isfinite(b):
            cuts.add(dist.cdf_left(b))
            cuts.add(dist.cdf(b))
    ts = sorted(t for t in cuts if 0.0 <= t <= 1.0)

    def piece(a: float, b: float) -> float:
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        return half * math.fsum(
            w * fn(dist.quantile(mid + half * x))
            for x, w in zip(_GL_NODES, _GL_WEIGHTS)
        )

    return math.fsum(piece(a, b) for a, b in zip(ts, ts[1:]) if b > a)
