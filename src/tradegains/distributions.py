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
import numbers
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate, islice, repeat
from operator import lt, neg, sub, truediv
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, ValidationError

#: Absolute tolerance for probability bookkeeping (sums to one, etc.).
PROB_TOL = 1e-12

# 7-point Gauss-Legendre rule on [-1, 1]; exact for polynomials up to
# degree 13, which covers every piecewise-polynomial integrand produced by
# the mechanism/geometry modules once their breakpoints are split out.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(7)


class _cached(cached_property):
    """``functools.cached_property`` without the lock of Python 3.11, as from Python 3.12.

    That lock is one per class, not per instance, and taking it costs about
    as much as building a small prior's table. Every value cached here is a
    pure function of a frozen object, so two threads that build one at once
    store equal values.
    """

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: a cached array reaches every later caller, integrands included."""
    a.flags.writeable = False
    return a


def _check_prob_arg(q: float, name: str = "q") -> float:
    q = float(q)
    if not 0.0 <= q <= 1.0 or math.isnan(q):
        raise DomainError(f"{name} must lie in [0, 1], got {q!r}")
    return q


def _check_price_bounds(p0: float, p1: float) -> None:
    # written so that a NaN fails too
    if not p0 <= p1:
        raise DomainError(f"integration bounds must satisfy p0 <= p1, got {p0!r}, {p1!r}")


def _check_prices_many(p: np.ndarray) -> np.ndarray:
    """``p`` as a float array with no NaN, which the scalar price methods refuse too."""
    p = np.asarray(p, dtype=float)
    if np.isnan(p).any():
        raise DomainError("price p must not be NaN")
    return p


def _check_prob_many(q: np.ndarray) -> np.ndarray:
    """``q`` as a float array, every entry in [0, 1], as the scalar ``quantile`` requires."""
    q = np.asarray(q, dtype=float)
    # written so that a NaN fails too
    if q.size and not (q.min() >= 0.0 and q.max() <= 1.0):
        raise DomainError("all q must lie in [0, 1]")
    return q


def _check_unit_many(u: np.ndarray) -> np.ndarray:
    """``u`` as a float array, every entry in [0, 1)."""
    u = np.asarray(u, dtype=float)
    # written so that a NaN fails too
    if u.size and not (u.min() >= 0.0 and u.max() < 1.0):
        raise DomainError("all u must lie in [0, 1)")
    return u


class _Guide:
    """``table.searchsorted(keys, side)`` for finite keys, in expected O(1) per key.

    The indexed search of inverse-transform sampling (Chen & Asau 1974;
    Devroye 1986, section III.2.4), for a sorted ``table`` of K entries.
    ``[lo, hi]``, the span of its finite entries, is cut into 2K buckets; a
    key ``x`` falls in bucket ``min(int((clip(x, lo, hi) - lo) * scale), top)``
    and so does each entry. Every step of that formula is monotone, so
    whatever the rounding, an entry in a lower bucket is below the key and
    one in a higher bucket above it: only the key's own bucket is searched,
    branchless, one step per bit of the widest bucket's width, over the
    table padded with ``inf``. A span that is 0, overflows or is subnormal
    gets ``scale = 0``: one bucket, and at most ``K.bit_length()`` steps.
    """

    def __init__(self, table: np.ndarray):
        finite = table[np.isfinite(table)].tolist() or [0.0]
        lo, hi = finite[0], finite[-1]
        # 0 for a span of 0 or inf, inf for a subnormal one
        scale = 2 * len(table) / (hi - lo) if hi > lo else 0.0
        if not 0.0 < scale < math.inf:
            scale, hi = 0.0, lo
        self.lo, self.hi, self.scale = lo, hi, scale
        self.top = 2 * len(table) - 1 if scale else 0
        counts = np.bincount(self._buckets(table), minlength=self.top + 1)
        #: index of each bucket's first entry
        self.first = _read_only(np.cumsum(counts) - counts)
        width = int(counts.max())
        self.steps = tuple(1 << b for b in reversed(range(width.bit_length())))
        self.padded = _read_only(np.concatenate((table, np.full(width, math.inf))))

    def _buckets(self, x: np.ndarray) -> np.ndarray:
        b = ((x.clip(self.lo, self.hi) - self.lo) * self.scale).astype(np.intp)
        return np.minimum(b, self.top)

    def search(self, keys: np.ndarray, side: str) -> np.ndarray:
        keys = np.asarray(keys, dtype=float)
        pos = self.first[self._buckets(keys)]
        for s in self.steps:
            # entry pos + s - 1; past the key's bucket every entry is above the key
            below = self.padded[s - 1 :][pos]
            pos += s * (below < keys if side == "left" else below <= keys)
        return pos


class Distribution:
    """Common interface of the two prior representations.

    Instances are immutable after construction; every method is a pure
    function, safe for concurrent use.
    """

    kind: str
    #: The JSON form: the key of the list of atoms or knots, and each entry's
    #: two keys, in the order of the class's two fields.
    _json_form: tuple[str, tuple[str, str]]

    # -- scalar evaluation -------------------------------------------------

    def quantile(self, q: float) -> float:
        """Left-continuous generalized inverse of the CDF at ``q`` in [0, 1]: ``quantile_many`` at one element."""
        return float(self.quantile_many(np.array([_check_prob_arg(q)]))[0])

    # Unlike ``quantile`` and ``cdf_left``, each prior keeps a bisect ``cdf``
    # of its own, for its many one-price callers. On a shared 2-CPU host a pwl
    # ``cdf_many`` at 4 elements costs 12.5-17.4 us against 0.34-0.57 us per
    # bisect call, and routing both priors' ``cdf`` through ``cdf_many`` took
    # tests/test_envelope.py plus tests/test_distributions.py from 20.5-23.0 s
    # to 93-95 s.
    def cdf(self, p: float) -> float:
        """Right-continuous ``Pr[X <= p]``."""
        raise NotImplementedError

    def cdf_left(self, p: float) -> float:
        """Left limit ``Pr[X < p]``: ``cdf_left_many`` at one element."""
        return float(self.cdf_left_many(np.array([p], dtype=float))[0])

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

    # Each representation caches two prefix tables, read-only arrays built
    # once in O(K), and answers ``_integrate_quantile_to_many(q)``, which is
    # ``integrate_quantile(0, q)`` at each element, and
    # ``_integrate_cdf_to_many(p)``, which is ``integrate_cdf(support_min, p)``
    # (0 below the support), with one O(log K) lookup per element. The last
    # piece of a lookup starts at the knot just below its argument and the cdf
    # table sums value gaps, so no term of ``integrate_cdf`` carries the
    # values' offset from 0, and scaling every value by a power of two scales
    # it exactly.

    def integrate_quantile(self, q0: float, q1: float) -> float:
        """Exact ``integral of quantile(q) dq`` over ``[q0, q1]``."""
        q0 = _check_prob_arg(q0, "q0")
        q1 = _check_prob_arg(q1, "q1")
        if q0 > q1:
            raise DomainError(f"inverted bounds: q0={q0!r} > q1={q1!r}")
        if q0 == q1:
            return 0.0
        lo, hi = self._integrate_quantile_to_many(np.array([q0, q1]))
        return float(hi - lo)

    def integrate_cdf(self, p0: float, p1: float) -> float:
        """Exact ``integral of cdf(p) dp`` over ``[p0, p1]``.

        Computed directly in price space (horizontal orientation), not by
        change of variables, so it can serve as an independent counterpart
        to :meth:`integrate_quantile`. Either bound may be infinite; a
        ``DomainError`` unless ``p0 <= p1``, so a NaN bound is refused.
        """
        _check_price_bounds(p0, p1)
        if p0 == p1:  # also at p0 = p1 = inf, where the difference below is NaN
            return 0.0
        # looked up inside the support, so that no lane's distance to it
        # overflows; above it the cdf is 1, and a Python float subtraction
        # returns the part there without a warning
        smin, smax = self.support_min, self.support_max
        lo, hi = self._integrate_cdf_to_many(np.array([p0, p1], dtype=float).clip(smin, smax))
        return float(hi - lo) + (max(p1, smax) - max(p0, smax))

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

    @_cached
    def buyer_envelope(self) -> "BuyerEnvelope":
        """Upper envelope of a buyer's candidate prices against this prior."""
        return _buyer_envelope(self)

    def negate(self) -> "Distribution":
        """Distribution of ``-X``, built once per prior, so its caches last too; its own negation is this prior."""
        self._negation.__dict__["_negation"] = self  # not negated again: a discrete cum would come back 1 ulp off
        return self._negation

    def to_json(self) -> dict:
        list_key, (first, second) = self._json_form
        columns = (getattr(self, f.name) for f in fields(self))
        return {"kind": self.kind, list_key: [{first: a, second: b} for a, b in zip(*columns)]}

    # -- vectorized evaluation (``cdf_many`` mirrors the scalar ``cdf`` exactly) --

    def quantile_many(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cdf_many(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cdf_left_many(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def survival_many(self, p: np.ndarray) -> np.ndarray:
        return 1.0 - self.cdf_left_many(p)

    def sample_many(self, u: np.ndarray) -> np.ndarray:
        return self.quantile_many(_check_unit_many(u))


@dataclass(frozen=True, eq=True)
class DiscreteDistribution(Distribution):
    """Finitely many atoms with strictly increasing values and positive mass."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    kind = "discrete"
    _json_form = "atoms", ("value", "prob")

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple[float, float]]) -> "DiscreteDistribution":
        return _build(cls, atoms)

    @_cached
    def cum(self) -> tuple[float, ...]:
        """The masses summed left to right from 0.0, the last sum pinned to exactly 1."""
        out = list(accumulate(self.probs, initial=0.0))
        out[-1] = 1.0  # guard cumulative roundoff; probs sum to 1 within PROB_TOL
        return tuple(islice(out, 1, None))

    # cached numpy views for the vectorized paths
    @_cached
    def _values_arr(self) -> np.ndarray:
        return _read_only(np.asarray(self.values, dtype=float))

    @_cached
    def _probs_arr(self) -> np.ndarray:
        return _read_only(np.asarray(self.probs, dtype=float))

    @_cached
    def _cum_arr(self) -> np.ndarray:
        return _read_only(np.asarray(self.cum, dtype=float))

    @_cached
    def _cum_padded(self) -> np.ndarray:
        """``cdf`` below each atom index: ``cum`` behind a leading 0."""
        return _read_only(np.concatenate(([0.0], self._cum_arr)))

    @property
    def support_min(self) -> float:
        return self.values[0]

    @property
    def support_max(self) -> float:
        return self.values[-1]

    def knot_values(self) -> tuple[float, ...]:
        return self.values

    def cdf(self, p: float) -> float:
        if p != p:
            raise DomainError("price p must not be NaN")
        i = bisect.bisect_right(self.values, p)
        return self.cum[i - 1] if i > 0 else 0.0

    @_cached
    def _quantile_prefix(self) -> np.ndarray:
        """``integrate_quantile(0, cum[i - 1])`` at index ``i``, summed left to right.

        Atom ``i`` adds ``values[i]`` times its rise of ``cum``, taken as 0
        where ``cum`` does not rise (``fmax`` also drops a NaN). The sum is
        never -0.0, so adding ``values[i] * 0.0`` leaves it as it is.
        """
        cum = self._cum_padded
        return _running_sums(self._values_arr * np.fmax(0.0, cum[1:] - cum[:-1]))

    def _integrate_quantile_to_many(self, q: np.ndarray) -> np.ndarray:
        i = self._cum_arr.searchsorted(q, side="left")
        return self._quantile_prefix[i] + self._values_arr[i] * (q - self._cum_padded[i])

    @_cached
    def _cdf_prefix(self) -> np.ndarray:
        """``integrate_cdf(values[0], values[i])`` at index ``i``, summed left to right."""
        values = self._values_arr
        return _running_sums(self._cum_arr[:-1] * (values[1:] - values[:-1]))

    def _integrate_cdf_to_many(self, p: np.ndarray) -> np.ndarray:
        j = self._values_arr[1:].searchsorted(p, side="right")  # the last atom at or below p, or 0
        out = self._cdf_prefix[j] + self._cum_arr[j] * (p - self._values_arr[j])
        return np.where(p < self._values_arr[0], 0.0, out)

    def mean(self) -> float:
        return math.fsum(v * p for v, p in zip(self.values, self.probs))

    @_cached
    def _negation(self) -> "DiscreteDistribution":
        mirror = DiscreteDistribution(values=tuple(map(neg, reversed(self.values))), probs=self.probs[::-1])
        # built from complements, not re-summed, so that mirror.cdf(-p) equals
        # self.survival(p) bit for bit: seller sides are solved on negations
        mirror.__dict__["cum"] = (*map(sub, repeat(1.0), islice(reversed(self.cum), 1, None)), 1.0)
        return mirror

    def quantile_many(self, q: np.ndarray) -> np.ndarray:
        idx = self._cum_arr.searchsorted(_check_prob_many(q), side="left")
        return self._values_arr[np.minimum(idx, len(self.values) - 1)]

    @_cached
    def _cum_guide(self) -> _Guide:
        return _Guide(self._cum_arr)

    def sample_indices_many(self, u: np.ndarray) -> np.ndarray:
        """Atom indices of the inverse-transform samples at ``u`` in [0, 1).

        ``values[i]`` at these indices is ``sample_many(u)``. As ``u < 1 =
        cum[-1]``, the search needs no clamp to the last atom.
        """
        return self._cum_guide.search(_check_unit_many(u), "left")

    def cdf_many(self, p: np.ndarray) -> np.ndarray:
        p = _check_prices_many(p)
        return self._cum_padded[self._values_arr.searchsorted(p, side="right")]

    def cdf_left_many(self, p: np.ndarray) -> np.ndarray:
        p = _check_prices_many(p)
        return self._cum_padded[self._values_arr.searchsorted(p, side="left")]


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
    _json_form = "knots", ("q", "value")

    @classmethod
    def from_knots(cls, knots: Iterable[tuple[float, float]]) -> "PiecewiseLinearDistribution":
        return _build(cls, knots)

    @_cached
    def _qs_arr(self) -> np.ndarray:
        return _read_only(np.asarray(self.qs, dtype=float))

    @_cached
    def _vals_arr(self) -> np.ndarray:
        return _read_only(np.asarray(self.vals, dtype=float))

    @property
    def support_min(self) -> float:
        return self.vals[0]

    @property
    def support_max(self) -> float:
        return self.vals[-1]

    @_cached
    def _knot_values(self) -> tuple[float, ...]:
        return tuple(sorted(set(self.vals)))

    def knot_values(self) -> tuple[float, ...]:
        return self._knot_values

    @_cached
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

    def cdf(self, p: float) -> float:
        if p != p:
            raise DomainError("price p must not be NaN")
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

    # the quantile is the polyline through (qs, vals), the CDF the one through (vals, qs)

    @_cached
    def _quantile_prefix(self) -> np.ndarray:
        return _trapezoid_sums(self._qs_arr, self._vals_arr)

    def _integrate_quantile_to_many(self, q: np.ndarray) -> np.ndarray:
        dq, dv, _ = self._steps
        return _polyline_area_many(self._qs_arr, self._vals_arr, dv, dq, self._quantile_prefix, q)

    @_cached
    def _cdf_prefix(self) -> np.ndarray:
        return _trapezoid_sums(self._vals_arr, self._qs_arr)

    def _integrate_cdf_to_many(self, p: np.ndarray) -> np.ndarray:
        dq, _, dv = self._steps
        return _polyline_area_many(self._vals_arr, self._qs_arr, dq, dv, self._cdf_prefix, p)

    def mean(self) -> float:
        qs, vals = self.qs, self.vals
        return math.fsum(
            (qs[i + 1] - qs[i]) * (vals[i] + vals[i + 1]) * 0.5
            for i in range(len(qs) - 1)
        )

    @_cached
    def _negation(self) -> "PiecewiseLinearDistribution":
        return PiecewiseLinearDistribution(
            qs=tuple(map(sub, repeat(1.0), reversed(self.qs))), vals=tuple(map(neg, reversed(self.vals)))
        )

    @_cached
    def _steps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(dq, dv, dv_safe)``: each segment's ``qs`` and ``vals`` steps.

        ``dv_safe`` is ``dv`` with 1 for a flat run, so that no lane
        divides by zero; a lane that reads it is overwritten.
        """
        qs, vals = self._qs_arr, self._vals_arr
        dq, dv = qs[1:] - qs[:-1], vals[1:] - vals[:-1]
        return _read_only(dq), _read_only(dv), _read_only(np.where(dv > 0, dv, 1.0))

    # In the vectorized methods below, a search among the inner knots gives
    # the segment that holds each argument, clipped to the first and last. A
    # price outside the support is clipped into it before the segment's
    # formula, which far from the support would overflow, and its lane is
    # then overwritten.

    def _segment_quantiles(self, q: np.ndarray, k: np.ndarray) -> np.ndarray:
        """The quantile at each ``q`` below 1 in segment ``k``, the first inner knot above it."""
        qs, vals = self._qs_arr, self._vals_arr
        dq, dv, _ = self._steps
        return vals[k] + (q - qs[k]) * dv[k] / dq[k]

    def quantile_many(self, q: np.ndarray) -> np.ndarray:
        q = _check_prob_many(q)
        out = self._segment_quantiles(q, self._qs_arr[1:-1].searchsorted(q, side="right"))
        return np.where(q >= self.qs[-1], self.vals[-1], out)

    @_cached
    def _inner_guide(self) -> _Guide:
        return _Guide(self._qs_arr[1:-1])

    def sample_many(self, u: np.ndarray) -> np.ndarray:
        u = _check_unit_many(u)
        return self._segment_quantiles(u, self._inner_guide.search(u, "right"))

    def cdf_many(self, p: np.ndarray) -> np.ndarray:
        p = _check_prices_many(p)
        vals, qs = self._vals_arr, self._qs_arr
        dq, _, dv = self._steps
        k = vals[1:-1].searchsorted(p, side="right")
        out = qs[k] + (p.clip(vals[0], vals[-1]) - vals[k]) * dq[k] / dv[k]
        return np.where(p < vals[0], 0.0, np.where(p >= vals[-1], 1.0, out))

    def cdf_left_many(self, p: np.ndarray) -> np.ndarray:
        p = _check_prices_many(p)
        vals, qs = self._vals_arr, self._qs_arr
        dq, _, dv = self._steps
        k = vals[1:-1].searchsorted(p, side="left")
        # inside the support, knot k + 1 is the first at or above p
        inner = qs[k] + (p.clip(vals[0], vals[-1]) - vals[k]) * dq[k] / dv[k]
        out = np.where(vals[k + 1] == p, qs[k + 1], inner)
        return np.where(p <= vals[0], 0.0, np.where(p > vals[-1], 1.0, out))


def _running_sums(terms: np.ndarray) -> np.ndarray:
    """0, then the running sums of ``terms``, added left to right as one float loop would."""
    return _read_only(np.add.accumulate(np.concatenate(([0.0], terms))))


def _trapezoid_sums(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Area under the polyline through ``(xs, ys)`` from ``xs[0]`` to ``xs[k]``, at index ``k``.

    Summed left to right; a repeated ``x`` is a jump and adds 0.
    """
    return _running_sums((xs[1:] - xs[:-1]) * (ys[:-1] + ys[1:]) * 0.5)


def _polyline_area_many(
    xs: np.ndarray, ys: np.ndarray, dy: np.ndarray, dx: np.ndarray, sums: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Area under the polyline from ``xs[0]`` to each ``x``: one lookup in its ``_trapezoid_sums``.

    The polyline is 0 below ``xs[0]`` and ``ys[-1]`` above ``xs[-1]``.
    ``dy`` and ``dx`` are its steps per piece, ``dx`` with no zero, so
    that lanes off the inner pieces raise no warning.
    """
    x = np.asarray(x, dtype=float)
    k = xs[1:-1].searchsorted(x, side="right")
    x0, y0 = xs[k], ys[k]
    step = x.clip(xs[0], xs[-1]) - x0
    inner = sums[k] + step * (y0 + (y0 + step * dy[k] / dx[k])) * 0.5
    top = sums[-1] + (x - xs[-1]) * ys[-1]
    return np.where(x < xs[0], 0.0, np.where(x >= xs[-1], top, inner))


# --------------------------------------------------------------------------
# the buyer's upper envelope


@dataclass(frozen=True)
class BuyerEnvelope:
    """Which candidate prices can be a buyer's best response, by buyer value ``v``.

    A buyer of value ``v`` posting ``p`` against a prior earns
    ``(v - p) * cdf(p)``. The candidates are the prior's knots and, on each
    rising CDF segment, the stationary price. Their optimum over ``v`` is
    convex (Milgrom & Segal 2002) and the optimal price is non-decreasing in
    ``v`` (Topkis 1978), so one envelope answers every buyer value.

    Entry ``i`` is on top for ``starts[i] <= v < starts[i + 1]``
    (``starts[0]`` is ``-inf``) and sits at column ``i + 1`` of the other
    fields, behind a blank entry at each end that offers nothing. Column
    ``k`` offers the knots ``(price[s][k], trade[s][k])``, the
    ``(price, cdf(price))`` of its own knot or of a segment's two end knots,
    one per slot ``s``; a slot it has no knot for holds ``(inf, 1.0)``,
    which no finite ``v`` can post. There is a second slot only when some
    entry is a segment. A segment also offers its stationary price
    ``0.5 * (v - r[k])`` for ``lo[k] <= v <= hi[k]``; a knot or a blank has
    ``lo = hi = inf`` and ``r = 0.0``.
    """

    starts: tuple[float, ...]
    price: tuple[tuple[float, ...], ...]
    trade: tuple[tuple[float, ...], ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    r: tuple[float, ...]

    @_cached
    def columns(self) -> tuple[np.ndarray, ...]:
        """``(starts, price, trade, lo, hi, r)`` as read-only arrays, for lookups over many values."""
        return tuple(_read_only(np.array(getattr(self, f.name), dtype=float)) for f in fields(self))

    @_cached
    def _starts_guide(self) -> _Guide:
        """Guide table over ``starts``: the entry on top at each of many values."""
        return _Guide(self.columns[0])


def _buyer_envelope(dist: Distribution) -> BuyerEnvelope:
    """Stack sweep over the candidates in price order: knot, segment, knot, ...

    Their trade probabilities do not decrease along that order, so each
    candidate overtakes an earlier one at most once, and every candidate is
    pushed and popped at most once: the upper envelope of lines taken in
    slope order (Andrew 1979), with a segment's parabola between its end
    knots' lines.
    """
    inf = math.inf
    knots = dist.knot_values()
    segments = dist.stationary_segments  # one between each two knots of a pwl prior
    # each knot's cdf and each segment's top left limit, read off the prior's
    # tables as the floats cdf_many and cdf_left_many return: a discrete
    # prior's cum, a pwl prior's q at the last and first knot of each value
    if isinstance(dist, DiscreteDistribution):
        return _line_envelope(knots, dist.cum)
    qs, vals = dist.qs, dist.vals
    xs = [q for q, v, w in zip(qs, vals, vals[1:]) if v != w] + [qs[-1]]
    lefts = [q for q, u, v in zip(qs[1:], vals, vals[1:]) if u != v]
    # curve of each candidate as a function of v: the line (v - pa) * xa below
    # lo, the parabola 0.25 * slope * (v + r)**2 on [lo, hi] and the line
    # (v - pb) * xb above hi; a segment's tails are its end prices at the
    # segment's own limits cdf(ya) and cdf_left(yb)
    curves: list = [None] * (len(knots) + len(segments))
    curves[::2] = [(p, x, p, x, inf, inf, 0.0, 0.0) for p, x in zip(knots, xs)]
    curves[1::2] = [
        (pa, xa, pb, xb, lo, hi, r, slope)
        for pa, xa, pb, xb, (lo, hi, slope, r) in zip(knots, xs, knots[1:], lefts, segments)
    ]
    stack: list[int] = []
    starts: list[float] = []
    for i, c in enumerate(curves):
        w = -inf
        while stack:
            j = stack[-1]
            w = _overtakes(c, curves[j], j == i - 1)
            if w > starts[-1]:
                break
            stack.pop()
            starts.pop()
            w = -inf
        if w < inf:
            stack.append(i)
            starts.append(w)
    # each entry's column: its first knot; a segment's top knot at its cdf (its curve holds the
    # left limit there), else (inf, 1.0); and lo, hi, r as on its curve
    blank = (inf, 1.0, inf, 1.0, inf, inf, 0.0)
    columns = [blank]
    for i in stack:
        pa, xa, pb, _, lo, hi, r, _ = curves[i]
        pb, xb = (pb, xs[i // 2 + 1]) if i % 2 else (inf, 1.0)
        columns.append((pa, xa, pb, xb, lo, hi, r))
    p0, x0, p1, x1, lo, hi, r = zip(*columns, blank)
    slots = 2 if any(i % 2 for i in stack) else 1
    return BuyerEnvelope(tuple(starts), (p0, p1)[:slots], (x0, x1)[:slots], lo, hi, r)


def _line_envelope(prices: Sequence[float], xs: Sequence[float]) -> BuyerEnvelope:
    """The envelope of knots alone: the stack sweep over the lines ``(v - p) * x`` and nothing else.

    The line on top of the stack is held in locals, ``(pt, xt, start)``,
    and the lines below it as tuples.
    """
    inf = math.inf
    lines = zip(prices, xs)
    pt, xt = next(lines)
    start = -inf
    below: list[tuple[float, float, float]] = []
    for pc, xc in lines:
        while True:
            # where this line reaches the one on top: _line_overtakes on (-inf, inf)
            if xc > xt:
                w = pc + xt * (pc - pt) / (xc - xt)
            else:
                w = -inf if xt * (pt - pc) >= 0.0 else inf
            if w > start:
                if w < inf:
                    below.append((pt, xt, start))
                    pt, xt, start = pc, xc, w
                break
            if not below:  # the top was the only line: this one takes its place from -inf
                pt, xt, start = pc, xc, -inf
                break
            pt, xt, start = below.pop()
    below.append((pt, xt, start))
    ps, ts, starts = zip(*below)
    blank = (inf,) * (len(ps) + 2)
    return BuyerEnvelope(starts, ((inf, *ps, inf),), ((1.0, *ts, 1.0),), blank, blank, (0.0,) * len(blank))


def _curve_at(c: tuple, v: float) -> float:
    pa, xa, pb, xb, lo, hi, r, slope = c
    if v < lo:
        return (v - pa) * xa
    if v > hi:
        return (v - pb) * xb
    z = v + r
    return 0.25 * slope * z * z


def _overtakes(c: tuple, t: tuple, adjacent: bool) -> float:
    """Least ``v`` from which curve ``c`` is at least the earlier curve ``t``.

    ``inf`` when it never is. The difference of the two curves does not
    decrease in ``v``, so it is located between the curves' own piece ends
    and solved in closed form on that piece. ``adjacent`` when ``t`` is the
    candidate just before ``c``.
    """
    if adjacent:
        # a segment touches its end knots' lines: take the tangency from
        # the segment instead of solving for a double root
        if t[4] == math.inf and c[4] < math.inf:
            return c[4]
        if c[4] == math.inf and t[4] < math.inf and c[1] == t[3]:
            return t[5]
    ends = sorted({c[4], c[5], t[4], t[5]} - {math.inf})
    m = 0
    while m < len(ends) and _curve_at(c, ends[m]) < _curve_at(t, ends[m]):
        m += 1
    a = ends[m - 1] if m > 0 else -math.inf
    b = ends[m] if m < len(ends) else math.inf
    c_line, c1, c2 = _piece(c, a, b)
    t_line, t1, t2 = _piece(t, a, b)
    if c_line and t_line:
        return _line_overtakes(c1, c2, t1, t2, a, b)
    if c_line:
        # line over parabola: the smaller root of x (v - p) = slope (v + r)**2 / 4
        (p, x), (slope, r) = (c1, c2), (t1, t2)
        root = x + math.sqrt(max(x * (x - slope * (p + r)), 0.0))
        w = 2.0 * x * (p + r) / root - r if root > 0.0 else b
    elif t_line:
        # parabola over line: the larger root
        (slope, r), (p, x) = (c1, c2), (t1, t2)
        w = 2.0 * (x + math.sqrt(max(x * (x - slope * (p + r)), 0.0))) / slope - r
    else:
        # two parabolas: v + r_c = rho (v + r_t) on both arcs, rho = sqrt(s_t / s_c);
        # rho does not change when every value is scaled by a power of two
        (sc, rc), (st, rt) = (c1, c2), (t1, t2)
        rho = math.sqrt(st / sc)
        w = (rho * rt - rc) / (1.0 - rho) if rho != 1.0 else -0.5 * (rc + rt)
    if w != w:
        return b
    return min(max(w, a), b)


def _line_overtakes(pc: float, xc: float, pt: float, xt: float, a: float, b: float) -> float:
    """Where the line ``(v - pc) * xc`` reaches ``(v - pt) * xt`` on ``[a, b]``, ``pc >= pt``."""
    if xc > xt:
        return min(max(pc + xt * (pc - pt) / (xc - xt), a), b)
    # parallel: the later line is either the same or never above
    return a if xt * (pt - pc) >= 0.0 else b


def _piece(c: tuple, a: float, b: float) -> tuple[bool, float, float]:
    """Curve ``c`` on ``(a, b)``: ``(True, p, x)`` for a line, ``(False, slope, r)`` for its parabola."""
    pa, xa, pb, xb, lo, hi, r, slope = c
    if b <= lo:
        return True, pa, xa
    if a >= hi:
        return True, pb, xb
    return False, slope, r


# --------------------------------------------------------------------------
# construction sugar


def _real_float(value) -> float:
    """``value`` as a float; ``ValueError`` unless it is a real number (``float`` also takes strings and bools)."""
    kind = type(value)
    if kind is float or kind is int or (kind is not bool and isinstance(value, numbers.Real)):
        return float(value)
    raise ValueError(value)


def _real_pair(entry) -> tuple[float, float]:
    """An atom or knot as two floats; ``ValueError`` unless it is exactly two real numbers."""
    if type(entry) in (list, tuple) and len(entry) == 2:
        a, b = entry
        if type(a) is float and type(b) is float:  # most pairs, on the fast path
            return a, b
    if isinstance(entry, (bytes, bytearray)) or len(entry) != 2:  # the items of bytes are ints
        raise ValueError(entry)
    return _real_float(entry[0]), _real_float(entry[1])


def _number(name: str, value) -> float:
    try:
        return _real_float(value)
    except (ValueError, OverflowError):
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


# Every prior is built along one path from a list of atoms or knots, each a
# list or tuple of two or, given its class's two JSON keys, an object. Knots
# always take the entry-by-entry pass, which words each problem. For atoms a
# column check passes the common case -- every entry two floats, values
# strictly increasing, masses finite and positive -- in a few builtin passes
# over its two columns; any other atoms take the entry-by-entry pass, which
# also sorts and merges them. The checks past those serve both. Each check
# raises a ValidationError with its problems where it finds them, so each
# step returns only the columns.


def _columns(entries: list, keys: tuple[str, str] | None) -> tuple[Sequence, Sequence] | None:
    """The two columns of ``entries``: their values at ``keys`` when every entry is a dict and ``keys`` are given, their items when every entry is a list or tuple of two, else None."""
    types = set(map(type, entries))
    if keys and types == {dict}:
        return list(map(dict.get, entries, repeat(keys[0]))), list(map(dict.get, entries, repeat(keys[1])))
    if not entries or not {list, tuple}.issuperset(types) or set(map(len, entries)) != {2}:
        return None
    return tuple(zip(*entries))


def _entry_pairs(entries: list, keys: tuple[str, str] | None) -> Iterable:
    """The entries for the entry-by-entry pass, a dict as the pair of its values at ``keys`` when they are given."""
    if not keys:
        return entries
    first, second = keys
    return ((e.get(first), e.get(second)) if isinstance(e, dict) else e for e in entries)


def _build(cls: type, entries: Iterable, keys: tuple[str, str] | None = None) -> Distribution:
    """The prior of class ``cls`` with these atoms or knots, read at ``keys`` as for :func:`_columns`.

    A :class:`ValidationError` with every problem when they are not valid.
    """
    normalize = _normalize_atoms if issubclass(cls, DiscreteDistribution) else _normalize_knots
    return cls(*normalize(list(entries), keys))


def _normalize_atoms(atoms: list, keys: tuple[str, str] | None) -> tuple[tuple, tuple]:
    """``(values, probs)`` of raw atoms, read at ``keys`` as for :func:`_columns`."""
    values, probs = _columns(atoms, keys) or ((), ())
    # the common case: floats only, the values finite and strictly increasing
    # (which also refuses a NaN), the masses finite and positive
    if not (
        {*map(type, values), *map(type, probs)} == {float}
        and math.isfinite(values[0])
        and math.isfinite(values[-1])
        and all(map(lt, values, islice(values, 1, None)))
        and all(map(math.isfinite, probs))
        and min(probs) > 0.0
    ):
        values, probs = _sorted_atoms(_entry_pairs(atoms, keys))
    try:
        total = math.fsum(probs)
    except OverflowError:  # the exact sum is past the largest float: it is not 1
        total = math.inf
    if abs(total - 1.0) > PROB_TOL:
        raise ValidationError([f"probabilities sum != 1 (got {total!r})"])
    # cum sums the masses left to right and gives the atoms after the one
    # where that sum first reaches 1 no mass: drop them too, so that probs
    # and cum describe one prior
    end = bisect.bisect_left(list(accumulate(probs)), 1.0) + 1
    if end < len(probs):
        values, probs = values[:end], probs[:end]
    # keep the given masses (rescaling would break round-trip idempotence);
    # the cumulative top is pinned to exactly 1 when cum is built
    values, probs = tuple(values), tuple(probs)
    _check_span(values[0], values[-1])
    return values, probs


def _sorted_atoms(atoms: Iterable) -> tuple[list[float], list[float]]:
    """The entry-by-entry pass: the atoms sorted by value, equal values merged left to right and zero masses dropped."""
    problems: list[str] = []
    pairs: list[tuple[float, float]] = []
    for i, atom in enumerate(atoms):
        try:
            v, p = _real_pair(atom)
        except (TypeError, ValueError, IndexError, KeyError, OverflowError):
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
        raise ValidationError(problems)
    pairs.sort(key=lambda t: t[0])
    merged: list[list[float]] = []
    for v, p in pairs:
        if merged and merged[-1][0] == v:
            merged[-1][1] += p
        else:
            merged.append([v, p])
    merged = [[v, p] for v, p in merged if p > 0.0]
    if not merged:
        raise ValidationError(["no atoms with positive probability"])
    return [v for v, _ in merged], [p for _, p in merged]


def _normalize_knots(knots: list, keys: tuple[str, str] | None) -> tuple[tuple, tuple]:
    """``(qs, vals)`` of raw knots, read at ``keys`` as for :func:`_entry_pairs`."""
    qs, vals = _ordered_knots(_entry_pairs(knots, keys))
    _check_span(vals[0], vals[-1])
    # a finite slope keeps dq / dv, by which stationary_segments divides, above 0 with 50+ bits
    dqs = list(map(sub, islice(qs, 1, None), qs))
    dvs = list(map(sub, islice(vals, 1, None), vals))
    slopes = list(map(truediv, dvs, dqs))
    if math.inf in slopes:
        raise ValidationError([
            f"knot {i}: segment too steep, its slope {dvs[i - 1]!r} / {dqs[i - 1]!r} overflows a float"
            for i in range(1, len(qs))
            if slopes[i - 1] == math.inf
        ])
    return tuple(qs), tuple(vals)


def _ordered_knots(knots: Iterable) -> tuple[list[float], list[float]]:
    """The entry-by-entry pass: the knots with the grid's ends set to 0 and 1."""
    problems: list[str] = []
    pairs: list[tuple[float, float]] = []
    for i, knot in enumerate(knots):
        try:
            q, v = _real_pair(knot)
        except (TypeError, ValueError, IndexError, KeyError, OverflowError):
            problems.append(f"knot {i}: expected a (q, value) pair, got {knot!r}")
            continue
        if not math.isfinite(q) or not math.isfinite(v):
            problems.append(f"knot {i}: non-finite entry {knot!r}")
        else:
            pairs.append((q, v))
    if problems:
        raise ValidationError(problems)
    if len(pairs) < 2:
        raise ValidationError(["need at least 2 knots"])
    qs = [q for q, _ in pairs]
    vals = [v for _, v in pairs]
    if abs(qs[0]) > PROB_TOL or abs(qs[-1] - 1.0) > PROB_TOL:
        problems.append(f"knot grid must run from 0 to 1, got [{qs[0]!r}, {qs[-1]!r}]")
    else:
        qs[0], qs[-1] = 0.0, 1.0
    for i in range(1, len(qs)):
        if qs[i] <= qs[i - 1]:
            problems.append(f"knot {i}: q={qs[i]!r} not strictly above q={qs[i - 1]!r}")
        elif 1.0 - qs[i] >= 1.0 - qs[i - 1]:
            # negate mirrors the grid to 1 - q, which must stay strictly increasing
            problems.append(f"knot {i}: q={qs[i]!r} and q={qs[i - 1]!r} coincide once mirrored to 1 - q")
        if vals[i] < vals[i - 1]:
            problems.append(f"knot {i}: quantile not monotone ({vals[i]!r} < {vals[i - 1]!r})")
    if problems:
        raise ValidationError(problems)
    return qs, vals


def _check_span(lo: float, hi: float) -> None:
    """Refuse a prior whose value span ``hi - lo`` is not a finite float, as :class:`TradeInstance` words it."""
    if not math.isfinite(hi - lo):
        raise ValidationError([f"the value span {lo!r} .. {hi!r} of the prior overflows a float"])


def validate(data) -> ValidationReport:
    """Validate raw distribution data and return a normalized distribution.

    Accepts a JSON-style mapping (see :func:`distribution_from_json`) or an
    existing :class:`Distribution`, and reports every violated invariant.
    """
    if isinstance(data, Distribution):
        data = data.to_json()
    try:
        dist = distribution_from_json(data)
    except ValidationError as err:
        return ValidationReport(err.problems, None)
    return ValidationReport((), dist)


#: Each sugar kind of the JSON form, the function that builds it and the keys of that function's arguments.
_SUGAR = (("uniform", uniform, ("lo", "hi")), ("point", point, ("value",)))


def distribution_from_json(obj) -> Distribution:
    """Build a distribution from its JSON object form (sugar is desugared)."""
    if not isinstance(obj, dict):
        raise ValidationError([f"expected a JSON object, got {type(obj).__name__}"])
    kind = obj.get("kind")
    for cls in (DiscreteDistribution, PiecewiseLinearDistribution):
        if kind == cls.kind:  # compared, not looked up: a kind may be an unhashable list
            list_key, keys = cls._json_form
            entries = obj.get(list_key)
            if not isinstance(entries, list):
                article = "an" if list_key[0] in "aeiou" else "a"
                raise ValidationError([f"{kind} distribution needs {article} {list_key!r} list"])
            return _build(cls, entries, keys)
    for sugar, build, names in _SUGAR:
        if kind == sugar:
            if not all(name in obj for name in names):
                raise ValidationError([f"{sugar} distribution needs {' and '.join(map(repr, names))}"])
            return build(*(obj[name] for name in names))
    raise ValidationError([f"unknown distribution kind {kind!r}"])


# --------------------------------------------------------------------------
# expectations over a prior


def expect(
    dist: Distribution,
    fn: Callable[[np.ndarray], np.ndarray | tuple[np.ndarray, ...]],
    breakpoints: Sequence[float] = (),
) -> float | tuple[float, ...]:
    """Expectation ``E[fn(X)]`` for a piecewise-polynomial integrand.

    Over a discrete prior this is the exact atom sum and ``breakpoints`` is
    ignored. Over a piecewise-linear prior the caller must declare in
    ``breakpoints`` every value of ``X`` where ``fn`` kinks or jumps: the
    quantile domain is split there and at the distribution's own knots, and
    each piece gets one fixed 7-point Gauss-Legendre rule, exact for
    polynomials up to degree 13. A kink or jump left undeclared is not
    detected; it costs accuracy on the piece that contains it.

    ``fn`` is called once, on a float array of every atom in order or of
    every node of every piece, and returns an array of the same shape, or a
    tuple of such arrays; the result is then the tuple of their
    expectations. Each field is summed as ``math.fsum`` of ``w * f`` per
    piece, then ``math.fsum`` over the pieces weighted by their half
    widths, so it is bit-identical to ``expect`` of that field alone.
    """
    if isinstance(dist, DiscreteDistribution):
        return _fields(fn(dist._values_arr), lambda f: _atom_sums(dist, f)[0])

    cuts = set(dist.qs)
    bs = np.asarray(breakpoints, dtype=float)
    bs = bs[np.isfinite(bs)]
    cuts.update(dist.cdf_left_many(bs).tolist())
    cuts.update(dist.cdf_many(bs).tolist())
    ts = np.asarray(sorted(t for t in cuts if 0.0 <= t <= 1.0))  # strictly increasing
    halves, mids = 0.5 * (ts[1:] - ts[:-1]), 0.5 * (ts[:-1] + ts[1:])
    nodes = dist.quantile_many(mids[:, None] + halves[:, None] * _GL_NODES)

    def integrate(f):
        pieces = [math.fsum(row) for row in (_GL_WEIGHTS * f.reshape(nodes.shape)).tolist()]
        return math.fsum((halves * pieces).tolist())

    return _fields(fn(nodes.ravel()), integrate)


def _atom_sums(dist: DiscreteDistribution, fields: np.ndarray) -> list[float]:
    """``math.fsum`` of ``probs * f`` for each row ``f`` of ``fields``, whose last axis runs over the atoms.

    This is :func:`expect`'s exact atom sum, one row of integrand values at a time.
    """
    probs = dist._probs_arr
    return [math.fsum(row) for row in (probs * fields).reshape(-1, probs.size).tolist()]


def _fields(values, integrate: Callable[[np.ndarray], float]) -> float | tuple[float, ...]:
    """``integrate`` of an integrand's array, or of each array of its tuple."""
    if isinstance(values, tuple):
        return tuple(integrate(f) for f in values)
    return integrate(values)
