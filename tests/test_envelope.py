"""The buyer's upper envelope: same answers as scanning every candidate, less work.

The reference is the all-candidates scan the library used before the
envelope: every knot value at or below ``v`` plus every stationary price
valid at ``v``, each scored with the key ``(utility, trade_prob, -price)``.
"""

import bisect
import math

import numpy as np
import pytest

import tradegains.montecarlo as mc
from tradegains import (
    BestResponse,
    DiscreteDistribution,
    PiecewiseLinearDistribution,
    TradeInstance,
    ValidationError,
    buyer_best_response,
    distribution_from_json,
    distributions,
    equilibrium,
    expect,
    geometry,
    mechanism,
    seller_best_response,
    sweep_bounds,
)
from tradegains.distributions import BuyerEnvelope

from conftest import LAMBDA_GRID, budget, random_pwl
from test_hostile import CORPUS


def scan(v, seller):
    """``(price, utility, trade_prob)`` of the best of all candidates."""
    knots = seller.knot_values()
    prices = list(knots[: bisect.bisect_right(knots, v)])
    for lo, hi, _, r in seller.stationary_segments:
        if lo <= v <= hi:
            prices.append(0.5 * (v - r))
    best_key = None
    best = None
    for p in prices:
        x = seller.cdf(p)
        u = (v - p) * x
        key = (u, x, -p)
        if best_key is None or key > best_key:
            best_key = key
            best = (p, u, x)
    if best is None:
        return (v, 0.0, 0.0)
    return best


def probes(seller, rng):
    """Knots, validity ends and envelope starts with their neighbouring floats, plus a spread."""
    marks = set(seller.knot_values()) | set(seller.buyer_envelope.starts[1:])
    for lo, hi, _, _ in seller.stationary_segments:
        marks.update((lo, hi))
    out = set()
    for m in marks:
        out.update((m, math.nextafter(m, -math.inf), math.nextafter(m, math.inf)))
    lo, hi = seller.support_min, seller.support_max
    span = hi - lo if hi > lo else 1.0
    out.update(rng.uniform(lo - 0.2 * span, hi + 1.2 * span, 100).tolist())
    return sorted(out)


def discrete_seller(seed):
    rng = np.random.default_rng([seed, 11])
    values = np.unique(rng.uniform(0.0, 1.0, int(rng.integers(1, 301))))
    probs = rng.dirichlet(np.ones(len(values)))
    return DiscreteDistribution.from_atoms(zip(values.tolist(), probs.tolist()))


def pwl_seller(seed, skew):
    rng = np.random.default_rng([seed, 12])
    knots = int(rng.integers(2, 41))
    if not skew:
        return random_pwl(rng, knots)
    vals = np.sort(rng.uniform(0.0, 1.0, knots)) ** 3
    return PiecewiseLinearDistribution.from_knots(zip(np.linspace(0.0, 1.0, knots).tolist(), vals.tolist()))


def canonical(atoms):
    return DiscreteDistribution.from_atoms([((2 * i + 1) / (2 * atoms), 1.0 / atoms) for i in range(atoms)])


SELLERS = (
    [pytest.param(discrete_seller(seed), id=f"discrete-{seed}") for seed in range(16)]
    + [pytest.param(pwl_seller(seed, False), id=f"pwl-{seed}") for seed in range(16)]
    + [pytest.param(pwl_seller(seed, True), id=f"pwl-cubed-{seed}") for seed in range(16)]
    + [pytest.param(canonical(atoms), id=f"canonical-{atoms}") for atoms in (1, 2, 3, 8, 64, 256)]
)


@pytest.mark.parametrize("negate", (False, True), ids=("as-is", "negated"))
@pytest.mark.parametrize("seller", SELLERS)
def test_envelope_matches_the_scan_bit_for_bit(seller, negate):
    if negate:
        seller = seller.negate()
    vs = probes(seller, np.random.default_rng(len(seller.knot_values())))
    got = [buyer_best_response(v, seller) for v in vs]
    want = [scan(v, seller) for v in vs]
    assert [(g.price, g.utility, g.trade_prob) for g in got] == want
    # the Monte Carlo pricer reads the same envelope, and equilibrium integrates its triples
    got_many = zip(*(a.tolist() for a in mechanism.buyer_best_response_many(np.asarray(vs), seller)))
    assert [tuple(map(float.hex, g)) for g in got_many] == [tuple(map(float.hex, w)) for w in want]


@pytest.mark.parametrize("array_min", (0, math.inf), ids=("arrays", "value-by-value"))
@pytest.mark.parametrize("seller", SELLERS)
def test_both_best_response_branches_match_the_scan_bit_for_bit(seller, array_min, monkeypatch):
    # either branch at every size: all the probes in one call, then in runs of 5
    monkeypatch.setattr(mechanism, "_ARRAY_MIN", array_min)
    for side in (seller, seller.negate()):
        vs = probes(side, np.random.default_rng(len(side.knot_values())))
        want = [tuple(map(float.hex, scan(v, side))) for v in vs]
        for size in (len(vs), 5):
            got = []
            for i in range(0, len(vs), size):
                batch = np.asarray(vs[i : i + size])
                got += zip(*(a.tolist() for a in mechanism.buyer_best_response_many(batch, side)))
            assert [tuple(map(float.hex, g)) for g in got] == want


@pytest.mark.parametrize("seller", SELLERS)
def test_the_guide_lookup_matches_the_scan_bit_for_bit(seller, monkeypatch):
    # the array fold with the envelope's guide table at every size, on the
    # probes in random order, as Monte Carlo samples come
    monkeypatch.setattr(mechanism, "_ARRAY_MIN", 0)
    monkeypatch.setattr(mechanism, "_GUIDE_MIN", 0)
    for side in (seller, seller.negate()):
        rng = np.random.default_rng(len(side.knot_values()))
        vs = rng.permutation(probes(side, rng))
        want = [tuple(map(float.hex, scan(v, side))) for v in vs.tolist()]
        got = zip(*(a.tolist() for a in mechanism.buyer_best_response_many(vs, side)))
        assert [tuple(map(float.hex, g)) for g in got] == want


@pytest.mark.parametrize("k", (1, -1, 300, -300, 900, -900))
def test_envelope_scales_by_powers_of_two(k):
    # scaling every value by 2**k is exact, so the breakpoints and every best
    # response must scale bit for bit (expect then integrates the same pieces)
    for seed in range(8):
        seller = pwl_seller(seed, seed % 2 == 1)
        scaled = PiecewiseLinearDistribution(seller.qs, tuple(math.ldexp(v, k) for v in seller.vals))
        assert mechanism.buyer_response_breakpoints(scaled) == [
            math.ldexp(b, k) for b in mechanism.buyer_response_breakpoints(seller)
        ]
        for v in probes(seller, np.random.default_rng(seed)):
            got = buyer_best_response(math.ldexp(v, k), scaled)
            want = buyer_best_response(v, seller)
            assert (got.price, got.utility, got.trade_prob) == (
                math.ldexp(want.price, k), math.ldexp(want.utility, k), want.trade_prob
            )


COIN_AT_HALF = DiscreteDistribution.from_atoms([(0.0, 0.5), (0.5, 0.5)])
THREE_WAY = DiscreteDistribution.from_atoms([(0.0, 0.25), (0.5, 0.25), (0.75, 0.5)])


def test_dyadic_ties_go_to_the_larger_trade_probability():
    # at v = 1 the offers 0 and 0.5 both earn exactly 0.5
    got = buyer_best_response(1.0, COIN_AT_HALF)
    assert (got.price, got.utility, got.trade_prob) == (0.5, 0.5, 1.0)
    assert buyer_best_response(math.nextafter(1.0, 0.0), COIN_AT_HALF).price == 0.0
    # three offers earn exactly 0.25 at v = 1; the middle one is never alone on top
    got = buyer_best_response(1.0, THREE_WAY)
    assert (got.price, got.utility, got.trade_prob) == (0.75, 0.25, 1.0)
    assert THREE_WAY.buyer_envelope.starts == (-math.inf, 1.0)
    # the seller side inherits the rule through negation: at c = 0 the
    # offers 0.5 and 1 both earn exactly 0.5, and the larger sale chance wins
    buyer = DiscreteDistribution.from_atoms([(0.5, 0.5), (1.0, 0.5)])
    got = seller_best_response(0.0, buyer)
    assert (got.price, got.utility, got.trade_prob) == (0.5, 0.5, 1.0)


def test_equal_trade_probabilities_go_to_the_better_price():
    # an atom of mass 1e-300 leaves the cumulative mass unchanged, and at
    # v = 2**60 the offers 0 and 1 earn the same rounded utility 2**59
    seller = DiscreteDistribution.from_atoms([(0.0, 0.5), (1.0, 1e-300), (2.0**62, 0.5)])
    got = buyer_best_response(2.0**60, seller)
    assert (got.price, got.utility, got.trade_prob) == (0.0, 2.0**59, 0.5)
    assert got == BestResponse(*scan(2.0**60, seller))
    # mirrored: a seller of cost -2**60 takes the larger of the prices 0 and -1
    buyer = DiscreteDistribution.from_atoms([(-(2.0**62), 0.5), (-1.0, 1e-300), (0.0, 0.5)])
    got = seller_best_response(-(2.0**60), buyer)
    assert (got.price, got.utility, got.trade_prob) == (0.0, 2.0**59, 0.5)


def test_a_segment_meets_its_end_knots_at_its_validity_ends():
    # against the uniform seller a buyer of value 2 offers the top knot 1,
    # which is also the stationary price: one price, no duplicate breakpoint
    seller = PiecewiseLinearDistribution.from_knots([(0.0, 0.0), (1.0, 1.0)])
    assert seller.buyer_envelope.starts == (-math.inf, 0.0, 2.0)
    assert mechanism.buyer_response_breakpoints(seller) == [0.0, 2.0]
    got = buyer_best_response(2.0, seller)
    assert (got.price, got.utility, got.trade_prob) == (1.0, 1.0, 1.0)


def coarse_grid(seed):
    rng = np.random.default_rng([seed, 13])
    if seed % 2:
        values = np.unique(rng.integers(0, 16, int(rng.integers(1, 12)))) / 8
        weights = rng.integers(1, 5, len(values)).astype(float)
        return DiscreteDistribution.from_atoms(zip(values.tolist(), (weights / weights.sum()).tolist()))
    knots = int(rng.integers(2, 10))
    vals = np.sort(rng.integers(0, 8, knots)) / 4
    return PiecewiseLinearDistribution.from_knots(zip(np.linspace(0.0, 1.0, knots).tolist(), vals.tolist()))


def test_coarse_grid_ties_keep_the_optimal_utility():
    # three or more candidates can tie in real arithmetic here, and which
    # one wins in floating point is a matter of the last bit
    worst = 0.0
    for seed in range(400):
        for seller in (coarse_grid(seed), coarse_grid(seed).negate()):
            sign = 1.0 if seller.support_max >= 0.0 else -1.0
            for v in (sign * i / 16 for i in range(-40, 120)):
                want = scan(v, seller)[1]
                got = buyer_best_response(v, seller).utility
                worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    assert worst <= 1e-15


def test_simulate_prices_coarse_grid_ties_like_the_exact_path():
    # simulate prices a pwl proposer's sampled types; at every near tie it must
    # pick the very price buyer_best_response picks, e.g. the knot 1.0 on
    # coarse_grid(118) at v = 2.0, which earns one ulp more than the
    # stationary price 0.9999999999999999 of the segment it ends
    for seed in range(400):
        for seller in (coarse_grid(seed), coarse_grid(seed).negate()):
            sign = 1.0 if seller.support_max >= 0.0 else -1.0
            vs = [sign * i / 16 for i in range(-40, 120)]
            buyer = PiecewiseLinearDistribution.from_knots([(0.0, min(vs)), (1.0, max(vs))])
            price_b, _ = mc._proposer_prices(TradeInstance(buyer=buyer, seller=seller))
            assert price_b(np.asarray(vs)).tolist() == [buyer_best_response(v, seller).price for v in vs]
    assert buyer_best_response(2.0, coarse_grid(118)).price == 1.0


# --------------------------------------------------------------------------
# work bounds, by count


def test_best_response_cdf_calls_are_logarithmic(monkeypatch):
    atoms = 4096
    seller = canonical(atoms)
    calls = 0
    cdf = DiscreteDistribution.cdf

    def counting_cdf(self, p):
        nonlocal calls
        calls += 1
        return cdf(self, p)

    monkeypatch.setattr(DiscreteDistribution, "cdf", counting_cdf)
    buyer_best_response(0.5, seller)  # builds the envelope once per prior
    assert calls <= atoms
    limit = 4 * math.log2(atoms)
    for v in np.linspace(-0.5, 2.5, 101).tolist():
        calls = 0
        buyer_best_response(v, seller)
        assert calls <= limit


def test_array_pipeline_makes_no_scalar_lookups(monkeypatch):
    # once both envelopes are built, every lookup of equilibrium and of a
    # 19-lambda sweep runs over arrays, and each expect calls its integrand once
    rng = np.random.default_rng(4096)
    sides = []
    for _ in range(2):
        values = np.unique(rng.uniform(0.0, 1.0, 4096))
        sides.append(DiscreteDistribution.from_atoms(zip(values.tolist(), rng.dirichlet(np.ones(len(values))).tolist())))
    instance = TradeInstance(buyer=sides[0], seller=sides[1])
    equilibrium(instance)

    scalar_calls = []
    for name in ("cdf", "cdf_left", "quantile", "integrate_quantile", "integrate_cdf"):
        original = getattr(DiscreteDistribution, name)
        monkeypatch.setattr(
            DiscreteDistribution, name,
            lambda self, *args, _name=name, _original=original: scalar_calls.append(_name) or _original(self, *args),
        )
    integrand_calls = []

    def counting_expect(dist, fn, breakpoints=()):
        integrand_calls.append(0)

        def counted(vs):
            integrand_calls[-1] += 1
            return fn(vs)

        return expect(dist, counted, breakpoints)

    monkeypatch.setattr(mechanism, "expect", counting_expect)
    monkeypatch.setattr(geometry, "expect", counting_expect)
    equilibrium(instance)
    sweep_bounds(instance, LAMBDA_GRID)
    assert scalar_calls == []
    # first best and both proposer sides, twice; over a discrete buyer the
    # sweep's E[area_A], E[u_S_geom] are atom sums of its probe pass, with no expect
    assert integrand_calls == [1] * (3 + 3)


@pytest.mark.parametrize("seed", range(10))
def test_breakpoints_grow_linearly_in_the_knots(seed):
    seller = random_pwl(np.random.default_rng(seed), 32)
    assert len(mechanism.buyer_response_breakpoints(seller)) <= 4 * len(seller.qs)


def equal_revenue_pair(steps, top):
    """Buyer quantile ``min(1 / (1 - q), top)`` on ``q = i / steps``; the seller mirrors it."""
    qs = [i / steps for i in range(steps + 1)]
    vals = [min(1.0 / (1.0 - q), top) if q < 1.0 else top for q in qs]
    buyer = PiecewiseLinearDistribution.from_knots(zip(qs, vals))
    seller = PiecewiseLinearDistribution.from_knots(
        zip([1.0 - q for q in reversed(qs)], [top + 1.0 - v for v in reversed(vals)])
    )
    return TradeInstance(buyer=buyer, seller=seller)


def test_equal_revenue_pair_at_200_steps_finishes():
    with budget(5):
        eq = equilibrium(equal_revenue_pair(200, 100.0))
    assert 1.90 <= eq.fb / eq.gft <= 1.91


# --------------------------------------------------------------------------
# the envelope sweep against the reference sweep


def reference_envelope(dist):
    """The envelope sweep in its plainest form, the reference.

    It calls ``_reference_overtakes`` at every stack step, knot against
    knot included, and reads every knot's trade probability with
    ``cdf_many`` and each segment's top left limit with ``cdf_left_many``.
    """
    inf = math.inf
    knots = dist.knot_values()
    segments = dist.stationary_segments
    xs = dist.cdf_many(np.asarray(knots)).tolist()
    lefts = dist.cdf_left_many(np.asarray(knots[1 : len(segments) + 1])).tolist() if segments else []
    curves = []
    entries = []
    for j, (p, x) in enumerate(zip(knots, xs)):
        curves.append((p, x, p, x, inf, inf, 0.0, 0.0))
        entries.append((((p, x),), inf, inf, 0.0))
        if j < len(segments):
            lo, hi, slope, r = segments[j]
            yb = knots[j + 1]
            curves.append((p, x, yb, lefts[j], lo, hi, r, slope))
            entries.append((((p, x), (yb, xs[j + 1])), lo, hi, r))
    stack = []
    starts = []
    for i in range(len(curves)):
        w = -inf
        while stack:
            w = _reference_overtakes(curves, i, stack[-1])
            if w > starts[-1]:
                break
            stack.pop()
            starts.pop()
            w = -inf
        if w < inf:
            stack.append(i)
            starts.append(w)
    return BuyerEnvelope(starts=tuple(starts), entries=tuple(entries[i] for i in stack))


def _reference_curve_at(c, v):
    pa, xa, pb, xb, lo, hi, r, slope = c
    if v < lo:
        return (v - pa) * xa
    if v > hi:
        return (v - pb) * xb
    z = v + r
    return 0.25 * slope * z * z


def _reference_overtakes(curves, i, j):
    c, t = curves[i], curves[j]
    if c[4] == t[4] == math.inf:
        return _reference_line_overtakes(c[0], c[1], t[0], t[1], -math.inf, math.inf)
    if j == i - 1:
        if t[4] == math.inf and c[4] < math.inf:
            return c[4]
        if c[4] == math.inf and t[4] < math.inf and c[1] == t[3]:
            return t[5]
    ends = sorted({c[4], c[5], t[4], t[5]} - {math.inf})
    m = 0
    while m < len(ends) and _reference_curve_at(c, ends[m]) < _reference_curve_at(t, ends[m]):
        m += 1
    a = ends[m - 1] if m > 0 else -math.inf
    b = ends[m] if m < len(ends) else math.inf
    c_line, c1, c2 = _reference_piece(c, a, b)
    t_line, t1, t2 = _reference_piece(t, a, b)
    if c_line and t_line:
        return _reference_line_overtakes(c1, c2, t1, t2, a, b)
    if c_line:
        (p, x), (slope, r) = (c1, c2), (t1, t2)
        root = x + math.sqrt(max(x * (x - slope * (p + r)), 0.0))
        w = 2.0 * x * (p + r) / root - r if root > 0.0 else b
    elif t_line:
        (slope, r), (p, x) = (c1, c2), (t1, t2)
        w = 2.0 * (x + math.sqrt(max(x * (x - slope * (p + r)), 0.0))) / slope - r
    else:
        (sc, rc), (st, rt) = (c1, c2), (t1, t2)
        rho = math.sqrt(st / sc)
        w = (rho * rt - rc) / (1.0 - rho) if rho != 1.0 else -0.5 * (rc + rt)
    if w != w:
        return b
    return min(max(w, a), b)


def _reference_line_overtakes(pc, xc, pt, xt, a, b):
    if xc > xt:
        return min(max(pc + xt * (pc - pt) / (xc - xt), a), b)
    return a if xt * (pt - pc) >= 0.0 else b


def _reference_piece(c, a, b):
    pa, xa, pb, xb, lo, hi, r, slope = c
    if b <= lo:
        return True, pa, xa
    if a >= hi:
        return True, pb, xb
    return False, slope, r


def hexed(envelope):
    """``starts`` and every entry field of an envelope, as ``float.hex``."""
    return (
        [s.hex() for s in envelope.starts],
        [
            ([(p.hex(), x.hex()) for p, x in fixed], lo.hex(), hi.hex(), r.hex())
            for fixed, lo, hi, r in envelope.entries
        ],
    )


def hostile_priors():
    """Every prior of the hostile corpus that is valid on its own."""
    out = []
    for name, (data, _) in sorted(CORPUS.items()):
        for side in ("buyer", "seller"):
            try:
                out.append(pytest.param(distribution_from_json(data[side]), id=f"{name}-{side}"))
            except ValidationError:
                pass
    return out


ATOM_COUNTS = (*range(1, 17), 24, 32, 48, 64, 96, 128, 255, 256, 257, 384, 512, 768, 1024, 1536, 2047, 2048)

#: Two knots of one trade probability 1e-300, 1e-30 apart: the gap between
#: their parallel lines underflows to -0.0, which counts as the same line.
PARALLEL_UNDERFLOW = DiscreteDistribution.from_atoms([(0.0, 1e-300), (1e-30, 1e-320), (1.0, 1.0)])


@pytest.mark.parametrize("negate", (False, True), ids=("as-is", "negated"))
@pytest.mark.parametrize(
    "prior",
    SELLERS
    + hostile_priors()
    + [pytest.param(canonical(atoms), id=f"canonical-{atoms}") for atoms in ATOM_COUNTS]
    + [pytest.param(getattr(equal_revenue_pair(200, 100.0), side), id=f"equal-revenue-200-{side}") for side in ("buyer", "seller")]
    + [pytest.param(PARALLEL_UNDERFLOW, id="parallel-underflow")],
)
def test_envelope_matches_the_reference_sweep_bit_for_bit(prior, negate):
    if negate:
        prior = prior.negate()
    assert hexed(distributions._buyer_envelope(prior)) == hexed(reference_envelope(prior))


def test_envelope_reads_trade_probabilities_off_the_prior(monkeypatch):
    # knot against knot is stepped inline and every trade probability is read
    # off the prior's tables: a discrete envelope calls none of these, and a
    # pwl envelope no array lookup
    def refuse(*args):
        raise AssertionError("called")

    discrete, pwl = discrete_seller(3), pwl_seller(3, False)
    want = [hexed(reference_envelope(d)) for d in (discrete, pwl)]
    monkeypatch.setattr(DiscreteDistribution, "cdf_many", refuse)
    monkeypatch.setattr(DiscreteDistribution, "cdf_left_many", refuse)
    monkeypatch.setattr(distributions, "_overtakes", refuse)
    assert hexed(distributions._buyer_envelope(discrete)) == want[0]
    monkeypatch.undo()
    monkeypatch.setattr(PiecewiseLinearDistribution, "cdf_many", refuse)
    monkeypatch.setattr(PiecewiseLinearDistribution, "cdf_left_many", refuse)
    assert hexed(distributions._buyer_envelope(pwl)) == want[1]
