"""Validation parity: the builtin-pass validation against a frozen copy of the entry-by-entry one.

``frozen_normalize_atoms`` and ``frozen_normalize_knots`` below are the
validation as it was before the common case got its builtin passes, kept
verbatim (with ``_real_float``, ``_real_pair`` and the span message). On
every prior here, valid or not, ``from_atoms`` / ``from_knots`` and
``distribution_from_json`` must report the same problems in the same order,
or build a prior with the same values and masses, bit for bit.
"""

import math
import numbers

import numpy as np
import pytest

from tradegains import DiscreteDistribution, PiecewiseLinearDistribution, ValidationError, distribution_from_json

from test_hostile import CORPUS

PROB_TOL = 1e-12


# --------------------------------------------------------------------------
# the frozen reference


def frozen_real_float(value) -> float:
    """``value`` as a float; ``ValueError`` unless it is a real number (``float`` also takes strings and bools)."""
    kind = type(value)
    if kind is float or kind is int or (kind is not bool and isinstance(value, numbers.Real)):
        return float(value)
    raise ValueError(value)


def frozen_real_pair(entry) -> tuple[float, float]:
    """An atom or knot as two floats; ``ValueError`` unless it is exactly two real numbers."""
    if type(entry) in (list, tuple) and len(entry) == 2:
        a, b = entry
        if type(a) is float and type(b) is float:  # most pairs, on the fast path
            return a, b
    if isinstance(entry, (bytes, bytearray)) or len(entry) != 2:  # the items of bytes are ints
        raise ValueError(entry)
    return frozen_real_float(entry[0]), frozen_real_float(entry[1])


def frozen_normalize_atoms(atoms) -> tuple[list[str], tuple | None]:
    problems: list[str] = []
    pairs: list[tuple[float, float]] = []
    for i, atom in enumerate(atoms):
        try:
            v, p = frozen_real_pair(atom)
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
    # cum sums the masses left to right and gives the atoms after the one
    # where that sum first reaches 1 no mass: drop them too, so that probs
    # and cum describe one prior
    acc = 0.0
    for k, (_, p) in enumerate(merged):
        acc += p
        if acc >= 1.0:
            del merged[k + 1 :]
            break
    # keep the given masses (rescaling would break round-trip idempotence);
    # the cumulative top is pinned to exactly 1 when cum is built
    values = tuple(v for v, _ in merged)
    probs = tuple(p for _, p in merged)
    if not math.isfinite(values[-1] - values[0]):
        return [frozen_span_overflows(values[0], values[-1])], None
    return [], (values, probs)


def frozen_normalize_knots(knots) -> tuple[list[str], tuple | None]:
    problems: list[str] = []
    pairs: list[tuple[float, float]] = []
    for i, knot in enumerate(knots):
        try:
            q, v = frozen_real_pair(knot)
        except (TypeError, ValueError, IndexError, KeyError, OverflowError):
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
        elif 1.0 - qs[i] >= 1.0 - qs[i - 1]:
            # negate mirrors the grid to 1 - q, which must stay strictly increasing
            problems.append(f"knot {i}: q={qs[i]!r} and q={qs[i - 1]!r} coincide once mirrored to 1 - q")
        if vals[i] < vals[i - 1]:
            problems.append(f"knot {i}: quantile not monotone ({vals[i]!r} < {vals[i - 1]!r})")
    if problems:
        return problems, None
    if not math.isfinite(vals[-1] - vals[0]):
        return [frozen_span_overflows(vals[0], vals[-1])], None
    for i in range(1, len(qs)):
        # a finite slope keeps dq / dv, by which stationary_segments divides, above 0 with 50+ bits
        dq, dv = qs[i] - qs[i - 1], vals[i] - vals[i - 1]
        if dv / dq == math.inf:
            problems.append(f"knot {i}: segment too steep, its slope {dv!r} / {dq!r} overflows a float")
    if problems:
        return problems, None
    return [], (tuple(qs), tuple(vals))


def frozen_span_overflows(lo: float, hi: float) -> str:
    """The problem of a prior whose value span ``hi - lo`` is not a finite float, as :class:`TradeInstance` words it."""
    return f"the value span {lo!r} .. {hi!r} of the prior overflows a float"


def frozen_from_json(obj):
    """The frozen validation of a discrete or pwl JSON prior, as ``distribution_from_json`` fed it."""
    if obj["kind"] == "discrete":
        return frozen_normalize_atoms(
            (a.get("value"), a.get("prob")) if isinstance(a, dict) else a for a in obj["atoms"]
        )
    return frozen_normalize_knots((k.get("q"), k.get("value")) if isinstance(k, dict) else k for k in obj["knots"])


# --------------------------------------------------------------------------
# outcomes compared


def hexed(columns):
    return [[x.hex() for x in column] for column in columns]


def outcome(build):
    """The problems of ``build()``, in order, or the columns of the prior it returns, as ``float.hex``."""
    try:
        d = build()
    except ValidationError as err:
        return list(err.problems)
    return hexed((d.values, d.probs) if isinstance(d, DiscreteDistribution) else (d.qs, d.vals))


def frozen_outcome(normalize, *args):
    problems, normalized = normalize(*args)
    return problems or hexed(normalized)


def check_atoms(atoms):
    want = frozen_outcome(frozen_normalize_atoms, list(atoms))
    assert outcome(lambda: DiscreteDistribution.from_atoms(atoms)) == want
    assert outcome(lambda: DiscreteDistribution.from_atoms(iter(atoms))) == want
    return want


def check_knots(knots):
    want = frozen_outcome(frozen_normalize_knots, list(knots))
    assert outcome(lambda: PiecewiseLinearDistribution.from_knots(knots)) == want
    assert outcome(lambda: PiecewiseLinearDistribution.from_knots(iter(knots))) == want
    return want


def check_json(obj):
    """``distribution_from_json`` as the frozen validation, with entries as given, as objects and as pairs."""
    key, names = ("atoms", ("value", "prob")) if obj["kind"] == "discrete" else ("knots", ("q", "value"))
    entries = obj[key]
    as_objects = [dict(zip(names, e)) if type(e) in (list, tuple) and len(e) == 2 else e for e in entries]
    as_pairs = [(e.get(names[0]), e.get(names[1])) if isinstance(e, dict) else e for e in entries]
    for form in (entries, as_objects, as_pairs):
        variant = {**obj, key: form}
        assert outcome(lambda: distribution_from_json(variant)) == frozen_outcome(frozen_from_json, variant)


# --------------------------------------------------------------------------
# the priors of the hostile corpus and of the CLI and JSON tests


def json_priors():
    priors = {}
    for name, (data, _) in sorted(CORPUS.items()):
        for side in ("buyer", "seller"):
            if data[side]["kind"] in ("discrete", "pwl"):
                priors[f"{name}-{side}"] = data[side]
    # tests/test_cli.py's invalid discrete prior, and test_distributions.py's entries that are not real numbers
    priors["cli-sum"] = {"kind": "discrete", "atoms": [{"value": 0, "prob": 0.4}]}
    priors["cli-uniform-span"] = {"kind": "pwl", "knots": [[0.0, -1e308], [1.0, 1e308]]}  # its uniform sugar's knots
    priors["atom-string"] = {"kind": "discrete", "atoms": ["01"]}
    priors["knot-strings"] = {"kind": "pwl", "knots": ["00", "11"]}
    priors["atom-triple"] = {"kind": "discrete", "atoms": [[0.5, 1.0, 7]]}
    priors["atom-bools"] = {"kind": "discrete", "atoms": [[True, 1.0], [0.5, True]]}
    priors["atom-object-string"] = {"kind": "discrete", "atoms": [{"value": "0.5", "prob": 1}]}
    priors["knot-object-string"] = {"kind": "pwl", "knots": [[0, 0], {"q": 1, "value": "1"}]}
    priors["atom-huge-int"] = {"kind": "discrete", "atoms": [[10**400, 1.0]]}
    priors["atom-missing-key"] = {"kind": "discrete", "atoms": [{"value": 0.5}, {"value": 0.7, "prob": 1.0}]}
    priors["empty-atoms"] = {"kind": "discrete", "atoms": []}
    priors["empty-knots"] = {"kind": "pwl", "knots": []}
    priors["one-knot"] = {"kind": "pwl", "knots": [[0.0, 1.0]]}
    # valid lists that mix objects and pairs
    priors["atoms-mixed"] = {
        "kind": "discrete",
        "atoms": [{"value": 0.0, "prob": 0.25}, [0.5, 0.25], {"prob": 0.5, "value": 1.0}],
    }
    priors["knots-mixed"] = {"kind": "pwl", "knots": [[0.0, 0.0], {"q": 0.5, "value": 0.25}, [1.0, 1.0]]}
    return priors


JSON_PRIORS = json_priors()


def refused(want) -> bool:
    """Whether an outcome is a list of problems rather than a prior's columns."""
    return isinstance(want, list) and isinstance(want[0], str)


def test_the_corpus_holds_invalid_priors_of_both_kinds():
    invalid = [obj["kind"] for obj in JSON_PRIORS.values() if refused(frozen_outcome(frozen_from_json, obj))]
    assert invalid.count("discrete") >= 5 and invalid.count("pwl") >= 5


@pytest.mark.parametrize("name", sorted(JSON_PRIORS))
def test_json_priors_validate_as_the_frozen_validation(name):
    check_json(JSON_PRIORS[name])



# --------------------------------------------------------------------------
# seeded lists with several faults, and valid lists out of order


def faulty_atom(rng, v, p):
    """The atom ``(v, p)``, or one of the faults an atom can have."""
    fault = int(rng.integers(14))
    return [
        (v, p), (v, p), (v, p), (v, p),
        (int(v * 8), p),  # a Python int is a real number
        (v, -p),
        (math.nan, p),
        (v, math.nan),
        (math.inf, p),
        (v, True),
        ("0.5", p),
        (v, p, 0.0),
        None,
        {"value": v, "prob": p},
    ][fault]


@pytest.mark.parametrize("seed", range(40))
def test_atoms_with_several_faults_give_the_frozen_problems(seed):
    rng = np.random.default_rng([seed, 11])
    n = int(rng.integers(1, 12))
    values, probs = rng.uniform(-1.0, 1.0, n).tolist(), rng.dirichlet(np.ones(n)).tolist()
    atoms = [faulty_atom(rng, v, p) for v, p in zip(values, probs)]
    check_atoms(atoms)
    if all(type(a) is tuple and len(a) == 2 for a in atoms):
        check_json({"kind": "discrete", "atoms": [list(a) for a in atoms]})


@pytest.mark.parametrize("off", [-2e-12, 2e-12, -5e-13, 5e-13, 0.5, -0.5])
@pytest.mark.parametrize("seed", range(5))
def test_masses_whose_sum_is_off_give_the_frozen_problems(seed, off):
    rng = np.random.default_rng([seed, 12])
    n = int(rng.integers(1, 300))
    values, probs = np.sort(rng.uniform(0.0, 1.0, n)).tolist(), rng.dirichlet(np.ones(n)).tolist()
    probs[int(rng.integers(n))] += off
    want = check_atoms(list(zip(values, probs)))
    assert refused(want) == (abs(off) > PROB_TOL or any(p < 0.0 for p in probs))
    check_json({"kind": "discrete", "atoms": [{"value": v, "prob": p} for v, p in zip(values, probs)]})


@pytest.mark.parametrize("seed", range(30))
def test_valid_atoms_out_of_order_normalize_as_before(seed):
    # unsorted values, repeated values, zero masses and masses past a cumulative sum of 1
    rng = np.random.default_rng([seed, 13])
    n = int(rng.integers(1, 40))
    values = rng.choice(np.round(rng.uniform(-1.0, 1.0, n), 1), n).tolist()
    probs = rng.dirichlet(np.ones(n)).tolist()
    for i in rng.integers(0, n, int(rng.integers(0, 3))).tolist():
        probs[i] = 0.0
    if seed % 3 == 0:
        values.append(max(values) + 1.0)
        probs.append(1e-300)
    if sum(probs) == 0.0:
        probs[0] = 1.0
    total = math.fsum(probs)
    probs = [p / total for p in probs]
    atoms = list(zip(values, probs))
    rng.shuffle(atoms)
    want = check_atoms(atoms)
    assert not refused(want)
    check_json({"kind": "discrete", "atoms": [{"value": v, "prob": p} for v, p in atoms]})
    # in order, repeated values side by side
    check_json({"kind": "discrete", "atoms": [{"value": v, "prob": p} for v, p in sorted(atoms, key=lambda a: a[0])]})
    # the sorted, merged atoms take the builtin passes, to the same prior
    assert check_atoms([tuple(a) for a in zip(*[[float.fromhex(x) for x in column] for column in want])]) == want


def faulty_knot(rng, q, v):
    fault = int(rng.integers(12))
    return [
        (q, v), (q, v), (q, v), (q, v),
        (q, int(v * 8)),
        (math.nan, v),
        (q, math.inf),
        (q, -v - 2.0),  # out of order
        (False, v),
        (q, "1"),
        (q,),
        [q, v],
    ][fault]


@pytest.mark.parametrize("seed", range(40))
def test_knots_with_several_faults_give_the_frozen_problems(seed):
    rng = np.random.default_rng([seed, 14])
    n = int(rng.integers(1, 12))
    qs = np.linspace(0.0, 1.0, n).tolist()
    vals = np.sort(rng.uniform(-1.0, 1.0, n)).tolist()
    knots = [faulty_knot(rng, q, v) for q, v in zip(qs, vals)]
    check_knots(knots)
    if all(type(k) in (tuple, list) and len(k) == 2 for k in knots):
        check_json({"kind": "pwl", "knots": [list(k) for k in knots]})


def ulp_grid(rng, n):
    """A q-grid from 0 to 1 with knots one ulp apart, repeated, or whose mirror images 1 - q coincide."""
    qs = np.sort(rng.uniform(0.0, 1.0, n)).tolist()
    i = int(rng.integers(n))
    kind = int(rng.integers(4))
    if kind == 0:
        qs.insert(i, qs[i])  # repeated
    elif kind == 1:
        qs.insert(i + 1, math.nextafter(qs[i], 1.0))  # one ulp above, where 1 - q may coincide
    elif kind == 2:
        qs.insert(i, qs[i] * 0.5)  # out of order once the grid is sorted no more
        qs[i], qs[i + 1] = qs[i + 1], qs[i]
    # ends within PROB_TOL of 0 and 1 are set to 0 and 1; 2e-12 off is refused
    first = float(rng.choice([0.0, 0.0, 0.0, 1e-13, -1e-13, 2e-12]))
    return [first, *qs, 1.0 + float(rng.choice([0.0, 0.0, 0.0, 1e-13, -1e-13, -3e-12]))]


@pytest.mark.parametrize("seed", range(40))
def test_knot_grids_with_faults_give_the_frozen_problems(seed):
    rng = np.random.default_rng([seed, 15])
    qs = ulp_grid(rng, int(rng.integers(1, 10)))
    vals = np.sort(rng.uniform(-1.0, 1.0, len(qs))).tolist()
    if seed % 4 == 1:
        vals[int(rng.integers(len(vals)))] = 1e300 if seed % 8 == 1 else -2.0  # steep, or out of order
    if seed % 4 == 2:
        vals[-1] = vals[-2] = 1.7e308  # a segment whose slope overflows
    knots = list(zip(qs, vals))
    check_knots(knots)
    check_json({"kind": "pwl", "knots": [{"q": q, "value": v} for q, v in knots]})
