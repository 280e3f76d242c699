"""Traced runs: spans around the library's public functions, from outside it.

``Tracer.install`` replaces each function at the names the library's
modules import it under (``tradegains.cli.verify_bounds``,
``tradegains.geometry.equilibrium``, ``tradegains.mechanism.expect``, ...)
with a wrapper that records a span; ``Tracer.remove`` puts the originals
back. No file of the library changes.

A span records its name, start, end, parent span, operation id and the time
covered by its children, so its self time is ``end - start - child``. Hot
leaf calls (best responses, fixed-v decompositions and the integrand
callbacks of ``expect``) are too many to keep one by one: they are counted
and timed into the nearest recorded span instead. Spans stay in memory in
flat arrays and are written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import defaultdict

import numpy as np

now = time.perf_counter_ns

#: (module, attribute, span name, leaf) for every wrapped call site.
SITES = (
    ("cli", "verify_bounds", "geometry.verify_bounds", False),
    ("cli", "aggregate_decomposition", "geometry.aggregate_decomposition", False),
    ("cli", "decompose_fixed_v", "geometry.decompose_fixed_v", True),
    ("cli", "equilibrium", "mechanism.equilibrium", False),
    ("cli", "first_best", "mechanism.first_best", False),
    ("cli", "guarantee_check", "ratio.guarantee_check", False),
    ("cli", "optimize_lambda", "ratio.optimize_lambda", False),
    ("cli", "ratio_bound", "ratio.ratio_bound", True),
    ("cli", "simulate_fb", "montecarlo.simulate_fb", False),
    ("cli", "simulate_mechanism", "montecarlo.simulate_mechanism", False),
    ("cli", "worst_case_search", "search.worst_case_search", False),
    ("geometry", "equilibrium", "mechanism.equilibrium", False),
    ("geometry", "expect", "distributions.expect", False),
    ("geometry", "buyer_best_response", "mechanism.best_response", True),
    ("geometry", "buyer_response_breakpoints", "mechanism.breakpoints", False),
    ("geometry", "decompose_fixed_v", "geometry.decompose_fixed_v", True),
    ("mechanism", "expect", "distributions.expect", False),
    ("mechanism", "first_best", "mechanism.first_best", False),
    ("mechanism", "buyer_best_response", "mechanism.best_response", True),
    ("mechanism", "seller_best_response", "mechanism.best_response", True),
    ("mechanism", "buyer_response_breakpoints", "mechanism.breakpoints", False),
    ("mechanism", "seller_response_breakpoints", "mechanism.breakpoints", False),
    ("ratio", "equilibrium", "mechanism.equilibrium", False),
    ("montecarlo", "buyer_best_response", "mechanism.best_response", True),
    ("montecarlo", "seller_best_response", "mechanism.best_response", True),
    ("search", "equilibrium", "mechanism.equilibrium", False),
)

CLI_RUN = "cli.run"
#: Unit of each per-layer metric; "/op" figures are per completed operation.
UNITS = {
    "distributions.expect.calls": "count/op",
    "distributions.expect.integrand_evals": "count/op",
    "distributions.expect.self_ms": "ms/op",
    "distributions.cdf.ns": "ns",
    "distributions.quantile.ns": "ns",
    "distributions.integrate_quantile.ns": "ns",
    "distributions.cdf_many.ns_per_elem": "ns",
    "mechanism.breakpoints.count": "count/op",
    "mechanism.breakpoints.ms": "ms/op",
    "mechanism.breakpoints.discarded": "count/op",
    "mechanism.best_response.calls": "count/op",
    "mechanism.best_response.us_per_call": "us",
    "mechanism.equilibrium.calls": "count/op",
    "mechanism.equilibrium.self_ms": "ms/op",
    "mechanism.equilibrium.scaling_slope": "ratio",
    "geometry.decompose_fixed_v.calls": "count/op",
    "geometry.decompose_fixed_v.us_per_call": "us",
    "geometry.verify_bounds.self_ms": "ms/op",
    "ratio.guarantee_check.ms": "ms/op",
    "montecarlo.simulate_mechanism.ns_per_trial": "ns",
    "montecarlo.simulate_fb.ns_per_trial": "ns",
    "search.evaluations": "count",
    "search.equilibrium_share": "ratio",
    "cli.overhead_ms": "ms/op",
    "trace.overhead_pct": "%",
}
INTEGRAND = "distributions.expect.integrand"
#: Span attributes: breakpoints returned, breakpoints handed to ``expect``
#: over a discrete prior (which ignores them), and simulated trials.
ATTR_BREAKPOINTS, ATTR_DISCARDED, ATTR_TRIALS = 0, 1, 2


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.op = -1
        self._next_id = 0
        self._stack: list[list] = []
        self._saved: list[tuple] = []
        # recorded spans, one entry per array each
        self.s_id, self.s_name, self.s_start, self.s_end = array("q"), array("q"), array("q"), array("q")
        self.s_parent, self.s_op, self.s_child = array("q"), array("q"), array("q")
        # leaf calls folded into their nearest recorded span
        self.l_span, self.l_name, self.l_count = array("q"), array("q"), array("q")
        self.l_total, self.l_self = array("q"), array("q")
        # span attributes
        self.a_span, self.a_key, self.a_value = array("q"), array("q"), array("q")

    def _intern(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    # -- frames ------------------------------------------------------------

    def enter(self, name_idx: int, leaf: bool) -> list:
        parent = self._stack[-1] if self._stack else None
        if leaf:
            frame = [-1, name_idx, 0, 0, None, parent[5] if parent else None]
        else:
            frame = [self._next_id, name_idx, 0, 0, {}, None]
            frame[5] = frame
            self._next_id += 1
        self._stack.append(frame)
        frame[2] = now()
        return frame

    def exit(self, frame: list, attrs=()) -> None:
        end = now()
        self._stack.pop()
        dur = end - frame[2]
        if self._stack:
            self._stack[-1][3] += dur
        if frame[0] < 0:
            owner = frame[5]
            if owner is not None:
                agg = owner[4].get(frame[1])
                if agg is None:
                    agg = owner[4][frame[1]] = [0, 0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[3]
            return
        sid = frame[0]
        parent = self._stack[-1][5] if self._stack else None
        self.s_id.append(sid)
        self.s_name.append(frame[1])
        self.s_start.append(frame[2])
        self.s_end.append(end)
        self.s_parent.append(parent[0] if parent is not None else -1)
        self.s_op.append(self.op)
        self.s_child.append(frame[3])
        for name_idx, (count, total, own) in frame[4].items():
            self.l_span.append(sid)
            self.l_name.append(name_idx)
            self.l_count.append(count)
            self.l_total.append(total)
            self.l_self.append(own)
        for key, value in attrs:
            self.a_span.append(sid)
            self.a_key.append(key)
            self.a_value.append(value)

    def reset_stack(self) -> None:
        """Drop frames left open by an interrupted operation."""
        self._stack.clear()

    def call(self, name: str, fn, *args):
        frame = self.enter(self._intern(name), False)
        try:
            return fn(*args)
        finally:
            self.exit(frame)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str, leaf: bool):
        idx = self._intern(name)
        tracer = self

        if name == "distributions.expect":
            integrand_idx = self._intern(INTEGRAND)

            def wrapper(dist, f, breakpoints=(), *args, **kwargs):
                def traced_f(x):
                    inner = tracer.enter(integrand_idx, True)
                    try:
                        return f(x)
                    finally:
                        tracer.exit(inner)

                frame = tracer.enter(idx, False)
                attrs = ()
                try:
                    if dist.kind == "discrete":
                        attrs = ((ATTR_DISCARDED, len(breakpoints)),)
                    return fn(dist, traced_f, breakpoints, *args, **kwargs)
                finally:
                    tracer.exit(frame, attrs)

        elif name == "mechanism.breakpoints":

            def wrapper(*args, **kwargs):
                frame = tracer.enter(idx, False)
                out = None
                try:
                    out = fn(*args, **kwargs)
                    return out
                finally:
                    tracer.exit(frame, ((ATTR_BREAKPOINTS, len(out)),) if out is not None else ())

        elif name.startswith("montecarlo.simulate"):

            def wrapper(instance, trials, seed):
                frame = tracer.enter(idx, False)
                try:
                    return fn(instance, trials, seed)
                finally:
                    tracer.exit(frame, ((ATTR_TRIALS, int(trials)),))

        else:

            def wrapper(*args, **kwargs):
                frame = tracer.enter(idx, leaf)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.exit(frame)

        return wrapper

    def install(self) -> None:
        import importlib

        for module_name, attr, name, leaf in SITES:
            module = importlib.import_module(f"{self.package}.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, leaf))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as gzip'd JSON lines.

        The first line names the columns and maps name ids to names; then
        one array per span, one per folded leaf total and one per attribute.
        """
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({
                "span": ["id", "name", "start_ns", "end_ns", "parent", "op", "child_ns"],
                "leaf": ["span", "name", "count", "total_ns", "self_ns"],
                "attr": ["span", "key", "value"],
                "names": self.names,
                "keys": ["breakpoints", "discarded", "trials"],
            }) + "\n")
            for kind, columns in (
                ("span", (self.s_id, self.s_name, self.s_start, self.s_end, self.s_parent, self.s_op, self.s_child)),
                ("leaf", (self.l_span, self.l_name, self.l_count, self.l_total, self.l_self)),
                ("attr", (self.a_span, self.a_key, self.a_value)),
            ):
                for row in zip(*columns):
                    fh.write(f'["{kind}",{",".join(map(str, row))}]\n')

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self, ops: dict[int, str]) -> dict[str, float]:
        """Per-operation layer figures over the spans of ``ops`` (id -> kind).

        Only operations that completed are passed in: an interrupted one
        stops at a time-dependent point, so its counts would not repeat.
        """
        n_ops = max(len(ops), 1)
        s_op = np.frombuffer(self.s_op, dtype=np.int64)
        keep = np.isin(s_op, np.fromiter(ops, dtype=np.int64, count=len(ops)))
        ids = np.frombuffer(self.s_id, dtype=np.int64)[keep]
        names = np.frombuffer(self.s_name, dtype=np.int64)[keep]
        dur = (np.frombuffer(self.s_end, dtype=np.int64) - np.frombuffer(self.s_start, dtype=np.int64))[keep]
        own = dur - np.frombuffer(self.s_child, dtype=np.int64)[keep]
        parents = np.frombuffer(self.s_parent, dtype=np.int64)[keep]
        kept_ids = set(ids.tolist())

        def idx(name):
            return self._index.get(name, -1)

        def total(arr, name):
            return float(arr[names == idx(name)].sum())

        def count(name):
            return int(np.count_nonzero(names == idx(name)))

        leaf_count = defaultdict(int)
        leaf_total = defaultdict(int)
        for sid, n, c, t in zip(self.l_span, self.l_name, self.l_count, self.l_total):
            if sid in kept_ids:
                leaf_count[self.names[n]] += c
                leaf_total[self.names[n]] += t
        attr_sum = defaultdict(int)
        trials_by_name = defaultdict(int)
        name_of = dict(zip(ids.tolist(), names.tolist()))
        for sid, key, value in zip(self.a_span, self.a_key, self.a_value):
            if sid in kept_ids:
                attr_sum[key] += value
                if key == ATTR_TRIALS:
                    trials_by_name[self.names[name_of[sid]]] += value

        search_ids = ids[names == idx("search.worst_case_search")]
        in_search = (names == idx("mechanism.equilibrium")) & np.isin(parents, search_ids)
        search_ops = sum(1 for kind in ops.values() if kind == "search")

        def per_call_us(name):
            calls = leaf_count[name]
            return leaf_total[name] / calls / 1e3 if calls else 0.0

        def ns_per_trial(name):
            trials = trials_by_name[name]
            return total(dur, name) / trials if trials else 0.0

        search_ns = total(dur, "search.worst_case_search")
        return {
            "distributions.expect.calls": count("distributions.expect") / n_ops,
            "distributions.expect.integrand_evals": leaf_count[INTEGRAND] / n_ops,
            "distributions.expect.self_ms": total(own, "distributions.expect") / n_ops / 1e6,
            "mechanism.breakpoints.count": attr_sum[ATTR_BREAKPOINTS] / n_ops,
            "mechanism.breakpoints.ms": total(dur, "mechanism.breakpoints") / n_ops / 1e6,
            "mechanism.breakpoints.discarded": attr_sum[ATTR_DISCARDED] / n_ops,
            "mechanism.best_response.calls": leaf_count["mechanism.best_response"] / n_ops,
            "mechanism.best_response.us_per_call": per_call_us("mechanism.best_response"),
            "mechanism.equilibrium.calls": count("mechanism.equilibrium") / n_ops,
            "mechanism.equilibrium.self_ms": total(own, "mechanism.equilibrium") / n_ops / 1e6,
            "geometry.decompose_fixed_v.calls": leaf_count["geometry.decompose_fixed_v"] / n_ops,
            "geometry.decompose_fixed_v.us_per_call": per_call_us("geometry.decompose_fixed_v"),
            "geometry.verify_bounds.self_ms": total(own, "geometry.verify_bounds") / n_ops / 1e6,
            "ratio.guarantee_check.ms": total(dur, "ratio.guarantee_check") / n_ops / 1e6,
            "montecarlo.simulate_mechanism.ns_per_trial": ns_per_trial("montecarlo.simulate_mechanism"),
            "montecarlo.simulate_fb.ns_per_trial": ns_per_trial("montecarlo.simulate_fb"),
            "search.evaluations": int(np.count_nonzero(in_search)) / search_ops if search_ops else 0.0,
            "search.equilibrium_share": float(dur[in_search].sum()) / search_ns if search_ns else 0.0,
            "cli.overhead_ms": total(own, CLI_RUN) / n_ops / 1e6,
        }


# --------------------------------------------------------------------------
# probes: workload-independent micro-measurements of single primitives


def _best_ns(fn, repeats: int) -> int:
    best = None
    for _ in range(repeats):
        t0 = now()
        fn()
        t = now() - t0
        best = t if best is None or t < best else best
    return best


def probe_metrics(tg) -> dict[str, float]:
    """Scalar and vectorised primitive costs, and the equilibrium scaling slope.

    Priors and instances come from a fixed seed, so the probes measure the
    same work in every run and every workload.
    """
    rng = np.random.default_rng(20250806)
    values = np.sort(rng.uniform(0.0, 1.0, 512))
    disc = tg.DiscreteDistribution.from_atoms(zip(values.tolist(), rng.dirichlet(np.ones(512)).tolist()))
    knots = tg.PiecewiseLinearDistribution.from_knots(
        zip(np.linspace(0.0, 1.0, 32).tolist(), np.sort(rng.uniform(0.0, 1.0, 32)).tolist())
    )
    points = rng.uniform(0.0, 1.0, 2000).tolist()
    array_points = rng.uniform(0.0, 1.0, 1 << 16)
    out = {}
    for metric, method, args in (
        ("distributions.cdf.ns", "cdf", lambda p: (p,)),
        ("distributions.quantile.ns", "quantile", lambda p: (p,)),
        ("distributions.integrate_quantile.ns", "integrate_quantile", lambda p: (0.0, p)),
    ):
        per_call = []
        for dist in (disc, knots):
            fn = getattr(dist, method)
            calls = [args(p) for p in points]
            per_call.append(_best_ns(lambda: [fn(*a) for a in calls], 5) / len(calls))
        out[metric] = sum(per_call) / len(per_call)
    out["distributions.cdf_many.ns_per_elem"] = sum(
        _best_ns(lambda d=d: d.cdf_many(array_points), 5) / array_points.size for d in (disc, knots)
    ) / 2

    sizes = (8, 16, 32, 64, 128, 256, 512)
    times = []
    for n in sizes:
        r = np.random.default_rng([20250806, n])
        sides = [
            tg.DiscreteDistribution.from_atoms(
                zip(np.sort(r.uniform(0.0, 1.0, n)).tolist(), r.dirichlet(np.ones(n)).tolist())
            )
            for _ in range(2)
        ]
        inst = tg.TradeInstance(buyer=sides[0], seller=sides[1])
        times.append(_best_ns(lambda: tg.equilibrium(inst), 5 if n <= 64 else 2 if n <= 128 else 1))
    slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    out["mechanism.equilibrium.scaling_slope"] = float(slope)
    return out
