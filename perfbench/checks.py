"""Checks of every CLI output against the oracles and the proven properties.

``check_outputs`` returns, per operation name, the problems found in that
operation's outputs; an empty result means every output checked out. It
runs after the timed region.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracles
from oracles import EXACT_TOL, MC_SIGMAS, QUAD_TOL, SLACK_TOL, close


def _lambda_grid(text: str) -> list[float]:
    a, b, n = text.split(":")
    a, b, n = float(a), float(b), int(n)
    step = (b - a) / (n - 1)
    return [a + i * step for i in range(n - 1)] + [b]


class Checker:
    def __init__(self, instances: dict, eq_output):
        """``eq_output(key)`` runs ``eq`` on an instance and returns its JSON."""
        self.instances = instances
        self.eq_output = eq_output
        self.rstar = oracles.ratio_star()
        self._refs: dict[str, dict] = {}
        self._geo: dict[tuple[str, float], dict] = {}

    def reference(self, key: str) -> dict:
        ref = self._refs.get(key)
        if ref is None:
            inst = self.instances[key]
            if inst["buyer"]["kind"] == inst["seller"]["kind"] == "discrete":
                ref = {"exact": oracles.discrete_reference(inst)}
            else:
                ref = {"fb": oracles.first_best_quad(inst), "grid": oracles.grid_utilities(inst)}
            self._refs[key] = ref
        return ref

    # -- shared field checks ------------------------------------------------

    def _equilibrium_fields(self, out: dict, ref: dict, problems: list, where: str) -> None:
        fb, gft = out["fb"], out["gft"]
        tol = SLACK_TOL * max(1.0, abs(fb))
        if "exact" in ref:
            for field in ("fb", "gft", "u_buyer", "u_seller", "gft_buyer_proposes", "gft_seller_proposes"):
                if field in out and not close(out[field], ref["exact"][field]):
                    problems.append(f"{where}: {field} {out[field]!r} != atom-pair {ref['exact'][field]!r}")
        else:
            if not close(fb, ref["fb"], QUAD_TOL):
                problems.append(f"{where}: fb {fb!r} != quadrature {ref['fb']!r}")
            for field in ("u_buyer", "u_seller"):
                low, high = ref["grid"][field]
                if not low <= out[field] <= high:
                    problems.append(f"{where}: {field} {out[field]!r} outside grid bracket [{low!r}, {high!r}]")
        if gft < fb / self.rstar - tol:
            problems.append(f"{where}: gft {gft!r} < fb / {self.rstar!r}")
        if gft < fb / 4.0 - tol:
            problems.append(f"{where}: gft {gft!r} < fb / 4")
        if gft > fb + tol:
            problems.append(f"{where}: gft {gft!r} > fb {fb!r}")

    def _slacks(self, lam: float, fb, gft, u_b, u_s, area_a, u_s_geom, slacks: dict, problems: list, where: str):
        log_term = math.log(1.0 / lam)
        tol = SLACK_TOL * max(1.0, abs(fb))
        if abs(slacks["identity"]) > tol:
            problems.append(f"{where}: identity slack {slacks['identity']!r}")
        for name, value in slacks.items():
            if name != "identity" and value < -tol:
                problems.append(f"{where}: slack {name} = {value!r} < 0")
        expected = {
            "identity": u_s_geom + area_a - (1.0 - lam) * fb,
            "area_log": u_b * log_term - area_a,
            "avg": u_s + u_b * log_term - (1.0 - lam) * fb,
            "gft_floor": gft - (1.0 - lam) * fb / (1.0 + log_term),
        }
        for name, value in expected.items():
            if not close(slacks[name], value):
                problems.append(f"{where}: slack {name} {slacks[name]!r} != {value!r} from the reported fields")
        # computed on the role-swapped instance, so equal only up to roundoff
        swap = u_b + u_s * log_term - (1.0 - lam) * fb
        if not close(slacks["avg_swap"], swap, SLACK_TOL):
            problems.append(f"{where}: slack avg_swap {slacks['avg_swap']!r} != {swap!r}")

    def _geometry(self, key: str, lam: float, area_a, u_s_geom, problems: list, where: str) -> None:
        if "exact" not in self.reference(key):
            return
        geo = self._geo.get((key, lam))
        if geo is None:
            geo = self._geo[key, lam] = oracles.discrete_geometry(self.instances[key], lam)
        if not close(area_a, geo["mean_area_A"]):
            problems.append(f"{where}: E[area_A] {area_a!r} != atom-pair {geo['mean_area_A']!r}")
        if not close(u_s_geom, geo["mean_u_S_geom"]):
            problems.append(f"{where}: E[u_S_geom] {u_s_geom!r} != atom-pair {geo['mean_u_S_geom']!r}")

    # -- per command --------------------------------------------------------

    def eq(self, key: str, argv, out: dict, problems: list) -> None:
        ref = self.reference(key)
        self._equilibrium_fields(out, ref, problems, "eq")
        if not close(out["gft"], 0.5 * (out["gft_buyer_proposes"] + out["gft_seller_proposes"])):
            problems.append("eq: gft is not the mean of the two proposer sides")
        tol = SLACK_TOL * max(1.0, abs(out["fb"]))
        if out["u_buyer"] > out["gft_buyer_proposes"] + tol or out["u_seller"] > out["gft_seller_proposes"] + tol:
            problems.append("eq: a proposer's utility exceeds the gains from trade of its side")

    def verify(self, key: str, argv, out: dict, problems: list) -> None:
        lam = float(argv[argv.index("--lambda") + 1])
        ref = self.reference(key)
        if out["lambda"] != lam:
            problems.append(f"verify: lambda {out['lambda']!r} != {lam!r}")
        self._equilibrium_fields(out, ref, problems, "verify")
        self._slacks(lam, out["fb"], out["gft"], out["u_buyer"], out["u_seller"], out["mean_area_A"],
                     out["mean_u_S_geom"], out["slacks"], problems, "verify")
        self._geometry(key, lam, out["mean_area_A"], out["mean_u_S_geom"], problems, "verify")
        tol = SLACK_TOL * max(1.0, abs(out["fb"]))
        for name, bound in (("margin_315", out["fb"] / self.rstar), ("margin_4", out["fb"] / 4.0)):
            if not close(out[name], out["gft"] - bound):
                problems.append(f"verify: {name} {out[name]!r} != gft - {bound!r}")
            if out[name] < -tol:
                problems.append(f"verify: {name} {out[name]!r} < 0")

    def sweep(self, key: str, argv, rows: list, problems: list) -> None:
        grid = _lambda_grid(argv[argv.index("--lambda-grid") + 1])
        ref = self.reference(key)
        if len(rows) != len(grid):
            problems.append(f"sweep: {len(rows)} rows for a {len(grid)}-point grid")
            return
        for lam, row in zip(grid, rows):
            where = f"sweep lambda={lam!r}"
            if row["lambda"] != lam:
                problems.append(f"{where}: row lambda {row['lambda']!r}")
            if not close(row["ratio_bound"], oracles.ratio_bound(lam)):
                problems.append(f"{where}: ratio_bound {row['ratio_bound']!r}")
            log_term = math.log(1.0 / lam)
            gft = row["slack_gft_floor"] + (1.0 - lam) * row["fb"] / (1.0 + log_term)
            fields = {"fb": row["fb"], "gft": gft, "u_buyer": row["u_B"], "u_seller": row["u_S"]}
            self._equilibrium_fields(fields, ref, problems, where)
            slacks = {name: row["slack_" + name] for name in ("identity", "area_log", "avg", "avg_swap", "gft_floor")}
            self._slacks(lam, row["fb"], gft, row["u_B"], row["u_S"], row["E_area_A"], row["E_u_S_geom"],
                         slacks, problems, where)
            self._geometry(key, lam, row["E_area_A"], row["E_u_S_geom"], problems, where)

    def search(self, argv, out: dict, problems: list) -> None:
        iters = int(argv[argv.index("--iters") + 1])
        restarts = int(argv[argv.index("--restarts") + 1])
        if out["evaluations"] != restarts * (iters + 1):
            problems.append(f"search: {out['evaluations']} evaluations for {restarts} x ({iters} + 1)")
        ceiling = self.rstar + 1e-6
        if not 1.0 - EXACT_TOL <= out["best_ratio"] <= ceiling:
            problems.append(f"search: best_ratio {out['best_ratio']!r} outside [1, {ceiling!r}]")
        traces = out["trace"]
        if len(traces) != restarts or any(len(t) != iters + 1 for t in traces):
            problems.append("search: trace shape does not match the configuration")
        elif any(b < a for t in traces for a, b in zip(t, t[1:])):
            problems.append("search: a best-so-far trace decreases")
        elif max(t[-1] for t in traces) != out["best_ratio"]:
            problems.append("search: best_ratio is not the best trace end")
        best = out["best_instance"]
        inst = {
            side: {
                "kind": "discrete",
                "values": np.array([a["value"] for a in best[side]["atoms"]]),
                "probs": np.array([a["prob"] for a in best[side]["atoms"]]),
            }
            for side in ("buyer", "seller")
        }
        exact = oracles.discrete_reference(inst)
        ratio = exact["fb"] / exact["gft"] if exact["fb"] > 0.0 else 1.0
        if not close(out["best_ratio"], ratio, 1e-9):
            problems.append(f"search: best_ratio {out['best_ratio']!r} != atom-pair fb/gft {ratio!r}")

    def simulate(self, key: str, argv, out: dict, problems: list) -> None:
        trials = int(argv[argv.index("--trials") + 1])
        inst = self.instances[key]
        if "closed_form" in inst:
            exact, source = inst["closed_form"], "closed form"
        else:
            ref = self.reference(key)
            if "exact" in ref:
                exact, source = ref["exact"], "atom-pair"
            else:
                # the exact pipeline, itself checked against the oracles here
                eq = self.eq_output(key)
                self.eq(key, ("eq",), eq, problems)
                exact, source = dict(eq, fb=ref["fb"]), "exact pipeline"
        mech = out["mechanism"]
        if out["fb"]["trials"] != trials or mech["trials"] != trials:
            problems.append("simulate: trial counts do not match --trials")
        if mech["u_buyer"]["trials"] + mech["u_seller"]["trials"] != trials:
            problems.append("simulate: proposer trial counts do not add up")
        for field, est in (("fb", out["fb"]), ("gft", mech["gft"]), ("u_buyer", mech["u_buyer"]),
                           ("u_seller", mech["u_seller"])):
            if abs(est["mean"] - exact[field]) > MC_SIGMAS * est["stderr"] + 1e-12:
                problems.append(
                    f"simulate: {field} {est['mean']!r} is more than {MC_SIGMAS} standard errors "
                    f"({est['stderr']!r}) from the {source} value {exact[field]!r}"
                )


def check_outputs(checker: Checker, ops, reference: dict) -> dict[str, str]:
    """Problems per operation name, for each operation with outputs."""
    failures = {}
    for op in {op.name: op for op in ops}.values():
        outputs = reference.get(op.name)
        if outputs is None:
            continue
        problems: list[str] = []
        try:
            for argv, text in zip(op.calls, outputs):
                out = json.loads(text)
                if op.kind == "search":
                    checker.search(argv, out, problems)
                elif op.kind == "simulate":
                    checker.simulate(op.instance, argv, out, problems)
                else:
                    getattr(checker, argv[0])(op.instance, argv, out, problems)
        except (KeyError, TypeError, ValueError, IndexError) as err:
            problems.append(f"malformed output: {err!r}")
        if problems:
            failures[op.name] = "; ".join(problems[:3])
    return failures
