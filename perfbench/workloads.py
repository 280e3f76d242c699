"""Workload definitions: seeded instances and the CLI operations run on them.

An instance is a plain dict ``{"buyer": prior, "seller": prior}`` where a
prior is ``{"kind": "discrete", "values": ndarray, "probs": ndarray}`` or
``{"kind": "pwl", "qs": ndarray, "vals": ndarray}``. The benchmark writes
it in the CLI's JSON format and keeps the arrays for the oracles, so no
check reads an instance back through the library.

A round is the fixed list of operations of a workload; every run attempts
whole rounds, so the share of failed operations does not depend on the run
length. Only ``--seed`` changes the generated values; the make-up of a
round (sizes, knot and atom counts, the fixed pwl x pwl set) does not.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

LAMBDA = "0.31784"
SWEEP_GRID = "0.05:0.95:19"
#: Trials per ``simulate`` operation: 0.1 s operations, timed many times per
#: run (1e6-trial ones take 0.5 s and spread more; see README.md).
MC_TRIALS = 250_000


@dataclass(frozen=True)
class Op:
    """One operation: CLI calls run back to back and timed as one."""

    name: str
    kind: str  # "instance", "search" or "simulate"
    calls: tuple[tuple[str, ...], ...]
    instance: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    budget_s: float  # per-operation time budget, enforced by run.py
    build: object  # (seed, directory) -> (instances, ops)
    host_kernel: str = "interpreter"  # the hostspeed kernel whose slowdowns the operations share


# --------------------------------------------------------------------------
# priors


def discrete(values, probs) -> dict:
    return {"kind": "discrete", "values": np.asarray(values, float), "probs": np.asarray(probs, float)}


def pwl(qs, vals) -> dict:
    return {"kind": "pwl", "qs": np.asarray(qs, float), "vals": np.asarray(vals, float)}


def conftest_discrete(rng, max_atoms=8) -> dict:
    """Draw for draw the ``random_discrete`` generator of ``tests/conftest.py``."""
    n = int(rng.integers(1, max_atoms + 1))
    values = np.unique(rng.uniform(0.0, 1.0, n))
    return discrete(values, rng.dirichlet(np.ones(len(values))))


def random_discrete(rng, n) -> dict:
    values = np.unique(rng.uniform(0.0, 1.0, n))
    return discrete(values, rng.dirichlet(np.ones(len(values))))


def random_pwl(rng, k) -> dict:
    """The pwl generator of ROADMAP item 1: linspace q-knots, sorted uniform values."""
    return pwl(np.linspace(0.0, 1.0, k), np.sort(rng.uniform(0.0, 1.0, k)))


def canonical(atoms=64) -> dict:
    """The library's canonical midpoint discretization of uniform x uniform."""
    d = discrete([(2 * i + 1) / (2 * atoms) for i in range(atoms)], [1.0 / atoms] * atoms)
    return {"buyer": d, "seller": d}


UNIFORM = pwl([0.0, 1.0], [0.0, 1.0])
#: uniform x uniform: the buyer offers v/2 and the seller (1 + c)/2.
UU_CLOSED_FORM = {"fb": 1 / 6, "gft": 1 / 8, "u_buyer": 1 / 12, "u_seller": 1 / 12}


def prior_json(d: dict) -> dict:
    if d["kind"] == "discrete":
        return {
            "kind": "discrete",
            "atoms": [{"value": v, "prob": p} for v, p in zip(d["values"].tolist(), d["probs"].tolist())],
        }
    if d is UNIFORM:
        return {"kind": "uniform", "lo": 0.0, "hi": 1.0}
    return {"kind": "pwl", "knots": [{"q": q, "value": v} for q, v in zip(d["qs"].tolist(), d["vals"].tolist())]}


def write_instances(instances: dict, directory: str) -> dict[str, str]:
    """Write each instance as ``<directory>/<key>.json``; return key -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for key, inst in instances.items():
        path = os.path.join(directory, key + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"buyer": prior_json(inst["buyer"]), "seller": prior_json(inst["seller"])}, fh)
        paths[key] = path
    return paths


def _exact_ops(keys, paths) -> list[Op]:
    return [
        Op(k, "instance", (("eq", "--instance", paths[k]), ("verify", "--instance", paths[k], "--lambda", LAMBDA)), k)
        for k in keys
    ]


# --------------------------------------------------------------------------
# workloads

#: Instances per sweep-small round. The conftest generator draws 1-8 atoms
#: per side, so operation times spread from ~3 to ~15 ms; with 100 instances
#: the median moved by ~7% from one seed's corpus to another's, and that
#: shrinks as 1/sqrt(instances).
SMALL_INSTANCES = 400
#: Search run of each sweep-small round: restart 0 climbs from the canonical
#: 64-atom instance, the others from random 8-atom instances.
SEARCH_ARGS = ("--atoms", "8", "--iters", "30", "--restarts", "3")


def build_sweep_small(seed: int, directory: str):
    instances = {}
    for i in range(SMALL_INSTANCES):
        rng = np.random.default_rng(seed * 100_000 + i)  # conftest's random_discrete_instance(seed)
        instances[f"s{i:03d}"] = {"buyer": conftest_discrete(rng), "seller": conftest_discrete(rng)}
    paths = write_instances(instances, directory)
    ops = [
        Op(
            k,
            "instance",
            (
                ("sweep", "--instance", paths[k], "--lambda-grid", SWEEP_GRID),
                ("verify", "--instance", paths[k], "--lambda", LAMBDA),
            ),
            k,
        )
        for k in instances
    ]
    ops.append(Op("search", "search", (("search", *SEARCH_ARGS, "--seed", str(seed)),)))
    return instances, ops


#: Atoms per side of the random discrete-large instances; the round also
#: holds the canonical 64-atom instance.
LARGE_ATOMS = (128, 192, 256)


def build_discrete_large(seed: int, directory: str):
    instances = {"c064": canonical()}
    for n in LARGE_ATOMS:
        rng = np.random.default_rng([seed, n])
        instances[f"d{n:03d}"] = {"buyer": random_discrete(rng, n), "seller": random_discrete(rng, n)}
    paths = write_instances(instances, directory)
    return instances, _exact_ops(instances, paths)


#: Knot counts of the seeded pwl x discrete and discrete x pwl instances.
PWL_KNOTS = (3, 4, 6, 8, 12, 16, 24, 32)
#: Atoms of the discrete side of the mixed instances.
PWL_OPPONENT_ATOMS = 4
#: Mixed instances per knot count and orientation. Their times spread from
#: 4 to 60 ms, so the median of 96 moved by ~11% from seed to seed; with
#: 288, ten runs with ten seeds spread by 6-7% in all.
PWL_PER_KNOTS = 18
#: Fixed pwl x pwl instances ``(rng seed, knots)``, not drawn from ``--seed``:
#: ``random_pwl(default_rng(s), k)`` for the buyer, then the seller. (1, 3) is
#: ROADMAP item 1's reproduction; it and (0, 32) make ``equilibrium`` run for
#: minutes today, while (0, 3) and (4, 6) finish in milliseconds.
PWL_PAIRS = ((0, 3), (1, 3), (4, 6), (0, 32))


def build_pwl_exact(seed: int, directory: str):
    instances = {}
    rng = np.random.default_rng([seed, 1])
    for k in PWL_KNOTS:
        for j in range(PWL_PER_KNOTS):
            instances[f"pd{k:02d}{j}"] = {"buyer": random_pwl(rng, k), "seller": random_discrete(rng, PWL_OPPONENT_ATOMS)}
            instances[f"dp{k:02d}{j}"] = {"buyer": random_discrete(rng, PWL_OPPONENT_ATOMS), "seller": random_pwl(rng, k)}
    for s, k in PWL_PAIRS:
        pair_rng = np.random.default_rng(s)
        instances[f"pp{s}-{k:02d}"] = {"buyer": random_pwl(pair_rng, k), "seller": random_pwl(pair_rng, k)}
    paths = write_instances(instances, directory)
    return instances, _exact_ops(instances, paths)


#: ``simulate`` seeds per instance and round, drawn from ``--seed``: the
#: median of nine operations moves less from seed to seed than that of three.
MC_SEEDS = 3


def build_montecarlo(seed: int, directory: str):
    rng = np.random.default_rng([seed, 2])
    instances = {
        "c064": canonical(),
        "uu": {"buyer": UNIFORM, "seller": UNIFORM, "closed_form": UU_CLOSED_FORM},
        "pd32": {"buyer": random_pwl(rng, 32), "seller": random_discrete(rng, 32)},
    }
    paths = write_instances(instances, directory)
    ops = [
        Op(
            f"{k}-{j}",
            "simulate",
            (("simulate", "--instance", paths[k], "--trials", str(MC_TRIALS), "--seed", str(MC_SEEDS * seed + j)),),
            k,
        )
        for j in range(MC_SEEDS)
        for k in instances
    ]
    return instances, ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-small", 10.0, build_sweep_small),
        Workload("discrete-large", 60.0, build_discrete_large),
        Workload("pwl-exact", 1.0, build_pwl_exact),
        Workload("montecarlo", 60.0, build_montecarlo, "vector"),
    )
}
