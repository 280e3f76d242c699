"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one ``[PASS]``/``[FAIL]`` line (run with ``-s`` to see
them live). The random corpus is 1,000 seeded discrete x discrete instances
with at most 8 atoms per side and values in [0, 1], plus the two
piecewise-linear canonical instances.
"""

import math
import time

import numpy as np
import pytest

from tradegains import (
    SearchConfig,
    TradeInstance,
    decompose_fixed_v,
    equilibrium,
    key_lemma_margins,
    optimize_lambda,
    point,
    role_swap,
    seller_scaling_utility,
    simulate_fb,
    simulate_mechanism,
    uniform,
    verify_bounds,
    worst_case_search,
)

from tradegains.geometry import _decompose

from conftest import LAMBDA_GRID, random_discrete_instance

CORPUS_SIZE = 1000
#: The scaling parameters as a column, against which a row of values broadcasts.
LAM_COL = np.asarray(LAMBDA_GRID)[:, None]
#: ``_decompose``'s fields, named as in ``Decomposition``.
GRID_FIELDS = ("x_v", "b_lambda", "fb_v", "area_S", "area_B", "area_A", "u_S_geom", "u_B_dev")
#: Share of each lambda x value grid that is checked against ``decompose_fixed_v``.
SCALAR_SAMPLE = 0.05
RATIO_STAR = optimize_lambda(1e-12).ratio_star

UU = TradeInstance(buyer=uniform(0, 1), seller=uniform(0, 1))
P1U = TradeInstance(buyer=point(1.0), seller=uniform(0, 1))
PP = TradeInstance(buyer=point(1.0), seller=point(0.0))


def _report(criterion: int, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f": {detail}" if detail else ""
    print(f"[{tag}] criterion {criterion}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def _pwl_probe_values(buyer, grid=129):
    ts = sorted(set(buyer.qs) | {i / (grid - 1) for i in range(grid)})
    return sorted({buyer.quantile(t) for t in ts})


@pytest.fixture(scope="module")
def corpus_full():
    return [random_discrete_instance(seed) for seed in range(CORPUS_SIZE)]


@pytest.fixture(scope="module")
def suite_results(corpus_full):
    """One sweep over the corpus collecting every per-instance check.

    Each instance is decomposed once, over all of ``LAMBDA_GRID`` at once.
    """
    bad = {
        "identity": [],
        "inequality": [],
        "lemma": [],
        "guarantee": [],
        "swap": [],
    }
    log_terms = {lam: math.log(1.0 / lam) for lam in LAMBDA_GRID}

    def check_grid(label, probes, seller, seed):
        """Every fixed-v identity and inequality over the lambda x value grid; returns ``area_A``.

        The grid is one broadcast decomposition, with a row per lambda. A
        seeded sample of its points is then checked, field by field and bit
        for bit, against the public ``decompose_fixed_v``.
        """
        grid = dict(zip(GRID_FIELDS, _decompose(np.asarray(probes), seller, LAM_COL)))
        fb_v, area_s, area_b = grid["fb_v"], grid["area_S"], grid["area_B"]
        area_a, u_s_geom, u_b_dev = grid["area_A"], grid["u_S_geom"], grid["u_B_dev"]
        scaling = np.array([[seller_scaling_utility(v, seller, lam) for v in probes] for lam in LAMBDA_GRID])
        checks = (
            ("identity", "S+B", abs(area_s + area_b - fb_v) > 1e-9),
            ("identity", "uS+A", abs(u_s_geom + area_a - (1.0 - LAM_COL) * fb_v) > 1e-9 * np.maximum(1.0, fb_v)),
            ("inequality", "u_S_geom", u_s_geom < (1.0 - LAM_COL) * area_s - 1e-9),
            ("inequality", "u_B_dev", u_b_dev < LAM_COL * area_b - 1e-9),
            ("inequality", "scaling", scaling < u_s_geom - 1e-9),
        )
        # lambda by lambda, value by value, check by check
        for i, j in zip(*np.nonzero(np.logical_or.reduce([failed for *_, failed in checks]))):
            for kind, tag, failed in checks:
                if failed[i, j]:
                    bad[kind].append((label, LAMBDA_GRID[i], probes[j], tag))

        size = len(LAMBDA_GRID) * len(probes)
        sample = np.random.default_rng(seed).choice(size, max(1, round(SCALAR_SAMPLE * size)), replace=False)
        for i, j in zip(*np.unravel_index(sample, (len(LAMBDA_GRID), len(probes)))):
            d = decompose_fixed_v(probes[j], seller, LAMBDA_GRID[i])
            for name, field in grid.items():
                # x_v and fb_v do not depend on lambda: one row
                at = field[i, j] if field.ndim == 2 else field[j]
                if float.hex(getattr(d, name)) != float.hex(float(at)):
                    bad["identity"].append((label, LAMBDA_GRID[i], probes[j], f"scalar {name}"))
        return area_a

    def check_aggregates(label, lam, fb, u_b, u_s, mean_a, eq_swap):
        log_term = log_terms[lam]
        if mean_a > u_b * log_term + 1e-9:
            bad["inequality"].append((label, lam, None, "E[A]"))
        if (1.0 - lam) * fb > u_s + u_b * log_term + 1e-9:
            bad["inequality"].append((label, lam, None, "avg"))
        if (1.0 - lam) * eq_swap.fb > eq_swap.u_seller + eq_swap.u_buyer * log_term + 1e-9:
            bad["inequality"].append((label, lam, None, "avg-swap"))

    def check_lemma(label, idx, buyer_values, seller):
        rng = np.random.default_rng(10_000 + idx)
        per_v = 1000 // len(buyer_values) + 1
        for v in buyer_values:
            x_v = seller.cdf(v)
            qs = rng.uniform(0.0, x_v, per_v) if x_v > 0.0 else np.zeros(per_v)
            if float(key_lemma_margins(v, seller, qs).min()) < -1e-9:
                bad["lemma"].append((label, v))

    def check_instance_level(label, eq, eq_swap):
        tol = 1e-9 * max(1.0, eq.fb)
        if eq.gft < eq.fb / RATIO_STAR - tol or eq.gft < eq.fb / 4.0 - tol:
            bad["guarantee"].append(label)
        rel = 1e-12 * max(1.0, abs(eq.fb))
        if abs(eq_swap.fb - eq.fb) > rel or abs(eq_swap.gft - eq.gft) > rel:
            bad["swap"].append((label, "totals"))
        u_scale = 1e-12 * max(1.0, abs(eq.u_buyer), abs(eq.u_seller))
        if (
            abs(eq_swap.u_buyer - eq.u_seller) > u_scale
            or abs(eq_swap.u_seller - eq.u_buyer) > u_scale
        ):
            bad["swap"].append((label, "utilities"))

    t0 = time.perf_counter()
    for idx, instance in enumerate(corpus_full):
        seller = instance.seller
        eq = equilibrium(instance)
        eq_swap = equilibrium(role_swap(instance))
        bvals, bprobs = instance.buyer.values, instance.buyer.probs
        area_a = check_grid(idx, bvals, seller, 20_000 + idx)
        for lam, row in zip(LAMBDA_GRID, (np.asarray(bprobs) * area_a).tolist()):
            check_aggregates(idx, lam, eq.fb, eq.u_buyer, eq.u_seller, math.fsum(row), eq_swap)
        check_lemma(idx, idx, bvals, seller)
        check_instance_level(idx, eq, eq_swap)

    for label, instance in (("UxU", UU), ("p1xU", P1U)):
        seller = instance.seller
        eq = equilibrium(instance)
        eq_swap = equilibrium(role_swap(instance))
        if instance.buyer.kind == "pwl":
            probes = _pwl_probe_values(instance.buyer)
        else:
            probes = list(instance.buyer.values)
        check_grid(label, probes, seller, 25_555 if label == "UxU" else 25_556)
        for lam in LAMBDA_GRID:
            report = verify_bounds(instance, lam)  # raises on any violation
            check_aggregates(
                label, lam, report.fb, report.u_buyer, report.u_seller,
                report.mean_area_A, eq_swap,
            )
        check_lemma(label, 5555 if label == "UxU" else 5556, probes, seller)
        check_instance_level(label, eq, eq_swap)
    elapsed = time.perf_counter() - t0

    return {"bad": bad, "elapsed": elapsed, "count": CORPUS_SIZE + 2}


@pytest.fixture(scope="module")
def search_run():
    """Seeded 10^4-evaluation search shared by criteria 4 and 8."""
    spot_margins = []
    counter = [0]

    def spot_check(instance, ratio):
        counter[0] += 1
        if counter[0] % 250 == 0:
            eq = equilibrium(instance)
            tol = 1e-9 * max(1.0, eq.fb)
            spot_margins.append(
                (eq.gft - eq.fb / RATIO_STAR >= -tol) and (eq.gft - eq.fb / 4.0 >= -tol)
            )

    cfg = SearchConfig(
        atoms_per_side=8, iterations=1249, restarts=8, seed=20250810, step_scale=0.08
    )
    t0 = time.perf_counter()
    result = worst_case_search(cfg, on_evaluate=spot_check)
    elapsed = time.perf_counter() - t0
    return result, elapsed, spot_margins


# --------------------------------------------------------------------------
# criteria


def test_criterion_1_lambda_optimization():
    best_time = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        opt = optimize_lambda(1e-12)
        best_time = min(best_time, time.perf_counter() - t0)
    ok = (
        abs(opt.lambda_star - 0.31784) <= 1e-4
        and abs(opt.ratio_star - 3.1462) <= 1e-4
        and opt.stationarity_residual <= 1e-10
        and abs(opt.ratio_star - 1.0 / opt.lambda_star) <= 1e-9 * opt.ratio_star
        and best_time < 1e-3
    )
    _report(
        1, ok,
        f"lambda*={opt.lambda_star:.6f}, ratio*={opt.ratio_star:.6f}, "
        f"residual={opt.stationarity_residual:.1e}, time={best_time * 1e3:.3f} ms",
    )


def test_criterion_2_identity_suite(suite_results):
    bad = suite_results["bad"]["identity"]
    ok = not bad and suite_results["elapsed"] < 60.0
    _report(
        2, ok,
        f"{suite_results['count']} instances x {len(LAMBDA_GRID)} lambdas, "
        f"{len(bad)} violations, {suite_results['elapsed']:.1f} s"
        + (f", first={bad[0]}" if bad else ""),
    )


def test_criterion_3_inequality_suite(suite_results):
    bad = suite_results["bad"]["inequality"] + suite_results["bad"]["lemma"]
    _report(
        3, not bad,
        f"{len(bad)} violations" + (f", first={bad[0]}" if bad else ""),
    )


def test_criterion_4_guarantee_suite(suite_results, search_run):
    corpus_bad = suite_results["bad"]["guarantee"]
    _, _, spot_margins = search_run
    ok = not corpus_bad and spot_margins and all(spot_margins)
    _report(
        4, ok,
        f"corpus violations={len(corpus_bad)}, "
        f"search spot checks={len(spot_margins)} all non-negative={all(spot_margins)}",
    )


def test_criterion_5_canonical_closed_forms():
    failures = []
    eq = equilibrium(UU)
    for name, got, want in (
        ("UxU fb", eq.fb, 1 / 6),
        ("UxU u_B", eq.u_buyer, 1 / 12),
        ("UxU u_S", eq.u_seller, 1 / 12),
        ("UxU gft", eq.gft, 1 / 8),
        ("UxU ratio", eq.fb / eq.gft, 4 / 3),
    ):
        if abs(got - want) > 1e-12:
            failures.append(name)
    eq = equilibrium(P1U)
    for name, got, want in (
        ("p1xU fb", eq.fb, 0.5),
        ("p1xU gft", eq.gft, 7 / 16),
        ("p1xU ratio", eq.fb / eq.gft, 8 / 7),
    ):
        if abs(got - want) > 1e-12:
            failures.append(name)
    eq = equilibrium(PP)
    if abs(eq.fb - 1.0) > 1e-12 or abs(eq.gft - 1.0) > 1e-12:
        failures.append("p1xp0")
    _report(5, not failures, f"failures={failures}" if failures else "all closed forms at 1e-12")


def test_criterion_6_monte_carlo_cross_check():
    cases = [("UxU", UU), ("p1xU", P1U)]
    cases += [(f"d{i}", random_discrete_instance(5000 + i)) for i in range(20)]
    failures = []
    t0 = time.perf_counter()
    for i, (label, instance) in enumerate(cases):
        eq = equilibrium(instance)
        fb_est = simulate_fb(instance, 10**6, 900 + i)
        if abs(fb_est.mean - eq.fb) > 4.0 * fb_est.stderr + 1e-12:
            failures.append((label, "fb"))
        sim = simulate_mechanism(instance, 10**6, 901 + i)
        for name, est, exact in (
            ("gft", sim.gft, eq.gft),
            ("u_B", sim.u_buyer, eq.u_buyer),
            ("u_S", sim.u_seller, eq.u_seller),
        ):
            if abs(est.mean - exact) > 4.0 * est.stderr + 1e-12:
                failures.append((label, name))
    deterministic = (
        simulate_fb(UU, 10**6, 900) == simulate_fb(UU, 10**6, 900)
        and simulate_mechanism(P1U, 10**6, 902) == simulate_mechanism(P1U, 10**6, 902)
    )
    elapsed = time.perf_counter() - t0
    ok = not failures and deterministic and elapsed < 30.0
    _report(
        6, ok,
        f"{len(cases)} instances x 10^6 trials, failures={failures}, "
        f"bit-identical={deterministic}, {elapsed:.1f} s",
    )


def test_criterion_7_role_swap_invariance(suite_results):
    bad = suite_results["bad"]["swap"]
    _report(7, not bad, f"{len(bad)} violations" + (f", first={bad[0]}" if bad else ""))


def test_criterion_8_search_sanity(search_run):
    result, elapsed, _ = search_run
    window = (4 / 3 - 0.02, 3.1463)
    monotone = all(
        all(a <= b for a, b in zip(trace, trace[1:])) for trace in result.trace
    )
    ok = (
        elapsed < 120.0
        and result.evaluations == 10**4
        and window[0] <= result.best_ratio <= window[1]
        and monotone
    )
    _report(
        8, ok,
        f"best_ratio={result.best_ratio:.4f} in [{window[0]:.4f}, {window[1]:.4f}], "
        f"{result.evaluations} evaluations, {elapsed:.1f} s",
    )
