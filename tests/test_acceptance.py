"""Acceptance gate: every criterion runs at its stated tolerance and
prints one pass/fail line (run with ``pytest -s`` to see them inline)."""

import time

import numpy as np
import pytest
import scipy.optimize

from tvpriv import (avg_tv_leakage, build_linear_forms, compose, entropy,
                    enumerate_regions, enumerate_spoints, mi_binary,
                    mi_tradeoff_bounds, mmse_binary,
                    mutual_information, perr_binary, region_extreme_points,
                    solve_tradeoff, sweep_curve, t_xy)
from tvpriv.suites import (linkage_fixture_chain, run_bounds_suite,
                           run_markov_suite, run_threats_suite)
from tvpriv.leakage import lp_linkage_slack
from tvpriv.tradeoff import UtilityKind

from conftest import random_source

MI = UtilityKind.MUTUAL_INFORMATION
MMSE = UtilityKind.MMSE
PERR = UtilityKind.ERROR_PROBABILITY

H_THIRD = 0.9182958340544896
LOG2_3 = 1.584962500721156


def report(num: int, label: str, passed: bool, detail: str = "") -> None:
    state = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{state}] {label}{suffix}")
    assert passed, f"criterion {num} failed: {label} {suffix}"


@pytest.mark.slow
def test_criterion_1_closed_form_lp_equivalence():
    rng = np.random.default_rng(1001)
    start = time.time()
    worst = 0.0
    for _ in range(200):
        nx = int(rng.integers(2, 7))
        src = random_source(rng, nx, 2, with_values=True)
        p = float(src.p_y.probs[0])
        cols = src.channel_x_given_y.matrix
        gap = float(np.abs(cols[:, 0] - cols[:, 1]).sum())
        y1, y2 = (float(v) for v in src.y_values)
        spoints = enumerate_spoints(src)
        cap = t_xy(src)
        for eps in rng.uniform(0.0, 1.2 * cap, size=20):
            got = solve_tradeoff(src, MI, eps, spoints=spoints).utility_value
            worst = max(worst, abs(got - mi_binary(p, gap, eps)))
            got = solve_tradeoff(src, MMSE, eps, spoints=spoints).utility_value
            worst = max(worst, abs(got - mmse_binary(p, gap, eps, y1, y2)))
            got = solve_tradeoff(src, PERR, eps, spoints=spoints).utility_value
            worst = max(worst, abs(got - perr_binary(p, gap, eps)))
    elapsed = time.time() - start
    report(1, "closed-form/LP equivalence on 200 binary sources x 20 budgets",
           worst <= 1e-8 and elapsed < 60.0,
           f"worst |diff| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_worked_ternary_example(uniform3_source):
    forms = build_linear_forms(uniform3_source)
    regions = enumerate_regions(forms, uniform3_source.p_y)

    printed = [
        ([[-2.0, -1.0, 0.0], [0.0, -1.0, -2.0]], [-1.0, -1.0]),
        ([[2.0, 1.0, 0.0], [0.0, 1.0, 2.0]], [1.0, 1.0]),
        ([[-2.0, -1.0, 0.0], [0.0, 1.0, 2.0]], [-1.0, 1.0]),
        ([[2.0, 1.0, 0.0], [0.0, -1.0, -2.0]], [1.0, -1.0]),
    ]

    def canon(a, b):
        rows = []
        for row, rhs in zip(np.asarray(a, float), np.asarray(b, float)):
            scale = np.max(np.abs(row))
            rows.append(tuple(np.round(np.append(row / scale, rhs / scale), 9)))
        return tuple(sorted(rows))

    got = {canon(r.a_tilde, r.b_tilde) for r in regions}
    expected = {canon(a, b) for a, b in printed}
    systems_ok = got == expected and len(regions) == 4

    seg = next(r for r in regions if r.sign_pattern == (1, 1))
    pts = region_extreme_points(seg)
    wanted = [np.array([0.0, 1.0, 0.0]), np.array([0.5, 0.0, 0.5])]
    points_ok = len(pts) == 2 and all(
        any(np.max(np.abs(p - w)) <= 1e-9 for p in pts) for w in wanted)

    report(2, "worked ternary example: four region systems and the "
              "first region's extreme points", systems_ok and points_ok)


def test_criterion_3_binary_fixture_values(binary_source):
    sol = solve_tradeoff(binary_source, MI, 1 / 15)
    value_ok = abs(sol.utility_value - 0.459148) <= 1e-6
    t_ok = abs(t_xy(binary_source) - 2 / 15) <= 1e-9
    sat = solve_tradeoff(binary_source, MI, 2 / 15)
    sat_ok = abs(sat.utility_value - 0.918296) <= 1e-6

    i_xy = mutual_information(binary_source.p_y,
                              binary_source.channel_x_given_y,
                              binary_source.marginal_x())
    below_at_small = all(
        mi_tradeoff_bounds(binary_source, eps)[2] <
        mi_tradeoff_bounds(binary_source, eps)[1]
        for eps in np.linspace(0.0, 0.04, 9))
    crosses = any(
        mi_tradeoff_bounds(binary_source, eps)[2] >
        mi_tradeoff_bounds(binary_source, eps)[1]
        for eps in np.linspace(0.05, i_xy * 0.999, 5))
    report(3, "binary fixture: solved values, budget cap, and the "
              "quadratic-root bound crossing the linear bound",
           value_ok and t_ok and sat_ok and below_at_small and crosses,
           f"m(1/15) = {sol.utility_value:.6f}")


def test_criterion_4_bound_chain_suite():
    start = time.time()
    result = run_bounds_suite(instances=1000, seed=42)
    elapsed = time.time() - start
    worst = min(w for w, _, _ in result.checks.values())
    report(4, "leakage bound chain on 1000 random release pairs",
           result.passed and elapsed < 30.0,
           f"min slack = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_markov_inequalities():
    result = run_markov_suite(instances=1000, seed=42)
    violation = -lp_linkage_slack(linkage_fixture_chain("main"), 2.0)
    report(5, "post-processing and linkage on 1000 random chains plus the "
              "L2 linkage violation on the bundled chain",
           result.passed and violation > 0.0,
           f"L2 violation = {violation:.4e}")


def test_criterion_6_inference_threats():
    result = run_threats_suite(instances=500, seed=42)
    brier = result.checks["brier_4lt_slack"][0]
    menu = result.checks["finite_menu_4lt_slack"][0]
    ident = result.checks["log_loss_identity_margin"][0]
    report(6, "inference-gain bound (500 instances per bounded cost) and "
              "the exact log-loss identity",
           brier >= -1e-8 and menu >= -1e-8 and ident >= -1e-9,
           f"worst log-loss identity gap = {-ident:.2e}")


def _simplex_grid(n: int, step: float = 0.02) -> np.ndarray:
    k = round(1.0 / step)
    pts = []
    if n == 2:
        for i in range(k + 1):
            pts.append((i, k - i))
    else:
        for i in range(k + 1):
            for j in range(k + 1 - i):
                pts.append((i, j, k - i - j))
    return np.array(pts, dtype=float).T / k


def _entropy_columns(cols: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(cols > 0, -cols * np.log2(cols), 0.0)
    return terms.sum(axis=0)


@pytest.mark.slow
def test_criterion_7_grid_search_never_beats_lp():
    # every mechanism whose posteriors sit on a 0.02-step simplex grid is
    # a feasible point of one scipy-solved program per budget, so its
    # optimum is exactly the best grid-restricted mechanism
    rng = np.random.default_rng(7001)
    start = time.time()
    worst_advantage = -np.inf
    feasible_ok = True
    for _ in range(30):
        n = int(rng.integers(2, 4))
        src = random_source(rng, n, n, with_values=True)
        grid = _simplex_grid(n)
        chan = src.channel_x_given_y.matrix
        cost = 0.5 * np.abs(chan @ (grid - src.p_y.probs[:, None])).sum(axis=0)
        objectives = {
            MI: _entropy_columns(grid),
            MMSE: (src.y_values ** 2 @ grid) - (src.y_values @ grid) ** 2,
            PERR: -grid.max(axis=0),
        }
        h_y = entropy(src.p_y)
        spoints = enumerate_spoints(src)
        for eps in np.linspace(0.0, t_xy(src), 5):
            for kind in (MI, MMSE, PERR):
                mine = solve_tradeoff(src, kind, eps, spoints=spoints)
                p_u, p_x_given_u, _ = compose(mine.mechanism, src)
                recheck = avg_tv_leakage(p_u, p_x_given_u, src.marginal_x())
                feasible_ok &= recheck <= eps + 1e-8
                res = scipy.optimize.linprog(
                    objectives[kind], A_eq=grid, b_eq=src.p_y.probs,
                    A_ub=cost[None, :], b_ub=[eps], method="highs")
                if res.status != 0:
                    continue  # the grid cannot represent this budget point
                if kind == MI:
                    advantage = (h_y - res.fun) - mine.utility_value
                elif kind == MMSE:
                    advantage = mine.utility_value - res.fun
                else:
                    advantage = mine.utility_value - (1.0 + res.fun)
                worst_advantage = max(worst_advantage, advantage)
    elapsed = time.time() - start
    report(7, "0.02-step grid mechanism search never beats the LP and "
              "every LP mechanism is feasible on independent recheck",
           worst_advantage <= 1e-6 and feasible_ok and elapsed < 300.0,
           f"max grid advantage = {worst_advantage:.2e}, {elapsed:.1f}s")


def test_criterion_8_ternary_curve_structure(uniform3_source):
    mi_pts = sweep_curve(uniform3_source, MI, 21)
    vals = np.array([p.utility_value for p in mi_pts])
    nondecreasing = bool(np.all(np.diff(vals) >= -1e-9))
    concave = bool(np.all(np.diff(vals, 2) <= 1e-8))
    endpoints = (abs(vals[0] - H_THIRD) <= 1e-8
                 and abs(vals[-1] - LOG2_3) <= 1e-8
                 and abs(mi_pts[-1].epsilon - 2 / 9) <= 1e-12)

    down_ok = True
    for kind in (MMSE, PERR):
        pts = sweep_curve(uniform3_source, kind, 21)
        seq = np.array([p.utility_value for p in pts])
        down_ok &= bool(np.all(np.diff(seq) <= 1e-9))
        down_ok &= abs(seq[-1]) <= 1e-8
    report(8, "ternary curves: concave nondecreasing information curve with "
              "exact endpoints; estimation curves nonincreasing to zero",
           nondecreasing and concave and endpoints and down_ok)
