"""Randomized invariant suites behind the ``verify`` CLI command.

Each suite draws seeded random instances (Dirichlet(1,...,1) columns),
evaluates the inequalities the library guarantees, and reports the
worst signed slack per check.  Suites never use wall-clock seeding; the
seed is part of the reported output so every run is reproducible.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from . import lp
from ._value import Value
from .leakage import (MarkovChain, avg_tv_leakage, is_linkage_consistent,
                      is_postprocessing_consistent, leakage_report,
                      lp_linkage_slack)
from .probability import Channel, Pmf
from .threats import CostFunction, inference_gain
from .tolerances import BOUND_TOL, CHAIN_TOL, IDENTITY_TOL, SUPPORT_TOL

DEFAULT_SEED = 42


def fixture_path(name: str):
    """Filesystem path of a bundled data file."""
    return resources.files("tvpriv.data").joinpath(name)


def load_fixture(name: str) -> dict:
    with fixture_path(name).open("r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# random instance generators
# ---------------------------------------------------------------------------

def random_pmf(rng: np.random.Generator, n: int) -> Pmf:
    return Pmf(rng.dirichlet(np.ones(n)))


def random_channel(rng: np.random.Generator, rows: int, cols: int) -> Channel:
    return Channel(rng.dirichlet(np.ones(rows), size=cols).T)


def random_release_pair(rng: np.random.Generator, nx: int, nu: int):
    """A consistent (p_U, p_{X|U}, p_X) triple for leakage checks."""
    p_u = random_pmf(rng, nu)
    p_x_given_u = random_channel(rng, nx, nu)
    p_x = Pmf(p_x_given_u.matrix @ p_u.probs)
    return p_u, p_x_given_u, p_x


def random_chain(rng: np.random.Generator, na: int, nb: int,
                 nc: int) -> MarkovChain:
    return MarkovChain(random_pmf(rng, nc), random_channel(rng, nb, nc),
                       random_channel(rng, na, nb))


def linkage_fixture_chain(variant: str = "main") -> MarkovChain:
    """The bundled chain on which non-L1 averages break linkage."""
    raw = load_fixture("linkage_chain.json")
    key = "P_b_given_c" if variant == "main" else "P_b_given_c_halfnorm"
    return MarkovChain(Pmf(np.array(raw["p_c"])),
                       Channel(np.array(raw[key])),
                       Channel(np.array(raw["P_a_given_b"])))


# ---------------------------------------------------------------------------
# suite plumbing
# ---------------------------------------------------------------------------

class SuiteResult(Value):
    """``checks`` maps each check's name to (worst value, tolerance, ok)."""

    __slots__ = ("name", "seed", "instances", "checks")

    @property
    def passed(self) -> bool:
        return all(ok for _, _, ok in self.checks.values())

    def lines(self) -> list[str]:
        out = [f"suite {self.name}: {self.instances} instances, seed {self.seed}"]
        for name, (worst, tol, ok) in self.checks.items():
            verdict = "ok" if ok else "FAIL"
            out.append(f"  {name}: min slack {worst:.3e} (tolerance {tol:g}) {verdict}")
        out.append(f"suite {self.name}: {'PASS' if self.passed else 'FAIL'}")
        return out


class _Worst:
    """Track the minimum slack seen for one inequality."""

    def __init__(self, tol: float):
        self.tol = tol
        self.worst = np.inf

    def add(self, slack: float) -> None:
        if slack < self.worst:
            self.worst = float(slack)

    def entry(self):
        return (self.worst, self.tol, self.worst >= -self.tol)


def run_bounds_suite(instances: int = 1000, seed: int = DEFAULT_SEED) -> SuiteResult:
    """The leakage-ordering chain on random release pairs:

    2 log2(e) T^2 <= I <= maximal leakage <= log2(1 + T / min p_X),
    plus the lower bound on maximal leakage and I <= worst-case leakage.
    """
    rng = np.random.default_rng(seed)
    names = ["mi_above_2log2e_t2", "ml_above_mi", "ml_upper_bound",
             "ml_lower_bound", "istar_above_mi"]
    worst = {n: _Worst(BOUND_TOL) for n in names}
    for _ in range(instances):
        nx = int(rng.integers(2, 7))
        nu = int(rng.integers(2, 7))
        p_u, p_x_given_u, p_x = random_release_pair(rng, nx, nu)
        rep = leakage_report(p_u, p_x_given_u, p_x)
        worst["mi_above_2log2e_t2"].add(rep.mutual_info_bits - rep.bound_mi_lower)
        worst["ml_above_mi"].add(rep.maximal_leakage_bits - rep.mutual_info_bits)
        worst["ml_upper_bound"].add(rep.bound_ml_upper - rep.maximal_leakage_bits)
        worst["ml_lower_bound"].add(rep.maximal_leakage_bits - rep.bound_ml_lower)
        worst["istar_above_mi"].add(rep.max_info_leakage_bits - rep.mutual_info_bits)
    return SuiteResult("bounds", seed, instances,
                       {n: w.entry() for n, w in worst.items()})


def run_markov_suite(instances: int = 1000, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Post-processing and linkage on random chains, plus the bundled
    fixture where the L2 analogue must violate linkage."""
    rng = np.random.default_rng(seed)
    post = _Worst(CHAIN_TOL)
    link = _Worst(CHAIN_TOL)
    for _ in range(instances):
        na, nb, nc = (int(rng.integers(2, 7)) for _ in range(3))
        chain = random_chain(rng, na, nb, nc)
        post.add(is_postprocessing_consistent(chain).slack)
        link.add(is_linkage_consistent(chain).slack)
    fixture = linkage_fixture_chain("main")
    violation = -lp_linkage_slack(fixture, 2.0)
    checks = {
        "postprocessing_slack": post.entry(),
        "linkage_slack": link.entry(),
        # violation magnitude must be strictly positive
        "l2_linkage_violation": (violation, 0.0, violation > 0.0),
    }
    return SuiteResult("markov", seed, instances, checks)


def run_threats_suite(instances: int = 500, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Inference-gain bound for bounded costs; exact identity for log-loss."""
    rng = np.random.default_rng(seed)
    brier = _Worst(BOUND_TOL)
    menu_w = _Worst(BOUND_TOL)
    gain_nonneg = _Worst(CHAIN_TOL)
    identity = _Worst(IDENTITY_TOL)
    superbound = _Worst(BOUND_TOL)
    for _ in range(instances):
        nx = int(rng.integers(2, 7))
        nu = int(rng.integers(2, 7))
        p_u, p_x_given_u, p_x = random_release_pair(rng, nx, nu)

        rep_b = inference_gain(CostFunction.brier(), p_u, p_x_given_u, p_x)
        brier.add(rep_b.slack)
        gain_nonneg.add(rep_b.delta_c)

        menu = tuple(random_pmf(rng, nx) for _ in range(int(rng.integers(2, 5))))
        rep_m = inference_gain(CostFunction.finite_menu(menu), p_u, p_x_given_u, p_x)
        menu_w.add(rep_m.slack)
        gain_nonneg.add(rep_m.delta_c)

        rep_l = inference_gain(CostFunction.log_loss(), p_u, p_x_given_u, p_x)
        identity.add(-abs(rep_l.mi_identity_gap))
        gain_nonneg.add(rep_l.delta_c)
        t = avg_tv_leakage(p_u, p_x_given_u, p_x)
        superbound.add(float(np.log2(1 + t / p_x.probs.min())) - rep_l.delta_c)
    checks = {
        "brier_4lt_slack": brier.entry(),
        "finite_menu_4lt_slack": menu_w.entry(),
        "gain_nonnegative": gain_nonneg.entry(),
        "log_loss_identity_margin": identity.entry(),
        "log_loss_tv_superbound": superbound.entry(),
    }
    return SuiteResult("threats", seed, instances, checks)


def run_lp_suite(instances: int = 200, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Duality certificates, basic-solution structure and determinism of
    the simplex solver on random feasible problems."""
    rng = np.random.default_rng(seed)
    dual_gap = _Worst(BOUND_TOL)
    dual_feas = _Worst(BOUND_TOL)
    basic = _Worst(0.0)
    determinism = _Worst(0.0)
    for _ in range(instances):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m + 1, m + 8))
        a = rng.normal(size=(m, n))
        x0 = rng.uniform(0.2, 1.0, size=n)
        b = a @ x0
        c = rng.normal(size=n)
        # bound the feasible region so the problem cannot be unbounded
        a_ub = np.ones((1, n))
        b_ub = np.array([float(x0.sum() * 3.0)])
        prob = lp.LpProblem(c=c, a_eq=a, b_eq=b, a_ub=a_ub, b_ub=b_ub)
        sol = lp.solve(prob)
        if sol.status != lp.OPTIMAL:
            dual_gap.add(-np.inf)
            continue
        y = sol.dual
        rhs = np.concatenate([b, b_ub])
        dual_gap.add(-abs(float(rhs @ y) - sol.value))
        full_a = np.vstack([a, a_ub])
        reduced = c - full_a.T @ y
        # structural reduced costs >= 0 and multipliers of <= rows <= 0
        dual_feas.add(min(float(reduced.min()), float(-y[m:].max())))
        basic.add((m + 1) - int(np.count_nonzero(sol.weights > SUPPORT_TOL)))
        again = lp.solve(prob)
        determinism.add(0.0 if again.basis == sol.basis else -1.0)
    checks = {
        "strong_duality_gap": dual_gap.entry(),
        "dual_feasibility": dual_feas.entry(),
        "basic_support_bound": basic.entry(),
        "deterministic_basis": determinism.entry(),
    }
    return SuiteResult("lp", seed, instances, checks)


SUITES = {
    "bounds": run_bounds_suite,
    "markov": run_markov_suite,
    "threats": run_threats_suite,
    "lp": run_lp_suite,
}


def run_suites(names, instances: int | None, seed: int) -> list[SuiteResult]:
    results = []
    for name in names:
        runner = SUITES[name]
        results.append(runner(instances, seed) if instances is not None
                       else runner(seed=seed))
    return results
