import numpy as np
import pytest
import scipy.optimize

from tvpriv import (INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, lp_feasible,
                    lp_solve)
from tvpriv import lp, tradeoff
from tvpriv.cli import load_source
from tvpriv.suites import fixture_path
from tvpriv.tradeoff import UtilityKind

from conftest import random_source

H_THIRD = 0.9182958340544896


def test_vertex_selection():
    sol = lp_solve(LpProblem(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]))
    assert sol.status == OPTIMAL
    assert np.allclose(sol.weights, [1.0, 0.0])
    assert sol.value == pytest.approx(1.0, abs=1e-12)


def test_infeasible_negative_rhs():
    sol = lp_solve(LpProblem(c=[0.0], a_eq=[[1.0]], b_eq=[-1.0]))
    assert sol.status == INFEASIBLE


def test_unbounded():
    sol = lp_solve(LpProblem(c=[-1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0]))
    assert sol.status == UNBOUNDED


def test_binary_release_lp_matches_closed_form():
    # three release symbols standing for posteriors {0, p, 1}; minimizing
    # the weight of the uninformative middle symbol under the budget eta
    # must hit min{1, eta / (2 p (1-p))} of the full entropy
    p = 1 / 3
    for eta in [0.0, 1 / 9, 2 / 9, 4 / 9, 0.7]:
        prob = LpProblem(
            c=[0.0, H_THIRD, 0.0],
            a_eq=[[0.0, p, 1.0], [1.0, 1 - p, 0.0]],
            b_eq=[p, 1 - p],
            a_ub=[[p, 0.0, 1 - p]],
            b_ub=[eta],
        )
        sol = lp_solve(prob)
        assert sol.status == OPTIMAL
        achieved = H_THIRD - sol.value
        expected = min(1.0, eta / (2 * p * (1 - p))) * H_THIRD
        assert achieved == pytest.approx(expected, abs=1e-10)


def test_feasible_whole_simplex():
    prob = LpProblem(c=[0.0, 0.0, 0.0], a_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0])
    assert lp_feasible(prob)


def test_feasible_contradictory_pattern():
    # x1 <= 0.3 and x1 >= 0.7 cannot both hold on the simplex
    prob = LpProblem(c=[0.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0],
                     a_ub=[[1.0, 0.0], [-1.0, 0.0]], b_ub=[0.3, -0.7])
    assert not lp_feasible(prob)


def test_feasible_mixed_sign_region_system():
    # one of the worked ternary sign systems; (1/2, 0, 1/2) is a witness
    a_ub = np.array([[-2.0, -1.0, 0.0], [0.0, 1.0, 2.0]])
    b_ub = np.array([-1.0, 1.0])
    prob = LpProblem(c=np.zeros(3), a_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0],
                     a_ub=a_ub, b_ub=b_ub)
    assert lp_feasible(prob)
    x = np.array([0.5, 0.0, 0.5])
    assert np.all(a_ub @ x <= b_ub + 1e-12)


def test_redundant_equality_rows_handled():
    # second row is the first row doubled
    prob = LpProblem(c=[1.0, 1.0], a_eq=[[1.0, 1.0], [2.0, 2.0]],
                     b_eq=[1.0, 2.0])
    sol = lp_solve(prob)
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-10)


def random_problem(rng):
    m = int(rng.integers(1, 5))
    n = int(rng.integers(m + 1, m + 8))
    a = rng.normal(size=(m, n))
    x0 = rng.uniform(0.2, 1.0, size=n)
    prob = LpProblem(c=rng.normal(size=n), a_eq=a, b_eq=a @ x0,
                     a_ub=np.ones((1, n)), b_ub=[float(x0.sum() * 3)])
    return prob


class TestRandomProblems:

    def test_matches_scipy(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            prob = random_problem(rng)
            mine = lp_solve(prob)
            ref = scipy.optimize.linprog(
                prob.c, A_eq=prob.a_eq, b_eq=prob.b_eq,
                A_ub=prob.a_ub, b_ub=prob.b_ub, method="highs")
            assert mine.status == OPTIMAL
            assert ref.status == 0
            assert mine.value == pytest.approx(ref.fun, abs=1e-8, rel=1e-8)

    def test_dual_certificate(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            prob = random_problem(rng)
            sol = lp_solve(prob)
            assert sol.status == OPTIMAL
            y = sol.dual
            rhs = np.concatenate([prob.b_eq, prob.b_ub])
            assert float(rhs @ y) == pytest.approx(sol.value, abs=1e-8)
            full_a = np.vstack([prob.a_eq, prob.a_ub])
            reduced = prob.c - full_a.T @ y
            assert reduced.min() >= -1e-8
            assert y[prob.a_eq.shape[0]:].max() <= 1e-8

    def test_basic_solution_support(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            prob = random_problem(rng)
            sol = lp_solve(prob)
            n_rows = prob.a_eq.shape[0] + prob.a_ub.shape[0]
            assert np.count_nonzero(sol.weights > 1e-9) <= n_rows

    def test_deterministic_basis(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            prob = random_problem(rng)
            first = lp_solve(prob)
            second = lp_solve(prob)
            assert first.basis == second.basis
            assert np.array_equal(first.weights, second.weights)

    def test_primal_lower_bounds_feasible_points(self):
        # the optimum never exceeds the objective at random feasible points
        rng = np.random.default_rng(61)
        for _ in range(10):
            m, n = 3, 8
            a = rng.normal(size=(m, n))
            x0 = rng.uniform(0.5, 1.0, size=n)
            prob = LpProblem(c=rng.normal(size=n), a_eq=a, b_eq=a @ x0,
                             a_ub=np.ones((1, n)), b_ub=[float(x0.sum() * 4)])
            sol = lp_solve(prob)
            assert sol.status == OPTIMAL
            _, _, vh = np.linalg.svd(a)
            null = vh[m:].T  # directions keeping a @ x unchanged
            hits = 0
            for _ in range(100):
                step = null @ rng.normal(size=null.shape[1])
                scale = 1.0
                while np.any(x0 + scale * step < 0) and scale > 1e-6:
                    scale /= 2
                x = x0 + scale * step
                if np.all(x >= 0) and x.sum() <= prob.b_ub[0]:
                    hits += 1
                    assert sol.value <= float(prob.c @ x) + 1e-8
            assert hits > 50


def eager_solve(p: LpProblem):
    """Reference: the solver with its standard form built per call and its
    duals solved eagerly, as ``(weights, value, sorted basis, dual)``.

    Only for problems with both an equality and an inequality block that
    are feasible and bounded.
    """
    n_ub = p.a_ub.shape[0]
    a = np.vstack([np.hstack([p.a_eq, np.zeros((p.a_eq.shape[0], n_ub))]),
                   np.hstack([p.a_ub, np.eye(n_ub)])])
    b = np.concatenate([p.b_eq, p.b_ub])
    c = np.concatenate([p.c, np.zeros(n_ub)])
    n = a.shape[1]
    body, basis, kept = lp._phase_one(a, b)
    mk = body.shape[0]
    tab = np.zeros((mk + 1, n + 1))
    tab[:mk, :] = body
    tab[-1, :n] = c
    for i, bi in enumerate(basis):
        if c[bi] != 0.0:
            tab[-1, :] -= c[bi] * tab[i, :]
    assert lp._bland_simplex(tab, basis, n) == OPTIMAL
    x = np.zeros(n)
    for i, bi in enumerate(basis):
        x[bi] = max(tab[i, -1], 0.0)
    y = np.zeros(a.shape[0])
    y[kept] = np.linalg.solve(a[kept][:, basis].T, c[np.array(basis)])
    return x[:p.n_vars], float(np.dot(c, x)), tuple(sorted(basis)), y


def with_rhs(p: LpProblem, b: np.ndarray) -> LpProblem:
    k = p.a_eq.shape[0]
    return LpProblem(c=p.c, a_eq=p.a_eq, b_eq=b[:k], a_ub=p.a_ub, b_ub=b[k:])


def assert_form_matches_solve(p: LpProblem, rhs_list):
    """One form solved at every right-hand side equals, bitwise, both a
    fresh ``solve`` and the eager reference, duals included."""
    form = lp.standard_form(p)
    for b in rhs_list:
        got = form.solve(b)
        fresh = lp_solve(with_rhs(p, b))
        weights, value, basis, dual = eager_solve(with_rhs(p, b))
        assert got.status == fresh.status == OPTIMAL
        for sol in (got, fresh):
            assert np.array_equal(sol.weights, weights)
            assert sol.value == value
            assert sol.basis == basis
            assert np.array_equal(sol.dual, dual)


class TestStandardForm:
    def test_random_family_several_rhs(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            p = random_problem(rng)
            rhs_list = []
            for _ in range(4):
                x = rng.uniform(0.2, 1.0, size=p.n_vars)
                rhs_list.append(np.concatenate([p.a_eq @ x, [x.sum() * 3]]))
            assert_form_matches_solve(p, rhs_list)

    @pytest.mark.parametrize("name", ["binary_y_source.json",
                                      "uniform3_source.json", "random"])
    def test_tradeoff_lps_several_budgets(self, name):
        if name == "random":
            rng = np.random.default_rng(73)
            sources = [random_source(rng, int(rng.integers(2, 5)),
                                     int(rng.integers(2, 4)), with_values=True)
                       for _ in range(4)]
        else:
            sources = [load_source(str(fixture_path(name)))]
        for src in sources:
            for kind in UtilityKind:
                form = tradeoff._prepare_lp(src, kind).form
                k = form.n_struct
                p = LpProblem(c=form.c[:k], a_eq=form.a[:-1, :k],
                              b_eq=src.p_y.probs, a_ub=form.a[-1:, :k],
                              b_ub=[0.0])
                cap = tradeoff.t_xy(src)
                assert_form_matches_solve(
                    p, [np.append(src.p_y.probs, cap * t)
                        for t in (0.0, 0.1, 0.37, 0.5, 0.9, 1.0)])

    def test_form_left_unchanged_by_solves(self):
        p = LpProblem(c=[1.0, 2.0, 0.5], a_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0],
                      a_ub=[[-1.0, 0.0, 2.0]], b_ub=[0.3])
        form = lp.standard_form(p)
        a, c = form.a.copy(), form.c.copy()
        for b in ([1.0, 0.3], [2.0, -0.5], [-1.0, 0.0]):
            form.solve(b)
        assert np.array_equal(form.a, a) and np.array_equal(form.c, c)

    def test_rhs_shape_checked(self):
        form = lp.standard_form(LpProblem(c=[1.0, 2.0], a_eq=[[1.0, 1.0]],
                                          b_eq=[1.0]))
        with pytest.raises(ValueError, match="right-hand side"):
            form.solve([1.0, 2.0])

    def test_dual_computed_once_on_read(self, monkeypatch):
        sol = lp_solve(LpProblem(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]))
        calls = []
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *a: calls.append(1) or real(*a))
        assert calls == []
        first = sol.dual
        assert sol.dual is first
        assert calls == [1]
        assert np.array_equal(first, [1.0])

    def test_dual_none_unless_optimal(self):
        assert lp_solve(LpProblem(c=[0.0], a_eq=[[1.0]], b_eq=[-1.0])).dual is None
        assert lp_solve(LpProblem(c=[-1.0, 0.0], a_ub=[[0.0, 1.0]],
                                  b_ub=[1.0])).dual is None

    def test_no_rows(self):
        sol = lp_solve(LpProblem(c=[1.0, 0.0]))
        assert sol.status == OPTIMAL
        assert np.array_equal(sol.weights, [0.0, 0.0])
        assert sol.dual.shape == (0,)
