import warnings

import numpy as np
import pytest

from tvpriv import (Channel, JointSource, MissingYValues, NotBinary, Pmf,
                    avg_tv_leakage, compose, entropy, enumerate_spoints,
                    mechanism_from_weights, mi_binary,
                    mi_tradeoff_bounds, mmse_binary, mutual_information,
                    perr_binary, solve_tradeoff, sweep_curve, t_xy)
from tvpriv import lp
from tvpriv.tradeoff import UtilityKind

from conftest import random_source

H_THIRD = 0.9182958340544896
LOG2_3 = 1.584962500721156

MI = UtilityKind.MUTUAL_INFORMATION
MMSE = UtilityKind.MMSE
PERR = UtilityKind.ERROR_PROBABILITY


class TestTxy:
    def test_independent(self, independent_source):
        assert t_xy(independent_source) == pytest.approx(0.0, abs=1e-12)

    def test_binary_fixture(self, binary_source):
        assert t_xy(binary_source) == pytest.approx(2 / 15, abs=1e-12)

    def test_uniform3(self, uniform3_source):
        assert t_xy(uniform3_source) == pytest.approx(2 / 9, abs=1e-12)


class TestClosedForms:
    def test_mi_zero_budget(self):
        assert mi_binary(1 / 3, 0.6, 0.0) == 0.0

    def test_mi_fixture_point(self):
        assert mi_binary(1 / 3, 0.6, 1 / 15) == pytest.approx(
            0.4591479170272448, abs=1e-12)

    def test_mi_saturation(self):
        p = 1 / 3
        assert mi_binary(p, 0.6, p * (1 - p) * 0.6) == pytest.approx(
            H_THIRD, abs=1e-12)
        assert mi_binary(p, 0.6, 5.0) == pytest.approx(H_THIRD, abs=1e-12)

    def test_mi_independent_columns(self):
        assert mi_binary(0.4, 0.0, 0.0) == pytest.approx(
            entropy(Pmf(np.array([0.4, 0.6]))), abs=1e-12)

    def test_mmse_prior_variance(self):
        p = 1 / 3
        assert mmse_binary(p, 0.6, 0.0, 1.0, 0.0) == pytest.approx(
            p * (1 - p), abs=1e-12)

    def test_mmse_fixture_point(self):
        assert mmse_binary(1 / 3, 0.6, 1 / 15, 1.0, 0.0) == pytest.approx(
            1 / 9, abs=1e-12)

    def test_mmse_saturation_and_independence(self):
        assert mmse_binary(1 / 3, 0.6, 2 / 15, 1.0, 0.0) == 0.0
        assert mmse_binary(1 / 3, 0.0, 0.0, 1.0, 0.0) == 0.0

    def test_perr_prior_mode(self):
        assert perr_binary(1 / 3, 0.6, 0.0) == pytest.approx(1 / 3, abs=1e-12)

    def test_perr_fixture_point(self):
        assert perr_binary(1 / 3, 0.6, 1 / 15) == pytest.approx(1 / 6,
                                                                abs=1e-12)

    def test_perr_saturation_and_independence(self):
        assert perr_binary(1 / 3, 0.6, 2 / 15) == 0.0
        assert perr_binary(1 / 3, 0.0, 0.0) == 0.0


class TestSolveTradeoff:
    def test_matches_closed_form_on_fixture(self, binary_source):
        sp = enumerate_spoints(binary_source)
        for eps in np.linspace(0.0, 0.2, 9):
            mi = solve_tradeoff(binary_source, MI, eps, spoints=sp)
            assert mi.utility_value == pytest.approx(
                mi_binary(1 / 3, 0.6, eps), abs=1e-8)
            ms = solve_tradeoff(binary_source, MMSE, eps, spoints=sp)
            assert ms.utility_value == pytest.approx(
                mmse_binary(1 / 3, 0.6, eps, 1.0, 0.0), abs=1e-8)
            pe = solve_tradeoff(binary_source, PERR, eps, spoints=sp)
            assert pe.utility_value == pytest.approx(
                perr_binary(1 / 3, 0.6, eps), abs=1e-8)

    def test_matches_closed_form_with_duplicate_rows(self):
        # two identical secret rows merge for sign enumeration but both
        # terms still count toward the privacy cost
        src = JointSource(Pmf(np.array([0.5, 0.5])),
                          Channel(np.array([[0.4, 0.1], [0.4, 0.1],
                                            [0.2, 0.8]])),
                          y_values=np.array([2.0, -1.0]))
        gap = 0.3 + 0.3 + 0.6
        assert t_xy(src) == pytest.approx(0.25 * gap, abs=1e-12)
        for eps in np.linspace(0.0, 0.35, 6):
            sol = solve_tradeoff(src, MI, eps)
            assert sol.utility_value == pytest.approx(
                mi_binary(0.5, gap, eps), abs=1e-8)
            sol = solve_tradeoff(src, MMSE, eps)
            assert sol.utility_value == pytest.approx(
                mmse_binary(0.5, gap, eps, 2.0, -1.0), abs=1e-8)

    def test_uniform3_saturation(self, uniform3_source):
        sol = solve_tradeoff(uniform3_source, MI, 2 / 9)
        assert sol.utility_value == pytest.approx(LOG2_3, abs=1e-10)
        sol = solve_tradeoff(uniform3_source, MI, 5.0)
        assert sol.epsilon == pytest.approx(2 / 9, abs=1e-12)
        assert sol.utility_value == pytest.approx(LOG2_3, abs=1e-10)

    def test_uniform3_zero_budget(self, uniform3_source):
        assert solve_tradeoff(uniform3_source, MI, 0.0).utility_value == \
            pytest.approx(H_THIRD, abs=1e-10)
        assert solve_tradeoff(uniform3_source, MMSE, 0.0).utility_value == \
            pytest.approx(2 / 3, abs=1e-10)
        assert solve_tradeoff(uniform3_source, PERR, 0.0).utility_value == \
            pytest.approx(1 / 3, abs=1e-10)

    def test_binary_zero_budget_no_information(self, binary_source):
        sol = solve_tradeoff(binary_source, MI, 0.0)
        assert sol.utility_value == pytest.approx(0.0, abs=1e-10)
        assert sol.achieved_t == pytest.approx(0.0, abs=1e-10)

    def test_independent_source_returns_full_release(self, independent_source):
        sol = solve_tradeoff(independent_source, MI, 0.0)
        assert sol.utility_value == pytest.approx(
            entropy(independent_source.p_y), abs=1e-12)
        assert sol.achieved_t == 0.0
        assert np.allclose(sol.mechanism.channel_u_given_y.matrix, np.eye(3))

    def test_missing_y_values(self, independent_source):
        with pytest.raises(MissingYValues):
            solve_tradeoff(independent_source, MMSE, 0.1)

    def test_negative_budget_clamped(self, binary_source):
        sol = solve_tradeoff(binary_source, MI, -0.5)
        assert sol.epsilon == 0.0
        assert sol.epsilon_requested == -0.5

    @pytest.mark.parametrize("kind", [MI, MMSE, PERR])
    def test_nan_budget_rejected(self, binary_source, kind):
        with pytest.raises(ValueError, match="nan"):
            solve_tradeoff(binary_source, kind, float("nan"))

    def test_support_cardinality(self):
        rng = np.random.default_rng(211)
        for _ in range(25):
            nx = int(rng.integers(2, 5))
            ny = int(rng.integers(2, 4))
            src = random_source(rng, nx, ny, with_values=True)
            eps = float(rng.uniform(0, 1.3)) * t_xy(src)
            for kind in (MI, MMSE, PERR):
                sol = solve_tradeoff(src, kind, eps)
                assert sol.mechanism.channel_u_given_y.n_outputs <= ny + 1

    def test_mechanism_feasible_and_consistent(self):
        rng = np.random.default_rng(223)
        for _ in range(20):
            nx = int(rng.integers(2, 5))
            ny = int(rng.integers(2, 4))
            src = random_source(rng, nx, ny, with_values=True)
            t_cap = t_xy(src)
            for frac in (0.0, 0.3, 0.8, 1.0):
                eps = frac * t_cap
                for kind in (MI, MMSE, PERR):
                    sol = solve_tradeoff(src, kind, eps)
                    p_u, p_x_given_u, p_y_given_u = compose(sol.mechanism, src)
                    t_again = avg_tv_leakage(p_u, p_x_given_u, src.marginal_x())
                    assert t_again <= eps + 1e-8
                    assert sol.achieved_t <= min(eps, t_cap) + 1e-8
                    labels = sol.mechanism.u_labels
                    if kind == MI:
                        redo = mutual_information(p_u, p_y_given_u, src.p_y)
                    elif kind == MMSE:
                        diffs = (src.y_values[:, None] - labels) ** 2
                        cond = (p_y_given_u.matrix * diffs).sum(axis=0)
                        redo = float(p_u.probs @ cond)
                    else:
                        hit = np.array([
                            p_y_given_u.matrix[int(labels[j]), j]
                            for j in range(len(p_u))])
                        redo = float(p_u.probs @ (1.0 - hit))
                    assert redo == pytest.approx(sol.utility_value, abs=1e-8)

    def test_saturated_binary_mechanism_is_identity_like(self, binary_source):
        sol = solve_tradeoff(binary_source, MI, 2 / 15)
        cols = {tuple(np.round(c, 9)) for c in
                compose(sol.mechanism, binary_source)[2].matrix.T}
        assert cols == {(1.0, 0.0), (0.0, 1.0)}

    def test_binary_support_limited_to_split_points(self, binary_source):
        sp = enumerate_spoints(binary_source)
        allowed = {(1 / 3, 2 / 3), (1.0, 0.0), (0.0, 1.0)}
        for eps in np.linspace(0, 2 / 15, 7):
            sol = solve_tradeoff(binary_source, MI, eps, spoints=sp)
            _, _, p_y_given_u = compose(sol.mechanism, binary_source)
            for col in p_y_given_u.matrix.T:
                key = tuple(np.round(col, 6))
                assert any(np.allclose(key, a, atol=1e-6) for a in allowed)


class TestMechanismFromWeights:
    def test_weight_on_prior_gives_single_symbol(self, binary_source):
        sp = enumerate_spoints(binary_source)
        prior_idx = next(i for i, p in enumerate(sp.points)
                         if np.allclose(p, [1 / 3, 2 / 3], atol=1e-9))
        w = np.zeros(len(sp))
        w[prior_idx] = 1.0
        mech = mechanism_from_weights(w, sp, binary_source, MI)
        assert mech.channel_u_given_y.n_outputs == 1
        p_u, p_x_given_u, _ = compose(mech, binary_source)
        assert mutual_information(p_u, p_x_given_u,
                                  binary_source.marginal_x()) == \
            pytest.approx(0.0, abs=1e-10)

    def test_tiny_weights_trimmed(self, binary_source):
        sp = enumerate_spoints(binary_source)
        w = np.full(len(sp), 1e-12)
        prior_idx = next(i for i, p in enumerate(sp.points)
                         if np.allclose(p, [1 / 3, 2 / 3], atol=1e-9))
        w[prior_idx] = 1.0
        mech = mechanism_from_weights(w, sp, binary_source, MI)
        assert mech.channel_u_given_y.n_outputs == 1

    @pytest.mark.parametrize("kind", [MI, MMSE, PERR])
    def test_rare_symbol_keeps_its_only_posterior(self, kind):
        # p_Y(2) = 1e-10 is below SUPPORT_TOL; the optimum puts weight 1e-10
        # on e_3, the only posterior carrying y = 2, whose p_{U|Y} entry is 1
        src = JointSource(Pmf(np.array([0.5, 0.4999999999, 1e-10])),
                          Channel(np.array([[0.9, 0.2, 0.5], [0.1, 0.8, 0.5]])),
                          y_values=np.array([0.0, 1.0, 2.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_tradeoff(src, kind, 0.05)
            p_u, p_x_given_u, _ = compose(sol.mechanism, src)
            t = avg_tv_leakage(p_u, p_x_given_u, src.marginal_x())
        assert t <= 0.05 + 1e-8
        assert sol.mechanism.channel_u_given_y.matrix[:, 2].max() == 1.0

    def test_perr_labels_are_argmax_indices(self, uniform3_source):
        sol = solve_tradeoff(uniform3_source, PERR, 0.05)
        _, _, p_y_given_u = compose(sol.mechanism, uniform3_source)
        labels = sol.mechanism.u_labels
        for j, col in enumerate(p_y_given_u.matrix.T):
            assert col[int(labels[j])] == pytest.approx(col.max(), abs=1e-9)

    def test_mmse_labels_are_conditional_means(self, uniform3_source):
        sol = solve_tradeoff(uniform3_source, MMSE, 0.05)
        _, _, p_y_given_u = compose(sol.mechanism, uniform3_source)
        labels = sol.mechanism.u_labels
        means = uniform3_source.y_values @ p_y_given_u.matrix
        assert np.allclose(labels, means, atol=1e-8)


class TestSweepCurve:
    def test_binary_curve_matches_closed_form(self, binary_source):
        pts = sweep_curve(binary_source, MI, 15)
        for pt in pts:
            assert pt.utility_value == pytest.approx(
                mi_binary(1 / 3, 0.6, pt.epsilon), abs=1e-8)

    def test_endpoints(self, uniform3_source):
        mi_pts = sweep_curve(uniform3_source, MI, 11)
        assert mi_pts[0].epsilon == 0.0
        assert mi_pts[0].utility_value == pytest.approx(H_THIRD, abs=1e-8)
        assert mi_pts[-1].utility_value == pytest.approx(LOG2_3, abs=1e-8)
        for kind in (MMSE, PERR):
            pts = sweep_curve(uniform3_source, kind, 11)
            assert pts[-1].utility_value == pytest.approx(0.0, abs=1e-8)

    def test_monotone_directions(self):
        rng = np.random.default_rng(227)
        for _ in range(8):
            src = random_source(rng, int(rng.integers(2, 5)),
                                int(rng.integers(2, 4)), with_values=True)
            mi_vals = [p.utility_value for p in sweep_curve(src, MI, 9)]
            assert all(b >= a - 1e-9 for a, b in zip(mi_vals, mi_vals[1:]))
            for kind in (MMSE, PERR):
                vals = [p.utility_value for p in sweep_curve(src, kind, 9)]
                assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_uniform3_curve_is_affine_in_budget(self, uniform3_source):
        # the optimal value of this instance is a single linear piece, the
        # simplest case of the piecewise-linear dependence on the budget
        pts = sweep_curve(uniform3_source, MI, 21)
        vals = np.array([p.utility_value for p in pts])
        second = np.diff(vals, 2)
        assert np.max(np.abs(second)) <= 1e-8

    def test_grid_too_small(self, binary_source):
        with pytest.raises(ValueError):
            sweep_curve(binary_source, MI, 1)

    def test_achieved_t_reported(self, uniform3_source):
        pts = sweep_curve(uniform3_source, MI, 5)
        for pt in pts:
            assert pt.achieved_t <= pt.epsilon + 1e-9

    def test_points_equal_solve_tradeoff(self, binary_source, uniform3_source,
                                         independent_source):
        # the curve shares one LP per source and utility, so each point must
        # be exactly the from-scratch solve at the same budget
        rng = np.random.default_rng(233)
        independent = JointSource(independent_source.p_y,
                                  independent_source.channel_x_given_y,
                                  y_values=np.array([-1.0, 0.5, 2.0]))
        sources = [binary_source, uniform3_source, independent]
        sources += [random_source(rng, int(rng.integers(2, 5)),
                                  int(rng.integers(2, 4)), with_values=True)
                    for _ in range(4)]
        for src in sources:
            for kind in (MI, MMSE, PERR):
                for pt in sweep_curve(src, kind, 7):
                    sol = solve_tradeoff(src, kind, pt.epsilon)
                    assert pt.utility_value == sol.utility_value
                    assert pt.achieved_t == sol.achieved_t

    def test_missing_y_values(self, independent_source):
        with pytest.raises(MissingYValues):
            sweep_curve(independent_source, MMSE, 5)

    def test_standard_form_built_once_per_curve(self, binary_source,
                                                uniform3_source, monkeypatch):
        calls = []
        real = lp.standard_form
        monkeypatch.setattr(lp, "standard_form",
                            lambda p: calls.append(1) or real(p))
        for src in (binary_source, uniform3_source):
            for kind in (MI, MMSE, PERR):
                calls.clear()
                sweep_curve(src, kind, 21)
                assert len(calls) == 1


def fault_source() -> JointSource:
    """A (5, 5) source on which the simplex, with an absolute pivot test,
    returned weights that break its own equality rows: the 18th draw of a
    seeded size ladder."""
    rng = np.random.default_rng([12, 1])
    rungs = [(4, 4), (5, 4), (5, 5), (6, 5), (6, 6)]
    for k in range(18):
        nx, ny = rungs[k % len(rungs)]
        p_y = rng.dirichlet(np.ones(ny))
        p_x_given_y = rng.dirichlet(np.ones(nx), size=ny).T
        y_values = np.sort(rng.normal(size=ny))
    return JointSource(Pmf(p_y), Channel(p_x_given_y), y_values)


class TestKnownSimplexFault:
    # Phase one once accepted any pivot element above PIVOT_TOL (one is
    # 3.3e-9 here, next to a 902 in the same column), so the weights
    # drifted off the marginal rows and mechanism assembly renormalised
    # that away.  The ratio test now scales PIVOT_TOL by the column.

    def test_mi_mechanism_within_budget(self):
        src = fault_source()
        eps = t_xy(src) / 2
        sol = solve_tradeoff(src, MI, eps)
        p_u, p_x_given_u, _ = compose(sol.mechanism, src)
        assert avg_tv_leakage(p_u, p_x_given_u, src.marginal_x()) <= eps + 1e-8

    def test_mmse_achieved_t_within_budget(self):
        src = fault_source()
        eps = t_xy(src) / 2
        assert solve_tradeoff(src, MMSE, eps).achieved_t <= eps + 1e-8


def scan_source(k: int) -> JointSource:
    """Draw k of a seeded scan of random sources, with no entry floored;
    the draws before it are made but not solved."""
    rng = np.random.default_rng(2024)
    shapes = [(3, 3), (4, 3), (3, 4), (4, 4), (5, 4), (4, 5), (5, 5), (6, 5),
              (5, 6)]
    for j in range(k + 1):
        nx, ny = shapes[j % len(shapes)]
        p_y = rng.dirichlet(np.ones(ny))
        p_x_given_y = rng.dirichlet(np.ones(nx), size=ny).T
        y_values = np.sort(rng.normal(size=ny))
    return JointSource(Pmf(p_y), Channel(p_x_given_y), y_values)


ZERO_BUDGET_FAULT = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: the tableau simplex is still wrong at eps = 0")


class TestZeroBudgetScan:
    # Draws 0-1199 of ``scan_source`` at eps in {0, T/2, T}, for all three
    # utilities, are 10,800 LPs.  Checked against HiGHS, the solver gets
    # these 8 wrong, all at eps = 0, and each mechanism leaks; strict, so
    # that a sounder simplex notices.  (1006, mmse) was wrong before the
    # ratio test became scale-relative.

    @pytest.mark.parametrize("k, kind", [
        pytest.param(474, MMSE, marks=ZERO_BUDGET_FAULT),
        pytest.param(474, PERR, marks=ZERO_BUDGET_FAULT),
        pytest.param(475, MMSE, marks=ZERO_BUDGET_FAULT),
        pytest.param(475, PERR, marks=ZERO_BUDGET_FAULT),
        pytest.param(496, MMSE, marks=ZERO_BUDGET_FAULT),
        pytest.param(496, PERR, marks=ZERO_BUDGET_FAULT),
        pytest.param(943, MI, marks=ZERO_BUDGET_FAULT),
        pytest.param(1006, MI, marks=ZERO_BUDGET_FAULT),
        (1006, MMSE),
    ])
    def test_mechanism_within_zero_budget(self, k, kind):
        src = scan_source(k)
        sol = solve_tradeoff(src, kind, 0.0)
        p_u, p_x_given_u, _ = compose(sol.mechanism, src)
        assert avg_tv_leakage(p_u, p_x_given_u, src.marginal_x()) <= 1e-8


def near_face_source() -> JointSource:
    """A (5, 5) source with p_Y(0) = 1.16e-8, near a face of the simplex:
    ROADMAP's State reproducer."""
    return JointSource(
        Pmf(np.array([1.160118126321931e-08, 0.19851206693328788,
                      0.2971184754298537, 0.19338520028336617,
                      0.310984245752311])),
        Channel(np.array([
            [0.06129970330676204, 0.2543143871250902, 0.019054281512943118,
             0.351146134627901, 0.3687962135101124],
            [0.26972416513170633, 0.24536896907528763, 0.1949206361195876,
             0.0942261152288112, 0.20348910437606085],
            [0.09392930161934619, 0.07164357394716792, 0.07638927535300133,
             0.2092049787715568, 0.4067307811540866],
            [0.5328274530502828, 0.39629620133311605, 0.29542106168868876,
             0.14332842908249135, 0.011653635404440641],
            [0.0422193768919027, 0.03237686851933821, 0.4142147453257793,
             0.20209434228923956, 0.009330265555299557]])),
        np.array([-0.29841157129806317, -0.07070791434361312,
                  -0.05543338223999065, 1.3199758549471072,
                  1.3795075436424549]))


NEAR_FACE_LEAK = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: with p_Y near a face the mechanism leaks above eps")


class TestNearFace:
    # With p_Y(0) = 1.16e-8, phase one reports the eps = 0 LP infeasible,
    # though releasing nothing is always feasible, and at T/2 the mi and
    # mmse mechanisms leak above the budget.  Strict, so that a sounder
    # simplex notices.

    @staticmethod
    def recheck(kind, frac):
        src = near_face_source()
        eps = frac * t_xy(src)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_tradeoff(src, kind, eps)
            p_u, p_x_given_u, _ = compose(sol.mechanism, src)
            t = avg_tv_leakage(p_u, p_x_given_u, src.marginal_x())
        assert t <= eps + 1e-8

    @pytest.mark.xfail(
        strict=True, raises=RuntimeError,
        reason="ROADMAP item 1: phase one finds the eps = 0 LP infeasible")
    @pytest.mark.parametrize("kind", [MI, MMSE, PERR])
    def test_zero_budget(self, kind):
        self.recheck(kind, 0.0)

    @pytest.mark.parametrize("kind, frac", [
        pytest.param(MI, 0.5, marks=NEAR_FACE_LEAK),
        pytest.param(MMSE, 0.5, marks=NEAR_FACE_LEAK),
        (PERR, 0.5), (MI, 1.0), (MMSE, 1.0), (PERR, 1.0),
    ])
    def test_within_budget(self, kind, frac):
        self.recheck(kind, frac)


class TestVarianceConcavity:
    def test_random_mixtures(self):
        rng = np.random.default_rng(229)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            y = np.sort(rng.normal(size=n))

            def var(p):
                return float(p @ y ** 2 - (p @ y) ** 2)

            p1 = rng.dirichlet(np.ones(n))
            p2 = rng.dirichlet(np.ones(n))
            lam = rng.uniform()
            mixed = var(lam * p1 + (1 - lam) * p2)
            assert mixed >= lam * var(p1) + (1 - lam) * var(p2) - 1e-9


class TestMiTradeoffBounds:
    def test_requires_binary(self, uniform3_source):
        with pytest.raises(NotBinary):
            mi_tradeoff_bounds(uniform3_source, 0.01)

    def test_zero_budget(self, binary_source):
        lower, upper_linear, upper_tv = mi_tradeoff_bounds(binary_source, 0.0)
        assert lower == 0.0
        assert upper_tv == 0.0
        assert upper_linear == pytest.approx(0.8543732779422175, abs=1e-9)

    def test_full_budget_endpoint(self, binary_source):
        i_xy = mutual_information(binary_source.p_y,
                                  binary_source.channel_x_given_y,
                                  binary_source.marginal_x())
        lower, _, _ = mi_tradeoff_bounds(binary_source, i_xy)
        assert lower == pytest.approx(H_THIRD, abs=1e-9)

    def test_frozen_point(self, binary_source):
        _, upper_linear, upper_tv = mi_tradeoff_bounds(binary_source, 0.05)
        assert upper_tv == pytest.approx(0.906622749338519, abs=1e-9)
        assert upper_linear == pytest.approx(0.9043732779422176, abs=1e-9)

    def test_crossing_behavior(self, binary_source):
        # the quadratic-root bound beats the linear bound at small budgets
        # and gives way to it near saturation
        for eps in (0.002, 0.01, 0.02, 0.03, 0.04):
            _, upper_linear, upper_tv = mi_tradeoff_bounds(binary_source, eps)
            assert upper_tv < upper_linear
        _, upper_linear, upper_tv = mi_tradeoff_bounds(binary_source, 0.06)
        assert upper_tv > upper_linear
