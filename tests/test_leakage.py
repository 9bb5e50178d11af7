import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvpriv import (Channel, DimensionMismatch, MarkovChain, Mechanism, Pmf,
                    avg_pnorm_leakage, avg_tv_leakage, bayes_invert,
                    bounds_from_tv, compose, entropy, is_linkage_consistent,
                    is_postprocessing_consistent, leakage_report,
                    lp_linkage_slack, max_info_leakage, maximal_leakage,
                    mutual_information, tv_distance)
from tvpriv.suites import linkage_fixture_chain, random_release_pair

LOG2_3 = 1.584962500721156
MI_FIXTURE = 0.06392255611227199   # frozen from the double-sum oracle below
H_PX_FIXTURE = 1.549397853339606
H_COL_FIXTURE = 1.4854752972273344


def mi_double_sum(p_u, p_x_given_u, p_x):
    """Independent oracle: plain double sum over the joint distribution."""
    total = 0.0
    for u in range(len(p_u)):
        for x in range(len(p_x)):
            joint = p_u.probs[u] * p_x_given_u.matrix[x, u]
            if joint > 0:
                total += joint * np.log2(joint / (p_x.probs[x] * p_u.probs[u]))
    return total


class TestTvDistance:
    def test_identical(self):
        p = Pmf(np.array([0.2, 0.8]))
        assert tv_distance(p, p) == 0.0

    def test_disjoint(self):
        assert tv_distance(Pmf(np.array([1.0, 0.0])),
                           Pmf(np.array([0.0, 1.0]))) == 1.0

    def test_fixture_columns(self):
        p = Pmf(np.array([0.5, 0.3, 0.2]))
        q = Pmf(np.array([0.3, 0.2, 0.5]))
        assert tv_distance(p, q) == pytest.approx(0.3, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            tv_distance(Pmf(np.array([1.0])), Pmf(np.array([0.5, 0.5])))

    @given(st.integers(0, 2**32 - 1))
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        p = Pmf(rng.dirichlet(np.ones(n)))
        q = Pmf(rng.dirichlet(np.ones(n)))
        d = tv_distance(p, q)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(tv_distance(q, p), abs=1e-15)


class TestAvgTvLeakage:
    def test_independence_gives_zero(self, binary_source):
        p_x = binary_source.marginal_x()
        cols = np.tile(p_x.probs[:, None], (1, 2))
        assert avg_tv_leakage(Pmf(np.array([0.4, 0.6])), Channel(cols),
                              p_x) == pytest.approx(0.0, abs=1e-15)

    def test_identity_release_uniform_binary(self):
        p = Pmf(np.array([0.5, 0.5]))
        assert avg_tv_leakage(p, Channel(np.eye(2)), p) == pytest.approx(
            0.5, abs=1e-12)

    def test_fixture_identity_release(self, binary_source):
        p_u, p_x_given_u, _ = compose(Mechanism.identity(2), binary_source)
        t = avg_tv_leakage(p_u, p_x_given_u, binary_source.marginal_x())
        assert t == pytest.approx(2 / 15, abs=1e-12)

    def test_joint_product_form_and_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            nx, nu = rng.integers(2, 7, size=2)
            p_u, p_x_given_u, p_x = random_release_pair(rng, nx, nu)
            t = avg_tv_leakage(p_u, p_x_given_u, p_x)
            joint = p_x_given_u.matrix * p_u.probs
            t_joint = 0.5 * np.abs(joint - np.outer(p_x.probs, p_u.probs)).sum()
            assert t == pytest.approx(t_joint, abs=1e-9)
            # the joint-vs-product form is symmetric in the two variables
            p_u_given_x = bayes_invert(p_u, p_x_given_u, p_x)
            t_swapped = avg_tv_leakage(p_x, p_u_given_x, p_u)
            assert t == pytest.approx(t_swapped, abs=1e-9)


class TestMutualInformation:
    def test_independence(self):
        p_x = Pmf(np.array([0.3, 0.7]))
        cols = np.tile(p_x.probs[:, None], (1, 3))
        assert mutual_information(Pmf(np.ones(3) / 3), Channel(cols),
                                  p_x) == pytest.approx(0.0, abs=1e-12)

    def test_identity_uniform_three(self):
        p = Pmf(np.ones(3) / 3)
        assert mutual_information(p, Channel(np.eye(3)), p) == pytest.approx(
            LOG2_3, abs=1e-12)

    def test_fixture_against_double_sum_oracle(self, binary_source):
        p_u, p_x_given_u, _ = compose(Mechanism.identity(2), binary_source)
        p_x = binary_source.marginal_x()
        got = mutual_information(p_u, p_x_given_u, p_x)
        assert got == pytest.approx(mi_double_sum(p_u, p_x_given_u, p_x),
                                    abs=1e-12)
        assert got == pytest.approx(MI_FIXTURE, abs=1e-12)


class TestMaximalLeakage:
    def test_identity_three(self):
        assert maximal_leakage(Channel(np.eye(3))) == pytest.approx(
            LOG2_3, abs=1e-12)

    def test_constant_channel(self):
        assert maximal_leakage(Channel(np.array([[0.4, 0.4], [0.6, 0.6]]))) \
            == pytest.approx(0.0, abs=1e-12)

    def test_binary_symmetric_flip(self):
        bsc = Channel(np.array([[0.9, 0.1], [0.1, 0.9]]))
        assert maximal_leakage(bsc) == pytest.approx(np.log2(1.8), abs=1e-12)


class TestMaxInfoLeakage:
    def test_independence(self):
        p_x = Pmf(np.array([0.3, 0.7]))
        cols = np.tile(p_x.probs[:, None], (1, 2))
        assert max_info_leakage(Pmf(np.array([0.5, 0.5])), Channel(cols),
                                p_x) == pytest.approx(0.0, abs=1e-12)

    def test_full_release(self):
        p = Pmf(np.array([0.2, 0.5, 0.3]))
        assert max_info_leakage(p, Channel(np.eye(3)), p) == pytest.approx(
            entropy(p), abs=1e-12)

    def test_fixture_identity_release(self, binary_source):
        p_u, p_x_given_u, _ = compose(Mechanism.identity(2), binary_source)
        got = max_info_leakage(p_u, p_x_given_u, binary_source.marginal_x())
        assert got == pytest.approx(H_PX_FIXTURE - H_COL_FIXTURE, abs=1e-12)

    def test_dominates_average(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            nx, nu = rng.integers(2, 7, size=2)
            p_u, p_x_given_u, p_x = random_release_pair(rng, nx, nu)
            istar = max_info_leakage(p_u, p_x_given_u, p_x)
            mi = mutual_information(p_u, p_x_given_u, p_x)
            assert istar >= mi - 1e-8


class TestBoundsFromTv:
    def test_zero_leakage_collapses(self):
        lo, up, lo_ml = bounds_from_tv(0.0, Pmf(np.array([0.4, 0.6])))
        assert (lo, up, lo_ml) == (0.0, 0.0, 0.0)

    def test_fixture_values(self):
        p_x = Pmf(np.array([11 / 30, 7 / 30, 12 / 30]))
        lo, up, lo_ml = bounds_from_tv(2 / 15, p_x)
        assert lo == pytest.approx(0.05129582367605203, abs=1e-12)
        assert up == pytest.approx(np.log2(11 / 7), abs=1e-12)
        assert lo_ml == pytest.approx(0.22239242133644802, abs=1e-12)

    def test_uniform_binary_half(self):
        _, up, _ = bounds_from_tv(0.5, Pmf(np.array([0.5, 0.5])))
        assert up == pytest.approx(1.0, abs=1e-12)


class TestBoundChain:
    def test_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            nx, nu = rng.integers(2, 7, size=2)
            p_u, p_x_given_u, p_x = random_release_pair(rng, nx, nu)
            rep = leakage_report(p_u, p_x_given_u, p_x)
            assert 0.0 <= rep.t_leakage < 1.0
            assert rep.slack_mi_lower >= -1e-8
            assert rep.maximal_leakage_bits >= rep.mutual_info_bits - 1e-8
            assert rep.slack_ml_upper >= -1e-8
            assert rep.slack_ml_lower >= -1e-8


class TestMarkovPredicates:
    def test_identity_postprocessing_has_zero_slack(self):
        rng = np.random.default_rng(31)
        chain = MarkovChain(Pmf(rng.dirichlet(np.ones(3))),
                            Channel(np.eye(3)),
                            Channel(rng.dirichlet(np.ones(4), size=3).T))
        res = is_postprocessing_consistent(chain)
        assert res
        assert res.slack == pytest.approx(0.0, abs=1e-12)

    def test_independent_c_slack_is_full_leakage(self):
        rng = np.random.default_rng(37)
        p_b = Pmf(rng.dirichlet(np.ones(4)))
        chain = MarkovChain(Pmf(np.array([0.5, 0.5])),
                            Channel(np.tile(p_b.probs[:, None], (1, 2))),
                            Channel(rng.dirichlet(np.ones(3), size=4).T))
        res = is_postprocessing_consistent(chain)
        t_ab = avg_tv_leakage(chain.p_b(), chain.channel_a_given_b,
                              chain.p_a())
        assert res.slack == pytest.approx(t_ab, abs=1e-12)

    def test_identity_linkage_has_zero_slack(self):
        rng = np.random.default_rng(41)
        chain = MarkovChain(Pmf(rng.dirichlet(np.ones(3))),
                            Channel(rng.dirichlet(np.ones(4), size=3).T),
                            Channel(np.eye(4)))
        res = is_linkage_consistent(chain)
        assert res
        assert res.slack == pytest.approx(0.0, abs=1e-12)

    def test_independent_a_linkage_slack(self):
        rng = np.random.default_rng(43)
        chain = MarkovChain(Pmf(rng.dirichlet(np.ones(3))),
                            Channel(rng.dirichlet(np.ones(4), size=3).T),
                            Channel(np.tile(rng.dirichlet(np.ones(3))[:, None],
                                            (1, 4))))
        res = is_linkage_consistent(chain)
        t_bc = avg_tv_leakage(chain.p_c, chain.channel_b_given_c, chain.p_b())
        assert res.slack == pytest.approx(t_bc, abs=1e-12)

    def test_random_chains_satisfy_both(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            na, nb, nc = rng.integers(2, 7, size=3)
            chain = MarkovChain(
                Pmf(rng.dirichlet(np.ones(nc))),
                Channel(rng.dirichlet(np.ones(nb), size=nc).T),
                Channel(rng.dirichlet(np.ones(na), size=nb).T))
            assert is_postprocessing_consistent(chain).slack >= -1e-9
            assert is_linkage_consistent(chain).slack >= -1e-9


class TestLinkageCounterexample:
    def test_l1_average_satisfies_linkage(self):
        chain = linkage_fixture_chain("main")
        assert is_linkage_consistent(chain).slack >= -1e-12

    @pytest.mark.parametrize("order,expected_violation", [
        (2.0, 0.5 * (np.sqrt(8) - 2) * 0.02),   # 2 sqrt(2) d - 2 d per branch
        (np.inf, 0.01),                          # 2 d - d
    ])
    def test_lp_averages_violate_linkage(self, order, expected_violation):
        chain = linkage_fixture_chain("main")
        slack = lp_linkage_slack(chain, order)
        assert slack < 0
        assert -slack == pytest.approx(expected_violation, abs=1e-10)

    def test_half_power_variant_violates_linkage(self):
        chain = linkage_fixture_chain("half")
        slack = lp_linkage_slack(chain, 0.5)
        assert slack < 0
        # per branch: (1 + sqrt(2))^2 d - 4 d = (2 sqrt(2) - 1) d; the
        # square root has infinite slope at 0, so float residue on the
        # exactly-unperturbed coordinates costs ~1e-8 of accuracy
        assert -slack == pytest.approx((2 * np.sqrt(2) - 1) * 0.01, abs=1e-6)

    def test_avg_pnorm_reduces_to_tv_at_order_one(self):
        chain = linkage_fixture_chain("main")
        p_b = chain.p_b()
        j1 = avg_pnorm_leakage(chain.p_c, chain.channel_b_given_c, p_b, 1.0)
        t = avg_tv_leakage(chain.p_c, chain.channel_b_given_c, p_b)
        assert j1 == pytest.approx(2 * t, abs=1e-12)
