import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvpriv import (Channel, DimensionMismatch, JointSource, Mechanism,
                    NegativeEntry, Pmf, SumNotOne, ZeroMassSymbol,
                    bayes_invert, compose, entropy)

H_THIRD = 0.9182958340544896  # binary entropy of 1/3
LOG2_3 = 1.584962500721156


class TestValidatePmf:
    def test_uniform_binary_ok(self):
        p = Pmf([0.5, 0.5])
        assert np.allclose(p.probs, [0.5, 0.5])
        assert len(p) == 2

    def test_sum_above_one_rejected(self):
        with pytest.raises(SumNotOne):
            Pmf([0.5, 0.6])

    def test_third_two_thirds_ok(self):
        p = Pmf([1 / 3, 2 / 3])
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntry):
            Pmf([1.2, -0.2])

    def test_renormalizes_only_within_tolerance(self):
        p = Pmf([0.5, 0.5 + 5e-10])
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(SumNotOne):
            Pmf([0.5, 0.5 + 5e-9])

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1,
                    max_size=8))
    def test_normalized_vectors_always_accepted(self, raw):
        v = np.array(raw)
        p = Pmf(v / v.sum())
        assert p.probs.min() >= 0
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        # every comparison with NaN is false, so no other check catches it
        with pytest.raises(ValueError, match="finite"):
            Pmf(np.array([bad, 0.5]))

    def test_immutable(self):
        p = Pmf([0.5, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_probs_are_the_normalised_input_bitwise(self):
        rng = np.random.default_rng(13)
        for n in range(1, 12):
            v = rng.dirichlet(np.ones(n)) * (1 + rng.uniform(-5e-10, 5e-10))
            p = Pmf(v)
            assert np.array_equal(p.probs, v / v.sum())
            assert not p.probs.flags.writeable
            v[0] += 1.0  # the stored vector is not a view of the input
            assert p.probs[0] != v[0]

    @pytest.mark.parametrize("raw, exc, message", [
        ([np.nan, 0.5], ValueError, "pmf entries must be finite"),
        ([-np.inf, 0.5], ValueError, "pmf entries must be finite"),
        ([np.inf, -0.5], ValueError, "pmf entries must be finite"),
        ([1.2, -0.2], NegativeEntry, "negative entry -0.2 in pmf"),
        ([0.5, 0.6], SumNotOne,
         f"pmf sums to {np.sum([0.5, 0.6])!r}, not 1 (tolerance 1e-09)"),
    ])
    def test_rejection_type_and_message(self, raw, exc, message):
        with pytest.raises(ValueError) as info:
            Pmf(np.array(raw))
        assert type(info.value) is exc
        assert str(info.value) == message


class TestChannel:
    def test_column_sum_checked(self):
        with pytest.raises(SumNotOne):
            Channel(np.array([[0.5, 0.5], [0.4, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_names_column(self, bad):
        with pytest.raises(ValueError, match="non-finite entry in channel column 1"):
            Channel(np.array([[0.9, bad], [0.1, 0.8]]))

    def test_matrix_is_the_normalised_input_bitwise(self):
        rng = np.random.default_rng(17)
        for rows, cols in [(1, 1), (2, 3), (5, 4), (7, 7)]:
            m = rng.dirichlet(np.ones(rows), size=cols).T
            for arr in (m, np.asfortranarray(m)):
                ch = Channel(arr)
                assert np.array_equal(ch.matrix, arr / arr.sum(axis=0))
                assert not ch.matrix.flags.writeable
                assert not np.shares_memory(ch.matrix, arr)

    @pytest.mark.parametrize("raw, exc, message", [
        ([[-0.1, np.nan], [1.1, 0.8]], ValueError,
         "non-finite entry in channel column 1"),
        ([[0.9, np.inf], [0.1, -np.inf]], ValueError,
         "non-finite entry in channel column 1"),
        ([[0.9, 1.2], [0.1, -0.2]], NegativeEntry,
         "negative entry in channel column 1"),
        ([[0.9, 0.5], [0.2, 0.5]], SumNotOne,
         f"channel column 0 sums to {np.sum([0.9, 0.2])!r}, not 1"),
    ])
    def test_rejection_type_and_message(self, raw, exc, message):
        with pytest.raises(ValueError) as info:
            Channel(np.array(raw))
        assert type(info.value) is exc
        assert str(info.value) == message

    def test_column_accessor(self):
        ch = Channel(np.array([[0.9, 0.2], [0.1, 0.8]]))
        assert np.allclose(ch.column(1), [0.2, 0.8])


class TestMarginalX:
    def test_fixture_product(self, binary_source):
        got = binary_source.marginal_x()
        assert np.allclose(got.probs, [11 / 30, 7 / 30, 12 / 30], atol=1e-12)

    def test_identity_channel(self):
        src = JointSource(Pmf(np.array([0.4, 0.6])), Channel(np.eye(2)))
        assert np.allclose(src.marginal_x().probs, [0.4, 0.6])

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroMassSymbol):
            JointSource(Pmf(np.array([0.5, 0.5])),
                        Channel(np.array([[0.0, 0.0], [1.0, 1.0]])))

    def test_zero_mass_y_rejected(self):
        with pytest.raises(ZeroMassSymbol):
            JointSource(Pmf(np.array([1.0, 0.0])), Channel(np.eye(2)))


class TestJointSource:
    def test_duplicate_y_values_rejected(self):
        with pytest.raises(ValueError):
            JointSource(Pmf(np.array([0.4, 0.6])), Channel(np.eye(2)),
                        y_values=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_y_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            JointSource(Pmf(np.array([0.4, 0.6])), Channel(np.eye(2)),
                        y_values=np.array([1.0, bad]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            JointSource(Pmf(np.array([0.4, 0.6])),
                        Channel(np.array([[1.0], [0.0]])))


class TestCompose:
    def test_identity_mechanism(self, binary_source):
        p_u, p_x_given_u, p_y_given_u = compose(Mechanism.identity(2),
                                                binary_source)
        assert np.allclose(p_u.probs, [1 / 3, 2 / 3])
        assert np.allclose(p_x_given_u.matrix,
                           binary_source.channel_x_given_y.matrix)
        assert np.allclose(p_y_given_u.matrix, np.eye(2))

    def test_constant_mechanism_gives_prior(self, binary_source):
        mech = Mechanism(Channel(np.array([[0.3, 0.3], [0.7, 0.7]])))
        p_u, p_x_given_u, _ = compose(mech, binary_source)
        p_x = binary_source.marginal_x()
        for j in range(len(p_u)):
            assert np.allclose(p_x_given_u.column(j), p_x.probs, atol=1e-12)

    def test_zero_mass_u_dropped(self, binary_source):
        mech = Mechanism(Channel(np.array([[1.0, 1.0], [0.0, 0.0]])))
        p_u, p_x_given_u, _ = compose(mech, binary_source)
        assert len(p_u) == 1
        assert p_x_given_u.n_inputs == 1

    def test_mismatched_width(self, binary_source):
        with pytest.raises(DimensionMismatch):
            compose(Mechanism.identity(3), binary_source)

    def test_total_probability_conserved(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            ny, nx, nu = rng.integers(2, 6, size=3)
            src = JointSource(Pmf(rng.dirichlet(np.ones(ny))),
                              Channel(rng.dirichlet(np.ones(nx), size=ny).T))
            mech = Mechanism(Channel(rng.dirichlet(np.ones(nu), size=ny).T))
            p_u, p_x_given_u, _ = compose(mech, src)
            rebuilt = p_x_given_u.matrix @ p_u.probs
            assert np.allclose(rebuilt, src.marginal_x().probs, atol=1e-9)


class TestEntropy:
    def test_deterministic(self):
        assert entropy(Pmf(np.array([1.0, 0.0]))) == 0.0

    @pytest.mark.parametrize("probs", [[1.0], [0.0, 1.0]])
    def test_point_mass_is_positive_zero(self, probs):
        # -0.0 == 0.0, but it prints as -0.0 in JSON and -0 in CSV
        assert math.copysign(1.0, entropy(Pmf(np.array(probs)))) == 1.0

    def test_binary_third(self):
        assert entropy(Pmf(np.array([1 / 3, 2 / 3]))) == pytest.approx(
            H_THIRD, abs=1e-12)

    def test_uniform_three(self):
        assert entropy(Pmf(np.ones(3) / 3)) == pytest.approx(LOG2_3, abs=1e-12)

    def test_bounded_by_log_alphabet(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            p = Pmf(rng.dirichlet(np.ones(n)))
            h = entropy(p)
            assert -1e-12 <= h <= np.log2(n) + 1e-9

    def test_equality_iff_uniform(self):
        assert entropy(Pmf(np.ones(5) / 5)) == pytest.approx(np.log2(5),
                                                             abs=1e-9)
        assert entropy(Pmf(np.array([0.21, 0.19, 0.2, 0.2, 0.2]))) < \
            np.log2(5) - 1e-9


class TestBayesInvert:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            nx, nu = rng.integers(2, 6, size=2)
            p_u = Pmf(rng.dirichlet(np.ones(nu)))
            p_x_given_u = Channel(rng.dirichlet(np.ones(nx), size=nu).T)
            p_x = Pmf(p_x_given_u.matrix @ p_u.probs)
            p_u_given_x = bayes_invert(p_u, p_x_given_u, p_x)
            joint_a = p_x_given_u.matrix * p_u.probs
            joint_b = (p_u_given_x.matrix * p_x.probs).T
            assert np.allclose(joint_a, joint_b, atol=1e-12)
