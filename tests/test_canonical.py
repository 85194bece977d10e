import numpy as np
import pytest

import muellercert
from muellercert import (
    DegenerateSpectrumError,
    Family,
    LORENTZ_METRIC,
    NotTypeIError,
    classify,
    h_eigs_diagonal,
    h_from_m,
    mueller_from_jones,
    n_matrix,
    type1_constraints,
    type1_factor,
    type1_margins,
    type2_constraints,
)
from helpers import (
    boost_jones,
    pin_map,
    polarizer_map,
    random_lorentz,
    rotation_jones,
    type2_canonical,
)


class TestNMatrix:
    def test_identity(self):
        np.testing.assert_array_equal(n_matrix(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        d = np.array([3.0, -2.0, 1.0, 0.5])
        np.testing.assert_allclose(n_matrix(np.diag(d)), np.diag(d**2), atol=1e-15)

    def test_lorentz_gives_identity(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            lorentz = random_lorentz(rng)
            assert np.abs(n_matrix(lorentz) - np.eye(4)).max() < 1e-11


class TestClassify:
    def test_distinct_diagonal_is_type_one(self):
        result = classify(np.diag([3.0, 2.0, 1.0, 0.5]))
        assert result.family is Family.TYPE_I
        np.testing.assert_allclose(result.d, [3, 2, 1, 0.5], atol=1e-12)
        assert result.l_left is not None

    def test_axis_flip_carries_negative_d3(self):
        result = classify(np.diag([1.0, 1.0, 1.0, -1.0]))
        assert result.family is Family.TYPE_I
        np.testing.assert_allclose(result.d, [1, 1, 1, -1], atol=1e-12)

    def test_identity(self):
        result = classify(np.eye(4))
        assert result.family is Family.TYPE_I
        np.testing.assert_allclose(result.d, [1, 1, 1, 1], atol=1e-12)

    def test_pin_map(self):
        assert classify(pin_map(1.0)).family is Family.PIN_MAP

    def test_polarizer(self):
        assert classify(polarizer_map(0.7)).family is Family.POLARIZER

    def test_type_two_canonical_form(self):
        result = classify(type2_canonical(2.0, 1.0, 1.0, 1.0))
        assert result.family is Family.TYPE_II
        np.testing.assert_allclose(result.d, [2, 1, 1, 1], atol=1e-12)

    def test_not_pre_mueller(self):
        result = classify(np.diag([1.0, 1.5, 0.0, 0.0]))
        assert result.family is Family.NOT_PRE_MUELLER
        assert result.d is None

    def test_zero_matrix_is_indeterminate(self):
        assert classify(np.zeros((4, 4))).family is Family.INDETERMINATE

    def test_family_is_double_coset_invariant(self):
        rng = np.random.default_rng(51)
        cases = [
            (np.diag([3.0, 2.0, 1.0, 0.5]), Family.TYPE_I),
            (np.diag([1.0, 0.7, 0.4, -0.2]), Family.TYPE_I),
            (type2_canonical(2.0, 1.0, 1.0, 1.0), Family.TYPE_II),
            (pin_map(1.0), Family.PIN_MAP),
            (polarizer_map(1.0), Family.POLARIZER),
        ]
        for m, family in cases:
            for _ in range(5):
                dressed = random_lorentz(rng) @ m @ random_lorentz(rng)
                assert classify(dressed).family is family

    def test_depolarizer_like_rank_one_is_type_one(self):
        result = classify(np.diag([1.0, 0.0, 0.0, 0.0]))
        assert result.family is Family.TYPE_I
        np.testing.assert_allclose(result.d, [1, 0, 0, 0], atol=1e-9)

    def test_exact_ties_stay_type_one(self):
        rng = np.random.default_rng(55)
        d = np.array([1.0, 0.5, 0.5, 0.2])
        assert classify(np.diag(d)).family is Family.TYPE_I
        dressed = random_lorentz(rng) @ np.diag(d) @ random_lorentz(rng)
        result = classify(dressed)
        assert result.family is Family.TYPE_I
        np.testing.assert_allclose(result.d, d, atol=1e-7)

    @pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e-10, 1.0, 1e40, 1e80, 1e100])
    def test_d_scales_with_the_input(self, scale):
        # the sign of d3 is the sign of det(m), which under- or overflows
        # long before the canonical parameters do
        rng = np.random.default_rng(57)
        d = np.array([1.0, 0.5, 0.3, -0.2])
        for m in (np.diag(d), random_lorentz(rng) @ np.diag(d) @ random_lorentz(rng)):
            result = classify(scale * m)
            assert result.family is Family.TYPE_I
            np.testing.assert_array_equal(np.sign(result.d / scale), np.sign(d))
            np.testing.assert_allclose(result.d / scale, d, rtol=1e-7)
            _, d_out, _ = type1_factor(scale * m)
            np.testing.assert_allclose(d_out / scale, d, rtol=1e-7)

    def test_family_of_a_stack_row_is_the_public_enum(self):
        stack = np.stack([np.zeros((4, 4)), np.diag([3.0, 2.0, 1.0, 0.5])])
        assert classify(stack[1]).family is muellercert.Family.TYPE_I
        assert muellercert.canonical.Family is muellercert.Family

    def test_near_ties_are_indeterminate_not_guessed(self):
        # split sits between the rank-test and clustering thresholds, where
        # defective and diagonalizable structures cannot be told apart
        d = np.array([1.0, 0.5 + 1e-6, 0.5, 0.2])
        result = classify(np.diag(d))
        assert result.family is Family.INDETERMINATE
        assert "cluster" in result.diagnostics


class TestType1Factor:
    def test_diagonal_input_yields_identity_factors(self):
        d = np.array([3.0, 2.0, 1.0, 0.5])
        l_left, d_out, l_right = type1_factor(np.diag(d))
        np.testing.assert_allclose(l_left, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(l_right, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(d_out, d, atol=1e-12)

    def test_construct_then_recover(self):
        d = np.array([3.0, 2.0, 1.0, 0.5])
        left = mueller_from_jones(rotation_jones(3, 0.7))
        right = mueller_from_jones(boost_jones(1, 0.9))
        m = left @ np.diag(d) @ right
        l_left, d_out, l_right = type1_factor(m)
        np.testing.assert_allclose(d_out, d, atol=1e-9)
        np.testing.assert_allclose(l_left @ np.diag(d_out) @ l_right, m, atol=1e-9)

    def test_negative_d3_round_trip(self):
        rng = np.random.default_rng(52)
        d = np.array([2.5, 1.5, 0.8, -0.3])
        m = random_lorentz(rng) @ np.diag(d) @ random_lorentz(rng)
        l_left, d_out, l_right = type1_factor(m)
        np.testing.assert_allclose(d_out, d, atol=1e-8)
        g = LORENTZ_METRIC
        for factor in (l_left, l_right):
            assert np.abs(factor.T @ g @ factor - g).max() < 1e-8
            assert factor[0, 0] > 0
            assert abs(np.linalg.det(factor) - 1.0) < 1e-8

    def test_identity_has_degenerate_spectrum(self):
        with pytest.raises(DegenerateSpectrumError, match="not distinct within tol"):
            type1_factor(np.eye(4))

    def test_singular_input_rejected(self):
        with pytest.raises(NotTypeIError, match="nonsingular input"):
            type1_factor(np.diag([1.0, 0.5, 0.25, 0.0]))

    def test_type_two_input_rejected(self):
        rejected = (NotTypeIError, DegenerateSpectrumError)
        with pytest.raises(rejected, match="not distinct within tol"):
            type1_factor(type2_canonical(2.0, 1.0, 1.0, 1.0))

    def test_spacelike_top_eigenvector_rejected(self):
        with pytest.raises(NotTypeIError, match="top eigenvector is not timelike"):
            type1_factor(np.diag([0.5, 3.0, 2.0, 1.0]))

    def test_improper_left_factor_rejected(self):
        with pytest.raises(NotTypeIError, match="not proper orthochronous"):
            type1_factor(-np.diag([3.0, 2.0, 1.0, 0.5]))


class TestDiagonalConstraints:
    def test_identity_boundary(self):
        assert type1_constraints([1.0, 1.0, 1.0, 1.0])

    def test_axis_flip_violates(self):
        assert not type1_constraints([1.0, 1.0, 1.0, -1.0])

    def test_van_zyl_parameters_violate(self):
        d = (0.9735, 0.9112, 0.4640, -0.3838)
        assert not type1_constraints(d)
        margins = type1_margins(d)
        assert int(np.argmin(margins)) == 2  # d1 + d2 - d3 <= d0 binds
        assert abs(-margins[2] - 0.7855) < 1e-10

    def test_margins_vectorized(self):
        d = np.array([[1.0, 0, 0, 0], [1.0, 1, 1, 1], [1.0, 1, 1, -1]])
        flags = type1_constraints(d)
        np.testing.assert_array_equal(flags, [True, True, False])

    def test_equivalence_with_numerical_psd_on_a_grid(self):
        # closed-form inequalities against LAPACK eigenvalues, small grid
        values = np.linspace(-1.5, 1.5, 9)
        grid = np.stack(np.meshgrid(*([values] * 4), indexing="ij"), axis=-1)
        grid = grid.reshape(-1, 4)
        flags = type1_constraints(grid, tol=2e-10)
        for d, flag in zip(grid, flags):
            eig_min = np.linalg.eigvalsh(h_from_m(np.diag(d)))[0]
            assert flag == (eig_min >= -1e-10)

    def test_type2_constraints_examples(self):
        assert type2_constraints([2.0, 1.0, 1.0, 1.0])
        assert not type2_constraints([2.0, 1.0, 1.5, 1.5])  # 2.25 > 2
        assert not type2_constraints([2.0, 1.0, 1.0, 0.5])  # d3 != d2

    def test_type2_constraints_match_numerical_psd(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            d0 = rng.uniform(0.5, 3.0)
            d1 = rng.uniform(0.1, d0 - 0.05)
            cap = np.sqrt(d0 * d1)
            d2 = rng.uniform(0.0, cap)
            d3 = d2 if rng.random() < 0.5 else rng.uniform(-d2, d2)
            d = np.array([d0, d1, d2, d3])
            eig_min = float(np.linalg.eigvalsh(h_from_m(type2_canonical(*d)))[0])
            assert type2_constraints(d, tol=1e-9) == (eig_min >= -1e-9 * d0)


class TestHEigsDiagonal:
    def test_examples(self):
        np.testing.assert_allclose(h_eigs_diagonal([1, 1, 1, 1]), [2, 0, 0, 0])
        np.testing.assert_allclose(h_eigs_diagonal([1, 0, 0, 0]), [0.5] * 4)
        np.testing.assert_allclose(h_eigs_diagonal([1, 1, 1, -1]), [1, 1, 1, -1])

    def test_matches_numerical_spectrum(self):
        rng = np.random.default_rng(54)
        for _ in range(1000):
            d = rng.normal(size=4)
            numerical = np.linalg.eigvalsh(h_from_m(np.diag(d)))[::-1]
            assert np.abs(h_eigs_diagonal(d) - numerical).max() < 1e-12
