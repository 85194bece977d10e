import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muellercert import (
    LORENTZ_METRIC,
    NonHermitianInputError,
    PAULI_BASIS,
    STOKES_TO_VEC,
    VEC_TO_STOKES,
    certify_cone,
    coherency_from_stokes,
    coherency_is_physical,
    devectorize,
    expectation,
    h_from_m,
    m_from_h,
    mueller_from_jones,
    physicality,
    stokes_from_coherency,
    stokes_is_physical,
    stokes_is_pure,
    two_mode_is_physical,
    vectorize,
)
from muellercert.cli import analyze_matrix
from muellercert.core import as_mueller_matrix, as_mueller_stack
from helpers import (
    EXACTLY_SCALABLE,
    SCALE_EXPONENT,
    explicit_h_table,
    random_jones,
    random_unit_det_jones,
)


class TestConstants:
    def test_pauli_orthonormality(self):
        for a in range(4):
            for b in range(4):
                t = np.trace(PAULI_BASIS[a] @ PAULI_BASIS[b])
                assert t == (2.0 if a == b else 0.0)

    def test_pauli_ordering_puts_circular_on_axis_three(self):
        # sigma_y in the last slot: its entries are pure imaginary
        assert np.array_equal(PAULI_BASIS[3], np.array([[0, -1j], [1j, 0]]))
        assert np.array_equal(PAULI_BASIS[1], np.diag([1.0 + 0j, -1.0]))

    def test_vec_stokes_maps_are_exact_inverses(self):
        assert np.array_equal(VEC_TO_STOKES @ STOKES_TO_VEC, np.eye(4))
        assert np.array_equal(STOKES_TO_VEC @ VEC_TO_STOKES, np.eye(4))
        # essentially unitary: inverse is half the conjugate transpose
        assert np.array_equal(STOKES_TO_VEC, 0.5 * VEC_TO_STOKES.conj().T)

    def test_pair_basis_orthonormality(self):
        units = [
            0.5 * np.kron(PAULI_BASIS[a], PAULI_BASIS[b].conj())
            for a in range(4)
            for b in range(4)
        ]
        gram = np.array([[np.trace(u @ w) for w in units] for u in units])
        assert np.abs(gram - np.eye(16)).max() < 1e-15


class TestStokesCoherency:
    def test_unpolarized(self):
        np.testing.assert_allclose(
            stokes_from_coherency(0.5 * np.eye(2)), [1, 0, 0, 0], atol=1e-15
        )

    def test_x_polarized(self):
        np.testing.assert_allclose(
            stokes_from_coherency(np.diag([1.0, 0.0])), [1, 1, 0, 0], atol=1e-15
        )

    def test_circular_sits_on_axis_three(self):
        phi = 0.5 * np.array([[1, -1j], [1j, 1]])
        np.testing.assert_allclose(stokes_from_coherency(phi), [1, 0, 0, 1], atol=1e-15)

    def test_rejects_nonhermitian(self):
        with pytest.raises(NonHermitianInputError):
            stokes_from_coherency(np.array([[1j, 0], [0, 0]]))

    def test_coherency_from_stokes_examples(self):
        np.testing.assert_allclose(
            coherency_from_stokes([1, 0, 0, 0]), 0.5 * np.eye(2), atol=1e-15
        )
        np.testing.assert_allclose(
            coherency_from_stokes([1, 1, 0, 0]), np.diag([1.0, 0.0]), atol=1e-15
        )

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            s = rng.normal(size=4)
            back = stokes_from_coherency(coherency_from_stokes(s))
            assert np.abs(back - s).max() < 1e-14

    def test_transformation_consistency(self):
        # field-level action and Stokes-level action agree
        rng = np.random.default_rng(12)
        for _ in range(200):
            j = random_jones(rng)
            b = random_jones(rng)
            phi = b @ b.conj().T
            lhs = stokes_from_coherency(j @ phi @ j.conj().T)
            rhs = mueller_from_jones(j) @ stokes_from_coherency(phi)
            assert np.abs(lhs - rhs).max() < 1e-12


class TestVectorize:
    def test_examples(self):
        np.testing.assert_array_equal(vectorize(np.eye(2)), [1, 0, 0, 1])
        np.testing.assert_array_equal(vectorize([[0, 1], [0, 0]]), [0, 1, 0, 0])

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            k = random_jones(rng)
            assert np.array_equal(devectorize(vectorize(k)), k)


class TestMuellerFromJones:
    def test_identity(self):
        np.testing.assert_allclose(mueller_from_jones(np.eye(2)), np.eye(4), atol=1e-15)

    def test_global_phase_invariance(self):
        for phase in (0.3, 1.7, -2.2):
            m = mueller_from_jones(np.exp(1j * phase) * np.eye(2))
            np.testing.assert_allclose(m, np.eye(4), atol=1e-15)

    def test_polarizer(self):
        expected = 0.5 * np.array(
            [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        )
        np.testing.assert_allclose(
            mueller_from_jones(np.diag([1.0, 0.0])), expected, atol=1e-15
        )

    def test_unit_determinant_gives_proper_orthochronous_lorentz(self):
        rng = np.random.default_rng(14)
        g = LORENTZ_METRIC
        for _ in range(100):
            m = mueller_from_jones(random_unit_det_jones(rng))
            assert np.abs(m.T @ g @ m - g).max() < 1e-12
            assert m[0, 0] > 0
            assert abs(np.linalg.det(m) - 1.0) < 1e-10


class TestHermitianCorrespondence:
    def test_identity_mueller(self):
        expected = np.array(
            [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
        )
        np.testing.assert_allclose(h_from_m(np.eye(4)), expected, atol=1e-15)

    def test_diagonal_two_block_structure(self):
        d = np.array([0.7, -0.3, 1.1, 0.4])
        expected = 0.5 * np.array(
            [
                [d[0] + d[1], 0, 0, d[2] + d[3]],
                [0, d[0] - d[1], d[2] - d[3], 0],
                [0, d[2] - d[3], d[0] - d[1], 0],
                [d[2] + d[3], 0, 0, d[0] + d[1]],
            ],
            dtype=complex,
        )
        np.testing.assert_allclose(h_from_m(np.diag(d)), expected, atol=1e-15)

    def test_perfect_depolarizer_full_rank(self):
        np.testing.assert_allclose(
            h_from_m(np.diag([1.0, 0, 0, 0])), 0.5 * np.eye(4), atol=1e-15
        )

    def test_matches_entrywise_table(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            m = rng.normal(size=(4, 4))
            assert np.abs(h_from_m(m) - explicit_h_table(m)).max() < 1e-14

    def test_output_is_exactly_hermitian(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            h = h_from_m(rng.normal(size=(4, 4)))
            assert np.array_equal(h, h.conj().T)

    def test_m_from_h_examples(self):
        np.testing.assert_allclose(
            m_from_h(0.5 * np.eye(4)), np.diag([1.0, 0, 0, 0]), atol=1e-15
        )
        jt = np.array([1, 0, 0, 1], dtype=complex)
        np.testing.assert_allclose(
            m_from_h(np.outer(jt, jt.conj())), np.eye(4), atol=1e-15
        )

    def test_m_from_h_rejects_nonhermitian(self):
        h = np.eye(4, dtype=complex)
        h[0, 1] = 1.0
        with pytest.raises(NonHermitianInputError):
            m_from_h(h)

    def test_round_trip_random(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            m = rng.normal(size=(4, 4))
            assert np.abs(m_from_h(h_from_m(m)) - m).max() < 1e-12

    def test_jones_image_is_rank_one_projector(self):
        rng = np.random.default_rng(18)
        for _ in range(1000):
            j = random_jones(rng)
            jt = vectorize(j)
            h = h_from_m(mueller_from_jones(j))
            assert np.abs(h - np.outer(jt, jt.conj())).max() < 1e-12

    def test_real_linearity_exact_on_integers(self):
        # integer inputs keep every float operation exact
        rng = np.random.default_rng(19)
        for _ in range(50):
            m1 = rng.integers(-100, 100, size=(4, 4)).astype(float)
            m2 = rng.integers(-100, 100, size=(4, 4)).astype(float)
            alpha, beta = 3.0, -7.0
            lhs = h_from_m(alpha * m1 + beta * m2)
            rhs = alpha * h_from_m(m1) + beta * h_from_m(m2)
            assert np.array_equal(lhs, rhs)

    def test_trace_identity(self):
        # tr H equals twice the total-intensity entry M00 (visible on the
        # diagonal of the entrywise table; consistent with the rank-one
        # Jones image, whose trace is the squared Frobenius norm).
        rng = np.random.default_rng(20)
        for _ in range(200):
            m = rng.normal(size=(4, 4))
            assert abs(np.trace(h_from_m(m)).real - 2.0 * m[0, 0]) < 1e-14


def _outcome(fn, *args):
    """fn(*args), or the class NonHermitianInputError where it raises that."""
    try:
        return fn(*args)
    except NonHermitianInputError:
        return NonHermitianInputError


class TestPredicates:
    # The predicates return Python bools, never numpy.bool: `is` compares.
    def test_stokes_physical(self):
        assert stokes_is_physical([1, 0, 0, 0]) is True
        assert stokes_is_physical([1, 1, 0, 0]) is True  # closed cone: surface included
        assert stokes_is_physical([1, 1.01, 0, 0]) is False
        assert stokes_is_physical([-1, 0, 0, 0]) is False
        assert stokes_is_physical([0, 0, 0, 0]) is False

    def test_stokes_pure(self):
        assert stokes_is_pure([1, 0, 0, 1]) is True
        assert stokes_is_pure([1, 0, 0, 0.5]) is False
        assert stokes_is_pure([1, 0, 0, 1.5]) is False

    @settings(max_examples=300, deadline=None)
    @given(
        EXACTLY_SCALABLE,
        st.booleans(),
        SCALE_EXPONENT,
        st.lists(EXACTLY_SCALABLE, min_size=8, max_size=8),
        st.sampled_from(["indefinite", "psd", "skew"]),
        st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=8, max_size=8),
        st.integers(-990, 500),
    )
    def test_stokes_verdicts_do_not_depend_on_scale(self, entries, on_cone, k, rows, kind, e, j):
        s = np.array(entries)
        if on_cone:  # on the cone surface up to rounding
            s[0] = np.sqrt(s[1:] @ s[1:])
        scaled = np.ldexp(s, k)
        assert stokes_is_physical(scaled) is stokes_is_physical(s)
        assert stokes_is_pure(scaled) is stokes_is_pure(s)
        # The functions that take hermitian input, on a complex 4x4 a with
        # exactly scalable parts (so a + a^dag is exactly hermitian) and on
        # the coherency matrix of s: 2**k times each input is exact, and
        # each function raises, or answers 2**k times its answer at scale 1.
        parts = np.array(rows).reshape(2, 4, 4)
        a = parts[0] + 1j * parts[1]
        c = {"indefinite": a + a.conj().T, "psd": a + a.conj().T + 2.0**24 * np.eye(4), "skew": a}
        c = c[kind]
        phi = a[:2, :2] if kind == "skew" else coherency_from_stokes(s)
        vec = np.array(e[:4]) + 1j * np.array(e[4:])
        for fn, args in [
            (m_from_h, (c,)),
            (expectation, (c, vec)),
            (two_mode_is_physical, (c,)),
            (stokes_from_coherency, (phi,)),
            (coherency_is_physical, (phi,)),
        ]:
            at_one = _outcome(fn, *args)
            at_scale = _outcome(fn, args[0] * 2.0**k, *args[1:])
            if isinstance(at_one, (bool, type)):
                assert at_scale is at_one, fn.__name__
            else:
                assert np.array_equal(at_scale, at_one * 2.0**k), fn.__name__
        # The cone's intensity margin on a real matrix with entries 0 or of
        # magnitude 2**-31..2**9: 2**j times it is exact, and its largest
        # singular value stays below 2**511, so its square is finite.
        m = np.ldexp(parts[0], -11)
        at_one = certify_cone(m).intensity_margin
        assert certify_cone(np.ldexp(m, j)).intensity_margin == np.ldexp(at_one, j)

    @pytest.mark.parametrize("scale", [1.0, 1e-170, 1e-200, 1e-300, 1e170, 1e200])
    def test_stokes_verdicts_at_extreme_scales(self, scale):
        # squared at these scales, the entries under- or overflow
        assert stokes_is_physical(scale * np.array([2.0, 1.0, 1.5, 1.5])) is False
        assert stokes_is_physical(scale * np.array([2.0, 1.0, 1.0, 1.0])) is True
        assert stokes_is_pure(scale * np.array([1.0, 0.6, 0.0, 0.0])) is False
        assert stokes_is_pure(scale * np.array([1.0, 0.6, 0.0, 0.8])) is True
        # so do the hermiticity and determinant tests of raw entries
        lopsided = np.zeros((4, 4))
        lopsided[0, 0] = lopsided[0, 1] = scale
        with pytest.raises(NonHermitianInputError):
            m_from_h(lopsided)
        with pytest.raises(NonHermitianInputError):
            expectation(lopsided, np.ones(4))
        assert two_mode_is_physical(lopsided) is False
        with pytest.raises(NonHermitianInputError):
            stokes_from_coherency(scale * np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert coherency_is_physical(scale * np.diag([1.0, -0.1])) is False
        assert coherency_is_physical(scale * np.diag([1.0, 0.1])) is True
        # and so does the norm of a matrix's first row in the cone test; the
        # Lorentz margin, the unit margin times the square of the largest
        # singular value, leaves the float range from between about 9.5e153
        # and 1.34e154 on, and the cone stage raises there
        rank_one = np.outer([1.0, 1.0, 0.0, 0.0], [0.5, 1.0, 0.0, 0.0])
        with_m01 = np.diag([1.0, 0.5, 0.3, -0.2])
        with_m01[0, 1] = 0.1
        if scale > 1.0:
            with pytest.raises(FloatingPointError):
                analyze_matrix(scale * with_m01)
            return
        verdict = certify_cone(scale * rank_one)
        assert not verdict.is_pre_mueller
        assert verdict.intensity_margin == pytest.approx(-0.5 * scale, rel=1e-15)
        verdict = certify_cone(scale * with_m01)
        assert verdict.is_pre_mueller
        assert verdict.intensity_margin == pytest.approx(0.9 * scale, rel=1e-15)

    def test_coherency_physical(self):
        assert coherency_is_physical(0.5 * np.eye(2)) is True
        assert coherency_is_physical(np.diag([1.0, 0.0])) is True
        assert coherency_is_physical(np.diag([1.0, -0.1])) is False
        assert coherency_is_physical(np.array([[1.0, 1.0], [0.0, 1.0]])) is False


class TestMuellerCoercion:
    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="4x4"):
            as_mueller_matrix(np.eye(3))
        with pytest.raises(ValueError, match="real"):
            as_mueller_matrix(np.eye(4, dtype=complex) * 1j)
        with pytest.raises(ValueError, match="non-finite"):
            as_mueller_matrix(np.full((4, 4), np.nan))

    def test_stack_coercion(self):
        assert as_mueller_stack(np.eye(4)).shape == (1, 4, 4)
        assert as_mueller_stack(np.zeros((3, 4, 4))).shape == (3, 4, 4)
        assert as_mueller_stack(np.eye(4, dtype=int)).dtype == float
        for bad in (np.zeros((4,)), np.zeros((2, 3, 3)), np.zeros((2, 2, 4, 4))):
            with pytest.raises(ValueError, match="stack"):
                as_mueller_stack(bad)
        with pytest.raises(ValueError, match="real"):
            as_mueller_stack(np.zeros((2, 4, 4), dtype=complex))


class TestTolerance:
    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            physicality(np.eye(4), tol)

    def test_zero_tol(self):
        assert physicality(np.eye(4), 0.0).is_mueller
