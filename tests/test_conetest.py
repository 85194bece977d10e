import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muellercert import (
    certify_cone,
    m_from_h,
    mueller_from_jones,
    sphere_quadratic_min,
)
from helpers import (
    fibonacci_sphere,
    grid_quadratic_min,
    pin_map,
    polarizer_map,
    random_lorentz,
    random_psd_h,
    random_unit_det_jones,
    reference_sphere_quadratic_min,
    type2_canonical,
)

_GRID_20K = fibonacci_sphere(20_000)


# An eigenvalue gap: a tie, a near tie on either side of the solver's
# degeneracy threshold, or a well-separated level.
_gaps = st.one_of(
    st.just(0.0),
    st.floats(-16.0, -8.0).map(lambda e: 10.0**e),
    st.floats(0.0, 2.0),
)


@st.composite
def _sphere_problems(draw):
    """(A, b) = (Q diag(lam) Q^T, Q c) with clustered or tied eigenvalues and
    a coupling of b to the bottom eigenvector between 1e-16 and 1."""
    lam0 = draw(st.floats(-1.0, 1.0))
    gap1, gap2 = draw(_gaps), draw(_gaps)
    lam = lam0 + np.array([0.0, gap1, gap1 + gap2])
    sign = draw(st.sampled_from([-1.0, 1.0]))
    coupling = sign * 10.0 ** draw(st.floats(-16.0, 0.0))
    c = np.array([coupling, draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q @ np.diag(lam) @ q.T, q @ c


class TestSphereQuadraticMin:
    def test_isotropic(self):
        value, s = sphere_quadratic_min(np.eye(3), np.zeros(3))
        assert abs(value - 1.0) < 1e-14
        assert abs(np.linalg.norm(s) - 1.0) < 1e-14

    def test_smallest_eigenvalue(self):
        value, s = sphere_quadratic_min(np.diag([1.0, 2.0, 3.0]), np.zeros(3))
        assert abs(value - 1.0) < 1e-14
        assert abs(abs(s[0]) - 1.0) < 1e-12

    def test_pure_linear_term(self):
        value, s = sphere_quadratic_min(np.zeros((3, 3)), np.array([0.0, 0.0, 1.0]))
        assert abs(value + 2.0) < 1e-14
        np.testing.assert_allclose(s, [0.0, 0.0, -1.0], atol=1e-12)

    def test_hard_case(self):
        # b orthogonal to the bottom eigenspace and too small to pull the
        # multiplier off lambda_min: solution completed on that eigenspace
        a = np.diag([0.0, 1.0, 2.0])
        b = np.array([0.0, 0.1, 0.1])
        value, s = sphere_quadratic_min(a, b)
        s_tail = np.array([0.0, -0.1 / 1.0, -0.1 / 2.0])
        expected_s1 = np.sqrt(1.0 - s_tail @ s_tail)
        expected = s_tail @ a @ s_tail + 2 * b @ s_tail  # bottom adds nothing
        assert abs(abs(s[0]) - expected_s1) < 1e-10
        assert abs(value - expected) < 1e-12

    def test_near_hard_case_still_converges(self):
        a = np.diag([0.0, 1.0, 2.0])
        b = np.array([1e-9, 0.1, 0.1])
        value, s = sphere_quadratic_min(a, b)
        assert abs(np.linalg.norm(s) - 1.0) < 1e-12
        grid_value, _ = grid_quadratic_min(a, b, fibonacci_sphere(20_000))
        assert value <= grid_value + 1e-12

    def test_matches_brute_force_grid(self):
        rng = np.random.default_rng(30)
        points = fibonacci_sphere(10_000)
        for _ in range(50):
            a = rng.normal(size=(3, 3))
            a = 0.5 * (a + a.T)
            b = rng.normal(size=3)
            scale = max(np.linalg.norm(a, 2), np.linalg.norm(b), 1.0)
            a, b = a / scale, b / scale
            value, s = sphere_quadratic_min(a, b)
            grid_value, _ = grid_quadratic_min(a, b, points)
            # the grid is an upper bound; the exact solver must not exceed it
            assert value <= grid_value + 1e-12
            assert grid_value - value <= 1e-3
            assert abs(np.linalg.norm(s) - 1.0) < 1e-12
            attained = s @ a @ s + 2 * b @ s
            assert abs(attained - value) < 1e-13

    @settings(max_examples=300, deadline=None)
    @given(_sphere_problems())
    # At and just above the hard-case threshold lam0 - mu is about 1e-14, so
    # the bottom component must come from completing the unit length rather
    # than from -c0 / (lam0 - mu).
    @example((np.diag([1e-16, 1.0, 1.0]), np.array([-1.0e-14, 0.115, 0.046])))
    @example((np.diag([1e-16, 1.0, 1.0]), np.array([-1.5e-14, 0.115, 0.046])))
    # A near tie just outside the degeneracy threshold, weakly coupled: the
    # multiplier must be resolved to far below the 2.5e-12 gap.
    @example(
        (
            np.diag([-0.7624836290027326, -0.7624836290001888, 0.7892123827984989]),
            np.array([1.6323540181538608e-11, 3.142147323051511e-11, 0.06605145484480272]),
        )
    )
    def test_matches_reference_near_the_hard_case(self, problem):
        a, b = problem
        value, s = sphere_quadratic_min(a, b)
        lam = np.linalg.eigvalsh(a)
        scale = max(abs(lam[0]), abs(lam[-1]), np.linalg.norm(b), 1.0)
        reference, _ = reference_sphere_quadratic_min(a, b)
        grid_value, _ = grid_quadratic_min(a, b, _GRID_20K)
        assert value <= reference + 1e-12 * scale
        assert value <= grid_value + 1e-12
        assert abs(np.linalg.norm(s) - 1.0) <= 1e-12
        assert abs(s @ a @ s + 2 * b @ s - value) <= 1e-12 * scale


def _scale_cases():
    rng = np.random.default_rng(35)
    return [
        np.eye(4),
        np.diag([1.0, 1.0, 1.0, -1.0]),
        np.diag([1.0, 1.5, 0.0, 0.0]),
        type2_canonical(1.0, 0.6, 0.3, 0.2),
        pin_map(),
        polarizer_map(0.5),
        random_lorentz(rng),
        m_from_h(random_psd_h(rng)),
        rng.normal(size=(4, 4)),
    ]


class TestCertifyCone:
    def test_identity(self):
        verdict = certify_cone(np.eye(4))
        assert verdict.is_pre_mueller
        assert abs(verdict.lorentz_margin) < 1e-12
        assert abs(verdict.intensity_margin - 1.0) < 1e-14

    def test_axis_flip_is_cone_preserving(self):
        verdict = certify_cone(np.diag([1.0, 1.0, 1.0, -1.0]))
        assert verdict.is_pre_mueller
        assert abs(verdict.lorentz_margin) < 1e-12

    def test_overamplifying_diagonal_fails(self):
        verdict = certify_cone(np.diag([1.0, 1.5, 0.0, 0.0]))
        assert not verdict.is_pre_mueller
        assert abs(verdict.lorentz_margin + 1.25) < 1e-12
        assert abs(abs(verdict.worst_input[0]) - 1.0) < 1e-9

    def test_zero_matrix_is_cone_apex(self):
        verdict = certify_cone(np.zeros((4, 4)))
        assert verdict.is_pre_mueller

    def test_pure_state_mapped_to_zero_is_allowed(self):
        # a polarizer annihilates the orthogonal pure state; that output is
        # the cone apex, not a violation
        polarizer = 0.5 * np.array(
            [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        )
        assert np.abs(polarizer @ np.array([1.0, -1.0, 0.0, 0.0])).max() == 0.0
        verdict = certify_cone(polarizer)
        assert verdict.is_pre_mueller
        assert abs(verdict.intensity_margin) < 1e-12
        assert abs(verdict.lorentz_margin) < 1e-12

    def test_scale_covariance(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = rng.normal(size=(4, 4))
            base = certify_cone(m)
            scaled = certify_cone(4.0 * m)
            assert scaled.is_pre_mueller == base.is_pre_mueller
            assert np.isclose(
                scaled.intensity_margin, 4.0 * base.intensity_margin, rtol=1e-12
            )
            assert np.isclose(
                scaled.lorentz_margin, 16.0 * base.lorentz_margin, rtol=1e-11
            )

    def test_verdict_is_lorentz_invariant(self):
        rng = np.random.default_rng(32)
        cases = [
            np.eye(4),
            np.diag([1.0, 1.0, 1.0, -1.0]),
            np.diag([1.0, 1.5, 0.0, 0.0]),
            np.diag([1.0, 0.4, 0.3, -0.2]),
        ]
        for m in cases:
            base = certify_cone(m).is_pre_mueller
            for _ in range(5):
                left = random_lorentz(rng)
                right = random_lorentz(rng)
                assert certify_cone(left @ m @ right).is_pre_mueller == base

    def test_every_mueller_matrix_preserves_the_cone(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            m = m_from_h(random_psd_h(rng))
            assert certify_cone(m).is_pre_mueller

    def test_jones_maps_preserve_the_cone(self):
        rng = np.random.default_rng(34)
        for _ in range(30):
            m = mueller_from_jones(random_unit_det_jones(rng))
            verdict = certify_cone(m)
            assert verdict.is_pre_mueller
            # Lorentz maps keep pure states pure
            assert abs(verdict.lorentz_margin) < 1e-9

    @pytest.mark.parametrize("m", _scale_cases())
    def test_scale_invariance_over_300_decades(self, m):
        base = certify_cone(m)
        base_unit = base.lorentz_margin / np.linalg.norm(m, 2) ** 2
        for k in range(-150, 151):
            scaled = 10.0**k * m
            sigma = np.linalg.norm(scaled, 2)
            verdict = certify_cone(scaled)
            assert verdict.is_pre_mueller == base.is_pre_mueller, k
            unit_lorentz = verdict.lorentz_margin / sigma**2
            assert abs(unit_lorentz - base_unit) <= 1e-12, k
            # the worst input attains the binding margin
            out = (scaled / sigma) @ np.concatenate([[1.0], verdict.worst_input])
            if unit_lorentz <= verdict.intensity_margin / sigma:
                attained = out[0] ** 2 - out[1:] @ out[1:]
                assert abs(attained - unit_lorentz) <= 1e-12, k
            else:
                assert abs(out[0] - verdict.intensity_margin / sigma) <= 1e-12, k
