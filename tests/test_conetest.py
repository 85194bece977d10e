import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings

from muellercert import (
    NotTypeIError,
    certify_cone,
    classify,
    m_from_h,
    mueller_from_jones,
    physicality,
    sphere_quadratic_min,
    type1_factor,
)
from muellercert.cli import analyze_matrix
from helpers import (
    fibonacci_sphere,
    grid_quadratic_min,
    pin_map,
    polarizer_map,
    random_lorentz,
    random_psd_h,
    random_unit_det_jones,
    reference_sphere_quadratic_min,
    sphere_problems,
    type2_canonical,
)

_GRID_20K = fibonacci_sphere(20_000)


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

    def test_answer_does_not_depend_on_the_problem_scale(self):
        # The value scales with a and b and the minimizer does not, from
        # 1e-150 to 1e150 (warnings are errors in this suite, so no overflow
        # warning is raised either).
        rng = np.random.default_rng(32)
        for _ in range(10):
            a = rng.normal(size=(3, 3))
            b = rng.normal(size=3)
            value, s = sphere_quadratic_min(a, b)
            for scale in 10.0 ** np.arange(-150, 151, 15):
                scaled_value, scaled_s = sphere_quadratic_min(scale * a, scale * b)
                assert abs(scaled_value / scale - value) <= 1e-13 * abs(value)
                np.testing.assert_allclose(scaled_s, s, rtol=0.0, atol=1e-12)

    def test_empty_problem_is_rejected(self):
        with pytest.raises(ValueError, match="linear term b: expected at least one entry"):
            sphere_quadratic_min(np.zeros((0, 0)), np.zeros(0))

    def test_minimum_beyond_the_float_range_is_rejected(self):
        # The minimum is -3e308 at s = (-1, 0, 0), although every entry is
        # finite.
        a, b = np.diag([-1e308, 0.0, 0.0]), np.array([1e308, 0.0, 0.0])
        with pytest.raises(ValueError, match="minimum is beyond the float range"):
            sphere_quadratic_min(a, b)
        value, s = sphere_quadratic_min(a / 4.0, b / 4.0)
        assert value == -0.75e308 and s.tolist() == [-1.0, 0.0, 0.0]

    @settings(max_examples=300, deadline=None)
    @given(sphere_problems())
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

    @staticmethod
    def _assert_no_worse_than_the_reference(a, b):
        # a unit minimizer that attains the value, which is no worse than
        # the secular solve's, all within 1e-12 of the problem scale
        value, s = sphere_quadratic_min(a, b)
        lam = np.linalg.eigvalsh(0.5 * (a + a.T))
        scale = max(abs(lam[0]), abs(lam[-1]), np.linalg.norm(b), 1.0)
        reference, _ = reference_sphere_quadratic_min(a, b)
        assert s.shape == b.shape
        assert abs(np.linalg.norm(s) - 1.0) <= 1e-12
        assert abs(s @ a @ s + 2 * b @ s - value) <= 1e-12 * scale
        assert value <= reference + 1e-12 * scale
        return value, s

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_matches_reference_at_other_sizes(self, n):
        # 200 problems per size: Gaussian ones, and spectra with ties and
        # near ties under a random rotation with the bottom coupling from
        # 1e-16 to 1
        rng = np.random.default_rng(40 + n)
        for k in range(200):
            if k % 2 == 0:
                a = rng.normal(size=(n, n))
                a, b = a + a.T, rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 0.0)
            else:
                steps = rng.choice([0.0, 1e-13, 1e-9, 0.5], size=n)
                steps[0] = rng.uniform(-1.0, 1.0)
                c = rng.uniform(-1.0, 1.0, size=n)
                c[0] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, 0.0)
                q, _ = np.linalg.qr(rng.normal(size=(n, n)))
                a, b = q @ np.diag(np.cumsum(steps)) @ q.T, q @ c
            self._assert_no_worse_than_the_reference(a, b)

    @pytest.mark.parametrize(
        "lam, c",
        [
            # n = 2: the whole spectrum tied, so only b = 0 is a hard case
            ([0.3, 0.3], [0.0, 0.0]),
            ([0.3, 0.3 + 1e-13], [0.0, 0.0]),
            # n = 4: a tied bottom pair off which b pulls too weakly to leave it
            ([0.0, 0.0, 1.0, 2.0], [0.0, 0.0, 0.1, 0.1]),
            ([-0.5, -0.5, 0.5, 0.5], [0.0, 0.0, 0.2, -0.3]),
        ],
    )
    @pytest.mark.parametrize("rotate", [False, True])
    def test_tied_hard_case_at_other_sizes(self, lam, c, rotate):
        lam, c = np.array(lam), np.array(c)
        q = np.linalg.qr(np.random.default_rng(len(lam)).normal(size=(len(lam),) * 2))[0]
        if not rotate:
            q = np.eye(len(lam))
        a, b = q @ np.diag(lam) @ q.T, q @ c
        value, s = self._assert_no_worse_than_the_reference(a, b)
        # Off the tied bottom pair s is -c / gap, completed on the pair to
        # unit length.
        bottom = lam - lam[0] <= 1e-12
        tail = np.divide(-c, lam - lam[0], out=np.zeros_like(c), where=~bottom)
        expected = tail @ np.diag(lam) @ tail + 2 * c @ tail + lam[0] * (1.0 - tail @ tail)
        assert abs(value - expected) <= 1e-12
        np.testing.assert_allclose((q.T @ s)[~bottom], tail[~bottom], rtol=0.0, atol=1e-12)


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


# m30 = m33 = 2**511, every other entry 0: every entry is below sqrt(float
# max) and sigma**2 = 2**1023 is finite, but the Lorentz margin of m / sigma
# is -2, so the reported margin -2 sigma**2 is -2**1024.
_WIDE = np.zeros((4, 4))
_WIDE[3, 0] = _WIDE[3, 3] = 2.0**511
# The top of the float range, where sigma itself overflows.
_TOP = np.diag([1.0, 0.5, 0.3, -0.2])
_TOP[0, 1] = 0.1
_TOP = np.clip(sys.float_info.max * _TOP, -sys.float_info.max, sys.float_info.max)
# Another input whose sigma overflows: its entries are finite, its norm not.
_DIAGONAL_TOP = np.diag([1.7e308, 1.6e308, 1.5e308, 1.4e308])
_DIAGONAL_TOP[0, 1] = 1.7e308


class TestFloatRange:
    @pytest.mark.parametrize("m", [_WIDE, _TOP], ids=["wide", "top"])
    @pytest.mark.parametrize("fn", [analyze_matrix, certify_cone, classify])
    def test_lorentz_margin_beyond_the_float_range_raises(self, fn, m):
        with pytest.raises(FloatingPointError, match="Lorentz margin beyond the float range"):
            fn(m)

    @pytest.mark.parametrize("m", [_TOP, _DIAGONAL_TOP], ids=["top", "diagonal-top"])
    def test_factor_with_sigma_beyond_the_float_range_raises(self, m):
        # m / inf is 0, so N is 0 and d = inf * 0 is nan, which the singular
        # screen d3 == 0 lets through; classify raises from the cone stage
        with pytest.raises(FloatingPointError, match="^analysis overflows: largest singular"):
            type1_factor(m)
        with pytest.raises(FloatingPointError, match="Lorentz margin beyond the float range"):
            classify(m)

    def test_factor_at_1e300_answers(self):
        # the same shapes at 1e300: the top one factors, and the diagonal
        # one gets the reason of its spectrum, not of the float range
        scale = 1e300 / sys.float_info.max
        l_left, d, l_right = type1_factor(scale * _TOP)
        rebuilt = l_left @ np.diag(d) @ l_right
        np.testing.assert_allclose(rebuilt, scale * _TOP, rtol=0.0, atol=1e-12 * 1e300)
        with pytest.raises(NotTypeIError, match="complex spectrum"):
            type1_factor(1e300 / 1.7e308 * _DIAGONAL_TOP)

    def test_margin_just_inside_the_float_range_is_reported(self):
        # half the wide input: the margin is -2 sigma**2 = -2**1022
        verdict = certify_cone(0.5 * _WIDE)
        assert not verdict.is_pre_mueller
        assert verdict.lorentz_margin == pytest.approx(-(2.0**1022), rel=1e-15)
        assert analyze_matrix(0.5 * _WIDE)["pre_mueller"]["verdict"] is False

    def test_stages_that_do_not_square_sigma_still_answer(self):
        # physicality reads the hermitian stage only
        report = physicality(1e300 * np.diag([1.0, 0.5, 0.3, -0.2]))
        assert report.is_mueller and report.rank == 3

    def test_hermitian_stage_answers_or_raises_at_the_top_of_the_float_range(self):
        # Entries drawn from values up to float max: H and its eigh are taken
        # on m over a power of two, so each eigenvalue is finite, or the
        # stage raises where one scaled back is beyond the float range.
        # Neither LinAlgError, nor inf, nor a warning.
        top = sys.float_info.max
        values = [0.0, top, -top, 1e154, -1e154, 9e153, -9e153, 6.7e153, -6.7e153]
        values += [1e-160, 5e-324, 1.0, top / 3, -top / 7]
        # Draw 480 has eigenvalues within one rounding of +-float max (an
        # unscaled eigvalsh gives +-1.797e308): its scaled eigenvalues round
        # to +-1.0, and 1.0 * 2**1024 overflows, so it raises.
        rng = np.random.default_rng(1)
        raised = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for draw in range(1500):
                try:
                    eigenvalues = physicality(rng.choice(values, size=(4, 4))).eigenvalues
                except FloatingPointError as exc:
                    assert "hermitian eigenvalue beyond the float range" in str(exc)
                    raised.append(draw)
                    continue
                assert np.isfinite(eigenvalues).all()
        assert len(raised) <= 900
        assert 480 in raised
