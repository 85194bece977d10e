import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from muellercert import kernel
from muellercert.cli import analyze_stack

from helpers import (
    EXACTLY_SCALABLE,
    SCALE_EXPONENT,
    bench_corpus,
    boost_jones,
    pin_map,
    polarizer_map,
    random_lorentz,
    rotation_jones,
    type2_canonical,
)


def _lorentz_factor(draw, rapidity=1.0):
    """Proper orthochronous Lorentz matrix: a rotation after a boost of
    rapidity at most ``rapidity``, about drawn axes."""
    rotation = rotation_jones(draw(st.integers(1, 3)), draw(st.floats(-np.pi, np.pi)))
    boost = boost_jones(draw(st.integers(1, 3)), draw(st.floats(-rapidity, rapidity)))
    return mueller_from_jones(rotation @ boost)


@st.composite
def _scaled_type_one(draw):
    """A scale 10**k, k in [-300, 300], canonical parameters (1, d1, d2, +-d3)
    whose magnitudes are 0.05 to 0.3 apart (so |d3| >= 0.1), and the
    unscaled Lorentz-dressed matrix."""
    d = 1.0 - np.cumsum([0.0] + [draw(st.floats(0.05, 0.3)) for _ in range(3)])
    d[3] *= draw(st.sampled_from([1.0, -1.0]))
    m = _lorentz_factor(draw) @ np.diag(d) @ _lorentz_factor(draw)
    return 10.0 ** draw(st.floats(-300.0, 300.0)), d, m


@st.composite
def _near_face_type_one(draw):
    """Canonical parameters (1, d1, d2, d3) with margin eps on the face
    d1 + d2 - d3 <= 1 of the tetrahedron: on it (eps = 0) or 1e-10 to 1e-2
    to either side, with |d3| from 1e-6 to 1 times min(d1, 1 - d1), or with
    a tie of N's lower eigenvalues, d2 = d1 or d3 = -d2 (d1 from 0.4 to
    0.9); and the Lorentz-dressed matrix."""
    d1 = draw(st.floats(0.05, 0.95))
    d3 = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-6.0, 0.0))
    d3 *= min(d1, 1.0 - d1)
    eps = draw(st.sampled_from([1.0, 0.0, -1.0])) * 10.0 ** draw(st.floats(-10.0, -2.0))
    tie = draw(st.sampled_from([None, "d2 = d1", "d3 = -d2"]))
    if tie is None:
        d = np.array([1.0, d1, 1.0 - d1 + d3 - eps, d3])
    else:
        d1 = draw(st.floats(0.4, 0.9))
        if tie == "d2 = d1":
            d = np.array([1.0, d1, d1, 2.0 * d1 - 1.0 + eps])
        else:
            d2 = (1.0 - d1 - eps) / 2.0
            d = np.array([1.0, d1, d2, -d2])
    return d, _lorentz_factor(draw) @ np.diag(d) @ _lorentz_factor(draw)


def _tied(a, ratio, tie, sign):
    """Canonical parameters (1, d1, d2, d3) with tied magnitudes: a tied
    with ``ratio * a`` below it as "d1 = d2" and "d2 = |d3|", or all three
    equal to a ("all"); d3 carries ``sign``."""
    b = ratio * a
    d1, d2, d3 = {"d1 = d2": (a, a, b), "d2 = |d3|": (a, b, b), "all": (a, a, a)}[tie]
    return np.array([1.0, d1, d2, sign * d3])


@st.composite
def _tied_type_one(draw):
    """Tied canonical parameters (:func:`_tied`, a and the ratio from 0.1 to
    0.9) and the matrix dressed by a Lorentz factor on the left and two of
    rapidity at most 2.5 on the right: N is diag(d)^2 conjugated by the
    right factor alone."""
    d = _tied(
        draw(st.floats(0.1, 0.9)),
        draw(st.floats(0.1, 0.9)),
        draw(st.sampled_from(["d1 = d2", "d2 = |d3|", "all"])),
        draw(st.sampled_from([1.0, -1.0])),
    )
    right = _lorentz_factor(draw, 2.5) @ _lorentz_factor(draw, 2.5)
    return d, _lorentz_factor(draw) @ np.diag(d) @ right


def _outer(seed):
    """The rank-one matrix a b^T of two standard normal 4-vectors."""
    rng = np.random.default_rng(seed)
    return np.outer(rng.normal(size=4), rng.normal(size=4))


def _rank_two_at_the_edge(seed):
    """u e0^T + s1 e2 e1^T (u lightlike, s1 from 1e-6 to 0.1) between two
    random rotations, and the smallest tol at which it is pre-Mueller with
    a vanishing normal matrix.  |N| = s1^2 there, and |N| >= s1^2 for every
    matrix of unit scale, so only rounding puts s1 above sqrt(tol)."""
    rng = np.random.default_rng(seed)
    s1 = 10.0 ** rng.uniform(-6.0, -1.0)
    left, right = (
        mueller_from_jones(rotation_jones(1, a) @ rotation_jones(3, b) @ rotation_jones(2, c))
        for a, b, c in rng.uniform(-3.0, 3.0, size=(2, 3))
    )
    u = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
    m = left @ (np.outer(u, np.eye(4)[0]) + s1 * np.outer(np.eye(4)[2], np.eye(4)[1])) @ right
    analysis = kernel.Analysis(m[None], 0.0)
    unit_margin = analysis.cone.lorentz_margin[0] / analysis.sigma[0] ** 2
    return m, max(float(analysis.normal.nnorm[0]), -float(unit_margin))


def _dressed_top_near_tie(seed):
    """diag(1, 1 - delta, 0.5, 0.2), delta from 1e-15 to 1e-9, between a
    mild Lorentz factor and a boost of rapidity 3 to 4.5, and a tol just
    below N's smallest relative gap, so the spectrum counts as distinct:
    at such a tol the top pair's eigenvectors mix by rounding."""
    rng = np.random.default_rng(seed)
    axes = rng.integers(1, 4, size=4)
    angles, (mild, strong) = rng.uniform(-3.0, 3.0, size=2), rng.uniform([-1.0, 3.0], [1.0, 4.5])
    left = mueller_from_jones(rotation_jones(axes[0], angles[0]) @ boost_jones(axes[1], mild))
    right = mueller_from_jones(boost_jones(axes[2], strong) @ rotation_jones(axes[3], angles[1]))
    m = left @ np.diag([1.0, 1.0 - 10.0 ** rng.uniform(-15.0, -9.0), 0.5, 0.2]) @ right
    stage = kernel.Analysis(m[None], 0.0).normal
    lam = np.array(stage.lam[0])
    gap = np.min(lam[:3] - lam[1:]) / stage.nnorm[0]
    return m, float(gap) * rng.uniform(0.2, 1.0)


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
        assert result.d is None

    def test_type_two_orbit_mates_carry_no_d(self):
        # x-boosts of rapidities a and b with a + b = t map n+ = e0 + e1 to
        # d0 e^t n+ + (d0 - d1) e^(b - a) n- and n- = e0 - e1 to d1 e^-t n-:
        # K(2, 1) and K(2 e^t, e^-t) share one orbit, so d0 and d1 are not
        # orbit invariants and neither form may report them.
        t = 0.5
        skew = np.log(2.0 * np.exp(t) - np.exp(-t))
        k = type2_canonical(2.0, 1.0, 0.8, 0.5)
        boost = [mueller_from_jones(boost_jones(1, r)) for r in ((t - skew) / 2, (t + skew) / 2)]
        mate = boost[0] @ k @ boost[1]
        np.testing.assert_allclose(
            mate, type2_canonical(2.0 * np.exp(t), np.exp(-t), 0.8, 0.5), atol=1e-12
        )
        for m in (k, mate):
            result = classify(m)
            assert result.family is Family.TYPE_II
            assert result.d is None
            assert result.diagnostics is None

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

    @pytest.mark.parametrize(
        "scale", [1e-200, 1e-155, 1e-150, 1e-100, 1e-10, 1.0, 1e40, 1e80, 1e100]
    )
    def test_d_scales_with_the_input(self, scale):
        # the sign of d3 is the sign of det(m), which under- or overflows
        # long before the canonical parameters do; the normal matrix of m
        # itself, whose entries go as scale**2, underflows below 1e-154
        rng = np.random.default_rng(57)
        d = np.array([1.0, 0.5, 0.3, -0.2])
        for m in (np.diag(d), random_lorentz(rng) @ np.diag(d) @ random_lorentz(rng)):
            result = classify(scale * m)
            assert result.family is Family.TYPE_I
            assert result.l_left is not None
            assert result.l_right is not None
            np.testing.assert_array_equal(np.sign(result.d / scale), np.sign(d))
            np.testing.assert_allclose(result.d / scale, d, rtol=1e-7)
            _, d_out, _ = type1_factor(scale * m)
            np.testing.assert_allclose(d_out / scale, d, rtol=1e-7)

    def test_family_of_a_stack_row_is_the_public_enum(self):
        stack = np.stack([np.zeros((4, 4)), np.diag([3.0, 2.0, 1.0, 0.5])])
        assert classify(stack[1]).family is muellercert.Family.TYPE_I
        assert muellercert.canonical.Family is muellercert.Family

    @pytest.mark.parametrize(
        "m, tol, reason",
        [
            # a pin map u v^T (u lightlike, v timelike) plus noise: N is
            # of the noise's size, and its spectrum can leave the real axis
            (
                pin_map() + 1e-6 * np.random.default_rng(2602).normal(size=(4, 4)),
                1e-9,
                "Lorentz normal matrix has complex spectrum",
            ),
            # at a loose tol, a rank-one u v^T with u timelike and v
            # spacelike passes the cone test, and N's one nonzero
            # eigenvalue (u^T G u)(v^T G v) is negative
            (_outer(898), 0.5, "Lorentz normal matrix has a negative eigenvalue"),
            (
                np.random.default_rng(3).normal(size=(4, 4)),
                0.5,
                "rank-one output direction is not future-pointing",
            ),
            (_outer(628), 0.5, "rank-one input weight vector is not future-pointing"),
            # at these loose tols the cone test lets through matrices whose
            # N has a simple top eigenvalue with a spacelike eigenvector, or
            # that are near rank one with a spacelike input weight vector
            (
                0.1 * np.array([[5, 3, -3, 2], [4, 2, -3, 1], [-2, -2, 0, -1], [1, 0, -2, 0]]),
                0.09,
                "dominant eigenvector is not timelike",
            ),
            (
                0.1 * np.array([[4, -5, 2, -2], [-1, 2, -1, 1], [2, -5, 3, -1], [-1, 1, 0, 1]]),
                0.2,
                "rank-one input weight vector is spacelike",
            ),
            (*_rank_two_at_the_edge(1), "vanishing Lorentz normal matrix but rank above one"),
        ],
        ids=[
            "complex-spectrum",
            "negative-eigenvalue",
            "output-not-future",
            "input-not-future",
            "dominant-not-timelike",
            "input-spacelike",
            "rank-above-one",
        ],
    )
    def test_indeterminate_reasons(self, m, tol, reason):
        result = classify(m, tol)
        assert result.family is Family.INDETERMINATE
        assert result.d is None
        assert result.diagnostics == reason

    def test_near_ties_are_indeterminate_not_guessed(self):
        # a top split between the rank-test and clustering thresholds, where
        # defective and diagonalizable structures cannot be told apart
        result = classify(np.diag([1.0, 1.0 - 1e-6, 0.5, 0.2]))
        assert result.family is Family.INDETERMINATE
        assert "cluster" in result.diagnostics

    def test_lower_near_tie_is_type_one(self):
        # the same split below a simple top eigenvalue: only N's top cluster
        # can be defective, so this one is diagonalizable
        d = np.array([1.0, 0.5 + 1e-6, 0.5, 0.2])
        result = classify(np.diag(d))
        assert result.family is Family.TYPE_I
        np.testing.assert_array_equal(result.d, d)

    def test_lower_ties_of_dressed_diagonals_are_type_one(self):
        # Lorentz dressing splits the tied eigenvalues of N by up to about
        # sqrt(tol), where a rank test of the lower cluster cannot tell a
        # defective pair from a diagonalizable one; none is needed there
        rng = np.random.default_rng(7)
        ds, mats = [], []
        for _ in range(3000):
            tie = ("d1 = d2", "d2 = |d3|", "all")[rng.integers(3)]
            d = _tied(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9), tie, rng.choice([1.0, -1.0]))
            ds.append(d)
            mats.append(random_lorentz(rng) @ np.diag(d) @ random_lorentz(rng))
        stage = kernel.Analysis(np.stack(mats)).canonical
        assert set(stage.family) == {Family.TYPE_I}
        np.testing.assert_allclose(stage.d, ds, rtol=0.0, atol=1e-6)

    @settings(max_examples=500, deadline=None)
    @given(_tied_type_one())
    def test_lower_ties_are_type_one(self, case):
        d, m = case
        result = classify(m)
        assert result.family is Family.TYPE_I
        np.testing.assert_allclose(result.d, d, rtol=0.0, atol=1e-6)


class TestType1Factor:
    def test_diagonal_input_yields_identity_factors(self):
        # the second input has |d3| = 3e-5 d0, below sqrt(tol) d0 but far
        # from singular: it is factored, and classify attaches the factors
        for d in ([3.0, 2.0, 1.0, 0.5], [1.0, 0.6, 0.3, 3e-5]):
            m = np.diag(d)
            l_left, d_out, l_right = type1_factor(m)
            np.testing.assert_allclose(l_left, np.eye(4), atol=1e-12)
            np.testing.assert_allclose(l_right, np.eye(4), atol=1e-12)
            np.testing.assert_allclose(d_out, d, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(l_left @ np.diag(d_out) @ l_right, m, atol=1e-12)
            result = classify(m)
            assert result.l_left is not None
            np.testing.assert_array_equal(result.l_left, l_left)
            np.testing.assert_array_equal(result.l_right, l_right)

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

    def test_singular_input_with_a_subnormal_entry_warns_nothing(self):
        # slogdet of this singular input divides by zero (log 0), which
        # the suite's warning filter would turn into an error
        m = np.diag([1.0, 0.5, 0.0, -0.5])
        m[3, 2] = -1.11253693e-311
        with pytest.raises(NotTypeIError, match="nonsingular input"):
            type1_factor(m)
        canonical = analyze_stack(m[None])[0]["canonical"]
        assert canonical["family"] == "TypeI" and canonical["d"][3] == 0.0

    def test_rank_one_input_is_singular(self):
        # M = a b^T with a lightlike has N = (a^T G a) G b b^T, zero up to
        # rounding, so the spectrum of N is noise.  The singular screen
        # (d3 = 0) comes first, so the noise never picks the reason and the
        # factorization never divides by d3 = 0.
        rng = np.random.default_rng(0)
        for _ in range(4000):
            n, v = (x / np.linalg.norm(x) for x in rng.normal(size=(2, 3)))
            r = 1.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.8)
            m = np.outer(np.r_[1.0, n], np.r_[1.0, r * v]) * 10.0 ** rng.integers(-3, 10)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NotTypeIError) as info:
                    type1_factor(m)
            assert str(info.value) == "factorization requires a nonsingular input"

    def test_type_two_input_rejected(self):
        rejected = (NotTypeIError, DegenerateSpectrumError)
        with pytest.raises(rejected, match="not distinct within tol"):
            type1_factor(type2_canonical(2.0, 1.0, 1.0, 1.0))

    @pytest.mark.parametrize(
        "m, tol, match",
        [
            (
                np.random.default_rng(15).normal(size=(4, 4)),
                1e-9,
                "Lorentz normal matrix has complex spectrum",
            ),
            # two eigenvalues of N 6e-13 apart, distinct at this tol, whose
            # eigenvectors LAPACK separates only to about 1e-5
            (
                mueller_from_jones(rotation_jones(3, 0.7) @ boost_jones(3, 0.5))
                @ np.diag([1.0, 0.6, 0.3, 0.3 - 1e-12])
                @ mueller_from_jones(boost_jones(1, 0.5) @ rotation_jones(2, 0.4)),
                1e-14,
                "eigenbasis fails Lorentz orthonormality",
            ),
            (*_dressed_top_near_tie(57), "subdominant eigenvector is not spacelike"),
        ],
        ids=["complex-spectrum", "orthonormality", "subdominant-not-spacelike"],
    )
    def test_rejection_reasons(self, m, tol, match):
        with pytest.raises(NotTypeIError, match=match):
            type1_factor(m, tol)

    def test_spacelike_top_eigenvector_rejected(self):
        with pytest.raises(NotTypeIError, match="top eigenvector is not timelike"):
            type1_factor(np.diag([0.5, 3.0, 2.0, 1.0]))

    def test_improper_left_factor_rejected(self):
        with pytest.raises(NotTypeIError, match="not proper orthochronous"):
            type1_factor(-np.diag([3.0, 2.0, 1.0, 0.5]))

    @settings(max_examples=300, deadline=None)
    @given(_scaled_type_one())
    def test_holds_over_the_float_range(self, case):
        scale, d, m = case
        l_left, d_out, l_right = type1_factor(scale * m)
        np.testing.assert_allclose(d_out / scale, d, rtol=1e-10)
        # d is scaled back before the product, so the check cannot overflow
        rebuilt = l_left @ np.diag(d_out / scale) @ l_right
        np.testing.assert_allclose(rebuilt, m, rtol=0.0, atol=1e-10)


def _count_kernel_calls(monkeypatch, names):
    """Count the calls of the named kernel functions from here on."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(kernel, name, counted(name, getattr(kernel, name)))
    return calls


def test_one_normal_matrix_stage_per_analysis(monkeypatch):
    # one eig of the normal matrices serves the whole stack, and d comes
    # from it and the one slogdet of type1_d; reports never factor, so the
    # Type-I rows (a distinct and a tied spectrum) make no slogdet of their
    # own
    calls = _count_kernel_calls(monkeypatch, ["_eig", "_slogdet", "normal_matrices"])
    stack = np.stack(
        [
            np.diag([3.0, 2.0, 1.0, 0.5]),
            type2_canonical(2.0, 1.0, 1.0, 1.0),
            np.diag([0.5, 3.0, 2.0, 1.0]),
            np.eye(4),
        ]
    )
    reports = analyze_stack(stack)
    assert [report["canonical"]["family"] for report in reports] == [
        "TypeI",
        "TypeII",
        "NotPreMueller",
        "TypeI",
    ]
    assert calls == {"_eig": 1, "_slogdet": 1, "normal_matrices": 1}


@pytest.mark.parametrize(
    "mats",
    [
        np.diag([0.5, 3.0, 2.0, 1.0])[None],
        np.stack([np.diag([0.5, 3.0, 2.0, 1.0]), np.diag([1.0, 1.2, 0.5, 0.5]), -np.eye(4)]),
    ],
    ids=["one", "stack"],
)
def test_no_normal_matrix_stage_without_a_classified_row(monkeypatch, mats):
    # rows that are not pre-Mueller get their family from the cone stage, so
    # the N stage (its eig and its SVDs) never runs; the one SVD is sigma's
    calls = _count_kernel_calls(monkeypatch, ["_eig", "_svd", "_svdvals"])
    reports = analyze_stack(mats)
    assert {report["canonical"]["family"] for report in reports} == {"NotPreMueller"}
    assert calls == {"_eig": 0, "_svd": 0, "_svdvals": 1}


def test_analysis_makes_no_public_linalg_call(monkeypatch):
    # every LAPACK call of the analysis goes through the kernel's gufunc
    # helpers; the stack reaches every family, the rank-one SVD, the
    # cluster rank tests, type1_d and the witness of a non-Mueller row
    def public(name):
        def call(*args, **kwargs):
            pytest.fail(f"the analysis called np.linalg.{name}")

        return call

    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd", "slogdet", "det"):
        monkeypatch.setattr(np.linalg, name, public(name))
    stack = np.stack(
        [
            np.diag([3.0, 2.0, 1.0, 0.5]),
            np.diag([1.0, 0.9, 0.9, -0.9]),
            type2_canonical(2.0, 1.0, 1.0, 1.0),
            np.diag([0.5, 3.0, 2.0, 1.0]),
            polarizer_map(),
            pin_map(),
            np.zeros((4, 4)),
        ]
    )
    families = [report["canonical"]["family"] for report in analyze_stack(stack)]
    assert families == [
        "TypeI", "TypeI", "TypeII", "NotPreMueller", "Polarizer", "PinMap", "Indeterminate",
    ]
    np.testing.assert_allclose(type1_factor(stack[0])[1], [3.0, 2.0, 1.0, 0.5], rtol=1e-12)


def _scaled_stack(draw, shape):
    """A stack of 1-30 arrays of ``shape`` at a scale in 1e-150..1e150, with
    some entries zero of either sign, so that signed zeros are compared too."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = 10.0 ** draw(st.floats(-150, 150)) * rng.normal(size=(draw(st.integers(1, 30)), *shape))
    stack[rng.random(stack.shape) < 0.2] = 0.0
    stack[rng.random(stack.shape) < 0.1] = -0.0
    return stack


# Bit-identity premises of the kernel: each rewrite below must give the bytes
# of the expression it replaced.


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_metric_times_normal_matrix_is_the_cone_form(data):
    # G N = G (G u^T G u) = u^T G u: G = diag(1, -1, -1, -1) only flips signs
    u = _scaled_stack(data.draw, (4, 4))
    g = LORENTZ_METRIC
    expected = np.swapaxes(u, -1, -2) @ g @ u
    assert (g @ kernel.normal_matrices(u)).tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_type1_margins_are_the_written_out_sums(data):
    d = _scaled_stack(data.draw, (4,))
    d0, d1, d2, d3 = (d[:, k] for k in range(4))
    sums = [d0 + d1 + d2 + d3, d0 + d1 - d2 - d3, d0 - d1 - d2 + d3, d0 - d1 + d2 - d3]
    assert kernel.type1_margins(d).tobytes() == np.stack(sums, axis=-1).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_first_singular_value_is_the_largest(data):
    mats = _scaled_stack(data.draw, (4, 4))
    svals = np.linalg.svd(mats, compute_uv=False)
    assert kernel._spectral_norm(mats).tobytes() == svals.max(axis=-1).tobytes()


def _same_bytes(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_gufunc_helpers_give_the_public_results(data):
    # the kernel's LAPACK calls skip numpy.linalg's wrappers, not its gufuncs
    a = _scaled_stack(data.draw, (3, 3))
    a = a + np.swapaxes(a, -1, -2)
    _same_bytes(kernel._eigh(a), np.linalg.eigh(a))
    h = kernel._hermitian_of(_scaled_stack(data.draw, (4, 4)))
    _same_bytes(kernel._eigh(h), np.linalg.eigh(h))

    mats = _scaled_stack(data.draw, (4, 4))
    _same_bytes([kernel._svdvals(mats)], [np.linalg.svd(mats, compute_uv=False)])
    _same_bytes(kernel._svd(mats), np.linalg.svd(mats))
    _same_bytes(kernel._slogdet(mats), np.linalg.slogdet(mats))

    # eig and eigvals: the public functions drop zero imaginary parts of an
    # all-real stack (a symmetric one), so the real parts (in their order)
    # are compared as bytes and the imaginary parts as values
    for mats in (mats, mats + np.swapaxes(mats, -1, -2)):
        w, v = kernel._eig(mats)
        public_w, public_v = np.linalg.eig(mats)
        _same_bytes([w.real, v.real], [np.real(public_w), np.real(public_v)])
        assert np.array_equal(w.imag, np.imag(public_w))
        assert np.array_equal(v.imag, np.imag(public_v))
    lifted = _scaled_stack(data.draw, (6, 6))
    w, public_w = kernel._eigvals(lifted), np.linalg.eigvals(lifted)
    _same_bytes([w.real], [np.real(public_w)])
    assert np.array_equal(w.imag, np.imag(public_w))


@pytest.mark.parametrize(
    "call, n, rows",
    [
        pytest.param(kernel.sphere_min, 3, 1, id="sphere_min-3"),
        pytest.param(kernel.sphere_min, 3, 2, id="sphere_min-3-stacked"),
        pytest.param(kernel._spectral_norm, 4, 2, id="_spectral_norm-4"),
    ],
)
def test_a_failed_lapack_row_raises(call, n, rows):
    # numpy fills a failed row with nan and warns; sphere_min's one-problem
    # form, which reads its eigh, the stacked form's check at the call (a
    # stack of two) and sigma's check at the call then raise as numpy.linalg
    # does
    stack = np.zeros((rows, n, n))
    stack[-1] = np.nan
    args = (stack, np.zeros((rows, n))) if call is kernel.sphere_min else (stack,)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        with pytest.raises(np.linalg.LinAlgError):
            call(*args)


class _FailingLinalg:
    """numpy's ``_umath_linalg`` whose ``call``-th call of the gufunc
    ``name`` returns its outputs with row ``row`` all nan, as numpy returns
    the row of a failed LAPACK call; ``sites`` records every call."""

    def __init__(self, name=None, call=0, row=0):
        self.name, self.call, self.row, self.sites = name, call, row, []

    def __getattr__(self, attr):
        gufunc = getattr(np.linalg._umath_linalg, attr)

        def run(a, **kwargs):
            out = gufunc(a, **kwargs)
            self.sites.append(attr)
            if attr == self.name and self.sites.count(attr) == self.call:
                for field in out if isinstance(out, tuple) else (out,):
                    field[self.row] = np.nan
            return out

        return run


# Each LAPACK call of a report, in the order the stages make them on
# _lapack_stack(): the cone stage's sigma, sphere eigh and eigvals, the N
# stage's eig and norm, the rank-one SVD of the polarizer, the rank test of
# the identity's tied top cluster, type1_d's slogdet (an LU factorization,
# which does not fail) and last the H stage's eigh.
_LAPACK_SITES = {
    "sigma-svd": ("svd", 1),
    "sphere-eigh": ("eigh_lo", 1),
    "sphere-eigvals": ("eigvals", 1),
    "normal-eig": ("eig", 1),
    "normal-norm-svd": ("svd", 2),
    "rank-one-svd": ("svd_f", 1),
    "tied-svd": ("svd", 3),
    "hermitian-eigh": ("eigh_lo", 2),
}
_FAILURE_TEXT = {
    "svd": "SVD", "svd_f": "SVD", "eigh_lo": "Eigenvalues", "eig": "Eigenvalues",
    "eigvals": "Eigenvalues",
}


def _lapack_stack():
    d = np.diag([1.0, 0.6, 0.4, 0.2])
    left, right = rotation_jones(3, 0.7), boost_jones(1, 0.4)
    dressed = mueller_from_jones(left) @ d @ mueller_from_jones(right)
    return np.stack([dressed, np.eye(4), polarizer_map(), type2_canonical(2.0, 1.0, 1.0, 1.0)])


def test_lapack_sites_are_the_calls_of_a_report(monkeypatch):
    linalg = _FailingLinalg()
    monkeypatch.setattr(kernel, "_umath_linalg", linalg)
    analyze_stack(_lapack_stack())
    assert linalg.sites == [
        "svd", "eigh_lo", "eigvals", "eig", "svd", "svd_f", "svd", "slogdet", "eigh_lo",
    ]


@pytest.mark.parametrize("row", [0, -1], ids=["first-row", "last-row"])
@pytest.mark.parametrize("site", list(_LAPACK_SITES))
def test_a_failed_lapack_row_raises_where_the_stage_reads_it(monkeypatch, site, row):
    # whichever row of whichever call fails, the analysis raises the text of
    # numpy.linalg's check at the call
    name, call = _LAPACK_SITES[site]
    monkeypatch.setattr(kernel, "_umath_linalg", _FailingLinalg(name, call, row))
    with pytest.raises(np.linalg.LinAlgError, match=f"^{_FAILURE_TEXT[name]} did not converge$"):
        analyze_stack(_lapack_stack())


@pytest.mark.parametrize("rows", [1, 2], ids=["one", "stacked"])
@pytest.mark.parametrize("name", ["eigh_lo", "eigvals"])
def test_a_failed_sphere_min_row_raises_in_either_form(monkeypatch, name, rows):
    # the report stack above reaches the stacked form of sphere_min: each
    # form raises numpy.linalg's text whichever of its LAPACK calls fails on
    # its first or last row (every row here is off the hard case, so
    # reaches eigvals)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(rows, 3, 3))
    a, b = a + np.swapaxes(a, -1, -2), rng.normal(size=(rows, 3))
    for row in (0, -1):
        monkeypatch.setattr(kernel, "_umath_linalg", _FailingLinalg(name, 1, row))
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            kernel.sphere_min(a, b)


def test_a_failed_hermitian_row_raises_before_an_overflow(monkeypatch):
    # the H stage's loop meets an eigenvalue beyond the float range in row 0
    # before the failed row 1: the check at the call raised first, and so
    # does the loop
    stack = np.stack([np.eye(4) * _TOP, np.eye(4)])
    monkeypatch.setattr(kernel, "_umath_linalg", _FailingLinalg("eigh_lo", 1, 1))
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        kernel.Analysis(stack).hermitian
    monkeypatch.undo()
    with pytest.raises(FloatingPointError, match="hermitian eigenvalue beyond the float range"):
        kernel.Analysis(stack).hermitian


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_row_gufuncs_are_the_matmul_forms(data):
    # vecdot, matvec and vecmat run the per-row BLAS dot or gemv that the
    # stacked matmul forms run, on contiguous and strided real views alike;
    # products of three scales of 1e150 overflow, to the same inf or nan
    stack = _scaled_stack(data.draw, (4, 4))
    g = LORENTZ_METRIC
    for mats in (stack, stack[:1]):
        x, a, col = mats[:, 0, 1:], mats[:, 1:, 1:], mats[:, :, 0]
        y = np.resize(_scaled_stack(data.draw, (3,)), (len(mats), 3))
        with np.errstate(over="ignore", invalid="ignore"):
            cases = [
                (np.vecdot(x, y), (x[:, None, :] @ y[:, :, None])[:, 0, 0]),
                (np.vecdot(x, x), (x[:, None, :] @ x[:, :, None])[:, 0, 0]),
                (np.vecdot(col, col), (col[:, None, :] @ col[:, :, None])[:, 0, 0]),
                (np.matvec(a, y), (a @ y[:, :, None])[:, :, 0]),
                (np.matvec(mats, col), (mats @ col[:, :, None])[:, :, 0]),
                (np.vecmat(x, a), (x[:, None, :] @ a)[:, 0]),
                (np.vecmat(col, g), (col[:, None, :] @ g)[:, 0]),
                (
                    np.vecdot(np.vecmat(col, g), col),
                    ((col[:, None, :] @ g) @ col[:, :, None])[:, 0, 0],
                ),
                (
                    np.vecdot(np.vecmat(y, a), y),
                    ((y[:, None, :] @ a) @ y[:, :, None])[:, 0, 0],
                ),
            ]
        for got, want in cases:
            _same_bytes([got], [want])


def _assembled_lifted(gap, c):
    # sphere_min's lifted matrices as they were assembled block by block
    k, n = c.shape
    abs_c = np.abs(c)
    v = np.sign(c) * np.sqrt(abs_c)
    lifted = np.zeros((k, 2 * n, 2 * n))
    lifted[:, :n, n:] = -0.0
    lifted[:, n:, :n] = -(v[:, :, None] * v[:, None, :])
    flat = lifted.reshape(k, 4 * n * n)
    flat[:, :: 2 * n + 1] = np.concatenate((gap, gap), axis=1)
    flat[:, n : n * (2 * n + 2) : 2 * n + 1] = -abs_c
    return lifted


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_lifted_gather_is_the_assembly(n, data):
    # the source row of one problem is built on Python floats, from lists
    c = _scaled_stack(data.draw, (n,))
    gap = np.resize(_scaled_stack(data.draw, (n,)), c.shape)
    for i in range(len(c)):
        want = _assembled_lifted(gap[i : i + 1], c[i : i + 1])
        _same_bytes([kernel._lifted(gap[i].tolist(), c[i].tolist())], [want])


def _canonical_phase(v):
    # the phase rule as written for any vector, zero vectors included
    flat = v.reshape(-1, v.shape[-1])
    pivot = flat[np.arange(len(flat)), np.argmax(np.abs(flat), axis=-1)]
    pivot = pivot.reshape(v.shape[:-1] + (1,))
    mag = np.hypot(pivot.real, pivot.imag)
    return v * np.divide(pivot.conj(), mag, out=np.ones_like(pivot), where=mag > 0.0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_unit_phase_is_the_canonical_phase_on_unit_vectors(data):
    # the columns of eigh's eigenvector stacks, which are unit vectors
    _, v = np.linalg.eigh(kernel._hermitian_of(_scaled_stack(data.draw, (4, 4))))
    _same_bytes([kernel._unit_phase(v)], [_canonical_phase(np.swapaxes(v, -1, -2))])


# Premises of the stage tails, which run per row on Python floats: each
# expression gives the bits of the numpy operation it replaced, at the ends
# of the float range too (signed zeros, subnormals, 1e+-300, float max).
_TOP = sys.float_info.max
_EDGES = [0.0, 5e-324, 1e-320, 2.5e-310, 2.2250738585072014e-308, 1e-300, 1e-150, 0.5, 1.0, 3.0]
_EDGES += [1e150, 1.3407807929942596e154, 1e300, float(np.nextafter(_TOP, 0.0)), _TOP]
_SIGNED = [v for x in _EDGES for v in (x, -x)]


def _spread(n, seed):
    """n floats of either sign at scales 10**U(-320, 308), subnormals included."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=n) * 10.0 ** rng.uniform(-320.0, 308.0, size=n)


def test_python_square_is_float_power():
    # the cone stage's reported Lorentz margin: where numpy's product is not
    # finite, s ** 2.0 raises OverflowError or the product is not finite
    pairs = [(u, s) for u in _SIGNED for s in _EDGES]
    pairs += zip(_spread(100_000, 1).tolist(), np.abs(_spread(100_000, 2)).tolist())
    u, s = (np.array(column) for column in zip(*pairs))
    with np.errstate(over="ignore", invalid="ignore"):
        want = u * np.float_power(s, 2)
    got = []
    for u_i, s_i in pairs:
        try:
            got.append(u_i * s_i ** 2.0)
        except OverflowError:
            got.append(math.inf)
    got = np.array(got)
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert got[finite].tobytes() == want[finite].tobytes()


def test_math_ldexp_is_numpy_ldexp():
    # both stages' scaling back by 2**k: math.ldexp raises OverflowError
    # exactly where np.ldexp gives inf, and rounds subnormals alike
    x = np.array(_SIGNED + _spread(200, 3).tolist())
    for k in range(-1100, 1101):
        with np.errstate(over="ignore"):
            want = np.ldexp(x, k)
        got = []
        for x_i in x.tolist():
            try:
                got.append(math.ldexp(x_i, k))
            except OverflowError:
                got.append(math.copysign(math.inf, x_i))
        assert np.array(got).tobytes() == want.tobytes(), k


def test_python_max_is_numpy_maximum_on_signed_zeros():
    # the H stage's threshold scale: max keeps the first of equal arguments,
    # np.maximum the second, so the kernel writes max(w3, -w0)
    w0, w3 = (np.array(column) for column in zip(*itertools.product(_SIGNED, repeat=2)))
    want = np.maximum(-w0, w3).tobytes()
    assert np.array([max(b, -a) for a, b in zip(w0.tolist(), w3.tolist())]).tobytes() == want
    assert np.array([max(-a, b) for a, b in zip(w0.tolist(), w3.tolist())]).tobytes() != want


def test_bool_sum_rank_is_the_numpy_count():
    # the H stage's rank: four comparisons added as bools, an int
    rng = np.random.default_rng(4)
    w = np.sort(rng.choice(_SIGNED, size=(5000, 4)), axis=1)
    thresh = rng.choice(_SIGNED, size=5000)
    got = [
        (w0 > t) + (w1 > t) + (w2 > t) + (w3 > t)
        for (w0, w1, w2, w3), t in zip(w.tolist(), thresh.tolist())
    ]
    assert {type(rank) for rank in got} == {int}
    assert got == (w > thresh[:, None]).sum(axis=1).tolist()


def test_python_division_is_numpy_divide():
    # the cone stage's worst input against the first row, -x / rn
    rng = np.random.default_rng(5)
    row = np.concatenate([rng.choice(_SIGNED, size=(3000, 3)), _spread(3000, 6).reshape(1000, 3)])
    rn = np.abs(np.concatenate([rng.choice(_SIGNED, size=3000), _spread(1000, 7)]))
    want = np.zeros(row.shape)
    with np.errstate(over="ignore", under="ignore"):
        np.divide(-row, rn[:, None], out=want, where=rn[:, None] > 0.0)
    got = [
        [-x / r for x in xs] if r > 0.0 else [0.0] * 3 for xs, r in zip(row.tolist(), rn.tolist())
    ]
    assert np.array(got).tobytes() == want.tobytes()


def test_python_clip_is_numpy_maximum_at_zero():
    # type1_d's and the cluster's clip: np.maximum(x, 0.0) keeps the second
    # of equal arguments and max the first, so the kernel writes
    # max(0.0, x); max(x, 0.0) keeps -0.0, whose square root is -0.0
    x = np.array(_SIGNED + _spread(2000, 8).tolist())
    want = np.maximum(x, 0.0)
    assert np.array([max(0.0, v) for v in x.tolist()]).tobytes() == want.tobytes()
    assert np.array([max(v, 0.0) for v in x.tolist()]).tobytes() != want.tobytes()
    roots = [math.sqrt(max(0.0, v)) for v in x.tolist()]
    assert np.array(roots).tobytes() == np.sqrt(want).tobytes()


def test_python_product_is_numpy_prod():
    # type1_d's zero screen on d3: r0 * r1 * r2, left to right, as prod
    # multiplies a row, and tol times it
    rng = np.random.default_rng(9)
    r = np.concatenate([rng.choice(_SIGNED, size=(6000, 3)), _spread(6000, 10).reshape(-1, 3)])
    r = np.abs(r)
    for tol in (muellercert.DEFAULT_TOL, 0.0, 0.5):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            want = tol * r.prod(axis=1)
        got = [tol * (r0 * r1 * r2) for r0, r1, r2 in r.tolist()]
        assert np.array(got).tobytes() == want.tobytes()


def test_bool_sum_counts_are_the_numpy_counts():
    # the cluster rank tests: four comparisons <= added as bools, an int
    rng = np.random.default_rng(13)
    s = -np.sort(-np.abs(rng.choice(_SIGNED, size=(5000, 4))), axis=1)
    thresh = np.abs(rng.choice(_SIGNED, size=5000))
    got = [
        (s0 <= t) + (s1 <= t) + (s2 <= t) + (s3 <= t)
        for (s0, s1, s2, s3), t in zip(s.tolist(), thresh.tolist())
    ]
    assert {type(count) for count in got} == {int}
    assert got == (s <= thresh[:, None]).sum(axis=1).tolist()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_gathered_top_columns_give_the_sorted_stack_quad(data):
    # the timelike test reads the top columns gathered from eig's complex
    # stack, .real after the gather: a strided view, as column 0 of the
    # sorted real stack was.  OpenBLAS sums a dot product of strided vectors
    # in another order than of contiguous ones, so a contiguous gather can
    # change bits.
    stage = kernel.Analysis(_scaled_stack(data.draw, (4, 4))).normal
    rows = np.arange(len(stage.vecs))
    top = stage.vecs[rows, :, stage.order[:, 0]].real
    column = _normal_arrays(stage)[3][:, :, 0]
    g = LORENTZ_METRIC
    _same_bytes([np.vecdot(np.vecmat(top, g), top)], [np.vecdot(np.vecmat(column, g), column)])


def _numpy_hermitian(analysis):
    # the H stage with its tail on (N,) arrays, as it was written before
    m, tol = analysis.m, analysis.tol
    peak = np.maximum.reduce(np.abs(m).reshape(-1, 16), axis=1)
    e = (np.frexp(peak)[1] & -2)[:, None]
    w, v = kernel._eigh(kernel._hermitian_of(np.ldexp(m, -e[:, :, None])))
    kernel._converged(w, "Eigenvalues")
    thresh = tol * np.maximum(-w[:, 0], w[:, -1])
    rank = (w > thresh[:, None]).sum(axis=1)
    mueller = w[:, 0] >= -thresh
    with np.errstate(over="ignore"):
        w = np.ldexp(w, e)
    if not np.isfinite(w).all():
        raise FloatingPointError("analysis overflows: hermitian eigenvalue beyond the float range")
    return w, kernel._unit_phase(v), mueller, rank


def _numpy_cone(analysis):
    # the cone stage with its tail on (N,) arrays, as it was written before
    m, sigma, tol = analysis.m, analysis.sigma, analysis.tol
    quad = LORENTZ_METRIC @ analysis._nmat
    quad = 0.5 * (quad + np.swapaxes(quad, -1, -2))
    value, s_star = kernel.sphere_min(quad[:, 1:, 1:], quad[:, 0, 1:])
    unit_lorentz = quad[:, 0, 0] + value
    with np.errstate(over="ignore", invalid="ignore"):
        lorentz = unit_lorentz * np.float_power(sigma, 2)
    if not np.isfinite(lorentz).all():
        raise FloatingPointError("analysis overflows: Lorentz margin beyond the float range")
    row = m[:, 0, 1:]
    e = np.frexp(sigma)[1]
    row_norm = np.ldexp(kernel._norm(np.ldexp(row, -e[:, None])), e)
    intensity = m[:, 0, 0] - row_norm
    worst_intensity = np.repeat([[0.0, 0.0, 1.0]], len(m), axis=0)
    np.divide(-row, row_norm[:, None], out=worst_intensity, where=row_norm[:, None] > 0.0)
    ok = (intensity >= -tol * sigma) & (unit_lorentz >= -tol)
    binding_lorentz = unit_lorentz <= intensity / np.where(sigma > 0.0, sigma, 1.0)
    worst = np.where(binding_lorentz[:, None], s_star, worst_intensity)
    zero = sigma == 0.0
    ok[zero] = True
    intensity[zero] = lorentz[zero] = 0.0
    worst[zero] = [0.0, 0.0, 1.0]
    return ok, intensity, lorentz, worst


def _numpy_normal(analysis):
    # the N stage with its tail on arrays, as it was written before: the
    # sorted real parts and eigenvector columns gathered, (N,) norms
    nmat = analysis._nmat
    lam, vecs = kernel._eig(nmat)
    kernel._converged(lam, "Eigenvalues")
    imag = np.maximum.reduce(np.abs(lam.imag), axis=-1, initial=0.0)
    order = (-lam.real).argsort(axis=-1)
    rows = np.arange(len(lam))[:, None]
    vecs = vecs.real[rows[:, :, None], np.arange(4)[:, None], order[:, None, :]]
    return nmat, kernel._spectral_norm(nmat), lam.real[rows, order], vecs, imag


def _numpy_type1_d(analysis, normal):
    # type1_d on (N, 4) arrays, as it was written before.  Where sigma
    # overflows numpy warns on inf * 0 and the Python floats do not: only
    # this reference runs under errstate, the bytes are compared
    with np.errstate(divide="ignore"):
        sign, logdet = kernel._slogdet(analysis.unit)
    root = np.sqrt(np.maximum(normal[2], 0.0))
    sign[np.exp(logdet) <= analysis.tol * root[:, :3].prod(axis=1)] = 0.0
    root[:, 3] *= sign
    with np.errstate(over="ignore", invalid="ignore"):
        return analysis.sigma[:, None] * root


def _numpy_classify_full(analysis, normal, full, family, reason):
    # _classify_full with its tail on arrays, as it was written before
    tol = analysis.tol
    nmat, nnorm, lam, vecs, imag = normal
    cluster_tol = float(np.sqrt(tol)) * nnorm
    ctol, lam_l, imag_l, clip_l = (
        cluster_tol.tolist(), lam.tolist(), imag.tolist(), np.maximum(lam, 0.0).tolist()
    )
    top = vecs[:, :, 0]
    timelike = (np.vecdot(np.vecmat(top, LORENTZ_METRIC), top) > 0.0).tolist()
    tied = {}
    for i in full:
        lj, cj = clip_l[i], ctol[i]
        if imag_l[i] > cj:
            reason[i] = "Lorentz normal matrix has complex spectrum"
        elif lam_l[i][3] < -cj:
            reason[i] = "Lorentz normal matrix has a negative eigenvalue"
        elif lj[0] - lj[1] > cj:
            if timelike[i]:
                family[i] = Family.TYPE_I
            else:
                reason[i] = "dominant eigenvector is not timelike"
        else:
            size = next((k for k in (2, 3) if lj[k - 1] - lj[k] > cj), 4)
            total = 0.0
            for x in lj[:size]:
                total += x
            tied[i] = size, total / size
    if not tied:
        return
    at = list(tied)
    centers = np.array([center for _, center in tied.values()])
    svals = kernel._converged(kernel._svdvals(nmat[at] - centers[:, None, None] * np.eye(4)), "SVD")
    strict = (svals <= tol * nnorm[at, None]).sum(axis=1).tolist()
    loose = (svals <= cluster_tol[at, None]).sum(axis=1).tolist()
    for (i, (size, center)), n_strict, n_loose in zip(tied.items(), strict, loose):
        if n_strict >= size:
            family[i] = Family.TYPE_I
        elif n_strict >= 1 and n_loose < size:
            family[i] = Family.TYPE_II
        else:
            reason[i] = (
                f"eigenvalue cluster near {center:.6g} (input normalized): "
                "cannot separate defective from nearly degenerate "
                "diagonalizable structure"
            )


def _numpy_canonical(analysis):
    # the canonical stage with its tail on arrays, as it was written before
    n, tol = len(analysis.m), analysis.tol
    family, reason = [Family.INDETERMINATE] * n, [None] * n
    classified = []
    for i, (ok, sigma) in enumerate(zip(analysis.cone.ok, analysis.sigma.tolist())):
        if not ok:
            family[i] = Family.NOT_PRE_MUELLER
            reason[i] = "does not map the Stokes cone into itself"
        elif sigma == 0.0:
            reason[i] = "zero matrix"
        else:
            classified.append(i)
    low, full, normal = [], [], None
    if classified:
        normal = _numpy_normal(analysis)
        vanishing = (normal[1] <= tol).tolist()
        for i in classified:
            (low if vanishing[i] else full).append(i)
    if low:
        u, s, vt = kernel._svd(analysis.unit[low])
        kernel._converged(s, "SVD")
        cluster_tol = float(np.sqrt(tol))
        for j, i in enumerate(low):
            family[i], reason[i] = kernel._rank_one_family(
                u[j, :, 0], s[j, 1], vt[j, 0], cluster_tol
            )
    if full:
        _numpy_classify_full(analysis, normal, full, family, reason)
    d, binding = [None] * n, [None] * n
    if Family.TYPE_I in family:
        type_one = [i for i, f in enumerate(family) if f is Family.TYPE_I]
        d_one = _numpy_type1_d(analysis, normal)[type_one]
        worst, violated = kernel.worst_type1_constraint(d_one, tol)
        for i, row, k, bad in zip(type_one, d_one.tolist(), worst.tolist(), violated.tolist()):
            d[i] = row
            if bad:
                binding[i] = kernel.TYPE1_CONSTRAINT_FORMS[k]
    return family, d, reason, binding


def _numpy_factor(analysis):
    # Analysis.factor on the N stage and type1_d as they were written before,
    # with the factor's own screen of an overflowed sigma
    if analysis.sigma[0] == math.inf:
        raise FloatingPointError(
            "analysis overflows: largest singular value beyond the float range"
        )
    g = LORENTZ_METRIC
    normal = _numpy_normal(analysis)
    _, nnorm, lam, vecs, imag = normal
    lam, vecs, d = lam[0], vecs[0], _numpy_type1_d(analysis, normal)[0]
    if d[3] == 0.0:
        raise NotTypeIError("factorization requires a nonsingular input")
    scale = analysis.tol * nnorm[0]
    if imag[0] > scale:
        raise NotTypeIError("Lorentz normal matrix has complex spectrum")
    if np.min(lam[:3] - lam[1:]) < scale:
        raise DegenerateSpectrumError(
            "eigenvalues of the Lorentz normal matrix are not distinct within tol"
        )
    quad = np.einsum("ia,ij,ja->a", vecs, g, vecs)
    if quad[0] <= 0.0:
        raise NotTypeIError("top eigenvector is not timelike")
    if quad[1:].max() >= 0.0:
        raise NotTypeIError("subdominant eigenvector is not spacelike")
    basis = vecs / np.sqrt(np.abs(quad))
    pivot = basis[np.argmax(np.abs(basis), axis=0), np.arange(4)]
    pivot[0] = basis[0, 0]
    basis *= np.where(pivot < 0.0, -1.0, 1.0)
    if kernel._slogdet(basis)[0] < 0.0:
        basis[:, 3] *= -1.0
    ortho_err = np.abs(basis.T @ g @ basis - g).max()
    if ortho_err > 1e-6:
        raise NotTypeIError(f"eigenbasis fails Lorentz orthonormality by {ortho_err:.3g}")
    l_right = g @ basis.T @ g
    l_left = (analysis.unit[0] @ basis) * (analysis.sigma[0] / d)
    if not (l_left[0, 0] > 0.0 and np.abs(l_left.T @ g @ l_left - g).max() <= 1e-6):
        raise NotTypeIError("left factor is not proper orthochronous Lorentz")
    return l_left, d, l_right


def _normal_arrays(stage):
    # the N stage's fields as the arrays of _numpy_normal: the eigenvector
    # columns gathered in the order of lam
    nmat, nnorm, lam, vecs, order, imag = stage
    rows = np.arange(len(vecs))[:, None, None]
    sorted_vecs = vecs.real[rows, np.arange(4)[:, None], order[:, None, :]]
    return nmat, np.array(nnorm), np.array(lam).reshape(-1, 4), sorted_vecs, np.array(imag)


def _canonical_arrays(stage):
    # a canonical stage's lists as arrays whose bytes can be compared: d
    # with its None rows as nan next to a mask, the texts with None as "None"
    family, d, reason, binding = stage
    rows = np.array([[math.nan] * 4 if row is None else row for row in d]).reshape(-1, 4)
    return (
        np.array([f.value for f in family]),
        rows,
        np.array([row is None for row in d]),
        np.array([str(text) for text in reason]),
        np.array([str(text) for text in binding]),
    )


def _outcome(read):
    try:
        return [np.asarray(field) for field in read()]
    except (FloatingPointError, NotTypeIError, DegenerateSpectrumError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _tail_cases():
    """Stacks that reach the ends of the float range: Gaussian matrices at
    scales from subnormal to float max with zeros of either sign, the
    top-of-range mixtures of the H-stage test, zero and subnormal diagonals,
    and matrices whose sigma**2 rounds differently as sigma * sigma."""
    rng = np.random.default_rng(8)
    exponents = [-322, -318, -314, -310, -306, -300, 300, 305] + rng.uniform(-320, 307, 32).tolist()
    exponents = np.array(exponents)
    gaussian = rng.normal(size=(40, 4, 4)) * 10.0 ** exponents[:, None, None]
    gaussian[rng.random(gaussian.shape) < 0.2] = 0.0
    gaussian[rng.random(gaussian.shape) < 0.1] = -0.0
    values = [0.0, _TOP, -_TOP, 1e154, -1e154, 9e153, -6.7e153, 1e-160, 5e-324, 1.0, _TOP / 3]
    mixtures = rng.choice(values, size=(100, 4, 4))
    tiny = np.stack([np.zeros((4, 4)), -np.zeros((4, 4)), 5e-324 * np.diag([1.0, 1.0, 1.0, -1.0])])
    # sigma * sigma differs from sigma ** 2.0 in about 1 of 1,000 draws
    draws = rng.normal(size=(20_000, 4, 4))
    draws *= 10.0 ** rng.uniform(-150.0, 150.0, size=(20_000, 1, 1))
    sigma = kernel._spectral_norm(draws)
    misrounded = draws[sigma * sigma != np.float_power(sigma, 2)][:8]
    assert len(misrounded) == 8
    return {"gaussian": gaussian, "mixtures": mixtures, "tiny": tiny, "pow": misrounded}


def _canonical_cases():
    """Stacks for the N stage, type1_d and the canonical stage: tied top
    clusters (exact, dressed, and near ties that are Indeterminate), lower
    ties, Type II (canonical and dressed), rank-one rows (Polarizer, Pin map
    and a b^T), singular rows (the d3 = 0 screen: a zero, a subnormal entry,
    a rank-one and a rank-two input, d3 at the screen's threshold, signed
    zeros in N's spectrum), and all of them again at 1e+-300."""
    rng = np.random.default_rng(27)

    def dressed(m):
        return random_lorentz(rng) @ m @ random_lorentz(rng)

    top = [np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0]), np.diag([1.0, 1.0, 0.5, 0.2])]
    top += [np.diag([1.0, 1.0, 1.0, 0.3]), np.diag([1.0, 1.0 - 1e-6, 0.5, 0.2])]
    top += [np.diag([1.0, 1.0 - 1e-9, 0.5, -0.2]), np.diag([1.0, 1.0 - 1e-12, 1.0 - 2e-12, 0.2])]
    top += [dressed(m) for m in list(top)] + [_dressed_top_near_tie(seed)[0] for seed in range(4)]
    ties = itertools.product(("d1 = d2", "d2 = |d3|", "all"), (1.0, -1.0))
    lower = [np.diag(_tied(0.7, 0.4, tie, sign)) for tie, sign in ties]
    lower += [dressed(m) for m in list(lower)]
    type2 = [type2_canonical(2.0, 1.0, 1.0, 1.0), type2_canonical(2.0, 1.0, 0.8, 0.5)]
    type2 += [type2_canonical(1.0, 0.5, 0.5, -0.5)] + [dressed(m) for m in type2 for _ in range(3)]
    rank_one = [polarizer_map(), polarizer_map(0.7), pin_map(), pin_map(0.4)]
    rank_one += [dressed(m) for m in list(rank_one)] + [_outer(seed) for seed in (628, 898, 3)]
    subnormal = np.diag([1.0, 0.5, 0.0, -0.5])
    subnormal[3, 2] = -1.11253693e-311
    singular = [np.diag([1.0, 0.5, 0.25, 0.0]), np.diag([1.0, 0.0, 0.0, 0.0]), subnormal]
    singular += [np.diag([1.0, 0.5, 0.3, 1e-20]), np.diag([1.0, 0.5, 0.0, 0.0])]
    singular += [dressed(m) for m in list(singular)]
    singular += [_rank_two_at_the_edge(seed)[0] for seed in (1, 2)]
    # d3 within an ulp of the screen's threshold at the default tol, where
    # tol * (r0 * r1 * r2) and (tol * r0) * r1 * r2 screen differently
    for d1, d2, d3 in [
        (0.5492905166149105, 0.49432337117308955, 9.99999999999999e-10),
        (0.5787987373129461, 0.44495032333893647, 1.0000000000000003e-09),
        (0.6563205129820778, 0.26064483202904204, 9.99999999999999e-10),
    ]:
        singular.append(np.diag([1.0, d1, d2, d3]))
    # N-stage eigenvalues of -0.0: the last, third, second and first
    tiny = 1e-200
    singular += [
        np.array(m)
        for m in (
            [[-0.0, tiny, 0, -1], [-0.0, -1, 0, -0.0], [0, -0.0, 0, 1], [tiny, 0, 0.5, 0]],
            [[-0.0, 1, 0, -0.0], [0, 1, 0, -0.0], [0.5, -0.0, tiny, 1], [tiny, 0, 0, 0]],
            [[0, tiny, 0, 0], [0, -tiny, 0, -1], [0, -0.0, -tiny, 1], [-tiny, -0.0, -tiny, -1]],
            [[0, 0, 1, 0], [0, -0.0, -0.0, 0], [0, tiny, -0.0, tiny], [tiny, 0, 0, tiny]],
        )
    ]
    cases = {"top-tie": top, "lower-tie": lower, "type-two": type2, "rank-one": rank_one}
    cases = {name: np.stack(mats) for name, mats in {**cases, "singular": singular}.items()}
    everything = np.concatenate(list(cases.values()))
    return {**cases, "1e300": 1e300 * everything, "1e-300": 1e-300 * everything}


_ALL_CASES = ["gaussian", "mixtures", "tiny", "pow"]
_ALL_CASES += ["top-tie", "lower-tie", "type-two", "rank-one", "singular", "1e300", "1e-300"]


@pytest.mark.parametrize("name", _ALL_CASES)
def test_stage_tails_give_the_numpy_tails_bits(name):
    # per row and on the whole stack, at the default tol and at tol 0: the
    # same bytes, or the same error
    cases = _tail_cases() if name in ("gaussian", "mixtures", "tiny", "pow") else _canonical_cases()
    mats = cases[name]
    for tol, stack in itertools.product(
        [muellercert.DEFAULT_TOL, 0.0], [mats[k : k + 1] for k in range(len(mats))] + [mats]
    ):
        new, old = kernel.Analysis(stack, tol), kernel.Analysis(stack, tol)
        for read_new, read_old in [
            (lambda: new.hermitian, lambda: _numpy_hermitian(old)),
            (lambda: new.cone, lambda: _numpy_cone(old)),
            (lambda: _normal_arrays(new.normal), lambda: _numpy_normal(old)),
            (lambda: [new.type1_d], lambda: [_numpy_type1_d(old, _numpy_normal(old))]),
            (
                lambda: _canonical_arrays(new.canonical),
                lambda: _canonical_arrays(_numpy_canonical(old)),
            ),
            (lambda: new.factor(), lambda: _numpy_factor(old)),
        ]:
            got, want = _outcome(read_new), _outcome(read_old)
            if isinstance(want, str):
                assert got == want
            else:
                _same_bytes(got, want)


def test_canonical_cases_reach_every_branch():
    # the stacks above reach each family and reason of the canonical stage
    # and each outcome of the factorization, at the default tol
    reached, factored = set(), set()
    for name, mats in _canonical_cases().items():
        if name.startswith("1e"):
            continue  # there the cone stage raises FloatingPointError
        stage = kernel.Analysis(mats).canonical
        for f, r in zip(stage.family, stage.reason):
            reached.add((f.value, r.split(" near")[0] if r else r))
        for m in mats:
            factored.add(_outcome(lambda: kernel.Analysis(m[None]).factor()).__class__.__name__)
    assert {family for family, _ in reached} == {
        "TypeI", "TypeII", "Polarizer", "PinMap", "NotPreMueller", "Indeterminate",
    }
    assert ("Indeterminate", "eigenvalue cluster") in reached
    assert factored == {"list", "str"}


@settings(max_examples=300, deadline=None)
@given(_near_face_type_one())
def test_binding_constraint_agrees_with_physicality(case):
    # A Type-I matrix is Mueller exactly when diag(d) meets the four
    # inequalities.  Band: both the worst canonical margin and the minimum
    # H eigenvalue lie more than 4 times their thresholds (tol d0 and the
    # H stage's tol times the spectral norm) from zero.
    tol = muellercert.DEFAULT_TOL
    report = analyze_stack(case[1][None])[0]
    canonical, physicality = report["canonical"], report["physicality"]
    # Only N's top eigenvalue cluster can be defective, so every
    # cone-preserving draw, lower ties included, is Type I; but a near tie
    # with d0 (d2 close to 1, from eps < 0 or the largest d3) can be
    # Indeterminate, as test_near_ties_are_indeterminate_not_guessed pins.
    assume(report["pre_mueller"]["verdict"])
    top_tie = 1.0 - np.sort(np.abs(case[0]))[-2] < 1e-3
    assert canonical["family"] == "TypeI" or top_tie
    assume(canonical["family"] == "TypeI")
    d = np.array(canonical["d"])
    eigenvalues = physicality["eigenvalues"]
    thresh = tol * max(abs(eigenvalues[0]), abs(eigenvalues[-1]))
    assume(abs(type1_margins(d).min()) > 4 * tol * d[0])
    assume(abs(physicality["min_eigenvalue"]) > 4 * thresh)
    assert physicality["verdict"] is (canonical["binding_constraint"] is None)


def test_type_one_binding_constraint_agrees_with_physicality_on_the_corpus():
    # The paper's Type-I criterion against the H stage over the benchmark
    # corpus at seeds 1-3: the exact inputs as one stack, the measured ones
    # a directory at a time.  Band, fixed at each verdict's own threshold: a
    # row is skipped when its worst canonical margin is within tol d0 of
    # zero or its minimum H eigenvalue within the H threshold of zero.  The
    # band holds every exact single-Jones input (zero margins and zero
    # eigenvalues) and measured seed 3 m008_005.  The paper's rank-one
    # criterion, that every Polarizer and Pin map is Mueller, is checked on
    # the same reports: H of a rank-one map has three zero eigenvalues, so
    # no such row leaves the H threshold, and none is skipped.
    corpus, tol = bench_corpus(), muellercert.DEFAULT_TOL
    reports = []
    for seed in (1, 2, 3):
        exact = corpus.exact_corpus(seed, 1000)
        reports += analyze_stack(np.stack([entry.m for entry in exact]))
        for entries in corpus.measured_corpus(seed, 48, 25):
            reports += analyze_stack(np.stack([entry.m for entry in entries]))
    compared, disagreeing, rank_one = {True: 0, False: 0}, [], []
    for report in reports:
        canonical, physicality = report["canonical"], report["physicality"]
        if canonical["family"] in ("Polarizer", "PinMap"):
            rank_one.append(physicality["verdict"])
            continue
        if canonical["family"] != "TypeI":
            continue
        d, eigenvalues = np.array(canonical["d"]), physicality["eigenvalues"]
        thresh = tol * max(abs(eigenvalues[0]), abs(eigenvalues[-1]))
        if abs(type1_margins(d).min()) <= tol * d[0]:
            continue
        if abs(physicality["min_eigenvalue"]) <= thresh:
            continue
        compared[physicality["verdict"]] += 1
        if physicality["verdict"] is not (canonical["binding_constraint"] is None):
            disagreeing.append(report["input_echo"])
    assert disagreeing == []
    assert min(compared.values()) > 1000, compared
    assert rank_one.count(True) == len(rank_one) >= 3000, rank_one.count(False)


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

    @settings(max_examples=300, deadline=None)
    @given(EXACTLY_SCALABLE, st.booleans(), SCALE_EXPONENT)
    def test_type2_verdict_does_not_depend_on_scale(self, entries, tied, k):
        d = np.array(entries)
        if tied:
            d[3] = d[2]
        assert type2_constraints(np.ldexp(d, k)) is type2_constraints(d)

    @pytest.mark.parametrize("scale", [1.0, 1e-170, 1e-200, 1e200])
    def test_type2_verdict_at_extreme_scales(self, scale):
        # d2**2 and d0 d1 under- or overflow at these scales
        assert type2_constraints(scale * np.array([2.0, 1.0, 1.5, 1.5])) is False
        assert type2_constraints(scale * np.array([2.0, 1.0, 1.0, 1.0])) is True

    def test_type2_constraints_match_numerical_psd(self):
        # The tolerances are relative to d0, so each draw is also checked at
        # a scale between 1e-150 and 1e150, where it keeps its verdict.
        rng = np.random.default_rng(53)
        for _ in range(200):
            d0 = rng.uniform(0.5, 3.0)
            d1 = rng.uniform(0.1, d0 - 0.05)
            cap = np.sqrt(d0 * d1)
            d2 = rng.uniform(0.0, cap)
            d3 = d2 if rng.random() < 0.5 else rng.uniform(-d2, d2)
            scale = 10.0 ** rng.integers(-150, 151)
            verdicts = []
            for d in (np.array([d0, d1, d2, d3]), scale * np.array([d0, d1, d2, d3])):
                eig_min = float(np.linalg.eigvalsh(h_from_m(type2_canonical(*d)))[0])
                verdicts.append(type2_constraints(d, tol=1e-9))
                assert verdicts[-1] == (eig_min >= -1e-9 * d[0])
            assert verdicts[0] == verdicts[1]

    @pytest.mark.parametrize(
        "constraints, holds, fails",
        [
            (type1_constraints, [1.0, 1.0, 1.0, 1.0 + 1e-10], [1.0, 1.0, 1.0, -1.0]),
            (type2_constraints, [2.0, 1.0, 1.0, 1.0 + 1e-10], [2.0, 1.0, 1.0, 0.0]),
        ],
        ids=["type1_constraints", "type2_constraints"],
    )
    def test_constraints_tolerance_is_relative(self, constraints, holds, fails):
        for scale in (1e-150, 1e-10, 1.0, 1e10, 1e150):
            assert constraints(scale * np.array(holds), tol=1e-9) is True
            assert constraints(scale * np.array(fails), tol=1e-9) is False


    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("constraints", [type1_constraints, type2_constraints])
    def test_bad_tol_is_rejected(self, constraints, tol):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            constraints([2.0, 1.0, 1.0, 1.0], tol=tol)


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
