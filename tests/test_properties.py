"""Properties of the report on drawn matrices (ROADMAP item 5).

Each input is one of three kinds, drawn from a numpy generator seeded by
hypothesis: a Gaussian matrix, a Mueller matrix M(H) with H = B^H B for a
complex B of 1 to 4 rows (rank-deficient H included), or a Type-I canonical
form diag(d) dressed by two random Lorentz matrices.  Every input is divided
by the power of two that brings its largest magnitude into [1/2, 1), and
entries below 2**-32 are set to zero, so 2**k times it is exact for k in
-990..500.  The dressing property draws a canonical form of each family
instead.  The whole module runs in about 4 s (300 examples per property).
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muellercert import jones_ensemble, m_from_h, mueller_from_jones, physicality
from muellercert.cli import analyze_matrix, verdict_exit_code

from helpers import (
    boost_jones,
    pin_map,
    polarizer_map,
    random_lorentz,
    rotation_jones,
    type2_canonical,
)

_SEEDS = st.integers(0, 2**32 - 1)


def _unit_scale(m):
    m = np.ldexp(m, -math.frexp(float(np.abs(m).max()))[1])
    return np.where(np.abs(m) < 2.0**-32, 0.0, m)


def _gaussian(rng):
    return rng.normal(size=(4, 4))


def _mueller(rng):
    rows = int(rng.integers(1, 5))
    b = rng.normal(size=(rows, 4)) + 1j * rng.normal(size=(rows, 4))
    return m_from_h(b.conj().T @ b)


def _dressed_type_one(rng):
    d = np.concatenate(([1.0], rng.uniform(-1.0, 1.0, size=3)))
    return random_lorentz(rng) @ np.diag(d) @ random_lorentz(rng)


def _matrices(*kinds):
    return st.builds(
        lambda kind, seed: _unit_scale(kind(np.random.default_rng(seed))),
        st.sampled_from(kinds),
        _SEEDS,
    )


@settings(max_examples=300, deadline=None)  # under 1 s
@given(m=_matrices(_gaussian, _mueller, _dressed_type_one), k=st.integers(-990, 500))
def test_tier_and_family_do_not_change_under_scaling(m, k):
    scaled = np.ldexp(m, k)
    assert np.array_equal(np.ldexp(scaled, -k), m)
    base, report = analyze_matrix(m), analyze_matrix(scaled)
    assert verdict_exit_code(report) == verdict_exit_code(base)
    assert report["canonical"]["family"] == base["canonical"]["family"]


@settings(max_examples=300, deadline=None)  # under 1 s
@given(m=_matrices(_mueller, _dressed_type_one))
def test_a_nonnegative_hermitian_spectrum_is_pre_mueller(m):
    # Claimed only where the smallest eigenvalue is at least 0, a band fixed
    # before the run: between -tol times the spectral scale and 0 a Mueller
    # verdict may meet a cone margin just past the cone's own tol.
    report = analyze_matrix(m)
    if report["physicality"]["min_eigenvalue"] >= 0.0:
        assert report["pre_mueller"]["verdict"] is True


@settings(max_examples=300, deadline=None)  # under 1 s
@given(m=_matrices(_gaussian, _dressed_type_one))
def test_the_witness_expectation_is_the_smallest_eigenvalue(m):
    report = analyze_matrix(m)
    if report["physicality"]["verdict"]:
        return
    eigenvalues = report["physicality"]["eigenvalues"]
    scale = max(abs(eigenvalues[0]), abs(eigenvalues[-1]))
    expectation = report["witness"]["expectation"]
    assert abs(expectation - report["physicality"]["min_eigenvalue"]) <= 1e-12 * scale


@settings(max_examples=300, deadline=None)  # under 1 s
@given(m=_matrices(_mueller))
def test_the_jones_ensemble_rebuilds_the_matrix(m):
    # The ensemble keeps the eigenvalues above the verdict threshold; those
    # it leaves out bound what it cannot rebuild.
    ensemble = jones_ensemble(m)
    left_out = np.abs(physicality(m).eigenvalues[len(ensemble):]).sum()
    error = np.abs(ensemble.reconstruct() - m).max()
    assert error <= 1e-12 * np.abs(m).max() + left_out


def _type_one_form(rng):
    # Band, fixed before the run: |d1|, |d2|, |d3| at most 0.99 d0 and
    # pairwise at least 1e-2 d0 apart, so N's eigenvalues are distinct.
    while True:
        d = rng.uniform(-0.99, 0.99, size=3)
        if np.diff(np.sort(np.abs(d))).min() >= 1e-2:
            return np.diag(np.concatenate(([1.0], d)))


def _type_two_form(rng):
    # Band, fixed before the run: d2 <= 0.9 sqrt(d0 d1), so N's top cluster
    # is the Jordan block alone, and d1 from 0.05 to 0.95 d0, so its
    # coupling d0 (d0 - d1) is far above the rank test's threshold.
    d1 = rng.uniform(0.05, 0.95)
    d2 = rng.uniform(0.0, 0.9 * np.sqrt(d1))
    return type2_canonical(1.0, d1, d2, rng.uniform(-d2, d2))


_CANONICAL_FORMS = {
    "TypeI": _type_one_form,
    "TypeII": _type_two_form,
    "Polarizer": lambda rng: polarizer_map(),
    "PinMap": lambda rng: pin_map(),
}


def _lorentz(rng):
    """A rotation after a boost of rapidity at most 1, about random axes."""
    rotation = rotation_jones(int(rng.integers(1, 4)), rng.uniform(-np.pi, np.pi))
    boost = boost_jones(int(rng.integers(1, 4)), rng.uniform(-1.0, 1.0))
    return mueller_from_jones(rotation @ boost)


@settings(max_examples=300, deadline=None)  # under 1 s
@given(family=st.sampled_from(sorted(_CANONICAL_FORMS)), seed=_SEEDS)
@example(family="TypeII", seed=0)
def test_family_and_d_do_not_change_under_dressing(family, seed):
    # d is reported only where the Lorentz orbit fixes it (Type I), and
    # there L1 K L2 gives K's d within 1e-6 d0, a bound fixed before the run.
    rng = np.random.default_rng(seed)
    k = _CANONICAL_FORMS[family](rng)
    base = analyze_matrix(k)["canonical"]
    dressed = analyze_matrix(_lorentz(rng) @ k @ _lorentz(rng))["canonical"]
    assert base["family"] == dressed["family"] == family
    if family == "TypeI":
        np.testing.assert_allclose(dressed["d"], base["d"], rtol=0.0, atol=1e-6 * base["d"][0])
    else:
        assert base["d"] is None and dressed["d"] is None
