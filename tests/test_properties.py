"""Properties of the report on drawn matrices (ROADMAP item 5).

Each input is one of three kinds, drawn from a numpy generator seeded by
hypothesis: a Gaussian matrix, a Mueller matrix M(H) with H = B^H B for a
complex B of 1 to 4 rows (rank-deficient H included), or a Type-I canonical
form diag(d) dressed by two random Lorentz matrices.  Every input is divided
by the power of two that brings its largest magnitude into [1/2, 1), and
entries below 2**-32 are set to zero, so 2**k times it is exact for k in
-990..500.  The whole module runs in about 3 s (300 examples per
property).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from muellercert import jones_ensemble, m_from_h, physicality
from muellercert.cli import analyze_matrix, verdict_exit_code

from helpers import random_lorentz

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
