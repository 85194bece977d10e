"""Properties of the report on drawn matrices (ROADMAP item 5).

Each input is one of three kinds, drawn from a numpy generator seeded by
hypothesis: a Gaussian matrix, a Mueller matrix M(H) with H = B^H B for a
complex B of 1 to 4 rows (rank-deficient H included), or a Type-I canonical
form diag(d) dressed by two random Lorentz matrices.  Every input is divided
by the power of two that brings its largest magnitude into [1/2, 1), and
entries below 2**-32 are set to zero, so 2**k times it is exact for k in
-990..500.  The dressing property draws a canonical form of each family
instead.  The symmetry properties (transposition and mirror conjugation,
ROADMAP item 21) draw such a dressed form or a near-boundary matrix.  The
last two properties run ``analyze`` and ``batch`` on files of drawn bytes
and check the CLI's exit-code contract.  The whole module runs in about
6 s (300 examples per property, 100 for ``batch``).
"""

import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muellercert import classify, jones_ensemble, m_from_h, mueller_from_jones, physicality
from muellercert.cli import analyze_matrix, main, render_report, verdict_exit_code

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


def _near_boundary(rng):
    """M(H - eta tr(H) I) for H = B^H B of rank 1 to 3, on the Mueller
    boundary (rank 1, a Jones matrix, on the cone's boundary too), and
    1e-7 <= |eta| <= 1e-3 of either sign: H's smallest eigenvalue is
    -eta tr(H), at least 100 tol from the Mueller threshold."""
    rows = int(rng.integers(1, 4))
    b = rng.normal(size=(rows, 4)) + 1j * rng.normal(size=(rows, 4))
    h = b.conj().T @ b
    eta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-7.0, -3.0)
    return m_from_h(h - eta * np.trace(h).real * np.eye(4))


def _symmetry_draw(kind, seed):
    """A near-boundary draw, or a canonical form of the family ``kind``
    between two Lorentz factors."""
    rng = np.random.default_rng(seed)
    if kind == "near-boundary":
        return _near_boundary(rng)
    return _lorentz(rng) @ _CANONICAL_FORMS[kind](rng) @ _lorentz(rng)


_SYMMETRY_DRAWS = st.builds(
    _symmetry_draw, st.sampled_from([*sorted(_CANONICAL_FORMS), "near-boundary"]), _SEEDS
)
_VERDICTS = ("physicality", "pre_mueller", "mueller_jones")
# F, the mirror: F M(J) F = M(conj J), as F flips the sign of V.
_MIRROR = np.diag([1.0, 1.0, 1.0, -1.0])


def _assert_same_h_spectrum(base, image):
    # Band, fixed before the run: 1e-13 of the largest |eigenvalue|
    # (2.0e-15 measured under transposition on 4,000 Gaussian matrices).
    w, v = (np.array(r["physicality"]["eigenvalues"]) for r in (base, image))
    assert np.abs(w - v).max() <= 1e-13 * np.abs(w).max()


def _cone_slack(report, sigma):
    """The smaller cone margin of a report, each in units of its scale;
    the pre-Mueller verdict holds where it is at least -tol."""
    pre = report["pre_mueller"]
    return min(pre["intensity_margin"] / sigma, pre["lorentz_margin"] / sigma**2)


@settings(max_examples=300, deadline=None)  # under 1 s
@given(m=_SYMMETRY_DRAWS)
def test_transposition_keeps_verdicts_family_and_h_spectrum(m):
    # The adjoint of a completely positive map is completely positive, so
    # H(M^T) has H(M)'s spectrum (band above) and the Mueller and
    # Mueller-Jones verdicts, decided 1e-9 of the spectrum from zero, agree.
    # The Lorentz cone is self-dual, so M and M^T preserve it together, but
    # the margins are not kept: the pre-Mueller verdicts may differ only
    # where the side that holds does so by tol alone, its slack below
    # -1e-13.  N(M^T) = GM N(M) (GM)^-1 where M is nonsingular, so the
    # family is kept except in two cases.  A pin map e e0^T, e lightlike, is
    # singular; its transpose e0 e^T is the Type-II form with d = (1, 0, 0,
    # 0).  And the cluster scale ||N|| is not a similarity invariant, so a
    # near-tied cluster can be undecidable at tol (Indeterminate) on one
    # side only.
    base, image = analyze_matrix(m), analyze_matrix(m.T)
    _assert_same_h_spectrum(base, image)
    assert base["physicality"]["verdict"] == image["physicality"]["verdict"]
    assert base["mueller_jones"]["verdict"] == image["mueller_jones"]["verdict"]
    if base["pre_mueller"]["verdict"] != image["pre_mueller"]["verdict"]:
        holds = base if base["pre_mueller"]["verdict"] else image
        assert _cone_slack(holds, np.linalg.norm(m, 2)) < -1e-13
        return
    family, image_family = base["canonical"]["family"], image["canonical"]["family"]
    if [family, image_family].count("Indeterminate") == 1:
        undecided = m if family == "Indeterminate" else m.T
        if "cannot separate defective" in classify(undecided).diagnostics:
            return
    assert image_family == {"PinMap": "TypeII"}.get(family, family)


@settings(max_examples=300, deadline=None)  # under 1 s
@given(m=_SYMMETRY_DRAWS)
def test_mirror_conjugation_keeps_verdicts_family_spectrum_and_margin(m):
    # F is a Lorentz matrix and orthogonal: F M F keeps H's spectrum (band
    # above), the family (N(FMF) = F N(M) F) and the Lorentz margin, to
    # 1e-13 sigma^2, a band fixed before the run (6.8e-15 measured on 4,000
    # Gaussian matrices), so every verdict.
    base, image = analyze_matrix(m), analyze_matrix(_MIRROR @ m @ _MIRROR)
    _assert_same_h_spectrum(base, image)
    assert [base[k]["verdict"] for k in _VERDICTS] == [image[k]["verdict"] for k in _VERDICTS]
    assert base["canonical"]["family"] == image["canonical"]["family"]
    margin = base["pre_mueller"]["lorentz_margin"] - image["pre_mueller"]["lorentz_margin"]
    assert abs(margin) <= 1e-13 * np.linalg.norm(m, 2) ** 2


# File contents: arbitrary bytes, text made of the tokens a matrix file holds
# and of spellings the parser must refuse (1e309, nan, 0x10, 1_0, a BOM, NUL,
# a lone carriage return), and 16 numbers, which parse; about one in four
# such matrices holds a 1e200 and overflows the analysis.
_TOKENS = ["0", "-1", "0.5", "3e-2", "1e200", "1e309", "nan", "-inf", "0x10", "1_0", "#"]
_TOKENS += ["[", "]", ",", "{", "}", ":", '"mueller"', "\ufeff", "\x00", "\r", "\n", " "]
_FILE_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(st.sampled_from(_TOKENS), max_size=40).map(lambda tokens: " ".join(tokens).encode()),
    st.lists(
        st.sampled_from(["0", "1", "-1", "0.5", "-0.25", "2e-3"] * 10 + ["1e200"]),
        min_size=16,
        max_size=16,
    ).map(lambda numbers: "\n".join(numbers).encode()),
)


def _write(path, content):
    with open(path, "wb") as file:
        file.write(content)


def _assert_one_error_line(code, out, err):
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert err.getvalue().endswith("\n")


@settings(max_examples=300, deadline=None)  # about 1 s
@given(content=_FILE_BYTES, verdict_exit=st.booleans())
def test_analyze_exits_with_its_contract_on_any_file_bytes(content, verdict_exit):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.txt")
        _write(path, content)
        out, err = io.StringIO(), io.StringIO()
        code = main(["analyze", path] + ["--verdict-exit"] * verdict_exit, out=out, err=err)
    assert code in ((0, 2, 3, 4) if verdict_exit else (0, 2))
    if code == 2:
        _assert_one_error_line(code, out, err)
    else:
        assert err.getvalue() == "" and "physicality" in json.loads(out.getvalue())


_VALID = np.diag([1.0, 0.5, 0.25, -0.125])


@settings(max_examples=100, deadline=None)  # about 1 s
@given(contents=st.lists(_FILE_BYTES, min_size=1, max_size=4), verdict_exit=st.booleans())
@example(contents=[b"\xff", b"", b"1 2 3"], verdict_exit=False)
def test_batch_reports_each_file_or_its_error(contents, verdict_exit):
    # A file that fails to parse gets an error entry and the batch exits 2;
    # an analysis beyond the float range writes one error line instead.
    with tempfile.TemporaryDirectory() as tmp:
        for k, content in enumerate(contents):
            _write(os.path.join(tmp, f"drawn{k}.txt"), content)
        _write(os.path.join(tmp, "valid.txt"), " ".join(map(repr, _VALID.ravel().tolist())).encode())
        out, err = io.StringIO(), io.StringIO()
        code = main(["batch", tmp] + ["--verdict-exit"] * verdict_exit, out=out, err=err)
    if err.getvalue():
        _assert_one_error_line(code, out, err)
        return
    document = json.loads(out.getvalue())
    assert sorted(document) == sorted([f"drawn{k}.txt" for k in range(len(contents))] + ["valid.txt"])
    assert document["valid.txt"] == json.loads(render_report(analyze_matrix(_VALID)))
    failed = [name for name, entry in document.items() if list(entry) == ["error"]]
    worst = max(verdict_exit_code(entry) for entry in document.values() if list(entry) != ["error"])
    assert code == (2 if failed else worst if verdict_exit else 0)
