"""Report bytes, and the stacked analysis against the single-matrix views.

``data/golden_reports.json`` pins ``render_report(analyze_matrix(m))`` for
inputs chosen to reach every branch of the report: one of each exact
construction class (Jones, Type I inside and outside the tetrahedron,
physical and unphysical Type II, polarizer, pin map, not pre-Mueller), a
Type I input scaled by 1e40, three noisy mixtures of Jones systems, a near
tie of the cone test's bottom eigenvalues just outside its degeneracy
threshold, the zero matrix and an Indeterminate near tie of the normal
matrix's spectrum.  The bytes were captured before the analysis was
stacked and must not change.

``render_report`` writes JSON in one walk of the document; it is checked
against the standard library's encoder applied to the rounded document
(``helpers.reference_render_report``).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muellercert import (
    certify_cone,
    classify,
    h_from_m,
    jones_ensemble,
    mueller_from_jones,
    mueller_jones_test,
    n_matrix,
    physicality,
    type1_factor,
    witness_certificate,
)
from muellercert.cli import analyze_matrix, analyze_stack, main, render_report

from helpers import random_jones, random_lorentz, reference_render_report

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_reports.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_report_bytes_are_pinned(case):
    m = np.array(case["m"]).reshape(4, 4)
    assert render_report(analyze_matrix(m)) == case["report"]


def test_golden_inputs_as_one_stack():
    stack = np.stack([np.array(case["m"]).reshape(4, 4) for case in GOLDEN])
    rendered = [render_report(report) for report in analyze_stack(stack)]
    assert rendered == [case["report"] for case in GOLDEN]


# Floats whose text is special: signed zeros, non-finite values, the
# smallest subnormal, the edges of fixed notation for small numbers, and
# magnitudes 1e11 to 1e17, where %g (from 1e12) and repr (from 1e16) switch
# to exponent notation at different points.
_SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-4, 9.99999999999e-5, 1e-5]
)
_LARGE_FLOATS = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from([1.0, -1.0]),
    st.floats(1.0, 10.0),
    st.integers(11, 17),
)
_LEAVES = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    _SPECIAL_FLOATS,
    _LARGE_FLOATS,
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),
)
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(_DOCUMENTS)
def test_render_matches_the_json_encoder(doc):
    assert render_report(doc) == reference_render_report(doc)


@pytest.mark.parametrize(
    "value",
    [np.int64(3), np.float32(0.5), np.bool_(True), 1j, {1.0}, object()],
    ids=["int64", "float32", "bool_", "complex", "set", "object"],
)
def test_render_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        reference_render_report({"a": [value]})
    with pytest.raises(TypeError):
        render_report({"a": [value]})


_VANZYL_REPORT = """\
{
  "binding_constraint": "d1 + d2 - d3 <= d0",
  "constraint_margins": [
    1.9649,
    1.8045,
    -0.7855,
    0.9101
  ],
  "d": [
    0.9735,
    0.9112,
    0.464,
    -0.3838
  ],
  "diagonal_h_spectrum": [
    0.98245,
    0.90225,
    0.45505,
    -0.39275
  ],
  "negative_count": 1,
  "note": "spectrum shown is for the diagonal canonical form only; the measured \
matrix's eigenvalues are not recoverable from d because spectra are not double-coset \
invariants",
  "physical": false,
  "violation": 0.7855
}
"""

_TETRA_SCAN_REPORT = """\
{
  "fraction_mueller": 0.315,
  "fraction_pre_mueller": 1.0,
  "samples": 1000,
  "seed": 5
}
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["vanzyl"], _VANZYL_REPORT),
        (["tetra-scan", "--samples", "1000", "--seed", "5"], _TETRA_SCAN_REPORT),
    ],
    ids=["vanzyl", "tetra-scan"],
)
def test_command_report_bytes_are_pinned(argv, expected, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def _mixed(kind, seed):
    """One matrix of the given construction, from a seeded generator."""
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.normal(size=(4, 4))
    if kind == "jones_mixture":
        weights = rng.dirichlet(np.ones(rng.integers(1, 5)))
        m = sum(w * mueller_from_jones(random_jones(rng)) for w in weights)
        return m + rng.normal(scale=10.0 ** rng.uniform(-6, -2), size=(4, 4))
    if kind == "dressed_diagonal":
        d = np.concatenate([[1.0], rng.uniform(-1.0, 1.0, size=3)])
        return random_lorentz(rng) @ np.diag(d) @ random_lorentz(rng)
    if kind == "type2":
        d1 = rng.uniform(0.3, 0.9)
        d2 = rng.uniform(0.2, 0.9) * np.sqrt(d1)
        m = np.diag([1.0, d1, d2, d2 if rng.integers(2) else -0.5 * d2])
        m[0, 1] = 1.0 - d1
        return m
    if kind == "rank_one":
        out = np.concatenate([[1.0], rng.normal(size=3)])
        out[1:] /= np.linalg.norm(out[1:])
        return np.outer(out, np.concatenate([[1.0], rng.uniform(0.0, 0.3, size=3)]))
    if kind == "scaled":
        return 10.0 ** rng.integers(-3, 30) * rng.normal(size=(4, 4))
    return np.zeros((4, 4))


_KINDS = ("gaussian", "jones_mixture", "dressed_diagonal", "type2", "rank_one", "scaled", "zero")


_DRAWS = st.lists(
    st.tuples(st.sampled_from(_KINDS), st.integers(0, 2**32 - 1)), min_size=1, max_size=8
)


@settings(max_examples=60, deadline=None)
@given(_DRAWS)
def test_stack_rows_equal_single_analyses(draws):
    stack = np.stack([_mixed(kind, seed) for kind, seed in draws])
    reports = analyze_stack(stack)
    assert len(reports) == len(stack)
    for m, report in zip(stack, reports):
        assert report == analyze_matrix(m)


def _complex(arr):
    return {"real": arr.real.tolist(), "imag": arr.imag.tolist()}


@settings(max_examples=40, deadline=None)
@given(_DRAWS)
def test_report_fields_are_the_public_verdicts(draws):
    """The stacked report assembly against the public views of one matrix."""
    stack = np.stack([_mixed(kind, seed) for kind, seed in draws])
    for m, report in zip(stack, analyze_stack(stack)):
        cone, phys, canon = certify_cone(m), physicality(m), classify(m)
        jones, witness = mueller_jones_test(m), witness_certificate(m)
        assert report["pre_mueller"] == {
            "verdict": cone.is_pre_mueller,
            "intensity_margin": cone.intensity_margin,
            "lorentz_margin": cone.lorentz_margin,
            "worst_input": cone.worst_input.tolist(),
        }
        assert report["physicality"] == {
            "eigenvalues": phys.eigenvalues.tolist(),
            "min_eigenvalue": phys.min_eigenvalue,
            "verdict": phys.is_mueller,
            "rank": phys.rank,
        }
        assert report["mueller_jones"] == {
            "verdict": jones is not None,
            "jones": None if jones is None else _complex(jones),
        }
        items = jones_ensemble(m).items if phys.is_mueller else ()
        assert report["ensemble"] == [
            {"weight": weight, "jones": _complex(jmat)} for weight, jmat in items
        ]
        assert report["canonical"]["family"] == canon.family.value
        assert report["canonical"]["d"] == (None if canon.d is None else canon.d.tolist())
        assert report["witness"]["present"] is (witness is not None)
        if witness is not None:
            assert report["witness"]["vector"] == _complex(witness)


def test_empty_stack():
    assert analyze_stack(np.zeros((0, 4, 4))) == []


def _write(directory, name, m):
    path = directory / name
    if name.endswith(".json"):
        path.write_text(json.dumps({"mueller": np.asarray(m).tolist()}))
    else:
        path.write_text("\n".join(" ".join(repr(float(x)) for x in row) for row in m) + "\n")
    return path


def _analyze_file(path, capsys):
    assert main(["analyze", str(path)]) == 0
    return json.loads(capsys.readouterr().out)


class TestBatchMatchesAnalyze:
    def test_directory_of_golden_inputs(self, tmp_path, capsys):
        paths = [
            _write(tmp_path, f"{k:02d}_{case['name']}" + (".json" if k % 3 == 2 else ".txt"),
                   np.array(case["m"]).reshape(4, 4))
            for k, case in enumerate(GOLDEN)
        ]
        assert main(["batch", str(tmp_path)]) == 0
        batch = json.loads(capsys.readouterr().out)
        assert sorted(batch) == sorted(p.name for p in paths)
        for path in paths:
            assert batch[path.name] == _analyze_file(path, capsys)

    def test_one_file_directory(self, tmp_path, capsys):
        path = _write(tmp_path, "only.txt", np.diag([1.0, 0.4, 0.3, -0.2]))
        assert main(["batch", str(tmp_path)]) == 0
        batch = json.loads(capsys.readouterr().out)
        assert batch == {"only.txt": _analyze_file(path, capsys)}

    def test_unparseable_file_in_the_middle(self, tmp_path, capsys):
        rng = np.random.default_rng(90)
        first = _write(tmp_path, "a.txt", rng.normal(size=(4, 4)))
        (tmp_path / "b.txt").write_text("1 2 3\n")
        last = _write(tmp_path, "c.json", np.diag([1.0, 1.0, 1.0, -1.0]))
        assert main(["batch", str(tmp_path)]) == 2
        batch = json.loads(capsys.readouterr().out)
        assert list(batch) == ["a.txt", "b.txt", "c.json"]
        assert "expected 16 numbers" in batch["b.txt"]["error"]
        assert batch["a.txt"] == _analyze_file(first, capsys)
        assert batch["c.json"] == _analyze_file(last, capsys)

    def test_summary_keeps_file_order(self, tmp_path, capsys):
        _write(tmp_path, "b.txt", np.eye(4))
        (tmp_path / "a.txt").write_text("x\n")
        assert main(["batch", str(tmp_path), "--format", "summary"]) == 2
        out = capsys.readouterr().out
        assert out.index("== a.txt") < out.index("error:") < out.index("== b.txt")


_VIEWS = (
    analyze_matrix,
    certify_cone,
    physicality,
    mueller_jones_test,
    jones_ensemble,
    witness_certificate,
    classify,
    type1_factor,
    h_from_m,
    n_matrix,
)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("view", _VIEWS, ids=[view.__name__ for view in _VIEWS])
def test_non_finite_input_is_rejected(view, value):
    m = np.eye(4)
    m[2, 3] = value
    with pytest.raises(ValueError, match="non-finite"):
        view(m)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_row_rejects_the_stack(value):
    stack = np.stack([np.eye(4), np.eye(4)])
    stack[1, 0, 0] = value
    with pytest.raises(ValueError, match="non-finite"):
        analyze_stack(stack)
