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
"""

import json
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

from helpers import random_jones, random_lorentz

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_reports.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_report_bytes_are_pinned(case):
    m = np.array(case["m"]).reshape(4, 4)
    assert render_report(analyze_matrix(m)) == case["report"]


def test_golden_inputs_as_one_stack():
    stack = np.stack([np.array(case["m"]).reshape(4, 4) for case in GOLDEN])
    rendered = [render_report(report) for report in analyze_stack(stack)]
    assert rendered == [case["report"] for case in GOLDEN]


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


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(_KINDS), st.integers(0, 2**32 - 1)), min_size=1, max_size=8
    )
)
def test_stack_rows_equal_single_analyses(draws):
    stack = np.stack([_mixed(kind, seed) for kind, seed in draws])
    reports = analyze_stack(stack)
    assert len(reports) == len(stack)
    for m, report in zip(stack, reports):
        assert report == analyze_matrix(m)


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
