"""Report bytes, and the stacked analysis against the single-matrix views.

``data/golden_reports.json`` pins ``render_report(analyze_matrix(m))`` for
inputs chosen to reach every branch of the report: one of each exact
construction class (Jones, Type I inside and outside the tetrahedron,
physical and unphysical Type II, polarizer, pin map, not pre-Mueller), a
Type I input scaled by 1e40, three noisy mixtures of Jones systems, a near
tie of the cone test's bottom eigenvalues just outside its degeneracy
threshold, the zero matrix, and two near ties of the normal matrix's
spectrum: a Type-I one below its simple top eigenvalue and an
Indeterminate one in its top cluster.  The bytes must not change.  Most
were captured before the analysis was stacked.  The lower near tie was
captured again when the classification came to rank-test only the top
cluster, which made it Type I with its d; the top near tie was added then,
with bytes that the change left as they were.

``render_report`` writes a report, alone or as a value of a mapping with
string keys, from the report's schema, and hands every other value to
``json``'s own encoder; all are checked against the standard library's
encoder applied to the rounded document (``helpers.reference_render_report``),
the schema writer on every report branch, on report-shaped documents with
foreign values, on arbitrary floats in every float field, and on the
special and random floats of the generic tests written into a report's
``input_echo``.  Circular documents and documents nested 900 deep are
checked against ``json.dumps`` itself.

The input boundary of every public array-taking function is checked as
one table at the end of the file, and so are the return types of the
single-matrix views: the analysis stages hold Python lists, and the views
convert their row.
"""

import inspect
import json
import math
import pydoc
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muellercert import (
    DEFAULT_TOL,
    TYPE1_CONSTRAINT_FORMS,
    Family,
    certify_cone,
    classify,
    expectation,
    extended_action,
    h_from_m,
    jones_ensemble,
    mueller_from_jones,
    mueller_jones_test,
    physicality,
    type1_constraints,
    type1_margins,
    witness_certificate,
    witness_input,
)
import muellercert
from muellercert import cli, core, kernel
from muellercert.cli import analyze_matrix, analyze_stack, main, render_report

from helpers import random_jones, random_lorentz, reference_render_report, type2_canonical

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_reports.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_report_bytes_are_pinned(case):
    m = np.array(case["m"]).reshape(4, 4)
    assert render_report(analyze_matrix(m)) == case["report"]


def test_golden_inputs_as_one_stack():
    stack = np.stack([np.array(case["m"]).reshape(4, 4) for case in GOLDEN])
    rendered = [render_report(report) for report in analyze_stack(stack)]
    assert rendered == [case["report"] for case in GOLDEN]


# Floats whose text is special: signed zeros, non-finite values, subnormals
# and the smallest normal, the edges of fixed notation for small numbers,
# magnitudes 1e11 to 1e17, where %g (from 1e12) and repr (from 1e16) switch
# to exponent notation at different points, and values that %.12g rounds
# across those switches (into e+12, and up to 1e+16).
_SPECIAL_VALUES = (
    0.0,
    -0.0,
    math.inf,
    -math.inf,
    math.nan,
    5e-324,
    -5e-324,
    1.5e-310,
    2.2250738585072014e-308,
    1e-4,
    9.99999999999e-5,
    1e-5,
    999999999999.5,
    123456789012345.0,
    9999999999999500.0,
)
_SPECIAL_FLOATS = st.sampled_from(_SPECIAL_VALUES)
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


@pytest.mark.parametrize("value", _SPECIAL_VALUES, ids=repr)
def test_special_float_text(value):
    assert render_report([value]) == reference_render_report([value])


@pytest.mark.parametrize("value", _SPECIAL_VALUES, ids=repr)
def test_special_float_text_in_a_report(value, monkeypatch):
    # a bare list goes to json; in a report the schema writer writes it
    report = _full_report()
    report["input_echo"] = [value] * 16
    calls = _count_schema_writes(monkeypatch)
    assert render_report(report) == reference_render_report(report)
    assert calls == ["\n"]


def _random_bit_patterns() -> list:
    """200,000 floats from uniform bit patterns: every float64 class at its
    frequency among them, subnormals, nan and inf, and exponents across the
    whole range."""
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64, endpoint=False)
    return bits.view(np.float64).tolist()


def test_render_matches_the_json_encoder_on_random_bit_patterns():
    # 100 floats per document, each on its own line
    floats = _random_bit_patterns()
    for start in range(0, len(floats), 100):
        doc = floats[start : start + 100]
        assert render_report(doc) == reference_render_report(doc)


def test_report_text_on_random_bit_patterns(monkeypatch):
    # the same floats, 16 at a time in a report's input_echo, so that the
    # schema writer's float text writes them
    floats = _random_bit_patterns()
    report = _full_report()
    calls = _count_schema_writes(monkeypatch)
    for start in range(0, len(floats), 16):
        report["input_echo"] = floats[start : start + 16]
        assert render_report(report) == reference_render_report(report)
    assert calls == ["\n"] * (len(floats) // 16)


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


def _circular_documents() -> dict:
    """Documents that hold themselves, and a batch mapping whose report has a
    section that holds itself."""
    mapping, listing = {}, []
    mapping["a"] = mapping
    listing.append(listing)
    report = _full_report()
    report["witness"]["vector"] = report["witness"]
    return {
        "dict": mapping,
        "list": listing,
        "nested_list": {"x": [1.0, listing]},
        "batch_section": {"a.txt": report, "b.txt": _full_report()},
    }


@pytest.mark.parametrize("name", ["dict", "list", "nested_list", "batch_section"])
def test_circular_documents_raise_what_json_raises(name):
    doc = _circular_documents()[name]
    with pytest.raises(ValueError) as expected:
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(ValueError) as raised:
        render_report(doc)
    assert str(raised.value) == str(expected.value) == "Circular reference detected"


@pytest.mark.parametrize("leaf", [7, 0.25], ids=["int", "float"])
@pytest.mark.parametrize("kind", ["list", "dict"])
@pytest.mark.parametrize("placement", ["alone", "batch_value"])
def test_deep_documents_render_as_json_writes_them(placement, kind, leaf):
    # 900 levels, which json writes and a walk that recurses two frames a
    # level would not; the leaf needs no rounding, so json.dumps itself is
    # the reference (helpers._round12 recurses too)
    doc = leaf
    for _ in range(900):
        doc = [doc] if kind == "list" else {"k": doc}
    if placement == "batch_value":
        doc = {"a.txt": doc, "b.txt": {"error": "x"}}
    assert render_report(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_a_float_key_is_written_as_a_float():
    # rounded to 12 significant digits and -0.0 as 0.0, as a float value is
    doc = {0.1234567890123456: 1, -0.0: [2], 1e16: None}
    assert render_report(doc) == (
        '{\n  "0.0": [\n    2\n  ],\n  "0.123456789012": 1,\n  "1e+16": null\n}\n'
    )


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


_VANZYL_SUMMARY = """\
van Zyl canonical parameters: 0.9735, 0.9112, 0.464, -0.3838
physical: False
violated constraint: d1 + d2 - d3 <= d0 (by 0.7855)
diagonal-form spectrum: 0.98245, 0.90225, 0.45505, -0.39275
note: spectrum shown is for the diagonal canonical form only; the measured \
matrix's eigenvalues are not recoverable from d because spectra are not double-coset \
invariants
"""

_TETRA_SCAN_SUMMARY = "samples 1000 seed 5: mueller fraction 0.315, pre-mueller fraction 1\n"


_FLIP_SUMMARY = """\
verdict: pre-Mueller only (cone-preserving but unphysical)
cone margins: intensity 1, lorentz 0
hermitian spectrum: 1, 1, 1, -1 (rank 3)
canonical family: TypeI
canonical d: 1, 1, 1, -1
violated constraint: d1 + d2 - d3 <= d0
witness expectation: -1
"""

_BAD_BATCH_REPORT = '{\n  "bad.txt": {\n    "error": "expected 16 numbers, found 3"\n  }\n}\n'
_BAD_BATCH_SUMMARY = "== bad.txt\nerror: expected 16 numbers, found 3\n"

# Input files of the commands below, written to a temporary directory DIR.
_FLIP_FILE = {"flip.txt": "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 -1\n"}
_BAD_FILE = {"bad.txt": "1 2 3\n"}


@pytest.mark.parametrize(
    "argv, files, expected, code",
    [
        (["vanzyl"], {}, _VANZYL_REPORT, 0),
        (["tetra-scan", "--samples", "1000", "--seed", "5"], {}, _TETRA_SCAN_REPORT, 0),
        (["vanzyl", "--format", "summary"], {}, _VANZYL_SUMMARY, 0),
        (
            ["tetra-scan", "--samples", "1000", "--seed", "5", "--format", "summary"],
            {}, _TETRA_SCAN_SUMMARY, 0,
        ),
        (["analyze", "DIR/flip.txt", "--format", "summary"], _FLIP_FILE, _FLIP_SUMMARY, 0),
        (["batch", "DIR"], _BAD_FILE, _BAD_BATCH_REPORT, 2),
        (["batch", "DIR", "--format", "summary"], _BAD_FILE, _BAD_BATCH_SUMMARY, 2),
    ],
    ids=[
        "vanzyl", "tetra-scan", "vanzyl-summary", "tetra-scan-summary",
        "analyze-witness-summary", "batch-parse-failure", "batch-parse-failure-summary",
    ],
)
def test_command_report_bytes_are_pinned(argv, files, expected, code, tmp_path, capsys):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main([arg.replace("DIR", str(tmp_path)) for arg in argv]) == code
    assert capsys.readouterr() == (expected, "")


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


def test_threads_do_not_wait_on_each_other(monkeypatch):
    # each of two threads analyzes its own stack and waits, inside its H
    # stage, for the other to reach its own; a stage cache holding one lock
    # per stage for every analysis while the stage computes (as
    # functools.cached_property does before Python 3.12) breaks the barrier
    barrier = threading.Barrier(2, timeout=5)
    hermitian_of = kernel._hermitian_of

    def waiting(mats):
        barrier.wait()
        return hermitian_of(mats)

    stacks = [np.stack([_mixed(kind, seed) for kind in _KINDS]) for seed in (0, 1)]
    serial = [analyze_stack(stack) for stack in stacks]
    monkeypatch.setattr(kernel, "_hermitian_of", waiting)
    with ThreadPoolExecutor(2) as pool:
        assert list(pool.map(analyze_stack, stacks)) == serial


def test_stage_read_on_the_class_is_its_descriptor():
    # so that help(Analysis) lists each stage with its docstring
    stage = kernel.Analysis.sigma
    assert isinstance(stage, kernel._stage)
    assert stage.__doc__ == "Largest singular value of each matrix."
    assert "Largest singular value of each matrix." in pydoc.render_doc(kernel.Analysis)


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
        binding = report["canonical"]["binding_constraint"]
        if canon.family is not Family.TYPE_I or type1_constraints(canon.d, DEFAULT_TOL):
            assert binding is None
        else:
            assert binding == TYPE1_CONSTRAINT_FORMS[np.argmin(type1_margins(canon.d))]
        assert report["witness"]["present"] is (witness is not None)
        if witness is not None:
            assert report["witness"]["vector"] == _complex(witness)


def test_one_witness_expectation_per_stack(monkeypatch):
    # one stacked extended action and one stacked expectation serve every
    # witness row of the stack, with the values of each row alone; they are
    # the private cores, which take the arrays the analysis has coerced, and
    # the hermiticity rule runs only at the public boundary, never here
    calls = {"_extended_action": 0, "_expectation": 0, "_not_hermitian": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    mats = [_mixed(kind, seed) for seed in range(4) for kind in _KINDS[:6]]
    stack = np.stack(mats + [np.eye(4)])
    assert len(stack) == 25
    monkeypatch.setattr(cli, "_extended_action", counted("_extended_action", cli._extended_action))
    monkeypatch.setattr(cli, "_expectation", counted("_expectation", cli._expectation))
    rule = counted("_not_hermitian", core._not_hermitian)
    for module in vars(muellercert).values():
        if hasattr(module, "_not_hermitian"):
            monkeypatch.setattr(module, "_not_hermitian", rule)
    reports = analyze_stack(stack)
    assert calls == {"_extended_action": 1, "_expectation": 1, "_not_hermitian": 0}
    monkeypatch.undo()
    witnessed = 0
    for m, report in zip(stack, reports):
        vec = witness_certificate(m)
        if vec is None:
            assert report["witness"]["expectation"] is None
            continue
        witnessed += 1
        value = expectation(extended_action(m, witness_input()), vec)
        assert report["witness"]["expectation"] == value < 0.0
    assert witnessed >= 5


def test_reports_read_the_binding_constraint_off_the_analysis(monkeypatch):
    # the binding constraint is the kernel's Type-I rule on the canonical
    # stage's d, so the report path runs no public type1_margins (and no
    # second input boundary)
    calls = {"type1_margins": 0}

    def counted(*args):
        calls["type1_margins"] += 1
        return type1_margins(*args)

    monkeypatch.setattr(cli, "type1_margins", counted)
    stack = np.stack([np.diag([1.0, 0.5, 0.2, 0.1]), np.diag([1.0, 1.0, 1.0, -1.0]), np.eye(4)])
    reports = analyze_stack(stack)
    assert calls == {"type1_margins": 0}
    assert [report["canonical"]["binding_constraint"] for report in reports] == [
        None,
        "d1 + d2 - d3 <= d0",
        None,
    ]


# The schema writer.  render_report writes a report as analyze_stack builds
# it from the report's fixed schema (cli._report_text), alone or nested in
# batch's mapping, and any other value by json's own encoder; both must
# give the reference's bytes, or its TypeError.


def _schema_reports():
    """Reports of the golden inputs and seeded draws of every construction."""
    stack = np.stack(
        [np.array(case["m"]).reshape(4, 4) for case in GOLDEN]
        + [_mixed(kind, seed) for seed in range(4) for kind in _KINDS]
    )
    return analyze_stack(stack)


def _count_schema_writes(monkeypatch):
    """Count the documents that cli._report_text writes without falling through."""
    calls = []
    write = cli._report_text

    def counted(report, newline):
        text = write(report, newline)
        calls.append(newline)
        return text

    monkeypatch.setattr(cli, "_report_text", counted)
    return calls


def test_schema_writer_covers_every_report_branch(monkeypatch):
    reports = _schema_reports()
    assert {report["canonical"]["family"] for report in reports} == {f.value for f in Family}
    assert {len(report["ensemble"]) for report in reports} == {0, 1, 2, 3, 4}
    for section, field in [
        ("witness", "vector"),
        ("canonical", "d"),
        ("canonical", "binding_constraint"),
        ("mueller_jones", "jones"),
    ]:
        assert {report[section][field] is None for report in reports} == {True, False}
    calls = _count_schema_writes(monkeypatch)
    for report in reports:
        assert render_report(report) == reference_render_report(report)
    batch = {f"{k:02d}_m.txt": report for k, report in enumerate(reports)}
    batch["13_unreadable.txt"] = {"error": "expected 16 numbers, found 3"}
    batch["mesure_\u00e9t\u00e9_\u03bb.json"] = reports[0]
    assert render_report(batch) == reference_render_report(batch)
    assert calls == ["\n"] * len(reports) + ["\n  "] * (len(reports) + 1)


def _full_report() -> dict:
    """A report with every field set: a Mueller rank-one report (Jones matrix
    and a one-entry ensemble) with the canonical section and the witness of
    an unphysical Type I matrix."""
    report = analyze_matrix(mueller_from_jones(np.array([[1.0, 0.3j], [0.2, 0.8]])))
    unphysical = analyze_matrix(np.diag([1.0, 1.0, 1.0, -1.0]))
    report["canonical"], report["witness"] = unphysical["canonical"], unphysical["witness"]
    return report


def _edit(path, edit):
    """A mutation that applies ``edit(container, key)`` to the field at
    ``path`` (keys and indices)."""

    def mutate(report):
        container = report
        for key in path[:-1]:
            container = container[key]
        edit(container, path[-1])

    return mutate


def _set(path, value):
    return _edit(path, lambda container, key: container.__setitem__(key, value))


def _delete(*path):
    return _edit(path, lambda container, key: container.__delitem__(key))


def _retuple(*path):
    return _edit(path, lambda container, key: container.__setitem__(key, tuple(container[key])))


_FOREIGN = {
    "int_margin": _set(("pre_mueller", "intensity_margin"), 0),
    "int_in_echo": _set(("input_echo", 5), 1),
    "int_weight": _set(("ensemble", 0, "weight"), 1),
    "bool_eigenvalue": _set(("physicality", "eigenvalues", 0), True),
    "int64_rank": _set(("physicality", "rank"), np.int64(1)),
    "bool_rank": _set(("physicality", "rank"), True),
    "float64_min_eigenvalue": _set(("physicality", "min_eigenvalue"), np.float64(-0.25)),
    "float32_margin": _set(("pre_mueller", "lorentz_margin"), np.float32(0.5)),
    "none_min_eigenvalue": _set(("physicality", "min_eigenvalue"), None),
    "str_expectation": _set(("witness", "expectation"), "-1"),
    "int_family": _set(("canonical", "family"), 3),
    "int_verdict": _set(("physicality", "verdict"), 1),
    "bool_verdict_numpy": _set(("pre_mueller", "verdict"), np.bool_(True)),
    "tuple_echo": _retuple("input_echo"),
    "tuple_jones_row": _retuple("mueller_jones", "jones", "real", 0),
    "tuple_ensemble": _retuple("ensemble"),
    "array_d": _set(("canonical", "d"), np.array([1.0, 1.0, 1.0, -1.0])),
    "set_worst_input": _set(("pre_mueller", "worst_input"), {0.0, 1.0}),
    "empty_echo": _set(("input_echo",), []),
    "empty_jones_rows": _set(("mueller_jones", "jones", "imag"), [[], []]),
    "ragged_jones_rows": _set(("mueller_jones", "jones", "real"), [[1.0, 0.0], 0.5]),
    "list_in_float_list": _set(("witness", "vector", "real"), [1.0, [0.0], 0.0, 0.0]),
    "list_for_section": _set(("canonical",), [1.0]),
    "mapping_proxy_section": _edit(
        ("witness",), lambda report, key: report.__setitem__(key, MappingProxyType(report[key]))
    ),
    "extra_key": _set(("provenance",), "muellercert"),
    "extra_section_key": _set(("canonical", "note"), None),
    "extra_entry_key": _set(("ensemble", 0, "rank"), 1),
    "missing_key": _delete("ensemble"),
    "missing_section_key": _delete("witness", "vector"),
    "missing_jones_key": _delete("mueller_jones", "jones", "imag"),
    "renamed_key": lambda report: report["canonical"].update(D=report["canonical"].pop("d")),
    "misspelled_jones_key": lambda report: report["mueller_jones"]["jones"].update(
        reel=report["mueller_jones"]["jones"].pop("real")
    ),
    # shapes past the fixed 2x2 Jones parts and four-entry vector parts
    "three_entry_jones_row": _set(("mueller_jones", "jones", "real", 0), [1.0, 0.0, 0.5]),
    "three_jones_rows": _set(("mueller_jones", "jones", "imag"), [[0.0, 0.5]] * 3),
    "three_float_vector": _set(("witness", "vector", "real"), [1.0, 0.0, 0.0]),
    "five_float_vector": _set(("witness", "vector", "real"), [1.0, 0.0, 0.0, 0.0, 0.5]),
    # each complex slot takes either shape, both parts of one shape
    "vector_as_2x2_parts": _set(
        ("witness", "vector"),
        {"imag": [[0.0, 0.5], [-0.25, 0.0]], "real": [[1.0, 0.0], [0.0, 0.5]]},
    ),
    "jones_as_lists_of_four": _set(
        ("mueller_jones", "jones"), {"imag": [0.0, 0.5, -0.25, 0.0], "real": [1.0, 0.0, 0.0, 0.5]}
    ),
    "unequal_jones_parts": _set(("mueller_jones", "jones", "real"), [1.0, 0.0, 0.0, 0.5]),
    "unequal_vector_parts": _set(("witness", "vector", "imag"), [[0.0, 0.5], [-0.25, 0.0]]),
}
# The foreign values that the schema writer writes itself, as json does.
_SCHEMA_WRITES = {
    "bool_rank", "float64_min_eigenvalue", "none_min_eigenvalue", "int_family", "int_verdict",
    "vector_as_2x2_parts", "jones_as_lists_of_four",
}


@pytest.mark.parametrize("name", _FOREIGN)
def test_foreign_values_give_the_reference_bytes_or_its_error(name, monkeypatch):
    report = _full_report()
    _FOREIGN[name](report)
    batch = {"a.txt": report, "b.txt": {"error": "x"}, "c.txt": _full_report()}
    calls = _count_schema_writes(monkeypatch)
    for doc in (report, batch):
        try:
            expected = reference_render_report(doc)
        except TypeError:
            with pytest.raises(TypeError):
                render_report(doc)
        else:
            assert render_report(doc) == expected
    assert ("\n" in calls) is (name in _SCHEMA_WRITES)


def _float_slots(doc, out: list) -> list:
    """``(container, key)`` of every float in a document."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        if isinstance(value, float):
            out.append((doc, key))
        elif isinstance(value, (dict, list)):
            _float_slots(value, out)
    return out


_FLOAT_SLOTS = len(_float_slots(_full_report(), []))
_BIT_PATTERNS = st.integers(0, 2**64 - 1).map(
    lambda bits: np.array(bits, dtype=np.uint64).view(np.float64).item()
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_SPECIAL_FLOATS, _BIT_PATTERNS), min_size=_FLOAT_SLOTS,
                max_size=_FLOAT_SLOTS))
def test_schema_writer_on_every_float_slot(values):
    report = _full_report()
    for (container, key), value in zip(_float_slots(report, []), values):
        container[key] = value
    expected = reference_render_report(report)
    assert render_report(report) == expected
    assert cli._report_text(report, "\n") + "\n" == expected


def test_template_cache_is_bounded(monkeypatch):
    # more than twice as many report shapes as the cache keeps: input_echo
    # of every length from 1 to 600, and fields that are None on odd lengths
    maxsize = cli._template.cache_info().maxsize
    rng = np.random.default_rng(29)
    report = _full_report()
    calls = _count_schema_writes(monkeypatch)
    for length in range(1, 601):
        report["input_echo"] = rng.normal(size=length).tolist()
        odd = length % 2 == 1
        report["canonical"]["d"] = None if odd else [1.0, 0.5, 0.25, -0.125]
        report["witness"]["expectation"] = None if odd else -0.5
        assert render_report(report) == reference_render_report(report)
        assert cli._template.cache_info().currsize <= maxsize
    assert 600 >= 2 * maxsize
    assert calls == ["\n"] * 600


# The values a report's float slots are drawn from, and its scalar slots:
# a family string with a % in it too, which the template keeps as text.
_SLOT_FLOATS = st.one_of(st.floats(), _SPECIAL_FLOATS)
_SLOT_SCALARS = st.one_of(
    st.booleans(), st.integers(), st.none(), st.text(max_size=6),
    st.sampled_from(["Type%I", "100%", "%s", "%%d", "%(x)s"]),
)


@st.composite
def _report_shapes(draw) -> dict:
    """A report with every optional slot None or set, 0-4 ensemble entries,
    each complex slot a pair of 2x2 lists of lists or of lists of four, and
    float lists of 1-20 entries."""

    def optional(value):
        return None if draw(st.booleans()) else value

    def floats(size):
        return draw(st.lists(_SLOT_FLOATS, min_size=size, max_size=size))

    def array():
        return draw(st.lists(_SLOT_FLOATS, min_size=1, max_size=20))

    def complex_array():
        if draw(st.booleans()):
            return {"imag": [floats(2), floats(2)], "real": [floats(2), floats(2)]}
        return {"imag": floats(4), "real": floats(4)}

    def scalar():
        return draw(_SLOT_SCALARS)

    def number():
        return optional(draw(_SLOT_FLOATS))

    entries = draw(st.integers(0, 4))
    return {
        "canonical": {"binding_constraint": scalar(), "d": optional(array()), "family": scalar()},
        "ensemble": optional(
            [{"jones": complex_array(), "weight": draw(_SLOT_FLOATS)} for _ in range(entries)]
        ),
        "input_echo": optional(array()),
        "mueller_jones": {"jones": optional(complex_array()), "verdict": scalar()},
        "physicality": {
            "eigenvalues": optional(array()), "min_eigenvalue": number(),
            "rank": scalar(), "verdict": scalar(),
        },
        "pre_mueller": {
            "intensity_margin": number(), "lorentz_margin": number(),
            "verdict": scalar(), "worst_input": optional(array()),
        },
        "witness": {
            "expectation": number(), "present": scalar(), "vector": optional(complex_array()),
        },
    }


@settings(max_examples=300, deadline=None)
@given(_report_shapes())
def test_schema_writer_on_drawn_report_shapes(report):
    # the schema writer writes every drawn shape itself, alone and at
    # batch's indent, with the reference's bytes
    expected = reference_render_report(report)
    assert cli._report_text(report, "\n") + "\n" == expected
    assert render_report(report) == expected
    batch = {"a.txt": report, "b.txt": {"error": "x"}}
    assert render_report(batch) == reference_render_report(batch)
    assert cli._report_text(report, "\n  ") == "\n  ".join(expected[:-1].split("\n"))


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


# The input boundary, as a table: every public function that takes an array,
# with valid arguments and, per array argument, whether it must be real and
# whether it also takes a stack (an extra leading axis).  Each function
# coerces its arrays once, through the same helper, so every row rejects
# nan and inf with "non-finite", complex input for a real argument with
# "real", and a stack where it takes one array only with ValueError.
_M = np.diag([1.0, 0.6, 0.4, 0.2])  # physical Type I, distinct spectrum
_S = np.array([1.0, 0.0, 0.0, 1.0])
_D = np.array([2.0, 1.0, 1.0, 1.0])
_PHI = 0.5 * np.eye(2)
# (must be real, also takes a stack) of one array argument.
_REAL, _COMPLEX = (True, False), (False, False)
_REAL_STACK, _COMPLEX_STACK = (True, True), (False, True)
_BOUNDARY = [
    (analyze_matrix, [(_M, _REAL)]),
    (analyze_stack, [(_M, _REAL_STACK)]),
    (muellercert.certify_cone, [(_M, _REAL)]),
    (muellercert.classify, [(_M, _REAL)]),
    (muellercert.coherency_from_stokes, [(_S, _REAL)]),
    (muellercert.coherency_is_physical, [(_PHI, _COMPLEX)]),
    (muellercert.coherency_transfer, [(_M, _REAL_STACK)]),
    (muellercert.devectorize, [(_S, _COMPLEX)]),
    (muellercert.expectation, [(witness_input(), _COMPLEX_STACK), (_S, _COMPLEX_STACK)]),
    (muellercert.extended_action, [(_M, _REAL_STACK), (witness_input(), _COMPLEX_STACK)]),
    (muellercert.h_eigs_diagonal, [(_D, _REAL_STACK)]),
    (muellercert.h_from_m, [(_M, _REAL)]),
    (muellercert.jones_ensemble, [(_M, _REAL)]),
    (muellercert.m_from_h, [(h_from_m(_M), _COMPLEX)]),
    (muellercert.mueller_from_jones, [(np.eye(2), _COMPLEX)]),
    (muellercert.mueller_jones_test, [(_M, _REAL)]),
    (muellercert.n_matrix, [(_M, _REAL)]),
    (muellercert.physicality, [(_M, _REAL)]),
    (muellercert.sphere_quadratic_min, [(np.eye(3), _REAL), (np.ones(3), _REAL)]),
    (muellercert.stokes_from_coherency, [(_PHI, _COMPLEX)]),
    (muellercert.stokes_is_physical, [(_S, _REAL)]),
    (muellercert.stokes_is_pure, [(_S, _REAL)]),
    (muellercert.two_mode_is_physical, [(witness_input(), _COMPLEX)]),
    (muellercert.type1_constraints, [(_D, _REAL_STACK)]),
    (muellercert.type1_factor, [(_M, _REAL)]),
    (muellercert.type1_margins, [(_D, _REAL_STACK)]),
    (muellercert.type2_constraints, [(_D, _REAL)]),
    (muellercert.vectorize, [(np.eye(2), _COMPLEX)]),
    (muellercert.witness_certificate, [(_M, _REAL)]),
]
_BOUNDARY_IDS = [function.__name__ for function, _ in _BOUNDARY]


def _replaced(args, k, value):
    """The argument list with argument k replaced by ``value``."""
    return [value if j == k else arg for j, (arg, _) in enumerate(args)]


def test_boundary_table_covers_every_public_array_function():
    public = {
        name
        for name in muellercert.__all__
        if inspect.isfunction(getattr(muellercert, name))
        and inspect.signature(getattr(muellercert, name)).parameters
    }
    assert set(_BOUNDARY_IDS) == public | {"analyze_matrix", "analyze_stack"}


@pytest.mark.parametrize("function, args", _BOUNDARY, ids=_BOUNDARY_IDS)
def test_boundary_table_arguments_are_valid(function, args):
    function(*(arg for arg, _ in args))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("function, args", _BOUNDARY, ids=_BOUNDARY_IDS)
def test_non_finite_input_is_rejected(function, args, value):
    for k, (arg, (real, _)) in enumerate(args):
        bad = np.array(arg, dtype=float if real else complex)
        bad.flat[-1] = value
        with pytest.raises(ValueError, match="non-finite"):
            function(*_replaced(args, k, bad))


_REAL_ROWS = [row for row in _BOUNDARY if any(real for _, (real, _) in row[1])]


@pytest.mark.parametrize(
    "function, args", _REAL_ROWS, ids=[function.__name__ for function, _ in _REAL_ROWS]
)
def test_complex_input_is_rejected_where_real(function, args):
    for k, (arg, (real, _)) in enumerate(args):
        if real:
            with pytest.raises(ValueError, match="real"):
                function(*_replaced(args, k, arg + 1e-3j))


_SINGLE_ROWS = [row for row in _BOUNDARY if any(not stack for _, (_, stack) in row[1])]


@pytest.mark.parametrize(
    "function, args", _SINGLE_ROWS, ids=[function.__name__ for function, _ in _SINGLE_ROWS]
)
def test_stack_is_rejected_where_one_array_is_taken(function, args):
    for k, (arg, (_, stack)) in enumerate(args):
        if not stack:
            with pytest.raises(ValueError):
                function(*_replaced(args, k, np.stack([arg, arg])))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_row_rejects_the_stack(value):
    stack = np.stack([np.eye(4), np.eye(4)])
    stack[1, 0, 0] = value
    with pytest.raises(ValueError, match="non-finite"):
        analyze_stack(stack)


# Return types of the single-matrix views of the analysis, one row per
# branch: (view, input, the typed fields of its result).  An array field is
# given by its dtype and shape, every other field by its exact type, so
# that np.float64 (a float subclass) or a list in place of an array fails.
_FLIP = np.diag([1.0, 1.0, 1.0, -1.0])  # cone-preserving, not Mueller
_JONES = mueller_from_jones(np.array([[1.0, 0.2j], [0.1, 0.5]]))
_VIEW_TYPES = [
    (certify_cone, _M, lambda r: [
        (r.is_pre_mueller, bool), (r.intensity_margin, float), (r.lorentz_margin, float),
        (r.worst_input, (float, (3,))),
    ]),
    (certify_cone, np.zeros((4, 4)), lambda r: [(r.worst_input, (float, (3,)))]),
    (physicality, _M, lambda r: [
        (r.eigenvalues, (float, (4,))), (r.min_eigenvalue, float),
        (r.min_eigenvector, (complex, (4,))), (r.is_mueller, bool), (r.rank, int),
    ]),
    (jones_ensemble, _M, lambda r: [(r.items, tuple)] + [
        typed for weight, jones in r.items
        for typed in ((weight, float), (jones, (complex, (2, 2))))
    ]),
    (mueller_jones_test, _JONES, lambda r: [(r, (complex, (2, 2)))]),
    (mueller_jones_test, _M, lambda r: [(r, type(None))]),
    (witness_certificate, _FLIP, lambda r: [(r, (complex, (4,)))]),
    (witness_certificate, _M, lambda r: [(r, type(None))]),
    (classify, _M, lambda r: [
        (r.family, Family), (r.d, (float, (4,))), (r.l_left, (float, (4, 4))),
        (r.l_right, (float, (4, 4))), (r.diagnostics, type(None)),
    ]),
    (classify, type2_canonical(2.0, 1.0, 1.0, 1.0), lambda r: [
        (r.family, Family), (r.d, type(None)), (r.diagnostics, type(None)),
    ]),
    (classify, _FLIP @ np.diag([1.0, 1.0, 1.0, 2.0]), lambda r: [
        (r.family, Family), (r.d, type(None)), (r.diagnostics, str),
    ]),
]


@pytest.mark.parametrize(
    "view, m, fields", _VIEW_TYPES,
    ids=[f"{view.__name__}-{k}" for k, (view, _, _) in enumerate(_VIEW_TYPES)],
)
def test_views_keep_their_return_types(view, m, fields):
    for value, kind in fields(view(m)):
        if isinstance(kind, tuple):
            assert type(value) is np.ndarray
            assert (value.dtype, value.shape) == (np.dtype(kind[0]), kind[1])
        else:
            assert type(value) is kind
