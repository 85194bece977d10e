"""Command line interface: batch certification with structured reports.

Subcommands:

* ``analyze FILE``: full report for one matrix (JSON by default).
* ``batch DIR``: reports for every file in a directory, analyzed as one
  stack.
* ``tetra-scan``: Monte Carlo fractions of physical / cone-preserving
  matrices among diagonal forms diag(1, d1, d2, d3) sampled uniformly from
  the cube [-1, 1]^3.  The physical region is the inscribed tetrahedron
  with one third of the cube's volume.
* ``vanzyl``: canonical-parameter analysis of the published van Zyl radar
  system.

Input files hold 16 whitespace- or comma-separated reals in row-major
order (lines starting with ``#`` ignored), or a JSON object with a
``"mueller"`` key holding a 4x4 array.  Reports are deterministic: the same
input, flags, and seed produce byte-identical output.  Numbers are printed
with 12 significant digits.

A report costs about what its analysis costs.  :func:`load_matrix` reads a
file with one unbuffered binary read and one UTF-8 decode, and turns
``\\r\\n`` and a lone ``\\r`` into ``\\n`` only when the text holds a
``\\r``: the text that a text-mode read returns, without its wrapper.
:func:`analyze_stack` runs the spectral stages once over a stack, and the
witness expectation once over its non-Mueller rows (the private cores of
``extended_action`` and ``expectation``, on arrays already coerced), and
converts each stage array to Python lists once, one ``tolist`` per array,
which each report slices; :func:`analyze_matrix` is the stack of one.
:func:`render_report` is the only writer of report text, with the bytes of
``json.dumps(indent=2, sort_keys=True)`` on the rounded document.  The
structure of a report is written once, in :func:`_reports`, which builds
every dict in sorted key order, as ``json`` writes it; so do
:func:`tetra_scan` and :func:`vanzyl_case`.  Every document, and each
value of ``batch``'s mapping at its indent, is written in three steps: one
walk of the value collects its floats and its shape (each dict's keys,
each float list's length, each other list's length and each scalar's
text); a ``%`` template per shape and indent, which holds every key,
indent, bracket and scalar, is the first such value's text from
``json``'s encoder with ``%s`` for each float, kept in a dict of at most
64 entries (a value without floats is that text itself, and keeps none);
and one ``%`` fills it with the floats' text
(``format(x, ".12")`` with its rare tokens fixed up).  A value with no
template (keys out of sorted order or not strings, a tuple, a numpy
scalar, a non-float in a list that starts with a float) is written by
``json``'s own pure-Python encoder (the private
``json.encoder._make_iterencode`` that ``json.dumps`` runs under
``indent``) with the same float text, started at the value's indent.

``batch`` reads the files of DIR from one directory listing, symlinks
followed and subdirectories skipped, in name order; an ``OSError`` from
checking or listing DIR is one ``cannot read DIR`` error.  ``--tol`` and
``--verdict-exit`` belong to ``analyze`` and ``batch``, the commands with
verdicts.

Each command is a function of the parsed arguments that does no I/O and
returns its document, the writer of its summary and its exit code;
:func:`main` dispatches once and writes the report or the summary, or one
``error:`` line.

:func:`run`, the entry of ``python -m muellercert.cli`` and of the
``muellercert`` script, runs :func:`main` and, once the command is done,
however it ends, calls ``gc.freeze()``: the interpreter's teardown then
makes no collector pass over numpy's and the package's objects, and still
runs atexit handlers and flushes the streams.  :func:`main` does not
freeze, so tests and in-process callers can call it any number of times.

Exit codes: 0 success, 1 internal error, 2 parse/input failure (a bad
``--tol``, ``--tol`` on ``tetra-scan`` or ``vanzyl``, and a ``--samples``
count whose arrays numpy cannot allocate included), and an
input whose Lorentz margin, the unit margin times the square of the largest
singular value, is beyond the float range: from a largest singular value
between about 9.5e153 and 1.34e154 on, depending on the matrix.  The cone
stage raises ``FloatingPointError`` there, :func:`main` writes its text,
and ``batch`` then writes no document.  With
``--verdict-exit``: 0 Mueller, 3 pre-Mueller only, 4 not pre-Mueller
(:func:`verdict_exit_code`; ``batch`` exits with the worst tier of its
files).
"""

import argparse
import functools
import gc
import json
import math
import os
import sys
from itertools import repeat
from json.encoder import _make_iterencode, encode_basestring_ascii
from pathlib import Path

import numpy as np

from .canonical import h_eigs_diagonal, type1_constraints, type1_margins
from .core import DEFAULT_TOL, as_mueller_matrix, as_mueller_stack, as_tolerance
from .kernel import TYPE1_CONSTRAINT_FORMS, Analysis, worst_type1_constraint
from .witness import _WITNESS_INPUT, _expectation, _extended_action

#: Published canonical parameters of the van Zyl radar Mueller matrix.
VAN_ZYL_D = (0.9735, 0.9112, 0.4640, -0.3838)

_EXIT_PARSE = 2
_EXIT_MUELLER = 0
_EXIT_PRE_MUELLER_ONLY = 3
_EXIT_NOT_PRE_MUELLER = 4
# The summary's text of each verdict tier, keyed by its --verdict-exit code.
_TIER_TEXT = {
    _EXIT_MUELLER: "Mueller (physical)",
    _EXIT_PRE_MUELLER_ONLY: "pre-Mueller only (cone-preserving but unphysical)",
    _EXIT_NOT_PRE_MUELLER: "not pre-Mueller",
}


class ParseError(ValueError):
    """Raised when an input file cannot be read as a 4x4 real matrix."""


def parse_matrix_text(text: str) -> np.ndarray:
    """Parse matrix file content (plain 16-number or JSON object format).

    Raises ``ParseError`` unless the content holds 16 finite reals.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"invalid JSON input: {exc}") from exc
        if not isinstance(obj, dict) or "mueller" not in obj:
            raise ParseError('JSON input must be an object with a "mueller" key')
        try:
            mat = as_mueller_matrix(np.asarray(obj["mueller"], dtype=float))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f'bad "mueller" value: {exc}') from exc
        # A 4x4 array of scalars; numpy reads "1" and true as numbers too.
        if any(type(x) not in (int, float) for row in obj["mueller"] for x in row):
            raise ParseError('bad "mueller" value: entries must be JSON numbers')
    else:
        tokens: list[str] = []
        for line in text.splitlines():
            if line.lstrip().startswith("#"):
                continue
            tokens.extend(line.replace(",", " ").split())
        try:
            values = [float(tok) for tok in tokens]
        except ValueError as exc:
            raise ParseError(f"non-numeric token in input: {exc}") from exc
        if len(values) != 16:
            raise ParseError(f"expected 16 numbers, found {len(values)}")
        mat = np.array(values, dtype=float).reshape(4, 4)
        if not np.isfinite(mat).all():
            raise ParseError("non-finite entry in input (nan or inf)")
    return mat


def load_matrix(path) -> np.ndarray:
    """The matrix of a file: ``parse_matrix_text`` of the text that
    ``Path(path).read_text(encoding="utf-8")`` returns, from one binary read
    and one decode (``\\r\\n`` and a lone ``\\r`` read as ``\\n``, as text mode
    reads them).  ``path`` is a path: an int, which ``open`` would take as a
    file descriptor, is a TypeError as it is for ``Path``."""
    try:
        with open(os.fspath(path), "rb", buffering=0) as file:
            text = file.readall().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_matrix_text(text)


def analyze_matrix(m, tol: float = DEFAULT_TOL) -> dict:
    """Run every verdict on one matrix and assemble the report document."""
    return _reports(Analysis(as_mueller_matrix(m)[None], tol))[0]


def analyze_stack(mats, tol: float = DEFAULT_TOL) -> list[dict]:
    """Report documents for a stack of matrices, shape (N, 4, 4).

    Each spectral stage runs once over the whole stack, each stage array
    is converted to Python lists once (one ``tolist`` per array), and each
    report slices those lists; report i equals
    ``analyze_matrix(mats[i], tol)``.
    """
    return _reports(Analysis(as_mueller_stack(mats), tol))


def _reports(analysis: Analysis) -> list[dict]:
    """The report documents of every matrix of an analysis.  The canonical
    stage goes first: it reads the cone stage, which raises
    FloatingPointError where a Lorentz margin is beyond the float range,
    before any other stage sees the input."""
    canon, m = analysis.canonical, analysis.m
    cone_ok, intensity, lorentz, worst_input = analysis.cone
    w_rows, vecs, mueller_rows, rank_rows = analysis.hermitian

    # The stage fields are Python lists, except the input and the
    # eigenvectors: one tolist each, and each row below slices the lists.
    echo = m.reshape(-1, 16).tolist()
    vec_real, vec_imag = vecs.real.tolist(), vecs.imag.tolist()
    # One stacked witness expectation over the non-Mueller rows, which the
    # loop below reads in row order.
    expectations = iter(())
    if not all(mueller_rows):
        unphysical = [i for i, mueller in enumerate(mueller_rows) if not mueller]
        state = _extended_action(m[unphysical], _WITNESS_INPUT)
        expectations = iter(_expectation(state, vecs[unphysical, 0]).tolist())
    reports = []
    for i, d in enumerate(canon.d):
        # The H stage's verdicts, as choi.physicality, mueller_jones_test,
        # jones_ensemble and witness_certificate read them.
        w_i, mueller, rank = w_rows[i], mueller_rows[i], rank_rows[i]
        eigenvalues = w_i[::-1]
        real, imag = vec_real[i], vec_imag[i]
        jones = None
        if mueller and rank == 1:
            root = math.sqrt(w_i[3])
            jones = _jones_obj([root * x for x in real[3]], [root * x for x in imag[3]])
        ensemble = []
        if mueller:
            ensemble = [
                {"jones": _jones_obj(real[k], imag[k]), "weight": w_i[k]}
                for k in range(3, 3 - rank, -1)
            ]
        witness = {"expectation": None, "present": False, "vector": None}
        if not mueller:
            witness = {
                "expectation": next(expectations),
                "present": True,
                "vector": {"imag": imag[0], "real": real[0]},
            }
        # Every dict in sorted key order, as json writes it, so that each
        # report has a template.
        reports.append({
            "canonical": {
                "binding_constraint": canon.binding[i],
                "d": d,
                "family": canon.family[i].value,
            },
            "ensemble": ensemble,
            "input_echo": echo[i],
            "mueller_jones": {"jones": jones, "verdict": jones is not None},
            "physicality": {
                "eigenvalues": eigenvalues,
                "min_eigenvalue": w_i[0],
                "rank": rank,
                "verdict": mueller,
            },
            "pre_mueller": {
                "intensity_margin": intensity[i],
                "lorentz_margin": lorentz[i],
                "verdict": cone_ok[i],
                "worst_input": worst_input[i],
            },
            "witness": witness,
        })
    return reports


def _jones_obj(real: list, imag: list) -> dict:
    """Report entry of a Jones matrix from its row-major vectorization."""
    return {"imag": [imag[:2], imag[2:]], "real": [real[:2], real[2:]]}


def tetra_scan(samples: int, seed: int) -> dict:
    """Monte Carlo fractions over diag(1, d1, d2, d3), d uniform in the cube.

    Uses numpy's seeded default generator (PCG64), so fractions are
    reproducible bit for bit per seed.

    Known defect (ROADMAP item 6): ``fraction_pre_mueller`` is 1 by
    construction.  Every sample is drawn inside the cube, so ``in_cube`` is
    always true and the fraction tests nothing; it should come from the
    kernel's cone verdict on the sampled stack.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    d = np.empty((samples, 4))
    d[:, 0] = 1.0
    d[:, 1:] = rng.uniform(-1.0, 1.0, size=(samples, 3))
    mueller = type1_constraints(d)
    in_cube = np.all(np.abs(d[:, 1:]) <= 1.0, axis=1)
    # In sorted key order, as json writes it, so that it has a template.
    return {
        "fraction_mueller": float(np.mean(mueller)),
        "fraction_pre_mueller": float(np.mean(in_cube)),
        "samples": int(samples),
        "seed": int(seed),
    }


def vanzyl_case() -> dict:
    """Closed-form analysis of the published van Zyl canonical parameters.

    Only the diagonal-form spectrum can be computed from the parameters:
    eigenvalue spectra are not invariant under the double-coset factors, so
    the measured matrix's own spectrum is not recoverable from d alone.
    """
    d = np.array(VAN_ZYL_D)
    margins = type1_margins(d)
    worst, violated = worst_type1_constraint(d, 0.0)
    eigs = h_eigs_diagonal(d)
    # In sorted key order, as json writes it, so that it has a template.
    return {
        "binding_constraint": TYPE1_CONSTRAINT_FORMS[worst],
        "constraint_margins": margins.tolist(),
        "d": d.tolist(),
        "diagonal_h_spectrum": eigs.tolist(),
        "negative_count": int(np.count_nonzero(eigs < 0.0)),
        "note": (
            "spectrum shown is for the diagonal canonical form only; the "
            "measured matrix's eigenvalues are not recoverable from d "
            "because spectra are not double-coset invariants"
        ),
        "physical": not violated,
        "violation": float(-margins[worst]),
    }


# ``repr`` texts that a report spells otherwise: the non-finite ones as
# ``json`` writes them, and -0.0 as 0.0.
_FLOAT_TEXT = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN", "-0.0": "0.0"}


def _float_text(x: float, _format=float.__format__) -> str:
    """``repr(float('%.12g' % x))``, as ``json`` writes it (-0.0 as 0.0).

    ``x`` must be a float (a subclass such as ``np.float64`` counts):
    ``float.__format__``, which writes the same text as ``%.12g``, raises
    TypeError for an int, a bool or any other type, and that is the type
    check of every float that :func:`_json` writes (:func:`_float_texts`,
    the template writer's float writer, has the same check)."""
    text = repr(float(_format(x, ".12g")))
    return _FLOAT_TEXT.get(text, text)


# json's error for a value that it cannot write.
_DEFAULT = json.JSONEncoder().default


def _json(obj, level: int, float_text=_float_text) -> str:
    """JSON text of ``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)``
    writes it, with every float (a float dict key too) written by
    ``float_text`` and the lines indented from indent ``level``:
    ``json``'s own pure-Python encoder, the one ``dumps`` runs under
    ``indent``, with its errors (TypeError for a value that it cannot
    write, ValueError for a document that holds itself)."""
    # markers, default, string writer, indent, float writer, separators,
    # sort_keys, skipkeys, one_shot: what json.dumps(indent=2) passes, but
    # the float writer
    encode = _make_iterencode(
        {}, _DEFAULT, encode_basestring_ascii, "  ", float_text, ": ", ",", True, False, True
    )
    return "".join(encode(obj, level))


def _walk(values, shape: list, floats: list) -> None:
    """Add the shape of each of ``values`` to ``shape``, and its floats to
    ``floats`` in the order ``json`` writes them once every dict's keys are
    sorted.  A dict adds the tuple of its keys, in insertion order, and its
    values; a list whose first item is a float adds its length, and all its
    items are floats (:func:`_float_texts` checks them); any other list
    adds minus its length, and its items; a float adds None, and None, a
    bool, an int or a str its JSON text.  So two values with string keys
    that ``json`` writes with different text outside their floats never
    have the same shape.  TypeError for any other value."""
    for value in values:
        kind = type(value)
        if kind is float:
            shape.append(None)
            floats.append(value)
        elif kind is dict:
            shape.append(tuple(value))
            _walk(value.values(), shape, floats)
        elif kind is list:
            if value and type(value[0]) is float:
                shape.append(len(value))
                floats += value
            else:
                shape.append(-len(value))
                _walk(value, shape, floats)
        elif value is None:
            shape.append("null")
        elif kind is bool:
            shape.append("true" if value else "false")
        elif kind is int:
            shape.append(int.__repr__(value))
        elif kind is str:
            shape.append(encode_basestring_ascii(value))
        else:
            raise TypeError(f"no template for a {kind.__name__}")


def _float_texts(floats: list) -> list:
    """:func:`_float_text` of each float, and its TypeError for any other
    value.  ``format(x, ".12")`` writes the ``%.12g`` digits with ``.0``
    after an integer, the text of :func:`_float_text` for all but -0.0,
    inf and nan, and the exponents from e+11 (where ``.12`` turns to
    exponent notation) and from e-300 on: -0.0 is then written as 0.0, and
    a list with any of the others (an ``n``, ``e+1`` or ``e-3`` in its
    text) by :func:`_float_text`."""
    texts = list(map(float.__format__, floats, repeat(".12")))
    joined = ",".join(texts) + ","
    if "n" in joined or "e+1" in joined or "e-3" in joined:
        return list(map(_float_text, floats))
    if "-0.0," in joined:
        return ["0.0" if text == "-0.0" else text for text in texts]
    return texts


# The templates, keyed by shape and indent level.  Bounded: a shape holds
# its scalars' text, and the measured corpus has about ten report shapes.
_TEMPLATES: dict = {}
_TEMPLATE_LIMIT = 64


def _text(obj, level: int) -> str:
    """``obj`` at indent ``level``, as :func:`_json` writes it: one walk
    collects its shape and its floats, and the template of that shape and
    level is filled with the floats' text in one ``%``.  The floats' text
    is the type check, so it comes before the template is looked up or
    built.  A template is the first such value's text from :func:`_json`
    with ``%s`` for each float (json escapes a NUL in a string, so only the
    float writer writes one), kept in ``_TEMPLATES``, which is emptied when
    it holds ``_TEMPLATE_LIMIT``.  It is kept only when it holds one NUL per
    float and every dict lists string keys in sorted order: ``json`` writes
    keys sorted, and keys of other types can be equal where ``json`` writes
    them apart (``1 == 1.0 == True``).  A value without floats (``batch``'s
    ``{"error": ...}`` entries) is written by the builder, after the same
    checks, and takes no template.  A value with no template, and one that
    the walk rejects or that nests too deep for it, is written by
    :func:`_json` itself."""
    floats, shape = [], []
    try:
        _walk((obj,), shape, floats)
        texts = tuple(_float_texts(floats))
        key = (tuple(shape), level)
        template = _TEMPLATES.get(key)
        if template is None:
            text = _json(obj, level, lambda x: "\0")
            if text.count("\0") != len(floats) or any(
                type(part) is tuple
                and (any(type(k) is not str for k in part) or list(part) != sorted(part))
                for part in shape
            ):
                raise TypeError("no template: a float key, or keys not strings in sorted order")
            if not floats:
                return text
            if len(_TEMPLATES) >= _TEMPLATE_LIMIT:
                _TEMPLATES.clear()
            template = _TEMPLATES[key] = text.replace("%", "%%").replace("\0", "%s")
    except (TypeError, RecursionError):
        return _json(obj, level)
    return template % texts


def render_report(report: dict) -> str:
    """JSON text of a report, or of any other document: the bytes that
    ``json.dumps(document, indent=2, sort_keys=True)`` writes, with every
    float at 12 significant digits (-0.0 as 0.0), or the same error.  A
    float dict key is a float too: ``{0.1234567890123456: 1}`` has the key
    ``"0.123456789012"``, and a -0.0 key is ``"0.0"`` (no command writes a
    float key).

    A non-empty dict with string keys whose values are all dicts (``batch``'s
    file-name-to-report mapping) is written one value at a time, at indent
    level 1; any other document is written whole.  Each value is written
    from the template of its shape and indent, text that ``json``'s encoder
    wrote for the first value of that shape, filled with its floats' text
    in one ``%``.  What has no template (a float or int dict key, keys out
    of sorted order, a tuple, a numpy scalar, a document nested deeper than
    the walk goes) is written by ``json``'s own pure-Python encoder,
    ``json.encoder._make_iterencode`` (a private function of the standard
    library), with :func:`_float_text` as its float writer: it nests as
    deep as ``json.dumps`` does, and a document that holds itself raises
    its ``ValueError`` ("Circular reference detected")."""
    if (
        isinstance(report, dict) and report
        and all(isinstance(key, str) and isinstance(value, dict) for key, value in report.items())
    ):
        texts = [encode_basestring_ascii(key) + ": " + _text(value, 1)
                 for key, value in sorted(report.items())]
        return "{\n  " + ",\n  ".join(texts) + "\n}\n"
    return _text(report, 0) + "\n"


def summarize_report(report: dict) -> str:
    """Short human-readable digest of an analyze report."""
    pre = report["pre_mueller"]
    phys = report["physicality"]
    lines = [
        f"verdict: {_TIER_TEXT[verdict_exit_code(report)]}",
        f"cone margins: intensity {pre['intensity_margin']:.6g}, "
        f"lorentz {pre['lorentz_margin']:.6g}",
        f"hermitian spectrum: "
        + ", ".join(f"{x:.6g}" for x in phys["eigenvalues"])
        + f" (rank {phys['rank']})",
        f"canonical family: {report['canonical']['family']}",
    ]
    if report["canonical"]["d"] is not None:
        lines.append(
            "canonical d: " + ", ".join(f"{x:.6g}" for x in report["canonical"]["d"])
        )
    if report["canonical"]["binding_constraint"]:
        lines.append(f"violated constraint: {report['canonical']['binding_constraint']}")
    if report["mueller_jones"]["verdict"]:
        lines.append("single Jones system: yes")
    if report["ensemble"]:
        lines.append(f"ensemble size: {len(report['ensemble'])}")
    if report["witness"]["present"]:
        lines.append(
            f"witness expectation: {report['witness']['expectation']:.6g}"
        )
    return "\n".join(lines) + "\n"


def summarize_batch(results: dict) -> str:
    """Digest of a batch document: each file's summary or error under its
    name."""
    return "".join(
        f"== {name}\n"
        + (f"error: {report['error']}\n" if "error" in report else summarize_report(report))
        for name, report in results.items()
    )


def summarize_tetra_scan(result: dict) -> str:
    """One-line digest of a tetra-scan document."""
    return (
        f"samples {result['samples']} seed {result['seed']}: "
        f"mueller fraction {result['fraction_mueller']:.6g}, "
        f"pre-mueller fraction {result['fraction_pre_mueller']:.6g}\n"
    )


def summarize_vanzyl(result: dict) -> str:
    """Digest of the van Zyl document."""
    d, spectrum = (", ".join(f"{x:.6g}" for x in result[k]) for k in ("d", "diagonal_h_spectrum"))
    return (
        f"van Zyl canonical parameters: {d}\nphysical: {result['physical']}\n"
        f"violated constraint: {result['binding_constraint']} (by {result['violation']:.6g})\n"
        f"diagonal-form spectrum: {spectrum}\nnote: {result['note']}\n"
    )


def verdict_exit_code(report: dict) -> int:
    """The verdict tier of a report: 0 Mueller, 3 pre-Mueller only, 4 not
    pre-Mueller."""
    if report["physicality"]["verdict"]:
        return _EXIT_MUELLER
    if report["pre_mueller"]["verdict"]:
        return _EXIT_PRE_MUELLER_ONLY
    return _EXIT_NOT_PRE_MUELLER


def _tolerance(text: str) -> float:
    """Type of ``--tol``: a finite nonnegative number, else a usage error."""
    try:
        return as_tolerance(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    # --tol and --verdict-exit only where a verdict reads it: analyze and batch.
    verdicts = argparse.ArgumentParser(add_help=False)
    verdicts.add_argument(
        "--tol", type=_tolerance, default=DEFAULT_TOL,
        help="relative verdict tolerance (at or below 1e-16, 0 too: N's rounding sets the family)",
    )
    verdicts.add_argument(
        "--verdict-exit",
        action="store_true",
        help="exit 0 = Mueller, 3 = pre-Mueller only, 4 = not pre-Mueller "
        "(batch: the worst tier across files)",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("report", "summary"),
        default="report",
        help="structured JSON report or human-readable summary",
    )
    parser = argparse.ArgumentParser(
        prog="muellercert",
        description="Certify and decompose 4x4 polarization transfer matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", parents=[verdicts, common], help="analyze one matrix file"
    )
    p_analyze.add_argument("file")

    p_batch = sub.add_parser(
        "batch", parents=[verdicts, common], help="analyze every file in a directory"
    )
    p_batch.add_argument("dir")

    p_scan = sub.add_parser(
        "tetra-scan",
        parents=[common],
        help="Monte Carlo volume fractions for diagonal forms in the unit cube",
    )
    p_scan.add_argument("--samples", type=int, default=100_000)
    p_scan.add_argument("--seed", type=int, default=0)

    sub.add_parser(
        "vanzyl", parents=[common], help="analyze the van Zyl canonical parameters"
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on first use and then kept."""
    return build_parser()


def _analyze(args) -> tuple:
    report = analyze_matrix(load_matrix(args.file), args.tol)
    return report, summarize_report, verdict_exit_code(report) if args.verdict_exit else 0


def _batch(args) -> tuple:
    directory = Path(args.dir)
    try:
        if not directory.is_dir():
            raise ParseError(f"not a directory: {directory}")
        # One listing; DirEntry.is_file follows symlinks, as Path.is_file does.
        with os.scandir(directory) as listing:
            files = sorted((entry.name, entry.path) for entry in listing if entry.is_file())
    except OSError as exc:
        raise ParseError(f"cannot read {directory}: {exc}") from exc
    results: dict[str, dict | None] = {}
    names, mats = [], []
    for name, path in files:
        try:
            mats.append(load_matrix(path))
        except ParseError as exc:
            results[name] = {"error": str(exc)}
            continue
        names.append(name)
        results[name] = None  # keeps the sorted order
    worst = 0
    if mats:
        for name, report in zip(names, analyze_stack(np.stack(mats), args.tol)):
            results[name] = report
            worst = max(worst, verdict_exit_code(report))
    if len(names) < len(results):
        return results, summarize_batch, _EXIT_PARSE
    return results, summarize_batch, worst if args.verdict_exit else 0


def _tetra_scan(args) -> tuple:
    # A count whose arrays numpy cannot allocate is a usage error too.
    try:
        return tetra_scan(args.samples, args.seed), summarize_tetra_scan, 0
    except (ValueError, MemoryError) as exc:
        raise ParseError(str(exc)) from exc


# Each command maps the parsed arguments to its document, its summary writer
# and its exit code, and does no I/O.
_COMMANDS = {
    "analyze": _analyze,
    "batch": _batch,
    "tetra-scan": _tetra_scan,
    "vanzyl": lambda args: (vanzyl_case(), summarize_vanzyl, 0),
}


def main(argv=None, out=None, err=None) -> int:
    """Run one command: its document goes to ``out`` as a report or its
    summary, and a ParseError, or an analysis that overflows, to ``err`` as
    one ``error:`` line with the error's text and exit code 2."""
    args = _parser().parse_args(argv)
    try:
        document, summarize, code = _COMMANDS[args.command](args)
    except (ParseError, FloatingPointError) as exc:
        (sys.stderr if err is None else err).write(f"error: {exc}\n")
        return _EXIT_PARSE
    text = render_report(document) if args.format == "report" else summarize(document)
    (sys.stdout if out is None else out).write(text)
    return code


def run() -> None:
    """Entry of ``python -m muellercert.cli`` and of the ``muellercert``
    script: :func:`main` on the process's arguments, then exit with its
    code.  Once the command is done, whatever way it ends, ``gc.freeze()``
    moves every object to the collector's permanent generation, so the
    interpreter's teardown still runs atexit handlers, flushes the streams
    and clears every module, but makes no collector pass over numpy's and
    the package's objects, whose memory the process returns as it exits."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
