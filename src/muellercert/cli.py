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

A report costs about what its analysis costs.  :func:`analyze_stack` runs
the spectral stages once over a stack and converts each stage array to
Python lists once, one ``tolist`` per array, which each report slices;
:func:`analyze_matrix` is the stack of one.  :func:`render_report` is the
only writer of report text: one recursive walk rounds and writes, with
the bytes of ``json.dumps(indent=2, sort_keys=True)`` on the rounded
document, whose pure-Python indent encoder it replaces.

Exit codes: 0 success, 1 internal error, 2 parse/input failure.  With
``--verdict-exit``: 0 Mueller, 3 pre-Mueller only, 4 not pre-Mueller.
"""

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .canonical import (
    TYPE1_CONSTRAINT_FORMS,
    Family,
    h_eigs_diagonal,
    type1_constraints,
    type1_margins,
)
from .core import DEFAULT_TOL, as_mueller_matrix
from .kernel import Analysis
from .witness import expectation, extended_action, witness_input

#: Published canonical parameters of the van Zyl radar Mueller matrix.
VAN_ZYL_D = (0.9735, 0.9112, 0.4640, -0.3838)

_EXIT_PARSE = 2
_EXIT_MUELLER = 0
_EXIT_PRE_MUELLER_ONLY = 3
_EXIT_NOT_PRE_MUELLER = 4


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
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON input: {exc}") from exc
        if not isinstance(obj, dict) or "mueller" not in obj:
            raise ParseError('JSON input must be an object with a "mueller" key')
        try:
            mat = as_mueller_matrix(np.asarray(obj["mueller"], dtype=float))
        except (TypeError, ValueError) as exc:
            raise ParseError(f'bad "mueller" value: {exc}') from exc
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
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_matrix_text(text)


def analyze_matrix(m, tol: float = DEFAULT_TOL) -> dict:
    """Run every verdict on one matrix and assemble the report document."""
    return analyze_stack(as_mueller_matrix(m)[None], tol)[0]


def analyze_stack(mats, tol: float = DEFAULT_TOL) -> list[dict]:
    """Report documents for a stack of matrices, shape (N, 4, 4).

    Each spectral stage runs once over the whole stack, each stage array
    is converted to Python lists once (one ``tolist`` per array), and each
    report slices those lists; report i equals
    ``analyze_matrix(mats[i], tol)``.
    """
    analysis = Analysis(mats, tol)
    m, (w, vecs, thresh) = analysis.m, analysis.hermitian
    canonical = analysis.canonical
    binding: list = [None] * len(m)
    type_one = [
        i for i, canon in enumerate(canonical)
        if canon.d is not None and canon.family is Family.TYPE_I
    ]
    if type_one:
        # A constraint binds when its margin is below -tol relative to d0:
        # a single Jones system has d proportional to (1, 1, 1, 1), with
        # three margins zero up to rounding.
        d = np.array([canonical[i].d for i in type_one])
        margins = type1_margins(d)
        worst = np.argmin(margins, axis=1)
        violated = margins[np.arange(len(type_one)), worst] < -tol * d[:, 0]
        for i, k, bad in zip(type_one, worst.tolist(), violated.tolist()):
            if bad:
                binding[i] = TYPE1_CONSTRAINT_FORMS[k]

    # One tolist per stage array; each row below slices the Python lists.
    echo = m.reshape(-1, 16).tolist()
    cone_ok, intensity, lorentz, worst_input = (field.tolist() for field in analysis.cone)
    w_rows, thresh_rows = w.tolist(), thresh.tolist()
    vec_real, vec_imag = vecs.real.tolist(), vecs.imag.tolist()
    entangled = None
    reports = []
    for i, canon in enumerate(canonical):
        w_i, t = w_rows[i], thresh_rows[i]
        # The physicality verdicts of choi.physicality, mueller_jones_test
        # and jones_ensemble, read off the same eigenvalues.
        eigenvalues = w_i[::-1]
        rank = sum(x > t for x in eigenvalues)
        mueller = w_i[0] >= -t
        real, imag = vec_real[i], vec_imag[i]
        jones = None
        if mueller and rank == 1:
            root = math.sqrt(w_i[3])
            jones = _jones_obj([root * x for x in real[3]], [root * x for x in imag[3]])
        ensemble = []
        if mueller:
            ensemble = [
                {"weight": x, "jones": _jones_obj(real[k], imag[k])}
                for k, x in zip(range(3, -1, -1), eigenvalues)
                if x > t
            ]
        witness = {"present": False, "vector": None, "expectation": None}
        if w_i[0] < -t:
            if entangled is None:
                entangled = witness_input()
            value = expectation(extended_action(m[i], entangled), vecs[i, 0], tol)
            witness = {
                "present": True,
                "vector": {"real": real[0], "imag": imag[0]},
                "expectation": value,
            }
        reports.append({
            "input_echo": echo[i],
            "pre_mueller": {
                "verdict": cone_ok[i],
                "intensity_margin": intensity[i],
                "lorentz_margin": lorentz[i],
                "worst_input": worst_input[i],
            },
            "physicality": {
                "eigenvalues": eigenvalues,
                "min_eigenvalue": w_i[0],
                "verdict": mueller,
                "rank": rank,
            },
            "mueller_jones": {"verdict": jones is not None, "jones": jones},
            "ensemble": ensemble,
            "canonical": {
                "family": canon.family.value,
                "d": None if canon.d is None else canon.d.tolist(),
                "binding_constraint": binding[i],
            },
            "witness": witness,
        })
    return reports


def _jones_obj(real: list, imag: list) -> dict:
    """Report entry of a Jones matrix from its row-major vectorization."""
    return {"real": [real[:2], real[2:]], "imag": [imag[:2], imag[2:]]}


def tetra_scan(samples: int, seed: int) -> dict:
    """Monte Carlo fractions over diag(1, d1, d2, d3), d uniform in the cube.

    Uses numpy's seeded default generator (PCG64), so fractions are
    reproducible bit for bit per seed.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    d = np.empty((samples, 4))
    d[:, 0] = 1.0
    d[:, 1:] = rng.uniform(-1.0, 1.0, size=(samples, 3))
    mueller = type1_constraints(d)
    in_cube = np.all(np.abs(d[:, 1:]) <= 1.0, axis=1)
    return {
        "samples": int(samples),
        "seed": int(seed),
        "fraction_mueller": float(np.mean(mueller)),
        "fraction_pre_mueller": float(np.mean(in_cube)),
    }


def vanzyl_case() -> dict:
    """Closed-form analysis of the published van Zyl canonical parameters.

    Only the diagonal-form spectrum can be computed from the parameters:
    eigenvalue spectra are not invariant under the double-coset factors, so
    the measured matrix's own spectrum is not recoverable from d alone.
    """
    d = np.array(VAN_ZYL_D)
    margins = type1_margins(d)
    worst = int(np.argmin(margins))
    eigs = h_eigs_diagonal(d)
    return {
        "d": d.tolist(),
        "physical": type1_constraints(d),
        "constraint_margins": margins.tolist(),
        "binding_constraint": TYPE1_CONSTRAINT_FORMS[worst],
        "violation": float(-margins[worst]),
        "diagonal_h_spectrum": eigs.tolist(),
        "negative_count": int(np.count_nonzero(eigs < 0.0)),
        "note": (
            "spectrum shown is for the diagonal canonical form only; the "
            "measured matrix's eigenvalues are not recoverable from d "
            "because spectra are not double-coset invariants"
        ),
    }


# Rounded floats that ``repr`` spells otherwise in a report: the non-finite
# ones as ``json`` writes them, and -0.0 as 0.0.
_FLOAT_TEXT = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN", "-0.0": "0.0"}


def _json(obj, newline: str) -> str:
    """JSON text of ``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)``
    writes it, with every float first rounded to 12 significant digits.
    ``newline`` starts the line that ``obj`` is on, with its indent."""
    if isinstance(obj, float):
        text = repr(float("%.12g" % obj))
        return _FLOAT_TEXT.get(text, text)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ("," + inner).join([_json(item, inner) for item in obj])
        return "[" + inner + body + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ("," + inner).join(
            [
                f"{encode_basestring_ascii(key)}: {_json(val, inner)}"
                for key, val in sorted(obj.items())
            ]
        )
        return "{" + inner + body + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def render_report(report: dict) -> str:
    """JSON text of a report, or of ``batch``'s file-name-to-report mapping:
    every float at 12 significant digits (-0.0 as 0.0), keys sorted,
    indent 2, ASCII only, the bytes that ``json.dumps(..., indent=2,
    sort_keys=True)`` writes for the rounded document.  Keys must be
    strings."""
    return _json(report, "\n") + "\n"


def summarize_report(report: dict) -> str:
    """Short human-readable digest of an analyze report."""
    pre = report["pre_mueller"]
    phys = report["physicality"]
    if phys["verdict"]:
        tier = "Mueller (physical)"
    elif pre["verdict"]:
        tier = "pre-Mueller only (cone-preserving but unphysical)"
    else:
        tier = "not pre-Mueller"
    lines = [
        f"verdict: {tier}",
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


def verdict_exit_code(report: dict) -> int:
    if report["physicality"]["verdict"]:
        return _EXIT_MUELLER
    if report["pre_mueller"]["verdict"]:
        return _EXIT_PRE_MUELLER_ONLY
    return _EXIT_NOT_PRE_MUELLER


def _emit(report: dict, fmt: str, out) -> None:
    out.write(render_report(report) if fmt == "report" else summarize_report(report))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol", type=float, default=DEFAULT_TOL, help="relative verdict tolerance"
    )
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
        "analyze", parents=[common], help="analyze one matrix file"
    )
    p_analyze.add_argument("file")
    p_analyze.add_argument(
        "--verdict-exit",
        action="store_true",
        help="exit 0 = Mueller, 3 = pre-Mueller only, 4 = not pre-Mueller",
    )

    p_batch = sub.add_parser(
        "batch", parents=[common], help="analyze every file in a directory"
    )
    p_batch.add_argument("dir")
    p_batch.add_argument(
        "--verdict-exit",
        action="store_true",
        help="exit with the worst verdict tier across files",
    )

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


def main(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    args = _parser().parse_args(argv)

    if args.command == "analyze":
        try:
            mat = load_matrix(args.file)
        except ParseError as exc:
            err.write(f"error: {exc}\n")
            return _EXIT_PARSE
        report = analyze_matrix(mat, args.tol)
        _emit(report, args.format, out)
        return verdict_exit_code(report) if args.verdict_exit else 0

    if args.command == "batch":
        directory = Path(args.dir)
        if not directory.is_dir():
            err.write(f"error: not a directory: {directory}\n")
            return _EXIT_PARSE
        results: dict[str, dict | None] = {}
        names, mats = [], []
        for path in sorted(p for p in directory.iterdir() if p.is_file()):
            try:
                mats.append(load_matrix(path))
            except ParseError as exc:
                results[path.name] = {"error": str(exc)}
                continue
            names.append(path.name)
            results[path.name] = None  # keeps the sorted order
        failed = len(names) < len(results)
        worst = 0
        if mats:
            for name, report in zip(names, analyze_stack(np.stack(mats), args.tol)):
                results[name] = report
                worst = max(worst, verdict_exit_code(report))
        if args.format == "report":
            out.write(render_report(results))
        else:
            for name, report in results.items():
                out.write(f"== {name}\n")
                if "error" in report:
                    out.write(f"error: {report['error']}\n")
                else:
                    out.write(summarize_report(report))
        if failed:
            return _EXIT_PARSE
        return worst if args.verdict_exit else 0

    if args.command == "tetra-scan":
        try:
            result = tetra_scan(args.samples, args.seed)
        except ValueError as exc:
            err.write(f"error: {exc}\n")
            return _EXIT_PARSE
        if args.format == "report":
            out.write(render_report(result))
        else:
            out.write(
                f"samples {result['samples']} seed {result['seed']}: "
                f"mueller fraction {result['fraction_mueller']:.6g}, "
                f"pre-mueller fraction {result['fraction_pre_mueller']:.6g}\n"
            )
        return 0

    result = vanzyl_case()
    if args.format == "report":
        out.write(render_report(result))
    else:
        out.write(
            "van Zyl canonical parameters: "
            + ", ".join(f"{x:.6g}" for x in result["d"])
            + "\n"
            + f"physical: {result['physical']}\n"
            + f"violated constraint: {result['binding_constraint']} "
            + f"(by {result['violation']:.6g})\n"
            + "diagonal-form spectrum: "
            + ", ".join(f"{x:.6g}" for x in result["diagonal_h_spectrum"])
            + "\n"
            + f"note: {result['note']}\n"
        )
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
