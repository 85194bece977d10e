import gc
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import muellercert
from muellercert import mueller_from_jones
from muellercert.cli import (
    ParseError,
    analyze_matrix,
    build_parser,
    load_matrix,
    main,
    parse_matrix_text,
    render_report,
    tetra_scan,
    vanzyl_case,
)

from helpers import boost_jones, random_lorentz, rotation_jones


_OVERFLOW_TEXT = "analysis overflows: Lorentz margin beyond the float range"
# m30 = m33 = 2**511, every other entry 0, row-major: sigma**2 = 2**1023 is
# finite, and the Lorentz margin, -2 sigma**2, is not.
_BEYOND_RANGE = [0.0] * 12 + [2.0**511, 0.0, 0.0, 2.0**511]


def write_matrix(tmp_path, name, m):
    path = tmp_path / name
    path.write_text("\n".join(" ".join(str(x) for x in row) for row in m) + "\n")
    return path


class TestParsing:
    def test_plain_sixteen_numbers(self):
        text = "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
        np.testing.assert_array_equal(parse_matrix_text(text), np.eye(4))

    def test_commas_and_comments(self):
        text = "# identity\n1, 0, 0, 0\n0, 1, 0, 0\n  # middle comment\n0, 0, 1, 0\n0, 0, 0, 1\n"
        np.testing.assert_array_equal(parse_matrix_text(text), np.eye(4))

    def test_json_object(self):
        obj = {"mueller": np.diag([1.0, 2.0, 3.0, 4.0]).tolist()}
        np.testing.assert_array_equal(
            parse_matrix_text(json.dumps(obj)), np.diag([1.0, 2, 3, 4])
        )

    def test_wrong_count(self):
        with pytest.raises(ParseError, match="15"):
            parse_matrix_text(" ".join(["1"] * 15))

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_matrix_text(" ".join(["1"] * 15 + ["x"]))

    def test_bad_json(self):
        with pytest.raises(ParseError):
            parse_matrix_text('{"mueller": [[1, 2], [3, 4]]}')
        with pytest.raises(ParseError):
            parse_matrix_text('{"other": 1}')

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_text(self, token):
        with pytest.raises(ParseError, match="non-finite"):
            parse_matrix_text(" ".join(["1"] * 15 + [token]))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json(self, token):
        text = '{"mueller": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, %s]]}'
        with pytest.raises(ParseError, match="non-finite"):
            parse_matrix_text(text % token)


_IDENTITY_LINES = ["1 0 0 0", "0 1 0 0", "0 0 1 0", "0 0 0 1"]
_JSON_LINES = ["{", '"mueller": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}']
_BAD_JSON_LINES = ["{", '"mueller": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0] x [0, 0, 0, 1]]}']
# File contents for load_matrix against a text-mode read.  The JSON syntax
# error is at line 2 column 54: char 55 once CRLF reads as LF, 56 if not;
# a lone CR not read as LF would put it on line 1.
_FILE_CONTENTS = {
    "lf_comment.txt": "\n".join(["# identity"] + _IDENTITY_LINES).encode(),
    "crlf.txt": "\r\n".join(_IDENTITY_LINES).encode() + b"\r\n",
    "lone_cr.txt": "\r".join(["# identity"] + _IDENTITY_LINES).encode(),
    "crlf.json": "\r\n".join(_JSON_LINES).encode(),
    "crlf_bad.json": "\r\n".join(_BAD_JSON_LINES).encode(),
    "lone_cr_bad.json": "\r".join(_BAD_JSON_LINES).encode(),
    "bom.txt": "\ufeff".encode() + " ".join(_IDENTITY_LINES).encode(),
    "not_utf8.txt": b"1 0 0 0\xff",
    "empty.txt": b"",
}


def _reference_load(path):
    """load_matrix as a text-mode read: ``Path.read_text``, its read errors
    wrapped as load_matrix wraps them."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_matrix_text(text)


def _load_outcome(load, path):
    """The matrix's shape, dtype and bytes, or the ParseError's text."""
    try:
        m = load(path)
    except ParseError as exc:
        return str(exc)
    return m.shape, m.dtype, m.tobytes()


def test_load_matrix_reads_what_text_mode_reads(tmp_path, capsys):
    for name, content in _FILE_CONTENTS.items():
        (tmp_path / name).write_bytes(content)
    (tmp_path / "subdir").mkdir()
    bad_json = _load_outcome(_reference_load, tmp_path / "crlf_bad.json")
    assert bad_json.endswith("line 2 column 54 (char 55)")
    for name in [*_FILE_CONTENTS, "subdir", "missing.txt"]:
        path = str(tmp_path / name)
        assert _load_outcome(load_matrix, path) == _load_outcome(_reference_load, path), name
    # batch writes each file's entry as the reference reads it; the
    # subdirectory is skipped
    expected = {}
    for name in sorted(_FILE_CONTENTS):
        try:
            expected[name] = analyze_matrix(_reference_load(str(tmp_path / name)))
        except ParseError as exc:
            expected[name] = {"error": str(exc)}
    assert main(["batch", str(tmp_path)]) == 2
    assert capsys.readouterr().out == render_report(expected)


def test_load_matrix_takes_no_file_descriptor(tmp_path):
    # open() would read an int as a descriptor, and close it
    fd = os.open(write_matrix(tmp_path, "m.txt", np.eye(4)), os.O_RDONLY)
    try:
        with pytest.raises(TypeError):
            load_matrix(fd)
        assert os.fstat(fd)
    finally:
        os.close(fd)


class TestAnalyzeReport:
    def test_identity_report(self):
        report = analyze_matrix(np.eye(4))
        assert report["physicality"]["verdict"] is True
        assert report["pre_mueller"]["verdict"] is True
        assert report["canonical"]["family"] == "TypeI"
        assert report["mueller_jones"]["verdict"] is True
        assert len(report["ensemble"]) == 1
        assert report["witness"]["present"] is False

    def test_axis_flip_report(self):
        report = analyze_matrix(np.diag([1.0, 1.0, 1.0, -1.0]))
        assert report["pre_mueller"]["verdict"] is True
        assert report["physicality"]["verdict"] is False
        assert report["witness"]["present"] is True
        assert abs(report["witness"]["expectation"] + 1.0) < 1e-12
        assert report["canonical"]["binding_constraint"] == "d1 + d2 - d3 <= d0"
        assert report["ensemble"] == []

    @pytest.mark.parametrize("seed", range(20))
    def test_single_jones_names_no_binding_constraint(self, seed):
        # L1 diag(c, c, c, c) L2: a single Jones system, with three Type-I
        # margins zero up to rounding.  The second input is dressed by a
        # boost of rapidity r >= log(180), so sigma / d = exp(r) >= 180 and
        # det(M / sigma) = exp(-4 r) is below tol, yet d3 = +d2.
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3, 3)
        mild = random_lorentz(rng) @ (scale * np.eye(4)) @ random_lorentz(rng)
        rapidity = rng.uniform(np.log(180.0), np.log(600.0))
        jones = (
            rotation_jones(rng.integers(1, 4), rng.uniform(-np.pi, np.pi))
            @ boost_jones(rng.integers(1, 4), rapidity)
            @ rotation_jones(rng.integers(1, 4), rng.uniform(-np.pi, np.pi))
        )
        strong = scale * mueller_from_jones(jones)
        sigma = np.linalg.svd(strong, compute_uv=False)
        assert sigma[0] >= 180.0 * scale and np.prod(sigma / sigma[0]) < 1e-9
        for m in (mild, strong):
            report = analyze_matrix(m)
            assert report["physicality"]["verdict"] is True
            assert report["canonical"]["family"] == "TypeI"
            d = report["canonical"]["d"]
            np.testing.assert_allclose(d, 4 * [d[0]])
            np.testing.assert_allclose(d[3], d[2], rtol=1e-9, atol=0.0)
            assert report["canonical"]["binding_constraint"] is None

    def test_verdict_consistency(self):
        rng = np.random.default_rng(70)
        for _ in range(25):
            report = analyze_matrix(rng.normal(size=(4, 4)))
            if report["physicality"]["verdict"]:
                assert report["pre_mueller"]["verdict"]
            if report["mueller_jones"]["verdict"]:
                assert report["physicality"]["verdict"]


class TestMainCommand:
    def test_analyze_exit_codes(self, tmp_path, capsys):
        mueller = write_matrix(tmp_path, "m.txt", np.eye(4))
        pre_only = write_matrix(tmp_path, "p.txt", np.diag([1.0, 1, 1, -1]))
        bad = write_matrix(tmp_path, "b.txt", np.diag([1.0, 1.5, 0, 0]))

        assert main(["analyze", str(mueller), "--verdict-exit"]) == 0
        assert main(["analyze", str(pre_only), "--verdict-exit"]) == 3
        assert main(["analyze", str(bad), "--verdict-exit"]) == 4
        assert main(["analyze", str(mueller)]) == 0
        capsys.readouterr()

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        short = tmp_path / "short.txt"
        short.write_text(" ".join(["1"] * 15))
        assert main(["analyze", str(short)]) == 2
        assert main(["analyze", str(tmp_path / "missing.txt")]) == 2
        err = capsys.readouterr().err
        assert "error" in err

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff\xfe not UTF-8",
            b'{"mueller": [[1' + b"0" * 400 + b", 0, 0, 0]]}",
            b'{"mueller": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
            b'{"mueller": [["1", "0", "0", "0"], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}',
            b'{"mueller": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, true]]}',
        ],
        ids=["not-utf8", "huge-integer", "deep-nesting", "string-entry", "bool-entry"],
    )
    def test_unparseable_file_exit_code(self, tmp_path, capsys, content):
        path = tmp_path / "bad.txt"
        path.write_bytes(content)
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert main(["batch", str(tmp_path)]) == 2
        assert set(json.loads(capsys.readouterr().out)["bad.txt"]) == {"error"}

    def test_utf8_file_under_an_ascii_locale(self, tmp_path):
        # files are read as UTF-8 whatever the locale's encoding
        path = tmp_path / "m.txt"
        path.write_bytes("# r\u00e9sum\u00e9\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n".encode())
        src = str(Path(muellercert.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "muellercert.cli", "analyze", str(path)],
            capture_output=True, env=env, check=False,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["physicality"]["verdict"] is True

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_is_a_usage_error(self, tmp_path, capsys, tol):
        path = write_matrix(tmp_path, "m.txt", np.eye(4))
        with pytest.raises(SystemExit) as info:
            main(["analyze", str(path), "--tol", tol])
        assert info.value.code == 2
        assert "tol must be finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["tetra-scan", "--samples", "1000"], ["vanzyl"]],
        ids=["tetra-scan", "vanzyl"],
    )
    def test_tol_only_where_a_verdict_reads_it(self, argv, capsys):
        # tetra-scan and vanzyl read no tolerance, so --tol is a usage error
        with pytest.raises(SystemExit) as info:
            main(argv + ["--tol", "0.5"])
        assert info.value.code == 2
        assert "unrecognized arguments: --tol 0.5" in capsys.readouterr().err

    def test_zero_tol(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "m.txt", np.eye(4))
        assert main(["analyze", str(path), "--tol", "0", "--verdict-exit"]) == 0
        assert json.loads(capsys.readouterr().out)["canonical"]["family"] == "TypeI"

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_input_exit_code(self, tmp_path, capsys, token):
        path = tmp_path / "bad.txt"
        path.write_text("1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 " + token + "\n")
        assert main(["analyze", str(path)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert main(["batch", str(tmp_path)]) == 2
        assert "non-finite" in json.loads(capsys.readouterr().out)["bad.txt"]["error"]

    def test_report_is_valid_json_and_deterministic(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "m.txt", np.diag([1.0, 0.3, 0.2, -0.1]))
        assert main(["analyze", str(path)]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", str(path)]) == 0
        second = capsys.readouterr().out
        assert first == second
        parsed = json.loads(first)
        assert parsed["canonical"]["family"] == "TypeI"

    def test_twelve_significant_digits(self, tmp_path, capsys):
        m = np.eye(4) * (1.0 / 3.0)
        path = write_matrix(tmp_path, "m.txt", m)
        assert main(["analyze", str(path)]) == 0
        parsed = json.loads(capsys.readouterr().out)
        echoed = parsed["input_echo"][0]
        assert echoed == float(f"{1.0 / 3.0:.12g}")

    def test_tol_flag_reaches_the_verdicts(self, tmp_path, capsys):
        from muellercert import m_from_h

        # hermitian matrix with a -1e-6 eigenvalue: unphysical at the default
        # tolerance, physical at a loose one
        h = np.diag([1.0, 1.0, 1.0, -1e-6]).astype(complex)
        path = write_matrix(tmp_path, "m.txt", m_from_h(h))
        assert main(["analyze", str(path), "--verdict-exit"]) != 0
        capsys.readouterr()
        assert main(["analyze", str(path), "--verdict-exit", "--tol", "1e-3"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["physicality"]["verdict"] is True
        assert main(["batch", str(tmp_path), "--verdict-exit"]) != 0
        capsys.readouterr()
        assert main(["batch", str(tmp_path), "--verdict-exit", "--tol", "1e-3"]) == 0
        assert json.loads(capsys.readouterr().out)["m.txt"] == parsed

    def test_summary_format(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "m.txt", np.diag([1.0, 1, 1, -1]))
        assert main(["analyze", str(path), "--format", "summary"]) == 0
        out = capsys.readouterr().out
        assert "pre-Mueller only" in out
        assert "witness expectation" in out
        bad = write_matrix(tmp_path, "b.txt", np.diag([1.0, 1.5, 0, 0]))
        assert main(["analyze", str(bad), "--format", "summary"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "verdict: not pre-Mueller"

    def test_batch(self, tmp_path, capsys):
        write_matrix(tmp_path, "a.txt", np.eye(4))
        write_matrix(tmp_path, "b.txt", np.diag([1.0, 1, 1, -1]))
        assert main(["batch", str(tmp_path), "--verdict-exit"]) == 3
        parsed = json.loads(capsys.readouterr().out)
        assert set(parsed) == {"a.txt", "b.txt"}
        assert parsed["a.txt"]["physicality"]["verdict"] is True
        assert parsed["b.txt"]["physicality"]["verdict"] is False

    def test_batch_with_parse_failure(self, tmp_path, capsys):
        write_matrix(tmp_path, "a.txt", np.eye(4))
        (tmp_path / "bad.txt").write_text("1 2 3")
        assert main(["batch", str(tmp_path)]) == 2
        parsed = json.loads(capsys.readouterr().out)
        assert "error" in parsed["bad.txt"]

    def test_batch_lists_files_only(self, tmp_path, capsys):
        # a subdirectory is skipped, a symlink to a matrix file is analyzed,
        # and the files come in name order
        flip = np.diag([1.0, 1, 1, -1])
        mixture = 0.5 * (np.eye(4) + np.diag([1.0, 1.0, -1.0, -1.0])) + 1e-3 / 3.0
        (tmp_path / "sub").mkdir()
        write_matrix(tmp_path / "sub", "a.txt", np.eye(4))
        write_matrix(tmp_path, "d.txt", flip)
        target = write_matrix(tmp_path / "sub", "mixture.txt", mixture)
        (tmp_path / "c.txt").symlink_to(target)
        (tmp_path / "dangling.txt").symlink_to(tmp_path / "missing.txt")
        assert main(["batch", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert list(json.loads(out)) == ["c.txt", "d.txt"]
        expected = {"c.txt": analyze_matrix(mixture), "d.txt": analyze_matrix(flip)}
        assert out == render_report(expected)

    @pytest.mark.parametrize("target", ["missing", "m.txt"], ids=["missing", "file"])
    def test_batch_on_a_non_directory_exit_code(self, tmp_path, capsys, target):
        write_matrix(tmp_path, "m.txt", np.eye(4))
        assert main(["batch", str(tmp_path / target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: not a directory: {tmp_path / target}\n"

    @pytest.mark.parametrize("call", ["pathlib.Path.is_dir", "os.scandir"])
    def test_batch_on_an_unreadable_directory_exit_code(self, tmp_path, capsys, monkeypatch, call):
        # chmod cannot deny a read to root, so the call that checks or lists
        # the directory raises in its place
        def denied(*args):
            raise PermissionError(13, "Permission denied", str(tmp_path))

        write_matrix(tmp_path, "m.txt", np.eye(4))
        monkeypatch.setattr(call, denied)
        assert main(["batch", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        denial = f"[Errno 13] Permission denied: '{tmp_path}'"
        assert err == f"error: cannot read {tmp_path}: {denial}\n"

    # 10**15 samples need 28 PiB, which numpy refuses without allocating
    @pytest.mark.parametrize(
        "samples, error",
        [
            (0, r"samples must be positive"),
            (10**15, r"Unable to allocate .+ for an array with shape \(1000000000000000, 4\).*"),
        ],
        ids=["0", "10**15"],
    )
    def test_tetra_scan_without_samples_exit_code(self, samples, error, capsys):
        assert main(["tetra-scan", "--samples", str(samples)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(f"error: {error}\n", err)

    def test_calls_share_no_parser_state(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "m.txt", np.eye(4))
        with pytest.raises(SystemExit):
            main(["analyze"])
        assert main(["analyze", str(path), "--format", "summary", "--tol", "1e-3"]) == 0
        assert capsys.readouterr().out.startswith("verdict: Mueller")
        assert main(["analyze", str(path)]) == 0
        assert capsys.readouterr().out == render_report(analyze_matrix(np.eye(4)))
        assert build_parser() is not build_parser()

    @pytest.mark.parametrize("scale", [1.34e154, 1e170, 1e200, sys.float_info.max])
    def test_analysis_overflow_is_an_input_error(self, tmp_path, capsys, scale):
        # sigma^2 overflows from about 1.34e154 on: at 1.34e154 the entries
        # are below that and sigma is above it; past it, at the top of the
        # float range, sigma itself overflows.  The library raises at every
        # scale here; the commands exit 2 with one error line and no
        # document.
        m = np.diag([1.0, 0.5, 0.3, -0.2])
        m[0, 1] = 0.1
        m = np.clip(scale * m, -sys.float_info.max, sys.float_info.max)
        with pytest.raises(FloatingPointError):
            analyze_matrix(m)
        path = tmp_path / "big.txt"
        path.write_text(" ".join(repr(x) for x in m.ravel().tolist()))
        write_matrix(tmp_path, "normal.txt", np.eye(4))
        expected = f"error: {_OVERFLOW_TEXT}\n"
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr() == ("", expected)
        assert main(["batch", str(tmp_path), "--format", "summary"]) == 2
        assert capsys.readouterr() == ("", expected)

    def test_lorentz_margin_beyond_the_float_range_is_an_input_error(self, tmp_path, capsys):
        # Every entry is below sqrt(float max), but the Lorentz margin is
        # -2**1024 (warnings are errors in the suite, so none is raised).
        path = tmp_path / "wide.txt"
        path.write_text(" ".join(map(repr, _BEYOND_RANGE)))
        write_matrix(tmp_path, "normal.txt", np.eye(4))
        expected = ("", f"error: {_OVERFLOW_TEXT}\n")
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr() == expected
        assert main(["batch", str(tmp_path)]) == 2
        assert capsys.readouterr() == expected

    def test_analysis_overflow_prints_no_traceback(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text(" ".join(["1e170"] + ["0"] * 15))
        src = str(Path(muellercert.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "muellercert.cli", "analyze", str(path)],
            capture_output=True, env={**os.environ, "PYTHONPATH": src}, check=False,
        )
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr.startswith(b"error: ") and b"Traceback" not in done.stderr

    def test_tetra_scan_command(self, capsys):
        assert main(["tetra-scan", "--samples", "20000", "--seed", "7"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["fraction_pre_mueller"] == 1.0
        assert 0.31 < parsed["fraction_mueller"] < 0.36

    def test_vanzyl_command(self, capsys):
        assert main(["vanzyl"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["physical"] is False
        np.testing.assert_allclose(
            parsed["diagonal_h_spectrum"],
            [0.98245, 0.90225, 0.45505, -0.39275],
            atol=1e-9,
        )


class TestTetraScan:
    def test_deterministic_per_seed(self):
        a = tetra_scan(50_000, seed=3)
        b = tetra_scan(50_000, seed=3)
        assert a == b

    def test_fraction_near_one_third(self):
        result = tetra_scan(100_000, seed=0)
        assert abs(result["fraction_mueller"] - 1.0 / 3.0) < 0.01
        assert result["fraction_pre_mueller"] == 1.0

    def test_tetrahedron_vertices_are_physical(self):
        from muellercert import type1_constraints

        for vertex in [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]:
            assert type1_constraints((1.0, *vertex))

    def test_monte_carlo_error_scaling(self):
        # quadrupling the sample count should roughly halve the seed-to-seed
        # standard deviation of the estimated fraction
        small = [tetra_scan(2_000, seed=s)["fraction_mueller"] for s in range(40)]
        large = [tetra_scan(8_000, seed=s)["fraction_mueller"] for s in range(40)]
        ratio = np.std(small) / np.std(large)
        assert 1.4 < ratio < 2.9

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            tetra_scan(0, seed=0)


class TestVanZyl:
    def test_fragment_values(self):
        result = vanzyl_case()
        assert result["physical"] is False
        assert result["binding_constraint"] == "d1 + d2 - d3 <= d0"
        assert abs(result["violation"] - 0.7855) < 1e-10
        assert result["negative_count"] == 1
        np.testing.assert_allclose(
            result["diagonal_h_spectrum"],
            [0.98245, 0.90225, 0.45505, -0.39275],
            atol=1e-12,
        )


# Any 16 finite floats, and 2^k times a unit-scale matrix over the whole
# exponent range, subnormal results and overflowing analyses included.
_ANY_MATRIX = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=16, max_size=16),
    st.builds(
        lambda k, unit: [math.ldexp(x, k) for x in unit],
        st.integers(-1070, 1020),
        st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
    ),
)


@settings(max_examples=200, deadline=None)  # about 1 s
@given(values=_ANY_MATRIX)
@example(values=_BEYOND_RANGE)
def test_analyze_gives_a_verdict_or_an_input_error(tmp_path_factory, values):
    # warnings are errors in the suite, so a numpy warning fails this too
    path = tmp_path_factory.getbasetemp() / "any_finite.txt"
    path.write_text(" ".join(map(repr, values)))
    out, err = io.StringIO(), io.StringIO()
    code = main(["analyze", str(path)], out=out, err=err)
    assert code in (0, 2)
    assert (code == 0) == (err.getvalue() == "") == (out.getvalue() != "")


_GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_reports.json").read_text())


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    """The golden inputs, one file each, and an unreadable file beside them."""
    root = tmp_path_factory.mktemp("entry")
    inputs = root / "golden"
    inputs.mkdir()
    for case in _GOLDEN:
        (inputs / f"{case['name']}.txt").write_text(" ".join(map(repr, case["m"])) + "\n")
    (root / "bad.txt").write_text("1 2 3\n")
    return root


def _in_process(argv) -> tuple:
    """Exit code, stdout and stderr of ``main(argv)``, a usage error's
    SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    stdout, stderr = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout, sys.stderr = stdout, stderr
    return code, out.getvalue().encode(), err.getvalue().encode()


# Each command line of the process entry and its exit code; only an exit
# code of 2 comes with stderr.  Paths are relative to golden_dir.
_ENTRY_RUNS = {
    "analyze": (["analyze", "golden/jones.txt"], 0),
    "analyze-summary": (["analyze", "golden/type2_a.txt", "--format", "summary"], 0),
    "batch": (["batch", "golden"], 0),
    "batch-verdict-exit": (["batch", "golden", "--verdict-exit"], 4),
    "analyze-verdict-exit": (["analyze", "golden/type1_out.txt", "--verdict-exit"], 3),
    "tetra-scan": (["tetra-scan", "--samples", "1000", "--seed", "3"], 0),
    "vanzyl": (["vanzyl"], 0),
    "parse-error": (["analyze", "bad.txt"], 2),
    "bad-tol": (["analyze", "golden/jones.txt", "--tol", "x"], 2),
}


def _processes(commands, cwd) -> list:
    """Exit code, stdout and stderr of each command, a Python command line,
    run side by side with this checkout's package on PYTHONPATH."""
    src = str(Path(muellercert.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    procs = [
        subprocess.Popen([sys.executable, *command], cwd=cwd, env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for command in commands
    ]
    outputs = [proc.communicate(timeout=60) for proc in procs]
    return [(proc.returncode, *output) for proc, output in zip(procs, outputs)]


@pytest.mark.parametrize("name", _ENTRY_RUNS)
def test_process_entry_writes_what_main_writes(golden_dir, name, monkeypatch):
    # python -m muellercert.cli runs cli.run(), which freezes the collector
    # at exit: the same bytes and exit code as main in this process, and
    # under -X dev -W error no warning at teardown either
    argv, code = _ENTRY_RUNS[name]
    monkeypatch.chdir(golden_dir)
    expected = _in_process(argv)
    assert expected[0] == code
    assert (expected[2] == b"") is (code != 2)
    entry = ["-m", "muellercert.cli", *argv]
    for done in _processes([entry, ["-X", "dev", "-W", "error", *entry]], golden_dir):
        assert done == expected


@pytest.mark.parametrize("name", ["vanzyl", "parse-error", "bad-tol"])
def test_run_freezes_the_collector_at_exit(golden_dir, name):
    # atexit handlers still run after run(), and find every object frozen,
    # after a usage error's SystemExit too
    script = (
        "import atexit, gc, sys\n"
        "from muellercert import cli\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        f"sys.argv = ['muellercert', *{_ENTRY_RUNS[name][0]!r}]\n"
        "cli.run()\n"
    )
    code, out, _ = _processes([["-c", script]], golden_dir)[0]
    assert code == _ENTRY_RUNS[name][1]
    assert out.splitlines()[-1] == b"frozen True"


def test_main_leaves_the_collector_unfrozen(golden_dir, monkeypatch):
    # only the process entry freezes; main is called many times in one
    # process by the tests, the benchmark and tools/ab_time.py
    monkeypatch.chdir(golden_dir)
    for name in ("analyze", "batch", "tetra-scan", "vanzyl", "bad-tol"):
        _in_process(_ENTRY_RUNS[name][0])
        assert gc.get_freeze_count() == 0, name
