import json

import numpy as np
import pytest

from muellercert.cli import (
    ParseError,
    analyze_matrix,
    build_parser,
    main,
    parse_matrix_text,
    render_report,
    tetra_scan,
    vanzyl_case,
)

from helpers import random_lorentz


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
        # margins zero up to rounding.
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3, 3)
        report = analyze_matrix(random_lorentz(rng) @ (scale * np.eye(4)) @ random_lorentz(rng))
        assert report["physicality"]["verdict"] is True
        assert report["canonical"]["family"] == "TypeI"
        np.testing.assert_allclose(report["canonical"]["d"], 4 * [report["canonical"]["d"][0]])
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

    def test_summary_format(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "m.txt", np.diag([1.0, 1, 1, -1]))
        assert main(["analyze", str(path), "--format", "summary"]) == 0
        out = capsys.readouterr().out
        assert "pre-Mueller only" in out
        assert "witness expectation" in out

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

    def test_calls_share_no_parser_state(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "m.txt", np.eye(4))
        with pytest.raises(SystemExit):
            main(["analyze"])
        assert main(["analyze", str(path), "--format", "summary", "--tol", "1e-3"]) == 0
        assert capsys.readouterr().out.startswith("verdict: Mueller")
        assert main(["analyze", str(path)]) == 0
        assert capsys.readouterr().out == render_report(analyze_matrix(np.eye(4)))
        assert build_parser() is not build_parser()

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
