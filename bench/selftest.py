"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest bench/selftest.py

The smoke runs shrink every corpus and the set-up repeats, then call
run.main in-process with a fraction of a second to measure.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run.ExactLibrary, "per_class", 2)
    monkeypatch.setattr(run.ExactLibrary, "warm_ops", 3)
    monkeypatch.setattr(run.MeasuredBatch, "dirs", 2)
    monkeypatch.setattr(run.MeasuredBatch, "per_dir", 5)
    monkeypatch.setattr(run.CliAnalyze, "per_class", 1)
    monkeypatch.setattr(run.CliAnalyze, "bad_every", 3)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "PROBE_REPEATS", 1)


def run_once(capsys, workload, seed, trace):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)]
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(spans.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(tiny, capsys, workload, trace):
    result = run_once(capsys, workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_same_seed_repeats_the_counts(tiny, capsys):
    def counts(result):
        return {
            name: m["value"]
            for name, m in result["metrics"].items()
            if name.startswith(("tier.", "canonical.family.", "canonical.type1_factor."))
            and not name.endswith("busy_s")
        }

    first = counts(run_once(capsys, "exact-library", 7, 1))
    assert sum(first[f"tier.{t}"] for t in spans.TIERS) == 12
    assert counts(run_once(capsys, "exact-library", 7, 1)) == first


def test_oracle_flags_one_flipped_verdict():
    from muellercert.cli import analyze_matrix

    for entry in corpus.exact_corpus(5, 1):
        report = analyze_matrix(entry.m)
        assert oracle.check_report(entry.m, report, entry.tier) == []
        for section in ("pre_mueller", "physicality"):
            flipped = copy.deepcopy(report)
            flipped[section]["verdict"] = not flipped[section]["verdict"]
            assert oracle.check_report(entry.m, flipped) != [], (entry.cls, section)


def test_h_table_matches_jones_outer_product():
    # For a deterministic system H is the outer product of the row-major
    # vectorized Jones matrix with itself: rank one, trace 2 * m00.
    rng = np.random.default_rng(0)
    j = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = corpus.mueller_of_jones(j)
    v = j.reshape(4)
    assert abs(oracle.h_table(m) - np.outer(v, v.conj())).max() < 1e-12
