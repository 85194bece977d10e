"""``tools/ab_time.py``, the in-process A/B timer, with both sides set to
this checkout on a tiny corpus."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_time.py"


@pytest.mark.parametrize(
    "options, count",
    [
        (["--workload", "exact", "--per-class", "1"], "6 inputs"),
        (["--workload", "batch", "--dirs", "2", "--per-dir", "3"], "2 directories"),
    ],
    ids=["exact", "batch"],
)
def test_same_checkout_on_both_sides(options, count):
    done = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--rounds", "2", *options],
        capture_output=True, text=True, check=False, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith(f"{options[1]}: {count} per pass, 2 rounds, seed 1")
    assert re.fullmatch(r"parent: median pass \d+\.\d{4} s \(\d+\.\d us per \w+\)", lines[1])
    assert lines[2].startswith("change: median pass ")
    assert re.fullmatch(
        r"change/parent: median \d+\.\d{3}, IQR \d+\.\d{3} \(q1 \d+\.\d{3}, q3 \d+\.\d{3}\), "
        r"change faster in [012] of 2 rounds",
        lines[3],
    )
    assert re.fullmatch(
        r"fastest pass: parent \d+\.\d{4} s, change \d+\.\d{4} s, change/parent \d+\.\d{3}",
        lines[4],
    )
    assert lines[5:] == [f"outputs differ: 0 of {count.split()[0]}"]


def test_stage_times_on_the_same_checkout():
    done = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--rounds", "2", "--stages",
         "--per-class", "1"],
        capture_output=True, text=True, check=False, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "exact stages: 6 inputs per pass, 2 rounds, seed 1"
    stages = (
        "hermitian", "cone", "sphere_min", "normal", "canonical", "reports", "render", "stages",
    )
    times = ", ".join(rf"{stage} \d+\.\d us" for stage in stages)
    for line, side in zip(lines[1:3], ("parent", "change")):
        assert re.fullmatch(rf"{side}: {times} per input", line), line
    ratios = ", ".join(rf"{stage} \d+\.\d{{3}}" for stage in stages)
    assert re.fullmatch(rf"change/parent: {ratios}", lines[3]), lines[3]
    assert lines[4:] == ["outputs differ: 0 of 6"]


def test_stage_times_of_the_batch_stacks():
    # one analysis per directory, its times per matrix: 2 stacks of 3
    done = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--rounds", "2", "--stages",
         "--workload", "batch", "--dirs", "2", "--per-dir", "3"],
        capture_output=True, text=True, check=False, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "batch stages: 2 directories per pass, 2 rounds, seed 1"
    stages = (
        "hermitian", "cone", "sphere_min", "normal", "canonical", "reports", "render", "stages",
    )
    times = ", ".join(rf"{stage} \d+\.\d us" for stage in stages)
    for line, side in zip(lines[1:3], ("parent", "change")):
        assert re.fullmatch(rf"{side}: {times} per matrix", line), line
    ratios = ", ".join(rf"{stage} \d+\.\d{{3}}" for stage in stages)
    assert re.fullmatch(rf"change/parent: {ratios}", lines[3]), lines[3]
    assert lines[4:] == ["outputs differ: 0 of 2"]


def test_bad_round_count_is_a_usage_error():
    done = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--rounds", "1"],
        capture_output=True, text=True, check=False, timeout=120,
    )
    assert done.returncode == 2
    assert "--rounds must be at least 2" in done.stderr
