"""``tools/ab_time.py``, the A/B timer, with both sides set to this checkout
on a tiny corpus."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_time.py"
_STAGES = ("hermitian", "cone", "sphere_min", "normal", "canonical", "reports", "render", "stages")


@pytest.mark.parametrize(
    "options, header, columns, per, count",
    [
        (["--per-class", "1"], "exact: 6 inputs", ["pass"], "input", 6),
        (["--workload", "batch", "--dirs", "2", "--per-dir", "3"], "batch: 2 directories",
         ["pass"], "matrix", 2),
        (["--stages", "--per-class", "1"], "exact stages: 6 inputs", _STAGES, "input", 6),
        # one analysis per directory, its times per matrix: 2 stacks of 3
        (["--stages", "--workload", "batch", "--dirs", "2", "--per-dir", "3"],
         "batch stages: 2 directories", _STAGES, "matrix", 2),
        # one analyze process per input, each timed from start to exit
        (["--workload", "cli", "--per-class", "1"], "cli: 6 inputs", ["pass"], "input", 6),
    ],
    ids=["exact", "batch", "exact-stages", "batch-stages", "cli"],
)
def test_same_checkout_on_both_sides(options, header, columns, per, count):
    done = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--rounds", "2", *options],
        capture_output=True, text=True, check=False, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == f"{header} per pass, 2 rounds, seed 1"
    assert len(lines) == len(columns) + 2
    for line, column in zip(lines[1:], columns):
        assert re.fullmatch(
            rf"{column}: parent \d+\.\d us, change \d+\.\d us per {per}; "
            r"change/parent median \d+\.\d{3}, IQR \d+\.\d{3}, "
            r"change faster in [012] of 2 rounds, fastest \d+\.\d{3}",
            line,
        ), line
    assert lines[-1] == f"outputs differ: 0 of {count}"


def test_bad_round_count_is_a_usage_error():
    done = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--rounds", "1"],
        capture_output=True, text=True, check=False, timeout=120,
    )
    assert done.returncode == 2
    assert "--rounds must be at least 2" in done.stderr


def test_stages_of_cli_processes_is_a_usage_error():
    done = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workload", "cli", "--stages"],
        capture_output=True, text=True, check=False, timeout=120,
    )
    assert done.returncode == 2
    assert "--stages times stages in this process" in done.stderr
