"""``tools/report_diff.py compare``, the byte-identity check of rendered
reports, on tiny hand-written JSONL files."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"


def _write(path: Path, reports: dict) -> Path:
    with path.open("w") as f:
        for key, report in reports.items():
            f.write(json.dumps({"key": key, "report": json.dumps(report)}) + "\n")
    return path


def _compare(tmp_path, parent: dict, change: dict):
    done = subprocess.run(
        [sys.executable, str(TOOL), "compare",
         str(_write(tmp_path / "parent.jsonl", parent)),
         str(_write(tmp_path / "change.jsonl", change))],
        capture_output=True, text=True, check=False,
    )
    return done.returncode, done.stdout.splitlines()


_REPORTS = {
    "exact/1/a": {"verdict": True, "margins": [1.0, 2.0], "canonical": {"d": [1.0, 0.5]}},
    "exact/1/b": {"verdict": False, "margins": [0.25, -3.0], "canonical": {"d": None}},
}


def test_identical_files_exit_zero(tmp_path):
    code, lines = _compare(tmp_path, _REPORTS, _REPORTS)
    assert code == 0
    assert lines == ["0 of 2 reports differ"]


def test_changed_number_is_reported_with_its_path(tmp_path):
    change = json.loads(json.dumps(_REPORTS))
    change["exact/1/a"]["canonical"]["d"][1] = 0.4
    code, lines = _compare(tmp_path, _REPORTS, change)
    assert code == 1
    # |0.5 - 0.4| / max(0.5, 0.4)
    assert lines == [
        "1 of 2 reports differ",
        "  canonical.d: 1 reports, max relative difference 0.2",
    ]


def test_missing_key_counts_as_inf(tmp_path):
    change = json.loads(json.dumps(_REPORTS))
    del change["exact/1/b"]["verdict"]
    code, lines = _compare(tmp_path, _REPORTS, change)
    assert code == 1
    assert lines == [
        "1 of 2 reports differ",
        "  verdict: 1 reports, max relative difference inf",
        "    verdict: false -> null: 1",
    ]


def test_missing_report_counts_as_inf(tmp_path):
    change = {"exact/1/a": _REPORTS["exact/1/a"]}
    code, lines = _compare(tmp_path, _REPORTS, change)
    assert code == 1
    assert lines == [
        "1 of 2 reports differ",
        "  <report missing>: 1 reports, max relative difference inf",
    ]


def test_batch_document_paths_drop_the_file_names(tmp_path):
    batch = {"batch/1/d000": {"a.txt": _REPORTS["exact/1/a"], "b.txt": _REPORTS["exact/1/b"]}}
    change = json.loads(json.dumps(batch))
    change["batch/1/d000"]["a.txt"]["canonical"]["d"][1] = 0.4
    change["batch/1/d000"]["b.txt"]["margins"][0] = 0.2
    code, lines = _compare(tmp_path, batch, change)
    assert code == 1
    assert lines == [
        "1 of 1 reports differ",
        "  batch.canonical.d: 1 reports, max relative difference 0.2",
        "  batch.margins: 1 reports, max relative difference 0.2",
    ]


def test_non_number_differences_list_each_pair_with_its_count(tmp_path):
    parent = {
        f"exact/1/{name}": {"canonical": {"d": None, "family": "Indeterminate"}, "margin": 1.0}
        for name in "abc"
    }
    change = json.loads(json.dumps(parent))
    for name in "ab":
        change[f"exact/1/{name}"]["canonical"] = {"d": [1.0, 0.5, 0.5, 0.2], "family": "TypeI"}
    change["exact/1/c"]["canonical"]["family"] = "TypeII"
    change["exact/1/c"]["margin"] = "nan"
    code, lines = _compare(tmp_path, parent, change)
    assert code == 1
    assert lines == [
        "3 of 3 reports differ",
        "  canonical.d: 2 reports, max relative difference inf",
        "    canonical.d: null -> list of 4: 2",
        "  canonical.family: 3 reports, max relative difference inf",
        '    canonical.family: "Indeterminate" -> "TypeI": 2',
        '    canonical.family: "Indeterminate" -> "TypeII": 1',
        "  margin: 1 reports, max relative difference inf",
        '    margin: number -> "nan": 1',
    ]


def test_a_pair_counts_once_per_batch_document(tmp_path):
    report = {"canonical": {"family": "Indeterminate"}}
    parent = {"batch/1/d000": {"a.txt": report, "b.txt": report}}
    changed = {"canonical": {"family": "TypeI"}}
    code, lines = _compare(tmp_path, parent, {"batch/1/d000": {"a.txt": changed, "b.txt": changed}})
    assert code == 1
    assert lines == [
        "1 of 1 reports differ",
        "  batch.canonical.family: 1 reports, max relative difference inf",
        '    batch.canonical.family: "Indeterminate" -> "TypeI": 1',
    ]
