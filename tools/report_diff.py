"""Render the benchmark corpora's reports, or compare two such renderings.

Run from anywhere; the package and the corpus generator are taken from the
checkout this file belongs to (its ``src`` and ``bench/corpus.py``):

    python3 tools/report_diff.py render OUT
    python3 tools/report_diff.py compare PARENT CHANGE

``render`` writes the report of every input of the ``exact-library`` and
``measured-batch`` corpora at seeds 1-3, 21,600 reports, the ``batch``
document of each of the 144 measured directories, the ``vanzyl`` document
and the ``tetra-scan`` document at seeds 0-2 (100,000 samples, the
command's default): 21,748 records, one JSON line each, ``{"key": ...,
"report": TEXT}``, where TEXT is ``render_report``'s output.  The last four
are keyed ``vanzyl`` and ``tetra-scan/{seed}``.  Each corpus is analyzed as
its workload analyzes it: the exact inputs one by one with
``analyze_matrix``, the measured ones a directory at a time with
``analyze_stack``.  A directory's ``batch`` document, keyed
``batch/{seed}/dNNN``, is the mapping from file name (``{name}.txt``) to
report that ``main`` renders for ``batch``, so the reports nested in it are
compared at their own indent too.

``compare`` prints how many reports differ (a ``batch`` document counts as
one) and, for each JSON path that differs somewhere (list indices dropped,
so ``canonical.d`` covers all four entries; in a ``batch`` document the
file names are dropped too, and the path starts with ``batch``), the
number of reports in which it differs and the largest relative difference
|a - b| / max(|a|, |b|) of its numbers.  A difference that is not between
two numbers (a verdict, a family, a missing value) counts as relative
difference inf, and is listed under its path as each distinct
``old -> new`` pair with the number of reports it occurs in, for example
``canonical.family: "Indeterminate" -> "TypeI": 28``.  In a pair, strings,
booleans and null are written as JSON, a number as ``number``, a list as
``list of N`` and an object as ``object``.  It exits 1 when any report
differs and 0 when every report is byte-identical, so a script can check
byte identity from the exit code alone.
"""

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
TETRA_SEEDS = (0, 1, 2)
TETRA_SAMPLES = 100_000
# The corpus sizes of the two workloads in bench/run.py.
EXACT_PER_CLASS = 1000
MEASURED_DIRS = 48
MEASURED_PER_DIR = 25


def render(out: Path) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import numpy as np

    import corpus
    from muellercert.cli import (
        analyze_matrix,
        analyze_stack,
        render_report,
        tetra_scan,
        vanzyl_case,
    )

    with out.open("w") as f:
        for seed in SEEDS:
            for entry in corpus.exact_corpus(seed, EXACT_PER_CLASS):
                text = render_report(analyze_matrix(entry.m))
                f.write(json.dumps({"key": f"exact/{seed}/{entry.name}", "report": text}) + "\n")
            directories = corpus.measured_corpus(seed, MEASURED_DIRS, MEASURED_PER_DIR)
            for dnum, entries in enumerate(directories):
                reports = analyze_stack(np.stack([entry.m for entry in entries]))
                for entry, report in zip(entries, reports):
                    key = f"measured/{seed}/{entry.name}"
                    f.write(json.dumps({"key": key, "report": render_report(report)}) + "\n")
                batch = {f"{entry.name}.txt": report for entry, report in zip(entries, reports)}
                key = f"batch/{seed}/d{dnum:03d}"
                f.write(json.dumps({"key": key, "report": render_report(batch)}) + "\n")
        f.write(json.dumps({"key": "vanzyl", "report": render_report(vanzyl_case())}) + "\n")
        for seed in TETRA_SEEDS:
            text = render_report(tetra_scan(TETRA_SAMPLES, seed))
            f.write(json.dumps({"key": f"tetra-scan/{seed}", "report": text}) + "\n")


def _load(path: Path) -> dict:
    with path.open() as f:
        return {rec["key"]: rec["report"] for rec in map(json.loads, f)}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _kind(x) -> str:
    """A JSON value as a non-number difference pair shows it."""
    if _is_number(x):
        return "number"
    if isinstance(x, list):
        return f"list of {len(x)}"
    if isinstance(x, dict):
        return "object"
    return json.dumps(x)


def _differences(a, b, path: str, out: dict) -> None:
    """Largest relative difference per path between two JSON values, and
    the pairs of values that are not both numbers."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            _differences(a.get(key), b.get(key), sub, out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            _differences(x, y, path, out)
    elif a != b:
        rel, pairs = out.get(path, (0.0, set()))
        if _is_number(a) and _is_number(b):
            rel = max(rel, abs(a - b) / max(abs(a), abs(b)))
        else:
            rel = math.inf
            pairs.add(f"{_kind(a)} -> {_kind(b)}")
        out[path] = rel, pairs


def compare(parent: Path, change: Path) -> int:
    """Print the differences and return the number of differing reports."""
    old, new = _load(parent), _load(change)
    differing = 0
    per_path: dict = {}
    per_pair: dict = {}
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        differing += 1
        found: dict = {}
        if a is None or b is None:
            found["<report missing>"] = math.inf, ()
        elif key.startswith("batch/"):
            a, b = json.loads(a), json.loads(b)
            for name in sorted(a.keys() | b.keys()):
                _differences(a.get(name), b.get(name), "batch", found)
        else:
            _differences(json.loads(a), json.loads(b), "", found)
        for path, (rel, pairs) in found.items():
            count, worst = per_path.get(path, (0, 0.0))
            per_path[path] = (count + 1, max(worst, rel))
            pair_counts = per_pair.setdefault(path, {})
            for pair in pairs:
                pair_counts[pair] = pair_counts.get(pair, 0) + 1
    print(f"{differing} of {len(old.keys() | new.keys())} reports differ")
    for path, (count, worst) in sorted(per_path.items()):
        print(f"  {path}: {count} reports, max relative difference {worst:.3g}")
        for pair, pair_count in sorted(per_pair[path].items()):
            print(f"    {path}: {pair}: {pair_count}")
    return differing


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "render":
        render(Path(argv[1]))
    elif len(argv) == 3 and argv[0] == "compare":
        return 1 if compare(Path(argv[1]), Path(argv[2])) else 0
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
