"""Time two checkouts of muellercert against each other in one process.

    python3 tools/ab_time.py PARENT CHANGE [--workload exact|batch] [--stages]
        [--seed N] [--rounds R] [--per-class K] [--dirs D] [--per-dir F]

PARENT and CHANGE are the roots of two checkouts.  Each one's package (its
``src/muellercert``) is loaded into this process as a separate module
object, and the inputs come from the corpus generator of the checkout this
file belongs to (its ``bench/corpus.py``, read, never written):

* ``exact``: one pass is ``analyze_matrix`` once per input of
  ``corpus.exact_corpus(seed, per_class)``;
* ``batch``: one pass is ``cli.main(["batch", DIR])`` once per directory of
  ``corpus.measured_corpus(seed, dirs, per_dir)``, written to a temporary
  directory as the benchmark writes them (every fifth file JSON), with the
  output going to an in-memory sink.

``--stages`` times the analysis stages instead of whole passes, each on
its first read of a fresh analysis: of one matrix per ``exact`` input, or of
one stack per ``batch`` directory, its matrices in the order ``batch`` reads
the files.  The stages are the H stage, the cone stage (which computes sigma
and the normal matrices), of it ``sphere_min`` apart, the N stage with
``type1_d`` (``normal``: both are computed inside the canonical stage, and
timed there on their first read), the rest of the canonical stage
(``canonical``: the cone stage, ``normal`` and ``type1_d`` not counted),
the report assembly (``cli._reports``) on the finished stages, and
``render_report`` on the finished reports, rendered as the command renders
them (``render``): each report alone for ``exact``, and each directory's
mapping from file name to report for ``batch``.  Their sum is ``stages``
(``render`` included; ``sphere_min`` is in ``cone``).

After one untimed pass per side, each round times one pass of each side,
the side that goes first alternating from round to round, so that drift in
the host's speed falls on both sides alike; sequential runs of the two
checkouts can differ by more than the change being measured.  Each pass
yields one time per column: ``pass`` alone for whole passes, one per stage
under ``--stages``.  For each column it prints one line: each side's median
time per input (per matrix for ``batch``), the median of the per-round
ratios change / parent with their interquartile range and the number of
rounds in which the change was faster, and the ratio of the two sides'
fastest passes (host noise only slows a pass, so the fastest passes move
less with it than the medians).  A claim should beat the IQR that the same
run reads with one checkout on both sides (PARENT = CHANGE).  Last, it
compares one pass of rendered output per side and exits 1 when any output
differs, else 0.
"""

import os

# BLAS on one thread, as in the benchmark.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def load_package(root: Path, alias: str):
    """The ``muellercert`` package of the checkout at ``root``, imported as
    the top-level package ``alias``; its relative imports resolve to its own
    submodules."""
    pkg = root / "src" / "muellercert"
    spec = importlib.util.spec_from_file_location(
        alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{alias}.cli")


def _exact_pass(cli, mats):
    return [cli.analyze_matrix(m) for m in mats]


_STAGES = ("hermitian", "cone", "sphere_min", "normal", "canonical", "reports", "render", "stages")


def _stage_pass(cli, stacks):
    """Seconds spent in each stage of :data:`_STAGES` over one pass, one
    analysis per stack of 4x4 matrices.  A stack is a pair of its matrices
    and its file names: with names, its reports are rendered as one mapping
    from name to report, and without (None), each report alone."""
    kernel = sys.modules[cli.__package__ + ".kernel"]
    sphere_min, clock = kernel.sphere_min, time.perf_counter
    spent = dict.fromkeys(_STAGES, 0.0)

    def timed_sphere_min(a, b):
        start = clock()
        try:
            return sphere_min(a, b)
        finally:
            spent["sphere_min"] += clock() - start

    def timed(compute):
        def run(analysis):
            start = clock()
            try:
                return compute(analysis)
            finally:
                spent["normal"] += clock() - start

        run.__name__ = compute.__name__  # the key the stage is kept under
        return run

    # The N stage and type1_d are the canonical stage's first reads of
    # stages of their own; each computes once per analysis, neither inside
    # the other.
    stages = [vars(kernel.Analysis)[name] for name in ("normal", "type1_d")]
    computes = [stage.compute for stage in stages]
    kernel.sphere_min = timed_sphere_min  # the cone stage's global
    try:
        for stage, compute in zip(stages, computes):
            stage.compute = timed(compute)
        for stack, names in stacks:
            analysis = cli.Analysis(cli.as_mueller_stack(stack), cli.DEFAULT_TOL)
            for name in ("hermitian", "cone", "canonical"):
                normal, start = spent["normal"], clock()
                getattr(analysis, name)
                spent[name] += clock() - start - (spent["normal"] - normal)
            start = clock()
            reports = cli._reports(analysis)
            spent["reports"] += clock() - start
            start = clock()
            if names is None:
                for report in reports:
                    cli.render_report(report)
            else:
                cli.render_report(dict(zip(names, reports)))
            spent["render"] += clock() - start
    finally:
        kernel.sphere_min = sphere_min
        for stage, compute in zip(stages, computes):
            stage.compute = compute
    spent["stages"] = sum(
        spent[name] for name in ("hermitian", "cone", "normal", "canonical", "reports", "render")
    )
    return spent


def _batch_pass(cli, dirs):
    outputs = []
    for path in dirs:
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(["batch", str(path)], out=out, err=err)
        outputs.append((code, out.getvalue()))
    return outputs


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", choices=("exact", "batch"), default="exact")
    parser.add_argument("--stages", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--per-class", type=int, default=100)
    parser.add_argument("--dirs", type=int, default=8)
    parser.add_argument("--per-dir", type=int, default=25)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    return args


def _timed(one_pass):
    """``one_pass`` as a pass that returns its own time, the column ``pass``."""

    def run(cli, items):
        start = time.perf_counter()
        one_pass(cli, items)
        return {"pass": time.perf_counter() - start}

    return run


def _report(times, count, per):
    """Print one line per column of the passes in ``times`` (side -> passes,
    each a mapping from column to seconds), paired round by round."""
    for column in times["parent"][0]:
        parent, change = ([p[column] for p in times[side]] for side in ("parent", "change"))
        ratios = [c / p for c, p in zip(change, parent)]
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        wins = sum(ratio < 1.0 for ratio in ratios)
        print(
            f"{column}: parent {1e6 * statistics.median(parent) / count:.1f} us, "
            f"change {1e6 * statistics.median(change) / count:.1f} us per {per}; "
            f"change/parent median {median:.3f}, IQR {q3 - q1:.3f}, "
            f"change faster in {wins} of {len(ratios)} rounds, "
            f"fastest {min(change) / min(parent):.3f}"
        )


def main(argv=None) -> int:
    args = _args(argv)
    sys.path.insert(0, str(ROOT / "bench"))
    import corpus

    sides = {
        "parent": load_package(args.parent.resolve(), "_ab_parent"),
        "change": load_package(args.change.resolve(), "_ab_change"),
    }
    with tempfile.TemporaryDirectory() as tmp:
        if args.workload == "exact":
            items = [entry.m for entry in corpus.exact_corpus(args.seed, args.per_class)]
            stacks = [(m[None], None) for m in items]
            one_pass, units, per = _exact_pass, "inputs", "input"
        else:
            items, stacks = [], []
            for dnum, entries in enumerate(
                corpus.measured_corpus(args.seed, args.dirs, args.per_dir)
            ):
                path = Path(tmp) / f"d{dnum:03d}"
                path.mkdir()
                files = {}
                for f, entry in enumerate(entries):
                    as_json = f % 5 == 4
                    name = entry.name + (".json" if as_json else ".txt")
                    corpus.write_matrix(path / name, entry.m, as_json)
                    files[name] = entry.m
                items.append(path)
                # The files' matrices in name order, as batch reads them back.
                names = sorted(files)
                stacks.append(([files[name] for name in names], names))
            one_pass, units, per = _batch_pass, "directories", "matrix"

        outputs = {name: one_pass(cli, items) for name, cli in sides.items()}
        timed, timed_items = _timed(one_pass), items
        if args.stages:
            timed, timed_items = _stage_pass, stacks
            for cli in sides.values():
                timed(cli, timed_items)
        times = {name: [] for name in sides}
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for name in order:
                times[name].append(timed(sides[name], timed_items))

    workload = f"{args.workload} stages" if args.stages else args.workload
    print(f"{workload}: {len(items)} {units} per pass, {args.rounds} rounds, seed {args.seed}")
    _report(times, sum(len(stack) for stack, _ in stacks), per)
    return _compare(args, sides, outputs, len(items))


def _compare(args, sides, outputs, count) -> int:
    """Print how many of the two sides' outputs differ; 1 if any does, else 0."""
    texts = outputs
    if args.workload == "exact":
        texts = {name: list(map(sides[name].render_report, out)) for name, out in outputs.items()}
    differing = sum(a != b for a, b in zip(texts["parent"], texts["change"]))
    print(f"outputs differ: {differing} of {count}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
