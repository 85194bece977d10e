"""Benchmark of muellercert: three workloads against the public API and CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each a single process, one client, closed loop: the next
operation starts when the previous one has returned):

* ``measured-batch``: ``cli.main(["batch", DIR])`` in-process over
  directories of noisy lab-like measurements; one operation is one batch
  call, its output goes to an in-memory sink.  Near-boundary inputs keep
  ``certify_cone`` (run twice per matrix) busy, and a stacked batch kernel
  would show here.
* ``exact-library``: ``analyze_matrix(m)`` once per matrix, no rendering,
  over exact constructions whose tier is known.  ``canonical`` does a
  larger share of the work; this is the N = 1 side of any batch kernel.
* ``cli-analyze``: one ``python -m muellercert.cli analyze FILE`` process
  per file.  Interpreter start and imports dominate, so a numeric
  optimisation should leave it unchanged.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
inputs in alternating chunks, untraced and traced, and reports per-layer
metrics from spans around every public call (bench/spans.py), with the
tracing overhead as the difference between the two sides.

Every time is reported at reference host pace (bench/pace.py): a fixed
numpy kernel, timed between operations, tracks how fast the shared host
runs at the moment, and times are scaled to the pace at which the kernel
takes pace.REFERENCE_S.  On the 2-vCPU VM this was written on, raw speed
drifts by up to 1.7x between runs; the scaled figures hold within a few
percent.

Every output is checked against an oracle that shares no code with the
library (bench/oracle.py); an operation fails if it raises, exits with the
wrong code or disagrees with the oracle, and failed operations are left out
of the timings.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# BLAS pinned to one thread, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import corpus  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
from pace import REFERENCE_S, Pace  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = [sys.executable, str(BENCH / "child.py")]
CHILD_TIMEOUT_S = 60

# Fresh interpreters started to measure set-up time; setup_s is their median.
SETUP_REPEATS = 11
# Fresh interpreters for cli.interp_ms and cli.import_ms in traced runs.
PROBE_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_mps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class ExactLibrary:
    """analyze_matrix over exact constructions with a known tier."""

    name = "exact-library"
    # 6000 matrices: enough that the share of inputs on the slow path of
    # certify_cone, and with it every figure, barely moves between seeds.
    per_class = 1000
    matrices_per_op = 1
    # About 500 operations a second, so p99 has well over ten samples beyond.
    tail_pct = 99.0
    warm_ops = 300
    trace_chunk = 100

    def __init__(self, seed, work):
        self.entries = corpus.exact_corpus(seed, self.per_class)
        self.items = list(range(len(self.entries)))

    def run(self, k):
        return cli.analyze_matrix(self.entries[k].m)

    def run_traced(self, k, tracer):
        return self.run(k)

    def check(self, k, out):
        entry = self.entries[k]
        return oracle.check_report(entry.m, out, entry.tier), [out]

    def setup_argv(self):
        return CHILD + ["library", *(repr(float(x)) for x in self.entries[0].m.ravel())]


class MeasuredBatch:
    """The batch command over directories of noisy measurements."""

    name = "measured-batch"
    dirs = 48
    # 25 files per directory: one batch call takes about 0.1 s.
    per_dir = 25
    # About 10 calls a second, so p90 has about thirty samples beyond.
    tail_pct = 90.0
    warm_ops = 4
    trace_chunk = 2
    # Every fifth file is JSON, the other input format load_matrix reads.
    json_every = 5

    def __init__(self, seed, work):
        self.dirs_entries = corpus.measured_corpus(seed, self.dirs, self.per_dir)
        self.paths = []
        self.files = []
        for dnum, entries in enumerate(self.dirs_entries):
            path = work / "batch" / f"d{dnum:03d}"
            path.mkdir(parents=True)
            names = []
            for f, entry in enumerate(entries):
                as_json = f % self.json_every == self.json_every - 1
                fname = entry.name + (".json" if as_json else ".txt")
                corpus.write_matrix(path / fname, entry.m, as_json)
                names.append(fname)
            self.paths.append(path)
            self.files.append(names)
        self.items = list(range(self.dirs))
        self.matrices_per_op = self.per_dir

    def run(self, k):
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(["batch", str(self.paths[k])], out=out, err=err)
        return code, out.getvalue()

    def run_traced(self, k, tracer):
        return self.run(k)

    def check(self, k, out):
        code, text = out
        if code != 0:
            return [f"batch exited {code}"], []
        data = json.loads(text)
        problems, reports = [], []
        for fname, entry in zip(self.files[k], self.dirs_entries[k]):
            report = data.get(fname)
            if report is None or "error" in report:
                problems.append(f"{fname}: no report")
                continue
            problems += [f"{fname}: {p}" for p in oracle.check_report(entry.m, report)]
            reports.append(report)
        return problems, reports

    def setup_argv(self):
        return CHILD + ["batch", str(self.paths[0])]


class CliAnalyze:
    """One ``analyze`` process per file, files drawn from the exact corpus."""

    name = "cli-analyze"
    per_class = 6
    matrices_per_op = 1
    # About four processes a second, so p80 keeps about twenty samples
    # beyond in 30 s; p90, with ten, spread by up to 13% between runs.
    tail_pct = 80.0
    warm_ops = 3
    trace_chunk = 1
    json_every = 5
    # After every bad_every-th valid file comes one that is not a valid
    # matrix (15 numbers, or a non-numeric token); the correct outcome is
    # exit code 2, the CLI's input-error contract.
    bad_every = 10
    bad_inputs = ("1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0\n", "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 x\n")

    def __init__(self, seed, work):
        path = work / "cli"
        path.mkdir()
        self.items = []  # (file, entry or None for a bad input)
        for k, entry in enumerate(corpus.exact_corpus(seed, self.per_class)):
            as_json = k % self.json_every == self.json_every - 1
            fname = path / (entry.name + (".json" if as_json else ".txt"))
            corpus.write_matrix(fname, entry.m, as_json)
            self.items.append((fname, entry))
            if k % self.bad_every == self.bad_every - 1:
                bad = path / f"bad{k:05d}.txt"
                bad.write_text(self.bad_inputs[(k // self.bad_every) % 2])
                self.items.append((bad, None))
        self.spans_file = work / "child-spans.json"

    def _argv(self, k):
        return [sys.executable, "-m", "muellercert.cli", "analyze", str(self.items[k][0])]

    def run(self, k):
        proc = subprocess.run(
            self._argv(k), capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S
        )
        return proc.returncode, proc.stdout

    def run_traced(self, k, tracer):
        self.spans_file.unlink(missing_ok=True)
        proc = subprocess.run(
            CHILD + ["trace-analyze", str(self.items[k][0]), str(self.spans_file)],
            capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
        if self.spans_file.exists():
            tracer.extend(spans.load_spans(self.spans_file), tracer.op)
        return proc.returncode, proc.stdout

    def check(self, k, out):
        code, text = out
        entry = self.items[k][1]
        if entry is None:
            return ([] if code == 2 else [f"bad input exited {code}, expected 2"]), []
        if code != 0:
            return [f"exited {code}"], []
        report = json.loads(text)
        return oracle.check_report(entry.m, report, entry.tier), [report]

    def setup_argv(self):
        return self._argv(0)


WORKLOADS = {wl.name: wl for wl in (MeasuredBatch, ExactLibrary, CliAnalyze)}


class Checker:
    """Validates each item's first output with the oracle and requires every
    later output for the same item to be identical to it."""

    def __init__(self, wl):
        self.wl = wl
        self.first = {}
        self.reports = {}
        self.problems = {}

    def record(self, k, out, error) -> bool:
        if error is not None:
            self.problems.setdefault(k, []).append(f"raised {error!r}")
            return False
        if k not in self.first:
            self.first[k] = out
            try:
                problems, self.reports[k] = self.wl.check(k, out)
            except (ValueError, KeyError, TypeError) as exc:  # malformed output
                problems, self.reports[k] = [f"unreadable output: {exc!r}"], []
            if problems:
                self.problems.setdefault(k, []).extend(problems)
        elif out != self.first[k]:
            self.problems.setdefault(k, []).append("output differs between runs")
            return False
        return k not in self.problems


def one_op(wl, checker, k, tracer=None):
    """Run and check operation k; returns (seconds, matrices, succeeded)."""
    error = None
    start = time.perf_counter()
    try:
        out = wl.run(k) if tracer is None else wl.run_traced(k, tracer)
    except Exception as exc:  # a raising operation is a failed one
        out, error = None, exc
    elapsed = time.perf_counter() - start
    return elapsed, wl.matrices_per_op, checker.record(k, out, error)


def closed_loop(wl, checker, seconds, pace):
    """Run operations back to back, cycling over the items, for ``seconds``.
    Returns (seconds at reference pace, matrices, succeeded) per operation."""
    tagged = []
    deadline = time.perf_counter() + seconds
    while not tagged or time.perf_counter() < deadline:
        tagged.append((pace.tick(), one_op(wl, checker, len(tagged) % len(wl.items))))
    pace.sample()
    return [(t * pace.factor(j), m, ok) for j, (t, m, ok) in tagged]


def traced_loop(wl, checker, seconds, pace, tracer):
    """Alternate chunks of untraced and traced operations for ``seconds``,
    finishing with whole traced passes over the items, so that per-pass
    counts are exact and host drift hits both sides alike.  Returns both
    lists of operations (as closed_loop does) and the pace factor of each
    traced operation, which the tracer tags with its position."""
    n = len(wl.items)
    ref, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline or len(traced) % n:
        for _ in range(wl.trace_chunk):
            ref.append((pace.tick(), one_op(wl, checker, len(ref) % n)))
        tracer.install()
        try:
            for _ in range(min(wl.trace_chunk, n - len(traced) % n)):
                j = pace.tick()
                tracer.op = len(traced)
                traced.append((j, one_op(wl, checker, len(traced) % n, tracer)))
        finally:
            tracer.uninstall()
    pace.sample()

    def scaled(tagged):
        return [(t * pace.factor(j), m, ok) for j, (t, m, ok) in tagged]

    return scaled(ref), scaled(traced), [pace.factor(j) for j, _ in traced]


def fresh_process_s(argv, wait_for_ok: bool) -> float:
    """Seconds from starting argv to its "ok" line (or to its exit)."""
    start = time.perf_counter()
    with subprocess.Popen(
        argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    ) as proc:
        try:
            if wait_for_ok:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                if line.strip() != "ok":
                    raise RuntimeError(f"set-up probe failed: {argv[:4]}")
                proc.wait(timeout=CHILD_TIMEOUT_S)
            else:
                proc.communicate(timeout=CHILD_TIMEOUT_S)
                elapsed = time.perf_counter() - start
        except BaseException:
            proc.kill()
            raise
    return elapsed


def fresh_process_paced(argv, wait_for_ok, repeats, pace) -> float:
    """Median over ``repeats`` fresh processes of fresh_process_s, at
    reference pace."""
    tagged = []
    for _ in range(repeats):
        pace.sample()
        tagged.append((len(pace.samples) - 1, fresh_process_s(argv, wait_for_ok)))
    pace.sample()
    return statistics.median(t * pace.factor(j) for j, t in tagged)


def measure_setup(wl, pace) -> float:
    """Time from a fresh interpreter to a first completed operation; one
    untimed start first, so compiled bytecode is cached."""
    in_process = not isinstance(wl, CliAnalyze)
    fresh_process_s(wl.setup_argv(), in_process)
    return fresh_process_paced(wl.setup_argv(), in_process, SETUP_REPEATS, pace)


def end_to_end(wl, ops, setup_s) -> dict:
    good = [(t, m) for t, m, ok in ops if ok]
    if not good:
        raise RuntimeError("every operation failed")
    lat_ms = [t * 1e3 for t, _ in good]
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliAnalyze) else resource.RUSAGE_SELF
    return {
        "setup_s": setup_s,
        "throughput_mps": sum(m for _, m in good) / sum(t for t, _ in good),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": spans.percentile(lat_ms, wl.tail_pct),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def per_layer(wl, checker, pace, ref_ops, traced_ops, op_factors, tracer, spans_path):
    passes = len(traced_ops) // len(wl.items)
    tracer.dump(spans_path)
    metrics = spans.reduce_spans(spans.load_spans(spans_path), passes, op_factors)

    reports = [r for k in sorted(checker.reports) for r in checker.reports[k]]
    families = [r["canonical"]["family"] for r in reports]
    for fam in spans.FAMILIES:
        metrics[f"canonical.family.{fam}"] = families.count(fam)
    metrics["canonical.indeterminate_frac"] = (
        families.count("Indeterminate") / len(families) if families else 0.0
    )
    tiers = [oracle.report_tier(r) for r in reports]
    for tier in spans.TIERS:
        metrics[f"tier.{tier}"] = tiers.count(tier)

    metrics["cli.interp_ms"] = 1e3 * fresh_process_paced(
        [sys.executable, "-c", "pass"], False, PROBE_REPEATS, pace
    )
    tagged = []
    for _ in range(PROBE_REPEATS):
        pace.sample()
        proc = subprocess.run(
            CHILD + ["import"], capture_output=True, text=True, cwd=ROOT,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        tagged.append((len(pace.samples) - 1, float(proc.stdout)))
    pace.sample()
    metrics["cli.import_ms"] = 1e3 * statistics.median(t * pace.factor(j) for j, t in tagged)

    ref = statistics.median(t for t, _, ok in ref_ops if ok)
    traced = statistics.median(t for t, _, ok in traced_ops if ok)
    metrics["trace.overhead_frac"] = traced / ref - 1.0
    return metrics


def defect_probes(work) -> list[str]:
    """Inputs that fail today for known reasons (ROADMAP open item 4).  They
    are run untimed and reported, not counted, so that the timed workloads
    hold no failing operation while the defects stay visible."""
    found = []
    base = corpus.exact_corpus(0, 1)[2]  # an unphysical cone-preserving Type I input
    for scale in (1e-200, 1e-80, 1e80, 1e200):
        label = f"analyze_matrix at scale {scale:g}"
        try:
            with warnings.catch_warnings(), numpy.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                report = cli.analyze_matrix(base.m * scale)
        except Exception as exc:
            found.append(f"{label}: raises {type(exc).__name__}")
            continue
        problems = oracle.check_report(base.m * scale, report, base.tier)
        found.append(f"{label}: " + ("; ".join(problems) if problems else "ok"))
    nan_file = work / "nan.txt"
    nan_file.write_text("1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 nan\n")
    proc = subprocess.run(
        [sys.executable, "-m", "muellercert.cli", "analyze", str(nan_file)],
        capture_output=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    found.append(f"analyze of a file holding nan: exit {proc.returncode} (2 expected)")
    return found


def run(args, work) -> dict:
    wl = WORKLOADS[args.workload](args.seed, work)
    checker = Checker(wl)
    print(
        "provenance: "
        + json.dumps(
            {
                "workload": wl.name,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "muellercert": muellercert.__version__,
                "nproc": os.cpu_count(),
                "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
                "items_per_pass": len(wl.items),
            }
        ),
        flush=True,
    )
    pace = Pace()
    setup_s = None if args.trace else measure_setup(wl, pace)
    # Warm-up, untimed: caches, lazy set-up and the first oracle checks.
    for k in range(min(len(wl.items), wl.warm_ops)):
        one_op(wl, checker, k)

    if args.trace:
        tracer = spans.Tracer()
        ref_ops, traced_ops, op_factors = traced_loop(wl, checker, args.seconds, pace, tracer)
        ops = ref_ops + traced_ops
        spans_path = WORK / f"spans-{wl.name}.json"
        values = per_layer(
            wl, checker, pace, ref_ops, traced_ops, op_factors, tracer, spans_path
        )
        units = spans.PER_LAYER
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        ops = closed_loop(wl, checker, args.seconds, pace)
        values = end_to_end(wl, ops, setup_s)
        units = END_TO_END

    failed = sum(1 for _, _, ok in ops if not ok)
    for k, problems in sorted(checker.problems.items()):
        print(f"FAILED item {k}: " + "; ".join(problems[:3]))
    for line in defect_probes(work):
        print(f"known-defect probe (untimed, not counted): {line}")
    good = [t for t, _, ok in ops if ok]
    print(
        f"host pace: reference kernel median {1e3 * statistics.median(pace.samples):.4g} ms "
        f"over {len(pace.samples)} samples; times below are at the reference "
        f"{1e3 * REFERENCE_S:.4g} ms (bench/pace.py)"
    )
    print(
        f"operations: {len(ops)} attempted, {failed} failed "
        f"(fail_frac {failed / len(ops):.4g}); "
        + (
            f"latency_tail_ms is p{wl.tail_pct:g} of {len(good)} samples "
            f"({sum(1 for t in good if t * 1e3 > values['latency_tail_ms'])} beyond)"
            if not args.trace
            else f"per-layer busy times and counts are per pass over {len(wl.items)} items"
        )
    )
    metrics = {}
    for name, unit in units:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} = {values[name]:.6g} {unit}")
    return {
        "correct": failed == 0 and not checker.problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "muellercert" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2

    # The package is imported from the checkout's source, here and in every
    # child process.
    global muellercert, cli
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    import muellercert
    from muellercert import cli

    if Path(muellercert.__file__).resolve().parent != SRC / "muellercert":
        print(f"error: imported muellercert from {muellercert.__file__}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
