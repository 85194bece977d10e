"""In-memory spans around every call into the package's public functions.

The tracer lives in the benchmark, not in the library: it replaces each
public function of each layer module by a timing wrapper, in every module
namespace that holds a reference to it, so calls between modules (say,
``classify`` calling ``certify_cone``) are recorded too.  A span is
``(name, start_ns, end_ns, parent, op, outcome)``: ``parent`` is the index
of the enclosing span (-1 at the top), ``op`` the benchmark operation it
belongs to and ``outcome`` ``"ok"`` or the name of the exception raised.
"""

import inspect
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("core", "conetest", "choi", "canonical", "witness", "cli")

# Tail percentile of span durations: the highest rung with at least ten
# samples beyond it in one pass over the corpus, so that for a workload the
# rung does not change with the number of passes a run makes.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

FAMILIES = ("TypeI", "TypeII", "Polarizer", "PinMap", "NotPreMueller", "Indeterminate")
TIERS = ("mueller", "pre_only", "not_pre")

# Per-layer metrics, in output order, with their units.  Busy times and
# counts are per pass over the workload's corpus, so they do not depend on
# how many passes fit in the run.
PER_LAYER = (
    [(f"conetest.certify_cone.{k}", u) for k, u in
     (("calls", "count"), ("busy_s", "s"), ("us_p50", "us"), ("us_tail", "us"))]
    + [(f"canonical.classify.{k}", u) for k, u in
       (("calls", "count"), ("busy_s", "s"), ("us_p50", "us"), ("us_tail", "us"),
        ("excl_cone_s", "s"))]
    + [(f"canonical.type1_factor.{k}", u) for k, u in
       (("busy_s", "s"), ("ok", "count"), ("degenerate", "count"), ("not_type1", "count"))]
    + [(f"canonical.family.{f}", "count") for f in FAMILIES]
    + [("canonical.indeterminate_frac", "ratio")]
    + [(f"{name}.busy_s", "s") for name in
       ("choi.physicality", "choi.mueller_jones_test", "choi.jones_ensemble",
        "witness.witness_certificate", "witness.expectation")]
    + [("core.h_from_m.calls", "count"), ("core.h_from_m.busy_s", "s"),
       ("core.h_from_m.us_p50", "us")]
    + [(f"cli.{name}.{k}", u) for name in ("load_matrix", "analyze_matrix", "render_report")
       for k, u in (("busy_s", "s"), ("us_p50", "us"))]
    + [("cli.analyze_matrix.subcall_ratio", "ratio"),
       ("cli.interp_ms", "ms"), ("cli.import_ms", "ms")]
    + [(f"tier.{t}", "count") for t in TIERS]
    + [("trace.overhead_frac", "ratio")]
)


def tail_percentile(n: int) -> float:
    """Highest rung of TAIL_LADDER with at least ten of n samples beyond it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of a non-empty sequence."""
    data = sorted(values)
    pos = (len(data) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


class Tracer:
    """Collects spans while installed; ``op`` tags the spans that follow."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outcome = "ok"
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                outcome = type(exc).__name__
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, outcome)

        return traced

    def install(self, package: str = "muellercert") -> None:
        """Wrap every public function defined in the package's layer modules."""
        layers = {layer: sys.modules[f"{package}.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, mod in layers.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        namespaces = [sys.modules[package], *layers.values()]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def extend(self, spans, op: int) -> None:
        """Append spans recorded elsewhere (a child process) under op."""
        base = len(self.spans)
        for name, start, end, parent, _, outcome in spans:
            self.spans.append(
                (name, start, end, parent + base if parent >= 0 else -1, op, outcome)
            )

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def load_spans(path: Path) -> list:
    return [tuple(s) for s in json.loads(Path(path).read_text())]


def reduce_spans(spans, passes: int, op_factors) -> dict:
    """Per-layer span metrics (per corpus pass) from a list of spans; each
    duration is scaled by the pace factor of its operation."""
    by_name: dict[str, list] = {}
    for idx, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(idx)

    def dur(idx):
        _, start, end, _, op, _ = spans[idx]
        return (end - start) * 1e-9 * op_factors[op]

    out = {}

    def stats(name, keys):
        idxs = by_name.get(name, [])
        times_us = [dur(i) * 1e6 for i in idxs]
        values = {
            "calls": len(idxs) / passes,
            "busy_s": sum(times_us) * 1e-6 / passes,
            "us_p50": statistics.median(times_us) if times_us else 0.0,
            "us_tail": (
                percentile(times_us, tail_percentile(len(idxs) // passes)) if idxs else 0.0
            ),
        }
        for key in keys:
            out[f"{name}.{key}"] = values[key]

    stats("conetest.certify_cone", ("calls", "busy_s", "us_p50", "us_tail"))
    stats("canonical.classify", ("calls", "busy_s", "us_p50", "us_tail"))
    stats("canonical.type1_factor", ("busy_s",))
    for name in ("choi.physicality", "choi.mueller_jones_test", "choi.jones_ensemble",
                 "witness.witness_certificate", "witness.expectation"):
        stats(name, ("busy_s",))
    stats("core.h_from_m", ("calls", "busy_s", "us_p50"))
    for name in ("cli.load_matrix", "cli.analyze_matrix", "cli.render_report"):
        stats(name, ("busy_s", "us_p50"))

    # Derived: classify's busy time minus that of the certify_cone calls it makes.
    cone_in_classify = sum(
        dur(i) for i in by_name.get("conetest.certify_cone", [])
        if spans[i][3] >= 0 and spans[spans[i][3]][0] == "canonical.classify"
    )
    out["canonical.classify.excl_cone_s"] = (
        out["canonical.classify.busy_s"] - cone_in_classify / passes
    )

    outcomes = [spans[i][5] for i in by_name.get("canonical.type1_factor", [])]
    out["canonical.type1_factor.ok"] = outcomes.count("ok") / passes
    out["canonical.type1_factor.degenerate"] = (
        outcomes.count("DegenerateSpectrumError") / passes
    )
    out["canonical.type1_factor.not_type1"] = outcomes.count("NotTypeIError") / passes

    # Summed busy time of every public call made under analyze_matrix, at
    # any depth (nested calls count again), over analyze_matrix's own.
    under = [-1] * len(spans)
    nested = 0.0
    for idx, span in enumerate(spans):
        parent = span[3]
        if parent >= 0:
            under[idx] = parent if spans[parent][0] == "cli.analyze_matrix" else under[parent]
        if under[idx] >= 0:
            nested += dur(idx)
    own = out["cli.analyze_matrix.busy_s"] * passes
    out["cli.analyze_matrix.subcall_ratio"] = nested / own if own > 0 else 0.0
    return out
