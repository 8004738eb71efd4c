"""grouplab benchmark: one command, every workload, checked outputs.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload once, seed 1

A workload repeats a fixed unit of work, a pass, each in its own fresh
single-threaded process (worker.py).  The number of passes depends only on
the workload and --seconds, never on how fast the program runs.  Every pass
runs the same operations in the same order.  Each operation's time is
scaled to the host's nominal speed (hostspeed.py), the operation is timed
by its median over the passes, and the time metrics are sums and
percentiles of those medians.  Import time is measured in fresh
interpreters that load nothing else.  With --trace 1 one more pass runs
traced (tracer.py), and the run reports the per-layer metrics of that pass
plus the tracing overhead against the median untraced pass.  Human-readable
lines come first; the last line of stdout is one JSON object {"correct",
"attempted", "failed", "metrics"}.  The exit code is 0 only when every output passed its
correctness gate.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from tracer import MISS_RULES, SPAN_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# a run at --seconds 10, its minimum passes and a traced pass, ends in this
# time on a host twice as slow as usual; longer runs get three times the
# measured seconds on top of a minute for the import probes and the trace
DEADLINE_S = 170
TAIL_PERCENTILES = (50, 75, 90, 95, 98, 99, 99.5, 99.9)
IMPORT_PROBES = 15
LAYERS = ("permgroup", "lattice", "structure", "classes", "submodular",
          "harness", "cli")

# workload -> (minimum passes, nominal seconds of operations in one pass).
# A run makes max(minimum, ceil(--seconds / nominal)) passes.  The minimums
# are as many passes as fit the time a run may take, about 40 s at
# --seconds 10 on a slow stretch of the 2-core VM the bounds were set on (a
# corpus-verify pass also builds the corpus, 3 s).
PASSES = {"corpus-verify": (2, 13), "scale-ladder": (2, 12),
          "cli-queries": (3, 7.5)}
WORKLOADS = tuple(PASSES)
# the report line of one operation, or of one kind of query
OP_LABEL = {"corpus-verify": "suite_s", "scale-ladder": "rung_s",
            "cli-queries": "query_ms"}

END_TO_END = {  # name -> unit
    "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
    "op_p50_ms": "ms", "op_tail_ms": "ms",
}

# every traced span, grouped by layer; run_suite spans report as suite_s
SPANS = tuple(sorted((s for s in SPAN_NAMES if s != "harness.run_suite"),
                     key=lambda s: LAYERS.index(s.split(".")[0])))
MISS_SPANS = tuple(MISS_RULES)
HIT_RATIOS = ("permgroup.quotient_cached", "lattice.group_lattice")
SUITES = ("T3.1", "T3.2", "T3.3", "T3.5", "T3.6", "P3.1", "T3.6_1",
          "R1", "R2", "R3", "L")


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = "count"
        out[f"{span}.self_s"] = "s"
        if span in MISS_SPANS:
            out[f"{span}.misses"] = "count"
        if span in HIT_RATIOS:
            out[f"{span}.hit_ratio"] = "ratio"
    out.update({"lattice.closures": "count", "lattice.subgroups": "count",
                "lattice.cover_edges": "count",
                "lattice.closure_yield": "ratio", "cli.exit2": "count"})
    out.update({f"harness.suite_s.{s}": "s" for s in SUITES})
    out["trace.overhead_frac"] = "ratio"
    return out


# Spans that must record calls on each workload's traced run; zero calls
# means a wrapper missed its binding site (or the workload lost a layer).
# scale-ladder and cli-queries never build a quotient or a residual.
_NO_QUOTIENTS = ("harness.build_corpus", "permgroup.quotient",
                 "permgroup.epi_verify", "permgroup.quotient_cached",
                 "lattice.subgroup_as_group", "classes.residual_mask",
                 "classes.f_subnormal_set", "classes.in_local_formation",
                 "classes.in_wF")
EXPECTED = {
    "corpus-verify": tuple(s for s in SPANS
                           if s not in ("submodular.is_k_submodular",
                                        "cli.main")),
    "scale-ladder": tuple(s for s in SPANS if s not in _NO_QUOTIENTS + (
        "structure.chief_factors_in", "classes.p_subnormal_set",
        "submodular.submodular_set", "submodular.is_modular_subgroup",
        "submodular.is_k_submodular", "submodular.is_k_LM_group",
        "cli.main")),
    "cli-queries": tuple(s for s in SPANS if s not in _NO_QUOTIENTS),
}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def run_worker(workload, seed, trace, deadline) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.time()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_count(workload: str, seconds: float) -> int:
    least, nominal = PASSES[workload]
    return max(least, math.ceil(seconds / nominal))


PROBE = """import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import grouplab.permgroup, grouplab.lattice, grouplab.structure
import grouplab.classes, grouplab.submodular, grouplab.harness, grouplab.cli
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import hostspeed, statistics
loop = statistics.fmean(hostspeed.loop_s() for _ in range(20))
print((t1 - t0) * hostspeed.NOMINAL_LOOP_S / loop, grouplab.__file__)
"""


def import_seconds(deadline) -> list[float]:
    """Seconds to import every grouplab layer, once per fresh interpreter,
    scaled to the host's nominal speed by hostspeed's loop run right after.

    `-I -S` skips the site module and the environment, so the interpreter
    has loaded no module grouplab imports and the time is its whole cost.
    """
    src = os.path.join(ROOT, "src")
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-c", PROBE, src, HERE], cwd=ROOT,
            capture_output=True, text=True,
            timeout=max(1.0, deadline - time.time()))
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
        sec, path = proc.stdout.split()
        if not path.startswith(src + os.sep):
            raise RuntimeError(f"grouplab imported from {path}, not {src}")
        times.append(float(sec))
    return times


def run_passes(workload, seed, count, deadline) -> list[dict]:
    passes = [run_worker(workload, seed, 0, deadline) for _ in range(count)]
    if any(p["op_names"] != passes[0]["op_names"] for p in passes):
        raise RuntimeError("passes ran different operations")
    return passes


def percentile(values: list[float], p: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest listed percentile with at least ten of n samples beyond it.

    None below 20 samples, where even the median has fewer than ten.
    """
    fit = [p for p in TAIL_PERCENTILES if n * (1 - p / 100) >= 10]
    return fit[-1] if fit else None


def median_ops(passes: list[dict], key: str = "ops_ms") -> list[float]:
    """Each operation's median time over the passes, in ms: scaled to the
    host's nominal speed (`ops_ms`) or wall time (`wall_ms`).

    The median, not the fastest pass: scaling already removes the host's
    slow stretches, and the fastest of a few scaled times is the one most
    likely to be over-corrected.
    """
    return [statistics.median(times)
            for times in zip(*(p[key] for p in passes))]


def p50_and_tail(ms: list[float]) -> tuple[float, float, str]:
    """Median and tail of `ms`, and which percentile the tail is.

    With fewer than 20 values no percentile keeps ten beyond it, and the
    median of a few unlike operations is one noisy operation: the mean and
    the largest value stand in for them.
    """
    tail = tail_percentile(len(ms))
    if tail is None:
        return statistics.fmean(ms), max(ms), f"mean and max of {len(ms)}"
    return (percentile(ms, 50), percentile(ms, tail),
            f"p50 and p{tail:g} of {len(ms)}")


def end_to_end(passes: list[dict], import_s: list[float]) -> tuple[dict, str]:
    """Metric values from untraced passes, and how the op metrics were taken."""
    op_ms = median_ops(passes)
    p50, tail, label = p50_and_tail(op_ms)
    build_s = [t for p in passes for t in p["build_s"]]
    values = {
        "setup_s": statistics.median(import_s)
        + (statistics.median(build_s) if build_s else 0.0),
        "run_s": sum(op_ms) / 1000,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "op_p50_ms": p50,
        "op_tail_ms": tail,
    }
    return values, f"{label} ops, each op's median of {len(passes)} passes"


def per_layer(traced: dict, untraced_ms: float) -> dict:
    """Per-layer metrics of one traced pass; `untraced_ms` is the median
    untraced pass wall time, for the tracing overhead."""
    layers = traced["layers"]
    zero = {"calls": 0, "self_s": 0.0, "misses": 0}
    out = {}
    for span in SPANS:
        row = layers.get(span, zero)
        out[f"{span}.calls"] = row["calls"]
        out[f"{span}.self_s"] = row["self_s"]
        if span in MISS_SPANS:
            out[f"{span}.misses"] = row["misses"]
        if span in HIT_RATIOS:
            out[f"{span}.hit_ratio"] = (1 - row["misses"] / row["calls"]
                                        if row["calls"] else 0.0)
    counts = traced["counts"]
    closures = traced["closures"]
    out["lattice.closures"] = closures
    out["lattice.subgroups"] = counts.get("lattice.subgroups", 0)
    out["lattice.cover_edges"] = counts.get("lattice.cover_edges", 0)
    out["lattice.closure_yield"] = (out["lattice.subgroups"] / closures
                                    if closures else 0.0)
    out["cli.exit2"] = counts.get("cli.exit2", 0)
    suite_s = traced["suite_s"]
    for i, s in enumerate(SUITES):
        out[f"harness.suite_s.{s}"] = suite_s.get(str(i), 0.0)
    out["trace.overhead_frac"] = sum(traced["wall_ms"]) / untraced_ms - 1
    return out


def print_op_lines(workload: str, passes: list[dict]) -> None:
    """One report line per operation name: a suite or rung's time, or the
    p50 and tail of one kind of query."""
    op_ms, names = median_ops(passes), passes[0]["op_names"]
    for name in dict.fromkeys(names):
        ms = [t for t, n in zip(op_ms, names) if n == name]
        label = f"{OP_LABEL[workload]}.{name}"
        if len(ms) == 1:
            print(f"  {label:22s} {ms[0] / 1000:12.4f} s")
        else:
            p50, tail, which = p50_and_tail(ms)
            print(f"  {label:22s} p50 {p50:10.4f} ms, tail {tail:10.4f} ms"
                  f"  [{which}]")


def run_one(workload, seed, seconds, trace, deadline) -> tuple[dict, int]:
    """Run one workload; print its report lines; return (JSON result, exit)."""
    import_s = import_seconds(deadline)
    passes = run_passes(workload, seed, pass_count(workload, seconds),
                        deadline)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values, op_label = end_to_end(passes, import_s)
    print(f"== {workload} seed={seed}: {attempted} operations, "
          f"{failed} failed (failed_frac {failed / attempted:.4f})")
    for name, unit in END_TO_END.items():
        note = f"  [{op_label}]" if name.startswith("op_") else ""
        print(f"  {name:14s} {values[name]:12.4f} {unit}{note}")
    wall_s = sum(median_ops(passes, "wall_ms")) / 1000
    print(f"  {'run_s, wall':14s} {wall_s:12.4f} s  [unscaled]")
    print_op_lines(workload, passes)
    if not trace:
        metrics = {n: {"value": values[n], "unit": u}
                   for n, u in END_TO_END.items()}
    else:
        traced = run_worker(workload, seed, 1, deadline)
        attempted += traced["attempted"]
        failed += traced["failed"]
        layer = per_layer(traced, statistics.median(
            sum(p["wall_ms"]) for p in passes))
        silent = [s for s in EXPECTED[workload] if layer[f"{s}.calls"] == 0]
        if silent:
            print(f"  traced run: expected spans with zero calls: {silent}",
                  file=sys.stderr)
            failed += len(silent)
        units = per_layer_names()
        for name, unit in units.items():
            print(f"  {name:44s} {layer[name]:14.6g} {unit}")
        metrics = {n: {"value": layer[n], "unit": u} for n, u in units.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, 0 if failed == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="default: every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "grouplab", "__init__.py")):
        return fail(f"no grouplab sources under {os.path.join(ROOT, 'src')}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    code = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        deadline = time.time() + max(DEADLINE_S, 3 * args.seconds + 60)
        try:
            result, rc = run_one(workload, args.seed, args.seconds,
                                 args.trace, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError,
                KeyError) as exc:
            return fail(f"{workload}: {exc}")
        code = max(code, rc)
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
