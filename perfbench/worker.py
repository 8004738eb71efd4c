"""One pass of one workload in one fresh, single-threaded process.

Run by run.py as `python3 perfbench/worker.py --workload W --seed N
--trace 0|1`; prints one JSON object with the raw measurements of its
input building and its pass.  The grouplab package is imported from the
checkout's own `src/`.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

K_SET = [1, 2, 3]

RUNGS = {
    "z300": {"kind": "named", "name": "cyclic", "args": [300]},
    "e2-5": {"kind": "named", "name": "elem_abelian", "args": [2, 5]},
    "s4xs3": {"kind": "direct", "parts": [
        {"kind": "named", "name": "sym", "args": [4]},
        {"kind": "named", "name": "sym", "args": [3]}]},
    "hol19": {"kind": "named", "name": "holomorph_cyclic", "args": [19]},
}


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_grouplab():
    """(Re-)import every grouplab layer from the checkout; return the modules."""
    for name in [n for n in sys.modules
                 if n == "grouplab" or n.startswith("grouplab.")]:
        del sys.modules[name]
    cli = importlib.import_module("grouplab.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"grouplab imported from {cli.__file__}, not {SRC}")
    return {n: importlib.import_module(f"grouplab.{n}")
            for n in ("permgroup", "lattice", "structure", "classes",
                      "submodular", "harness", "cli")}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


def install(tracer) -> None:
    import tracer as tracing

    tracing.install(tracer)


class Pass:
    """Measurements of one pass: the input build's and every operation's
    time, operation names, attempts, failures.  Passes of one workload and
    seed run the same operations in the same order.

    Times are scaled to the host's nominal speed by `speed`
    (hostspeed.HostSpeed), which samples while the pass runs; the traced
    pass has no `speed` and keeps wall times.
    """

    def __init__(self, tracer, speed):
        self.tracer, self.speed = tracer, speed
        self.build_window: tuple[float, float] | None = None
        self.windows: list[tuple[float, float]] = []
        self.op_names: list[str] = []
        self.attempted = self.failed = 0
        if speed is not None:
            speed.start()

    def build(self, fn, *args):
        """Build the pass's input, timed as set-up; return it."""
        gc.collect()
        t0 = time.perf_counter()
        result = fn(*args)
        self.build_window = (t0, time.perf_counter())
        return result

    def timed(self, name: str, fn, *args):
        """Run one operation cold; return its result or exception."""
        gc.collect()
        if self.tracer is not None:
            self.tracer.item_id = len(self.windows)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # an operation that raises has failed
            result = exc
        self.windows.append((t0, time.perf_counter()))
        self.op_names.append(name)
        return result

    def times(self) -> dict:
        """Wall and scaled milliseconds of each operation, and the scaled
        seconds of the input build, if the pass built one."""
        def scale(t0, t1):
            return (t1 - t0, t1 - t0) if self.speed is None \
                else self.speed.scaled_s(t0, t1)

        if self.speed is not None:
            self.speed.stop()
        ops = [scale(*w) for w in self.windows]
        return {"wall_ms": [wall * 1000 for wall, _ in ops],
                "ops_ms": [scaled * 1000 for _, scaled in ops],
                "build_s": [scale(*self.build_window)[1]]
                if self.build_window else []}

    def count(self, attempted: int, failed: int, why: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(why, file=sys.stderr)


# -- workloads ---------------------------------------------------------------
# Each runs one pass into `run`.  `run.tracer` is None on the untraced run;
# it is installed after set-up, so set-up is never traced.  Import time is
# measured by run.py, in fresh interpreters.


def corpus_verify(seed, run, limit=None):
    """Paper verification: all 11 suites at k = 1,2,3 over the corpus."""
    ref = load_reference()["corpus"]

    def build(mods):
        harness = mods["harness"]
        if limit:  # reduced input for the self-test: a smaller order cap
            return harness.build_corpus(harness.CorpusConfig(cap=limit))
        return harness.build_corpus()

    mods = import_grouplab()
    harness = mods["harness"]
    corpus = run.build(build, mods)
    if run.tracer is not None:
        # build the corpus again under tracing: build_corpus is a layer too
        install(run.tracer)
        corpus = None
        gc.collect()
        corpus = build(mods)
    for suite in harness.SUITE_IDS:
        rep = run.timed(suite, harness.run_suite, suite, K_SET, corpus)
        if isinstance(rep, Exception):  # a crash fails every record
            n = ref["records"][suite]
            run.count(n, n, f"{suite}: {type(rep).__name__}: {rep}")
            continue
        n = len(rep.entries)
        bad = [r["group"] for r in rep.entries if not r["pass"]]
        failed, why = len(bad), f"{suite}: failing records {bad}"
        if not rep.passed and not bad:  # a vacuous check fails the suite
            failed, why = n, f"{suite}: suite fails {rep.summary()}"
        elif limit is None and digest(strip_elapsed(rep.to_json())) \
                != ref["digests"][suite]:
            failed, why = n, f"{suite}: report differs from its pinned digest"
        run.count(n, failed, why)


def _rung(mods, spec):
    permgroup, submodular, structure = (mods["permgroup"], mods["submodular"],
                                        mods["structure"])
    G = permgroup.group_from_spec(spec)
    L = G.lattice()
    ksub = [len(submodular.ksub_set(L, k)) for k in K_SET]
    classes = "".join("1" if submodular.in_class(L, c, k) else "0"
                      for k in K_SET for c in submodular.CLASS_IDS)
    return {"order": G.order, "subgroups": len(L), "ksub": ksub,
            "classes": classes, "supersoluble": structure.is_supersoluble(G)}


def divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def gaussian_binomial_sum(n: int, q: int) -> int:
    """Number of subspaces of GF(q)^n: sum over k of the q-binomials."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


INDEPENDENT_SUBGROUP_COUNTS = {"z300": divisor_count(300),
                               "e2-5": gaussian_binomial_sum(5, 2)}


def scale_ladder(seed, run, limit=None):
    """Each rung once, cold: spec -> group -> lattice -> ksub_set -> classes."""
    expect = load_reference()["ladder"]
    mods = import_grouplab()
    if run.tracer is not None:
        install(run.tracer)
    for rung, spec in RUNGS.items():
        got = run.timed(rung, _rung, mods, spec)
        independent = INDEPENDENT_SUBGROUP_COUNTS.get(rung)
        ok = got == expect[rung] and (independent is None
                                      or got["subgroups"] == independent)
        run.count(1, 0 if ok else 1,
                  f"{rung}: got {got}, expected {expect[rung]}")


def cli_queries(seed, run, limit=None):
    """Seeded closed loop of cold `grouplab.cli.main(argv)` calls."""
    import queries

    ref = load_reference()["cli"]
    mods = import_grouplab()
    specs = ref["specs"][:limit] if limit else ref["specs"]
    pool = queries.build_pool(specs)
    if limit is None and digest(pool) != ref["pool_digest"]:
        raise RuntimeError("query pool differs from the pinned pool")
    order = queries.stream(len(pool), seed)
    expect = ref["outputs"]
    if run.tracer is not None:
        install(run.tracer)
    main = mods["cli"].main

    def query(argv, out):
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(argv)

    # a CLI process starts with an empty heap: keep the pool and the loaded
    # modules out of the collections that run between and inside queries
    gc.collect()
    gc.freeze()
    for idx in order:
        out = io.StringIO()
        code = run.timed(queries.command(pool[idx]), query, pool[idx], out)
        got = [code if isinstance(code, int) else repr(code),
               hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]]
        ok = code in (0, 1) and (limit is not None or got == expect[idx])
        run.count(1, 0 if ok else 1,
                  f"query {pool[idx]}: got {got}, expected {expect[idx]}")


WORKLOADS = {
    "corpus-verify": corpus_verify,
    "scale-ladder": scale_ladder,
    "cli-queries": cli_queries,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None,
                    help="reduced input for the self-test: corpus order cap "
                         "(corpus-verify) or number of query specs "
                         "(cli-queries); skips the pinned-digest checks")
    args = ap.parse_args(argv)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import tracer as tracing

    tr = tracing.Tracer() if args.trace else None
    run = Pass(tr, None if args.trace else hostspeed.HostSpeed())
    WORKLOADS[args.workload](args.seed, run, args.limit)
    result = {
        "workload": args.workload, "seed": args.seed,
        "attempted": run.attempted, "failed": run.failed,
        **run.times(), "op_names": run.op_names,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tr is not None:
        result["layers"] = tr.layer_totals()
        result["counts"] = dict(tr.counts)
        result["closures"] = tr.child_calls("permgroup.closure_mask",
                                            "lattice.all_subgroups")
        result["suite_s"] = {str(k): v for k, v in
                             tr.item_totals("harness.run_suite").items()}
        tr.write(os.path.join(OUT, f"spans-{args.workload}"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
