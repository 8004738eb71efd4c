"""Regenerate reference.json, the benchmark's pinned correct outputs.

    python3 perfbench/make_reference.py

Run it only when a change to the program is meant to change its outputs, and
say so in the change: every correctness gate of the benchmark compares
against this file.  It takes a few minutes.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

import worker

# cold per-invocation pool: groups of order 120 and up cost seconds each
CLI_SPEC_MAX_ORDER = 119


def main() -> int:
    sys.path.insert(0, worker.SRC)
    mods = worker.import_grouplab()
    harness = mods["harness"]
    corpus = harness.build_corpus()
    digests, records = {}, {}
    for suite in harness.SUITE_IDS:
        rep = harness.run_suite(suite, worker.K_SET, corpus, jobs=1)
        if not rep.passed:
            raise SystemExit(f"suite {suite} fails; not pinning a failing report")
        digests[suite] = worker.digest(worker.strip_elapsed(rep.to_json()))
        records[suite] = len(rep.entries)
        print(f"{suite}: {records[suite]} records", file=sys.stderr)

    ladder = {}
    for rung, spec in worker.RUNGS.items():
        ladder[rung] = worker._rung(mods, spec)
        independent = worker.INDEPENDENT_SUBGROUP_COUNTS.get(rung)
        if independent is not None and ladder[rung]["subgroups"] != independent:
            raise SystemExit(f"{rung}: lattice has {ladder[rung]['subgroups']} "
                             f"subgroups, expected {independent}")
        print(f"{rung}: {ladder[rung]}", file=sys.stderr)

    import queries

    specs = [[e.name, e.spec] for e in corpus if e.order <= CLI_SPEC_MAX_ORDER]
    pool = queries.build_pool(specs)
    outputs = []
    for argv in pool:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = mods["cli"].main(argv)
        if code not in (0, 1):
            raise SystemExit(f"query {argv} exited {code}")
        outputs.append([code, hashlib.sha256(
            out.getvalue().encode()).hexdigest()[:16]])
    print(f"cli: {len(specs)} specs, {len(pool)} pool queries", file=sys.stderr)

    ref = {"corpus": {"digests": digests, "records": records},
           "ladder": ladder,
           "cli": {"specs": specs, "pool_digest": worker.digest(pool),
                   "outputs": outputs}}
    with open(os.path.join(worker.HERE, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
