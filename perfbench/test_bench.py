"""Self-test of the benchmark itself, on reduced inputs; runs in seconds.

    python3 -m pytest -q perfbench/test_bench.py
"""
from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

EXACT_COUNTS = ("lattice.closures", "lattice.subgroups", "lattice.cover_edges",
                "permgroup.quotient.calls", "submodular.step_kind.misses",
                "submodular.ksub_set.misses")


def traced_worker(workload: str, limit: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           workload, "--seed", "7", "--trace", "1",
           "--limit", str(limit)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    return run.per_layer(res, sum(res["wall_ms"]))


@pytest.mark.parametrize("workload,limit", [("corpus-verify", 12),
                                            ("cli-queries", 4)])
def test_counts_repeat_exactly(workload, limit):
    first, second = (traced_worker(workload, limit) for _ in range(2))
    counts = {m: first[m] for m in first if m.endswith((".calls", ".misses"))
              or m in EXACT_COUNTS}
    assert counts == {m: second[m] for m in counts}
    if workload == "corpus-verify":
        assert all(first[m] > 0 for m in EXACT_COUNTS), first
    # the span file written at exit holds every call of the (second) run
    spans = tracer.load_spans(os.path.join(HERE, "out", f"spans-{workload}"))
    written = Counter(spans["names"][i] for i in spans["data"]["name"])
    assert all(written[s] == second[f"{s}.calls"] for s in run.SPANS)


def test_every_binding_site_is_wrapped():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import worker

    mods = worker.import_grouplab()
    originals = {n: getattr(mods["permgroup"], n) for n in
                 ("quotient_cached", "generate", "quotient")}
    sites = tracer.install(tracer.Tracer())
    for mod in ("harness", "classes", "submodular"):
        assert f"grouplab.{mod}.quotient_cached" in \
            sites["permgroup.quotient_cached"]
        wrapped = getattr(mods[mod], "quotient_cached")
        assert wrapped.__wrapped__ is originals["quotient_cached"]
    assert "grouplab.generate" in sites["permgroup.generate"]
    # a second install must find only wrapped bindings, never an original
    for name, orig in originals.items():
        assert all(getattr(m, name, None) is not orig for m in mods.values())
    worker.import_grouplab()  # leave fresh modules for other tests


def test_each_operation_counts_its_median_pass():
    passes = [{"ops_ms": [3.0, 1.0, 9.0]}, {"ops_ms": [2.0, 4.0, 8.0]},
              {"ops_ms": [1.0, 5.0, 7.0]}]
    assert run.median_ops(passes) == [2.0, 4.0, 8.0]
    assert run.p50_and_tail([2.0, 1.0, 9.0]) == (4.0, 9.0, "mean and max of 3")


def test_pass_count_depends_only_on_seconds():
    assert run.pass_count("cli-queries", 10) == 3
    assert run.pass_count("cli-queries", 60) == 8
    assert run.pass_count("corpus-verify", 1) == 2


def test_import_probe_times_grouplab_from_the_checkout():
    times = run.import_seconds(time.time() + 60)
    assert len(times) == run.IMPORT_PROBES and min(times) > 0


def test_host_speed_scales_by_the_samples_around_an_operation():
    speed = hostspeed.HostSpeed()
    speed.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:
        pass
    t1 = time.perf_counter()
    speed.stop()
    assert len(speed.loops) >= 4
    wall, scaled = speed.scaled_s(t0, t1)
    assert wall == pytest.approx(t1 - t0 - sum(speed.loops), abs=1e-3)
    assert scaled == pytest.approx(
        wall * hostspeed.NOMINAL_LOOP_S / statistics.fmean(speed.loops))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(962) == 98
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(11) is None


def test_benchmark_json_matches_the_command():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        run.per_layer_names()


def test_refuses_a_checkout_without_sources():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scale-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
