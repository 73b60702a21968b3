#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny instances (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  * the result line has exactly the keys correct/attempted/failed/metrics,
    and every end-to-end (--trace 0) or per-layer (--trace 1) metric named
    in BENCHMARK.json appears with its unit, and nothing else;
  * a forced failed check (--force-failure) is counted: correct is false,
    failed >= 1 and ok_share = (attempted - failed) / attempted;
  * the same seed reproduces every deterministic count exactly, and another
    seed changes the instance;
that perfbench/metric_map.json maps exactly BENCHMARK.json's per-layer
metrics onto its end-to-end metrics and workloads; and that run.py, in a
directory holding only BENCHMARK.json and perfbench/, exits non-zero
without printing a result.
Exits 1 on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build + paths)

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))

# Metrics that must repeat exactly for a fixed seed (tiny scale runs a fixed
# number of churn cycles, so the churn counts are deterministic too).
DETERMINISTIC = {
    0: ["certified_ratio", "rounds", "passes", "peak_stored_per_m"],
    1: ["core.oracle_calls", "core.inner_iterations", "core.max_flows",
        "core.gh_incremental", "access.fetch_calls",
        "access.stored_attr_calls", "access.peak_resident_edges",
        "stream.bytes_per_edge_pass", "dynamic.rounds_per_resolve",
        "serve.samples_probe", "serve.samples_resolve",
        "serve.samples_delta"],
}


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def harness(workload, seed, trace, *extra):
    cmd = [run.HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
           "--out-dir", run.OUT] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=170)
    if proc.returncode != 0:
        fail("%s exited %d: %s" % (cmd, proc.returncode, proc.stderr[-500:]))
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(result)))
    return result


def check_names(workload, trace, result):
    want = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if [m["name"] for m in want] != list(got):
        fail("%s trace=%d: metric names differ from BENCHMARK.json:\n%s\n%s"
             % (workload, trace, [m["name"] for m in want], list(got)))
    for m in want:
        if got[m["name"]]["unit"] != m["unit"]:
            fail("%s: %s unit %s, BENCHMARK.json says %s"
                 % (workload, m["name"], got[m["name"]]["unit"], m["unit"]))
        if not isinstance(got[m["name"]]["value"], (int, float)):
            fail("%s: %s is not a number" % (workload, m["name"]))


def value(result, name):
    return result["metrics"][name]["value"]


def check_metric_map():
    mapping = json.load(open(os.path.join(HERE, "metric_map.json")))
    layer = [m["name"] for m in SPEC["per_layer"]]
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    if set(mapping["per_layer"]) != set(layer):
        fail("metric_map.json per_layer differs from BENCHMARK.json: %s"
             % (set(mapping["per_layer"]) ^ set(layer)))
    if set(mapping["workloads"]) != workloads:
        fail("metric_map.json workloads differ from BENCHMARK.json")
    for name, entry in mapping["per_layer"].items():
        for move in entry["moves"]:
            if move["metric"] not in e2e or \
                    not set(move["workloads"]) <= workloads:
                fail("metric_map.json: %s maps to unknown %s" % (name, move))


def check_bare_checkout():
    bare = os.path.join(run.ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_mem",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run.py without the library sources exited %d with output %r"
             % (proc.returncode, proc.stdout[-200:]))


def main():
    if not run.build():
        fail("build failed")
    os.makedirs(run.OUT, exist_ok=True)
    check_metric_map()
    print("selftest: metric_map.json matches BENCHMARK.json: ok")
    for w in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            first = harness(w, 7, trace)
            check_names(w, trace, first)
            if not first["correct"] or first["failed"] != 0:
                fail("%s trace=%d: run not correct: %s" % (w, trace, first))
            again = harness(w, 7, trace)
            for name in DETERMINISTIC[trace]:
                if value(first, name) != value(again, name):
                    fail("%s: %s not reproduced by the seed: %r vs %r"
                         % (w, name, value(first, name), value(again, name)))
            if trace == 0:
                other = harness(w, 8, trace)
                if value(other, "certified_ratio") == \
                        value(first, "certified_ratio"):
                    fail("%s: seeds 7 and 8 gave the same certified_ratio"
                         % w)
        forced = harness(w, 7, 0, "--force-failure")
        share = value(forced, "ok_share")
        expect = (forced["attempted"] - forced["failed"]) / forced["attempted"]
        if forced["correct"] or forced["failed"] < 1 or share != expect:
            fail("%s: forced failure not counted: %s" % (w, forced))
        print("selftest: %s ok" % w)
    check_bare_checkout()
    print("selftest: bare checkout exits non-zero without a result: ok")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
