#!/usr/bin/env python3
"""Smoke test of the marketplace benchmark at toy sizes.

    python3 marketbench/smoke_test.py

Run it from the repository root. For every workload in BENCHMARK.json it
runs run.py --toy, untraced and traced, and asserts that

  * the last output line is the result object with exactly the keys
    correct, attempted, failed and metrics, the run is correct, nothing
    failed, and the process exited 0;
  * every metric BENCHMARK.json names for that mode is emitted with its
    unit (end-to-end metrics are also non-zero);
  * the identity gate ran at least one comparison;
  * a traced run reports its dominant-layer check and writes its spans.

It also checks that the benchmark refuses, with a non-zero exit and no
result line, to run from a directory holding only BENCHMARK.json and the
benchmark's own files.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--toy"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    return done.returncode, done.stdout, done.stderr


def check_run(spec, workload, trace):
    code, out, err = run(workload, trace)
    where = "%s --trace %d" % (workload, trace)
    lines = out.strip().splitlines()
    assert code == 0 and lines, "%s exited %d:\n%s\n%s" % (where, code, out,
                                                           err[-2000:])
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], \
        where
    assert result["correct"] is True and result["failed"] == 0, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in declared), \
        "%s: emitted %s" % (where, sorted(metrics))
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], "%s: %s unit %s" % (
            where, m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)), where
        if not trace:
            assert got["value"] > 0, "%s: %s is 0" % (where, m["name"])
    gate = re.search(r"identity gate: OK \((\d+) comparison", out)
    assert gate and int(gate.group(1)) >= 1, "%s: identity gate" % where
    if trace:
        assert "dominant layer check:" in out, where
        spans = os.path.join(ROOT, ".bench_build", "runs",
                             "%s-seed7-trace1-toy" % workload, "spans.jsonl")
        assert os.path.getsize(spans) > 0, "%s: no spans" % where
    print("ok   %s (%d ops, %d identity comparisons)" % (
        where, result["attempted"], int(gate.group(1))))


def check_refuses_without_sources():
    bare = tempfile.mkdtemp(prefix="smoke-",
                            dir=os.path.join(ROOT, ".bench_build"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "marketbench"))
        done = subprocess.run(
            [sys.executable, "marketbench/run.py", "--workload", "trace",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert done.returncode != 0, "ran without the source tree"
        assert '"metrics"' not in done.stdout, "printed a result"
        print("ok   refuses to run without the source tree (exit %d)"
              % done.returncode)
    finally:
        shutil.rmtree(bare)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, workload["name"], trace)
    check_refuses_without_sources()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
