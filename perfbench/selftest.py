"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py [workload ...]

For each workload, runs run.py at its shortest run length (--seconds 1,
which still makes the minimum number of invocations) with tracing off
and on, and checks that the run exits 0, passes its output checks and
emits exactly the metrics BENCHMARK.json registers for that mode, each
a finite number with the registered unit.  Then checks that run.py
refuses, with a non-zero exit and no result line, in a directory that
holds only BENCHMARK.json and perfbench/.  Takes a few minutes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import run
import workloads


def result_line(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def check_run(name, trace, units):
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                           "--workload", name, "--seed", "1", "--seconds", "1",
                           "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True)
    problems = []
    res = result_line(proc.stdout)
    if proc.returncode or res is None:
        return ["exit %d, stderr: %s" % (proc.returncode, proc.stderr[-1000:])]
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(res))
    if res.get("correct") is not True or res.get("failed") != 0 or res.get("attempted", 0) < 1:
        problems.append("correct=%r attempted=%r failed=%r"
                        % (res.get("correct"), res.get("attempted"), res.get("failed")))
    metrics = res.get("metrics", {})
    if set(metrics) != set(units):
        problems.append("metrics differ: missing %s, extra %s"
                        % (sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))))
    for key, m in metrics.items():
        if m.get("unit") != units.get(key):
            problems.append("%s: unit %r, registered %r" % (key, m.get("unit"), units.get(key)))
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append("%s: value %r" % (key, m.get("value")))
    return problems


def check_bare_directory():
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as bare:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "g2-opaque", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or result_line(proc.stdout) is not None:
        return ["bare directory: exit %d, stdout %r" % (proc.returncode, proc.stdout[-300:])]
    return []


def main(names):
    end_to_end, per_layer = run.registered_metrics()
    failures = 0
    for name in names or sorted(workloads.WORKLOADS):
        for trace, units in ((0, end_to_end), (1, per_layer)):
            problems = check_run(name, trace, units)
            failures += bool(problems)
            print("%s trace=%d: %s" % (name, trace, "; ".join(problems) or "ok"))
    problems = check_bare_directory()
    failures += bool(problems)
    print("bare directory: %s" % ("; ".join(problems) or "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
