"""wgqed benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload spectrum-gap --seed 0 --seconds 60 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there.  With ``--trace 0`` the workload's CLI command runs in
fresh subprocesses, back to back, for about ``--seconds`` seconds, and
the end-to-end metrics are medians over those invocations.  With
``--trace 1`` the per-layer metrics come from traced.py, which runs the
same command in-process with span wrappers installed.  Every result file
is checked against reference.json.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

The workloads run with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS removed from their environment, so the program runs at
its own default BLAS threading.  Only the host.lu120_ms.one_thread probe
pins one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import host
import traced
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_EXTRA = 2      # set-up probes beyond one per invocation
MIN_INVOCATIONS = 3
RUN_LIMIT_S = 170.0
CLI = "import sys; from wgqed.cli import main; sys.exit(main())"
IMPORT = "import wgqed.cli"


class BenchError(RuntimeError):
    pass


def workload_env():
    env = {k: v for k, v in os.environ.items()
           if k not in host.BLAS_THREAD_VARS and k != "WGQED_WORKERS"}
    env["PYTHONPATH"] = SRC
    env["SOURCE_DATE_EPOCH"] = "0"
    return env


def registered_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class Runner:
    """Starts children in their own session and kills them at the deadline."""

    def __init__(self, deadline, env, work):
        self.deadline = deadline
        self.env = env
        self.work = work

    def timeout(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded %.0f s" % RUN_LIMIT_S)
        return left

    def measure(self, argv, log):
        """(exit code, wall s, user+sys CPU s, peak RSS MB) of argv's process tree.

        CPU and RSS come from wait4, which covers the child and every
        descendant it reaped (pool workers included); RSS is the largest
        single process of the tree.
        """
        log = os.path.join(self.work, log)
        with open(log, "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.work,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    start_new_session=True)
            timer = threading.Timer(self.timeout(), os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            try:
                os.killpg(proc.pid, signal.SIGKILL)   # orphaned pool workers
            except ProcessLookupError:
                pass
            with open(log, errors="replace") as fh:
                sys.stderr.write(fh.read()[-2000:])
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)

    def output(self, argv, env=None):
        """Standard output of argv, which must exit 0."""
        proc = subprocess.Popen(argv, env=env or self.env, cwd=self.work, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=self.timeout())
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError("%s did not finish within %.0f s" % (argv[1], RUN_LIMIT_S))
        if proc.returncode:
            raise BenchError("%s exited %d: %s" % (argv[1], proc.returncode, err.strip()[-2000:]))
        return out


def describe(values, unit):
    """Median with run count, plus the highest percentile that has at
    least ten runs beyond it, when there are enough runs for one."""
    text = "median %.6g %s over %d runs" % (statistics.median(values), unit, len(values))
    if len(values) > 10:
        value, pct = traced.tail(values)
        return text + ", p%.3g %.6g %s" % (pct, value, unit)
    return text + ", no percentile has ten runs beyond it"


def timed(runner, w, seed, seconds):
    """End-to-end metrics of workload w, tracing off."""
    ms = workloads.master_seed(seed)
    ref = workloads.load_reference()[w.name][str(ms)]
    out = os.path.join(runner.work, "result.dat")
    problems, lines, setups = [], [], []

    def setup_probe():
        code, wall, _, _ = runner.measure([sys.executable, "-c", IMPORT], "setup.log")
        if code:
            raise BenchError("import wgqed.cli exited %d" % code)
        return wall

    setup_probe()   # warm the page cache
    walls, cpus, rsss = [], [], []
    attempted = failed = 0
    start = time.monotonic()
    setups += [setup_probe() for _ in range(SETUP_EXTRA)]
    while len(walls) < MIN_INVOCATIONS or (
            time.monotonic() - start + statistics.median(walls)
            + statistics.median(setups) <= seconds):
        # set-up probes interleaved with the invocations see the same host load
        setups.append(setup_probe())
        if os.path.exists(out):
            os.remove(out)
        code, wall, cpu, rss = runner.measure(
            [sys.executable, "-c", CLI, *w.argv(ms, out)], "cli.log")
        found = ["exit code %d" % code] if code else []
        found += workloads.check_result(w, out, ref)
        attempted += w.realizations
        if found:
            failed += w.realizations
            problems += ["invocation %d: %s" % (len(walls), p) for p in found]
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)

    setup_s = statistics.median(setups)
    rates = [w.realizations / max(wall - setup_s, 1e-9) for wall in walls]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "realizations_per_s": statistics.median(rates),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rsss),
        "ok_share": (attempted - failed) / attempted,
    }
    lines += [
        "wall_s: " + describe(walls, "s"),
        "setup_s: " + describe(setups, "s"),
        "realizations_per_s: %s (one realization: %s)"
        % (describe(rates, "1/s"), w.realization),
        "cpu_s: " + describe(cpus, "s"),
        "peak_rss_mb: " + describe(rsss, "MB") + " (largest single process of the tree)",
        "failed_share: %d/%d = %.6g" % (failed, attempted, failed / attempted),
    ]
    return metrics, problems, attempted, failed, lines


def layered(runner, w, seed, seconds):
    """Per-layer metrics from traced.py plus the one-thread LU probe."""
    argv = [sys.executable, os.path.join(HERE, "traced.py"), "--workload", w.name,
            "--master-seed", str(workloads.master_seed(seed)),
            "--seconds", str(seconds), "--out-dir", runner.work]
    report = json.loads(runner.output(argv).strip().splitlines()[-1])
    one = json.loads(runner.output(
        [sys.executable, os.path.join(HERE, "host.py")],
        env=dict(runner.env, OPENBLAS_NUM_THREADS="1")))
    metrics = dict(report["metrics"])
    metrics["host.lu120_ms.one_thread"] = one["lu120_ms"]
    return metrics, report["problems"], report["attempted"], report["failed"], report["notes"]


def main(argv=None):
    ap = argparse.ArgumentParser(description="wgqed benchmark (see perfbench/NOTES.md)")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wgqed", "cli.py")):
        print("perfbench: no wgqed source at %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    end_to_end, per_layer = registered_metrics()
    units = per_layer if ns.trace else end_to_end
    w = workloads.WORKLOADS[ns.workload]

    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, "run-%d" % os.getpid())
    os.makedirs(work)
    runner = Runner(time.monotonic() + RUN_LIMIT_S, workload_env(), work)
    try:
        record = json.loads(runner.output([sys.executable, os.path.join(HERE, "host.py")]))
        if ns.trace:
            metrics, problems, attempted, failed, lines = layered(runner, w, ns.seed, ns.seconds)
            metrics["host.lu120_ms.default"] = record["lu120_ms"]
        else:
            metrics, problems, attempted, failed, lines = timed(runner, w, ns.seed, ns.seconds)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        print("perfbench: emitted metrics differ from BENCHMARK.json: missing %s, extra %s"
              % (sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))),
              file=sys.stderr)
        return 1

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(WORK, "%s-trace%d.json" % (w.name, ns.trace)), "w") as fh:
        json.dump({"workload": w.name, "seed": ns.seed, "host": record, "lines": lines,
                   "problems": problems, "result": result}, fh, indent=1)
    print("workload %s, seed %d (master seed %d), %s"
          % (w.name, ns.seed, workloads.master_seed(ns.seed), "traced" if ns.trace else "untraced"))
    print("host: " + json.dumps(record, sort_keys=True))
    for line in lines:
        print(line)
    for name in sorted(metrics):
        print("%-45s %.6g %s" % (name, metrics[name], units[name]))
    for p in problems:
        print("CHECK FAILED: " + p)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
