"""Traced in-process run of one workload: the per-layer numbers.

Runs the workload through ``wgqed.cli.main(argv)`` inside this process,
first untraced (for the tracing overhead), then with every public
function of the eight layer modules wrapped in a span recorder.  The
program is not modified: the wrappers are installed from here, and each
one is rebound in every ``wgqed`` module that holds the original, since
the package imports with ``from .solver import ...``.  A binding left
unwrapped would silently read as zero, so any original still reachable
after installation fails the run.

The registered workloads run at --workers 1.  The ensemble.* metrics
come from the pool probe, the filling-scan shape of workloads.POOL_PROBE
traced once at --workers 2 and once at --workers 1 (pool workers are
forked, so spans inside them never reach this process); its two result
files must be byte-identical.

run.py starts this script with the workload environment:

    python3 perfbench/traced.py --workload g2-opaque --master-seed 0 \
        --seconds 10 --out-dir <dir>

It prints one JSON object: the metrics, the problems found, and the
realizations attempted and failed.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import pickle
import statistics
import sys
import time
import traceback
from collections import defaultdict

import workloads

LAYERS = ("sampling", "solver", "transfer_matrix", "correlations", "dynamics",
          "ensemble", "io", "cli")
PAIR_LABEL = "two-excitation"
SOLVE_PROBE_N = (60, 100, 200)
PAIR_PROBE_N = (20, 40)
PROBE_SEED = 20200314


def tail(values):
    """(value, percentile) with at least ten samples above it.

    Falls back to the maximum, labelled percentile 100, when there are
    ten samples or fewer.
    """
    v = sorted(values)
    if len(v) <= 10:
        return v[-1], 100.0
    return v[len(v) - 11], 100.0 * (len(v) - 10) / len(v)


class Tracer:
    """Span recorder; self time is a span's duration minus its children's."""

    def __init__(self):
        self.pid = os.getpid()
        self.stats = defaultdict(lambda: defaultdict(float))
        self.counts = defaultdict(int)
        self.ticks = []          # progress-callback times, one list per run_ensemble
        self._stack = []         # time covered by children, one entry per open span

    def wrap(self, fn, name, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:      # forked pool worker
                return fn(*args, **kwargs)
            span = name(args, kwargs) if callable(name) else name
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            if not self._stack and span != "cli.main":
                self.counts["orphan_spans"] += 1
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                st = self.stats[span]
                st["calls"] += 1
                st["total_s"] += elapsed
                st["self_s"] += elapsed - children
            if after is not None:
                after(self.stats[span], args, kwargs, result)
            return result
        return wrapper


# ----------------------------------------------------------------------
# hooks that derive counts from arguments and return values

def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _solve_name(args, kwargs):
    label = _arg(args, kwargs, 2, "label", "steady-state")
    return "solver.solve_pair" if label == PAIR_LABEL else "solver.solve_single"


def _after_solve(st, args, kwargs, result):
    n = _arg(args, kwargs, 0, "h").shape[0]
    st["max_n"] = max(st["max_n"], n)
    st["gflop_computed"] += 8.0 * n ** 3 / 3.0 / 1e9   # complex LU
    st["max_residual"] = max(st["max_residual"], float(result[1]))


def _after_build_h2(st, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "phases"))
    pairs = n * (n - 1) // 2
    st["bytes_computed"] += 16.0 * pairs ** 2


def _after_g2_curve(st, args, kwargs, result):
    st["cascade"] += result.base_source == "cascade"


def _after_propagate(st, args, kwargs, result):
    st["expm"] += result[1] == "expm"


def _after_write_result(st, args, kwargs, result):
    st["bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _before_run_ensemble(tracer, args, kwargs):
    ticks = [time.perf_counter()]
    tracer.ticks.append(ticks)
    inner = _arg(args, kwargs, 5, "progress")

    def progress(done, total):
        ticks.append(time.perf_counter())
        if inner is not None:
            inner(done, total)

    if len(args) > 5:
        args = args[:5] + (progress,) + args[6:]
    else:
        kwargs = dict(kwargs, progress=progress)
    return args, kwargs


HOOKS = {
    "solver.solve_with_refinement": dict(name=_solve_name, after=_after_solve),
    "correlations.build_h2": dict(after=_after_build_h2),
    "correlations.g2_curve": dict(after=_after_g2_curve),
    "dynamics.propagate_amplitudes": dict(after=_after_propagate),
    "io.write_result": dict(after=_after_write_result),
    "ensemble.run_ensemble": dict(before=_before_run_ensemble),
}


def _counting_pool(tracer, base):
    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            tracer.counts["pools_created"] += 1
            super().__init__(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            tracer.counts["tasks_submitted"] += 1
            tracer.counts["pickled_bytes"] += len(pickle.dumps((fn, args, kwargs)))
            return super().submit(fn, *args, **kwargs)

    return CountingPool


def install(tracer):
    """Wrap every public layer function and rebind it everywhere.

    Returns (bindings, missed): the modules each wrapped name was rebound
    in, and the (module, name) pairs still holding an original.
    """
    import wgqed.cli  # noqa: F401  (imports every layer)

    package = [m for n, m in sorted(sys.modules.items())
               if n == "wgqed" or n.startswith("wgqed.")]
    originals = {}
    for layer in LAYERS:
        mod = sys.modules["wgqed." + layer]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                key = "%s.%s" % (layer, attr)
                hook = HOOKS.get(key, {})
                originals[id(obj)] = (obj, key, tracer.wrap(
                    obj, hook.get("name", key), hook.get("before"), hook.get("after")))
    bindings = defaultdict(list)
    for mod in package:
        for attr, obj in list(vars(mod).items()):
            entry = originals.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[2])
                bindings[entry[1]].append(mod.__name__)
    ens = sys.modules["wgqed.ensemble"]
    if hasattr(ens, "ProcessPoolExecutor"):
        ens.ProcessPoolExecutor = _counting_pool(tracer, ens.ProcessPoolExecutor)
    missed = [(mod.__name__, attr) for mod in package
              for attr, obj in vars(mod).items()
              if id(obj) in originals and originals[id(obj)][0] is obj]
    return dict(bindings), missed


# ----------------------------------------------------------------------
# runs

def run_cli(argv):
    from wgqed import cli

    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:   # a crash is a failed run, reported like an exit code
        traceback.print_exc()
        code = 1
    return code, time.perf_counter() - t0


def median_ms(fn, reps):
    fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def scaling_probes():
    """Single-detuning scatter at n in SOLVE_PROBE_N and the two-excitation
    steady state (build_h2 plus the pair solve) at n in PAIR_PROBE_N.

    Public entry points are timed rather than the LU call itself, so an
    algorithm change that removes the dense solve still registers.
    """
    from wgqed.correlations import steady_state_truncated
    from wgqed.model import LatticeSpec, PhysicalParams
    from wgqed.sampling import sample_realization
    from wgqed.solver import scatter

    params = PhysicalParams(theta=math.pi / 2, gamma_prime=0.1)
    probes = [("solver.solve_ms.n%d" % n, scatter, n, 41 if n < 200 else 15)
              for n in SOLVE_PROBE_N]
    probes += [("correlations.pair_ms.n%d" % n, steady_state_truncated, n, 21 if n < 40 else 7)
               for n in PAIR_PROBE_N]
    out, problems = {}, []
    for name, fn, n, reps in probes:
        real = sample_realization(LatticeSpec(2 * n, 0.5), 0.0, PROBE_SEED, 0)
        try:
            out[name] = median_ms(lambda: fn(real, params), reps)
        except Exception as exc:   # reported as a failed check, not a crash
            out[name] = 0.0
            problems.append("probe %s: %s: %s" % (name, type(exc).__name__, exc))
    return out, problems


def traced_run(workload, master_seed, out, workers):
    tracer = Tracer()
    bindings, missed = install(tracer)
    try:
        code, wall = run_cli(workload.argv(master_seed, out, workers=workers))
    finally:
        uninstall()
    return tracer, bindings, missed, code, wall


def uninstall():
    """Drop the wrapped modules so the next run starts from fresh imports."""
    for name in [n for n in sys.modules if n == "wgqed" or n.startswith("wgqed.")]:
        del sys.modules[name]


def kernel_metrics(tracer):
    st = tracer.stats
    single, pair = st["solver.solve_single"], st["solver.solve_pair"]
    g2, prop = st["correlations.g2_curve"], st["dynamics.propagate_amplitudes"]
    m = {}
    for key, s in (("solver.solve_single", single), ("solver.solve_pair", pair)):
        m[key + ".calls"] = s["calls"]
        m[key + ".self_s"] = s["self_s"]
        m[key + ".max_residual"] = s["max_residual"]
        m[key + ".gflop_computed"] = s["gflop_computed"]
    m["solver.solve_single.max_n"] = single["max_n"]
    for name in ("solver.effective_hamiltonian", "solver.scatter",
                 "solver.spectrum_scan", "correlations.g2_curve", "io.write_result"):
        m[name + ".self_s"] = st[name]["self_s"]
    for name in ("correlations.build_h2", "transfer_matrix.tm_spectrum",
                 "dynamics.propagate_amplitudes", "sampling.sample_realization"):
        m[name + ".calls"] = st[name]["calls"]
        m[name + ".self_s"] = st[name]["self_s"]
    m["correlations.build_h2.bytes_computed"] = st["correlations.build_h2"]["bytes_computed"]
    m["correlations.g2_curve.cascade_share"] = g2["cascade"] / g2["calls"] if g2["calls"] else 0.0
    m["dynamics.propagate_amplitudes.expm_share"] = (
        prop["expm"] / prop["calls"] if prop["calls"] else 0.0)
    m["io.write_result.bytes_written"] = st["io.write_result"]["bytes_written"]
    for layer in LAYERS:
        m["layer.%s.self_s" % layer] = sum(
            s["self_s"] for k, s in st.items() if k.startswith(layer + "."))
    return m


def kernel_time(tracer):
    """Time run_ensemble spent inside traced calls: the realization kernels."""
    st = tracer.stats["ensemble.run_ensemble"]
    return st["total_s"] - st["self_s"]


def sanity(tracer, wall, missed, label):
    """Problems with one traced run's accounting.

    Every span but cli.main must open inside another; then the summed self
    times equal cli.main's duration, which must fit in the traced wall.
    """
    problems = []
    if tracer.counts["orphan_spans"]:
        problems.append("%s: %d spans opened outside cli.main"
                        % (label, tracer.counts["orphan_spans"]))
    self_sum = sum(s["self_s"] for s in tracer.stats.values())
    if self_sum > wall:
        problems.append("%s: layer self-times sum to %.6f s > traced wall %.6f s"
                        % (label, self_sum, wall))
    if missed:
        problems.append("%s: bindings left unwrapped: %s" % (label, missed))
    if tracer.stats["cli.main"]["calls"] != 1:
        problems.append("%s: cli.main traced %d times, expected once"
                        % (label, tracer.stats["cli.main"]["calls"]))
    return problems


class Checker:
    """Checks result files and counts the realizations attempted and failed."""

    def __init__(self, master_seed):
        self.master_seed = master_seed
        self.refs = workloads.load_reference()
        self.attempted = self.failed = 0
        self.problems = []

    def __call__(self, w, code, out, label):
        found = ["exit code %d" % code] if code else []
        found += workloads.check_result(w, out, self.refs[w.name][str(self.master_seed)])
        self.attempted += w.realizations
        if found:
            self.failed += w.realizations
            self.problems.extend("%s: %s" % (label, p) for p in found)
        return not found


def pool_probe(check, out_dir):
    """ensemble.* metrics from POOL_PROBE traced at --workers 2 and 1."""
    w = workloads.POOL_PROBE
    runs, files = {}, {}
    for workers in (w.workers, 1):
        out = files[workers] = os.path.join(out_dir, "pool-w%d.dat" % workers)
        tracer, _, missed, code, wall = traced_run(w, check.master_seed, out, workers)
        label = "pool probe --workers %d" % workers
        check(w, code, out, label)
        check.problems.extend(sanity(tracer, wall, missed, label))
        runs[workers] = tracer
    with open(files[1], "rb") as a, open(files[w.workers], "rb") as b:
        if a.read() != b.read():
            check.problems.append("pool probe: --workers %d file differs from --workers 1 file"
                                  % w.workers)
    serial, pooled = runs[1], runs[w.workers]
    intervals = [1e3 * (b - a) for ticks in pooled.ticks for a, b in zip(ticks, ticks[1:])]
    tail_ms, tail_pct = tail(intervals) if intervals else (0.0, 100.0)
    run_ens_pooled = pooled.stats["ensemble.run_ensemble"]["total_s"]
    metrics = {
        "ensemble.pools_created": pooled.counts["pools_created"],
        "ensemble.tasks_submitted": pooled.counts["tasks_submitted"],
        "ensemble.pickled_bytes": pooled.counts["pickled_bytes"],
        "ensemble.overhead_s": serial.stats["ensemble.run_ensemble"]["self_s"],
        "ensemble.parallel_efficiency": (
            kernel_time(serial) / (w.workers * run_ens_pooled) if run_ens_pooled else 0.0),
        "ensemble.realization_ms.p50": statistics.median(intervals) if intervals else 0.0,
        "ensemble.realization_ms.tail": tail_ms,
    }
    note = ("pool probe: realization_ms.tail is p%.4g of %d intervals"
            % (tail_pct, len(intervals)))
    return metrics, note


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--master-seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out-dir", required=True)
    ns = ap.parse_args()
    w = workloads.WORKLOADS[ns.workload]
    out = os.path.join(ns.out_dir, "traced.dat")
    check = Checker(ns.master_seed)

    metrics, problems = scaling_probes()
    check.problems.extend(problems)

    # Untraced in-process runs for the overhead baseline, within a third
    # of the run length (at least one).
    untraced = []
    t_start = time.perf_counter()
    while not untraced or (time.perf_counter() - t_start
                           + statistics.median(untraced) <= ns.seconds / 3):
        code, wall = run_cli(w.argv(ns.master_seed, out))
        check(w, code, out, "untraced")
        untraced.append(wall)

    tracer, bindings, missed, code, wall = traced_run(w, ns.master_seed, out, w.workers)
    check(w, code, out, "traced")
    check.problems.extend(sanity(tracer, wall, missed, "traced"))
    metrics.update(kernel_metrics(tracer))
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - statistics.median(untraced)
    pool, pool_note = pool_probe(check, ns.out_dir)
    metrics.update(pool)

    multi = {k: v for k, v in bindings.items() if len(v) > 1}
    notes = ["untraced in-process walls: %s" % ", ".join("%.4f" % x for x in untraced),
             pool_note,
             "names bound in several modules, all rebound: %s" % json.dumps(multi)]
    print(json.dumps({"metrics": metrics, "problems": check.problems, "notes": notes,
                      "attempted": check.attempted, "failed": check.failed}))


if __name__ == "__main__":
    main()
