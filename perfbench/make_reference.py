"""Regenerate perfbench/reference.json from the program in ``src/``.

    python3 perfbench/make_reference.py [workload ...]

Runs the CLI command of each workload and of the pool probe once per
master seed in range(REFERENCE_SEEDS), with the same environment as the
benchmark, and stores the compared rows of each result.  The stored
references must come from the commit that defined the benchmark (see
NOTES.md): rerun this only for a workload whose shape changed, and only
on that commit's program, never to make a later change pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import run
import workloads


def main(names):
    try:
        data = workloads.load_reference()
    except FileNotFoundError:
        data = {}
    env = run.workload_env()
    known = dict(workloads.WORKLOADS)
    known[workloads.POOL_PROBE.name] = workloads.POOL_PROBE
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        out = os.path.join(tmp, "ref.dat")
        for name in names or sorted(known):
            w = known[name]
            data[name] = {}
            for seed in range(workloads.REFERENCE_SEEDS):
                subprocess.run([sys.executable, "-c", run.CLI, *w.argv(seed, out)],
                               env=env, check=True, stderr=subprocess.DEVNULL)
                meta, cols = workloads.read_result(out)
                ref = workloads.reference_columns(w, cols)
                problems = workloads.check_result(w, out, ref)
                if problems:
                    raise SystemExit("%s seed %d: %s" % (name, seed, problems))
                data[name][str(seed)] = ref
                print("%s seed %d done" % (name, seed), file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
