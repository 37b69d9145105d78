"""Host record and the fixed complex-LU probe.

Run as a script it prints one JSON object: the host record plus
``lu120_ms``, the median time of one refined LU solve of a fixed seeded
120 x 120 complex matrix (scipy factor and solve, numpy residual, scipy
solve again: the call sequence of a steady-state solve) under whatever
BLAS threading the environment gives it.  run.py starts it once as is
and once with OPENBLAS_NUM_THREADS=1, so the two numbers show the BLAS
thread penalty at the size the spectrum-gap workload solves.  The
numpy residual is part of the probe because numpy and scipy may each
bring their own OpenBLAS thread pool, and handing work between the two
is where the penalty was seen.

    python3 perfbench/host.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LU_PROBE_N = 120
LU_PROBE_REPS = 41


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas(show_config):
    try:
        blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        return "unknown"


def record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.show_config),
        "scipy_blas": _blas(scipy.show_config),
        "blas_thread_vars": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def lu_probe_ms(n=LU_PROBE_N, reps=LU_PROBE_REPS) -> float:
    import numpy as np
    from scipy.linalg import lu_factor, lu_solve

    rng = np.random.Generator(np.random.Philox(key=n))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a += n * np.eye(n)
    b = rng.standard_normal(n) + 0j
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        lu = lu_factor(a)
        x = lu_solve(lu, b)
        lu_solve(lu, b - a @ x)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


if __name__ == "__main__":
    out = record()
    out["lu120_ms"] = lu_probe_ms()
    print(json.dumps(out, sort_keys=True))
