"""Workload definitions and output checks shared by run.py and traced.py.

Each workload is one `wgqed` CLI recipe from docs/figures.md at a fixed
shape.  The benchmark seed selects the CLI master seed (modulo
REFERENCE_SEEDS), and every result file is compared against reference
columns that make_reference.py generated for that master seed.

Parsing and checking are pure Python on purpose: the benchmark must not
trust the program's own reader, and the parent process should not load
numpy/OpenBLAS next to the subprocess it is timing.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REFERENCE_SEEDS = 8

# Tolerances fixed before any run.  T and R are probabilities; 1e-8 is
# the solver-vs-cascade agreement the acceptance suite enforces.  g2 sits
# at 1e110..1e175 on the opaque chain, so it is compared relatively.  It
# is resolved far inside 1e-6 there (NOTES.md, "Output checks"): the
# baseline comes from the cascade and |q| is about 1e-2, so another solver
# or BLAS thread count moves it by at most about 4e-8.
T_R_ATOL = 1e-8
G2_RTOL = 1e-6
GRID_RTOL = 1e-12


@dataclass(frozen=True)
class Column:
    name: str
    mode: str        # "abs" or "rel"
    tol: float
    stride: int = 1  # compare every stride-th row (keeps reference.json small)
    finite: bool = True  # False: rows whose reference is non-finite are not pinned


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    args: tuple        # fixed CLI arguments, without --seed/--samples/--workers/--out
    realization: str   # what one realization computes
    samples: int       # --samples per invocation
    workers: int
    points: int        # ensemble points per invocation (fillings for a scan)
    grid: tuple        # (column, start, stop, count) of the expected axis
    columns: tuple     # Column checks against reference.json
    depth_from_T: bool = False  # depth column must equal -ln(T_mean)

    @property
    def realizations(self) -> int:
        return self.samples * self.points

    def argv(self, master_seed, out, workers=None):
        return [self.command, *self.args, "--samples", str(self.samples),
                "--seed", str(master_seed),
                "--workers", str(self.workers if workers is None else workers),
                "--out", out]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="spectrum-gap",
        command="spectrum",
        args=("--n-sites", "200", "--filling", "0.6", "--theta", "pi/2",
              "--gamma-prime", "0.1", "--delta-min", "-20", "--delta-max", "20",
              "--delta-steps", "401"),
        realization="n=120 atoms, 401 detunings",
        samples=1, workers=1, points=1,
        grid=("delta", -20.0, 20.0, 401),
        columns=(Column("T_mean", "abs", T_R_ATOL), Column("R_mean", "abs", T_R_ATOL),
                 Column("T_se", "abs", T_R_ATOL), Column("R_se", "abs", T_R_ATOL))),
    Workload(
        name="g2-opaque",
        command="g2",
        args=("--n-sites", "100", "--filling", "0.4", "--theta", "pi/2",
              "--gamma-prime", "0.1", "--port", "transmitted",
              "--tau-max", "30", "--tau-steps", "1500"),
        realization="n=40 atoms, P=780 pairs, 1500 taus",
        samples=20, workers=1, points=1,
        grid=("tau", 0.0, 30.0, 1500),
        columns=(Column("g2_mean", "rel", G2_RTOL, stride=10),
                 Column("g2_se", "rel", G2_RTOL, stride=10, finite=False))),
)}

# Not a registered workload: its wall time is too unsteady between runs
# (see NOTES.md).  traced.py runs it as the pool probe, the source of the
# ensemble.* per-layer metrics and of the worker-count invariance check.
POOL_PROBE = Workload(
    name="filling-scan-pool",
    command="filling-scan",
    args=("--n-sites", "100", "--theta", "1.0", "--gamma-prime", "0.1",
          "--p-min", "0.1", "--p-max", "1.0", "--p-steps", "10"),
    realization="one single-detuning scatter at n=10..100",
    samples=10, workers=2, points=10,
    grid=("filling", 0.1, 1.0, 10),
    columns=(Column("T_mean", "abs", T_R_ATOL), Column("R_mean", "abs", T_R_ATOL),
             Column("T_se", "abs", T_R_ATOL), Column("R_se", "abs", T_R_ATOL)),
    depth_from_T=True)


def master_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def read_result(path):
    """(meta, {column: [float]}) from a wgqed columnar result file."""
    meta, names, rows = {}, [], []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, sep, rest = line[1:].strip().partition(":")
                if not sep:
                    continue
                if key == "columns":
                    names = [tok.split("(")[0] for tok in rest.split()]
                else:
                    try:
                        meta[key] = json.loads(rest)
                    except ValueError:
                        meta[key] = rest.strip()
            elif line.strip():
                rows.append([float(tok) for tok in line.split()])
    if not names or any(len(r) != len(names) for r in rows):
        raise ValueError("%s: malformed columns" % path)
    return meta, {n: [r[i] for r in rows] for i, n in enumerate(names)}


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def reference_columns(workload: Workload, cols):
    """The reference.json entry for one result: compared rows only."""
    out = {}
    for c in workload.columns:
        # 12 significant digits: far inside every tolerance, half the bytes
        out[c.name] = [float("%.12g" % v) if math.isfinite(v) else None
                       for v in cols[c.name][::c.stride]]
    return out


def check_result(workload: Workload, path, ref):
    """List of problems with one result file (empty when it is correct).

    ``ref`` is this workload's reference entry for the master seed used.
    """
    try:
        meta, cols = read_result(path)
    except (OSError, ValueError) as exc:
        return ["unreadable result: %s" % exc]
    problems = []
    if meta.get("samples_ok") != workload.samples:
        problems.append("samples_ok %r != %d attempted"
                        % (meta.get("samples_ok"), workload.samples))
    if meta.get("failures"):
        problems.append("failures recorded: %r" % (meta["failures"],))
    axis, start, stop, count = workload.grid
    got = cols.get(axis, [])
    if len(got) != count:
        return problems + ["%s has %d rows, expected %d" % (axis, len(got), count)]
    for i, x in enumerate(got):
        want = start + (stop - start) * i / (count - 1)
        if abs(x - want) > GRID_RTOL * max(1.0, abs(want)):
            problems.append("%s[%d] = %r, expected %r" % (axis, i, x, want))
            break
    for c in workload.columns:
        values = cols.get(c.name)
        if values is None:
            problems.append("missing column %s" % c.name)
            continue
        values = values[::c.stride]
        expect = ref[c.name]
        if len(values) != len(expect):
            problems.append("%s: %d compared rows, reference has %d"
                            % (c.name, len(values), len(expect)))
            continue
        for i, (x, r) in enumerate(zip(values, expect)):
            if r is None:
                if c.finite:
                    problems.append("%s reference row %d is non-finite" % (c.name, i))
                    break
                continue
            err = abs(x - r) if c.mode == "abs" else abs(x - r) / max(abs(r), 1e-300)
            if not err <= c.tol:
                problems.append("%s row %d: %r vs reference %r (%s err %.3g > %.1g)"
                                % (c.name, i * c.stride, x, r, c.mode, err, c.tol))
                break
    if workload.depth_from_T:
        for i, (d, t) in enumerate(zip(cols["depth"], cols["T_mean"])):
            want = math.inf if t == 0.0 else -math.log(t)
            if not (d == want or abs(d - want) <= GRID_RTOL * abs(want)):
                problems.append("depth[%d] = %r but -ln(T_mean) = %r" % (i, d, want))
                break
    return problems
