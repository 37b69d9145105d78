"""Monte Carlo over occupancy and detuning disorder.

Realization ``index`` of an ensemble is a pure function of
(master_seed, index), so results are independent of scheduling: serial
runs and process pools of any size produce bit-identical statistics.
Failed realizations are recorded with their index and skipped rather
than aborting the whole run.

All observable kernels live at module level so they pickle cleanly into
worker processes.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .correlations import g2_curve
from .dynamics import excited_population
from .model import CavityGeometry, FillingMode, LatticeSpec, PhysicalParams
from .sampling import build_cavity, realization_rng, sample_realization
from .solver import optical_depth, scatter, spectrum_scan

DEFAULT_SAMPLES = 200


@dataclass(frozen=True)
class EnsembleStats:
    mean: np.ndarray
    stderr: np.ndarray
    count: int
    master_seed: int
    failures: list = field(default_factory=list)


@dataclass(frozen=True)
class Ensemble:
    """One ensemble result: ``columns`` maps each result-file column name
    to its values, in file order; ``failures`` lists (index, reason)."""

    columns: dict
    count: int
    master_seed: int
    failures: list


def run_ensemble(kernel, n_samples, master_seed, workers=1, args=(),
                 progress=None) -> EnsembleStats:
    """Average ``kernel(index, master_seed, *args)`` over realizations.

    The merge is in index order regardless of completion order.  A
    kernel exception marks that realization failed and the run carries
    on; the run only raises if every realization failed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    outcomes = [None] * n_samples
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(kernel, i, master_seed, *args): i
                       for i in range(n_samples)}
            done = 0
            for fut, i in futures.items():
                try:
                    outcomes[i] = (True, fut.result())
                except Exception as exc:
                    outcomes[i] = (False, "%s: %s" % (type(exc).__name__, exc))
                done += 1
                if progress is not None:
                    progress(done, n_samples)
    else:
        for i in range(n_samples):
            try:
                outcomes[i] = (True, kernel(i, master_seed, *args))
            except Exception as exc:
                outcomes[i] = (False, "%s: %s" % (type(exc).__name__, exc))
            if progress is not None:
                progress(i + 1, n_samples)
    values = [np.asarray(v, dtype=float) for ok, v in outcomes if ok]
    failures = [(i, outcomes[i][1]) for i in range(n_samples)
                if not outcomes[i][0]]
    if not values:
        raise RuntimeError("all %d realizations failed; first failure: %s"
                           % (n_samples, failures[0][1]))
    stacked = np.stack(values)
    mean = stacked.mean(axis=0)
    if len(values) > 1:
        stderr = _sample_std(stacked) / math.sqrt(len(values))
    else:
        stderr = np.zeros_like(mean)
    return EnsembleStats(mean, stderr, len(values), master_seed, failures)


def _sample_std(stacked):
    """Sample standard deviation (ddof=1) of each column over axis 0.

    Each column is brought to magnitude below 1 by a power of two before
    the deviations are squared, so values far beyond 1e154 (the g2 of an
    opaque chain) do not overflow.  Power-of-two scaling is exact, so a
    column that would not overflow gives bit-identical results.
    """
    _, exponent = np.frexp(np.max(np.abs(stacked), axis=0))
    scaled = np.ldexp(stacked, -exponent)
    return np.ldexp(scaled.std(axis=0, ddof=1), exponent)


# ----------------------------------------------------------------------
# picklable observable kernels

def spectrum_kernel(index, master_seed, lattice, params, deltas):
    real = sample_realization(lattice, params.sigma_ih, master_seed, index)
    scan = spectrum_scan(real, params, deltas)
    return np.stack([scan.T, scan.R])


def kd_kernel(index, master_seed, lattice, params, thetas):
    real = sample_realization(lattice, params.sigma_ih, master_seed, index)
    out = np.empty((2, len(thetas)))
    for i, th in enumerate(thetas):
        res = scatter(real, replace(params, theta=float(th)))
        out[0, i] = res.T
        out[1, i] = res.R
    return out


def rabi_kernel(index, master_seed, geom, filling, mode, params, times):
    rng = realization_rng(master_seed, index)
    chain = build_cavity(geom, filling, rng, mode)
    return excited_population(chain, params, times).populations


def g2_kernel(index, master_seed, lattice, params, taus, port, average):
    """The normalized curve (average 'g2'), or the curve and the intensity
    each weighted by |baseline|^4 (average 'G2')."""
    real = sample_realization(lattice, params.sigma_ih, master_seed, index)
    res = g2_curve(real, params, taus, port)
    if res.divergent:
        raise RuntimeError("divergent g2 (zero %s baseline)" % port)
    if average == "g2":
        return res.values
    weight = abs(res.base_amp) ** 4
    return np.stack([res.values * weight, np.full_like(res.values, weight)])


# ----------------------------------------------------------------------
# ensemble drivers

def _ensemble(columns, stats) -> Ensemble:
    return Ensemble(columns, stats.count, stats.master_seed, stats.failures)


def spectrum_ensemble(lattice: LatticeSpec, params: PhysicalParams, deltas,
                      n_samples=DEFAULT_SAMPLES, master_seed=0, workers=1,
                      progress=None) -> Ensemble:
    deltas = np.asarray(deltas, dtype=float)
    stats = run_ensemble(spectrum_kernel, n_samples, master_seed, workers,
                         args=(lattice, params, deltas), progress=progress)
    (T, R), (T_se, R_se) = stats.mean, stats.stderr
    return _ensemble({"delta": deltas, "T_mean": T, "T_se": T_se,
                      "R_mean": R, "R_se": R_se, "sum_mean": T + R}, stats)


def kd_scan(lattice: LatticeSpec, params: PhysicalParams, thetas,
            n_samples=DEFAULT_SAMPLES, master_seed=0, workers=1,
            progress=None) -> Ensemble:
    """Ensemble T, R, and optical depth as a function of the lattice phase.

    A one-point scan over ``[params.theta]`` is the ensemble at a single
    drive detuning.
    """
    thetas = np.asarray(thetas, dtype=float)
    stats = run_ensemble(kd_kernel, n_samples, master_seed, workers,
                         args=(lattice, params, thetas), progress=progress)
    (T, R), (T_se, R_se) = stats.mean, stats.stderr
    depth = np.array([optical_depth(t) for t in T])
    return _ensemble({"theta": thetas, "depth": depth, "T_mean": T,
                      "T_se": T_se, "R_mean": R, "R_se": R_se}, stats)


def filling_scan(n_sites, params: PhysicalParams, fillings,
                 mode=FillingMode.FIXED_COUNT, n_samples=DEFAULT_SAMPLES,
                 master_seed=0, workers=1, progress=None) -> Ensemble:
    """Optical depth versus filling fraction at fixed lattice phase.

    The depth is -ln of the ensemble-averaged transmission, so the
    saturation of the curve at strong opacity reflects the averaged
    observable, not a per-realization quantity.  Failures are recorded
    by filling index.
    """
    fillings = np.asarray(fillings, dtype=float)
    points = [kd_scan(LatticeSpec(n_sites, float(p), mode), params,
                      [params.theta], n_samples, master_seed, workers, progress)
              for p in fillings]
    columns = {"filling": fillings}
    for name in ("depth", "T_mean", "T_se", "R_mean", "R_se"):
        columns[name] = np.array([pt.columns[name][0] for pt in points])
    failures = [(i, msg) for i, pt in enumerate(points)
                for _, msg in pt.failures]
    count = points[-1].count if points else 0
    return Ensemble(columns, count, master_seed, failures)


def rabi_ensemble(geom: CavityGeometry, filling, params: PhysicalParams,
                  times, mode=FillingMode.FIXED_COUNT,
                  n_samples=DEFAULT_SAMPLES, master_seed=0, workers=1,
                  progress=None) -> Ensemble:
    times = np.asarray(times, dtype=float)
    stats = run_ensemble(rabi_kernel, n_samples, master_seed, workers,
                         args=(geom, filling, mode, params, times),
                         progress=progress)
    return _ensemble({"t": times, "pe_mean": stats.mean,
                      "pe_se": stats.stderr}, stats)


def g2_ensemble(lattice: LatticeSpec, params: PhysicalParams, taus,
                port="transmitted", average="g2",
                n_samples=DEFAULT_SAMPLES, master_seed=0, workers=1,
                progress=None) -> Ensemble:
    """Disorder-averaged photon correlations.

    ``average='g2'`` (default) averages each realization's normalized
    curve.  ``average='G2'`` averages unnormalized correlations and
    intensities separately and takes the ratio, which weights
    realizations by their transmitted (or reflected) intensity.
    """
    if average not in ("g2", "G2"):
        raise ValueError("average must be 'g2' or 'G2'")
    taus = np.asarray(taus, dtype=float)
    stats = run_ensemble(g2_kernel, n_samples, master_seed, workers,
                         args=(lattice, params, taus, port, average),
                         progress=progress)
    g2, se = stats.mean, stats.stderr
    if average == "G2":
        g2, se = stats.mean[0] / stats.mean[1], stats.stderr[0] / stats.mean[1]
    return _ensemble({"tau": taus, "g2_mean": g2, "g2_se": se}, stats)
