"""Monte Carlo over occupancy and detuning disorder.

Realization ``index`` of an ensemble is a pure function of
(master_seed, index), so results are independent of scheduling: serial
runs and process pools of any size produce bit-identical statistics.
Failed realizations are recorded with their index and skipped rather
than aborting the whole run; a worker process that dies aborts it.

All observable kernels live at module level so they pickle cleanly into
worker processes.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import cache, partial

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


def _attempt(kernel, master_seed, args, index):
    """(True, value) of one realization, or (False, reason) if it raised."""
    try:
        return True, kernel(index, master_seed, *args)
    except Exception as exc:
        return False, "%s: %s" % (type(exc).__name__, exc)


def run_ensemble(kernel, n_samples, master_seed, workers=1, args=(),
                 progress=None) -> EnsembleStats:
    """Average ``kernel(index, master_seed, *args)`` over realizations.

    ``workers > 1`` maps chunks of consecutive indices over one pool of at
    most ``n_samples`` processes; the merge is in index order either way.
    A kernel exception marks that realization failed and the run carries
    on; the run raises if every realization failed or a worker died.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    attempt = partial(_attempt, kernel, master_seed, args)
    workers = min(workers, n_samples)
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        mapped = (pool.map(attempt, range(n_samples),
                           chunksize=math.ceil(n_samples / (4 * workers)))
                  if pool else map(attempt, range(n_samples)))
        outcomes = []
        for outcome in mapped:
            outcomes.append(outcome)
            if progress is not None:
                progress(len(outcomes), n_samples)
    values = [np.asarray(v, dtype=float) for ok, v in outcomes if ok]
    failures = [(i, v) for i, (ok, v) in enumerate(outcomes) if not ok]
    if not values:
        raise RuntimeError("all %d realizations failed; first failure: %s"
                           % (n_samples, failures[0][1]))
    stacked = np.stack(values)
    mean = stacked.mean(axis=0)
    stderr = (_sample_std(stacked) / math.sqrt(len(values)) if len(values) > 1
              else np.zeros_like(mean))
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


def scatter_kernel(index, master_seed, points):
    """T and R, shape (2, len(points)), of realization ``index`` at each
    ``(lattice, params)`` point; each distinct lattice is drawn once."""
    draw = cache(lambda lattice, sigma_ih: sample_realization(
        lattice, sigma_ih, master_seed, index))
    res = [scatter(draw(lattice, params.sigma_ih), params)
           for lattice, params in points]
    return np.array([[r.T for r in res], [r.R for r in res]])


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


def _scatter_scan(key, values, points, n_samples, master_seed, workers,
                  progress) -> Ensemble:
    """Columns ``key`` (``values``), depth, T and R over ``points``."""
    stats = run_ensemble(scatter_kernel, n_samples, master_seed, workers,
                         args=(points,), progress=progress)
    (T, R), (T_se, R_se) = stats.mean, stats.stderr
    depth = np.array([optical_depth(t) for t in T])
    return _ensemble({key: values, "depth": depth, "T_mean": T,
                      "T_se": T_se, "R_mean": R, "R_se": R_se}, stats)


def kd_scan(lattice: LatticeSpec, params: PhysicalParams, thetas,
            n_samples=DEFAULT_SAMPLES, master_seed=0, workers=1,
            progress=None) -> Ensemble:
    """Ensemble T, R, and optical depth as a function of the lattice phase.

    A one-point scan over ``[params.theta]`` is the ensemble at a single
    drive detuning.
    """
    thetas = np.asarray(thetas, dtype=float)
    points = [(lattice, replace(params, theta=float(th))) for th in thetas]
    return _scatter_scan("theta", thetas, points, n_samples, master_seed,
                         workers, progress)


def filling_scan(n_sites, params: PhysicalParams, fillings,
                 mode=FillingMode.FIXED_COUNT, n_samples=DEFAULT_SAMPLES,
                 master_seed=0, workers=1, progress=None) -> Ensemble:
    """Optical depth versus filling fraction at fixed lattice phase.

    The depth is -ln of the ensemble-averaged transmission.  Its
    saturation near 70 at strong opacity is numerical, not physical:
    the dense solve forms t = 1 + (i/2) w^H c by addition, so T stops
    near 1e-32 whatever the chain, while the transfer-matrix cascade
    keeps falling.  A realization that fails at any filling fails for
    the whole scan.
    """
    fillings = np.asarray(fillings, dtype=float)
    points = [(LatticeSpec(n_sites, float(p), mode), params) for p in fillings]
    return _scatter_scan("filling", fillings, points, n_samples, master_seed,
                         workers, progress)


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
