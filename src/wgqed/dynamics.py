"""Single-excitation decay dynamics (vacuum Rabi oscillations).

An initially excited atom inside a chain evolves under the same
effective non-Hermitian Hamiltonian the scattering solver uses, with no
drive term.  Amplitudes are propagated by eigendecomposition when the
eigenvector basis is well conditioned, and by stepwise matrix
exponentials otherwise; the method actually used is reported so callers
can tell the two apart.

Populations do not depend on the global rotating-frame offset, so the
Hamiltonian is built at zero drive detuning here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig, expm

from .model import CavityChain, PhysicalParams
from .solver import effective_hamiltonian

EIG_COND_LIMIT = 1e12
NORM_SLACK = 1e-10


def propagate_amplitudes(h: np.ndarray, v0: np.ndarray, times, method=None):
    """Evolve v0 under exp(-i h t) on a sorted time grid.

    Returns (amps, method_used) with amps[k] the state at times[k].
    ``method`` forces 'eig' or 'expm'; by default the eigendecomposition
    is used unless its eigenvector basis looks numerically defective.
    The amplitudes are checked to stay finite, and their norm not to
    grow, on every call, as in any passive decay model.
    """
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all() or (np.diff(times) < 0).any():
        raise ValueError("times must be finite and sorted ascending")
    v0 = np.asarray(v0, dtype=complex)
    used = method
    amps = None
    if method in (None, "eig"):
        vals, vecs = eig(h)
        cond = np.linalg.cond(vecs)
        if cond < EIG_COND_LIMIT:
            a0 = np.linalg.solve(vecs, v0)
            with np.errstate(all="ignore"):     # judged by the check below
                amps = (vecs @ (a0[:, None]
                                * np.exp(-1j * np.outer(vals, times)))).T
            used = "eig"
        elif method == "eig":
            raise RuntimeError(
                "eigenvector basis too ill-conditioned (%.3g) for forced eig "
                "propagation" % cond)
    if amps is None:
        amps = np.empty((times.size, v0.size), dtype=complex)
        v = v0.copy()
        prev_t = 0.0
        cache = {}
        for k, t in enumerate(times):
            dt = t - prev_t
            if dt != 0.0:
                u = cache.get(dt)
                if u is None:
                    u = expm(-1j * h * dt)
                    cache[dt] = u
                v = u @ v
            amps[k] = v
            prev_t = t
        used = "expm"
    if not np.isfinite(amps).all():     # NaN norms pass the checks below
        raise RuntimeError("propagation gave non-finite amplitudes")
    norms = np.linalg.norm(amps, axis=1)
    if norms.size:
        start = max(float(np.linalg.norm(v0)), float(norms[0]))
        if (np.diff(norms) > NORM_SLACK * (1.0 + start)).any() or \
                norms.max() > start * (1.0 + NORM_SLACK) + NORM_SLACK:
            raise RuntimeError("propagation norm increased; dynamics not passive")
    return amps, used


@dataclass(frozen=True)
class PopulationResult:
    times: np.ndarray
    populations: np.ndarray
    method: str


def excited_population(chain: CavityChain, params: PhysicalParams,
                       times) -> PopulationResult:
    """Excited-state population of the chain's central atom over time."""
    h = effective_hamiltonian(chain.phases, chain.detunings, 0.0,
                              params.gamma_prime, params.gamma0)
    v0 = np.zeros(chain.n, dtype=complex)
    v0[chain.center] = 1.0
    amps, used = propagate_amplitudes(h, v0, times)
    pe = np.abs(amps[:, chain.center]) ** 2
    return PopulationResult(np.asarray(times, dtype=float), pe, used)


def default_times(t_max: float = 20.0, n_points: int = 2000) -> np.ndarray:
    if not 0.0 <= t_max < np.inf:
        raise ValueError("t_max must be finite and non-negative")
    if n_points < 1:
        raise ValueError("the time grid needs at least 1 point, not %d"
                         % n_points)
    return np.linspace(0.0, t_max, n_points)
