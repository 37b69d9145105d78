"""Independent scattering route: the scattering-matrix cascade.

Each atom contributes the single-atom coefficients (t, r) evaluated at
its own inhomogeneous offset; each gap of g lattice sites contributes a
propagation phase theta * g * (1 + eta * delta / gamma0).  With eta = 0
the cascade reproduces the effective-Hamiltonian solver exactly (the
Markovian limit); a small eta restores the first-order retardation of
the real dispersive waveguide, which the Markovian solver drops.

The atoms are folded in one at a time by scattering-matrix (Redheffer)
composition, vectorized over the detuning grid.  The fold only ever
holds bounded reflection and transmission coefficients, and t shrinks
by one multiplication per atom, so it keeps ~n*eps relative accuracy at
any opacity and underflows to 0 (never to NaN) past the double range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PhysicalParams, Realization


def atom_coefficients(delta, gamma_prime, det_shift=0.0, gamma0=1.0):
    """Single-atom (t, r), broadcasting over a detuning array."""
    delta = np.asarray(delta, dtype=float)
    denom = 0.5 * (gamma0 + gamma_prime) - 1j * (delta - det_shift)
    r = -(0.5 * gamma0) / denom
    return 1.0 + r, r


def gap_phase(theta, gap_sites, delta, eta, gamma0=1.0):
    """Propagation phase across a gap of ``gap_sites`` lattice constants.

    Raises ValueError where a large ``eta * delta`` makes it overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        phi = theta * gap_sites * (1.0 + eta * np.asarray(delta, dtype=float)
                                   / gamma0)
    if not np.isfinite(phi).all():
        raise ValueError("retarded gap phase is not finite (eta %r)" % eta)
    return phi


def tm_spectrum(real: Realization, params: PhysicalParams, deltas):
    """Cascade (t, r) over a detuning grid, left incidence, with the
    first atom as the reference plane.

    Returns (t_amp, r_amp) complex arrays aligned with ``deltas``.
    """
    deltas = np.asarray(deltas, dtype=float)
    phis = gap_phase(params.theta, np.diff(real.occupied_sites)[:, None],
                     deltas, params.eta, params.gamma0)
    hop, hop2 = np.exp(1j * phis), np.exp(2j * phis)
    t_at, r_at = atom_coefficients(
        deltas, params.gamma_prime,
        np.asarray(real.detunings, dtype=float)[:, None], params.gamma0)
    tt = np.ones(deltas.size, dtype=complex)
    rl = np.zeros(deltas.size, dtype=complex)   # reflection from the left
    rr = np.zeros(deltas.size, dtype=complex)   # reflection from the right
    for j in range(real.n):
        if j:
            tt *= hop[j - 1]
            rr *= hop2[j - 1]
        t_a, r_a = t_at[j], r_at[j]
        den = 1.0 - rr * r_a
        # A lossless stack that is already a perfect mirror has tt == 0:
        # nothing passes it, and the new atom only sets rr.
        mirror = den == 0.0
        den[mirror] = 1.0
        rl = np.where(mirror, rl, rl + tt * tt * r_a / den)
        rr = np.where(mirror, r_a, r_a + t_a * t_a * rr / den)
        tt = np.where(mirror, tt, tt * t_a / den)
    return tt, rl


def tm_scatter(real: Realization, params: PhysicalParams):
    """Cascade (t, r) at the single detuning params.delta."""
    t, r = tm_spectrum(real, params, [params.delta])
    return complex(t[0]), complex(r[0])


@dataclass(frozen=True)
class CompareResult:
    """Markovian solver vs transfer-matrix cascade on a shared grid."""

    deltas: np.ndarray
    T_markov: np.ndarray
    R_markov: np.ndarray
    T_cascade: np.ndarray
    R_cascade: np.ndarray

    @property
    def dT(self) -> np.ndarray:
        return np.abs(self.T_cascade - self.T_markov)

    @property
    def dR(self) -> np.ndarray:
        return np.abs(self.R_cascade - self.R_markov)

    @property
    def max_dT(self) -> float:
        return float(self.dT.max())

    @property
    def mean_dT(self) -> float:
        return float(self.dT.mean())

    @property
    def max_dR(self) -> float:
        return float(self.dR.max())

    @property
    def mean_dR(self) -> float:
        return float(self.dR.mean())


def compare_markovian(real: Realization, params: PhysicalParams,
                      deltas) -> CompareResult:
    """Run both routes on one grid.  The Markovian route ignores eta."""
    from .solver import spectrum_scan

    deltas = np.asarray(deltas, dtype=float)
    scan = spectrum_scan(real, params, deltas)
    t_tm, r_tm = tm_spectrum(real, params, deltas)
    return CompareResult(deltas, scan.T, scan.R,
                         np.abs(t_tm) ** 2, np.abs(r_tm) ** 2)
