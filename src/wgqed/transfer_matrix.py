"""Independent scattering route: 2x2 transfer-matrix cascade.

Each atom contributes the single-atom coefficients (t, r) evaluated at
its own inhomogeneous offset; each gap of g lattice sites contributes a
propagation phase theta * g * (1 + eta * delta / gamma0).  With eta = 0
the cascade reproduces the effective-Hamiltonian solver exactly (the
Markovian limit); a small eta restores the first-order retardation of
the real dispersive waveguide, which the Markovian solver drops.

The matrix product is the fast path.  Transfer matrices blow up like
1/|t| per opaque atom, so detuning points where the product overflows
(or an atomic |t| underflows) are redone with the numerically tame
scattering-matrix (Redheffer) composition, which only ever manipulates
bounded reflection/transmission coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PhysicalParams, Realization

OVERFLOW_GUARD = 1e150
UNDERFLOW_GUARD = 1e-150


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


def _compose_point(real: Realization, params: PhysicalParams, delta: float,
                   phis):
    """Redheffer fold at a single detuning, ``phis`` its gap phases;
    immune to opaque-atom overflow."""
    rl, rr, tt = 0.0j, 0.0j, 1.0 + 0.0j
    for j in range(real.n):
        if j:
            tt *= np.exp(1j * phis[j - 1])
            rr *= np.exp(2j * phis[j - 1])
        t_a, r_a = atom_coefficients(delta, params.gamma_prime,
                                     real.detunings[j], params.gamma0)
        t_a, r_a = complex(t_a), complex(r_a)
        den = 1.0 - rr * r_a
        if den == 0.0:
            # Lossless stack that is already a perfect mirror: tt == 0 here,
            # so nothing propagates past the existing stack.
            rr = r_a
            continue
        rl = rl + tt * tt * r_a / den
        rr = r_a + t_a * t_a * rr / den
        tt = tt * t_a / den
    return tt, rl


def tm_spectrum(real: Realization, params: PhysicalParams, deltas):
    """Cascade (t, r) over a detuning grid.

    Returns (t_amp, r_amp) complex arrays aligned with ``deltas``.
    """
    deltas = np.asarray(deltas, dtype=float)
    nd = deltas.size
    if real.n == 0:
        return np.ones(nd, dtype=complex), np.zeros(nd, dtype=complex)
    m_tot = np.zeros((nd, 2, 2), dtype=complex)
    m_tot[:, 0, 0] = 1.0
    m_tot[:, 1, 1] = 1.0
    bad = np.zeros(nd, dtype=bool)
    phis = gap_phase(params.theta, np.diff(real.occupied_sites)[:, None],
                     deltas, params.eta, params.gamma0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(real.n):
            if j:
                ph = np.exp(1j * phis[j - 1])
                m_tot[:, 0, :] *= ph[:, None]
                m_tot[:, 1, :] *= np.conj(ph)[:, None]
            t_a, r_a = atom_coefficients(deltas, params.gamma_prime,
                                         real.detunings[j], params.gamma0)
            bad |= np.abs(t_a) < UNDERFLOW_GUARD
            atom = np.empty((nd, 2, 2), dtype=complex)
            atom[:, 0, 0] = (t_a * t_a - r_a * r_a) / t_a
            atom[:, 0, 1] = r_a / t_a
            atom[:, 1, 0] = -r_a / t_a
            atom[:, 1, 1] = 1.0 / t_a
            m_tot = np.einsum("dij,djk->dik", atom, m_tot)
        bad |= ~np.isfinite(m_tot).all(axis=(1, 2))
        bad |= np.abs(m_tot).max(axis=(1, 2)) > OVERFLOW_GUARD
        t_amp = np.empty(nd, dtype=complex)
        r_amp = np.empty(nd, dtype=complex)
        ok = ~bad
        t_amp[ok] = 1.0 / m_tot[ok, 1, 1]
        r_amp[ok] = -m_tot[ok, 1, 0] / m_tot[ok, 1, 1]
    for i in np.nonzero(bad)[0]:
        t_amp[i], r_amp[i] = _compose_point(real, params, float(deltas[i]),
                                            phis[:, i])
    return t_amp, r_amp


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
