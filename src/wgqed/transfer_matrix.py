"""Scattering-matrix cascade: depth scans, g2 baseline, solver cross-check.

Each atom contributes the single-atom coefficients (t, r) evaluated at
its own inhomogeneous offset; each gap of g lattice sites contributes a
propagation phase theta * g * (1 + eta * delta / gamma0).  With eta = 0
the cascade reproduces the effective-Hamiltonian solver exactly (the
Markovian limit); a small eta restores the first-order retardation of
the real dispersive waveguide, which the Markovian solver drops.

The atoms are folded in one at a time by scattering-matrix (Redheffer)
composition, vectorized over a detuning grid or over the points of a
scan.  The fold only ever holds bounded reflection and transmission
coefficients, and t shrinks by one multiplication per atom, so it keeps
~n*eps relative accuracy at any opacity and underflows to 0 (never to
NaN) past the double range.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .model import PhysicalParams, Realization, reduce_theta


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


def _fold(t_at, r_at, hop, hop2):
    """Left-incidence (t, r) of each column of (atoms x columns) atom
    coefficients, atom j a gap factor hop[j - 1] = exp(i phi) (and
    hop2[j - 1] = exp(2i phi)) past atom j - 1."""
    tt = np.ones(t_at.shape[1], dtype=complex)
    rl = np.zeros(t_at.shape[1], dtype=complex)   # reflection from the left
    rr = np.zeros(t_at.shape[1], dtype=complex)   # reflection from the right
    for j in range(t_at.shape[0]):
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


def tm_spectrum(real: Realization, params: PhysicalParams, deltas):
    """Cascade (t, r) over a detuning grid, left incidence, with the
    first atom as the reference plane.

    Returns (t_amp, r_amp) complex arrays aligned with ``deltas``.
    """
    deltas = np.asarray(deltas, dtype=float)
    phis = gap_phase(params.theta, np.diff(real.occupied_sites)[:, None],
                     deltas, params.eta, params.gamma0)
    t_at, r_at = atom_coefficients(
        deltas, params.gamma_prime,
        np.asarray(real.detunings, dtype=float)[:, None], params.gamma0)
    return _fold(t_at, r_at, np.exp(1j * phis), np.exp(2j * phis))


def tm_points(points):
    """Markovian cascade (t, r) at params.delta of each ``(realization,
    params)`` point (eta ignored), one fold column each; a run of points
    on one realization shares one set-up.  Shorter chains end in
    transparent atoms (t = 1, r = 0, gap factor 1); a column that
    reduce_theta conjugates folds with delta and the offsets negated and
    is then conjugated, so theta <-> 2*pi - theta is bit-exact."""
    m, n = len(points), max((real.n for real, _ in points), default=0)
    theta, conj, delta, gamma_prime, gamma0 = np.array(
        [(*reduce_theta(p.theta), p.delta, p.gamma_prime, p.gamma0)
         for _, p in points], dtype=float).reshape(m, 5).T
    sign = np.where(conj, -1.0, 1.0)
    offsets, gaps = np.zeros((n, m)), np.zeros((max(n - 1, 0), m), dtype=int)
    phases, phase_of = {}, []   # (run, reduced theta) -> gap column; per point
    k = 0
    for real, run in groupby(real for real, _ in points):
        cols, q = slice(k, k + len(list(run))), len(phases)
        phase_of += [phases.setdefault((k, th), len(phases))
                     for th in theta[cols].tolist()]
        gaps[:max(real.n - 1, 0), q:len(phases)] = np.diff(
            real.occupied_sites)[:, None]
        offsets[:real.n, cols] = np.array(real.detunings, dtype=float)[:, None]
        k = cols.stop
    t_at, r_at = atom_coefficients(sign * delta, gamma_prime, sign * offsets,
                                   gamma0)
    pad = np.arange(n)[:, None] >= [real.n for real, _ in points]
    t_at[pad], r_at[pad] = 1.0, 0.0
    phis = gaps[:, :len(phases)] * [th for _, th in phases]
    hop, hop2 = (np.exp(s * phis).take(phase_of, 1) for s in (1j, 2j))
    t, r = _fold(t_at, r_at, hop, hop2)
    return np.where(conj, t.conj(), t), np.where(conj, r.conj(), r)


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
