"""Steady-state scattering from the effective atom-chain Hamiltonian.

The chain of n driven atoms is reduced, after eliminating the waveguide,
to an n x n complex-symmetric matrix

    H[j, k] = -(delta - delta_j + i gamma'/2) d_jk
              - i (gamma0/2) exp(i |phi_j - phi_k|),

with phi_j the phase coordinates of the atoms and delta_j their
inhomogeneous offsets.  The weak-drive steady state solves H c = Omega w,
w_j = exp(i phi_j), and the transmission and reflection amplitudes are
linear functionals of c.

All public entry points canonicalize the lattice phase through
``reduce_theta`` so that theta and 2*pi - theta (with the detuning sign
flipped) run through literally the same floating-point solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .model import PhysicalParams, Realization, reduce_theta

RESIDUAL_TOL = 1e-10


class SolverError(RuntimeError):
    """Raised when the linear solve fails its residual gate."""

    def __init__(self, message, condition=None):
        if condition is not None:
            message = "%s (condition estimate %.3g)" % (message, condition)
        super().__init__(message)
        self.condition = condition


def effective_hamiltonian(phases, detunings, delta, gamma_prime, gamma0=1.0):
    """Dense effective Hamiltonian from raw phase coordinates."""
    phi = np.asarray(phases, dtype=float)
    n = phi.size
    h = -0.5j * gamma0 * np.exp(1j * np.abs(phi[:, None] - phi[None, :]))
    if n:
        det = np.asarray(detunings, dtype=float)
        h[np.diag_indices(n)] += -(delta - det + 0.5j * gamma_prime)
    return h


def solve_with_refinement(h, rhs, label="steady-state"):
    """LU solve plus one refinement step, gated on the relative residual.

    Raises SolverError (with a condition estimate) when the residual is
    above RESIDUAL_TOL or not finite, so singular systems cannot leak
    garbage downstream.
    """
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")  # scipy warns on exact zero pivots
        with np.errstate(all="ignore"):
            try:
                lu = lu_factor(h)
                x = lu_solve(lu, rhs)
                r = rhs - h @ x
                x = x + lu_solve(lu, r)
            except (np.linalg.LinAlgError, ValueError) as exc:
                # ValueError: scipy rejects the non-finite refinement rhs
                # that a singular factorization produces
                raise SolverError("%s solve failed: %s" % (label, exc),
                                  condition=float(np.linalg.cond(h)))
            scale = np.linalg.norm(rhs)
            res = float(np.linalg.norm(rhs - h @ x) / scale) if scale > 0 else 0.0
    if not res <= RESIDUAL_TOL:
        raise SolverError("%s residual %.3g exceeds %.1g"
                          % (label, res, RESIDUAL_TOL),
                          condition=float(np.linalg.cond(h)))
    return x, res


@dataclass(frozen=True)
class ScatterResult:
    t_amp: complex
    r_amp: complex
    c: np.ndarray        # physical atomic amplitudes (drive included)
    residual: float

    @property
    def T(self) -> float:
        return abs(self.t_amp) ** 2

    @property
    def R(self) -> float:
        return abs(self.r_amp) ** 2


def _reduced_inputs(real: Realization, params: PhysicalParams):
    """Phases, detunings, and detuning sign after theta canonicalization."""
    theta_r, conj = reduce_theta(params.theta)
    phases = np.asarray(real.occupied_sites, dtype=float) * theta_r
    dets = np.asarray(real.detunings, dtype=float)
    if conj:
        dets = -dets
    return phases, dets, conj


def _amplitudes(c_tilde, w, gamma0):
    """(t, r) from the scaled steady state c_tilde = H^{-1} w."""
    t = 1.0 + 0.5j * gamma0 * np.vdot(w, c_tilde)
    r = 0.5j * gamma0 * (w @ c_tilde)
    return complex(t), complex(r)


def scatter(real: Realization, params: PhysicalParams) -> ScatterResult:
    """Transmission/reflection amplitudes of one realization at params.delta."""
    if real.n == 0:
        return ScatterResult(1.0 + 0.0j, 0.0j, np.zeros(0, dtype=complex), 0.0)
    phases, dets, conj = _reduced_inputs(real, params)
    delta = -params.delta if conj else params.delta
    h = effective_hamiltonian(phases, dets, delta, params.gamma_prime, params.gamma0)
    w = np.exp(1j * phases)
    c_tilde, res = solve_with_refinement(h, w)
    t, r = _amplitudes(c_tilde, w, params.gamma0)
    c = params.omega * c_tilde
    if conj:
        t, r, c = t.conjugate(), r.conjugate(), -np.conj(c)
    return ScatterResult(t, r, c, res)


@dataclass(frozen=True)
class ScanResult:
    deltas: np.ndarray
    t_amp: np.ndarray
    r_amp: np.ndarray

    @property
    def T(self) -> np.ndarray:
        return np.abs(self.t_amp) ** 2

    @property
    def R(self) -> np.ndarray:
        return np.abs(self.r_amp) ** 2


def spectrum_scan(real: Realization, params: PhysicalParams, deltas) -> ScanResult:
    """Scatter over a detuning grid, reusing the delta-independent matrix part."""
    deltas = np.asarray(deltas, dtype=float)
    nd = deltas.size
    t_amp = np.ones(nd, dtype=complex)
    r_amp = np.zeros(nd, dtype=complex)
    if real.n == 0:
        return ScanResult(deltas, t_amp, r_amp)
    phases, dets, conj = _reduced_inputs(real, params)
    base = effective_hamiltonian(phases, dets, 0.0, params.gamma_prime, params.gamma0)
    w = np.exp(1j * phases)
    diag = np.diag_indices(real.n)
    for i, d in enumerate(deltas):
        h = base.copy()
        h[diag] -= -d if conj else d
        c_tilde, _ = solve_with_refinement(h, w, label="delta=%.6g" % d)
        t, r = _amplitudes(c_tilde, w, params.gamma0)
        if conj:
            t, r = t.conjugate(), r.conjugate()
        t_amp[i] = t
        r_amp[i] = r
    return ScanResult(deltas, t_amp, r_amp)


def optical_depth(transmission: float) -> float:
    """D = -ln T, with T = 0 mapped to +inf rather than raising."""
    if transmission < 0:
        raise ValueError("transmission must be non-negative")
    if transmission == 0.0:
        return math.inf
    return -math.log(transmission)


def count_local_maxima(values) -> int:
    """Strict interior local maxima of a sampled curve."""
    y = np.asarray(values, dtype=float)
    if y.size < 3:
        return 0
    mid = y[1:-1]
    return int(np.count_nonzero((mid > y[:-2]) & (mid > y[2:])))
