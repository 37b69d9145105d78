"""Weak-drive photon statistics: two-excitation steady state and g2(tau).

The drive populates the excitation ladder perturbatively, so to leading
order the steady state is vacuum + O(E) single excitations + O(E^2)
pairs.  Detecting one output photon projects onto a state that then
evolves inside the (vacuum + single-excitation) sector with the drive
still on; the second detection closes the correlator.  Everything below
works with drive-scaled amplitudes, so the returned g2 is exactly
independent of the field amplitude, as it must be at leading order.

For an opaque chain the transmitted amplitude computed additively from
the steady state loses all relative accuracy once |t| drops near the
solver noise floor; the transfer-matrix cascade computes the same t
multiplicatively with ~n*eps relative error at any depth, so it takes
over as the g2 baseline below ``STABLE_AMP_FLOOR``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import propagate_amplitudes
from .model import PhysicalParams, Realization
from .solver import _amplitudes, effective_hamiltonian, solve_with_refinement
from .transfer_matrix import tm_scatter

STABLE_AMP_FLOOR = 1e-8

TRANSMITTED = "transmitted"
REFLECTED = "reflected"


def pair_indices(n: int):
    """Lexicographic (j, k) with j < k indexing the two-excitation basis."""
    return np.triu_indices(n, k=1)


def build_h2(phases, detunings, params: PhysicalParams) -> np.ndarray:
    """Two-excitation effective Hamiltonian in the lexicographic pair basis.

    Pairs couple when they share exactly one atom; the matrix element is
    the single-excitation hop between the two unshared atoms.  Double
    occupation of one atom does not exist (two-level saturation), which
    is what makes the chain a nonlinearity at the two-photon level.
    """
    phi = np.asarray(phases, dtype=float)
    det = np.asarray(detunings, dtype=float)
    n = phi.size
    jj, kk = pair_indices(n)
    hop = np.exp(1j * np.abs(phi[:, None] - phi[None, :]))
    j1, k1 = jj[:, None], kk[:, None]
    j2, k2 = jj[None, :], kk[None, :]
    h2 = (j1 == j2) * hop[k1, k2] + (j1 == k2) * hop[k1, j2] \
        + (k1 == j2) * hop[j1, k2] + (k1 == k2) * hop[j1, j2]
    h2 *= -0.5j * params.gamma0
    dtil = params.delta - det
    h2[np.diag_indices(jj.size)] += -(dtil[jj] + dtil[kk]) \
        - 1j * params.gamma_prime
    return h2


@dataclass(frozen=True)
class TruncatedState:
    """Perturbative steady state: vacuum, singles, and pair amplitudes."""

    g0: complex
    c1: np.ndarray
    c2: np.ndarray  # symmetric n x n matrix, zero diagonal

    @property
    def n(self) -> int:
        return self.c1.size


def _singles(phases, detunings, params):
    h1 = effective_hamiltonian(phases, detunings, params.delta,
                               params.gamma_prime, params.gamma0)
    w = np.exp(1j * np.asarray(phases, dtype=float))
    c_tilde, _ = solve_with_refinement(h1, w, label="single-excitation")
    return h1, w, c_tilde


def _pairs(phases, detunings, params, w, c_tilde):
    jj, kk = pair_indices(len(phases))
    if jj.size == 0:
        return jj, kk, np.zeros(0, dtype=complex)
    h2 = build_h2(phases, detunings, params)
    rhs = w[kk] * c_tilde[jj] + w[jj] * c_tilde[kk]
    d_tilde, _ = solve_with_refinement(h2, rhs, label="two-excitation")
    return jj, kk, d_tilde


def steady_state_truncated(real: Realization,
                           params: PhysicalParams) -> TruncatedState:
    """Physical amplitudes (drive included) of the truncated steady state."""
    if real.n == 0:
        return TruncatedState(1.0 + 0.0j, np.zeros(0, dtype=complex),
                              np.zeros((0, 0), dtype=complex))
    phases = np.asarray(real.phases(params.theta), dtype=float)
    _, w, c_tilde = _singles(phases, real.detunings, params)
    jj, kk, d_tilde = _pairs(phases, real.detunings, params, w, c_tilde)
    omega = params.omega
    c2 = np.zeros((real.n, real.n), dtype=complex)
    c2[jj, kk] = omega ** 2 * d_tilde
    c2[kk, jj] = omega ** 2 * d_tilde
    return TruncatedState(1.0 + 0.0j, omega * c_tilde, c2)


@dataclass(frozen=True)
class G2Result:
    taus: np.ndarray
    values: np.ndarray
    port: str
    base_amp: complex      # t (transmitted) or r (reflected) used as baseline
    base_source: str       # 'steady-state' or 'cascade'
    divergent: bool
    method: str            # propagation method for the transient


def g2_curve(real: Realization, params: PhysicalParams, taus,
             port: str = TRANSMITTED) -> G2Result:
    """Normalized second-order correlation of one output port over tau >= 0.

    Raises RuntimeError when the curve is not finite, which happens once
    the baseline amplitude is too small for its fourth power.
    """
    if port not in (TRANSMITTED, REFLECTED):
        raise ValueError("port must be %r or %r" % (TRANSMITTED, REFLECTED))
    taus = np.asarray(taus, dtype=float)
    if (taus < 0).any():
        raise ValueError("taus must be non-negative")
    g0 = params.gamma0
    if real.n == 0:
        if port == TRANSMITTED:
            return G2Result(taus, np.ones_like(taus), port, 1.0 + 0.0j,
                            "steady-state", False, "none")
        return G2Result(taus, np.full_like(taus, np.inf), port, 0.0j,
                        "steady-state", True, "none")

    phases = np.asarray(real.phases(params.theta), dtype=float)
    h1, w, c_tilde = _singles(phases, real.detunings, params)
    t_amp, r_amp = _amplitudes(c_tilde, w, g0)
    jj, kk, d_tilde = _pairs(phases, real.detunings, params, w, c_tilde)

    if port == TRANSMITTED:
        probe = np.conj(w)
    else:
        probe = w
    contraction = np.zeros(real.n, dtype=complex)
    if d_tilde.size:
        np.add.at(contraction, jj, probe[kk] * d_tilde)
        np.add.at(contraction, kk, probe[jj] * d_tilde)

    base = t_amp if port == TRANSMITTED else r_amp
    source = "steady-state"
    if abs(base) < STABLE_AMP_FLOOR:
        # The additive steady-state amplitude has absolute error near the
        # solver noise floor; the multiplicative cascade keeps relative
        # accuracy at any opacity.  Rephase it from the cascade's
        # first-atom reference plane to the solver's origin convention.
        t_tm, r_tm = tm_scatter(real, replace(params, eta=0.0))
        sites = real.occupied_sites
        if port == TRANSMITTED:
            base = t_tm * np.exp(-1j * params.theta * (sites[-1] - sites[0]))
        else:
            base = r_tm * np.exp(2j * params.theta * sites[0])
        source = "cascade"
    if base == 0.0:
        return G2Result(taus, np.full_like(taus, np.inf), port, base,
                        source, True, "none")

    if port == TRANSMITTED:
        conditioned = c_tilde + 0.5j * g0 * contraction
    else:
        conditioned = 0.5j * g0 * contraction
    delta_vec = conditioned - base * c_tilde
    amps, method = propagate_amplitudes(h1, delta_vec, taus)
    q = 0.5j * g0 * (amps @ probe)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = np.abs(base * base + q) ** 2 / abs(base) ** 4
    if not np.isfinite(values).all():
        raise RuntimeError("g2 not finite: |%s baseline| = %.3g (%s) is "
                           "too small" % (port, abs(base), source))
    return G2Result(taus, values, port, base, source, False, method)


def default_taus(tau_max: float = 30.0, n_points: int = 1500) -> np.ndarray:
    return np.linspace(0.0, tau_max, n_points)
