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

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lu_factor, lu_solve, schur
from scipy.linalg.lapack import ztrsyl

from .dynamics import propagate_amplitudes
from .model import PhysicalParams, Realization
from .solver import (RESIDUAL_TOL, SolverError, _amplitudes,
                     effective_hamiltonian, solve_with_refinement)
from .transfer_matrix import tm_scatter

STABLE_AMP_FLOOR = 1e-8

# Pair solve, relative to the Frobenius norm of H1.  Below the floor the
# smallest |T_aa + T_bb| is rounding noise on an exact zero.  The shift
# is large enough for the shifted solve to stay accurate and small
# enough for one or two refinement steps to remove it: on lossless
# resonant chains up to n = 100, relative shifts of 1e-9 and 1e-8
# converge in about one step, while 1e-7 can stall above the gate.
PAIR_SINGULAR_FLOOR = 1e-12
PAIR_SHIFT = 1e-9
PAIR_REFINE_STEPS = 4

TRANSMITTED = "transmitted"
REFLECTED = "reflected"


def _sylvester(t, c):
    """Y solving T Y + Y T = C for upper-triangular T.

    ztrsyl perturbs near-coincident eigenvalues rather than failing
    (info = 1); the residual gate of solve_pairs judges the outcome.
    """
    y, scale, _ = ztrsyl(t, t, c)
    return y / scale


def _diag_back(q, y):
    """diag(Q Y Q^H)."""
    return np.einsum("ja,ja->j", q @ y, q.conj())


def _pair_factor(h1):
    """(T, Q, LU of the multiplier matrix) for the pair equation.

    H1 = Q T Q^H is the complex Schur factor, shifted when H1 (+) H1 is
    singular.  Column m of the multiplier matrix is diag(S(e_m e_m^T)),
    S the Sylvester solve: n triangular solves with rank-1 right-hand
    sides.
    """
    n = h1.shape[0]
    t, q = schur(h1, output="complex")
    norm = np.linalg.norm(h1)
    eig = np.diag(t)
    if np.abs(eig[:, None] + eig[None, :]).min() < PAIR_SINGULAR_FLOOR * norm:
        t = t - 0.5j * PAIR_SHIFT * norm * np.eye(n)
    qh = q.conj().T
    mult = np.empty((n, n), dtype=complex)
    for m in range(n):
        mult[:, m] = _diag_back(q, _sylvester(t, np.outer(qh[:, m], q[m])))
    return t, q, lu_factor(mult)


def _pair_solve(factor, rhs):
    """Symmetric D with zero diagonal solving H1 D + D H1 = rhs off the
    diagonal (with the shifted factor, (H2 - i shift) d = rhs)."""
    t, q, lu = factor
    qh = q.conj().T
    y = _sylvester(t, qh @ rhs @ q)
    lam = lu_solve(lu, -_diag_back(q, y))
    y += _sylvester(t, qh @ (lam[:, None] * q))
    d = q @ y @ qh
    d = 0.5 * (d + d.T)
    d[np.diag_indices_from(d)] = 0.0
    return d


def _pair_residual(h1, r, d):
    """Off-diagonal R - H1 D - D H1 for symmetric H1 and D."""
    a = h1 @ d
    e = r - a - a.T
    e[np.diag_indices_from(e)] = 0.0
    return e


def solve_pairs(h1, w, c_tilde):
    """Scaled pair amplitudes D of the two-excitation steady state.

    D is the symmetric n x n matrix of the hard-core pair amplitudes,
    zero on the diagonal.  For j != k the pair equation is
    (H1 D + D H1)_jk = R_jk with R = c w^T + w c^T: pairs sharing one
    atom couple through the single-excitation hop, and no atom holds two
    excitations.  It is solved as the Sylvester equation
    H1 D + D H1 = R + diag(lambda), with the n multipliers lambda fixed
    by diag(D) = 0, on one complex Schur factor of H1: O(n^2) memory and
    O(n^4) time.

    A lossless chain on resonance can make H1 (+) H1 exactly singular
    while the pair equation stays consistent, with a null space dark to
    both ports.  The Schur factor is then shifted by -i PAIR_SHIFT/2
    (relative), which makes the solve a preconditioner for
    (H2 - i shift)^-1, and refinement against the exact residual
    removes the shift.

    Returns (D, relative residual of the pair equation).  Raises
    SolverError when the residual exceeds RESIDUAL_TOL or is not finite.
    """
    r = np.outer(c_tilde, w) + np.outer(w, c_tilde)
    r[np.diag_indices_from(r)] = 0.0
    scale = np.linalg.norm(r)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on exact zero pivots
        with np.errstate(all="ignore"):
            try:
                factor = _pair_factor(h1)
                d = _pair_solve(factor, r)
                err = _pair_residual(h1, r, d)
                for _ in range(PAIR_REFINE_STEPS):
                    d = d + _pair_solve(factor, err)
                    err = _pair_residual(h1, r, d)
                    res = float(np.linalg.norm(err) / scale) \
                        if scale > 0 else 0.0
                    if res <= RESIDUAL_TOL:
                        break
            except (np.linalg.LinAlgError, ValueError) as exc:
                # ValueError: scipy rejects the non-finite values that a
                # singular multiplier matrix produces
                raise SolverError("two-excitation solve failed: %s" % exc)
    if not res <= RESIDUAL_TOL:
        raise SolverError("two-excitation residual %.3g exceeds %.1g"
                          % (res, RESIDUAL_TOL))
    return d, res


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


def steady_state_truncated(real: Realization,
                           params: PhysicalParams) -> TruncatedState:
    """Physical amplitudes (drive included) of the truncated steady state."""
    if real.n == 0:
        return TruncatedState(1.0 + 0.0j, np.zeros(0, dtype=complex),
                              np.zeros((0, 0), dtype=complex))
    phases = np.asarray(real.phases(params.theta), dtype=float)
    h1, w, c_tilde = _singles(phases, real.detunings, params)
    d_tilde, _ = solve_pairs(h1, w, c_tilde)
    omega = params.omega
    return TruncatedState(1.0 + 0.0j, omega * c_tilde, omega ** 2 * d_tilde)


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
    d_tilde, _ = solve_pairs(h1, w, c_tilde)

    if port == TRANSMITTED:
        probe = np.conj(w)
    else:
        probe = w
    contraction = d_tilde @ probe

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
