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
from .solver import (RESIDUAL_TOL, SolverError, _amplitudes,
                     effective_hamiltonian, solve_with_refinement)
from .transfer_matrix import tm_scatter

STABLE_AMP_FLOOR = 1e-8

TRANSMITTED = "transmitted"
REFLECTED = "reflected"


def _pair_system(d, s, gamma0):
    """CSC matrix of the real-space pair system of ``solve_pairs``.

    Unknowns, and rows in the same order: D_jk (j < k, lexicographic),
    then A_jk and B_jk over the n x n grid, row-major.  D_jj = 0 is
    never an unknown.
    """
    from scipy.sparse import csc_matrix

    n = d.size
    jj, kk = np.triu_indices(n, k=1)
    pairs = np.arange(jj.size)
    pid = np.full((n, n), -1)
    pid[jj, kk] = pid[kk, jj] = pairs
    ia = pairs.size + np.arange(n * n).reshape(n, n)
    ib = ia + n * n
    step = np.broadcast_to(s[:, None], (n - 1, n))
    off, nxt = pid >= 0, pid[1:] >= 0
    blocks = [(pairs, pairs, d[jj] + d[kk])]    # (rows, columns, values)
    blocks += [(pairs, col, -0.5j * gamma0)
               for col in (ia[jj, kk], ib[jj, kk], ia[kk, jj], ib[kk, jj])]
    blocks += [(ia, ia, 1.0), (ia[1:], ia[:-1], -step),
               (ia[off], pid[off], -1.0), (ib, ib, 1.0),
               (ib[:-1], ib[1:], -step),
               (ib[:-1][nxt], pid[1:][nxt], -step[nxt])]
    rows, cols, vals = (np.concatenate(part) for part in zip(
        *[(r.ravel(), c.ravel(), np.broadcast_to(v, r.shape).ravel())
          for r, c, v in blocks]))
    size = pairs.size + 2 * n * n
    return csc_matrix((vals, (rows, cols)), shape=(size, size))


def _pair_residual(d, s, gamma0, r, dmat):
    """Relative off-diagonal residual of the pair equation, in O(n^2):
    G D = A + B from the running sums of ``solve_pairs``."""
    a, b = dmat.copy(), np.zeros_like(dmat)
    for j in range(1, d.size):
        a[j] += s[j - 1] * a[j - 1]
    for j in range(d.size - 2, -1, -1):
        b[j] = s[j] * (b[j + 1] + dmat[j + 1])
    err = r - (d[:, None] + d[None, :]) * dmat \
        + 0.5j * gamma0 * (a + b + (a + b).T)
    err[np.diag_indices_from(err)] = 0.0
    return float(np.linalg.norm(err) / np.linalg.norm(r)) if r.any() else 0.0


def solve_pairs(h1, phases, gamma0, c_tilde):
    """Scaled pair amplitudes D of the two-excitation steady state.

    D is the symmetric n x n matrix of the hard-core pair amplitudes,
    zero on the diagonal.  For j != k the pair equation is
    (H1 D + D H1)_jk = R_jk with R = c w^T + w c^T, w = exp(i phases):
    pairs sharing one atom couple through the single-excitation hop,
    and no atom holds two excitations.  With H1 = diag(d) - (i gamma0/2) G,
    G_jl = exp(i |phi_j - phi_l|), it is solved in real space: G D = A + B
    with the running sums A_jk = s_{j-1} A_{j-1,k} + D_jk and
    B_jk = s_j (B_{j+1,k} + D_{j+1,k}), s_j = exp(i |phi_{j+1} - phi_j|), so

        (d_j + d_k) D_jk - (i gamma0/2)(A_jk + B_jk + A_kj + B_kj) = R_jk

    and the two recurrences form one sparse system of n(n-1)/2 + 2n^2
    unknowns with at most 5 nonzeros per row: one sparse LU and one
    refinement step.  The phases must be monotone, as along a chain.

    Returns (D, relative residual of the pair equation).  Raises
    SolverError when the factor is exactly singular or the residual
    exceeds RESIDUAL_TOL or is not finite.
    """
    from scipy.sparse.linalg import splu

    phases = np.asarray(phases, dtype=float)
    gaps = np.diff(phases)
    if (gaps < 0).any() and (gaps > 0).any():
        raise ValueError("phases must be monotone along the chain")
    d = np.diag(h1) + 0.5j * gamma0
    s = np.exp(1j * np.abs(gaps))
    w = np.exp(1j * phases)
    r = np.outer(c_tilde, w) + np.outer(w, c_tilde)
    r[np.diag_indices_from(r)] = 0.0
    jj, kk = np.triu_indices(d.size, k=1)
    mat = _pair_system(d, s, gamma0)
    rhs = np.zeros(mat.shape[0], dtype=complex)
    rhs[:jj.size] = r[jj, kk]
    with np.errstate(all="ignore"):
        try:
            # a small panel and little supernode relaxation keep SuperLU's
            # workspace and the heap fragmentation it leaves small (and fast)
            lu = splu(mat, panel_size=4, relax=1)
        except RuntimeError as exc:    # exactly singular factor
            raise SolverError("two-excitation solve failed: %s" % exc)
        x = lu.solve(rhs)
        x += lu.solve(rhs - mat @ x)
        dmat = np.zeros_like(r)
        dmat[jj, kk] = dmat[kk, jj] = x[:jj.size]
        res = _pair_residual(d, s, gamma0, r, dmat)
    if not res <= RESIDUAL_TOL:
        raise SolverError("two-excitation residual %.3g exceeds %.1g"
                          % (res, RESIDUAL_TOL))
    return dmat, res


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
    d_tilde, _ = solve_pairs(h1, phases, params.gamma0, c_tilde)
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
    d_tilde, _ = solve_pairs(h1, phases, params.gamma0, c_tilde)

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
    if not 0.0 <= tau_max < np.inf:
        raise ValueError("tau_max must be finite and non-negative")
    return np.linspace(0.0, tau_max, n_points)
