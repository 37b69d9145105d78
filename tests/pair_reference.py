"""Dense two-excitation reference for the pair-solver tests.

Builds the P x P pair Hamiltonian in the lexicographic pair basis,
P = n(n-1)/2, and solves it with the gated dense LU.  O(n^4) memory and
O(n^6) time: only meant for n <= 50, as the oracle of the sparse
real-space solve ``wgqed.correlations.solve_pairs``, whose signature
``dense_solve_pairs`` shares so that tests can swap one for the other.
"""

import numpy as np

from wgqed.model import PhysicalParams
from wgqed.solver import effective_hamiltonian, solve_with_refinement


def pair_indices(n: int):
    """Lexicographic (j, k) with j < k indexing the two-excitation basis."""
    return np.triu_indices(n, k=1)


def pair_hamiltonian(h1) -> np.ndarray:
    """Two-excitation effective Hamiltonian in the lexicographic pair basis.

    Pairs couple when they share exactly one atom; the matrix element is
    the single-excitation hop between the two unshared atoms, and the
    diagonal collects both atoms' single-excitation diagonals.  Double
    occupation of one atom does not exist (two-level saturation), which
    is what makes the chain a nonlinearity at the two-photon level.
    """
    jj, kk = pair_indices(h1.shape[0])
    j1, k1 = jj[:, None], kk[:, None]
    j2, k2 = jj[None, :], kk[None, :]
    return (j1 == j2) * h1[k1, k2] + (j1 == k2) * h1[k1, j2] \
        + (k1 == j2) * h1[j1, k2] + (k1 == k2) * h1[j1, j2]


def build_h2(phases, detunings, params: PhysicalParams) -> np.ndarray:
    """Pair Hamiltonian of a chain from its raw phase coordinates."""
    return pair_hamiltonian(effective_hamiltonian(
        phases, detunings, params.delta, params.gamma_prime, params.gamma0))


def dense_solve_pairs(h1, phases, gamma0, c_tilde):
    """(D, residual) like ``solve_pairs``, by LU on the P x P matrix."""
    n = h1.shape[0]
    w = np.exp(1j * np.asarray(phases, dtype=float))
    jj, kk = pair_indices(n)
    d = np.zeros((n, n), dtype=complex)
    if not jj.size:
        return d, 0.0
    rhs = w[kk] * c_tilde[jj] + w[jj] * c_tilde[kk]
    d_vec, res = solve_with_refinement(pair_hamiltonian(h1), rhs,
                                       label="two-excitation")
    d[jj, kk] = d_vec
    d[kk, jj] = d_vec
    return d, res
