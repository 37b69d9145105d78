import math

import numpy as np
import pytest

from wgqed.dynamics import (default_times, excited_population,
                            propagate_amplitudes)
from wgqed.model import CavityChain, CavityGeometry, PhysicalParams
from wgqed.sampling import build_cavity
from wgqed.solver import count_local_maxima, effective_hamiltonian


def test_bare_atom_decay_matches_rates():
    chain = CavityChain(phases=(0.0,), center=0)
    p = PhysicalParams(gamma_prime=0.1)
    times = np.linspace(0, 5, 11)
    res = excited_population(chain, p, times)
    assert np.max(np.abs(res.populations - np.exp(-1.1 * times))) < 1e-10


def test_population_starts_at_one():
    chain = build_cavity(CavityGeometry(), 0.7, np.random.default_rng(0))
    res = excited_population(chain, PhysicalParams(gamma_prime=0.1),
                             np.array([0.0]))
    assert res.populations[0] == pytest.approx(1.0, abs=1e-12)


def test_full_mirrors_show_rabi_revivals():
    chain = build_cavity(CavityGeometry(), 1.0, np.random.default_rng(1))
    res = excited_population(chain, PhysicalParams(gamma_prime=0.1),
                             default_times(20.0, 1000))
    assert count_local_maxima(res.populations) >= 2
    # the oscillation actually swings: deep minima below the revivals
    assert res.populations.min() < 0.5 * res.populations.max()


def test_propagator_consistency():
    rng = np.random.default_rng(2)
    phases = np.sort(rng.uniform(0, 20, 7))
    h = effective_hamiltonian(phases, np.zeros(7), 0.0, 0.2)
    v0 = np.zeros(7, dtype=complex)
    v0[3] = 1.0
    one_step, _ = propagate_amplitudes(h, v0, [1.7])
    two_step_a, _ = propagate_amplitudes(h, v0, [0.9])
    two_step_b, _ = propagate_amplitudes(h, two_step_a[0], [0.8])
    assert np.max(np.abs(two_step_b[0] - one_step[0])) < 1e-8


@pytest.mark.parametrize("method", ["eig", "expm"])
def test_non_finite_propagation_raises(method):
    """NaN norms compare false, so they would pass the passivity check."""
    h = effective_hamiltonian([0.0, 1.0], [0.0, 0.0], 0.0, 0.1)
    with pytest.raises(ValueError, match="finite"):
        propagate_amplitudes(h, [1.0, 0.0], [0.0, np.nan], method=method)
    with pytest.raises(RuntimeError, match="non-finite"):
        propagate_amplitudes(h, [np.nan, 0.0], [0.0, 1.0], method=method)


def test_eig_and_expm_agree():
    rng = np.random.default_rng(3)
    phases = np.sort(rng.uniform(0, 15, 6))
    h = effective_hamiltonian(phases, rng.normal(0, 0.5, 6), 0.0, 0.1)
    v0 = np.zeros(6, dtype=complex)
    v0[0] = 1.0
    times = np.linspace(0, 10, 21)
    a, ma = propagate_amplitudes(h, v0, times, method="eig")
    b, mb = propagate_amplitudes(h, v0, times, method="expm")
    assert (ma, mb) == ("eig", "expm")
    assert np.max(np.abs(a - b)) < 1e-10


def test_norm_never_increases():
    chain = build_cavity(CavityGeometry(mirror_sites=20), 0.5,
                         np.random.default_rng(4))
    p = PhysicalParams(gamma_prime=0.0)
    res = excited_population(chain, p, default_times(30.0, 500))
    # populations bounded by 1 and decaying envelope overall
    assert np.all(res.populations <= 1.0 + 1e-12)


def test_norm_check_rejects_active_matrix():
    # a gain matrix (positive imaginary part) must be refused
    h = np.array([[0.5j]], dtype=complex)
    with pytest.raises(RuntimeError):
        propagate_amplitudes(h, np.array([1.0 + 0j]), [0.0, 1.0])


def test_times_must_be_sorted():
    h = np.array([[-0.5j]], dtype=complex)
    with pytest.raises(ValueError):
        propagate_amplitudes(h, np.array([1.0 + 0j]), [1.0, 0.5])


def first_revival(pe):
    for i in range(1, len(pe) - 1):
        if pe[i] > pe[i - 1] and pe[i] > pe[i + 1]:
            return float(pe[i])
    return 0.0


def test_denser_mirrors_revive_harder():
    """The first revival climbs with mirror filling."""
    p = PhysicalParams(gamma_prime=0.1)
    times = default_times(20.0, 2000)
    heights = []
    for filling in (0.4, 1.0):
        chain = build_cavity(CavityGeometry(), filling,
                             np.random.default_rng(100))
        heights.append(first_revival(
            excited_population(chain, p, times).populations))
    assert heights[1] > heights[0] > 0.0


def test_method_reported_in_result():
    chain = CavityChain(phases=(0.0, 4.0), center=0)
    res = excited_population(chain, PhysicalParams(), np.linspace(0, 2, 5))
    assert res.method in ("eig", "expm")
