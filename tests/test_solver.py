import math

import numpy as np
import pytest

from wgqed.model import PhysicalParams, Realization, mirror_closed_form
from wgqed.solver import (SolverError, count_local_maxima,
                          effective_hamiltonian, optical_depth, scatter,
                          solve_with_refinement, spectrum_scan)


def random_realization(rng, n_sites=100, n_max=30):
    n = int(rng.integers(1, n_max + 1))
    sites = np.sort(rng.choice(n_sites, size=n, replace=False))
    return Realization(tuple(int(s) for s in sites), (0.0,) * n)


def test_h1_single_atom_entry():
    h = effective_hamiltonian([0.0], [0.0], delta=0.0, gamma_prime=0.1)
    assert h.shape == (1, 1)
    assert h[0, 0] == pytest.approx(-0.55j, abs=1e-15)


def test_h1_offdiagonal_phases():
    h = effective_hamiltonian([0.0, math.pi], [0.0, 0.0], delta=0.0,
                              gamma_prime=0.0)
    # e^{i pi} = -1 flips the coupling sign
    assert h[0, 1] == pytest.approx(0.5j, abs=1e-15)
    h2 = effective_hamiltonian([0.0, math.pi / 2], [0.0, 0.0], delta=0.0,
                               gamma_prime=0.0)
    assert h2[0, 1] == pytest.approx(0.5 + 0.0j, abs=1e-15)
    assert np.allclose(h2, h2.T)  # complex-symmetric, not Hermitian


def test_h1_detunings_enter_diagonal():
    h = effective_hamiltonian([0.0, 2 * math.pi], [0.3, -0.4], delta=1.0,
                              gamma_prime=0.0)
    assert h[0, 0].real == pytest.approx(-(1.0 - 0.3), rel=1e-15)
    assert h[1, 1].real == pytest.approx(-(1.0 + 0.4), rel=1e-15)


def test_single_atom_steady_state():
    p = PhysicalParams(gamma_prime=0.1, delta=0.0)
    h = effective_hamiltonian([0.0], [0.0], p.delta, p.gamma_prime)
    c, _ = solve_with_refinement(h, p.omega * np.ones(1))
    assert c[0] == pytest.approx(1j * p.omega / 0.55, rel=1e-12)


def test_single_atom_transmission_extinction():
    res = scatter(Realization((0,), (0.0,)),
                  PhysicalParams(gamma_prime=0.1, delta=0.0))
    assert res.T == pytest.approx(1.0 / 121.0, rel=1e-12)
    assert res.R == pytest.approx(100.0 / 121.0, rel=1e-12)


def test_empty_chain_is_transparent():
    res = scatter(Realization((), ()), PhysicalParams())
    assert res.t_amp == 1.0 and res.r_amp == 0.0
    scan = spectrum_scan(Realization((), ()), PhysicalParams(),
                         np.linspace(-5, 5, 11))
    assert np.all(scan.T == 1.0) and np.all(scan.R == 0.0)


def test_mirror_closed_form_matches_solver():
    p_base = PhysicalParams(theta=math.pi, gamma_prime=0.1)
    for n in (1, 4, 20):
        real = Realization(tuple(range(n)), (0.0,) * n)
        deltas = np.linspace(-3 * (n + 1), 3 * (n + 1), 61)
        scan = spectrum_scan(real, p_base, deltas)
        T_ref, R_ref = mirror_closed_form(n, deltas, 0.1)
        assert np.max(np.abs(scan.T - T_ref) / np.maximum(T_ref, 1e-300)) < 1e-8
        assert np.max(np.abs(scan.R - R_ref) / R_ref) < 1e-8


def test_mirror_form_holds_for_any_occupancy_pattern():
    # at theta = pi only the atom count matters, not which sites
    p = PhysicalParams(theta=math.pi, gamma_prime=0.1, delta=0.7)
    a = scatter(Realization((0, 1, 2, 3, 4), (0.0,) * 5), p)
    b = scatter(Realization((2, 11, 17, 40, 93), (0.0,) * 5), p)
    assert a.T == pytest.approx(b.T, rel=1e-12)
    assert a.R == pytest.approx(b.R, rel=1e-12)


def test_flux_conservation_without_free_space_loss():
    rng = np.random.default_rng(100)
    for _ in range(50):
        real = random_realization(rng)
        p = PhysicalParams(theta=float(rng.uniform(0.1, 6.2)),
                           delta=float(rng.uniform(-5, 5)),
                           gamma_prime=0.0)
        res = scatter(real, p)
        assert res.T + res.R == pytest.approx(1.0, abs=1e-10)


def test_site_shift_leaves_spectra():
    rng = np.random.default_rng(101)
    sites = tuple(int(s) for s in np.sort(rng.choice(40, 8, replace=False)))
    shifted = tuple(s + 13 for s in sites)
    p = PhysicalParams(theta=1.3, delta=0.8, gamma_prime=0.05)
    a = scatter(Realization(sites, (0.0,) * 8), p)
    b = scatter(Realization(shifted, (0.0,) * 8), p)
    assert abs(a.T - b.T) < 1e-12
    assert abs(a.R - b.R) < 1e-12


def test_rate_unit_rescaling():
    # doubling gamma0 with all other rates doubled rescales nothing observable
    sites = (0, 2, 5, 9)
    a = scatter(Realization(sites, (0.0,) * 4),
                PhysicalParams(gamma0=1.0, gamma_prime=0.1, delta=0.6, theta=1.1))
    b = scatter(Realization(sites, (0.0,) * 4),
                PhysicalParams(gamma0=2.0, gamma_prime=0.2, delta=1.2, theta=1.1))
    assert abs(a.T - b.T) < 1e-10
    assert abs(a.R - b.R) < 1e-10


def test_drive_amplitude_cancels_in_t_r():
    sites = (0, 3, 4)
    pa = PhysicalParams(drive_amp=1e-4, gamma_prime=0.1, delta=0.2)
    pb = PhysicalParams(drive_amp=2e-4, gamma_prime=0.1, delta=0.2)
    a, b = scatter(Realization(sites, (0.0,) * 3), pa), \
        scatter(Realization(sites, (0.0,) * 3), pb)
    assert a.t_amp == b.t_amp and a.r_amp == b.r_amp
    assert np.array_equal(2.0 * a.c, b.c)  # amplitudes strictly linear


def test_theta_mirror_symmetry_is_bit_exact():
    rng = np.random.default_rng(102)
    for _ in range(20):
        real = random_realization(rng)
        k = int(rng.integers(1, int(math.pi * 2 ** 48)))
        th = k * 2.0 ** -48
        d = float(rng.uniform(-5, 5))
        a = scatter(real, PhysicalParams(theta=th, delta=d, gamma_prime=0.1))
        b = scatter(real, PhysicalParams(theta=2 * math.pi - th, delta=-d,
                                         gamma_prime=0.1))
        assert a.T == b.T
        assert a.R == b.R


def test_residual_gate_rejects_inconsistent_system():
    h = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    rhs = np.array([0.0, 1.0], dtype=complex)
    with pytest.raises(SolverError) as info:
        solve_with_refinement(h, rhs)
    assert info.value.condition is not None


def test_superatom_linewidth_scales_with_atom_number():
    """Collective emitters at theta=pi: reflection FWHM = gamma' + n*gamma0."""
    from scipy.optimize import brentq
    gp = 0.1
    for n in (1, 2, 4, 8):
        real = Realization(tuple(range(n)), (0.0,) * n)

        def refl(d):
            return scatter(real, PhysicalParams(theta=math.pi, delta=d,
                                                gamma_prime=gp)).R

        peak = refl(0.0)
        width = gp + n
        half = brentq(lambda d: refl(d) - peak / 2.0, 1e-6, 3.0 * width)
        assert 2.0 * half == pytest.approx(width, rel=0.01)


def test_optical_depth_values():
    assert optical_depth(1.0) == 0.0
    assert optical_depth(math.exp(-2.0)) == pytest.approx(2.0, rel=1e-15)
    assert optical_depth(0.0) == math.inf
    assert optical_depth(1.0 / 121.0) == pytest.approx(4.795790545596741,
                                                       rel=1e-14)
    with pytest.raises(ValueError):
        optical_depth(-1e-3)


def test_count_local_maxima():
    assert count_local_maxima([0, 1, 0]) == 1
    assert count_local_maxima([0, 1, 0, 2, 0]) == 2
    assert count_local_maxima([3, 2, 1]) == 0
    assert count_local_maxima([1, 1, 1]) == 0  # plateaus are not strict maxima
    assert count_local_maxima([0, 1]) == 0


def test_detuned_atoms_shift_the_resonance():
    # one atom with an offset: the extinction dip sits at delta = offset
    real = Realization((0,), (1.5,))
    scan = spectrum_scan(real, PhysicalParams(gamma_prime=0.1),
                         np.linspace(0, 3, 301))
    dip = scan.deltas[np.argmin(scan.T)]
    assert dip == pytest.approx(1.5, abs=0.02)


def test_effective_hamiltonian_accepts_raw_phases():
    h = effective_hamiltonian([0.0, 1.5 * math.pi], [0.0, 0.0], 0.0, 0.0)
    assert h[0, 1] == pytest.approx(-0.5j * np.exp(1.5j * math.pi), abs=1e-15)
