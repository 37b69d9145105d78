import numpy as np
import pytest

import me_reference
import pair_reference
from pair_reference import build_h2, pair_indices
from wgqed import correlations
from wgqed.correlations import (REFLECTED, TRANSMITTED, default_taus, g2_curve,
                                steady_state_truncated)
from wgqed.model import LatticeSpec, PhysicalParams, Realization
from wgqed.sampling import sample_realization
from wgqed.solver import effective_hamiltonian, scatter
from wgqed.transfer_matrix import tm_scatter


def chain(sites, dets=None):
    n = len(sites)
    if dets is None:
        dets = (0.0,) * n
    return Realization(tuple(int(s) for s in sites), tuple(dets))


def test_pair_basis_is_lexicographic():
    jj, kk = pair_indices(4)
    assert list(zip(jj, kk)) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_h2_elements():
    """Diagonal collects both single-atom widths; off-diagonal couples pairs
    sharing one atom through the hop between the unshared atoms."""
    p = PhysicalParams(theta=0.7, delta=0.4, gamma_prime=0.1)
    real = chain((0, 1, 3), dets=(0.2, -0.1, 0.0))
    phases = np.array(real.phases(p.theta))
    h2 = build_h2(phases, real.detunings, p)
    # pair order: (0,1), (0,2), (1,2)
    d0 = -(p.delta - 0.2 + p.delta + 0.1) - 1j * (p.gamma_prime + p.gamma0)
    assert abs(h2[0, 0] - d0) < 1e-14
    hop12 = -0.5j * np.exp(1j * abs(phases[1] - phases[2]))
    assert abs(h2[0, 1] - hop12) < 1e-14
    hop02 = -0.5j * np.exp(1j * abs(phases[0] - phases[2]))
    assert abs(h2[0, 2] - hop02) < 1e-14
    assert np.array_equal(h2, h2.T)


def test_h2_disjoint_pairs_do_not_couple():
    p = PhysicalParams(theta=1.1)
    real = chain((0, 1, 2, 3))
    h2 = build_h2(np.array(real.phases(p.theta)), real.detunings, p)
    # (0,1) and (2,3) share no atom
    assert h2[0, 5] == 0.0


# Lossless chains on resonance at the Bragg and mid-gap phases: the pair
# equation is singular (consistent, with a null space dark to the probe).
SINGULAR = {(np.pi, 0.0, 0.0), (np.pi / 2, 0.0, 0.0)}


@pytest.mark.parametrize("sigma_ih", [0.0, 0.5])
@pytest.mark.parametrize("delta", [0.0, 0.3])
@pytest.mark.parametrize("gamma_prime", [0.0, 0.1])
@pytest.mark.parametrize("theta", [0.7, np.pi / 2, np.pi, 2.5])
def test_pair_solve_matches_dense_oracle(monkeypatch, theta, gamma_prime,
                                         delta, sigma_ih):
    """The sparse real-space pair solve against the dense P x P LU:
    pair amplitudes to 1e-12 where the oracle is nonsingular, and g2 of
    both ports (1e-9) through the same g2_curve with either pair solver."""
    p = PhysicalParams(theta=theta, gamma_prime=gamma_prime, delta=delta,
                       sigma_ih=sigma_ih)
    real = sample_realization(LatticeSpec(40, 0.5), sigma_ih, 5, 2)
    assert real.n == 20
    taus = np.linspace(0.0, 5.0, 6)
    singular = sigma_ih == 0.0 and (theta, gamma_prime, delta) in SINGULAR
    ours = steady_state_truncated(real, p)
    curves = {port: g2_curve(real, p, taus, port)
              for port in (TRANSMITTED, REFLECTED)}
    monkeypatch.setattr(correlations, "solve_pairs",
                        pair_reference.dense_solve_pairs)
    oracle = steady_state_truncated(real, p)
    if not singular:
        err = np.linalg.norm(ours.c2 - oracle.c2) / np.linalg.norm(oracle.c2)
        assert err <= 1e-12
    for port, curve in curves.items():
        ref = g2_curve(real, p, taus, port)
        # a lossless resonant atom reflects perfectly: zero transmitted baseline
        assert curve.divergent == ref.divergent
        if not ref.divergent:
            assert np.max(np.abs(curve.values - ref.values)
                          / ref.values) <= 1e-9


def test_lossless_mid_gap_pairs_match_dense_oracle(monkeypatch):
    """n = 50, lossless, on resonance at the mid-gap phase: the pair
    equation is singular but consistent, and the reflected g2 agrees
    with the dense P x P LU (1225 pairs) to 1e-9."""
    p = PhysicalParams(theta=np.pi / 2, gamma_prime=0.0)
    real = sample_realization(LatticeSpec(100, 0.5), 0.0, 0, 0)
    assert real.n == 50
    taus = np.linspace(0.0, 5.0, 6)
    ours = g2_curve(real, p, taus, REFLECTED)
    monkeypatch.setattr(correlations, "solve_pairs",
                        pair_reference.dense_solve_pairs)
    ref = g2_curve(real, p, taus, REFLECTED)
    assert not ref.divergent
    assert np.max(np.abs(ours.values - ref.values) / ref.values) <= 1e-9


@pytest.mark.parametrize("lattice, seed, n, theta, gamma_prime", [
    (LatticeSpec(200, 0.6), 3, 120, np.pi / 2, 0.1),
    (LatticeSpec(200, 0.6), 3, 120, np.pi, 0.0),
    (LatticeSpec(200, 0.5), 2, 100, np.pi / 2, 0.0),
], ids=["mid-gap-lossy", "bragg-lossless", "mid-gap-lossless"])
def test_pair_solve_beyond_dense_ceiling(lattice, seed, n, theta,
                                         gamma_prime):
    """n = 100-120 (up to 7140 pairs, an 815 MB dense pair matrix): the
    pair equation holds off the diagonal to the solver's 1e-10 gate,
    checked here densely from the returned amplitudes.  The lossless
    mid-gap chain has a dozen single-excitation eigenvalues near zero."""
    p = PhysicalParams(theta=theta, gamma_prime=gamma_prime)
    real = sample_realization(lattice, 0.0, seed, 0)
    assert real.n == n
    state = steady_state_truncated(real, p)
    c = state.c1 / p.omega
    d = state.c2 / p.omega ** 2
    w = np.exp(1j * np.array(real.phases(theta)))
    h1 = effective_hamiltonian(real.phases(theta), real.detunings, p.delta,
                               p.gamma_prime, p.gamma0)
    r = np.outer(c, w) + np.outer(w, c)
    off = ~np.eye(real.n, dtype=bool)
    res = h1 @ d + d @ h1 - r
    assert np.all(np.isfinite(d)) and np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.linalg.norm(res[off]) <= 1e-10 * np.linalg.norm(r[off])


def test_truncated_state_shapes_and_symmetry():
    p = PhysicalParams(theta=0.9, delta=0.3, gamma_prime=0.05)
    real = chain((0, 2, 5, 6), dets=(0.1, 0.0, -0.2, 0.3))
    state = steady_state_truncated(real, p)
    assert state.n == 4
    assert np.array_equal(state.c2, state.c2.T)
    assert np.all(np.diag(state.c2) == 0.0)
    # singles agree with the scattering solver's steady state
    res = scatter(real, p)
    assert np.allclose(state.c1, res.c, rtol=1e-12, atol=1e-18)


def test_pair_amplitudes_scale_with_drive_squared():
    p1 = PhysicalParams(theta=0.9, drive_amp=1e-4)
    p2 = PhysicalParams(theta=0.9, drive_amp=2e-4)
    real = chain((0, 1, 4))
    s1 = steady_state_truncated(real, p1)
    s2 = steady_state_truncated(real, p2)
    assert np.allclose(s2.c1, 2.0 * s1.c1, rtol=1e-13)
    assert np.allclose(s2.c2, 4.0 * s1.c2, rtol=1e-13)


def test_g2_zero_delay_against_pair_loop():
    """g2(0) equals its closed form in the truncated steady state's
    singles and symmetric pair amplitudes."""
    rng = np.random.default_rng(7)
    p = PhysicalParams(theta=0.8, delta=0.25, gamma_prime=0.1)
    real = chain((0, 1, 3, 6, 7), dets=rng.normal(0.0, 0.3, 5))
    curve = g2_curve(real, p, [0.0], port=TRANSMITTED)
    state = steady_state_truncated(real, p)
    omega = p.omega
    c_tilde = state.c1 / omega
    d_tilde = state.c2 / omega ** 2
    w = np.exp(1j * np.array(real.phases(p.theta)))
    probe = np.conj(w)
    t_amp = 1.0 + 0.5j * np.sum(probe * c_tilde)
    conditioned = c_tilde + 0.5j * (d_tilde @ probe)
    q0 = 0.5j * np.sum(probe * (conditioned - t_amp * c_tilde))
    expected = abs(t_amp ** 2 + q0) ** 2 / abs(t_amp) ** 4
    assert abs(curve.values[0] - expected) < 1e-10 * expected


def test_single_atom_zero_delay():
    """One resonant atom: transmitted photons bunch enormously (the atom
    cannot absorb two at once, so pairs leak through), reflected photons
    antibunch exactly."""
    p = PhysicalParams(theta=1.0, delta=0.0, gamma_prime=0.1)
    real = chain((0,))
    trans = g2_curve(real, p, [0.0], port=TRANSMITTED)
    assert abs(trans.values[0] - 9801.0) < 1e-6
    refl = g2_curve(real, p, [0.0], port=REFLECTED)
    assert refl.values[0] < 1e-24


def test_matches_master_equation_one_atom():
    p = PhysicalParams(theta=1.0, delta=0.0, gamma_prime=0.1)
    taus = np.linspace(0.0, 4.0, 5)
    ours = g2_curve(chain((0,)), p, taus, port=TRANSMITTED).values
    exact = me_reference.g2_exact((0,), 0.0, 0.1, 1.0, taus, port="transmitted")
    assert np.max(np.abs(ours - exact) / exact) < 1e-3


def test_matches_master_equation_two_atoms():
    theta, delta, gp = 1.3, 0.3, 0.1
    p = PhysicalParams(theta=theta, delta=delta, gamma_prime=gp)
    taus = np.linspace(0.0, 5.0, 6)
    real = chain((0, 1))
    for port in (TRANSMITTED, REFLECTED):
        ours = g2_curve(real, p, taus, port=port).values
        exact = me_reference.g2_exact((0, 1), delta, gp, theta, taus, port=port)
        assert np.max(np.abs(ours - exact) / exact) < 1e-3, port


def test_matches_master_equation_three_atoms():
    # detuned off the collective resonance: the exact reference is run at
    # finite drive, so it needs O(1) transmission to stay in the linear regime
    theta, delta, gp = 1.3, 0.8, 0.1
    p = PhysicalParams(theta=theta, delta=delta, gamma_prime=gp)
    taus = np.linspace(0.0, 3.0, 4)
    real = chain((0, 1, 3))
    ours = g2_curve(real, p, taus, port=TRANSMITTED).values
    exact = me_reference.g2_exact((0, 1, 3), delta, gp, theta, taus,
                                  port="transmitted")
    assert np.max(np.abs(ours - exact) / exact) < 1e-3


def test_matches_master_equation_mid_gap():
    """At the mid-gap phase on resonance a three-atom chain is already
    opaque enough that g2(0) is huge; the exact master equation gives the
    same bunching and the same decay over tau <= 50."""
    theta, delta, gp = np.pi / 2, 0.0, 0.1
    p = PhysicalParams(theta=theta, delta=delta, gamma_prime=gp)
    taus = np.linspace(0.0, 50.0, 26)
    real = chain((0, 2, 3))
    ours = g2_curve(real, p, taus, port=TRANSMITTED).values
    exact = me_reference.g2_exact((0, 2, 3), delta, gp, theta, taus,
                                  port="transmitted")
    assert np.max(np.abs(ours - exact) / exact) < 1e-3
    assert ours[0] > 1e6


def test_g2_independent_of_drive_amplitude():
    real = chain((0, 2, 3))
    taus = default_taus(10.0, 50)
    weak = g2_curve(real, PhysicalParams(theta=0.6, drive_amp=1e-5), taus)
    strong = g2_curve(real, PhysicalParams(theta=0.6, drive_amp=5e-3), taus)
    assert np.array_equal(weak.values, strong.values)


def test_cascade_phase_conventions():
    """The multiplicative-cascade amplitudes differ from the additive ones
    only by the reference-plane phases g2_curve applies to its baseline."""
    rng = np.random.default_rng(11)
    sites = tuple(sorted(rng.choice(40, size=6, replace=False).tolist()))
    real = chain(sites, dets=rng.normal(0.0, 0.3, 6))
    p = PhysicalParams(theta=0.7, delta=0.4, gamma_prime=0.1)
    res = scatter(real, p)
    t_tm, r_tm = tm_scatter(real, p)
    span = sites[-1] - sites[0]
    assert abs(res.t_amp - t_tm * np.exp(-1j * p.theta * span)) < 1e-12
    assert abs(res.r_amp - r_tm * np.exp(2j * p.theta * sites[0])) < 1e-12


def test_opaque_chain_uses_cascade_baseline():
    p = PhysicalParams(theta=np.pi / 2, delta=0.0, gamma_prime=0.01)
    real = chain(range(12))
    curve = g2_curve(real, p, [0.0, 1.0], port=TRANSMITTED)
    assert curve.base_source == "cascade"
    assert not curve.divergent
    assert 0.0 < abs(curve.base_amp) < 1e-8
    assert np.all(np.isfinite(curve.values))
    assert curve.values[0] > 1.0


def test_dark_port_flags_divergent():
    # lone lossless resonant atom: the transmitted amplitude is exactly zero
    p = PhysicalParams(theta=1.0, delta=0.0, gamma_prime=0.0)
    curve = g2_curve(chain((0,)), p, [0.0, 1.0], port=TRANSMITTED)
    assert curve.divergent
    assert curve.base_amp == 0.0
    assert np.all(np.isinf(curve.values))


def test_empty_chain_ports():
    p = PhysicalParams(theta=1.0)
    taus = np.linspace(0.0, 2.0, 5)
    trans = g2_curve(chain(()), p, taus, port=TRANSMITTED)
    assert np.array_equal(trans.values, np.ones(5))
    refl = g2_curve(chain(()), p, taus, port=REFLECTED)
    assert refl.divergent and np.all(np.isinf(refl.values))


def test_g2_relaxes_to_one():
    p = PhysicalParams(theta=1.1, delta=1.5, gamma_prime=0.1)
    curve = g2_curve(chain((0, 2, 5)), p, [0.0, 30.0], port=TRANSMITTED)
    assert abs(curve.values[-1] - 1.0) < 1e-3
    assert abs(curve.values[0] - 1.0) > 0.01


def test_input_validation():
    p = PhysicalParams(theta=1.0)
    with pytest.raises(ValueError):
        g2_curve(chain((0,)), p, [0.0], port="sideways")
    with pytest.raises(ValueError):
        g2_curve(chain((0,)), p, [-1.0, 0.0])


def test_default_tau_grid():
    taus = default_taus()
    assert taus[0] == 0.0 and taus[-1] == 30.0 and taus.size == 1500
