import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from wgqed.ensemble import scatter_kernel, spectrum_ensemble
from wgqed.model import (LatticeSpec, PhysicalParams, Realization,
                         mirror_closed_form)
from wgqed.sampling import sample_realization
from wgqed import transfer_matrix
from wgqed.solver import scatter, spectrum_scan
from wgqed.transfer_matrix import (atom_coefficients, compare_markovian,
                                   gap_phase, tm_points, tm_scatter,
                                   tm_spectrum)


def random_realization(rng, n_sites=80, n_max=20, sigma=0.0):
    n = int(rng.integers(1, n_max + 1))
    sites = np.sort(rng.choice(n_sites, size=n, replace=False))
    dets = rng.normal(0, sigma, n) if sigma else np.zeros(n)
    return Realization(tuple(int(s) for s in sites), tuple(dets))


def test_atom_coefficients_closed_form():
    t, r = atom_coefficients(0.0, 0.1)
    assert r == pytest.approx(-0.5 / 0.55, rel=1e-15)
    assert t == pytest.approx(1.0 + r, rel=1e-15)
    t, r = atom_coefficients(np.array([0.0, 1.0]), 0.0, det_shift=1.0)
    assert abs(r[1]) == pytest.approx(1.0, rel=1e-15)  # on its shifted resonance
    # far detuned: transparent
    t, r = atom_coefficients(1e6, 0.0)
    assert abs(t) == pytest.approx(1.0, abs=1e-6)


def test_gap_phase_retardation():
    assert gap_phase(1.0, 3, 0.0, 0.0) == 3.0
    assert gap_phase(1.0, 3, 2.0, 1e-3) == pytest.approx(3.0 * 1.002, rel=1e-15)
    # beyond the double range: an error, not a NaN cascade
    with pytest.raises(ValueError, match="not finite"):
        gap_phase(1.0, 3, [0.0, 20.0], 1e308)


def test_single_atom_cascade_is_exact():
    t, r = tm_scatter(Realization((5,), (0.0,)),
                      PhysicalParams(gamma_prime=0.1, delta=0.4))
    t_ref, r_ref = atom_coefficients(0.4, 0.1)
    assert t == pytest.approx(complex(t_ref), rel=1e-15)
    assert r == pytest.approx(complex(r_ref), rel=1e-15)


def test_perfect_mirror_point_uses_fallback():
    # gamma'=0 on resonance: t=0 exactly per atom, so the first atom is
    # already a perfect mirror and the fold must stay finite behind it
    t, r = tm_scatter(Realization((0, 1, 2), (0.0,) * 3),
                      PhysicalParams(theta=math.pi, gamma_prime=0.0, delta=0.0))
    assert t == 0.0
    assert abs(r) == pytest.approx(1.0, rel=1e-12)


def reference_fold(real, params, delta):
    """The Redheffer fold at one detuning, in plain Python complex
    arithmetic: the loop the vectorized tm_spectrum replaces."""
    rl, rr, tt = 0.0j, 0.0j, 1.0 + 0.0j
    for j in range(real.n):
        if j:
            phi = float(gap_phase(params.theta, real.occupied_sites[j]
                                  - real.occupied_sites[j - 1], delta,
                                  params.eta, params.gamma0))
            tt *= complex(np.exp(1j * phi))
            rr *= complex(np.exp(2j * phi))
        t_a, r_a = map(complex, atom_coefficients(
            delta, params.gamma_prime, real.detunings[j], params.gamma0))
        den = 1.0 - rr * r_a
        if den == 0.0:      # already a perfect mirror: tt == 0
            rr = r_a
            continue
        rl = rl + tt * tt * r_a / den
        rr = r_a + t_a * t_a * rr / den
        tt = tt * t_a / den
    return tt, rl


@pytest.mark.parametrize("theta", [math.pi, 0.0])
def test_mixed_grid_matches_pointwise_cascade(theta):
    # one grid through the lossless resonance (t_a = 0 exactly) and
    # ordinary points; at theta = 0 every gap phase is exactly 0, so each
    # later atom meets the perfect-mirror case 1 - rr * r_a == 0
    real = Realization((0, 1, 2, 4), (0.0,) * 4)
    p = PhysicalParams(theta=theta, gamma_prime=0.0)
    deltas = np.array([-1.5, 0.0, 0.3, 0.0, 2.0])
    t, r = tm_spectrum(real, p, deltas)
    for i, delta in enumerate(deltas):
        assert (t[i], r[i]) == tm_scatter(real, replace(p, delta=delta))
        t_ref, r_ref = reference_fold(real, p, float(delta))
        assert abs(t[i] - t_ref) <= 1e-13 * abs(t_ref)
        assert abs(r[i] - r_ref) <= 1e-13 * abs(r_ref)
    assert t[1] == t[3] == 0.0
    assert abs(r[1]) == pytest.approx(1.0, rel=1e-12)
    assert np.all(np.abs(t[[0, 2, 4]]) > 0.0)


@pytest.mark.parametrize("theta", [1.0, math.pi / 2, math.pi])
def test_thousand_lossless_atoms_stay_finite(theta):
    # t underflows to 0 deep in the stop band; nothing overflows or NaNs
    real = Realization(tuple(range(1000)), (0.0,) * 1000)
    p = PhysicalParams(theta=theta, gamma_prime=0.0)
    t, r = tm_spectrum(real, p, np.linspace(-3.0, 3.0, 121))
    assert np.isfinite(t).all() and np.isfinite(r).all()
    flux = np.abs(t) ** 2 + np.abs(r) ** 2
    assert flux.max() <= 1.0 + 1e-12
    assert flux.min() >= 1.0 - 1e-11


def test_vectorized_fold_matches_reference_loop():
    # numpy and Python complex arithmetic round differently, so the two
    # agree to a few ulps per atom, not bit for bit
    rng = np.random.default_rng(205)
    for _ in range(10):
        real = random_realization(rng, n_max=40, sigma=0.5)
        p = PhysicalParams(theta=float(rng.uniform(0.0, 6.3)),
                           gamma_prime=float(rng.uniform(0.0, 0.2)),
                           eta=1e-4)
        deltas = np.linspace(-5.0, 5.0, 11)
        t, r = tm_spectrum(real, p, deltas)
        for i, delta in enumerate(deltas):
            t_ref, r_ref = reference_fold(real, p, float(delta))
            assert abs(t[i] - t_ref) <= 1e-12 * abs(t_ref)
            assert abs(r[i] - r_ref) <= 1e-12 * abs(r_ref)


def test_matches_markovian_solver_at_zero_eta():
    rng = np.random.default_rng(200)
    for _ in range(10):
        real = random_realization(rng, sigma=0.5)
        p = PhysicalParams(theta=float(rng.uniform(0.2, 6.0)),
                           gamma_prime=float(rng.uniform(0.0, 0.3)),
                           delta=float(rng.uniform(-4, 4)))
        s = scatter(real, p)
        t, r = tm_scatter(real, p)
        assert abs(s.T - abs(t) ** 2) < 1e-10
        assert abs(s.R - abs(r) ** 2) < 1e-10


def test_points_fold_matches_dense_solver():
    """One fold over chains of mixed lengths, phases past pi, detuned
    drive and inhomogeneous offsets agrees with the dense solve."""
    rng = np.random.default_rng(201)
    points = [(random_realization(rng, sigma=0.5),
               PhysicalParams(theta=float(rng.uniform(0.2, 6.0)),
                              gamma_prime=float(rng.uniform(0.0, 0.3)),
                              delta=float(rng.uniform(-4, 4))))
              for _ in range(30)]
    t, r = tm_points(points)
    for k, (real, p) in enumerate(points):
        s = scatter(real, p)
        # the dense t = 1 + (i/2) w^H c loses about eps/|t| by cancellation
        assert abs(abs(t[k]) ** 2 - s.T) <= 1e-10 * s.T
        assert abs(abs(r[k]) ** 2 - s.R) <= 1e-10 * s.R


def test_points_fold_padding_and_mirror_phase_are_bit_exact():
    """A chain folds to the same bits with or without padding next to
    longer chains, and theta -> 2*pi - theta with the detunings negated
    gives the conjugate amplitudes bit for bit."""
    rng = np.random.default_rng(202)
    reals = [random_realization(rng, sigma=0.5) for _ in range(6)] + [
        Realization((), ())]
    flipped = [Realization(real.occupied_sites,
                           tuple(-d for d in real.detunings))
               for real in reals]
    p = PhysicalParams(theta=2 * math.pi - 1.3, gamma_prime=0.1, delta=0.4)
    mirror = replace(p, theta=2 * math.pi - p.theta, delta=-p.delta)
    t, r = tm_points([(real, p) for real in reals]
                     + [(real, mirror) for real in flipped])
    m = len(reals)
    assert np.array_equal(t[m:], t[:m].conj())
    assert np.array_equal(r[m:], r[:m].conj())
    assert t[m - 1] == 1.0 and r[m - 1] == 0.0
    for k, real in enumerate(reals):
        # two unpadded columns: numpy multiplies a one-element array in
        # place along a scalar path that may round differently
        t_alone, r_alone = tm_points([(real, p)] * 2)
        assert t_alone[0] == t[k] and r_alone[0] == r[k]



def assert_runs_fold_like_single_points(runs):
    """tm_points over equal-length ``runs`` of points, each run one
    realization, gives the same bits as the same points interleaved, so
    that no two neighbours share a realization and each run is set up
    one point at a time.  Both calls fold at least two columns."""
    t_run, r_run = tm_points([pt for run in runs for pt in run])
    t_one, r_one = tm_points([pt for pts in zip(*runs) for pt in pts])
    shape = (len(runs[0]), len(runs))
    assert np.array_equal(t_run.reshape(shape[::-1]), t_one.reshape(shape).T)
    assert np.array_equal(r_run.reshape(shape[::-1]), r_one.reshape(shape).T)


@pytest.mark.parametrize("theta", [math.pi / 2, 1.0, 2 * math.pi - 1.0,
                                   math.pi])
def test_spectrum_run_sets_up_like_single_points(theta):
    p = PhysicalParams(theta=theta, gamma_prime=0.1, sigma_ih=0.3)
    reals = [sample_realization(LatticeSpec(60, 0.5), 0.3, 7, i)
             for i in range(2)]
    deltas = np.linspace(-4.0, 4.0, 61)
    assert_runs_fold_like_single_points(
        [[(real, replace(p, delta=float(d))) for d in deltas]
         for real in reals])


def test_theta_scan_run_sets_up_like_single_points():
    p = PhysicalParams(gamma_prime=0.05, delta=0.3, sigma_ih=0.5)
    thetas = np.linspace(0.1, 2 * math.pi - 0.1, 39)    # both sides of pi
    reals = [sample_realization(LatticeSpec(60, 0.5), 0.5, 4, i)
             for i in range(2)]
    assert_runs_fold_like_single_points(
        [[(real, replace(p, theta=float(th))) for th in thetas]
         for real in reals])


def test_filling_scan_runs_of_unequal_length_pad_like_single_points():
    p = PhysicalParams(theta=1.0, gamma_prime=0.1)
    reals = [sample_realization(LatticeSpec(100, f), 0.0, 3, 0)
             for f in (0.1, 0.55, 1.0, 0.3)]
    assert_runs_fold_like_single_points(
        [[(real, replace(p, delta=d)) for d in (-0.5, 0.0, 0.5)]
         for real in reals])


def test_spectrum_sets_up_atoms_once_per_realization(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return atom_coefficients(*args, **kwargs)

    monkeypatch.setattr(transfer_matrix, "atom_coefficients", counted)
    spectrum_ensemble(LatticeSpec(200, 0.6),
                      PhysicalParams(theta=math.pi / 2, gamma_prime=0.1),
                      np.linspace(-20.0, 20.0, 401), n_samples=3)
    assert len(calls) == 3


def mp_dense_scatter(real, params, digits=60):
    """(T, R) of the dense steady state H c = w at ``digits`` digits."""
    with mpmath.workdps(digits):
        phi = [mpmath.mpf(params.theta) * m for m in real.occupied_sites]
        n, g0 = real.n, mpmath.mpf(params.gamma0)
        h = mpmath.matrix(n, n)
        for j in range(n):
            for k in range(n):
                h[j, k] = -0.5j * g0 * mpmath.expj(abs(phi[j] - phi[k]))
            h[j, j] -= (mpmath.mpf(params.delta) - real.detunings[j]
                        + 0.5j * mpmath.mpf(params.gamma_prime))
        w = mpmath.matrix([mpmath.expj(x) for x in phi])
        c = mpmath.lu_solve(h, w)
        t = 1 + 0.5j * g0 * sum(mpmath.conj(w[j]) * c[j] for j in range(n))
        r = 0.5j * g0 * sum(w[j] * c[j] for j in range(n))
        return float(abs(t) ** 2), float(abs(r) ** 2)


def test_scan_kernel_matches_high_precision_dense_solve():
    """Full chains down to T ~ 1e-78, far below the ~1e-32 floor of the
    double-precision dense solve, against a 60-digit dense solve."""
    lossy = dict(gamma_prime=0.1)
    points = [
        (LatticeSpec(20, 1.0), PhysicalParams(theta=1.0, **lossy)),
        (LatticeSpec(20, 1.0), PhysicalParams(theta=2 * math.pi - 1.0,
                                              delta=0.3, sigma_ih=0.5,
                                              **lossy)),
        (LatticeSpec(24, 1.0), PhysicalParams(theta=1.0, delta=0.3,
                                              sigma_ih=0.5, **lossy)),
        (LatticeSpec(30, 1.0), PhysicalParams(theta=math.pi / 2, **lossy)),
    ]
    T, R = scatter_kernel(0, 11, points)
    for k, (lattice, p) in enumerate(points):
        real = sample_realization(lattice, p.sigma_ih, 11, 0)
        T_ref, R_ref = mp_dense_scatter(real, p)
        assert abs(T[k] - T_ref) <= 1e-10 * T_ref
        assert abs(R[k] - R_ref) <= 1e-10 * R_ref
    assert min(T) < 1e-70


def test_spectrum_matches_high_precision_dense_solve():
    """The production spectrum of two 24-atom chains, whose stop band
    reaches T ~ 2e-58, row by row against the 60-digit dense solve.
    Measured: 1.3e-14 relative in T, 1.9e-15 in R (about 2.5 n*eps)."""
    lattice, p = LatticeSpec(30, 0.8), PhysicalParams(theta=1.0,
                                                      gamma_prime=0.1)
    deltas = np.array([-0.5, 0.0, 0.5])
    cols = spectrum_ensemble(lattice, p, deltas, n_samples=2,
                             master_seed=11).columns
    ref = np.mean([[mp_dense_scatter(sample_realization(lattice, 0.0, 11, i),
                                     replace(p, delta=float(d)))
                    for d in deltas] for i in range(2)], axis=0)
    assert cols["T_mean"][1] < 1e-32
    np.testing.assert_allclose(cols["T_mean"], ref[:, 0], rtol=1e-13, atol=0)
    np.testing.assert_allclose(cols["R_mean"], ref[:, 1], rtol=1e-13, atol=0)


def test_mirror_closed_form_any_eta_at_resonance():
    # at delta=0 the retardation factor multiplies zero detuning away
    p = PhysicalParams(theta=math.pi, gamma_prime=0.1, delta=0.0, eta=1e-3)
    t, r = tm_scatter(Realization(tuple(range(6)), (0.0,) * 6), p)
    T_ref, R_ref = mirror_closed_form(6, 0.0, 0.1)
    assert abs(t) ** 2 == pytest.approx(T_ref, rel=1e-10)
    assert abs(r) ** 2 == pytest.approx(R_ref, rel=1e-10)


def test_flux_conservation_with_retardation():
    # a real phase shift cannot create or destroy photons
    rng = np.random.default_rng(201)
    real = random_realization(rng)
    p = PhysicalParams(theta=1.7, gamma_prime=0.0, eta=1e-3)
    t, r = tm_spectrum(real, p, np.linspace(-8, 8, 81))
    assert np.max(np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0)) < 1e-10


def test_cascade_associativity():
    # splitting a chain in two and composing the halves as scatterers
    # must reproduce the full cascade
    rng = np.random.default_rng(202)
    sites = tuple(int(s) for s in np.sort(rng.choice(50, 12, replace=False)))
    real = Realization(sites, (0.0,) * 12)
    p = PhysicalParams(theta=1.3, gamma_prime=0.05, delta=0.9, eta=1e-4)
    t_full, r_full = tm_scatter(real, p)

    left = Realization(sites[:6], (0.0,) * 6)
    right = Realization(tuple(s - sites[6] for s in sites[6:]), (0.0,) * 6)
    # the left stack's right-side reflection is the left-side reflection
    # of its mirror image
    left_rev = Realization(tuple(sites[5] - s for s in reversed(sites[:6])),
                           (0.0,) * 6)
    tl, _ = tm_scatter(left, p)
    _, rl_right = tm_scatter(left_rev, p)
    tr, rr = tm_scatter(right, p)
    phi = gap_phase(p.theta, sites[6] - sites[5], p.delta, p.eta)
    den = 1.0 - rl_right * np.exp(2j * phi) * rr
    t_comp = tl * np.exp(1j * phi) * tr / den
    assert abs(abs(t_comp) ** 2 - abs(t_full) ** 2) < 1e-10


def test_reciprocity():
    # transmission is direction-independent even for an asymmetric chain
    rng = np.random.default_rng(203)
    sites = tuple(int(s) for s in np.sort(rng.choice(60, 9, replace=False)))
    dets = tuple(rng.normal(0, 1.0, 9))
    real = Realization(sites, dets)
    flipped = Realization(tuple(sites[-1] - s for s in reversed(sites)),
                          tuple(reversed(dets)))
    p = PhysicalParams(theta=0.8, gamma_prime=0.12, delta=1.1, eta=1e-4)
    t_fwd, _ = tm_scatter(real, p)
    t_bwd, _ = tm_scatter(flipped, p)
    assert abs(abs(t_fwd) ** 2 - abs(t_bwd) ** 2) < 1e-10


def test_empty_chain():
    t, r = tm_scatter(Realization((), ()), PhysicalParams())
    assert t == 1.0 and r == 0.0


def test_deep_opacity_underflows_to_zero_not_garbage():
    # 200 resonant atoms at the band center: true T ~ e^{-400};
    # the cascade must report 0 (flagged by optical_depth as inf), never nan
    real = Realization(tuple(range(200)), (0.0,) * 200)
    p = PhysicalParams(theta=math.pi / 2, gamma_prime=0.0, delta=0.0)
    t, r = tm_scatter(real, p)
    assert t == 0.0
    assert np.isfinite(r)
    assert abs(r) <= 1.0 + 1e-12


def test_compare_markovian_metrics():
    rng = np.random.default_rng(204)
    real = random_realization(rng)
    p = PhysicalParams(theta=1.9, gamma_prime=0.1, eta=0.0)
    cmp = compare_markovian(real, p, np.linspace(-5, 5, 51))
    assert cmp.max_dT < 1e-10 and cmp.max_dR < 1e-10
    p_eta = PhysicalParams(theta=1.9, gamma_prime=0.1, eta=1e-3)
    cmp2 = compare_markovian(real, p_eta, np.linspace(-5, 5, 51))
    assert cmp2.max_dT > cmp.max_dT
    assert cmp2.mean_dT <= cmp2.max_dT


def test_retardation_deviation_grows_with_system_size():
    p = PhysicalParams(theta=math.pi / 2, gamma_prime=0.1, eta=1e-4)
    deltas = np.linspace(-30, 30, 121)
    devs = []
    for n in (50, 200):
        real = Realization(tuple(range(n)), (0.0,) * n)
        cmp = compare_markovian(real, p, deltas)
        devs.append(cmp.max_dT)
    assert devs[1] > devs[0]
