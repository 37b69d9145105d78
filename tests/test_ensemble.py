from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from wgqed import ensemble, solver
from wgqed.correlations import default_taus
from wgqed.ensemble import (filling_scan, g2_ensemble, kd_scan,
                            rabi_ensemble, run_ensemble, spectrum_ensemble)
from wgqed.model import (CavityGeometry, FillingMode, LatticeSpec,
                         PhysicalParams)
from wgqed.sampling import sample_realization
from wgqed.transfer_matrix import tm_points


def counting_kernel(index, master_seed):
    return np.array([float(index), float(master_seed)])


def flaky_kernel(index, master_seed):
    if index == 2:
        raise ValueError("boom")
    return np.array([1.0, float(index)])


def broken_kernel(index, master_seed):
    raise RuntimeError("nope")


def test_index_ordered_merge():
    stats = run_ensemble(counting_kernel, 5, master_seed=42)
    assert stats.mean[0] == 2.0  # mean of 0..4
    assert stats.mean[1] == 42.0
    assert stats.count == 5 and stats.failures == []


def test_failures_recorded_and_skipped():
    stats = run_ensemble(flaky_kernel, 5, master_seed=0)
    assert stats.count == 4
    assert stats.failures == [(2, "ValueError: boom")]
    # mean over indices 0, 1, 3, 4
    assert stats.mean[1] == 2.0


def huge_kernel(index, master_seed):
    return np.array([1e200 * (index + 1), float(index + 1)])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stderr_of_huge_values_is_finite():
    """Squaring deviations near 1e200 overflows a plain std; the stderr
    must still come out finite and correct."""
    stats = run_ensemble(huge_kernel, 4, master_seed=0)
    small_se = np.std([1.0, 2.0, 3.0, 4.0], ddof=1) / 2.0
    assert np.isfinite(stats.stderr[0])
    assert abs(stats.stderr[0] - 1e200 * small_se) <= 1e-14 * 1e200 * small_se
    assert stats.stderr[1] == small_se


def test_all_failed_raises():
    with pytest.raises(RuntimeError, match="all 3 realizations failed"):
        run_ensemble(broken_kernel, 3, master_seed=0)


def test_sample_count_validation():
    with pytest.raises(ValueError):
        run_ensemble(counting_kernel, 0, master_seed=0)


def test_full_filling_has_zero_spread():
    """p=1 with no inhomogeneous broadening is the same realization every
    time, so the standard error must vanish identically."""
    lattice = LatticeSpec(20, 1.0)
    params = PhysicalParams(theta=0.9, delta=0.5, gamma_prime=0.1)
    pt = kd_scan(lattice, params, [params.theta], n_samples=4,
                 master_seed=3).columns
    assert pt["T_se"][0] == 0.0 and pt["R_se"][0] == 0.0
    assert 0.0 < pt["T_mean"][0] < 1.0


TINY_RUNS = {
    "spectrum": lambda **kw: spectrum_ensemble(
        LatticeSpec(30, 0.6),
        PhysicalParams(theta=1.2, gamma_prime=0.1, sigma_ih=0.5),
        np.linspace(-2.0, 2.0, 9), n_samples=8, master_seed=17, **kw),
    "kd-scan": lambda **kw: kd_scan(
        LatticeSpec(20, 0.5), PhysicalParams(delta=0.3, gamma_prime=0.1),
        (0.5, np.pi / 2, 4.0), n_samples=4, master_seed=2, **kw),
    "filling-scan": lambda **kw: filling_scan(
        20, PhysicalParams(theta=1.0, gamma_prime=0.1, sigma_ih=0.3),
        (0.0, 0.5, 1.0), FillingMode.BERNOULLI, n_samples=3, master_seed=3,
        **kw),
    # fewer samples than workers: the pool shrinks to the sample count
    "filling-scan-one-sample": lambda **kw: filling_scan(
        12, PhysicalParams(theta=2.0, gamma_prime=0.1), (0.25, 0.75),
        n_samples=1, master_seed=8, **kw),
    "rabi": lambda **kw: rabi_ensemble(
        CavityGeometry(mirror_sites=6), 0.5, PhysicalParams(gamma_prime=0.1),
        np.linspace(0.0, 4.0, 9), n_samples=3, master_seed=4, **kw),
    # a lone lossless atom fails, so the failure list is compared too
    "g2": lambda **kw: g2_ensemble(
        LatticeSpec(3, 0.5, FillingMode.BERNOULLI), PhysicalParams(theta=1.0),
        [0.0, 0.5, 1.0], n_samples=8, master_seed=0, average="g2", **kw),
    "G2": lambda **kw: g2_ensemble(
        LatticeSpec(8, 0.5), PhysicalParams(theta=0.8, gamma_prime=0.1),
        [0.0, 0.5, 1.0], port="reflected", n_samples=3, master_seed=6,
        average="G2", **kw),
    # 120 atoms: sizes at which OpenBLAS would go threaded
    "spectrum-120-atoms": lambda **kw: spectrum_ensemble(
        LatticeSpec(150, 0.8),
        PhysicalParams(theta=np.pi / 2, gamma_prime=0.1, sigma_ih=0.3),
        np.linspace(-1.0, 1.0, 5), n_samples=3, master_seed=11, **kw),
    "g2-reflected-120-atoms": lambda **kw: g2_ensemble(
        LatticeSpec(150, 0.8), PhysicalParams(theta=np.pi / 2,
                                              gamma_prime=0.1),
        [0.0, 0.5, 1.0, 2.0, 5.0], port="reflected", n_samples=2,
        master_seed=12, **kw),
}


@pytest.mark.parametrize("driver", list(TINY_RUNS))
def test_worker_count_does_not_change_results(driver):
    serial = TINY_RUNS[driver](workers=1)
    pooled = TINY_RUNS[driver](workers=2)
    assert list(serial.columns) == list(pooled.columns)
    for name, values in serial.columns.items():
        assert np.array_equal(values, pooled.columns[name]), name
    assert serial.count == pooled.count
    assert serial.failures == pooled.failures


def test_ensemble_conservation_without_loss():
    lattice = LatticeSpec(25, 0.5)
    params = PhysicalParams(theta=0.8, gamma_prime=0.0, sigma_ih=1.0)
    deltas = np.linspace(-3.0, 3.0, 7)
    ens = spectrum_ensemble(lattice, params, deltas, n_samples=10,
                            master_seed=5)
    assert np.max(np.abs(ens.columns["sum_mean"] - 1.0)) <= 1e-12


def test_spectrum_mirror_phase_is_bit_exact():
    """theta -> 2*pi - theta with delta -> -delta gives the same ensemble
    spectrum bit for bit (no inhomogeneous offsets to negate)."""
    lattice, p = LatticeSpec(40, 0.5), PhysicalParams(theta=1.0,
                                                      gamma_prime=0.1)
    deltas = np.linspace(-3.0, 2.0, 11)
    a = spectrum_ensemble(lattice, p, deltas, n_samples=6, master_seed=9)
    b = spectrum_ensemble(lattice, replace(p, theta=2 * np.pi - p.theta),
                          -deltas, n_samples=6, master_seed=9)
    for name in ("T_mean", "T_se", "R_mean", "R_se"):
        assert np.array_equal(a.columns[name], b.columns[name]), name


def test_no_ensemble_runs_a_dense_solve(monkeypatch):
    """Spectrum and both scans take T and R from the cascade alone."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense solve on an ensemble path")
    monkeypatch.setattr(solver, "solve_with_refinement", refuse)
    for name in ("spectrum", "kd-scan", "filling-scan"):
        ens = TINY_RUNS[name](workers=1)
        assert ens.failures == [] and ens.count > 1, name


def test_filling_scan_growth_then_plateau():
    """Depth climbs strictly with filling, up to an opaque chain whose
    averaged transmission is far below the dense solve's 1e-32 floor."""
    params = PhysicalParams(theta=1.0, delta=0.0, gamma_prime=0.1)
    scan = filling_scan(100, params, (0.1, 0.3, 0.5, 0.9), n_samples=30,
                        master_seed=9)
    d = scan.columns["depth"]
    assert d[1] > d[0] + 5.0
    assert np.all(np.diff(d) > 0.0) and d[3] > 450.0
    assert scan.columns["T_mean"].shape == (4,)


def test_kd_scan_mirror_symmetry_and_bragg_dip():
    lattice = LatticeSpec(100, 0.5)
    params = PhysicalParams(delta=0.0, gamma_prime=0.1)
    thetas = (1.0, np.pi / 2, np.pi, 2 * np.pi - 1.0)
    scan = kd_scan(lattice, params, thetas, n_samples=20,
                   master_seed=4).columns
    # theta -> 2*pi - theta is an exact symmetry on resonance
    assert scan["T_mean"][0] == scan["T_mean"][3]
    assert scan["R_mean"][0] == scan["R_mean"][3]
    # half-wave spacing is anomalously transparent compared to mid-gap
    assert scan["depth"][2] < scan["depth"][1]


def test_rabi_without_mirrors_is_bare_decay():
    geom = CavityGeometry()
    params = PhysicalParams(theta=geom.theta, gamma_prime=0.1)
    times = np.linspace(0.0, 5.0, 40)
    ens = rabi_ensemble(geom, 0.0, params, times, n_samples=2, master_seed=1)
    assert np.allclose(ens.columns["pe_mean"], np.exp(-1.1 * times),
                       atol=1e-8)
    assert np.all(ens.columns["pe_se"] == 0.0)


def test_g2_average_modes_differ():
    lattice = LatticeSpec(10, 0.5)
    params = PhysicalParams(theta=0.8, gamma_prime=0.1)
    taus = np.array([0.0, 1.0, 2.0])
    plain = g2_ensemble(lattice, params, taus, n_samples=6, master_seed=2,
                        average="g2")
    weighted = g2_ensemble(lattice, params, taus, n_samples=6, master_seed=2,
                           average="G2")
    assert plain.count == weighted.count == 6
    plain, weighted = plain.columns["g2_mean"], weighted.columns["g2_mean"]
    assert np.all(plain > 0.0) and np.all(weighted > 0.0)
    assert not np.array_equal(plain, weighted)
    with pytest.raises(ValueError):
        g2_ensemble(lattice, params, taus, n_samples=2, average="bogus")


def test_g2_divergent_baseline_raises():
    # a lone lossless atom kills the transmitted baseline in every draw
    lattice = LatticeSpec(1, 1.0)
    params = PhysicalParams(theta=1.0, gamma_prime=0.0)
    with pytest.raises(RuntimeError, match="divergent"):
        g2_ensemble(lattice, params, [0.0], n_samples=3, master_seed=0)


def test_g2_underflowing_baseline_fails():
    """Sixty full sites at the mid-gap phase: the cascade baseline is about
    1e-78, so its fourth power underflows and the curve cannot be
    normalized; the realization must fail instead of returning inf."""
    lattice = LatticeSpec(60, 1.0)
    params = PhysicalParams(theta=np.pi / 2, gamma_prime=0.1)
    with pytest.raises(RuntimeError, match=r"g2 not finite: \|transmitted "
                                           r"baseline\| = 1\.\d+e-78"):
        g2_ensemble(lattice, params, default_taus(30.0, 5), n_samples=2)


def test_progress_callback_sees_every_sample():
    seen = []
    run_ensemble(counting_kernel, 4, master_seed=0,
                 progress=lambda done, total: seen.append((done, total)))
    assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]


def opens_pools(monkeypatch):
    """The max_workers of every pool run_ensemble opens, in order."""
    opened = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            opened.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", CountingPool)
    return opened


def test_filling_scan_opens_one_pool(monkeypatch):
    opened = opens_pools(monkeypatch)
    scan = filling_scan(10, PhysicalParams(theta=1.0, gamma_prime=0.1),
                        (0.2, 0.5, 0.8), n_samples=4, master_seed=1,
                        workers=2)
    assert opened == [2]
    assert scan.count == 4


def test_pool_never_exceeds_sample_count(monkeypatch):
    opened = opens_pools(monkeypatch)
    stats = run_ensemble(counting_kernel, 2, master_seed=5, workers=8)
    assert opened == [2]
    assert stats.mean[0] == 0.5 and stats.count == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_filling_scan_fails_realizations_not_fillings(monkeypatch, workers):
    """A realization that fails at one filling fails for the whole scan,
    and its failure carries its realization index."""
    lattice = LatticeSpec(6, 1 / 3)

    def doomed(real):        # the two-atom draws that start on site 0
        return real.n == 2 and real.occupied_sites[0] == 0

    def flaky_tm_points(points):
        if any(doomed(real) for real, _ in points):
            raise RuntimeError("forced")
        return tm_points(points)

    monkeypatch.setattr(ensemble, "tm_points", flaky_tm_points)
    scan = filling_scan(6, PhysicalParams(theta=1.0, gamma_prime=0.1),
                        [lattice.filling, 1.0], n_samples=8, master_seed=0,
                        workers=workers)
    expected = [i for i in range(8)
                if doomed(sample_realization(lattice, 0.0, 0, i))]
    assert 0 < len(expected) < 8
    assert [i for i, _ in scan.failures] == expected
    assert scan.count + len(scan.failures) == 8
    assert scan.count == 8 - len(expected)
