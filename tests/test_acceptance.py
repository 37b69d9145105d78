"""End-to-end acceptance checks, one test per guarantee.

Each test prints a single ``acceptance: <label>: PASS|FAIL`` line (visible
with ``pytest -s`` and in failure reports) and then asserts, so the
verbose test listing doubles as the acceptance scoreboard.  Seeds are
fixed; every run checks the same configurations.
"""

import numpy as np
import pytest

import me_reference
from wgqed.correlations import REFLECTED, TRANSMITTED, g2_curve
from wgqed.ensemble import (g2_ensemble, kd_scan, rabi_ensemble)
from wgqed.cli import main
from wgqed.model import (CavityGeometry, LatticeSpec, PhysicalParams,
                         Realization, mirror_closed_form)
from wgqed.sampling import sample_realization
from wgqed.solver import count_local_maxima, scatter, spectrum_scan
from wgqed.transfer_matrix import compare_markovian, tm_scatter


def report(label, ok, detail=""):
    line = "acceptance: %s: %s" % (label, "PASS" if ok else "FAIL")
    if detail:
        line += " (%s)" % detail
    print(line)
    return line


def random_realization(rng, n_sites=100, sigma=0.0):
    n = int(rng.integers(1, n_sites + 1))
    sites = tuple(sorted(rng.choice(n_sites, size=n, replace=False).tolist()))
    dets = tuple(rng.normal(0.0, sigma, n)) if sigma > 0 else (0.0,) * n
    return Realization(sites, dets)


def test_mirror_closed_form():
    worst = 0.0
    for n in (4, 20, 100):
        real = Realization(tuple(range(n)), (0.0,) * n)
        params = PhysicalParams(theta=np.pi, gamma_prime=0.1)
        deltas = np.linspace(-3.0 * (n + 1), 3.0 * (n + 1), 301)
        scan = spectrum_scan(real, params, deltas)
        T_ref, R_ref = mirror_closed_form(n, deltas, 0.1)
        worst = max(worst,
                    np.max(np.abs(scan.T - T_ref) / T_ref),
                    np.max(np.abs(scan.R - R_ref) / R_ref))
    ok = worst < 1e-6
    line = report("mirror closed form", ok, "max rel err %.2e" % worst)
    assert ok, line


def test_peak_census_vs_loss():
    real = Realization(tuple(range(4)), (0.0,) * 4)
    deltas = np.linspace(-3.0, 3.0, 601)
    counts = []
    for gp in (0.0, 0.01, 0.1, 0.17):
        params = PhysicalParams(theta=0.95 * np.pi, gamma_prime=gp)
        counts.append(count_local_maxima(spectrum_scan(real, params,
                                                       deltas).T))
    ok = counts == [3, 2, 1, 0]
    line = report("peak census", ok, "maxima %s, want [3, 2, 1, 0]" % counts)
    assert ok, line


def test_thousand_site_bragg_mirror():
    lattice = LatticeSpec(1000, 0.6)
    params = PhysicalParams(theta=np.pi, gamma_prime=0.1)
    pt = kd_scan(lattice, params, [params.theta], n_samples=100,
                 master_seed=12)
    R_mean = pt.columns["R_mean"][0]
    ok = abs(R_mean - 0.9997) <= 0.001 and not pt.failures
    line = report("1000-site mirror reflectance", ok,
                  "mean R %.5f, want 0.9997 +- 0.001" % R_mean)
    assert ok, line


def test_flux_conservation_both_solvers():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(500):
        real = random_realization(rng, sigma=float(rng.uniform(0.0, 2.0)))
        params = PhysicalParams(theta=float(rng.uniform(0.0, 2 * np.pi)),
                                delta=float(rng.uniform(-5.0, 5.0)),
                                gamma_prime=0.0)
        res = scatter(real, params)
        worst = max(worst, abs(res.T + res.R - 1.0))
        t_tm, r_tm = tm_scatter(real, params)
        worst = max(worst, abs(abs(t_tm) ** 2 + abs(r_tm) ** 2 - 1.0))
    ok = worst < 1e-10
    line = report("lossless flux conservation", ok,
                  "max |T+R-1| %.2e over 500 configs x 2 solvers" % worst)
    assert ok, line


def test_phase_mirror_symmetry():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        real = random_realization(rng)
        theta = float(rng.uniform(0.0, 2 * np.pi))
        delta = float(rng.uniform(-5.0, 5.0))
        a = scatter(real, PhysicalParams(theta=theta, delta=delta,
                                         gamma_prime=0.1))
        b = scatter(real, PhysicalParams(theta=2 * np.pi - theta,
                                         delta=-delta, gamma_prime=0.1))
        worst = max(worst, abs(a.T - b.T), abs(a.R - b.R))
    ok = worst < 1e-12
    line = report("theta -> 2pi - theta symmetry", ok,
                  "max |T - T'| %.2e" % worst)
    assert ok, line


def test_transfer_matrix_oracle_agreement():
    rng = np.random.default_rng(55)
    deltas = np.linspace(-10.0, 10.0, 101)
    worst = 0.0
    for _ in range(50):
        real = random_realization(rng, sigma=float(rng.uniform(0.0, 1.0)))
        params = PhysicalParams(theta=float(rng.uniform(0.0, 2 * np.pi)),
                                gamma_prime=0.1, eta=0.0)
        cmp = compare_markovian(real, params, deltas)
        worst = max(worst, cmp.max_dT, cmp.max_dR)
    markov_ok = worst < 1e-8

    # with retardation on, longer chains drift further from the
    # instantaneous-exchange solver at the mid-gap phase
    wide = np.linspace(-30.0, 30.0, 121)
    devs = {}
    for n in (100, 500):
        real = Realization(tuple(range(n)), (0.0,) * n)
        cmp = compare_markovian(
            real, PhysicalParams(theta=np.pi / 2, gamma_prime=0.1,
                                 eta=1e-4), wide)
        devs[n] = max(cmp.max_dT, cmp.max_dR)
    growth_ok = devs[500] > devs[100]

    # at the mirror phase the retardation phases cancel on resonance; the
    # deviation grows quadratically in delta, so the 1e-6 statement holds
    # in a narrow window around zero
    narrow = np.linspace(-1e-4, 1e-4, 21)
    mirror_dev = 0.0
    for n in (100, 500):
        real = Realization(tuple(range(n)), (0.0,) * n)
        cmp = compare_markovian(
            real, PhysicalParams(theta=np.pi, gamma_prime=0.1, eta=1e-4),
            narrow)
        mirror_dev = max(mirror_dev, cmp.max_dT, cmp.max_dR)
    mirror_ok = mirror_dev < 1e-6

    ok = markov_ok and growth_ok and mirror_ok
    line = report(
        "transfer-matrix oracle", ok,
        "markovian max dev %.2e; retarded dev N=100 %.2e vs N=500 %.2e; "
        "mirror-phase dev %.2e" % (worst, devs[100], devs[500], mirror_dev))
    assert ok, line


def beat_census(curve, taus, window):
    """Local maxima of a sampled curve with 0 < tau <= window.

    Returns (count, smallest ratio of a maximum to the next local minimum
    anywhere later on the grid, tau of the latest maximum).  A maximum
    with no later minimum gets ratio 0.
    """
    mid = np.arange(1, curve.size - 1)
    peaks = mid[(curve[mid] > curve[mid - 1]) & (curve[mid] > curve[mid + 1])]
    dips = mid[(curve[mid] < curve[mid - 1]) & (curve[mid] < curve[mid + 1])]
    peaks = peaks[taus[peaks] <= window]
    ratios = [curve[k] / curve[dips[dips > k][0]] if (dips > k).any()
              else 0.0 for k in peaks]
    latest = float(taus[peaks[-1]]) if peaks.size else 0.0
    return peaks.size, min(ratios, default=0.0), latest


def test_g2_bunching_and_beats():
    # At the mid-gap phase the chain is opaque and g2 sits at 1e47..1e179:
    # the beats show as dips of several decades (log axis), and the curve
    # relaxes to 1 at rate ~gamma_prime, so only after tau ~ ln g2(0)/0.1.
    grid = np.linspace(0.0, 50.0, 2501)
    late = np.array([1000.0, 2000.0, 5000.0])
    taus = np.concatenate([grid, late])
    lattice_args = dict(n_samples=100, master_seed=31)
    params = PhysicalParams(theta=np.pi / 2, gamma_prime=0.1)
    fillings = (0.1, 0.2, 0.3, 0.4)
    zero_delay = {}
    curves = {}
    finite = True
    for p in fillings:
        ens = g2_ensemble(LatticeSpec(100, p), params, taus,
                          port=TRANSMITTED, **lattice_args)
        assert not ens.failures
        g2 = ens.columns["g2_mean"]
        finite &= bool(np.isfinite(g2).all()
                       and np.isfinite(ens.columns["g2_se"]).all())
        zero_delay[p] = g2[0]
        curves[p] = g2
    bunched = all(v > 1.0 for v in zero_delay.values())
    ordered = (zero_delay[0.1] < zero_delay[0.2] < zero_delay[0.3]
               < zero_delay[0.4])

    census = {p: beat_census(curves[p][:grid.size], grid, 30.0)
              for p in fillings}
    beats = all(n >= 3 and ratio >= 10.0 and latest > 15.0
                for n, ratio, latest in census.values())

    at = {tau: int(np.searchsorted(taus, tau)) for tau in late}
    residual = max(abs(curves[p][at[5000.0]] - 1.0) for p in fillings)
    relaxed = residual <= 1e-2
    g4 = curves[0.4]
    rate = (np.log(g4[at[1000.0]]) - np.log(g4[at[2000.0]])) / 1000.0
    rate_ok = params.gamma_prime <= rate <= 1.2 * params.gamma_prime

    ok = finite and bunched and ordered and beats and relaxed and rate_ok
    line = report(
        "mid-gap photon bunching and beats", ok,
        "g2(0) %s; increasing %s; finite %s; maxima in (0,30] %s "
        "(need >= 3); smallest max/next-min %s (need >= 10); latest "
        "maximum %s (need > 15); max |g2(5000)-1| %.1e (need <= 1e-2); "
        "p=0.4 decay rate of ln g2 on [1000,2000] %.4f (need [0.1, 0.12])"
        % (["%.3g" % zero_delay[p] for p in fillings], ordered, finite,
           [census[p][0] for p in fillings],
           ["%.3g" % census[p][1] for p in fillings],
           ["%.2f" % census[p][2] for p in fillings], residual, rate))
    assert ok, line


def test_single_atom_g2_oracle():
    params = PhysicalParams(theta=1.0, gamma_prime=0.1)
    real = Realization((0,), (0.0,))
    ours = g2_curve(real, params, [0.0], port=TRANSMITTED).values[0]
    exact = me_reference.g2_exact((0,), 0.0, 0.1, 1.0, [0.0],
                                  port="transmitted")[0]
    rel = abs(ours - exact) / exact
    anti = g2_curve(real, params, [0.0], port=REFLECTED).values[0]
    ok = rel < 0.01 and anti < 1e-6
    line = report("single-atom g2 oracle", ok,
                  "transmitted rel err %.2e vs master equation; "
                  "reflected g2(0) %.2e" % (rel, anti))
    assert ok, line


def test_cavity_rabi_revivals():
    geom = CavityGeometry(mirror_sites=50, theta=np.pi, theta0=1.5 * np.pi)
    params = PhysicalParams(theta=np.pi, gamma_prime=0.1)
    times = np.linspace(0.0, 20.0, 2000)

    def first_revival(pe):
        for i in range(1, len(pe) - 1):
            if pe[i] > pe[i - 1] and pe[i] > pe[i + 1]:
                return float(pe[i])
        return 0.0

    heights = {}
    for p in (0.4, 0.6, 0.8, 1.0):
        ens = rabi_ensemble(geom, p, params, times, n_samples=20,
                            master_seed=8)
        heights[p] = first_revival(ens.columns["pe_mean"])
        if p == 1.0:
            revivals = count_local_maxima(ens.columns["pe_mean"])
    ordered = heights[1.0] > heights[0.8] > heights[0.6] > heights[0.4]

    bare = rabi_ensemble(geom, 0.0, params, times, n_samples=1,
                         master_seed=8)
    decay_err = float(np.max(np.abs(bare.columns["pe_mean"]
                                    - np.exp(-1.1 * times))))

    ok = revivals >= 2 and ordered and decay_err < 1e-8
    line = report(
        "cavity Rabi dynamics", ok,
        "revivals at p=1: %d; first-revival heights %s; empty-cavity decay "
        "err %.1e" % (revivals,
                      ["%.4f" % heights[p] for p in (1.0, 0.8, 0.6, 0.4)],
                      decay_err))
    assert ok, line


def test_broadening_flattens_resonance():
    sigmas = (0.0, 1.0, 2.0, 3.0)
    resonant = []
    detuned = []
    for sigma in sigmas:
        base = dict(theta=np.pi, gamma_prime=0.1, sigma_ih=sigma)
        lattice = LatticeSpec(100, 0.8)
        resonant.append(kd_scan(
            lattice, PhysicalParams(delta=0.0, **base), [np.pi],
            n_samples=200, master_seed=21).columns)
        detuned.append(kd_scan(
            lattice, PhysicalParams(delta=10.0, **base), [np.pi],
            n_samples=200, master_seed=21).columns)
    r0 = [pt["R_mean"][0] for pt in resonant]
    decreasing = all(a > b for a, b in zip(r0, r0[1:]))
    # far off resonance the four means must be indistinguishable at the
    # run's statistical resolution: their spread stays inside a 2-SE band
    # (sigma=0 is a deterministic realization with SE exactly 0, so any
    # per-pair comparison would demand exact equality)
    r10 = [pt["R_mean"][0] for pt in detuned]
    band = 2.0 * max(pt["R_se"][0] for pt in detuned)
    spread = max(r10) - min(r10)
    agree = spread <= band
    ok = decreasing and agree
    line = report(
        "inhomogeneous broadening", ok,
        "R(0) by sigma %s decreasing: %s; R(10) spread %.2e vs 2-SE band "
        "%.2e" % (["%.4f" % v for v in r0], decreasing, spread, band))
    assert ok, line


def test_byte_identical_reruns(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    args = ["spectrum", "--n-sites", "30", "--filling", "0.6",
            "--sigma-ih", "0.5", "--gamma-prime", "0.1", "--samples", "8",
            "--seed", "5", "--delta-min", "-3", "--delta-max", "3",
            "--delta-steps", "21"]
    blobs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / ("%s.dat" % name)
        code = main(args + ["--workers", str(workers), "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    line = report("byte-identical reruns", ok,
                  "rerun match %s, 1-vs-8-worker match %s"
                  % (blobs[0] == blobs[1], blobs[0] == blobs[2]))
    assert ok, line
