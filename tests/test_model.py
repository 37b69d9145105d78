import math

import numpy as np
import pytest

from wgqed.model import (CavityGeometry, FillingMode, LatticeSpec,
                         PhysicalParams, Realization, mirror_closed_form,
                         reduce_theta)
from wgqed.sampling import build_cavity
from wgqed.transfer_matrix import atom_coefficients


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(gamma0=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(gamma_prime=-0.1)
    with pytest.raises(ValueError):
        PhysicalParams(drive_amp=-1.0)


@pytest.mark.parametrize("name", ["gamma0", "gamma_prime", "theta", "delta",
                                  "drive_amp", "sigma_ih", "eta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match="%s must be finite" % name):
        PhysicalParams(**{name: value})


def test_strong_drive_warns():
    with pytest.warns(UserWarning) as caught:
        PhysicalParams(drive_amp=1.0, gamma_prime=0.1)
    # reported where the parameters are built, not in the dataclass code
    assert [w.filename for w in caught] == [__file__]


def test_weak_drive_is_silent(recwarn):
    PhysicalParams(drive_amp=1e-4, gamma_prime=0.1)
    assert len(recwarn) == 0


def test_omega_convention():
    p = PhysicalParams(drive_amp=2e-4)
    assert p.omega == pytest.approx(2e-4 * math.sqrt(0.5), rel=1e-15)


def test_lattice_counts():
    assert LatticeSpec(100, 0.6).n_atoms_fixed == 60
    assert LatticeSpec(100, 0.0).n_atoms_fixed == 0
    assert LatticeSpec(3, 0.5).n_atoms_fixed == 2  # round half up
    with pytest.raises(ValueError):
        LatticeSpec(100, 1.5)
    with pytest.raises(ValueError):
        LatticeSpec(0, 0.5)


def test_realization_validation():
    with pytest.raises(ValueError):
        Realization((3, 1), (0.0, 0.0))
    with pytest.raises(ValueError):
        Realization((1, 2), (0.0,))
    r = Realization((1, 4), (0.0, 0.0))
    assert r.n == 2
    assert r.phases(0.5) == [0.5, 2.0]


def test_reduce_theta_below_pi_is_identity():
    for th in (0.3, 1.0, math.pi):
        red, conj = reduce_theta(th)
        assert red == th and not conj


def test_reduce_theta_mirror_pair_is_exact():
    """2*pi - theta must reduce back to theta with no rounding at all."""
    rng = np.random.default_rng(42)
    for _ in range(200):
        k = int(rng.integers(1, int(math.pi * 2 ** 48)))
        th = k * 2.0 ** -48
        red, conj = reduce_theta(2.0 * math.pi - th)
        assert conj
        assert red == th


def test_reduce_theta_wraps_full_turns():
    red, conj = reduce_theta(2.0 * math.pi + 1.0)
    assert red == pytest.approx(1.0, abs=1e-15)
    assert not conj


def test_mirror_closed_form_reduces_to_single_atom():
    T1, R1 = mirror_closed_form(1, 0.4, 0.2)
    t, r = atom_coefficients(0.4, 0.2)
    assert T1 == pytest.approx(abs(t) ** 2, rel=1e-14)
    assert R1 == pytest.approx(abs(r) ** 2, rel=1e-14)


def test_mirror_closed_form_flux():
    # lossless mirrors conserve flux at every detuning
    for d in (-3.0, 0.0, 0.7, 10.0):
        T, R = mirror_closed_form(7, d, 0.0)
        assert T + R == pytest.approx(1.0, abs=1e-15)


def test_cavity_build_counts():
    rng = np.random.default_rng(1)
    geom = CavityGeometry(mirror_sites=50)
    chain = build_cavity(geom, 0.6, rng)
    assert chain.n == 61  # 30 + 30 mirror atoms + center
    assert chain.phases[chain.center] == 0.0
    diffs = np.diff(chain.phases)
    assert (diffs > 0).all()


def test_cavity_empty_mirrors():
    rng = np.random.default_rng(2)
    chain = build_cavity(CavityGeometry(), 0.0, rng)
    assert chain.n == 1 and chain.center == 0


def test_cavity_full_mirrors_deterministic():
    a = build_cavity(CavityGeometry(), 1.0, np.random.default_rng(3))
    b = build_cavity(CavityGeometry(), 1.0, np.random.default_rng(4))
    assert a.phases == b.phases
    # innermost gap is theta0, the rest are theta apart
    ph = np.asarray(a.phases)
    c = a.center
    assert ph[c + 1] - ph[c] == pytest.approx(1.5 * math.pi, rel=1e-15)
    assert ph[c + 2] - ph[c + 1] == pytest.approx(math.pi, rel=1e-15)


def test_cavity_bernoulli_mode():
    rng = np.random.default_rng(5)
    chain = build_cavity(CavityGeometry(mirror_sites=200), 0.5, rng,
                         FillingMode.BERNOULLI)
    # loose 5-sigma band around 200 mirror atoms plus the center
    assert 150 <= chain.n <= 251
