"""Physical parameters, lattice geometry, and unit conventions.

Units: the waveguide decay rate gamma0 is the unit of rate (gamma0 = 1
internally), the group velocity v_g = 1, and hbar = 1.  All detunings,
decay rates, and inverse times are quoted in units of gamma0.  Atom
positions are integer site indices m_j on a periodic grid; the physics
depends on them only through the phases theta * m_j, where theta = k_a d
is the phase accumulated over one lattice constant.

Drive conventions used throughout the package: the field amplitude
``drive_amp`` is E in units of sqrt(gamma0 / (2 v_g)), the corresponding
Rabi frequency is Omega = E * sqrt(gamma0 / 2), and the weak-drive steady
state solves H1 c = Omega w with w_j = exp(i theta m_j).
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass


class FillingMode(enum.Enum):
    FIXED_COUNT = "fixed-count"
    BERNOULLI = "bernoulli"


@dataclass(frozen=True)
class PhysicalParams:
    """Rates, lattice phase, and drive settings shared by every solver.

    Attributes:
        gamma0: waveguide decay rate (the rate unit; keep at 1.0).
        gamma_prime: free-space decay rate, units of gamma0.
        theta: lattice phase k_a d in radians.
        delta: drive detuning omega_in - omega_a, units of gamma0.
        drive_amp: field amplitude E in units of sqrt(gamma0 / (2 v_g)).
        sigma_ih: standard deviation of the inhomogeneous detuning.
        eta: retardation ratio gamma0 / omega_a used only by the
            transfer-matrix cascade (0 disables retardation).
    """

    gamma0: float = 1.0
    gamma_prime: float = 0.0
    theta: float = math.pi
    delta: float = 0.0
    drive_amp: float = 1e-4
    sigma_ih: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        for name in ("gamma0", "gamma_prime", "theta", "delta", "drive_amp",
                     "sigma_ih", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite" % name)
        if self.gamma0 <= 0:
            raise ValueError("gamma0 must be positive")
        if self.gamma_prime < 0 or self.sigma_ih < 0 or self.eta < 0:
            raise ValueError("gamma_prime, sigma_ih, eta must be non-negative")
        if self.drive_amp < 0:
            raise ValueError("drive_amp must be non-negative")
        if self.omega > 0.1 * max(self.gamma_prime, self.gamma0):
            warnings.warn(
                "drive Rabi frequency %.3g exceeds 0.1*max(gamma_prime, gamma0); "
                "the linear-response steady state may not be trustworthy"
                % self.omega,
                stacklevel=3,   # past the generated __init__, to the caller
            )

    @property
    def omega(self) -> float:
        """Rabi frequency Omega = E sqrt(gamma0/2) (v_g = 1)."""
        return self.drive_amp * math.sqrt(self.gamma0 / 2.0)


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic site grid with random occupancy."""

    n_sites: int
    filling: float
    filling_mode: FillingMode = FillingMode.FIXED_COUNT

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("n_sites must be >= 1")
        if not 0.0 <= self.filling <= 1.0:
            raise ValueError("filling must be in [0, 1]")

    @property
    def n_atoms_fixed(self) -> int:
        """Atom count in FixedCount mode: round(p*N) with banker-free rounding."""
        return int(math.floor(self.filling * self.n_sites + 0.5))


@dataclass(frozen=True)
class Realization:
    """One occupancy draw: sorted site indices plus per-atom detunings."""

    occupied_sites: tuple
    detunings: tuple

    def __post_init__(self):
        if len(self.occupied_sites) != len(self.detunings):
            raise ValueError("sites and detunings must have equal length")
        sites = self.occupied_sites
        if any(sites[i] >= sites[i + 1] for i in range(len(sites) - 1)):
            raise ValueError("occupied_sites must be strictly increasing")

    @property
    def n(self) -> int:
        return len(self.occupied_sites)

    def phases(self, theta: float):
        """Phase coordinates theta * m_j (monotone increasing for theta > 0)."""
        return [theta * m for m in self.occupied_sites]


TWO_PI = 2.0 * math.pi


def reduce_theta(theta: float):
    """Canonicalize the lattice phase into [0, pi].

    Returns (theta_reduced, conjugate) where ``conjugate`` indicates that
    the model at ``theta`` is the complex conjugate of the model at
    ``theta_reduced`` with the detuning sign flipped.  For theta in
    (pi, 2*pi) the subtraction 2*pi - theta is exact in floating point
    (Sterbenz), which is what makes the theta <-> 2*pi - theta symmetry
    testable to machine precision.
    """

    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    if t > math.pi:
        return TWO_PI - t, True
    return t, False


@dataclass(frozen=True)
class CavityGeometry:
    """Two atomic mirrors around a central atom.

    The mirrors are lattices with spacing phase ``theta``; the central
    atom sits a phase ``theta0`` away from the innermost site of either
    mirror.  Defaults follow the standard cavity arrangement
    (theta = pi, theta0 = 1.5 pi, 50 sites per mirror).
    """

    mirror_sites: int = 50
    theta: float = math.pi
    theta0: float = 1.5 * math.pi

    def __post_init__(self):
        if self.mirror_sites < 1:
            raise ValueError("mirror_sites must be >= 1")


@dataclass(frozen=True)
class CavityChain:
    """Phase-coordinate chain with a tagged central atom."""

    phases: tuple
    center: int  # index into phases
    detunings: tuple = None

    def __post_init__(self):
        ph = self.phases
        if any(ph[i] >= ph[i + 1] for i in range(len(ph) - 1)):
            raise ValueError("phases must be strictly increasing")
        if not 0 <= self.center < len(ph):
            raise ValueError("center index out of range")
        if self.detunings is None:
            object.__setattr__(self, "detunings", (0.0,) * len(ph))

    @property
    def n(self) -> int:
        return len(self.phases)


def mirror_closed_form(n_atoms: int, delta: float, gamma_prime: float,
                       gamma0: float = 1.0):
    """(T, R) of n atoms at the mirror phase theta = pi (any occupancy pattern)."""
    denom = (gamma_prime + n_atoms * gamma0) ** 2 + 4.0 * delta ** 2
    T = (gamma_prime ** 2 + 4.0 * delta ** 2) / denom
    R = (n_atoms * gamma0) ** 2 / denom
    return T, R
