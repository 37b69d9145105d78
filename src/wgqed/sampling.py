"""Reproducible disorder draws.

Every realization gets its own counter-based stream: a Philox generator
keyed by the master seed and jumped by the realization index.  Stream
identity depends only on (master_seed, index), never on how many worker
processes consume the indices, so ensembles are bit-reproducible across
serial and parallel runs.

Within one stream the occupancy pattern is always drawn first and the
detunings second; switching sigma_ih off therefore leaves the occupancy
sequence untouched.
"""

from __future__ import annotations

import numpy as np

from .model import (CavityChain, CavityGeometry, FillingMode, LatticeSpec,
                    Realization)


def realization_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent Philox stream for realization ``index``."""
    if index < 0:
        raise ValueError("index must be non-negative")
    return np.random.Generator(np.random.Philox(key=master_seed).jumped(index))


def sample_occupancy(lattice: LatticeSpec, rng: np.random.Generator):
    """Sorted occupied site indices under the lattice's filling mode."""
    n = lattice.n_sites
    if lattice.filling_mode is FillingMode.FIXED_COUNT:
        k = lattice.n_atoms_fixed
        if k == 0:
            return ()
        sites = rng.choice(n, size=k, replace=False)
        sites.sort()
        return tuple(int(s) for s in sites)
    draw = rng.random(n)
    return tuple(i for i in range(n) if draw[i] < lattice.filling)


def sample_detunings(count: int, sigma_ih: float, rng: np.random.Generator):
    """Gaussian inhomogeneous detunings (untruncated); zeros when sigma_ih = 0."""
    if sigma_ih == 0.0:
        return (0.0,) * count
    return tuple(float(d) for d in rng.normal(0.0, sigma_ih, size=count))


def sample_realization(lattice: LatticeSpec, sigma_ih: float,
                       master_seed: int, index: int) -> Realization:
    """Draw realization ``index`` of an ensemble: occupancy, then detunings."""
    rng = realization_rng(master_seed, index)
    sites = sample_occupancy(lattice, rng)
    dets = sample_detunings(len(sites), sigma_ih, rng)
    return Realization(occupied_sites=sites, detunings=dets)


def build_cavity(geom: CavityGeometry, filling: float, rng,
                 mode: FillingMode = FillingMode.FIXED_COUNT) -> CavityChain:
    """Draw one cavity realization: random mirror occupancy, center always present.

    Each mirror is drawn like a lattice of ``geom.mirror_sites`` sites,
    left then right.  With filling 0 the chain degenerates to the bare
    central atom, whose excited population must decay as
    exp(-(gamma0+gamma_prime) t).
    """
    mirror = LatticeSpec(geom.mirror_sites, filling, mode)
    left, right = sample_occupancy(mirror, rng), sample_occupancy(mirror, rng)
    phases = [-(geom.theta0 + k * geom.theta) for k in reversed(left)]
    phases.append(0.0)
    center = len(phases) - 1
    phases.extend(geom.theta0 + k * geom.theta for k in right)
    return CavityChain(phases=tuple(phases), center=center)
