"""Waveguide QED toolkit for disordered atom chains.

Monte Carlo scattering spectra, vacuum Rabi dynamics, and weak-drive
photon correlations for two-level atoms randomly occupying a periodic
lattice coupled to a single-mode waveguide.
"""

__version__ = "0.1.0"

from .model import (CavityChain, CavityGeometry, FillingMode, LatticeSpec,
                    PhysicalParams, Realization, mirror_closed_form,
                    reduce_theta)
from .sampling import build_cavity, realization_rng, sample_realization
from .solver import (ScanResult, ScatterResult, SolverError, build_h1,
                     count_local_maxima, optical_depth, scatter,
                     spectrum_scan, steady_state)
from .transfer_matrix import compare_markovian, tm_scatter, tm_spectrum
from .dynamics import excited_population, propagate_amplitudes
from .correlations import (G2Result, TruncatedState, g2_curve,
                           steady_state_truncated)
from .ensemble import (Ensemble, EnsembleStats, filling_scan, g2_ensemble,
                       kd_scan, rabi_ensemble, run_ensemble, spectrum_ensemble)

__all__ = [
    "__version__",
    "CavityChain", "CavityGeometry", "FillingMode", "LatticeSpec",
    "PhysicalParams", "Realization", "mirror_closed_form", "reduce_theta",
    "build_cavity", "realization_rng", "sample_realization",
    "ScanResult", "ScatterResult", "SolverError", "build_h1",
    "count_local_maxima", "optical_depth", "scatter", "spectrum_scan",
    "steady_state",
    "compare_markovian", "tm_scatter", "tm_spectrum",
    "excited_population", "propagate_amplitudes",
    "G2Result", "TruncatedState", "g2_curve", "steady_state_truncated",
    "Ensemble", "EnsembleStats", "filling_scan", "g2_ensemble", "kd_scan",
    "rabi_ensemble", "run_ensemble", "spectrum_ensemble",
]
