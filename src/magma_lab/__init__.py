"""Numerical laboratory for the magma porosity equation.

Pseudospectral time evolution on the d-torus via elliptic inversion of
the compaction rate, plus a shooting toolkit for radially symmetric
solitary-wave profiles and the diagnostics connecting the two.
"""

from .diagnostics import (
    ConservedEnergyParams,
    DispersionFit,
    NoPeak,
    PeakTrack,
    conserved_energy,
    energy_series,
    fit_dispersion,
    track_peak,
)
from .elliptic import (
    CGInfo,
    EllipticProblem,
    NearDegenerateWarning,
    NonPositiveCoefficient,
    NotConverged,
    apply_L,
    solve_L,
    solve_L_info,
)
from .evolution import (
    BlowupReport,
    EvolveConfig,
    EvolveResult,
    PositivityLost,
    Verdict,
    evolve,
    measure_mass,
    monitor_index,
    rhs,
    step_rk4,
)
from .grid import (
    Field,
    FieldStats,
    SnapshotFormatError,
    TorusGrid,
    field_stats,
    hs_norm,
    read_snapshot,
    spectral_derivative,
    write_snapshot,
)
from .profile import (
    BracketInvalid,
    DecayFit,
    DomainTooSmall,
    F1,
    F2,
    F3,
    Indeterminate,
    OrderingViolated,
    ProfileError,
    ProfileParams,
    ProfileSolution,
    RescaledProfile,
    Rescaling,
    ShotClass,
    ShotOutcome,
    ShotSamples,
    StructureReport,
    TailTooShort,
    decay_check,
    embed_on_torus,
    find_mu_c,
    integrate_shot,
    mu_curve,
    ode_residual,
    q_star,
    qr2_identity_gap,
    read_profile_csv,
    rescale,
    structure_fn,
    structure_report,
    write_profile_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # grid
    "TorusGrid", "Field", "FieldStats", "SnapshotFormatError",
    "spectral_derivative", "hs_norm", "field_stats", "write_snapshot",
    "read_snapshot",
    # elliptic
    "EllipticProblem", "CGInfo", "NonPositiveCoefficient", "NotConverged",
    "NearDegenerateWarning", "apply_L", "solve_L", "solve_L_info",
    # evolution
    "EvolveConfig", "Verdict", "BlowupReport", "EvolveResult",
    "PositivityLost", "monitor_index", "rhs", "step_rk4", "evolve",
    "measure_mass",
    # profile
    "ProfileParams", "ProfileError", "Indeterminate", "BracketInvalid",
    "OrderingViolated", "TailTooShort", "DomainTooSmall", "StructureReport",
    "ShotClass", "ShotOutcome", "ShotSamples", "ProfileSolution", "DecayFit",
    "Rescaling", "RescaledProfile", "F1", "F2", "F3", "structure_fn",
    "mu_curve", "q_star", "structure_report", "integrate_shot", "find_mu_c",
    "decay_check", "rescale", "embed_on_torus", "ode_residual",
    "qr2_identity_gap", "write_profile_csv", "read_profile_csv",
    # diagnostics
    "ConservedEnergyParams", "conserved_energy", "energy_series",
    "DispersionFit", "fit_dispersion", "NoPeak", "PeakTrack", "track_peak",
]
