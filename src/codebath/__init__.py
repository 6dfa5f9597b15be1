"""Numerical laboratory for planar-code memories coupled to continuous
gapless environments: lattice/decoder combinatorics, bath correlators,
one-loop impurity flow, and closed-form lifetime estimates, driven by a
deterministic sweep CLI."""

from .bath import (
    BathSpec,
    ohmic_constraint_holds,
    rkky_envelope,
    spatial_correlator,
    spectral_density,
    temporal_correlator,
    thermal_correlator,
)
from .errors import ConfigError, PhaseMismatchError, ResourceLimitError
from .lifetimes import (
    CodePoint,
    LifetimeReport,
    PresetReport,
    build_report,
    critical_coupling,
    j_of_L,
    preset_report,
    renormalized_fm_coupling,
    t_comp,
    t_mem_fm,
    thermal_rates,
    threshold_exists,
)
from .rg_flow import (
    CouplingVector,
    CutoffReached,
    FlowOptions,
    FlowTrace,
    KondoScale,
    Localized,
    Phase,
    StrongCoupling,
    apply_thermal_cutoff,
    classify_phase,
    constants_of_motion,
    flow_rhs,
    integrate_flow,
    kondo_scale,
    subohmic_flow,
    thermal_cutoff,
)
from .surface_code import (
    CensusRecord,
    DecodeOutcome,
    DecodeStatus,
    ErrorChain,
    SurfaceCode,
    Syndrome,
    TieBreak,
    build_code,
    contour_syndrome,
    decode_contour,
    failure_census,
    syndrome_of,
    vacuum_profile,
)
from .wick import (
    MatchingProblem,
    ProbeResult,
    RegimeLabel,
    classify_regime,
    lambda_bar_sq,
    matching_scaling_probe,
    matching_sum,
    n_paths,
    n_paths_stirling,
)

__version__ = "0.1.0"
