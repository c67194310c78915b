"""Monte Carlo workbench for classical angular-momentum Bell tests.

Four detector models measure exactly anti-correlated classical angular
momenta: direct projection readout, thresholded sign, noisy sign, and an
ensemble-updating detector whose outcome statistics follow the particle's
ensemble rather than its individual vector.  The analysis layer estimates
pair correlations, evaluates and sweeps the CHSH combination, and decides
joint-distribution feasibility; independent oracles (quadrature and exact
enumeration) back every closed form.
"""

from .geometry import (
    Axis,
    RngStream,
    angle_delta,
    project,
    sample_sphere,
)
from .distributions import (
    ConfigDensity,
    Ensemble,
    FullSphere,
    Hemisphere,
    PairSource,
    RotatingHemispheres,
    StaticSphere,
    ensemble_mean_projection,
    quad_density_normalization,
    quad_ring_mean_projection,
    sample_pair,
)
from .detectors import (
    DetectorModel,
    Direct,
    EnsembleDep,
    Sign,
    StochasticSign,
    measure_pair_batch,
    measure_pointlike,
    model_from_name,
    model_name,
    outcome_probabilities,
    projection_delta_alt_form,
    sequence_outcomes,
    v_max,
)
from .analysis import (
    ChshResult,
    CorrelationRecord,
    JointTable,
    SweepTable,
    chsh,
    chsh_inequalities_hold,
    e_closed,
    estimate_correlation,
    fine_feasible,
    fine_feasible_many,
    lune_probability,
    stochastic_sign_alt_form,
    sweep_chsh,
)
from .oracles import (
    enumerate_ensemble_E,
    enumerate_pointlike_E,
    quad_expectation,
    sequence_means,
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "ChshResult",
    "ConfigDensity",
    "CorrelationRecord",
    "DetectorModel",
    "Direct",
    "Ensemble",
    "EnsembleDep",
    "FullSphere",
    "Hemisphere",
    "JointTable",
    "PairSource",
    "RngStream",
    "RotatingHemispheres",
    "Sign",
    "StaticSphere",
    "StochasticSign",
    "SweepTable",
    "angle_delta",
    "chsh",
    "chsh_inequalities_hold",
    "e_closed",
    "ensemble_mean_projection",
    "enumerate_ensemble_E",
    "enumerate_pointlike_E",
    "estimate_correlation",
    "fine_feasible",
    "fine_feasible_many",
    "lune_probability",
    "measure_pair_batch",
    "measure_pointlike",
    "model_from_name",
    "model_name",
    "outcome_probabilities",
    "project",
    "projection_delta_alt_form",
    "quad_density_normalization",
    "quad_expectation",
    "quad_ring_mean_projection",
    "sample_pair",
    "sample_sphere",
    "sequence_means",
    "sequence_outcomes",
    "stochastic_sign_alt_form",
    "sweep_chsh",
    "v_max",
]
