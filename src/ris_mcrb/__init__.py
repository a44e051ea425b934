"""Quantify how RIS element mutual coupling degrades channel estimation.

The package builds an impedance-based end-to-end channel from thin-wire
dipole physics, forms the coupling-aware and coupling-unaware linear
models, and evaluates the mismatched and matched estimation error bounds
together with Monte-Carlo estimator RMSE.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    bias_trace,
    crlb,
    lower_bound,
    mc_rmse,
    mcrb_trace,
    ml_estimate,
    pseudo_true,
)
from .channel import (
    build_B,
    complexify_vec,
    model_pair,
    realify,
    realify_vec,
    sample_loads,
)
from .errors import (
    ComputationError,
    ConfigError,
    DegenerateDesignError,
    DegenerateGeometryError,
    QuadratureConvergenceError,
    ResonanceError,
    RisMcrbError,
    SingularModelError,
)
from .impedance import (
    ImpedanceSet,
    build_impedance_set,
    coupling_vector,
    impedance_matrix,
    mutual_impedance,
)
from .scenario import (
    NoiseModel,
    PhysicalConstants,
    Radiator,
    RisGrid,
    Scenario,
    build_ris_grid,
    default_scenario,
    derive_constants,
    dump_scenario,
    load_scenario,
    load_scenario_file,
    scenario_from_config,
)

__all__ = [name for name in dir() if not name.startswith("_")]
