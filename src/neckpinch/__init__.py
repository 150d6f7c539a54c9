"""Ricci-flow neckpinch simulator for triaxial warped metrics on S1 x S3."""

from .grid import (
    DataError,
    DegenerateFiberError,
    GaugeDegeneracyError,
    MetricState,
    NonFiniteFieldError,
    PeriodicGrid,
    metric_state,
)
from .curvature import (
    CurvatureField,
    riemann_oracle,
    sectional_curvatures,
)
from .flow import (
    FlowConfig,
    SingularityReport,
    Trajectory,
    estimate_singular_time,
    evolve,
    rk4_step,
)
from .monitors import (
    MonitorReport,
    TypeIReport,
    amin_bound_monitor,
    cmax_bound_monitor,
    concavity_check,
    constants,
    derivative_bound_monitor,
    eccentricity_monitor,
    evolution_residual,
    ordering_monitor,
    ratio_monitor,
    run_monitors,
    scalar_min_monitor,
    type1_classifier,
)
from .presets import Preset, Profile, biaxial, get_preset, presets, sphere
from .config import RunConfig, load_config
from .output import write_series, write_summary

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
