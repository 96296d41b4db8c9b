"""Pseudo-spectral Galerkin solver for periodic incompressible MHD with
Gevrey-norm diagnostics, analyticity-radius tracking and an a priori
inequality verification harness."""

from .archive import TraceArchive, checkpoint_load, checkpoint_save
from .bounds import (
    INTEGRAL_IDS,
    POINTWISE_IDS,
    BoundReport,
    standard_sweep,
    verify_integral,
    verify_pointwise,
)
from .config import RunConfig, load_run_config, parse_run_config
from .constants import ConstantsTable, build_table, certified_cp, estimate_Cs, lattice_constant
from .errors import (
    BlowUpError,
    CheckpointError,
    ConfigError,
    ConvergenceError,
    DomainError,
    FieldInvariantError,
    GevreyOverflowError,
    TraceError,
)
from .radius import (
    RadiusEstimate,
    decay_fit,
    two_resolution_psi,
)
from .solver import (
    DiagnosticsSpec,
    SolverConfig,
    full_rhs,
    make_initial,
    simulate,
    step,
)
from .spectral import (
    MhdState,
    SpectralField,
    geometry,
    gevrey_norm,
    lq_norm,
    project_solenoidal,
    shell_spectrum,
    sobolev_norm,
    wiener_norm,
)
from .transform import delta_max, q_functional, sigma_p, solve_phi

__version__ = "0.1.0"
