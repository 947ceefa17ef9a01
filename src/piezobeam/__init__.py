"""Analysis toolkit for voltage-actuated piezoelectric beams with magnetic coupling.

The model couples the longitudinal displacement and the total electric
charge of a thin beam into a pair of wave equations driven by the electrode
voltage at one end.  The package computes the derived wave constants and the
exact eigenstructure, classifies stabilizability from the arithmetic of the
wave-speed ratio, simulates open- and closed-loop dynamics with an
energy-conserving integrator, evaluates the boundary transfer function, and
constructs the Diophantine observability certificates and counterexamples.
"""

from . import _heap
from .config import RunConfig, load_config, parse_config
from .errors import (
    CflViolation,
    DegenerateCoupling,
    DuplicateKey,
    ExhaustedBudget,
    InvalidBudget,
    MalformedValue,
    MissingKey,
    NonFiniteState,
    NonPositiveEnergy,
    NonPositiveParameter,
    NotRational,
    NumericalError,
    ParityViolation,
    PiezoBeamError,
    PoleProximity,
    QuadratureFailure,
    SingularSystem,
    TruncationTooSmall,
    ValidationError,
    ZeroState,
)
from .frequency import (
    ScanResult,
    analytic_line_bound,
    boundedness_scan,
    damped_trace_gain,
    transfer_bvp,
    transfer_closed,
    transfer_damped,
    transfer_damped_bvp,
)
from .observability import (
    FrameBounds,
    OddApproximant,
    exponent_family,
    ingham_frame_bounds,
    ingham_gap,
    near_unobservable_state,
    observability_quotient,
    odd_odd_approximants,
    quotient_bound,
)
from .params import (
    Approximant,
    BeamParameters,
    DerivedConstants,
    StabilityClass,
    StabilityReport,
    classify_stability,
    derive_constants,
    parameters_for_ratio,
)
from .spectral import (
    ModalCoefficients,
    ModeIndex,
    StateFunctions,
    eigenfunction,
    eigenvalues,
    modal_norm_sq,
    output_energy,
    project,
    projection_residual,
    propagate,
    reconstruct,
    resolvent_at_zero,
    sigma,
)
from .sweeps import SWEEP_METRICS, evaluate_metric, run_sweep
from .timedomain import (
    Grid,
    GridState,
    SimConfig,
    Trajectory,
    absorbing_gain,
    classical_energy,
    decay_rate,
    discrete_energy,
    energy_balance_residual,
    gaussian_velocity_state,
    grid_state_from_modal,
    operator_eigenvalues,
    simulate,
    sine_velocity_state,
    state_from_samples,
)

__version__ = "0.1.0"

_heap.fix_mmap_threshold()
