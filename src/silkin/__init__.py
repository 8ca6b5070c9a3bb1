"""Truncated solver and verification toolkit for a quartz/macrophage cohort model."""

from .model import (
    CoefficientFamily,
    InitialData,
    ModelParams,
    MomentWeights,
    RateTable,
    State,
    realize_coefficients,
    validate_weights,
    weighted_norm,
)
from .truncation import BandedBorderJacobian, TruncatedSystem, eval_jacobian
from .integrator import (
    IntegrationError,
    IntegratorConfig,
    IntegratorStats,
    MissingAccumulator,
    NegativityViolation,
    OutOfRange,
    StepBudgetExceeded,
    StepSizeUnderflow,
    Trajectory,
    integrate,
)
from .moments import (
    GronwallReport,
    InvalidWeights,
    InvarianceReport,
    MomentSnapshot,
    compute_moments,
    gronwall_check,
    invariance_check,
    macrophage_balance_residual,
    mass_balance_residual,
    moment_identity_residual,
    quartz_balance_residual,
)
from .analysis import (
    ConvergenceReport,
    DegenerateDenominator,
    EquilibriumResult,
    NoBracket,
    NoConvergence,
    TruncationRungError,
    convergence_study,
    differential_form_check,
    find_equilibrium,
    semigroup_residual,
    uniqueness_probe,
)

__version__ = "0.1.0"
