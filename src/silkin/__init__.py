"""Truncated solver and verification toolkit for a quartz/macrophage cohort model."""

from .model import (
    CoefficientFamily,
    InitialData,
    ModelParams,
    MomentWeights,
    RateTable,
    State,
    norm_mu,
    realize_coefficients,
    validate_weights,
    weighted_norm,
)
from .truncation import BandedBorderJacobian, TruncatedSystem, eval_jacobian, eval_rhs
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
    dense_eval,
    integrate,
)
from .moments import (
    GronwallReport,
    InvalidWeights,
    MomentSnapshot,
    compute_moments,
    gronwall_check,
    macrophage_balance_residual,
    mass_balance_residual,
    moment_identity_residual,
    quartz_balance_residual,
)
from .analysis import (
    ContinuityRow,
    ConvergenceReport,
    DegenerateDenominator,
    EquilibriumResult,
    InvarianceReport,
    NoBracket,
    NoConvergence,
    TruncationRungError,
    continuity_study,
    convergence_study,
    differential_form_check,
    find_equilibrium,
    invariance_check,
    semigroup_residual,
    uniqueness_probe,
)

__version__ = "0.1.0"
