"""Each input rule has one owner in the library; every owner's raise is pinned by class and message."""
import math
import re

import numpy as np
import pytest

from silkin import (
    CoefficientFamily,
    InitialData,
    IntegratorConfig,
    InvalidWeights,
    ModelParams,
    MomentWeights,
    RateTable,
    State,
    compute_moments,
    convergence_study,
    eval_jacobian,
    find_equilibrium,
    gronwall_check,
    integrate,
    invariance_check,
    moment_identity_residual,
    realize_coefficients,
)

from conftest import decaying_state, power_law_system

ONE = CoefficientFamily.constant(1.0)
FAMILIES = (ONE, ONE, ONE)


def _short_run():
    sys_ = power_law_system(4, gamma=0.5)
    return integrate(sys_, decaying_state(4), 0.1)


# (owner, call that breaks its rule, the error it raises)
RULES = [
    ("_frozen_array", lambda: MomentWeights(g=np.ones((2, 2))), ValueError("g must be one-dimensional, got shape (2, 2)")),
    (
        "CoefficientFamily.kind",
        lambda: CoefficientFamily(kind="quadratic"),
        ValueError("unknown coefficient family kind 'quadratic'"),
    ),
    (
        "CoefficientFamily.power_law.values",
        lambda: CoefficientFamily(kind="power_law", amplitude=1.0, values=(9.0,)),
        ValueError("a power_law family takes no values, got (9.0,)"),
    ),
    (
        "CoefficientFamily.table.amplitude",
        lambda: CoefficientFamily(kind="table", values=(1.0, 2.0), amplitude=5.0),
        ValueError("a table family takes no amplitude, got 5.0"),
    ),
    (
        "CoefficientFamily.table.exponent",
        lambda: CoefficientFamily(kind="table", values=(1.0, 2.0), exponent=1.0),
        ValueError("a table family takes no exponent, got 1.0"),
    ),
    ("CoefficientFamily.realize", lambda: ONE.realize(-1), ValueError("n must be >= 0, got -1")),
    ("RateTable.n", lambda: realize_coefficients(*FAMILIES, 1), ValueError("truncation order must be >= 2, got 1")),
    (
        "RateTable.length",
        lambda: RateTable(n=2, k=np.ones(2), p=np.ones(3), q=np.ones(3)),
        ValueError("k must have length n+1 = 3, got 2"),
    ),
    (
        "RateTable.sign",
        lambda: RateTable(n=2, k=np.ones(3), p=np.ones(3), q=np.array([1.0, -1.0, 0.0])),
        ValueError("q entries must be >= 0"),
    ),
    ("State.t", lambda: State(t=math.nan, x=0.0, M=np.ones(3)), ValueError("t must be finite")),
    ("InitialData.decay_rho", lambda: InitialData(b=1.0), ValueError("decay data needs both b and rho")),
    ("InitialData.decay_b", lambda: InitialData(rho=0.5), ValueError("decay data needs both b and rho")),
    ("MomentWeights.g", lambda: MomentWeights(g=np.ones(1)), ValueError("need at least two weights")),
    ("MomentWeights.power", lambda: MomentWeights.power(4, 0.5), ValueError("mu must be >= 1, got 0.5")),
    # linear(3) also has g_0 = 0 under k_0 > 0: the count is checked before the growth constant
    (
        "_envelope.count",
        lambda: gronwall_check(_short_run(), MomentWeights.linear(3)),
        InvalidWeights("expected 5 weights, got 4"),
    ),
    ("IntegratorConfig.max_step", lambda: IntegratorConfig(max_step=0.0), ValueError("max_step must be positive")),
    (
        "integrate.t_end",
        lambda: integrate(power_law_system(4, gamma=0.5), decaying_state(4), math.inf),
        ValueError("t_end must be finite, got inf"),
    ),
    (
        "compute_moments.ndim",
        lambda: compute_moments(np.zeros(4), realize_coefficients(*FAMILIES, 2)),
        ValueError("expected a (rows, 4) block of phase rows, got shape (4,)"),
    ),
    (
        "find_equilibrium.x_bracket_finite",
        lambda: find_equilibrium(power_law_system(4, gamma=0.5), (0.0, math.inf)),
        ValueError("need 0 <= lo < hi < inf, got (0.0, inf)"),
    ),
    ("invariance_check.gamma", lambda: invariance_check(_short_run(), 1.5), ValueError("gamma must lie in [0, 1], got 1.5")),
    (
        "moment_identity_residual.m",
        lambda: moment_identity_residual(_short_run(), MomentWeights.ones(4), 5, 0.0, 0.1),
        ValueError("m must lie in 1..4, got 5"),
    ),
    (
        "eval_jacobian.n",
        lambda: eval_jacobian(power_law_system(4, gamma=0.5), decaying_state(2)),
        ValueError("state carries cohorts 0..2 but the system expects 0..4"),
    ),
    (
        "convergence_study.ladder_min",
        lambda: convergence_study(ModelParams(0.0, 0.0), FAMILIES, InitialData(M=(1.0,)), (1, 4), 1.0),
        ValueError("truncation order must be >= 2, got 1"),
    ),
    (
        "convergence_study.ladder_integer",
        lambda: convergence_study(ModelParams(0.0, 0.0), FAMILIES, InitialData(M=(1.0,)), (8.9, 16), 1.0),
        ValueError("n_ladder must hold integers, got (8.9, 16)"),
    ),
    (
        "convergence_study.ladder_finite",
        lambda: convergence_study(ModelParams(0.0, 0.0), FAMILIES, InitialData(M=(1.0,)), (8, math.inf), 1.0),
        ValueError("n_ladder must hold integers, got (8, inf)"),
    ),
]


@pytest.mark.parametrize("call,error", [rule[1:] for rule in RULES], ids=[rule[0] for rule in RULES])
def test_each_input_rule_raises_from_its_owner(call, error):
    with pytest.raises(type(error), match=f"^{re.escape(str(error))}$") as err:
        call()
    assert type(err.value) is type(error)
