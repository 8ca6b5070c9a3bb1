"""Each input rule has one owner in the library; every owner's raise is pinned by class and message."""
import math
import re

import numpy as np
import pytest

from silkin import (
    CoefficientFamily,
    InitialData,
    IntegratorConfig,
    ModelParams,
    MomentWeights,
    RateTable,
    State,
    convergence_study,
    eval_jacobian,
    integrate,
    invariance_check,
    moment_identity_residual,
    realize_coefficients,
    validate_weights,
)

from conftest import constant_rates, decaying_state, power_law_system

ONE = CoefficientFamily.constant(1.0)
FAMILIES = (ONE, ONE, ONE)


def _short_run():
    sys_ = power_law_system(4, gamma=0.5)
    return integrate(sys_, decaying_state(4), 0.1)


# (owner, call that breaks its rule, message)
RULES = [
    ("_frozen_array", lambda: MomentWeights(g=np.ones((2, 2))), "g must be one-dimensional, got shape (2, 2)"),
    ("CoefficientFamily.kind", lambda: CoefficientFamily(kind="quadratic"), "unknown coefficient family kind 'quadratic'"),
    (
        "CoefficientFamily.constant",
        lambda: CoefficientFamily(kind="constant", amplitude=1.0, exponent=0.5),
        "a constant family has exponent 0, got 0.5",
    ),
    ("CoefficientFamily.realize", lambda: ONE.realize(-1), "n must be >= 0, got -1"),
    ("RateTable.n", lambda: realize_coefficients(*FAMILIES, 1), "truncation order must be >= 2, got 1"),
    (
        "RateTable.length",
        lambda: RateTable(n=2, k=np.ones(2), p=np.ones(3), q=np.ones(3)),
        "k must have length n+1 = 3, got 2",
    ),
    (
        "RateTable.sign",
        lambda: RateTable(n=2, k=np.ones(3), p=np.ones(3), q=np.array([1.0, -1.0, 0.0])),
        "q entries must be >= 0",
    ),
    ("State.t", lambda: State(t=math.nan, x=0.0, M=np.ones(3)), "t must be finite"),
    ("MomentWeights.g", lambda: MomentWeights(g=np.ones(1)), "need at least two weights"),
    ("MomentWeights.C", lambda: MomentWeights(g=np.ones(2), C=-1.0), "C must be >= 0 (inf allowed), got -1.0"),
    ("MomentWeights.power", lambda: MomentWeights.power(4, 0.5), "mu must be >= 1, got 0.5"),
    ("validate_weights.count", lambda: validate_weights(MomentWeights.ones(3), constant_rates(4)), "expected 5 weights, got 4"),
    ("IntegratorConfig.max_step", lambda: IntegratorConfig(max_step=0.0), "max_step must be positive"),
    (
        "integrate.t_end",
        lambda: integrate(power_law_system(4, gamma=0.5), decaying_state(4), math.inf),
        "t_end must be finite, got inf",
    ),
    ("invariance_check.gamma", lambda: invariance_check(_short_run(), 1.5), "gamma must lie in [0, 1], got 1.5"),
    (
        "moment_identity_residual.m",
        lambda: moment_identity_residual(_short_run(), MomentWeights.ones(4), 5, 0.0, 0.1),
        "m must lie in 1..4, got 5",
    ),
    (
        "eval_jacobian.n",
        lambda: eval_jacobian(power_law_system(4, gamma=0.5), decaying_state(2)),
        "state carries cohorts 0..2 but the system expects 0..4",
    ),
    (
        "convergence_study.ladder_min",
        lambda: convergence_study(ModelParams(0.0, 0.0), FAMILIES, InitialData(M=(1.0,)), (1, 4), 1.0),
        "truncation order must be >= 2, got 1",
    ),
]


@pytest.mark.parametrize("call,message", [rule[1:] for rule in RULES], ids=[rule[0] for rule in RULES])
def test_each_input_rule_raises_from_its_owner(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
        call()
    assert type(err.value) is ValueError
