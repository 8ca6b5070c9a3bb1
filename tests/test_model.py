import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from silkin import (
    CoefficientFamily,
    InitialData,
    ModelParams,
    MomentWeights,
    State,
    realize_coefficients,
    validate_weights,
    weighted_norm,
)

from conftest import rates_from_arrays
from oracles import brute_force_growth_constant


def test_realize_all_zero():
    zero = CoefficientFamily.constant(0.0)
    rates = realize_coefficients(zero, zero, zero, 4)
    assert np.array_equal(rates.k, np.zeros(5))
    assert np.array_equal(rates.p, np.zeros(5))
    assert np.array_equal(rates.q, np.zeros(5))


def test_realize_power_law_linear():
    rates = realize_coefficients(
        CoefficientFamily.power_law(1.0, 1.0),
        CoefficientFamily.constant(0.0),
        CoefficientFamily.constant(0.0),
        3,
    )
    assert np.array_equal(rates.k, [1.0, 2.0, 3.0, 4.0])
    assert rates.gamma == 1.0


def test_realize_power_law_sqrt():
    rates = realize_coefficients(
        CoefficientFamily.power_law(1.0, 0.5),
        CoefficientFamily.constant(0.0),
        CoefficientFamily.constant(0.0),
        2,
    )
    assert np.allclose(rates.k, [1.0, math.sqrt(2.0), math.sqrt(3.0)], rtol=0, atol=0)


def test_realize_table_tail_rules():
    assert np.array_equal(CoefficientFamily.table([1.0, 2.0]).realize(4), [1, 2, 2, 2, 2])
    assert np.array_equal(CoefficientFamily.table([1.0, 2.0, 0.0]).realize(4), [1, 2, 0, 0, 0])
    assert np.array_equal(CoefficientFamily.table([5.0, 6.0, 7.0]).realize(1), [5, 6])


def test_realize_is_deterministic():
    fam = CoefficientFamily.power_law(1.3, 0.7)
    a = fam.realize(50)
    b = fam.realize(50)
    assert np.array_equal(a, b)
    again = realize_coefficients(fam, CoefficientFamily.constant(0.2), fam, 50)
    once = realize_coefficients(fam, CoefficientFamily.constant(0.2), fam, 50)
    for name in ("k", "p", "q"):
        assert np.array_equal(getattr(again, name), getattr(once, name))


def test_realize_rejects_bad_inputs():
    ok = CoefficientFamily.constant(1.0)
    with pytest.raises(ValueError):
        realize_coefficients(ok, ok, ok, 1)
    with pytest.raises(ValueError):
        CoefficientFamily.power_law(-1.0, 0.5)
    with pytest.raises(ValueError):
        realize_coefficients(CoefficientFamily.power_law(1.0, 1.5), ok, ok, 4)
    with pytest.raises(ValueError):
        realize_coefficients(ok, CoefficientFamily.power_law(1.0, 0.5), ok, 4)
    with pytest.raises(ValueError):
        CoefficientFamily.table([1.0, -2.0])
    with pytest.raises(ValueError):
        CoefficientFamily.table([])


@given(
    amp=st.floats(0.0, 10.0, allow_nan=False),
    exp=st.floats(0.0, 1.0),
    n=st.integers(2, 40),
)
def test_realized_values_nonnegative(amp, exp, n):
    rates = realize_coefficients(
        CoefficientFamily.power_law(amp, exp),
        CoefficientFamily.constant(amp),
        CoefficientFamily.power_law(amp, 2.0 * exp),
        n,
    )
    assert np.all(rates.k >= 0) and np.all(rates.p >= 0) and np.all(rates.q >= 0)


def test_rate_table_immutable():
    rates = rates_from_arrays(2, [1, 1, 1], [0, 0, 0], [0, 1, 1])
    with pytest.raises(ValueError):
        rates.k[0] = 2.0


def test_norm_mu_examples():
    assert weighted_norm(1.0, [1.0, 1.0, 0.0], 1.0) == 4.0
    assert weighted_norm(0.0, [0.0, 0.0, 0.0], 3.0) == 0.0
    assert weighted_norm(0.0, [0.0, 1.0, 0.0], 2.0) == 4.0


finite_vec = st.lists(st.floats(-20, 20, allow_nan=False), min_size=1, max_size=12)


@given(x=st.floats(-5, 5), M=finite_vec, c=st.floats(-4, 4), mu=st.floats(1, 2))
def test_weighted_norm_homogeneous(x, M, c, mu):
    M = np.asarray(M)
    lhs = weighted_norm(c * x, c * M, mu)
    rhs = abs(c) * weighted_norm(x, M, mu)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(x1=st.floats(-5, 5), x2=st.floats(-5, 5), M1=finite_vec, M2=finite_vec, mu=st.floats(1, 2))
def test_weighted_norm_triangle(x1, x2, M1, M2, mu):
    m = max(len(M1), len(M2))
    a = np.zeros(m)
    b = np.zeros(m)
    a[: len(M1)] = M1
    b[: len(M2)] = M2
    lhs = weighted_norm(x1 + x2, a + b, mu)
    assert lhs <= weighted_norm(x1, a, mu) + weighted_norm(x2, b, mu) + 1e-9


@given(x=st.floats(0, 5), M=st.lists(st.floats(0, 5), min_size=3, max_size=10))
def test_norm_monotone_in_mu_above_support_zero(x, M):
    # with the i=0 cohort removed every weight (i+1)^mu grows with mu
    M = np.asarray([0.0] + M[1:])
    s = State(t=0, x=x, M=M)
    assert weighted_norm(s.x, s.M, 1.0) <= weighted_norm(s.x, s.M, 1.5) <= weighted_norm(s.x, s.M, 2.0)


@given(x=st.floats(0, 5), M=st.lists(st.floats(0, 5), min_size=2, max_size=10))
def test_norm_dominates_subvectors(x, M):
    s = State(t=0, x=x, M=np.asarray(M))
    total = weighted_norm(s.x, s.M, 1.0)
    assert total >= abs(x)
    assert total >= weighted_norm(0.0, s.M, 1.0)
    assert total >= max((i + 1) * v for i, v in enumerate(M))


@given(M=st.lists(st.lists(st.floats(-20, 20), min_size=6, max_size=6), min_size=1, max_size=5), mu=st.floats(1, 2))
def test_weighted_norm_of_columns(M, mu):
    # cohorts on the first axis: one norm per column, each the norm of that column alone
    Z = np.asarray(M).T
    norms = weighted_norm(Z[0], Z[1:], mu)
    assert norms.shape == (Z.shape[1],)
    for j in range(Z.shape[1]):
        assert norms[j] == pytest.approx(weighted_norm(Z[0, j], Z[1:, j], mu), rel=1e-14, abs=1e-14)


def test_state_validation():
    with pytest.raises(ValueError):
        State(t=0.0, x=-1.0, M=[0.0])
    with pytest.raises(ValueError):
        State(t=0.0, x=0.0, M=[-0.5])
    with pytest.raises(ValueError):
        State(t=0.0, x=math.nan, M=[0.0])
    s = State(t=0.0, x=1.0, M=[1.0, 2.0])
    with pytest.raises(ValueError):
        s.M[0] = 3.0


def test_validate_weights_simple():
    rates = rates_from_arrays(3, [1, 1, 1, 1], [0] * 4, [0] * 4)
    w = MomentWeights(g=np.arange(4) + 1.0)
    assert w.delta > 0.0
    assert validate_weights(w, rates) == 1.0


def test_validate_weights_flat_increments_fail():
    rates = rates_from_arrays(3, [1, 1, 1, 1], [0] * 4, [0] * 4)
    w = MomentWeights(g=np.ones(4))
    assert not w.delta > 0.0
    assert validate_weights(w, rates) == 0.0  # zero increments claim no growth


def test_validate_weights_growth_constant_derived():
    # g_i = (i+1)^2, k_i = i+1, n = 3: brute-force maximum over i = 0..2
    g = (np.arange(4) + 1.0) ** 2
    k = np.arange(4) + 1.0
    rates = rates_from_arrays(3, k, [0] * 4, [0] * 4)
    expected = brute_force_growth_constant(g, k)
    assert expected == 3.0
    assert validate_weights(MomentWeights(g=g), rates) == pytest.approx(expected, rel=1e-15)


def test_validate_weights_zero_weight_with_flux_is_infinite():
    rates = rates_from_arrays(2, [1, 1, 1], [0] * 3, [0] * 3)
    assert math.isinf(validate_weights(MomentWeights.linear(2), rates))


def test_validate_weights_rejects_negative():
    rates = rates_from_arrays(2, [1, 1, 1], [0] * 3, [0] * 3)
    with pytest.raises(ValueError):
        validate_weights(MomentWeights(g=np.array([1.0, -1.0, 2.0])), rates)


def test_weight_factories():
    rates = rates_from_arrays(4, [1] * 5, [0] * 5, [0] * 5)
    ones = MomentWeights.ones(4)
    assert np.array_equal(ones.g, np.ones(5)) and ones.delta == 0.0
    lin = MomentWeights.linear(4)
    assert np.array_equal(lin.g, np.arange(5.0)) and math.isinf(lin.C)
    pw = MomentWeights.power(4, 1.5, rates)
    assert pw.delta == pytest.approx(2.0 ** 1.5 - 1.0)
    assert math.isfinite(pw.C)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(r=-1.0, alpha=0.0)
    with pytest.raises(ValueError):
        ModelParams(r=0.0, alpha=math.inf)


def test_initial_data():
    decay = InitialData(x0=1.0, b=2.0, rho=0.5)
    assert np.allclose(decay.realize(3), [2.0, 1.0, 0.5, 0.25], rtol=0)
    explicit = InitialData(x0=0.0, M=(1.0, 2.0))
    assert np.array_equal(explicit.realize(4), [1, 2, 0, 0, 0])
    assert np.array_equal(explicit.realize(1), [1, 2])
    with pytest.raises(ValueError):
        InitialData(x0=0.0)
    with pytest.raises(ValueError):
        InitialData(x0=0.0, M=(1.0,), b=1.0, rho=0.5)
    with pytest.raises(ValueError):
        InitialData(x0=0.0, b=1.0, rho=1.0)
    st8 = decay.state(3)
    assert st8.x == 1.0 and st8.t == 0.0
