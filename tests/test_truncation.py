import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from silkin import (
    ModelParams,
    State,
    TruncatedSystem,
    eval_jacobian,
)
from silkin.truncation import NUM_ACC, augmented_field

from conftest import constant_rates, power_law_system, rates_from_arrays
from oracles import central_jacobian, exact_augmented_rhs, reference_augmented_rhs


def test_rhs_zero_state_sources_only():
    sys_ = TruncatedSystem(ModelParams(r=2.0, alpha=3.0), constant_rates(4, k=1.0, p=1.0, q=1.0))
    out = sys_.rhs(State(t=0, x=0.0, M=np.zeros(5)).vector())
    assert out[0] == 3.0
    assert out[1] == 2.0
    assert np.array_equal(out[2:], np.zeros(4))


def test_rhs_decoupled_sources():
    sys_ = TruncatedSystem(ModelParams(r=1.7, alpha=0.9), constant_rates(3))
    out = sys_.rhs(State(t=0, x=2.0, M=[1.0, 2.0, 3.0, 4.0]).vector())
    assert out[0] == 0.9
    assert out[1] == 1.7
    assert np.array_equal(out[2:], np.zeros(3))


def test_rhs_hand_evaluated_case():
    # n=2, k=(1,1,*), p=0, q=(0,1,1), r=alpha=0, state x=1, M=(1,1,1)
    rates = rates_from_arrays(2, [1.0, 1.0, 5.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0])
    sys_ = TruncatedSystem(ModelParams(r=0.0, alpha=0.0), rates)
    out = sys_.rhs(State(t=0, x=1.0, M=[1.0, 1.0, 1.0]).vector())
    assert out[1] == -1.0
    assert out[2] == -1.0
    assert out[3] == 0.0
    assert out[0] == 1.0


def test_top_rate_is_masked():
    # identical dynamics whatever value is stored in k_n
    base = rates_from_arrays(2, [1.0, 1.0, 0.0], [0.1, 0.1, 0.1], [0.0, 1.0, 1.0])
    spiked = rates_from_arrays(2, [1.0, 1.0, 123.0], [0.1, 0.1, 0.1], [0.0, 1.0, 1.0])
    s = State(t=0, x=0.7, M=[0.5, 0.25, 0.125])
    params = ModelParams(r=0.3, alpha=0.2)
    a = TruncatedSystem(params, base).rhs(s.vector())
    b = TruncatedSystem(params, spiked).rhs(s.vector())
    assert np.array_equal(a, b)


def test_rhs_rejects_dimension_mismatch():
    sys_ = TruncatedSystem(ModelParams(1.0, 1.0), constant_rates(4, k=1.0))
    with pytest.raises(ValueError):
        sys_.rhs(State(t=0, x=0.0, M=np.zeros(3)).vector())
    with pytest.raises(ValueError):
        sys_.rhs(np.zeros(3))


nonneg = st.floats(0.0, 5.0, allow_nan=False)


@given(
    vals=st.lists(nonneg, min_size=7, max_size=7),
    zero_mask=st.lists(st.booleans(), min_size=7, max_size=7),
    coeffs=st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3),
)
@settings(max_examples=150)
def test_quasi_positivity_on_cone_boundary(vals, zero_mask, coeffs):
    # wherever a component is pinned to zero, its derivative points inward
    v = np.where(zero_mask, 0.0, np.asarray(vals))
    kc, pc, qc = coeffs
    sys_ = TruncatedSystem(ModelParams(r=0.5, alpha=0.25), constant_rates(5, k=kc, p=pc, q=qc))
    out = sys_.rhs(v)
    for j in range(len(v)):
        if v[j] == 0.0:
            assert out[j] >= 0.0


@given(
    x=st.floats(0, 4),
    M=st.lists(nonneg, min_size=6, max_size=6),
    coeffs=st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3),
    supplies=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2),
)
@settings(max_examples=150)
def test_total_matter_derivative_identity(x, M, coeffs, supplies):
    # d/dt [x + sum (i+1) M_i] == r + alpha - sum (p_i+q_i) M_i - sum i p_i M_i
    kc, pc, qc = coeffs
    r, alpha = supplies
    n = 5
    sys_ = TruncatedSystem(ModelParams(r=r, alpha=alpha), constant_rates(n, k=kc, p=pc, q=qc))
    M = np.asarray(M)
    out = sys_.rhs(np.concatenate(([x], M)))
    w = np.arange(n + 1) + 1.0
    udot = out[0] + w @ out[1:]
    i = np.arange(n + 1)
    expected = r + alpha - (sys_.loss @ M) - ((i * sys_.rates.p) @ M)
    scale = abs(r) + abs(alpha) + float(np.sum(np.abs(out))) + float(w @ M) + 1.0
    assert abs(udot - expected) <= 1e-13 * scale


def _random_system_and_states(n, slots, rng):
    """A random rate table of order ``n`` and 25 states: cone phases, some on its boundary, plus ``slots`` values."""
    rates = rates_from_arrays(n, rng.uniform(0.0, 2.0, n + 1), rng.uniform(0.0, 1.0, n + 1), rng.uniform(0.0, 1.0, n + 1))
    sys_ = TruncatedSystem(ModelParams(r=float(rng.uniform(0.0, 1.0)), alpha=float(rng.uniform(0.0, 1.0))), rates)
    dim = sys_.dimension
    phases = [rng.uniform(0.0, 2.0, dim) * rng.choice([0.0, 1e-9, 1.0, 1e3], dim) for _ in range(25)]
    return sys_, [np.concatenate([phase, rng.uniform(0.0, 1.0, slots)]) for phase in phases]


# the state as TruncatedSystem.rhs passes it (phase only) and as integrate does (phase, A1, A2)
SLOTS = {"none": 0, "a1_a2": NUM_ACC}


@pytest.mark.parametrize("n", [2, 7, 80, 300])
@pytest.mark.parametrize("slots", SLOTS)
def test_augmented_field_bits_match_reference(n, slots, rng):
    # the field's arithmetic is pinned: same floating-point operations in the same order as the reference
    sys_, states = _random_system_and_states(n, SLOTS[slots], rng)
    fun, _ = augmented_field(sys_)
    for z in states:
        assert fun(0.0, z).tobytes() == reference_augmented_rhs(sys_, z).tobytes()
        if slots == "none":
            assert sys_.rhs(z).tobytes() == reference_augmented_rhs(sys_, z).tobytes()


@pytest.mark.parametrize("n", [2, 7, 80, 300])
@pytest.mark.parametrize("slots", SLOTS)
def test_augmented_field_out_form_bits_match_reference(n, slots, rng):
    # rhs(t, z, out) writes every slot of out, returns out itself, and has the reference's bits
    sys_, states = _random_system_and_states(n, SLOTS[slots], rng)
    fun, _ = augmented_field(sys_)
    for z in states:
        out = np.full_like(z, np.nan)
        assert fun(0.0, z, out) is out
        assert out.tobytes() == reference_augmented_rhs(sys_, z).tobytes()


@pytest.mark.parametrize("n", [2, 7, 80, 300])
@pytest.mark.parametrize("slots", SLOTS)
def test_augmented_field_within_summation_bound_of_exact(n, slots, rng):
    # whatever the order of its sums, each component is within 2 (n + 4) eps of the exact value, relative to its terms
    sys_, states = _random_system_and_states(n, SLOTS[slots], rng)
    fun, _ = augmented_field(sys_)
    bound = 2 * (n + 4) * Fraction(np.finfo(float).eps)
    for z in states:
        computed = fun(0.0, z)
        for j, (exact, size) in enumerate(exact_augmented_rhs(sys_, z)):
            assert abs(Fraction(float(computed[j])) - exact) <= bound * size, (j, float(computed[j]), float(exact))


@pytest.mark.parametrize("form", ["new", "out"])
def test_augmented_field_overflow_of_ingestion_sum_raises(form):
    # each x k_i M_i is finite but x (k . M) is not: the sum stays a numpy scalar, so integrate's errstate raises
    sys_ = TruncatedSystem(ModelParams(r=1.0, alpha=1.0), constant_rates(3, k=1.0))
    fun, _ = augmented_field(sys_)
    z = np.array([1e8, 1e300, 1e300, 1e300, 1e300, 0.0, 0.0])
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        fun(0.0, z, np.empty_like(z) if form == "out" else None)


def test_phase_field_from_threads_matches_serial(rng):
    # TruncatedSystem.rhs shares one field between callers: calls from several threads keep the serial bits
    sys_ = power_law_system(20_000, gamma=0.5)
    states = [rng.uniform(0.0, 2.0, sys_.dimension) * 0.9 ** np.arange(sys_.dimension) for _ in range(8)]
    serial = [sys_.rhs(v).tobytes() for v in states]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            for _ in range(10):
                assert list(pool.map(lambda v: sys_.rhs(v).tobytes(), states)) == serial
    finally:
        sys.setswitchinterval(interval)


def test_jacobian_zero_coefficients():
    sys_ = TruncatedSystem(ModelParams(0.0, 0.0), constant_rates(3))
    J = eval_jacobian(sys_, State(t=0, x=1.0, M=[1.0, 1.0, 1.0, 1.0])).to_sparse().toarray()
    assert np.array_equal(J, np.zeros((5, 5)))


def test_jacobian_decay_only_diagonal():
    sys_ = TruncatedSystem(ModelParams(0.0, 0.0), constant_rates(3, p=0.4, q=0.6))
    J = eval_jacobian(sys_, State(t=0, x=2.0, M=[1.0, 2.0, 3.0, 4.0])).to_sparse().toarray()
    block = J[1:, 1:]
    assert np.array_equal(np.diag(block), -np.ones(4))
    assert np.array_equal(block - np.diag(np.diag(block)), np.zeros((4, 4)))
    # the x row keeps the release sensitivities i * q_i even without ingestion
    assert np.array_equal(J[0, 1:], 0.6 * np.arange(4))
    assert np.array_equal(J[1:, 0], np.zeros(4))


def test_jacobian_matches_finite_differences(rng):
    sys_ = power_law_system(12, gamma=0.5)
    for _ in range(100):
        M = rng.uniform(0.0, 2.0, 13) * 0.6 ** np.arange(13)
        s = State(t=0.0, x=rng.uniform(0.0, 3.0), M=M)
        J = eval_jacobian(sys_, s).to_sparse().toarray()
        J_fd = central_jacobian(sys_, s)
        scale = max(1.0, float(np.max(np.abs(J))))
        assert np.max(np.abs(J - J_fd)) / scale < 1e-6


def test_jacobian_structure():
    sys_ = power_law_system(6, gamma=1.0)
    s = State(t=0.0, x=1.5, M=np.linspace(1.0, 0.1, 7))
    dense = eval_jacobian(sys_, s).to_sparse().toarray()
    # M block is lower bidiagonal: anything above the diagonal or below the
    # first subdiagonal vanishes (outside the border row/column)
    for i in range(1, 8):
        for j in range(1, 8):
            if j > i or j < i - 1:
                assert dense[i, j] == 0.0
    # the x row picks up -k_i x + i q_i with the top rate masked
    k = sys_.k_masked
    iq = np.arange(7, dtype=float) * sys_.rates.q
    assert np.allclose(dense[0, 1:], -k * s.x + iq, rtol=0, atol=0)
