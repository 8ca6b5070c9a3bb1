import dataclasses
import math

import numpy as np
import pytest

from silkin import (
    IntegratorConfig,
    InvalidWeights,
    MissingAccumulator,
    ModelParams,
    MomentWeights,
    OutOfRange,
    State,
    Trajectory,
    TruncatedSystem,
    compute_moments,
    gronwall_check,
    integrate,
    invariance_check,
    macrophage_balance_residual,
    mass_balance_residual,
    moment_identity_residual,
    moments,
    quartz_balance_residual,
)
from silkin.truncation import NUM_BASE_ACC

from conftest import constant_rates, decaying_state, power_law_system
from oracles import precise_moments


def test_compute_moments_hand_sums():
    rates = constant_rates(2, p=0.5, q=0.25)
    snap = compute_moments(1.0, np.array([1.0, 1.0, 0.0]), rates)
    assert snap.m_total == 2.0
    assert snap.x_total == 2.0
    assert snap.u_total == 4.0
    assert snap.Q == 0.25
    assert snap.P == 0.5


def test_compute_moments_zero_state():
    rates = constant_rates(3, p=1.0, q=1.0)
    snap = compute_moments(0.0, np.zeros(4), rates)
    assert (snap.m_total, snap.x_total, snap.u_total, snap.Q, snap.P) == (0, 0, 0, 0, 0)


def test_compute_moments_extended_precision(rng):
    n = 40
    rates = power_law_system(n, gamma=0.7, q_exp=1.0).rates
    for _ in range(10):
        M = rng.uniform(0.0, 2.0, n + 1) * 0.8 ** np.arange(n + 1)
        x = rng.uniform(0.0, 3.0)
        snap = compute_moments(x, M, rates)
        ref = precise_moments(x, M, rates.p, rates.q)
        for got, want in zip((snap.m_total, snap.x_total, snap.u_total, snap.Q, snap.P), ref):
            assert got == pytest.approx(want, rel=5e-15, abs=5e-15)


def test_compute_moments_dimension_mismatch():
    with pytest.raises(ValueError):
        compute_moments(0.0, np.zeros(3), constant_rates(4))


def test_mass_balance_zero_rates_exact():
    sys_ = TruncatedSystem(ModelParams(r=0.7, alpha=0.2), constant_rates(4))
    traj = integrate(sys_, State(t=0.0, x=0.1, M=np.zeros(5)), 3.0)
    for t in np.linspace(0.3, 3.0, 7):
        assert abs(mass_balance_residual(traj, float(t))) < 1e-13


def test_mass_balance_no_loss_channels_exact():
    sys_ = TruncatedSystem(ModelParams(r=0.4, alpha=0.6), constant_rates(8, k=2.0))
    traj = integrate(sys_, decaying_state(8), 4.0)
    for t in np.linspace(0.5, 4.0, 8):
        assert abs(mass_balance_residual(traj, float(t))) < 1e-11


def test_mass_balance_decoupled_case():
    sys_ = TruncatedSystem(ModelParams(r=0.0, alpha=0.3), constant_rates(6, p=0.8, q=0.5))
    traj = integrate(sys_, decaying_state(6, x0=0.5, rho=0.6), 5.0)
    assert abs(mass_balance_residual(traj, 5.0)) < 1e-8


def test_component_balances():
    sys_ = power_law_system(16, gamma=0.5)
    traj = integrate(sys_, decaying_state(16), 4.0)
    for t in np.linspace(0.5, 4.0, 8):
        assert abs(quartz_balance_residual(traj, float(t))) < 1e-8
        assert abs(macrophage_balance_residual(traj, float(t))) < 1e-8


def test_every_base_accumulator_is_read_by_a_balance():
    # a co-integrated slot enters every error norm and Newton matrix, so one that no balance reads is waste
    read = {slot for _, _, slots in moments._BALANCES.values() for slot in slots}
    assert read == set(range(NUM_BASE_ACC))


def test_moment_identity_zero_trajectory():
    sys_ = TruncatedSystem(ModelParams(0.0, 0.0), constant_rates(3, p=1.0))
    traj = integrate(sys_, State(t=0.0, x=0.0, M=np.zeros(4)), 1.0, flux_orders=(1,))
    res = moment_identity_residual(traj, MomentWeights.ones(3), 1, 0.0, 1.0)
    assert res == 0.0


def test_moment_identity_flat_small_system():
    # telescoping case on a tiny run at tight tolerance
    sys_ = power_law_system(3, gamma=1.0)
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-14)
    traj = integrate(sys_, decaying_state(3, x0=1.0, rho=0.5), 2.0, cfg, flux_orders=(1, 2))
    assert abs(moment_identity_residual(traj, MomentWeights.ones(3), 1, 0.0, 2.0)) < 1e-8
    assert abs(moment_identity_residual(traj, MomentWeights.ones(3), 2, 0.5, 1.5)) < 1e-8


def test_moment_identity_linear_weights_cross_check():
    # the linear-weight identity plus the x equation reproduce the quartz balance
    sys_ = power_law_system(12, gamma=0.5)
    traj = integrate(sys_, decaying_state(12), 3.0, flux_orders=(1,))
    res_linear = moment_identity_residual(traj, MomentWeights.linear(12), 1, 0.0, 3.0)
    assert abs(res_linear) < 1e-8
    assert abs(quartz_balance_residual(traj, 3.0)) < 1e-8


def test_moment_identity_at_top_cohort():
    # m = n: the transfer sum is empty and only the boundary flux feeds the tail
    sys_ = power_law_system(5, gamma=0.5)
    traj = integrate(sys_, decaying_state(5, rho=0.5), 2.0, flux_orders=(5,))
    res = moment_identity_residual(traj, MomentWeights.power(5, 1.5), 5, 0.0, 2.0)
    assert abs(res) < 1e-9


def test_moment_identity_holds_for_any_weight_sequence():
    sys_ = power_law_system(6, gamma=0.0)
    traj = integrate(sys_, decaying_state(6), 1.0, flux_orders=(2,))
    res = moment_identity_residual(traj, MomentWeights(g=np.arange(7.0) ** 2), 2, 0.0, 1.0)
    assert abs(res) < 1e-8
    with pytest.raises(ValueError):
        moment_identity_residual(traj, MomentWeights.ones(5), 2, 0.0, 1.0)  # one weight short


def test_moment_identity_missing_accumulator():
    sys_ = power_law_system(6, gamma=0.0)
    traj = integrate(sys_, decaying_state(6), 1.0, flux_orders=(1,))
    with pytest.raises(MissingAccumulator):
        moment_identity_residual(traj, MomentWeights.ones(6), 2, 0.0, 1.0)


def test_moment_identity_window_and_order_validation():
    sys_ = power_law_system(6, gamma=0.0)
    traj = integrate(sys_, decaying_state(6), 1.0, flux_orders=(1,))
    with pytest.raises(ValueError):
        moment_identity_residual(traj, MomentWeights.ones(6), 0, 0.0, 1.0)
    with pytest.raises(OutOfRange):
        moment_identity_residual(traj, MomentWeights.ones(6), 1, 0.5, 0.25)
    with pytest.raises(OutOfRange):
        moment_identity_residual(traj, MomentWeights.ones(6), 1, 0.0, 2.0)


def test_path_integrals_evaluate_the_dense_output_once(monkeypatch):
    # the first identity integrates every step at six nodes; the rest of the battery reuses it
    points = []
    dense_matrix = Trajectory.dense_matrix

    def counted(self, ts):
        points.append(len(ts))
        return dense_matrix(self, ts)

    monkeypatch.setattr(Trajectory, "dense_matrix", counted)
    n, gamma = 24, 0.5
    sys_ = power_law_system(n, gamma=gamma)
    traj = integrate(sys_, decaying_state(n, rho=0.55), 4.0, flux_orders=(1,))
    steps = traj.num_samples - 1
    moment_identity_residual(traj, MomentWeights.ones(n), 1, traj.t_start, traj.t_end)
    assert sum(points) == 6 * steps
    points.clear()
    for w in (MomentWeights.ones(n), MomentWeights.linear(n), MomentWeights.power(n, 1.0 + gamma)):
        moment_identity_residual(traj, w, 1, traj.t_start, traj.t_end)
    gronwall_check(traj, MomentWeights.power(n, 1.0 + gamma, sys_.rates))
    invariance_check(traj, gamma)
    assert sum(points) <= 12


def test_each_balance_reads_the_dense_output_once():
    # one read of the run per time: the sample itself at a sample time, one dense evaluation anywhere else
    sys_ = power_law_system(12, gamma=0.5)
    traj = integrate(sys_, decaying_state(12), 3.0, flux_orders=(1,))
    calls = []

    def counted(ts):
        calls.append(np.size(ts))
        return traj._sol(ts)

    spy = dataclasses.replace(traj, _sol=counted)
    balances = (mass_balance_residual, quartz_balance_residual, macrophage_balance_residual)
    for t in (float(traj.t[3]), traj.t_end):
        for fn in balances:
            assert fn(spy, t) == fn(traj, t)
    assert calls == []
    between = [0.5 * float(traj.t[3] + traj.t[4]), 1.234]
    for t in between:
        for fn in balances:
            assert fn(spy, t) == fn(traj, t)
    assert calls == [1] * (len(balances) * len(between))


def test_invariance_check_leaves_the_step_integrals_unbuilt():
    sys_ = power_law_system(12, gamma=0.5)
    traj = integrate(sys_, decaying_state(12), 3.0)
    assert invariance_check(traj, 0.5).ok
    assert "step_integrals" not in traj.__dict__


def test_gronwall_zero_cohorts():
    sys_ = TruncatedSystem(ModelParams(0.0, 0.0), constant_rates(4))
    traj = integrate(sys_, State(t=0.0, x=0.0, M=np.zeros(5)), 1.0)
    report = gronwall_check(traj, MomentWeights.power(4, 1.0, sys_.rates))
    assert report.ok
    assert report.margin == 1.0


def test_gronwall_decoupled_decay():
    sys_ = TruncatedSystem(ModelParams(0.0, 0.0), constant_rates(6, p=0.5, q=0.5))
    traj = integrate(sys_, decaying_state(6, x0=0.0, rho=0.5), 3.0)
    report = gronwall_check(traj, MomentWeights.power(6, 1.5, sys_.rates))
    assert report.ok
    assert report.margin >= 0.0


def test_gronwall_theorem_backed_runs():
    for gamma in (0.0, 0.5, 1.0):
        sys_ = power_law_system(24, gamma=gamma)
        traj = integrate(sys_, decaying_state(24, rho=0.55), 4.0)
        report = gronwall_check(traj, MomentWeights.power(24, 1.0 + gamma, sys_.rates))
        assert report.ok
        assert report.margin > 0.0
        assert report.c1_fitted <= report.c1_used * (1.0 + 1e-12)
        assert math.isfinite(report.c1_apriori)


def test_gronwall_rejects_invalid_weights():
    sys_ = power_law_system(6, gamma=0.5)
    traj = integrate(sys_, decaying_state(6), 1.0)
    with pytest.raises(InvalidWeights):
        gronwall_check(traj, MomentWeights.ones(6))  # flat: no positive increment
    with pytest.raises(InvalidWeights):
        gronwall_check(traj, MomentWeights.linear(6))  # g_0 = 0, k_0 > 0


def _weighted_series(traj, t_grid, which):
    rates = traj.sys.rates
    dim = traj.sys.dimension
    rows = [traj.at(float(t)) for t in t_grid]
    return np.array([getattr(compute_moments(z[0], z[1:dim], rates), which) for z in rows])


def test_release_and_removal_moments_continuous():
    # halving the grid spacing halves the worst jump of Q and P
    sys_ = power_law_system(16, gamma=0.5)
    traj = integrate(sys_, decaying_state(16), 3.0)
    for which in ("Q", "P"):
        coarse = _weighted_series(traj, np.linspace(0.0, 3.0, 151), which)
        fine = _weighted_series(traj, np.linspace(0.0, 3.0, 301), which)
        jump_coarse = float(np.max(np.abs(np.diff(coarse))))
        jump_fine = float(np.max(np.abs(np.diff(fine))))
        assert jump_fine == pytest.approx(0.5 * jump_coarse, rel=0.2)


def test_total_moment_rates_match_finite_differences():
    # dM_total/dt = r - sum (p_i+q_i) M_i and dX_total/dt = alpha - sum i p_i M_i
    sys_ = power_law_system(16, gamma=0.5)
    traj = integrate(sys_, decaying_state(16), 3.0)
    rates = sys_.rates
    i = np.arange(17, dtype=float)
    h = 1e-5
    for t in np.linspace(0.3, 2.7, 7):
        M = traj.at(float(t))[1:18]
        up, down = traj.at(float(t + h)), traj.at(float(t - h))
        plus = compute_moments(up[0], up[1:18], rates)
        minus = compute_moments(down[0], down[1:18], rates)
        dm = (plus.m_total - minus.m_total) / (2.0 * h)
        dxm = (plus.x_total - minus.x_total) / (2.0 * h)
        assert dm == pytest.approx(sys_.params.r - float(sys_.loss @ M), abs=1e-5)
        assert dxm == pytest.approx(sys_.params.alpha - float((i * rates.p) @ M), abs=1e-5)
