import dataclasses
import math

import numpy as np
import pytest

from silkin import (
    IntegratorConfig,
    InvalidWeights,
    ModelParams,
    MomentWeights,
    OutOfRange,
    State,
    Trajectory,
    TruncatedSystem,
    cli,
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
from silkin.truncation import NUM_ACC

from conftest import constant_rates, decaying_state, power_law_system, rates_from_arrays
from oracles import brute_force_growth_constant, precise_moments, row_moments


def test_compute_moments_hand_sums():
    rates = constant_rates(2, p=0.5, q=0.25)
    m_total, x_total, u_total, Q, P = compute_moments(np.array([[1.0, 1.0, 1.0, 0.0]]), rates)[0]
    assert m_total == 2.0
    assert x_total == 2.0
    assert u_total == 4.0
    assert Q == 0.25
    assert P == 0.5


def test_compute_moments_zero_state():
    rates = constant_rates(3, p=1.0, q=1.0)
    assert compute_moments(np.zeros((1, 5)), rates)[0].tolist() == [0, 0, 0, 0, 0]


def test_compute_moments_extended_precision(rng):
    n = 40
    rates = power_law_system(n, gamma=0.7, q_exp=1.0).rates
    for _ in range(10):
        M = rng.uniform(0.0, 2.0, n + 1) * 0.8 ** np.arange(n + 1)
        x = rng.uniform(0.0, 3.0)
        got_row = compute_moments(np.concatenate(([x], M))[None, :], rates)[0]
        ref = precise_moments(x, M, rates.p, rates.q)
        for got, want in zip(got_row, ref):
            assert got == pytest.approx(want, rel=5e-15, abs=5e-15)


def test_compute_moments_dimension_mismatch():
    with pytest.raises(ValueError):
        compute_moments(np.zeros((1, 4)), constant_rates(4))


@pytest.mark.parametrize("method", ["rk45", "bdf"])
def test_compute_moments_is_the_row_sums_bit_for_bit(method):
    # the CSV's moment columns keep their bytes only if the block map sums each row as one dot does
    sys_ = power_law_system(64, gamma=0.5)
    traj = integrate(sys_, decaying_state(64), 5.0, IntegratorConfig(method=method))
    rates = sys_.rates
    want = [row_moments(z[0], z[1:], rates.p, rates.q) for z in traj.phase]
    assert compute_moments(traj.phase, rates).tolist() == want


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
    assert read == set(range(NUM_ACC))


def test_moment_identity_zero_trajectory():
    sys_ = TruncatedSystem(ModelParams(0.0, 0.0), constant_rates(3, p=1.0))
    traj = integrate(sys_, State(t=0.0, x=0.0, M=np.zeros(4)), 1.0)
    res = moment_identity_residual(traj, MomentWeights.ones(3), 1, 0.0, 1.0)
    assert res == 0.0


def test_moment_identity_flat_small_system():
    # telescoping case on a tiny run at tight tolerance
    sys_ = power_law_system(3, gamma=1.0)
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-14)
    traj = integrate(sys_, decaying_state(3, x0=1.0, rho=0.5), 2.0, cfg)
    assert abs(moment_identity_residual(traj, MomentWeights.ones(3), 1, 0.0, 2.0)) < 1e-8
    assert abs(moment_identity_residual(traj, MomentWeights.ones(3), 2, 0.5, 1.5)) < 1e-8


def test_moment_identity_linear_weights_cross_check():
    # the linear-weight identity plus the x equation reproduce the quartz balance
    sys_ = power_law_system(12, gamma=0.5)
    traj = integrate(sys_, decaying_state(12), 3.0)
    res_linear = moment_identity_residual(traj, MomentWeights.linear(12), 1, 0.0, 3.0)
    assert abs(res_linear) < 1e-8
    assert abs(quartz_balance_residual(traj, 3.0)) < 1e-8


def test_moment_identity_at_top_cohort():
    # m = n: the transfer sum is empty and only the boundary flux feeds the tail
    sys_ = power_law_system(5, gamma=0.5)
    traj = integrate(sys_, decaying_state(5, rho=0.5), 2.0)
    res = moment_identity_residual(traj, MomentWeights.power(5, 1.5), 5, 0.0, 2.0)
    assert abs(res) < 1e-9


def test_moment_identity_holds_for_any_weight_sequence():
    sys_ = power_law_system(6, gamma=0.0)
    traj = integrate(sys_, decaying_state(6), 1.0)
    res = moment_identity_residual(traj, MomentWeights(g=np.arange(7.0) ** 2), 2, 0.0, 1.0)
    assert abs(res) < 1e-8
    with pytest.raises(ValueError):
        moment_identity_residual(traj, MomentWeights.ones(5), 2, 0.0, 1.0)  # one weight short


@pytest.mark.parametrize("method", ["rk45", "bdf"])
def test_moment_identity_holds_at_every_boundary(method):
    # the boundary flux k_{m-1} int x M_{m-1} comes from the step integrals, so every m in 1..n needs no request
    n = 8
    sys_ = power_law_system(n, gamma=0.5)
    traj = integrate(sys_, decaying_state(n, rho=0.9), 1.0, IntegratorConfig(method=method))
    for w in (MomentWeights.ones(n), MomentWeights.linear(n), MomentWeights.power(n, 1.5)):
        for m in range(1, n + 1):
            assert abs(moment_identity_residual(traj, w, m, traj.t_start, traj.t_end)) <= 1e-6


@pytest.mark.parametrize(
    "method,rel_tol,abs_tol,expected,passes",
    [("rk45", 1e-9, 1e-12, 1.66e-8, True), ("bdf", 1e-9, 1e-12, 1.31e-6, False), ("bdf", 1e-10, 1e-13, 2.15e-7, True)],
)
def test_power_identity_headroom_against_the_fixed_threshold(method, rel_tol, abs_tol, expected, passes):
    # README, Numerical policy: at the default tolerances BDF misses verify's threshold on the (i+1)^2
    # tail identity, and a tighter rel_tol is the remedy
    sys_, y0 = power_law_system(8, gamma=1.0), decaying_state(8, rho=0.9)
    traj = integrate(sys_, y0, 1.0, IntegratorConfig(method=method, rel_tol=rel_tol, abs_tol=abs_tol))
    value = abs(moment_identity_residual(traj, MomentWeights.power(8, 2.0), 1, traj.t_start, traj.t_end))
    assert value == pytest.approx(expected, rel=0.01)
    assert (value <= cli.RESIDUAL_TOL) == passes


def test_moment_identity_window_and_order_validation():
    sys_ = power_law_system(6, gamma=0.0)
    traj = integrate(sys_, decaying_state(6), 1.0)
    for m in (0, 7):
        with pytest.raises(ValueError, match=f"^m must lie in 1..6, got {m}$"):
            moment_identity_residual(traj, MomentWeights.ones(6), m, 0.0, 1.0)
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
    traj = integrate(sys_, decaying_state(n, rho=0.55), 4.0)
    steps = traj.num_samples - 1
    moment_identity_residual(traj, MomentWeights.ones(n), 1, traj.t_start, traj.t_end)
    assert sum(points) == 6 * steps
    points.clear()
    for w in (MomentWeights.ones(n), MomentWeights.linear(n), MomentWeights.power(n, 1.0 + gamma)):
        moment_identity_residual(traj, w, 1, traj.t_start, traj.t_end)
    gronwall_check(traj, MomentWeights.power(n, 1.0 + gamma))
    invariance_check(traj, gamma)
    assert sum(points) <= 12


def test_each_balance_reads_the_dense_output_once():
    # one read of the run per time: the sample itself at a sample time, one dense evaluation anywhere else
    sys_ = power_law_system(12, gamma=0.5)
    traj = integrate(sys_, decaying_state(12), 3.0)
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
    report = gronwall_check(traj, MomentWeights.power(4, 1.0))
    assert report.ok
    assert report.margin == 1.0


def test_envelopes_with_a_zero_constant_hold_past_exponential_overflow():
    # k_0 = 0 and only M_0 filled make c1 = 0; c2 (t - t0) = 800 overflows exp, and the bound term stays 0
    sys_ = TruncatedSystem(ModelParams(0.0, 0.0), constant_rates(4, p=0.6, q=0.4))
    traj = integrate(sys_, State(t=0.0, x=0.0, M=np.array([1.0, 0.0, 0.0, 0.0, 0.0])), 800.0)
    gron = gronwall_check(traj, MomentWeights.power(4, 1.0))
    assert gron.c1_used == 0.0 and gron.c2 * traj.duration > 709.0
    assert gron.ok and gron.margin == 1.0
    inv = invariance_check(traj, 0.0)
    assert inv.ok and inv.margin == 0.5


@pytest.mark.parametrize(
    "lhs,bound,ok,margin",
    [
        (0.5, 2.0, True, 0.75),
        (3.0, 2.0, False, -0.5),
        (0.0, 0.0, True, 1.0),
        (1e-300, 0.0, False, -math.inf),
        (1e300, math.inf, True, 1.0),
        (math.inf, math.inf, False, math.nan),
        (math.nan, 2.0, False, math.nan),
    ],
    ids=["below", "above", "zero_bound_met", "zero_bound_broken", "infinite_bound", "both_infinite", "nan_lhs"],
)
def test_verdict_degenerate_cases(lhs, bound, ok, margin):
    # the sample with the worst slack decides; the first sample is always comfortably inside
    got_ok, got_margin = moments._verdict(np.array([0.0, lhs]), np.array([1.0, bound]))
    assert got_ok is ok
    assert got_margin == margin or (math.isnan(margin) and math.isnan(got_margin))


def test_gronwall_decoupled_decay():
    sys_ = TruncatedSystem(ModelParams(0.0, 0.0), constant_rates(6, p=0.5, q=0.5))
    traj = integrate(sys_, decaying_state(6, x0=0.0, rho=0.5), 3.0)
    report = gronwall_check(traj, MomentWeights.power(6, 1.5))
    assert report.ok
    assert report.margin >= 0.0


def test_gronwall_theorem_backed_runs():
    for gamma in (0.0, 0.5, 1.0):
        sys_ = power_law_system(24, gamma=gamma)
        traj = integrate(sys_, decaying_state(24, rho=0.55), 4.0)
        report = gronwall_check(traj, MomentWeights.power(24, 1.0 + gamma))
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


def test_gronwall_rejects_negative_weights():
    # increasing, so the increment rule holds; six weights for n = 6: the sign rule is checked before the count
    sys_ = power_law_system(6, gamma=0.5)
    traj = integrate(sys_, decaying_state(6), 1.0)
    with pytest.raises(InvalidWeights, match="^weights must be >= 0$") as err:
        gronwall_check(traj, MomentWeights(g=np.arange(6.0) - 10.0))
    assert type(err.value) is InvalidWeights


def _growth_report(rates, g):
    """The Gronwall report of weights ``g`` on a short supply-free run of ``rates``."""
    traj = integrate(TruncatedSystem(ModelParams(0.0, 0.0), rates), decaying_state(rates.n), 0.1)
    return gronwall_check(traj, MomentWeights(g=g))


def test_envelope_weights_simple():
    rates = rates_from_arrays(3, [1, 1, 1, 1], [0] * 4, [0] * 4)
    assert _growth_report(rates, np.arange(4) + 1.0).growth_constant == 1.0


def test_envelope_weights_flat_increments_fail():
    # three flat weights for n = 3: the increment rule is checked before the count
    rates = rates_from_arrays(3, [1, 1, 1, 1], [0] * 4, [0] * 4)
    with pytest.raises(InvalidWeights, match=r"^weight increments must all be > 0 \(smallest 0\.0\)$"):
        _growth_report(rates, np.ones(3))


def test_envelope_weights_growth_constant_derived():
    # g_i = (i+1)^2, k_i = i+1, n = 3: brute-force maximum over i = 0..2
    g = (np.arange(4) + 1.0) ** 2
    k = np.arange(4) + 1.0
    rates = rates_from_arrays(3, k, [0] * 4, [0] * 4)
    expected = brute_force_growth_constant(g, k)
    assert expected == 3.0
    assert _growth_report(rates, g).growth_constant == expected


def test_envelope_weights_zero_weight_with_flux_is_infinite():
    rates = rates_from_arrays(2, [1, 1, 1], [0] * 3, [0] * 3)
    with pytest.raises(InvalidWeights, match=r"^growth constant \(g_\{i\+1\}-g_i\) k_i / g_i is unbounded$"):
        _growth_report(rates, np.arange(3.0))  # the linear weights: g_0 = 0 under k_0 > 0


def test_envelope_weights_rejects_negative():
    # a negative entry after a positive one is a negative increment: that rule comes before the sign rule
    rates = rates_from_arrays(2, [1, 1, 1], [0] * 3, [0] * 3)
    with pytest.raises(InvalidWeights, match=r"^weight increments must all be > 0 \(smallest -2\.0\)$"):
        _growth_report(rates, np.array([1.0, -1.0, 2.0]))


def _weighted_series(traj, t_grid, column):
    rates = traj.sys.rates
    dim = traj.sys.dimension
    rows = np.array([traj.at(float(t))[:dim] for t in t_grid])
    return compute_moments(rows, rates)[:, column]


def test_release_and_removal_moments_continuous():
    # halving the grid spacing halves the worst jump of Q and P
    sys_ = power_law_system(16, gamma=0.5)
    traj = integrate(sys_, decaying_state(16), 3.0)
    for column in (3, 4):  # Q and P
        coarse = _weighted_series(traj, np.linspace(0.0, 3.0, 151), column)
        fine = _weighted_series(traj, np.linspace(0.0, 3.0, 301), column)
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
        plus, minus = compute_moments(np.stack((up[:18], down[:18])), rates)
        dm = (plus[0] - minus[0]) / (2.0 * h)
        dxm = (plus[1] - minus[1]) / (2.0 * h)
        assert dm == pytest.approx(sys_.params.r - float(sys_.loss @ M), abs=1e-5)
        assert dxm == pytest.approx(sys_.params.alpha - float((i * rates.p) @ M), abs=1e-5)
