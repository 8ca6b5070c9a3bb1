import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse

from silkin import (
    IntegratorConfig,
    ModelParams,
    NegativityViolation,
    OutOfRange,
    State,
    StepBudgetExceeded,
    StepSizeUnderflow,
    TruncatedSystem,
    dense_eval,
    eval_jacobian,
    integrate,
    norm_mu,
)
from silkin import integrator
from silkin.integrator import newton_lu
from silkin.truncation import augmented_field

from conftest import constant_rates, decaying_state, power_law_system
from oracles import decoupled_solution

E_INV = 0.36787944117144233  # exp(-1)
E_HALF_INV = 0.6065306597126334  # exp(-0.5)


def decay_trajectory(cfg=None, t_end=1.0):
    sys_ = TruncatedSystem(ModelParams(0.0, 0.0), constant_rates(4, p=0.6, q=0.4))
    y0 = State(t=0.0, x=0.0, M=[1.0, 0.0, 0.0, 0.0, 0.0])
    return integrate(sys_, y0, t_end, cfg)


def test_pure_decay_matches_exponential():
    traj = decay_trajectory()
    assert traj.final_state.M[0] == pytest.approx(E_INV, abs=1e-8)


def test_supply_only_linear_total_matter():
    # no loss channels: total matter grows exactly linearly
    sys_ = TruncatedSystem(ModelParams(r=0.8, alpha=0.5), constant_rates(6, k=1.3))
    y0 = decaying_state(6, x0=0.4, rho=0.5)
    traj = integrate(sys_, y0, 4.0)
    u0 = norm_mu(y0, 1.0)
    for i in range(traj.num_samples):
        s = traj.state(i)
        assert norm_mu(s, 1.0) == pytest.approx(u0 + 1.3 * (s.t - y0.t), abs=1e-11)


def test_decoupled_closed_form_oracle():
    n = 6
    p = np.array([0.3, 0.0, 1.1, 0.7, 0.0, 0.2, 0.9])
    q = np.array([0.2, 0.5, 0.0, 0.4, 0.0, 1.3, 0.1])
    from conftest import rates_from_arrays

    sys_ = TruncatedSystem(ModelParams(r=0.0, alpha=0.25), rates_from_arrays(n, np.zeros(n + 1), p, q))
    M0 = np.array([1.0, 0.8, 0.6, 0.4, 0.3, 0.2, 0.1])
    y0 = State(t=0.0, x=0.5, M=M0)
    traj = integrate(sys_, y0, 5.0)
    for t in (0.5, 1.0, 2.5, 5.0):
        x_ref, M_ref = decoupled_solution(0.5, M0, p, q, 0.0, 0.25, t)
        s = dense_eval(traj, t)
        assert s.x == pytest.approx(x_ref, rel=1e-8, abs=1e-10)
        np.testing.assert_allclose(s.M, M_ref, rtol=1e-8, atol=1e-12)


def test_dense_eval_at_sample_time_is_exact():
    traj = decay_trajectory()
    mid = traj.num_samples // 2
    s = dense_eval(traj, float(traj.t[mid]))
    assert s.x == traj.phase[mid, 0]
    assert np.array_equal(s.M, traj.phase[mid, 1:])


def test_dense_eval_constant_solution():
    sys_ = TruncatedSystem(ModelParams(0.0, 0.0), constant_rates(3))
    y0 = State(t=0.0, x=0.75, M=[0.5, 0.25, 0.0, 0.125])
    traj = integrate(sys_, y0, 2.0)
    for t in np.linspace(0.0, 2.0, 9):
        s = dense_eval(traj, float(t))
        assert s.x == 0.75
        assert np.array_equal(s.M, y0.M)


def test_dense_eval_decay_midpoint():
    traj = decay_trajectory()
    assert dense_eval(traj, 0.5).M[0] == pytest.approx(E_HALF_INV, abs=1e-8)


def test_dense_eval_out_of_range():
    traj = decay_trajectory()
    with pytest.raises(OutOfRange):
        dense_eval(traj, -0.1)
    with pytest.raises(OutOfRange):
        dense_eval(traj, 1.1)


def test_cone_preservation_random_states(rng):
    sys_ = power_law_system(16, gamma=1.0)
    for _ in range(5):
        M = rng.uniform(0.2, 1.0, 17) * rng.uniform(0.3, 0.6) ** np.arange(17)
        y0 = State(t=0.0, x=rng.uniform(0.0, 1.5), M=M)
        traj = integrate(sys_, y0, 3.0)
        assert traj.pre_clamp_min >= traj.cfg.floor
        assert float(np.min(traj.phase)) >= 0.0
        assert np.all(np.diff(traj.t) > 0.0)


def test_norm_growth_and_cohort_bounds(rng):
    sys_ = power_law_system(24, gamma=0.5)
    y0 = decaying_state(24, x0=1.2, rho=0.55)
    traj = integrate(sys_, y0, 5.0)
    u0 = norm_mu(y0, 1.0)
    supply = sys_.params.r + sys_.params.alpha
    w = np.arange(25) + 1.0
    for i in range(traj.num_samples):
        s = traj.state(i)
        budget = u0 + supply * (s.t - y0.t)
        assert norm_mu(s, 1.0) <= budget + 1e-6
        assert float(np.max(w * s.M)) <= budget + 1e-6


def test_tolerance_refinement_converges():
    errors = []
    for rtol in (1e-4, 1e-6, 1e-8):
        traj = decay_trajectory(IntegratorConfig(rel_tol=rtol, abs_tol=rtol * 1e-3))
        errors.append(abs(traj.final_state.M[0] - E_INV))
    assert errors[0] > errors[1] > errors[2]


def test_accumulators_nondecreasing():
    sys_ = power_law_system(12, gamma=1.0)
    traj = integrate(sys_, decaying_state(12), 4.0, flux_orders=(1, 3))
    acc = traj.accumulators
    assert np.all(np.diff(acc, axis=0) >= -1e-10)
    assert np.all(acc[0] == 0.0)


def test_flux_accumulator_cross_checks_quadrature():
    # co-integrated F_1 vs an independent dense-output quadrature of x k_0 M_0
    sys_ = power_law_system(10, gamma=0.5)
    traj = integrate(sys_, decaying_state(10), 3.0, flux_orders=(1,))
    coef = np.zeros(11)
    coef[0] = sys_.rates.k[0]
    quad = float(coef @ traj.window_integrals(0.0, 3.0)[1])
    assert traj.flux_at(1, 3.0) == pytest.approx(quad, rel=1e-9, abs=1e-11)


def _inline_window_integrals(traj, t1, t2):
    # per-call six-node Gauss-Legendre on panels split at the samples inside [t1, t2]
    inside = traj.t[(traj.t > t1) & (traj.t < t2)]
    edges = np.concatenate(([t1], inside, [t2]))
    nodes, weights = np.polynomial.legendre.leggauss(6)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    ts = (mid[:, None] + half[:, None] * nodes).ravel()
    ws = (half[:, None] * weights).ravel()
    Z = traj.dense_matrix(ts)
    M = Z[1:traj.sys.dimension]
    return M @ ws, (M * Z[0]) @ ws


@pytest.mark.parametrize("method", ["rk45", "bdf"])
def test_window_integrals_match_inline_quadrature(method):
    sys_ = power_law_system(20, gamma=0.5)
    traj = integrate(sys_, decaying_state(20), 3.0, IntegratorConfig(method=method))
    t = traj.t
    inner = 0.5 * (t[4] + t[5])
    windows = [
        (traj.t_start, traj.t_end),                       # full range
        (float(t[2]), float(t[-3])),                      # on sample times
        (0.5 * (t[1] + t[2]), 0.5 * (t[-3] + t[-2])),     # straddling samples
        (inner - 0.25 * (t[5] - t[4]), inner + 0.25 * (t[5] - t[4])),  # inside one step
    ]
    for t1, t2 in windows:
        for got, want in zip(traj.window_integrals(t1, t2), _inline_window_integrals(traj, t1, t2)):
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    m_steps, xm_steps = traj.step_integrals
    assert m_steps.shape == xm_steps.shape == (traj.num_samples - 1, sys_.n + 1)


def test_bdf_agrees_with_rk45():
    for n in (8, 70):
        sys_ = power_law_system(n, gamma=1.0)
        y0 = decaying_state(n, rho=0.4)
        a = integrate(sys_, y0, 2.0, IntegratorConfig(method="rk45")).final_state
        b = integrate(sys_, y0, 2.0, IntegratorConfig(method="bdf", rel_tol=1e-10, abs_tol=1e-13)).final_state
        assert abs(a.x - b.x) + float(np.max(np.abs(a.M - b.M))) < 1e-7


def test_bdf_accumulators_agree_with_rk45():
    sys_ = power_law_system(12, gamma=0.5)
    y0 = decaying_state(12, rho=0.5)
    a = integrate(sys_, y0, 3.0, IntegratorConfig(method="rk45"), flux_orders=(1, 4))
    b = integrate(
        sys_, y0, 3.0, IntegratorConfig(method="bdf", rel_tol=1e-10, abs_tol=1e-13), flux_orders=(1, 4)
    )
    np.testing.assert_allclose(a.accumulators[-1], b.accumulators[-1], rtol=1e-7, atol=1e-10)


def test_bdf_newton_lu_has_no_fill(rng):
    # I - c J for the augmented field at n = 1024: the factors stay within a
    # fixed multiple of the matrix size, and the solve is backward stable
    n = 1024
    sys_ = power_law_system(n, gamma=1.0)
    _, jac = augmented_field(sys_, (1,))
    z = np.concatenate([decaying_state(n, rho=0.5).vector(), np.zeros(5)])
    J = jac(0.0, z)
    size = J.shape[0]
    for c in (1e-4, 1e-2, 0.2):
        A = (scipy.sparse.identity(size, format="csc") - c * J).tocsc()
        lu = newton_lu(A)
        assert lu.L.nnz + lu.U.nnz <= 16 * size
        b = rng.standard_normal(size)
        x = lu.solve(b)
        residual = np.max(np.abs(A @ x - b))
        scale = abs(A).sum(axis=1).max() * np.max(np.abs(x)) + np.max(np.abs(b))
        assert residual <= 1e-12 * scale


def test_integrator_stats_count_stepper_work():
    sys_ = power_law_system(12, gamma=1.0)
    y0 = decaying_state(12, rho=0.5)
    rk = integrate(sys_, y0, 2.0, IntegratorConfig(method="rk45")).stats
    bdf_traj = integrate(sys_, y0, 2.0, IntegratorConfig(method="bdf"))
    bdf = bdf_traj.stats
    assert rk.steps > 0 and rk.nfev > 0
    assert rk.njev == 0 and rk.nlu == 0
    assert bdf.steps == bdf_traj.num_samples - 1
    assert min(bdf.steps, bdf.nfev, bdf.njev, bdf.nlu) > 0


def test_augmented_jacobian_matches_finite_differences(rng):
    # the Jacobian handed to the stiff stepper, including accumulator rows,
    # at a small and a large truncation order
    for n in (7, 80):
        sys_ = power_law_system(n, gamma=1.0)
        flux = (1, 3)
        fun, jac = augmented_field(sys_, flux)
        dim = sys_.dimension
        for _ in range(20):
            z = np.concatenate([rng.uniform(0.0, 2.0, dim), rng.uniform(0.0, 1.0, 6)])
            J = jac(0.0, z).toarray()
            J_fd = np.empty_like(J)
            for j in range(len(z)):
                h = 1e-6 * max(1.0, abs(z[j]))
                zp = z.copy()
                zm = z.copy()
                zp[j] += h
                zm[j] -= h
                J_fd[:, j] = (fun(0.0, zp) - fun(0.0, zm)) / (2.0 * h)
            assert np.max(np.abs(J - J_fd)) < 1e-6 * max(1.0, float(np.max(np.abs(J))))
            # eval_jacobian is the leading phase block of the same matrix
            s = State(t=0.0, x=z[0], M=z[1:dim])
            assert np.array_equal(eval_jacobian(sys_, s).to_dense(), J[:dim, :dim])
        # stored entries grow linearly: x border row and column, bidiagonal
        # M block, four accumulator rows and two entries per flux row
        assert jac(0.0, z).nnz <= 8 * dim + 2 * len(flux)


def test_negativity_floor_policy():
    # a coarse coupled run undershoots zero by ~5e-4: below a tight floor it
    # aborts, above the default floor it is clamped into the cone
    sys_ = power_law_system(32, gamma=1.0, r=0.0, alpha=0.0)
    y0 = decaying_state(32, x0=2.0, rho=0.7)
    with pytest.raises(NegativityViolation):
        integrate(sys_, y0, 8.0, IntegratorConfig(rel_tol=1e-2, abs_tol=1e-4, negativity_floor=-1e-5))
    traj = integrate(sys_, y0, 8.0, IntegratorConfig(rel_tol=1e-2, abs_tol=1e-4))
    assert traj.pre_clamp_min < 0.0
    assert traj.pre_clamp_min >= traj.cfg.floor
    assert float(np.min(traj.phase)) >= 0.0


def test_integrate_validation_errors():
    sys_ = TruncatedSystem(ModelParams(0.0, 0.0), constant_rates(4, p=1.0))
    y0 = State(t=0.0, x=0.0, M=np.ones(5))
    with pytest.raises(ValueError):
        integrate(sys_, y0, 0.0)
    with pytest.raises(ValueError):
        integrate(sys_, State(t=0.0, x=0.0, M=np.ones(4)), 1.0)
    with pytest.raises(ValueError):
        integrate(sys_, y0, 1.0, flux_orders=(0,))
    with pytest.raises(ValueError):
        integrate(sys_, y0, 1.0, flux_orders=(7,))
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(negativity_floor=0.5)
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")


def test_integrator_config_rejects_nan_floor():
    with pytest.raises(ValueError):
        IntegratorConfig(negativity_floor=math.nan)


def test_concurrent_integrations_match_serial():
    sys_ = power_law_system(10, gamma=0.5)
    starts = [decaying_state(10, x0=0.2 * j, rho=0.5) for j in range(1, 5)]
    serial = [integrate(sys_, y0, 2.0).final_state for y0 in starts]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda y0: integrate(sys_, y0, 2.0).final_state, starts))
    for a, b in zip(serial, parallel):
        assert a.x == b.x
        assert np.array_equal(a.M, b.M)


def test_driver_matches_solve_ivp():
    # independent route: scipy's high-level API on the bare vector field
    from scipy.integrate import solve_ivp

    sys_ = power_law_system(16, gamma=0.5)
    y0 = decaying_state(16, rho=0.5)
    traj = integrate(sys_, y0, 3.0, IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13))
    ref = solve_ivp(
        lambda t, v: sys_.rhs(v),
        (0.0, 3.0),
        y0.vector(),
        method="LSODA",
        rtol=1e-11,
        atol=1e-13,
        dense_output=True,
    )
    assert ref.success
    for t in np.linspace(0.5, 3.0, 6):
        mine = traj.dense_vector(float(t))[: sys_.dimension]
        np.testing.assert_allclose(mine, np.maximum(ref.sol(t), 0.0), rtol=1e-7, atol=1e-10)


def test_max_step_is_respected():
    sys_ = power_law_system(8, gamma=0.0)
    traj = integrate(sys_, decaying_state(8), 2.0, IntegratorConfig(max_step=0.05))
    assert float(np.max(np.diff(traj.t))) <= 0.05 + 1e-12


def test_restart_continues_time_axis():
    sys_ = power_law_system(8, gamma=0.0)
    first = integrate(sys_, decaying_state(8), 1.5)
    second = integrate(sys_, first.final_state, 3.0)
    assert second.t_start == 1.5
    assert second.t_end == 3.0
    assert second.initial_state.t == 1.5


def scipy_rk45(sys_, y0, t_end, cfg, flux_orders):
    """Reference run of scipy's RK45 on the same augmented field: the solver, its times and its dense output."""
    from scipy.integrate import RK45, OdeSolution

    fun, _ = augmented_field(sys_, flux_orders)
    z0 = np.concatenate([y0.vector(), np.zeros(4 + len(flux_orders))])
    solver = RK45(fun, y0.t, z0, t_end, rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=cfg.max_step)
    ts, segments = [y0.t], []
    while solver.status == "running":
        solver.step()
        if solver.status == "failed":
            return solver, None, None
        ts.append(solver.t)
        segments.append(solver.dense_output())
    return solver, np.array(ts), OdeSolution(ts, segments)


def clamped(Z, dim):
    Z[:dim] = np.maximum(Z[:dim], 0.0)
    return Z


@pytest.mark.parametrize(
    "n,gamma,rel_tol,abs_tol,max_step",
    [
        (4, 0.5, 1e-10, 1e-15, math.inf),
        (32, 0.5, 1e-10, 1e-15, math.inf),
        (4, 0.5, 1e-6, 1e-9, 0.05),     # max_step binds: 102 steps instead of 36
        (32, 1.0, 1e-4, 1e-8, math.inf),  # 24 rejected steps
    ],
)
def test_rk45_stepper_matches_scipy(n, gamma, rel_tol, abs_tol, max_step):
    # same accepted times, same nfev, and dense output and step integrals with the same bits as scipy's RK45
    sys_ = power_law_system(n, gamma=gamma)
    y0 = decaying_state(n)
    cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=abs_tol, max_step=max_step)
    traj = integrate(sys_, y0, 5.0, cfg, flux_orders=(1,))
    solver, ts, sol = scipy_rk45(sys_, y0, 5.0, cfg, (1,))
    dim = sys_.dimension
    assert np.array_equal(traj.t, ts)
    assert traj.stats.nfev == solver.nfev
    assert np.array_equal(traj.accumulators[-1], solver.y[dim:])
    grid = np.sort(np.concatenate([np.linspace(0.0, 5.0, 201), traj.t]))  # sample times too
    assert np.array_equal(traj.dense_matrix(grid), clamped(sol(grid), dim))
    shuffled = np.random.default_rng(3).permutation(grid)
    assert np.array_equal(traj.dense_matrix(shuffled), clamped(sol(shuffled), dim))
    for t in grid[1::25]:
        assert np.array_equal(traj.dense_vector(float(t)), clamped(sol(t), dim))
    reference = dataclasses.replace(traj, _sol=sol)
    for mine, ref in zip(traj.step_integrals, reference.step_integrals):
        assert np.array_equal(mine, ref)


def test_rk45_stepper_matches_scipy_at_n256():
    sys_ = power_law_system(256, gamma=0.5)
    y0 = decaying_state(256)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-15)
    traj = integrate(sys_, y0, 5.0, cfg, flux_orders=(1,))
    solver, ts, _ = scipy_rk45(sys_, y0, 5.0, cfg, (1,))
    assert traj.t_end == ts[-1]
    mine = np.concatenate([traj.phase[-1], traj.accumulators[-1]])
    ref = clamped(solver.y.copy(), sys_.dimension)
    assert np.all(np.abs(mine - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


def test_rk45_step_size_underflow_as_scipy():
    # at t = 1e16 ten ulps are 20 time units, far above the step a loss rate of 50 allows
    sys_ = power_law_system(4, gamma=0.5, p_amp=50.0)
    y0 = decaying_state(4, t=1e16)
    cfg = IntegratorConfig()
    solver, _, _ = scipy_rk45(sys_, y0, 2e16, cfg, ())
    assert solver.status == "failed"
    with pytest.raises(StepSizeUnderflow, match="near t=1e"):
        integrate(sys_, y0, 2e16, cfg)


@pytest.mark.parametrize("method", ["rk45", "bdf"])
def test_step_budget_stops_both_methods(monkeypatch, method):
    # a run needing exactly MAX_STEPS steps finishes; one more step is over budget
    sys_ = power_law_system(8, gamma=0.5)
    cfg = IntegratorConfig(method=method)
    steps = integrate(sys_, decaying_state(8), 2.0, cfg).stats.steps
    monkeypatch.setattr(integrator, "MAX_STEPS", steps)
    assert integrate(sys_, decaying_state(8), 2.0, cfg).stats.steps == steps
    monkeypatch.setattr(integrator, "MAX_STEPS", steps - 1)
    with pytest.raises(StepBudgetExceeded, match=f"^{steps - 1} accepted steps reached t="):
        integrate(sys_, decaying_state(8), 2.0, cfg)
