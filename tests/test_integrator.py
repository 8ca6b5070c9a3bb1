import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from silkin import (
    IntegratorConfig,
    ModelParams,
    NegativityViolation,
    OutOfRange,
    State,
    StepBudgetExceeded,
    StepSizeUnderflow,
    TruncatedSystem,
    eval_jacobian,
    integrate,
    weighted_norm,
)
from silkin import integrator
from silkin.truncation import NUM_BASE_ACC, augmented_field

from conftest import constant_rates, decaying_state, power_law_system, rates_from_arrays
from oracles import decoupled_solution, dense_jacobian

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
    u0 = weighted_norm(y0.x, y0.M)
    for i in range(traj.num_samples):
        s = traj.state(i)
        assert weighted_norm(s.x, s.M) == pytest.approx(u0 + 1.3 * (s.t - y0.t), abs=1e-11)


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
        z = traj.at(t)
        assert z[0] == pytest.approx(x_ref, rel=1e-8, abs=1e-10)
        np.testing.assert_allclose(z[1:n + 2], M_ref, rtol=1e-8, atol=1e-12)


def test_dense_eval_at_sample_time_is_exact():
    traj = decay_trajectory()
    mid = traj.num_samples // 2
    z = traj.at(float(traj.t[mid]))
    assert z[0] == traj.phase[mid, 0]
    assert np.array_equal(z[1:traj.sys.dimension], traj.phase[mid, 1:])
    # Trajectory.at, for both methods: the stored sample at every sample time, the dense output at any other
    for method in ("rk45", "bdf"):
        cfg = IntegratorConfig(method=method)
        coupled = integrate(power_law_system(8, gamma=0.5), decaying_state(8), 2.0, cfg, flux_orders=(1,))
        for i, t in enumerate(coupled.t):
            row = np.concatenate((coupled.phase[i], coupled.accumulators[i]))
            assert coupled.at(float(t)).tobytes() == row.tobytes()
        for t in 0.5 * (coupled.t[1:] + coupled.t[:-1]):
            assert coupled.at(float(t)).tobytes() == coupled.dense_vector(float(t)).tobytes()


def test_dense_eval_constant_solution():
    sys_ = TruncatedSystem(ModelParams(0.0, 0.0), constant_rates(3))
    y0 = State(t=0.0, x=0.75, M=[0.5, 0.25, 0.0, 0.125])
    traj = integrate(sys_, y0, 2.0)
    for t in np.linspace(0.0, 2.0, 9):
        z = traj.at(float(t))
        assert z[0] == 0.75
        assert np.array_equal(z[1:5], y0.M)


def test_dense_eval_decay_midpoint():
    traj = decay_trajectory()
    assert traj.at(0.5)[1] == pytest.approx(E_HALF_INV, abs=1e-8)


def test_dense_eval_out_of_range():
    traj = decay_trajectory()
    with pytest.raises(OutOfRange):
        traj.at(-0.1)
    with pytest.raises(OutOfRange):
        traj.at(1.1)


@pytest.mark.parametrize("method", ["rk45", "bdf"])
def test_every_dense_read_rejects_the_same_times(method):
    # values, point values and derivatives: a time outside [t_start, t_end] raises, in any position of the request
    traj = decay_trajectory(IntegratorConfig(method=method))
    inside = [0.5, 0.0, 1.0]
    for reader in (traj.dense_matrix, traj.dense_derivative):
        assert reader(np.array(inside)).shape == (traj.sys.dimension + NUM_BASE_ACC, 3)
    for t in (-5.0, math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0), 3.0, math.nan):
        with pytest.raises(OutOfRange):
            traj.dense_vector(t)
        for reader in (traj.dense_matrix, traj.dense_derivative):
            with pytest.raises(OutOfRange):
                reader(np.array(inside + [t]))
            with pytest.raises(OutOfRange):
                reader(np.array([t] + inside))


@pytest.mark.parametrize("method", ["rk45", "bdf"])
def test_trajectory_keeps_one_sample_matrix(method):
    # phase and accumulators are the column blocks of one (steps + 1) x size matrix; with the step
    # records set aside, a trajectory retains that matrix and no second full copy of the rows
    import tracemalloc

    n = 1024
    sys_, y0 = power_law_system(n, gamma=0.5), decaying_state(n)
    cfg = IntegratorConfig(method=method, rel_tol=1e-6, abs_tol=1e-9)
    integrate(sys_, y0, 2.0, cfg, flux_orders=(1,))  # fills the system's caches outside the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = integrate(sys_, y0, 2.0, cfg, flux_orders=(1,))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    samples = traj.phase.base
    size = sys_.dimension + NUM_BASE_ACC + 1
    assert samples is not None and traj.accumulators.base is samples
    assert samples.shape == (traj.stats.steps + 1, size) and samples.dtype == np.float64
    records = sum(np.asarray(a).nbytes for step in traj._sol.steps for a in step)
    assert retained - records < 1.25 * samples.nbytes


@pytest.mark.parametrize("field", ["r", "x0", "p"])
def test_integrate_ends_in_one_error_on_overflow(field):
    # a value that leaves double precision raises at once, with no numpy warning and no StepSizeUnderflow
    n = 4
    sys_ = power_law_system(n, gamma=0.5, r=1e308 if field == "r" else 0.4, p_amp=1e308 if field == "p" else 0.7)
    y0 = decaying_state(n, x0=1e308 if field == "x0" else 1.0)
    with pytest.raises(FloatingPointError):
        integrate(sys_, y0, 5.0)


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
    u0 = weighted_norm(y0.x, y0.M)
    supply = sys_.params.r + sys_.params.alpha
    w = np.arange(25) + 1.0
    for i in range(traj.num_samples):
        s = traj.state(i)
        budget = u0 + supply * (s.t - y0.t)
        assert weighted_norm(s.x, s.M) <= budget + 1e-6
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
    assert traj.at(3.0)[sys_.dimension + traj.flux_slot(1)] == pytest.approx(quad, rel=1e-9, abs=1e-11)


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


def test_newton_factor_is_backward_stable(rng):
    # the structured solve of I - c J at n = 1024, against the dense matrix placed entry by entry:
    # an increasing and a decreasing k table, a state with a subnormal tail, and a chain without
    # release whose bidiagonal solve couples cohorts a thousand apart (the level products decay like l / i)
    n = 1024
    cohorts = np.arange(n + 1.0)
    decreasing = rates_from_arrays(n, 3.0 / (1.0 + cohorts), np.full(n + 1, 0.7), 0.5 * cohorts)
    long_range = rates_from_arrays(n, 1.0 + cohorts, np.full(n + 1, 0.01), np.zeros(n + 1))
    smooth = decaying_state(n, rho=0.5).vector()
    subnormal_tail = smooth.copy()
    subnormal_tail[600:] = 5e-324
    heavy_x = smooth.copy()
    heavy_x[0] = 5.0
    cases = [
        (power_law_system(n, gamma=1.0), (smooth, subnormal_tail)),
        (TruncatedSystem(ModelParams(r=0.4, alpha=0.3), decreasing), (smooth, subnormal_tail)),
        (TruncatedSystem(ModelParams(r=0.4, alpha=0.3), long_range), (heavy_x,)),
    ]
    for sys_, phases in cases:
        _, jac = augmented_field(sys_, (1,))
        for phase in phases:
            z = np.concatenate([phase, np.zeros(NUM_BASE_ACC + 1)])
            J = jac(0.0, z)
            for c in (1e-4, 1e-2, 0.2):
                A = np.eye(len(z)) - c * dense_jacobian(J, len(z))
                b = rng.standard_normal(len(z))
                u = integrator._NewtonFactor(J, c).solve(b)
                residual = np.max(np.abs(A @ u - b))
                scale = np.abs(A).sum(axis=1).max() * np.max(np.abs(u)) + np.max(np.abs(b))
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


def test_integrator_stats_report_rejections_and_step_range():
    # RK45 at 1e-4/1e-8 on n = 32 refuses 18 steps; each step tried costs six field calls
    # after the two of the starting step
    sys_ = power_law_system(32, gamma=1.0)
    traj = integrate(sys_, decaying_state(32), 5.0, IntegratorConfig(rel_tol=1e-4, abs_tol=1e-8), flux_orders=(1,))
    stats = traj.stats
    assert stats.rejected == 18
    assert stats.nfev == 2 + 6 * (stats.steps + stats.rejected)
    steps = np.diff(traj.t)
    assert (stats.h_min, stats.h_max) == (float(steps.min()), float(steps.max()))
    assert 0.0 < stats.h_min < stats.h_max


def test_augmented_jacobian_matches_finite_differences(rng):
    # the Jacobian handed to the stiff stepper, including accumulator rows,
    # at a small and a large truncation order
    for n in (7, 80):
        sys_ = power_law_system(n, gamma=1.0)
        flux = (1, 3)
        fun, jac = augmented_field(sys_, flux)
        dim = sys_.dimension
        for _ in range(20):
            z = np.concatenate([rng.uniform(0.0, 2.0, dim), rng.uniform(0.0, 1.0, NUM_BASE_ACC + len(flux))])
            J = dense_jacobian(jac(0.0, z), len(z))
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
            assert np.array_equal(eval_jacobian(sys_, s).to_sparse().toarray(), J[:dim, :dim])
        # stored entries grow linearly: x border row and column, bidiagonal
        # M block, two accumulator rows and two entries per flux row
        blocks = jac(0.0, z)
        assert sum(np.size(values) for values in blocks[:-1]) <= 6 * dim + 2 * len(flux)  # the last holds indices


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
    assert second.state(0).t == 1.5


def scipy_rk45(sys_, y0, t_end, cfg, flux_orders, rows=None):
    """Reference run of scipy's RK45 on the same augmented field: the solver, its times and its dense output.

    A ``rows`` list receives a copy of scipy's state at the start and after every accepted step.
    """
    from scipy.integrate import RK45, OdeSolution

    fun, _ = augmented_field(sys_, flux_orders)
    z0 = np.concatenate([y0.vector(), np.zeros(NUM_BASE_ACC + len(flux_orders))])
    solver = RK45(fun, y0.t, z0, t_end, rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=cfg.max_step)
    ts, segments = [y0.t], []
    if rows is not None:
        rows.append(solver.y.copy())
    while solver.status == "running":
        solver.step()
        if solver.status == "failed":
            return solver, None, None
        ts.append(solver.t)
        segments.append(solver.dense_output())
        if rows is not None:
            rows.append(solver.y.copy())
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
        (32, 1.0, 1e-4, 1e-8, math.inf),  # 18 rejected steps
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


@pytest.mark.parametrize(
    "n,gamma,rel_tol,abs_tol,max_step",
    [  # the cases of test_rk45_stepper_matches_scipy
        (4, 0.5, 1e-10, 1e-15, math.inf),
        (32, 0.5, 1e-10, 1e-15, math.inf),
        (4, 0.5, 1e-6, 1e-9, 0.05),
        (32, 1.0, 1e-4, 1e-8, math.inf),
    ],
)
def test_rk45_sample_rows_match_scipy(n, gamma, rel_tol, abs_tol, max_step):
    # every sample row is scipy's state after that step, bitwise: no row aliases a state the stepper reuses
    sys_ = power_law_system(n, gamma=gamma)
    y0 = decaying_state(n)
    cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=abs_tol, max_step=max_step)
    traj = integrate(sys_, y0, 5.0, cfg, flux_orders=(1,))
    rows = []
    scipy_rk45(sys_, y0, 5.0, cfg, (1,), rows)
    Z = np.array(rows)
    dim = sys_.dimension
    assert traj.phase.tobytes() == np.where(Z[:, :dim] < 0.0, 0.0, Z[:, :dim]).tobytes()
    assert traj.accumulators.tobytes() == Z[:, dim:].tobytes()


class _BlocksAsMatrix:
    """Jacobian blocks where scipy's BDF expects a matrix: ``c * J`` gives ``(blocks, c)``."""

    __array_ufunc__ = None  # numpy defers ``c * J`` to __rmul__

    def __init__(self, blocks):
        self.blocks = blocks

    def __rmul__(self, c):
        return self.blocks, c


class _Identity:
    """scipy's ``I`` in ``I - c J``: it passes ``(blocks, c)`` on to ``lu``."""

    def __sub__(self, scaled):
        return scaled


def scipy_bdf(sys_, y0, t_end, cfg, flux_orders):
    """scipy's BDF on the augmented field, its Newton systems factored and solved by the library's factor.

    Returns the solver, its times, its state after each step (the start first) and its steps' dense outputs.
    """
    import scipy.sparse
    from scipy.integrate import BDF

    fun, jac = augmented_field(sys_, flux_orders)
    z0 = np.concatenate([y0.vector(), np.zeros(NUM_BASE_ACC + len(flux_orders))])
    size = len(z0)
    # A sparse placeholder gets the constructor past its matrix checks; it counts that call in njev.
    solver = BDF(
        fun, y0.t, z0, t_end, rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=cfg.max_step,
        jac=lambda t, y: scipy.sparse.csc_matrix((size, size)),
    )
    solver.J = _BlocksAsMatrix(jac(y0.t, z0))

    def refreshed(t, y):
        solver.njev += 1
        return _BlocksAsMatrix(jac(t, y))

    def lu(scaled):
        solver.nlu += 1
        return integrator._NewtonFactor(*scaled)

    solver.jac, solver.I, solver.lu = refreshed, _Identity(), lu
    solver.solve_lu = lambda factor, b: factor.solve(b)
    ts, rows, segments = [y0.t], [z0], []
    while solver.status == "running":
        solver.step()
        assert solver.status != "failed"
        ts.append(solver.t)
        rows.append(solver.y.copy())
        segments.append(solver.dense_output())
    return solver, np.array(ts), np.array(rows), segments


@pytest.mark.parametrize("n,gamma,rel_tol,abs_tol", [(4, 0.5, 1e-10, 1e-15), (32, 1.0, 1e-6, 1e-9)])
def test_bdf_dense_output_matches_scipy(n, gamma, rel_tol, abs_tol):
    # the shared evaluator on the steps of scipy's own BDF: the values and the layout of OdeSolution, bitwise
    from scipy.integrate import OdeSolution

    cfg = IntegratorConfig(method="bdf", rel_tol=rel_tol, abs_tol=abs_tol)
    _, ts, rows, segments = scipy_bdf(power_law_system(n, gamma=gamma), decaying_state(n), 5.0, cfg, (1,))
    mine = integrator._DenseOutput(ts, segments)
    reference = OdeSolution(ts, segments)
    grid = np.sort(np.concatenate([np.linspace(0.0, 5.0, 201), ts]))  # sample times too
    for points in (grid, np.random.default_rng(3).permutation(grid)):
        got, want = mine(points), reference(points)
        assert got.tobytes() == want.tobytes()
        assert got.flags.f_contiguous == want.flags.f_contiguous


def assert_bdf_matches_scipy(monkeypatch, sys_, y0, cfg):
    """scipy's BDF driven by the same factor and solve takes the same steps with the same bits as ``integrate``.

    Compared: times, states, work counts, rejections and each step's dense-output data.
    """
    import scipy.integrate._ivp.bdf as scipy_bdf_module

    newton_calls = []
    solve_bdf_system = scipy_bdf_module.solve_bdf_system

    def counted(*args):
        newton_calls.append(1)
        return solve_bdf_system(*args)

    monkeypatch.setattr(scipy_bdf_module, "solve_bdf_system", counted)
    traj = integrate(sys_, y0, 5.0, cfg, flux_orders=(1, 4))
    solver, ts, rows, segments = scipy_bdf(sys_, y0, 5.0, cfg, (1, 4))
    dim = sys_.dimension
    assert traj.t.tobytes() == ts.tobytes()
    assert traj.phase.tobytes() == np.where(rows[:, :dim] < 0.0, 0.0, rows[:, :dim]).tobytes()
    assert traj.accumulators.tobytes() == rows[:, dim:].tobytes()
    stats = traj.stats
    assert (stats.nfev, stats.njev, stats.nlu) == (solver.nfev, solver.njev, solver.nlu)
    # each attempt makes one Newton call, and one more after each Jacobian refresh
    assert stats.rejected == len(newton_calls) - (solver.njev - 1) - stats.steps
    for mine, ref in zip(traj._sol.steps, segments, strict=True):
        for a, b in ((mine.t_shift, ref.t_shift), (mine.denom, ref.denom), (mine.D, ref.D)):
            assert a.tobytes() == b.tobytes()
    return stats


@pytest.mark.parametrize(
    "rel_tol,abs_tol,max_step",
    [(1e-10, 1e-15, math.inf), (1e-4, 1e-8, 0.1)],  # the second: max_step binds, Jacobian refreshes at gamma = 1
)
@pytest.mark.parametrize("gamma", [0.0, 1.0])
@pytest.mark.parametrize("n", [4, 32, 256])
def test_bdf_stepper_matches_scipy(monkeypatch, n, gamma, rel_tol, abs_tol, max_step):
    cfg = IntegratorConfig(method="bdf", rel_tol=rel_tol, abs_tol=abs_tol, max_step=max_step)
    assert_bdf_matches_scipy(monkeypatch, power_law_system(n, gamma=gamma), decaying_state(n), cfg)


def test_bdf_stepper_matches_scipy_on_a_stiff_system(monkeypatch):
    # fast ingestion and loss: Newton fails three times on a stale Jacobian, and one step is refused
    sys_ = power_law_system(32, gamma=1.0, k_amp=50.0, p_amp=20.0)
    cfg = IntegratorConfig(method="bdf", rel_tol=1e-3, abs_tol=1e-6)
    stats = assert_bdf_matches_scipy(monkeypatch, sys_, decaying_state(32), cfg)
    assert (stats.njev, stats.rejected) == (4, 1)


@pytest.mark.parametrize("method", ["rk45", "bdf"])
def test_dense_derivative_matches_the_decay_oracle(method):
    # r = alpha = 0, no ingestion: M_i' = -a_i M_i(0) e^{-a_i t} and x' = sum_i i q_i M_i(0) e^{-a_i t}
    n = 6
    p = np.array([0.3, 0.0, 1.1, 0.7, 0.0, 0.2, 0.9])
    q = np.array([0.5, 0.4, 0.0, 0.6, 0.3, 0.0, 0.8])
    from conftest import rates_from_arrays

    sys_ = TruncatedSystem(ModelParams(r=0.0, alpha=0.0), rates_from_arrays(n, np.zeros(n + 1), p, q))
    M0 = np.array([1.0, 0.8, 0.6, 0.4, 0.3, 0.2, 0.1])
    traj = integrate(sys_, State(t=0.0, x=0.5, M=M0), 5.0, IntegratorConfig(method=method))
    times = np.concatenate([traj.t, 0.5 * (traj.t[1:] + traj.t[:-1])])  # step boundaries and interiors
    M = M0 * np.exp(-np.outer(times, p + q))
    exact = np.column_stack([M @ (np.arange(n + 1) * q), -(p + q) * M])
    got = traj.dense_derivative(times)[: sys_.dimension].T
    np.testing.assert_allclose(got, exact, rtol=0.0, atol=1e-7 if method == "rk45" else 5e-6)  # measured 6e-9, 6e-7


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


def test_bdf_step_size_underflow_as_scipy():
    # at t = 1e16 the starting step is shorter than ten ulps (20 time units), so the first try is that
    # minimum, with the differences rescaled to it; Newton fails there at a loss rate of 50, and half of it is too short
    from scipy.integrate import BDF

    sys_ = power_law_system(4, gamma=0.5, p_amp=50.0)
    y0 = decaying_state(4, t=1e16)
    cfg = IntegratorConfig(method="bdf")
    fun, jac = augmented_field(sys_, ())
    z0 = np.concatenate([y0.vector(), np.zeros(NUM_BASE_ACC)])

    def dense(t, y):
        return dense_jacobian(jac(t, y), len(z0))

    solver = BDF(fun, y0.t, z0, 2e16, rtol=cfg.rel_tol, atol=cfg.abs_tol, jac=dense)
    while solver.status == "running":
        solver.step()
    assert solver.status == "failed"
    stepper = integrator._BDF(fun, jac, y0.t, z0, 2e16, cfg.rel_tol, cfg.abs_tol, cfg.max_step)
    with pytest.raises(StepSizeUnderflow, match="near t=1e"):
        stepper.step()
    assert (stepper.nfev, stepper.njev, stepper.nlu) == (solver.nfev, solver.njev, solver.nlu)
    with pytest.raises(StepSizeUnderflow, match="near t=1e"):
        integrate(sys_, y0, 2e16, cfg)


def test_rk45_nan_field_fails_the_step():
    # a NaN step size fails at once; scipy's RK45 keeps shrinking it without end
    solver = integrator._DormandPrince(lambda t, y: np.full_like(y, np.nan), 0.0, np.ones(3), 1.0, 1e-6, 1e-9, math.inf)
    with pytest.raises(StepSizeUnderflow, match="near t=0.0"):
        solver.step()


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
