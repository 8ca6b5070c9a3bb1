"""Acceptance battery: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
The shared run matrix (criteria 1-3, 6, 9) holds 200 random nonnegative
initial states spread over truncation orders {4, 32, 256} and ingestion
exponents {0, 1/2, 1}, all integrated to T = 5.
"""
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
import yaml

from silkin import (
    CoefficientFamily,
    InitialData,
    IntegratorConfig,
    ModelParams,
    MomentWeights,
    State,
    TruncatedSystem,
    cli,
    convergence_study,
    eval_jacobian,
    find_equilibrium,
    gronwall_check,
    integrate,
    invariance_check,
    mass_balance_residual,
    moment_identity_residual,
    realize_coefficients,
    semigroup_residual,
    uniqueness_probe,
    weighted_norm,
)

from oracles import affine_closure, affine_closure_equilibrium, central_jacobian, decoupled_solution

MATRIX_NS = (4, 32, 256)
MATRIX_GAMMAS = (0.0, 0.5, 1.0)
NUM_STATES = 200
T_END = 5.0
BALANCE_TOL = 1e-6
# abs_tol is tightened well below the default so that (i+1)^2-weighted sums
# at n=256 do not feel the absolute error floor; thresholds keep 1e-6.
CFG_A = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-15)
CFG_B = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-14, max_step=0.25)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def make_system(n: int, gamma: float) -> TruncatedSystem:
    rates = realize_coefficients(
        CoefficientFamily.power_law(1.0, gamma),
        CoefficientFamily.constant(0.7),
        CoefficientFamily.power_law(0.5, 1.0),
        n,
    )
    return TruncatedSystem(ModelParams(r=0.4, alpha=0.3), rates)


def random_state(rng: np.random.Generator, n: int) -> State:
    rho = rng.uniform(0.35, 0.6)
    M = rng.uniform(0.3, 1.0, n + 1) * rho ** np.arange(n + 1)
    return State(t=0.0, x=rng.uniform(0.0, 1.5), M=M)


@dataclass
class MatrixRun:
    n: int
    gamma: float
    sys: TruncatedSystem
    y0: State
    traj: object


@pytest.fixture(scope="module")
def run_matrix():
    rng = np.random.default_rng(20250809)
    cells = [(n, g) for n in MATRIX_NS for g in MATRIX_GAMMAS]
    systems = {cell: make_system(*cell) for cell in cells}
    runs = []
    start = time.perf_counter()
    for idx in range(NUM_STATES):
        n, gamma = cells[idx % len(cells)]
        sys_ = systems[(n, gamma)]
        y0 = random_state(rng, n)
        traj = integrate(sys_, y0, T_END, CFG_A)
        runs.append(MatrixRun(n=n, gamma=gamma, sys=sys_, y0=y0, traj=traj))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_1_cone_and_norm_bound(run_matrix):
    runs, elapsed = run_matrix
    worst_excess = -math.inf
    cone_ok = True
    for run in runs:
        traj = run.traj
        cone_ok &= traj.pre_clamp_min >= traj.cfg.floor and float(np.min(traj.phase)) >= 0.0
        w = np.arange(run.n + 1) + 1.0
        norms = traj.phase[:, 0] + traj.phase[:, 1:] @ w
        budget = weighted_norm(run.y0.x, run.y0.M) + 0.7 * (traj.t - traj.t_start)
        worst_excess = max(worst_excess, float(np.max(norms - budget)))
    ok = cone_ok and worst_excess <= 1e-6 and elapsed < 60.0
    _report(1, ok, f"{len(runs)} runs in {elapsed:.1f}s (< 60s), worst norm excess {worst_excess:.2e} (<= 1e-6)")
    assert cone_ok
    assert worst_excess <= 1e-6
    assert elapsed < 60.0


def test_criterion_2_mass_balance(run_matrix):
    runs, _ = run_matrix
    worst = 0.0
    for run in runs:
        for t in np.linspace(T_END / 10.0, T_END, 10):
            worst = max(worst, abs(mass_balance_residual(run.traj, float(t))))
    # no-loss channels: the balance must hold to stepper precision
    lossless = TruncatedSystem(
        ModelParams(r=0.4, alpha=0.3),
        realize_coefficients(
            CoefficientFamily.power_law(1.0, 0.5),
            CoefficientFamily.constant(0.0),
            CoefficientFamily.constant(0.0),
            32,
        ),
    )
    y0 = InitialData(x0=1.0, b=1.0, rho=0.5).state(32)
    traj = integrate(lossless, y0, T_END, CFG_A)
    worst_exact = max(abs(mass_balance_residual(traj, float(t))) for t in np.linspace(0.5, T_END, 10))
    ok = worst < BALANCE_TOL and worst_exact < 1e-11
    _report(2, ok, f"matrix residual {worst:.2e} (< 1e-6), lossless residual {worst_exact:.2e} (< 1e-11)")
    assert worst < BALANCE_TOL
    assert worst_exact < 1e-11


def test_criterion_3_moment_identities(run_matrix):
    runs, _ = run_matrix
    worst = {"flat": 0.0, "linear": 0.0, "power": 0.0}
    for run in runs:
        n = run.n
        weight_sets = {
            "flat": MomentWeights.ones(n),
            "linear": MomentWeights.linear(n),
            "power": MomentWeights.power(n, 1.0 + run.gamma),
        }
        for label, w in weight_sets.items():
            res = abs(moment_identity_residual(run.traj, w, 1, 0.0, T_END))
            worst[label] = max(worst[label], res)
    ok = all(v < BALANCE_TOL for v in worst.values())
    _report(
        3,
        ok,
        "residuals flat {flat:.2e}, linear {linear:.2e}, power {power:.2e} (all < 1e-6)".format(**worst),
    )
    assert ok


def test_criterion_4_analytic_oracles():
    # decoupled closed form
    n = 8
    p = np.array([0.3, 0.0, 1.1, 0.7, 0.0, 0.2, 0.9, 0.4, 0.6])
    q = np.array([0.2, 0.5, 0.0, 0.4, 0.0, 1.3, 0.1, 0.8, 0.0])
    rates = realize_coefficients(
        CoefficientFamily.constant(0.0),
        CoefficientFamily.table(p),
        CoefficientFamily.table(q),
        n,
    )
    sys_ = TruncatedSystem(ModelParams(r=0.0, alpha=0.25), rates)
    M0 = np.array([1.0, 0.8, 0.6, 0.4, 0.3, 0.2, 0.1, 0.05, 0.025])
    traj = integrate(sys_, State(t=0.0, x=0.5, M=M0), T_END, CFG_A)
    worst_rel = 0.0
    for t in (0.5, 1.0, 5.0):
        x_ref, M_ref = decoupled_solution(0.5, M0, p, q, 0.0, 0.25, t)
        got = traj.dense_vector(t)[: n + 2]
        ref = np.concatenate(([x_ref], M_ref))
        worst_rel = max(worst_rel, float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-30))))

    # chain equilibrium at unit rates
    n_eq = 64
    eq_sys = TruncatedSystem(
        ModelParams(r=1.0, alpha=1.0),
        realize_coefficients(
            CoefficientFamily.constant(1.0),
            CoefficientFamily.constant(1.0),
            CoefficientFamily.constant(0.0),
            n_eq,
        ),
    )
    result = find_equilibrium(eq_sys, tol=1e-13)
    tail = 2.0 ** -(n_eq + 1)
    x_err = abs(result.x_star - 1.0)
    m_err = float(np.max(np.abs(result.M_star - 2.0 ** -(np.arange(n_eq + 1) + 1.0))))
    ok = worst_rel < 1e-7 and x_err < 1e-8 + tail and m_err <= 1e-8 + tail
    _report(
        4,
        ok,
        f"decoupled rel err {worst_rel:.2e} (< 1e-7), equilibrium |x*-1| {x_err:.2e}, cohort err {m_err:.2e}",
    )
    assert worst_rel < 1e-7
    assert x_err < 1e-8 + tail
    assert m_err <= 1e-8 + tail


def test_criterion_5_truncation_convergence():
    families = (
        CoefficientFamily.power_law(1.0, 0.5),
        CoefficientFamily.constant(0.7),
        CoefficientFamily.power_law(0.5, 1.0),
    )
    start = time.perf_counter()
    report = convergence_study(
        ModelParams(r=0.4, alpha=0.3),
        families,
        InitialData(x0=1.0, b=1.0, rho=0.7),
        (8, 16, 32, 64, 128),
        1.0,
        IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14),
    )
    elapsed = time.perf_counter() - start
    ok = report.decreasing and report.gaps[-1] < 1e-6 and elapsed < 120.0
    gaps = ", ".join(f"{g:.2e}" for g in report.gaps)
    _report(5, ok, f"gaps [{gaps}] strictly decreasing={report.decreasing}, final < 1e-6, {elapsed:.1f}s (< 120s)")
    assert report.decreasing
    assert report.gaps[-1] < 1e-6
    assert elapsed < 120.0


def test_criterion_6_uniqueness_probe(run_matrix):
    # the fixture keeps each CFG_A run alive, so the probe's A leg is that run, not a second integration
    runs, _ = run_matrix
    worst = 0.0
    for run in runs:
        worst = max(worst, uniqueness_probe(run.sys, run.y0, T_END, CFG_A, CFG_B))
    ok = worst < 1e-6
    _report(6, ok, f"worst sup-gap between stepping configs {worst:.2e} (< 1e-6)")
    assert worst < 1e-6


def test_criterion_7_semigroup():
    sys_ = make_system(32, 0.5)
    y0 = InitialData(x0=1.0, b=1.0, rho=0.5).state(32)
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-14)
    residuals = {}
    for t, s in ((0.5, 0.5), (1.0, 2.0), (0.0, 3.0), (3.0, 0.0)):
        residuals[(t, s)] = semigroup_residual(sys_, y0, t, s, cfg)
    exact_ok = residuals[(0.0, 3.0)] == 0.0 and residuals[(3.0, 0.0)] == 0.0
    worst = max(residuals.values())
    ok = worst < 1e-7 and exact_ok
    _report(7, ok, f"worst residual {worst:.2e} (< 1e-7), degenerate legs exactly zero: {exact_ok}")
    assert worst < 1e-7
    assert exact_ok


def test_criterion_8_jacobian_families():
    rng = np.random.default_rng(777)
    n = 16
    families = {
        "gamma0": CoefficientFamily.power_law(1.0, 0.0),
        "gamma_half": CoefficientFamily.power_law(1.0, 0.5),
        "gamma1": CoefficientFamily.power_law(1.0, 1.0),
        "constant": CoefficientFamily.constant(0.8),
        "table": CoefficientFamily.table([0.5, 1.5, 0.25, 2.0]),
    }
    worst = 0.0
    for fam in families.values():
        rates = realize_coefficients(
            fam, CoefficientFamily.constant(0.7), CoefficientFamily.power_law(0.5, 1.0), n
        )
        sys_ = TruncatedSystem(ModelParams(r=0.4, alpha=0.3), rates)
        for _ in range(100):
            s = random_state(rng, n)
            J = eval_jacobian(sys_, s).to_sparse().toarray()
            J_fd = central_jacobian(sys_, s)
            scale = max(1.0, float(np.max(np.abs(J))))
            worst = max(worst, float(np.max(np.abs(J - J_fd))) / scale)
    ok = worst < 1e-6
    _report(8, ok, f"worst finite-difference Jacobian defect {worst:.2e} over 5 families x 100 states (< 1e-6)")
    assert worst < 1e-6


def test_criterion_9_envelopes(run_matrix):
    runs, _ = run_matrix
    worst_gron = math.inf
    worst_inv = math.inf
    all_ok = True
    for run in runs:
        w = MomentWeights.power(run.n, 1.0 + run.gamma)
        gron = gronwall_check(run.traj, w)
        inv = invariance_check(run.traj, run.gamma)
        all_ok &= gron.ok and inv.ok
        worst_gron = min(worst_gron, gron.margin)
        worst_inv = min(worst_inv, inv.margin)
    ok = all_ok and worst_gron > 0.0 and worst_inv > 0.0
    _report(9, ok, f"all envelopes hold; smallest margins gronwall {worst_gron:.3f}, invariance {worst_inv:.3f} (> 0)")
    assert all_ok
    assert worst_gron > 0.0
    assert worst_inv > 0.0


def test_criterion_10_deterministic_cli(tmp_path):
    doc = {
        "model": {"r": 0.4, "alpha": 0.3},
        "rates": {
            "k": {"kind": "power_law", "amplitude": 1.0, "exponent": 0.5},
            "p": {"kind": "constant", "amplitude": 0.7},
            "q": {"kind": "power_law", "amplitude": 0.5, "exponent": 1.0},
        },
        "initial": {"x0": 1.0, "decay": {"b": 1.0, "rho": 0.5}},
        "run": {"n": 24, "t_end": 3.0},
        "output": {"wide_csv": True},
    }
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    outs = []
    for label in ("a", "b"):
        out = tmp_path / label
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    same_narrow = (outs[0] / "trajectory.csv").read_bytes() == (outs[1] / "trajectory.csv").read_bytes()
    same_wide = (outs[0] / "trajectory_wide.csv").read_bytes() == (outs[1] / "trajectory_wide.csv").read_bytes()
    ok = same_narrow and same_wide
    _report(10, ok, f"consecutive runs byte-identical: narrow={same_narrow}, wide={same_wide}")
    assert same_narrow
    assert same_wide


# Affine ingestion k_i = 1 + gamma i, constant p and q: the infinite system closes on (x, N, X).
AFFINE = dict(r=0.4, alpha=0.3, p=0.7, q=0.5)
AFFINE_CFG = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-16)
AFFINE_FLOOR = 1e-10  # where the truncation error sinks below the integration error
AFFINE_CASES = [  # (gamma, rho, T, ladder)
    (1.0, 0.5, 5.0, (8, 16, 32, 64, 128, 256)),
    (0.0, 0.7, 5.0, (8, 16, 32, 64, 128)),
    (1.0, 0.9, 1.0, (16, 32, 64, 128, 256)),
]


def _affine_system(n: int, gamma: float) -> TruncatedSystem:
    rates = realize_coefficients(
        CoefficientFamily.power_law(1.0, gamma),
        CoefficientFamily.constant(AFFINE["p"]),
        CoefficientFamily.constant(AFFINE["q"]),
        n,
    )
    return TruncatedSystem(ModelParams(r=AFFINE["r"], alpha=AFFINE["alpha"]), rates)


def _falls_to_floor(errors) -> bool:
    """Each rung below the one before it, or at the floor; the last at the floor or 1000x below the first."""
    steps_ok = all(b < a or b <= AFFINE_FLOOR for a, b in zip(errors, errors[1:]))
    return steps_ok and (errors[-1] <= AFFINE_FLOOR or errors[-1] <= 1e-3 * errors[0])


def test_criterion_11_truncations_approach_the_affine_limit():
    # sup-in-time errors of x, N = sum M_i and X = sum i M_i against the infinite system's closure, and
    # find_equilibrium's root against the closure's steady state x*_inf
    start = time.perf_counter()
    ladders = []
    for gamma, rho, t_end, ladder in AFFINE_CASES:
        ts = np.linspace(0.0, t_end, 201)
        limit = affine_closure(AFFINE["r"], AFFINE["alpha"], 1.0, gamma, AFFINE["p"], AFFINE["q"],
                               1.0, 1.0 / (1.0 - rho), rho / (1.0 - rho) ** 2, ts)
        errors = []
        for n in ladder:
            y0 = InitialData(x0=1.0, b=1.0, rho=rho).state(n)
            Z = integrate(_affine_system(n, gamma), y0, t_end, AFFINE_CFG).dense_matrix(ts)
            M = Z[1:n + 2]
            errors.append([float(np.max(np.abs(u - v))) for u, v in zip((Z[0], M.sum(axis=0), np.arange(n + 1) @ M), limit)])
        ladders.append((gamma, rho, np.array(errors)))
    ladder_ok = all(_falls_to_floor(errors[:, j]) for _, _, errors in ladders for j in range(3))
    gamma0_floor = all((errors[-1] <= AFFINE_FLOOR).all() for gamma, _, errors in ladders if gamma == 0.0)

    equilibrium_ok = True
    gaps = {}
    for gamma, ladder in ((0.0, (8, 16, 32, 64, 128)), (1.0, (8, 16, 32, 64, 128, 256, 1024))):
        x_inf, N_inf, X_inf = affine_closure_equilibrium(AFFINE["r"], AFFINE["alpha"], 1.0, gamma, AFFINE["p"], AFFINE["q"])
        gaps[gamma] = []
        for n in ladder:
            eq = find_equilibrium(_affine_system(n, gamma))
            gaps[gamma].append(eq.x_star - x_inf)
            # the truncation keeps N' and (x + X)' of the limit, so its root has the limit's N* and X*
            equilibrium_ok &= abs(eq.M_star.sum() - N_inf) < 1e-12 and abs(np.arange(n + 1) @ eq.M_star - X_inf) < 1e-12
        if gamma == 1.0:  # algebraic: the gap times n stays within [1, 3]
            equilibrium_ok &= all(1.0 < n * gap < 3.0 for n, gap in zip(ladder, gaps[gamma]))
        else:  # geometric, down to rounding by n = 64
            equilibrium_ok &= _falls_to_floor(np.abs(gaps[gamma])) and abs(gaps[gamma][3]) < 1e-12
    elapsed = time.perf_counter() - start
    ok = ladder_ok and gamma0_floor and equilibrium_ok
    last = ", ".join(f"gamma={g} rho={rho}: x {e[-1, 0]:.1e}" for g, rho, e in ladders)
    _report(11, ok, f"errors fall to the floor along each ladder ({last}); x*_n - x*_inf at n=1024 "
                    f"{gaps[1.0][-1]:.2e} (gamma=1), at n=64 {gaps[0.0][3]:.1e} (gamma=0); {elapsed:.1f}s")
    assert ladder_ok
    assert gamma0_floor
    assert equilibrium_ok
