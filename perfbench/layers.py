"""Per-layer rows measured outside the workloads, as ``{name: (value, unit)}``.

``micro_rows``     one ``TruncatedSystem.rhs`` call and one
                   ``eval_jacobian(...).to_sparse()`` across n.
``baseline_rows``  the ROADMAP baseline table: steps, integrate time and one
                   ``moment_identity_residual`` at RK45 rel 1e-10 / abs 1e-15,
                   gamma = 1/2, T = 5 (RHS per eval is ``truncation.rhs_us``).
``decay_ladder``   accuracy versus work against the closed-form decoupled
                   solution over a rel_tol ladder; each rung is a checked
                   operation, so it also runs in every untraced run.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from silkin import (
    CoefficientFamily,
    InitialData,
    IntegratorConfig,
    ModelParams,
    MomentWeights,
    State,
    TruncatedSystem,
    eval_jacobian,
    integrate,
    moment_identity_residual,
    realize_coefficients,
)

from workloads import acceptance_system

MICRO_NS = (4, 32, 256, 1024, 4096)
BASELINE_NS = (4, 256, 1024, 4096)
BASELINE_CFG = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-15)
DECAY_RUNGS = (("r5", 1e-5), ("r7", 1e-7), ("r9", 1e-9), ("r11", 1e-11))


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def micro_rows(smoke: bool) -> dict:
    rows = {}
    for n in MICRO_NS:
        sys_ = acceptance_system(n, 0.5)
        s = InitialData(x0=1.0, b=1.0, rho=0.5).state(n)
        v = s.vector()
        calls = 50 if smoke else 1000

        def rhs_batch():
            for _ in range(calls):
                sys_.rhs(v)

        rows[f"truncation.rhs_us.n{n}"] = (_median_time(rhs_batch, 3 if smoke else 7) / calls * 1e6, "us")
        rows[f"truncation.jacobian_ms.n{n}"] = (
            _median_time(lambda: eval_jacobian(sys_, s).to_sparse(), 1 if smoke else 5) * 1e3,
            "ms",
        )
    return rows


def baseline_rows(smoke: bool) -> dict:
    rows = {}
    for n in BASELINE_NS:
        sys_ = acceptance_system(n, 0.5)
        y0 = InitialData(x0=1.0, b=1.0, rho=0.5).state(n)
        w = MomentWeights.power(n, 1.5, sys_.rates)
        repeats = 1 if smoke or n > 256 else 5
        trajs = []
        rows[f"baseline.integrate_ms.n{n}"] = (
            _median_time(lambda: trajs.append(integrate(sys_, y0, 5.0, BASELINE_CFG, flux_orders=(1,))), repeats) * 1e3,
            "ms",
        )
        traj = trajs[-1]
        rows[f"baseline.steps.n{n}"] = (traj.num_samples - 1, "count")
        rows[f"baseline.identity_ms.n{n}"] = (
            _median_time(lambda: moment_identity_residual(traj, w, 1, 0.0, 5.0), repeats) * 1e3,
            "ms",
        )
        del trajs, traj
    return rows


def decay_ladder(seed: int, tally) -> dict:
    """The decoupled (k = 0) run of the former decay script, checked against tests/oracles.py.

    Each rung must stay within 10 x rel_tol of the closed form, and every
    tightening must cost more steps.
    """
    from oracles import decoupled_solution

    n, t_end, r, alpha = 8, 5.0, 0.3, 0.25
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, 1.2, n + 1)
    q = rng.uniform(0.0, 1.2, n + 1)
    M0 = rng.uniform(0.1, 1.0, n + 1)
    rates = realize_coefficients(
        CoefficientFamily.constant(0.0), CoefficientFamily.table(p), CoefficientFamily.table(q), n
    )
    sys_ = TruncatedSystem(ModelParams(r=r, alpha=alpha), rates)
    y0 = State(t=0.0, x=0.5, M=M0)
    rows = {}
    prev_steps = 0
    for label, rel in DECAY_RUNGS:
        traj = integrate(sys_, y0, t_end, IntegratorConfig(rel_tol=rel, abs_tol=rel * 1e-3))
        steps = traj.num_samples - 1
        worst = 0.0
        for t in np.linspace(0.5, t_end, 10):
            x_ref, M_ref = decoupled_solution(0.5, M0, rates.p, rates.q, r, alpha, float(t))
            got = traj.dense_vector(float(t))[: n + 2]
            worst = max(worst, float(np.max(np.abs(got - np.concatenate(([x_ref], M_ref))))))
        problems = []
        if not worst <= 10.0 * rel:
            problems.append(f"max error {worst:.3e} > 10 x rel_tol")
        if not steps > prev_steps:
            problems.append(f"{steps} steps, not more than the looser rung's {prev_steps}")
        tally.record(f"decay ladder rel_tol={rel:g}", problems)
        rows[f"decay.steps.{label}"] = (steps, "count")
        rows[f"decay.max_err.{label}"] = (worst, "1")
        prev_steps = steps
    return rows
