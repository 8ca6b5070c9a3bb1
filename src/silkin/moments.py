"""Physical moments and integrated balance identities as numerical residuals.

The observables are the cohort sums

    M_total = sum_i M_i          (macrophages)
    X_total = x + sum_i i M_i    (quartz, free plus carried)
    U_total = X_total + M_total  (total matter)

together with Q = sum_i i q_i M_i and P = sum_i i p_i M_i.  Along the exact
truncated flow these satisfy integrated balances; evaluating each balance on
a computed trajectory yields a residual that vanishes to stepper precision.
A persistent residual therefore flags a defect in the vector field, the
accumulators or the integrator, never "model error".

The integration state is phase + A1 + A2: the phase rows ``(x, M_0 .. M_n)``
and the two loss integrals the balances read.  Everything here reads them
from :meth:`Trajectory.at` and :attr:`Trajectory.phase` and builds no
``State``; one function forms the envelope's sample sums ``sum_{i>=1} g_i M_i``
and its bound curve on each call of either check that uses it, and one
verdict turns a left-hand side and its bound into ``(ok, margin)``.

Time integrals of g-weighted cohort sums are dot products of the weights
with the trajectory's cached integrals: ``int M_i`` and ``int x M_i`` are
computed once per accepted step (:attr:`Trajectory.step_integrals`), and a
window ``[t1, t2]`` sums its whole steps plus at most two partial ones
(:meth:`Trajectory.window_integrals`).  The tail identities' boundary flux
``F_m = k_{m-1} int x M_{m-1}`` is one of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .integrator import Trajectory
from .model import MomentWeights, RateTable, weighted_norm
from .truncation import ACC_QUARTZ_REMOVED, ACC_TOTAL_LOSS

__all__ = [
    "GronwallReport",
    "InvalidWeights",
    "compute_moments",
    "mass_balance_residual",
    "quartz_balance_residual",
    "macrophage_balance_residual",
    "moment_identity_residual",
    "gronwall_check",
    "InvarianceReport",
    "invariance_check",
]


class InvalidWeights(ValueError):
    """Weights do not satisfy the hypotheses the exponential envelope needs (every rule is :func:`_envelope`'s)."""


def compute_moments(phase: np.ndarray, rates: RateTable) -> np.ndarray:
    """Finite moment sums of a ``(rows, n + 2)`` block of phase rows ``(x, M_0 .. M_n)`` against a rate table.

    Returns a ``(rows, 5)`` array whose columns are ``M_total, X_total,
    U_total, Q, P``, the trajectory CSV's moment columns in its order.
    """
    if phase.ndim != 2 or phase.shape[1] != rates.n + 2:
        raise ValueError(f"expected a (rows, {rates.n + 2}) block of phase rows, got shape {phase.shape}")
    x, M = phase[:, 0], phase[:, 1:]
    i = np.arange(rates.n + 1, dtype=float)
    m_total = np.sum(M, axis=1)
    x_total = x + np.vecdot(M, i)
    return np.column_stack((m_total, x_total, x_total + m_total, np.vecdot(M, i * rates.q), np.vecdot(M, i * rates.p)))


# Balance name -> (column of its conserved moment in compute_moments, its supply rate, accumulators of its losses).
_BALANCES = {
    "mass": (2, lambda p: p.r + p.alpha, (ACC_TOTAL_LOSS, ACC_QUARTZ_REMOVED)),
    "quartz": (1, lambda p: p.alpha, (ACC_QUARTZ_REMOVED,)),
    "macrophage": (0, lambda p: p.r, (ACC_TOTAL_LOSS,)),
}


def _balance_residual(traj: Trajectory, t: float, balance: str) -> float:
    """``S(t) - S(t0) - supply (t - t0) + sum of loss accumulators`` for one balance."""
    column, supply_rate, slots = _BALANCES[balance]
    dim = traj.sys.dimension
    z = traj.at(t)
    start, now = compute_moments(np.stack((traj.phase[0], z[:dim])), traj.sys.rates)[:, column].tolist()
    residual = now - start - supply_rate(traj.sys.params) * (t - traj.t_start)
    for slot in slots:
        residual += float(z[dim + slot])
    return residual


def mass_balance_residual(traj: Trajectory, t: float) -> float:
    """Total-matter balance defect at time ``t``.

    Returns ``U(t) - U(t0) - (r + alpha)(t - t0) + A1(t) + A2(t)``, which is
    identically zero along the exact truncated flow.
    """
    return _balance_residual(traj, t, "mass")


def quartz_balance_residual(traj: Trajectory, t: float) -> float:
    """Quartz balance defect ``X(t) - X(t0) - alpha (t - t0) + A2(t)``."""
    return _balance_residual(traj, t, "quartz")


def macrophage_balance_residual(traj: Trajectory, t: float) -> float:
    """Macrophage balance defect ``M(t) - M(t0) - r (t - t0) + A1(t)``."""
    return _balance_residual(traj, t, "macrophage")


def moment_identity_residual(traj: Trajectory, w: MomentWeights, m: int, t1: float, t2: float) -> float:
    """Defect of the integrated g-weighted tail balance over ``[t1, t2]``.

    For any real weights ``g_0 .. g_n`` (another count raises ``ValueError``)
    and ``1 <= m <= n`` (another ``m`` raises ``ValueError``) the exact
    truncated flow satisfies

        sum_{i>=m} g_i M_i(t2) - sum_{i>=m} g_i M_i(t1)
          + int sum_{i>=m} g_i (p_i + q_i) M_i
          = g_m k_{m-1} int x M_{m-1} + int x sum_{m<=i<=n-1} (g_{i+1} - g_i) k_i M_i

    where the first term on the right is the boundary flux into the tail.
    Every integral is read from :meth:`Trajectory.window_integrals`.
    """
    rates = traj.sys.rates
    n = rates.n
    g = w.g
    if not 1 <= m <= n:
        raise ValueError(f"m must lie in 1..{n}, got {m}")
    if len(g) != n + 1:
        raise ValueError(f"expected {n + 1} weights, got {len(g)}")
    m_int, xm_int = traj.window_integrals(t1, t2)
    dim = traj.sys.dimension
    z1, z2 = traj.at(t1), traj.at(t2)

    tail_loss = g[m:] * traj.sys.loss[m:]
    transfer_gain = (g[m + 1:] - g[m:n]) * rates.k[m:n]
    return (
        float(g[m:] @ z2[1 + m:dim])
        - float(g[m:] @ z1[1 + m:dim])
        + float(tail_loss @ m_int[m:])
        - float(g[m] * rates.k[m - 1] * xm_int[m - 1])
        - float(transfer_gain @ xm_int[m:n])
    )


@dataclass(frozen=True)
class GronwallReport:
    """Outcome of an exponential-envelope check.

    ``c1_used`` is the rigorous constant actually compared against (the
    initial bound of the left-hand side inflated by the Gronwall construction
    so that the envelope exponent can be ``c2`` itself), ``c1_apriori`` the
    coarse a-priori constant ``k_0 g_1 (c2/C)^2 T + sum g_i M_i(0)`` of the
    classical construction, and ``c1_fitted`` the smallest constant that
    would still dominate the observed run.  None of the three is silently
    trusted; all are reported.
    """

    ok: bool
    margin: float
    c1_used: float
    c1_apriori: float
    c1_fitted: float
    c2: float
    growth_constant: float


def _verdict(lhs: np.ndarray, bounds: np.ndarray) -> Tuple[bool, float]:
    """``(ok, margin)``: the worst relative slack ``(bound - lhs) / bound`` and whether it is ``>= 0``.

    A zero bound is satisfied only by a nonpositive left-hand side; an
    infinite bound (the envelope constant overflowed, which valid weights
    only reach with an astronomically safe margin) counts as fully slack.
    A nan margin (a nan left-hand side, or ``lhs = bound = inf``) fails.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(bounds > 0.0, (bounds - lhs) / bounds, np.where(lhs <= 0.0, 1.0, -math.inf))
    margin = float(np.min(np.where(np.isinf(bounds) & np.isfinite(lhs), 1.0, rel)))
    return margin >= 0.0, margin


def _envelope(traj: Trajectory, w: MomentWeights):
    """Weights, growth constant ``C``, exponent ``c2``, constant ``c1``, sums ``sum_{i>=1} g_i M_i`` and bound curve.

    The left-hand side ``sum_{i>=1} g_i M_i(t) + int_{t0}^t sum_{i>=1}
    g_i (p_i + q_i) M_i`` is, by the weighted balance and Gronwall's lemma,
    dominated by the bound curve ``c1 * exp(c2 (t - t0))`` at the samples,
    with ``c2 = ||y0||_1 + (r+alpha) T`` once ``c1`` absorbs the
    boundary-flux bound and the growth constant of the weights.

    The weights must have increments ``> 0``, ``g_0 >= 0`` (so every weight
    is), ``n + 1`` entries and a finite growth constant: the smallest ``C``
    with ``(g_{i+1} - g_i) k_i <= C g_i`` for all ``i < n``, where ``0/0``
    counts as 0 and a positive numerator over ``g_0 = 0`` as unbounded.
    Each rule, checked in that order, raises :class:`InvalidWeights`.
    """
    rates = traj.sys.rates
    g = w.g
    increments = np.diff(g)
    if not np.min(increments) > 0.0:
        raise InvalidWeights(f"weight increments must all be > 0 (smallest {float(np.min(increments))})")
    if g[0] < 0.0:
        raise InvalidWeights("weights must be >= 0")
    if len(g) != rates.n + 1:
        raise InvalidWeights(f"expected {rates.n + 1} weights, got {len(g)}")
    numer = increments * rates.k[:-1]
    C = float(np.max(np.divide(numer, g[:-1], out=np.zeros_like(numer), where=g[:-1] > 0.0)))
    if not math.isfinite(C) or (g[0] == 0.0 and numer[0] > 0.0):
        raise InvalidWeights("growth constant (g_{i+1}-g_i) k_i / g_i is unbounded")
    params = traj.sys.params
    T = traj.duration
    c2 = weighted_norm(traj.phase[0, 0], traj.phase[0, 1:]) + (params.r + params.alpha) * T
    weighted = traj.phase[:, 2:] @ g[1:]
    with np.errstate(over="ignore"):
        c1 = (float(weighted[0]) + rates.k[0] * g[1] * c2 * c2 * T) * math.exp(min(max(C - 1.0, 0.0) * c2 * T, 700.0))
        # a zero c1 is a zero term, also where exp(c2 (t - t0)) overflows: 0 * inf would be nan
        curve = c1 * np.exp(c2 * (traj.t - traj.t_start)) if c1 else np.zeros_like(traj.t)
    return g, C, c2, c1, weighted, curve


def gronwall_check(traj: Trajectory, w: MomentWeights) -> GronwallReport:
    """Verify the exponential envelope for the g-weighted loss-augmented moment.

    ``ok`` is a theorem-backed guarantee for valid weights: a failure flags
    an integrator or accumulator bug, not model behaviour.  ``margin`` is the
    worst relative slack ``(bound - lhs) / bound`` over the samples.
    Weights that break one of :func:`_envelope`'s rules raise
    :class:`InvalidWeights`.
    """
    rates = traj.sys.rates
    g, C, c2, c1_used, weighted, bounds = _envelope(traj, w)
    T = traj.duration
    loss_coef = np.zeros(rates.n + 1)
    loss_coef[1:] = g[1:] * traj.sys.loss[1:]
    m_steps, _ = traj.step_integrals
    lhs = weighted + np.concatenate(([0.0], np.cumsum(m_steps @ loss_coef)))

    with np.errstate(over="ignore"):
        if rates.k[0] * g[1] == 0.0:
            boundary = 0.0
        elif C == 0.0:
            boundary = math.inf
        else:
            boundary = rates.k[0] * g[1] * np.float64(c2 / C) ** 2 * T
        c1_apriori = boundary + float(lhs[0])
        c1_fitted = float(np.max(lhs * np.exp(-c2 * (traj.t - traj.t_start))))

    ok, margin = _verdict(lhs, bounds)
    return GronwallReport(
        ok=ok,
        margin=margin,
        c1_used=c1_used,
        c1_apriori=c1_apriori,
        c1_fitted=c1_fitted,
        c2=c2,
        growth_constant=C,
    )


@dataclass(frozen=True)
class InvarianceReport:
    ok: bool
    max_norm: float
    margin: float


def invariance_check(traj: Trajectory, gamma: float) -> InvarianceReport:
    """Check that the ``(1 + gamma)``-weighted norm stays inside its envelope.

    Uses the exponential envelope for weights ``(i+1)^{1+gamma}`` and absorbs
    the free-quartz and empty-cohort terms into the constant (both are
    dominated by the total-matter norm bound), so the whole weighted norm is
    covered.  ``gamma = 0`` reduces to the linear-growth norm bound.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    g, _, c2, _, _, curve = _envelope(traj, MomentWeights.power(traj.sys.n, 1.0 + gamma))
    norms = traj.phase[:, 0] + traj.phase[:, 1:] @ g
    with np.errstate(over="ignore"):
        ok, margin = _verdict(norms, 2.0 * c2 + curve)
    return InvarianceReport(ok=ok, max_norm=float(np.max(norms)), margin=margin)
