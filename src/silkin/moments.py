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

Everything here reads phase rows ``(x, M_0 .. M_n)`` from :meth:`Trajectory.at`
and :attr:`Trajectory.phase` and builds no ``State``; the envelope forms its
sample sums ``sum_{i>=1} g_i M_i`` once, for both checks that use it.

Time integrals of g-weighted cohort sums are dot products of the weights
with the trajectory's cached integrals: ``int M_i`` and ``int x M_i`` are
computed once per accepted step (:attr:`Trajectory.step_integrals`), and a
window ``[t1, t2]`` sums its whole steps plus at most two partial ones
(:meth:`Trajectory.window_integrals`).  The boundary flux integrals F_m come
from their co-integrated accumulators.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .integrator import Trajectory
from .model import MomentWeights, RateTable, validate_weights, weighted_norm
from .truncation import ACC_QUARTZ_REMOVED, ACC_TOTAL_LOSS

__all__ = [
    "MomentSnapshot",
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
    """Weights do not satisfy the hypotheses the exponential envelope needs."""


class MomentSnapshot(NamedTuple):
    """Moments of one phase row: totals plus the weighted release/removal sums.

    The fields are in the trajectory CSV's column order, so snapshots stack into its moment columns.
    """

    m_total: float
    x_total: float
    u_total: float
    Q: float
    P: float


def compute_moments(x: float, M: np.ndarray, rates: RateTable) -> MomentSnapshot:
    """Finite moment sums of the phase row ``(x, M_0 .. M_n)`` against a rate table."""
    if len(M) != rates.n + 1:
        raise ValueError(f"row carries cohorts 0..{len(M) - 1} but rates expect 0..{rates.n}")
    i = np.arange(rates.n + 1, dtype=float)
    m_total = float(np.sum(M))
    x_total = float(x) + float(i @ M)
    return MomentSnapshot(
        m_total=m_total,
        x_total=x_total,
        u_total=x_total + m_total,
        Q=float((i * rates.q) @ M),
        P=float((i * rates.p) @ M),
    )


# Balance name -> (conserved moment, its supply rate, accumulators of its losses).
_BALANCES = {
    "mass": ("u_total", lambda p: p.r + p.alpha, (ACC_TOTAL_LOSS, ACC_QUARTZ_REMOVED)),
    "quartz": ("x_total", lambda p: p.alpha, (ACC_QUARTZ_REMOVED,)),
    "macrophage": ("m_total", lambda p: p.r, (ACC_TOTAL_LOSS,)),
}


def _balance_residual(traj: Trajectory, t: float, balance: str) -> float:
    """``S(t) - S(t0) - supply (t - t0) + sum of loss accumulators`` for one balance."""
    moment, supply_rate, slots = _BALANCES[balance]
    rates = traj.sys.rates
    dim = traj.sys.dimension
    z, z0 = traj.at(t), traj.phase[0]
    now = getattr(compute_moments(z[0], z[1:dim], rates), moment)
    start = getattr(compute_moments(z0[0], z0[1:], rates), moment)
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


def _weight_vector(w: MomentWeights, n: int) -> np.ndarray:
    if w.g.shape != (n + 1,):
        raise ValueError(f"expected {n + 1} weights, got shape {w.g.shape}")
    return w.g


def moment_identity_residual(traj: Trajectory, w: MomentWeights, m: int, t1: float, t2: float) -> float:
    """Defect of the integrated g-weighted tail balance over ``[t1, t2]``.

    For any real weights ``g`` and ``1 <= m <= n`` the exact truncated flow
    satisfies

        sum_{i>=m} g_i M_i(t2) - sum_{i>=m} g_i M_i(t1)
          + int sum_{i>=m} g_i (p_i + q_i) M_i
          = g_m F_m-increment + int x sum_{m<=i<=n-1} (g_{i+1} - g_i) k_i M_i

    where the flux boundary term comes from the co-integrated accumulator
    ``F_m`` (raises :class:`MissingAccumulator` when it was not requested).
    """
    rates = traj.sys.rates
    n = rates.n
    if not 1 <= m <= n:
        raise ValueError(f"m must lie in 1..{n}, got {m}")
    m_int, xm_int = traj.window_integrals(t1, t2)
    g = _weight_vector(w, n)
    dim = traj.sys.dimension
    flux = dim + traj.flux_slot(m)
    z1, z2 = traj.at(t1), traj.at(t2)

    tail_loss = g[m:] * traj.sys.loss[m:]
    transfer_gain = (g[m + 1:] - g[m:n]) * rates.k[m:n]
    flux_term = g[m] * (float(z2[flux]) - float(z1[flux]))
    return (
        float(g[m:] @ z2[1 + m:dim])
        - float(g[m:] @ z1[1 + m:dim])
        + float(tail_loss @ m_int[m:])
        - flux_term
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


def _relative_margins(lhs: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """(bound - lhs) / bound with the degenerate cases pinned.

    A zero bound is satisfied only by a nonpositive left-hand side; an
    infinite bound (the envelope constant overflowed, which valid weights
    only reach with an astronomically safe margin) counts as fully slack.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(bounds > 0.0, (bounds - lhs) / bounds, np.where(lhs <= 0.0, 1.0, -math.inf))
    return np.where(np.isinf(bounds) & np.isfinite(lhs), 1.0, rel)


def _envelope(traj: Trajectory, w: MomentWeights):
    """Weights, growth constant ``C``, exponent ``c2``, constant ``c1`` and sample sums ``sum_{i>=1} g_i M_i``.

    The left-hand side ``sum_{i>=1} g_i M_i(t) + int_{t0}^t sum_{i>=1}
    g_i (p_i + q_i) M_i`` is, by the weighted balance and Gronwall's lemma,
    dominated by ``c1 * exp(c2 (t - t0))`` with ``c2 = ||y0||_1 + (r+alpha) T``
    once ``c1`` absorbs the boundary-flux bound and the growth constant of
    the weights.
    """
    rates = traj.sys.rates
    g = _weight_vector(w, rates.n)
    if np.any(g < 0.0):
        raise InvalidWeights("weights must be nonnegative")
    if not w.delta > 0.0:
        raise InvalidWeights(f"weight increments must all be > 0 (smallest {w.delta})")
    C = validate_weights(w, rates)
    if not math.isfinite(C):
        raise InvalidWeights("growth constant (g_{i+1}-g_i) k_i / g_i is unbounded")
    params = traj.sys.params
    T = traj.duration
    c2 = weighted_norm(traj.phase[0, 0], traj.phase[0, 1:]) + (params.r + params.alpha) * T
    weighted = traj.phase[:, 2:] @ g[1:]
    with np.errstate(over="ignore"):
        c1 = (float(weighted[0]) + rates.k[0] * g[1] * c2 * c2 * T) * math.exp(min(max(C - 1.0, 0.0) * c2 * T, 700.0))
    return g, C, c2, c1, weighted


def gronwall_check(traj: Trajectory, w: MomentWeights) -> GronwallReport:
    """Verify the exponential envelope for the g-weighted loss-augmented moment.

    ``ok`` is a theorem-backed guarantee for valid weights: a failure flags
    an integrator or accumulator bug, not model behaviour.  ``margin`` is the
    worst relative slack ``(bound - lhs) / bound`` over the samples.
    """
    rates = traj.sys.rates
    g, C, c2, c1_used, weighted = _envelope(traj, w)
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
        bounds = c1_used * np.exp(c2 * (traj.t - traj.t_start))
        c1_fitted = float(np.max(lhs * np.exp(-c2 * (traj.t - traj.t_start))))

    ok = bool(np.all(lhs <= bounds))
    return GronwallReport(
        ok=ok,
        margin=float(np.min(_relative_margins(lhs, bounds))),
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
    g, _, c2, c1, _ = _envelope(traj, MomentWeights.power(traj.sys.n, 1.0 + gamma))
    norms = traj.phase[:, 0] + traj.phase[:, 1:] @ g
    with np.errstate(over="ignore"):
        bounds = 2.0 * c2 + c1 * np.exp(c2 * (traj.t - traj.t_start))
    ok = bool(np.all(norms <= bounds))
    margin = float(np.min(_relative_margins(norms, bounds)))
    return InvarianceReport(ok=ok, max_norm=float(np.max(norms)), margin=margin)
