"""Numerical experiments on the truncated family: convergence, uniqueness,
semigroup and continuity probes, weighted-cone invariance, and equilibria.

Each experiment owns its runs; rungs of a ladder and perturbation runs are
independent and may be executed concurrently by a caller.  Comparisons across
truncation orders use dense output on a shared time grid, because step
sequences differ between runs while the quantities of interest are
uniform-in-time gaps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .integrator import IntegrationError, IntegratorConfig, Trajectory, integrate
from .model import (
    CoefficientFamily,
    InitialData,
    ModelParams,
    State,
    realize_coefficients,
    weighted_norm,
)
from .truncation import TruncatedSystem, phase_jacobian_parts

__all__ = [
    "ConvergenceReport",
    "EquilibriumResult",
    "ContinuityRow",
    "TruncationRungError",
    "NoBracket",
    "NoConvergence",
    "DegenerateDenominator",
    "convergence_study",
    "uniqueness_probe",
    "semigroup_residual",
    "continuity_study",
    "find_equilibrium",
    "differential_form_check",
]


class TruncationRungError(IntegrationError):
    """A ladder rung failed; ``n`` identifies the failing truncation order."""

    def __init__(self, n: int, message: str) -> None:
        super().__init__(f"truncation n={n}: {message}")
        self.n = n


class NoBracket(RuntimeError):
    """The equilibrium residual does not change sign on the search interval."""


class NoConvergence(IntegrationError):
    """The equilibrium Newton/bisection iteration did not reach its tolerance."""


class DegenerateDenominator(ZeroDivisionError):
    """The steady-state recursion hit ``k_i x + p_i + q_i = 0``."""


GRID_POINTS = 201
"""Evenly spaced times, ends included, on which two runs are compared."""

MAX_ITER = 200
"""Newton/bisection iterations :func:`find_equilibrium` takes before it gives up."""


def _on_grid(traj: Trajectory) -> np.ndarray:
    """The phase block ``(dim, GRID_POINTS)`` of ``traj`` on the shared grid over its time range."""
    grid = np.linspace(traj.t_start, traj.t_end, GRID_POINTS)
    return traj.dense_matrix(grid)[: traj.sys.dimension]


def _gap(za: np.ndarray, zb: np.ndarray, mu: float = 1.0) -> float:
    """Sup over the grid of the ``mu``-weighted-norm distance between two phase blocks.

    ``za``/``zb`` are ``(dim, G)`` with possibly different dims; the shorter
    cohort list is padded with zeros (its cohorts above its own order are
    identically zero by the truncation convention).
    """
    if za.shape[0] > zb.shape[0]:
        za, zb = zb, za
    diff = zb.copy()
    diff[: za.shape[0]] -= za
    return float(np.max(weighted_norm(diff[0], diff[1:], mu)))


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup-norm gaps between consecutive rungs of a truncation ladder."""

    n_ladder: Tuple[int, ...]
    gaps: np.ndarray
    x_gaps: np.ndarray
    decreasing: bool


def convergence_study(
    params: ModelParams,
    families: Tuple[CoefficientFamily, CoefficientFamily, CoefficientFamily],
    initial_data: InitialData,
    n_ladder: Sequence[int],
    t_end: float,
    cfg: Optional[IntegratorConfig] = None,
) -> ConvergenceReport:
    """Integrate every rung from the projected initial data and report gaps.

    ``gaps[j]`` is ``sup_t`` of the total-matter-norm distance between rungs
    ``j`` and ``j+1`` on a shared dense grid, ``x_gaps[j]`` the same for the
    free-quartz component alone.
    """
    ladder = tuple(int(n) for n in n_ladder)
    if len(ladder) < 2 or any(b <= a for a, b in zip(ladder, ladder[1:])) or ladder[0] < 2:
        raise ValueError(f"n_ladder must be strictly increasing with min >= 2, got {ladder}")
    phases: List[np.ndarray] = []
    for n in ladder:
        rates = realize_coefficients(*families, n)
        sys = TruncatedSystem(params, rates)
        try:
            traj = integrate(sys, initial_data.state(n), t_end, cfg)
        except IntegrationError as exc:
            raise TruncationRungError(n, str(exc)) from exc
        phases.append(_on_grid(traj))
    pairs = list(zip(phases, phases[1:]))
    gaps_arr = np.array([_gap(za, zb) for za, zb in pairs])
    return ConvergenceReport(
        n_ladder=ladder,
        gaps=gaps_arr,
        x_gaps=np.array([float(np.max(np.abs(zb[0] - za[0]))) for za, zb in pairs]),
        decreasing=bool(np.all(np.diff(gaps_arr) < 0.0)),
    )


def uniqueness_probe(
    sys: TruncatedSystem,
    y0: State,
    t_end: float,
    cfg_a: IntegratorConfig,
    cfg_b: IntegratorConfig,
) -> float:
    """Sup-in-time total-matter-norm gap between two stepping configurations."""
    return _gap(_on_grid(integrate(sys, y0, t_end, cfg_a)), _on_grid(integrate(sys, y0, t_end, cfg_b)))


def semigroup_residual(
    sys: TruncatedSystem,
    y0: State,
    t: float,
    s: float,
    cfg: Optional[IntegratorConfig] = None,
) -> float:
    """Restart-consistency defect of the solution operators.

    Compares integrating straight to ``t + s`` against integrating to ``s``
    and restarting for ``t``, in the ``(1 + gamma)``-weighted norm attached
    to the ingestion family.  Degenerate legs (``t = 0`` or ``s = 0``) skip
    the zero-length integration, and so do legs whose end time rounds to
    their start time; those residuals are exactly zero.
    """
    if t < 0.0 or s < 0.0:
        raise ValueError("t and s must be >= 0")
    mu = 1.0 + sys.rates.gamma
    if y0.t + t + s == y0.t:
        return 0.0
    direct = integrate(sys, y0, y0.t + t + s, cfg).final_state
    mid = integrate(sys, y0, y0.t + s, cfg).final_state if y0.t + s > y0.t else y0
    two_leg = integrate(sys, mid, mid.t + t, cfg).final_state if mid.t + t > mid.t else mid
    return weighted_norm(direct.x - two_leg.x, direct.M - two_leg.M, mu)


@dataclass(frozen=True)
class ContinuityRow:
    """One perturbation: initial gap vs. worst downstream gap (both weighted norms)."""

    input_gap: float
    output_gap: float
    ratio: float


def continuity_study(
    sys: TruncatedSystem,
    y0: State,
    perturbations: Sequence[State],
    t_end: float,
    cfg: Optional[IntegratorConfig] = None,
) -> List[ContinuityRow]:
    """Continuity-in-initial-data table.

    Output gaps are reported per perturbation; no rate constant is fitted,
    only the gap pairs (the underlying property is continuity, not a
    Lipschitz bound).
    """
    mu = 1.0 + sys.rates.gamma
    base = _on_grid(integrate(sys, y0, t_end, cfg))
    rows = []
    for pert in perturbations:
        in_gap = weighted_norm(pert.x - y0.x, pert.M - y0.M, mu)
        out_gap = _gap(base, _on_grid(integrate(sys, pert, t_end, cfg)), mu)
        ratio = out_gap / in_gap if in_gap > 0.0 else 0.0
        rows.append(ContinuityRow(input_gap=in_gap, output_gap=out_gap, ratio=ratio))
    return rows


@dataclass(frozen=True)
class EquilibriumResult:
    """A steady state of the truncated system.

    ``residual`` is the max-abs value of the vector field at the returned
    point; ``tail_mass`` estimates the macrophage mass the truncation cut off
    (constant-extending the rate tables past ``n``), so users can size ``n``.
    """

    x_star: float
    M_star: np.ndarray
    residual: float
    tail_mass: float


def _steady_chain(sys: TruncatedSystem, x: float) -> np.ndarray:
    """Cohort chain solving the M equations at fixed x: M_i follows from M_{i-1}."""
    denom = sys.k_masked * x + sys.loss
    if np.any(denom <= 0.0):
        i = int(np.argmin(denom))
        raise DegenerateDenominator(
            f"k_{i} x + p_{i} + q_{i} = {denom[i]} at x={x}; the recursion needs it positive"
        )
    M = np.empty(sys.n + 1)
    M[0] = sys.params.r / denom[0]
    ratios = sys.k_masked[:-1] * x / denom[1:]
    M[1:] = M[0] * np.cumprod(ratios)
    return M


def _x_residual(sys: TruncatedSystem, x: float):
    M = _steady_chain(sys, x)
    phi = sys.params.alpha - x * float(sys.k_masked @ M) + float(sys.i_times_q @ M)
    return phi, M


def _x_residual_slope(sys: TruncatedSystem, x: float, M: np.ndarray) -> float:
    """d(phi)/dx via the implicit function theorem on the bidiagonal M block."""
    ingested, _, row, col, diag, sub = phase_jacobian_parts(sys, x, M)
    u = np.empty_like(M)
    u[0] = -col[0] / diag[0]
    for i in range(1, len(M)):
        u[i] = (-col[i] - sub[i - 1] * u[i - 1]) / diag[i]
    return -ingested + float(row @ u)


def _equilibrium_at(sys: TruncatedSystem, x: float, M: np.ndarray) -> EquilibriumResult:
    residual = float(np.max(np.abs(sys.rhs(np.concatenate(([x], M))))))
    k_raw = sys.rates.k[-1]
    ext = k_raw * x + sys.loss[-1]
    tail = math.inf
    if ext > 0.0:
        ratio = k_raw * x / ext
        tail = M[-1] * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    elif k_raw * x * M[-1] == 0.0:
        tail = 0.0
    return EquilibriumResult(x_star=x, M_star=M, residual=residual, tail_mass=tail)


def find_equilibrium(
    sys: TruncatedSystem,
    x_bracket: Optional[Tuple[float, float]] = None,
    tol: float = 1e-12,
) -> EquilibriumResult:
    """Steady state via the cohort recursion plus a safeguarded scalar Newton.

    The M equations are solved exactly by the recursion at any fixed ``x``;
    the remaining scalar residual (the x equation at the chained cohorts) is
    bracketed and driven to ``|phi| <= tol`` by Newton steps that fall back
    to bisection whenever they leave the bracket.  Without an explicit
    bracket the upper end starts at a supply/ingestion scale estimate and
    doubles until the residual changes sign.
    """
    if x_bracket is not None:
        lo, hi = float(x_bracket[0]), float(x_bracket[1])
        if not 0.0 <= lo < hi:
            raise ValueError(f"need 0 <= lo < hi, got ({lo}, {hi})")
        f_lo, M_lo = _x_residual(sys, lo)
        f_hi, M_hi = _x_residual(sys, hi)
        if f_lo == 0.0:
            return _equilibrium_at(sys, lo, M_lo)
        if f_hi == 0.0:
            return _equilibrium_at(sys, hi, M_hi)
        if f_lo * f_hi > 0.0:
            raise NoBracket(f"residual has the same sign at {lo} and {hi}")
        if f_lo < 0.0:  # orient so that phi(lo) > 0 > phi(hi)
            lo, hi, f_lo, f_hi = hi, lo, f_hi, f_lo
    else:
        lo = 0.0
        f_lo, M_lo = _x_residual(sys, lo)
        if f_lo == 0.0:
            return _equilibrium_at(sys, lo, M_lo)
        positive_k = sys.k_masked[sys.k_masked > 0.0]
        if len(positive_k) == 0:
            raise NoBracket("no ingestion (k = 0): the x residual never changes sign")
        scale = max(float(np.sum(M_lo)), 1e-300)
        hi = max(f_lo / (float(np.min(positive_k)) * scale), 1.0)
        for _ in range(80):
            f_hi, _ = _x_residual(sys, hi)
            if f_hi <= 0.0 or math.isinf(2.0 * hi):
                break
            hi *= 2.0
        if not f_hi <= 0.0:
            raise NoBracket(f"residual stayed positive up to x={hi}")
        if f_hi == 0.0:
            return _equilibrium_at(sys, hi, _steady_chain(sys, hi))

    x = 0.5 * (lo + hi)
    for _ in range(MAX_ITER):
        f, M = _x_residual(sys, x)
        if abs(f) <= tol:
            return _equilibrium_at(sys, x, M)
        if f > 0.0:
            lo = x
        else:
            hi = x
        slope = _x_residual_slope(sys, x, M)
        x_new = x - f / slope if slope != 0.0 else math.nan
        if not (math.isfinite(x_new) and min(lo, hi) < x_new < max(lo, hi)):
            x_new = 0.5 * (lo + hi)
        if x_new == x:
            break
        x = x_new
    f, M = _x_residual(sys, x)
    if abs(f) <= tol:
        return _equilibrium_at(sys, x, M)
    raise NoConvergence(f"no convergence to |phi| <= {tol}; best residual {f} at x={x}")


def differential_form_check(traj: Trajectory, grid: Sequence[float]) -> float:
    """Worst relative defect of the continuous extension: ``max |u' - f(u)| / max(1, |f|)``.

    ``u`` is the dense output at the grid times (phase clamped to the cone),
    ``u'`` the exact time derivative of the same step polynomials and ``f``
    the vector field, compared componentwise (Enright 1989; Shampine 2005).
    A clean run leaves only the interpolation error, at any run length:
    there is no difference quotient to cancel.  Every grid time must lie in
    ``[t_start, t_end]``; others raise :class:`OutOfRange`.
    """
    ts = np.asarray(grid, dtype=float)
    dim = traj.sys.dimension
    du = traj.dense_derivative(ts)[:dim]
    f = np.column_stack([traj.sys.rhs(u) for u in traj.dense_matrix(ts)[:dim].T])
    return float(np.max(np.abs(du - f) / np.maximum(1.0, np.abs(f))))
