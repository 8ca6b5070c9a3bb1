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
    MomentWeights,
    State,
    realize_coefficients,
    weighted_norm,
)
from .moments import _envelope_data, _relative_margins
from .truncation import TruncatedSystem, phase_jacobian_parts

__all__ = [
    "ConvergenceReport",
    "EquilibriumResult",
    "InvarianceReport",
    "ContinuityRow",
    "TruncationRungError",
    "NoBracket",
    "NoConvergence",
    "DegenerateDenominator",
    "convergence_study",
    "uniqueness_probe",
    "semigroup_residual",
    "continuity_study",
    "invariance_check",
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


def _phase_gap(za: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """Per-grid-point total-matter-norm gap between two phase matrices.

    ``za``/``zb`` are ``(dim, G)`` with possibly different dims; the shorter
    cohort list is padded with zeros (its cohorts above its own order are
    identically zero by the truncation convention).
    """
    if za.shape[0] > zb.shape[0]:
        za, zb = zb, za
    top = np.zeros((zb.shape[0], za.shape[1]))
    top[: za.shape[0]] = za
    diff = zb - top
    return weighted_norm(diff[0], diff[1:])


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
    num_grid: int = 201,
) -> ConvergenceReport:
    """Integrate every rung from the projected initial data and report gaps.

    ``gaps[j]`` is ``sup_t`` of the total-matter-norm distance between rungs
    ``j`` and ``j+1`` on a shared dense grid, ``x_gaps[j]`` the same for the
    free-quartz component alone.
    """
    ladder = tuple(int(n) for n in n_ladder)
    if len(ladder) < 2 or any(b <= a for a, b in zip(ladder, ladder[1:])) or ladder[0] < 2:
        raise ValueError(f"n_ladder must be strictly increasing with min >= 2, got {ladder}")
    grid = np.linspace(0.0, t_end, num_grid)
    phases: List[np.ndarray] = []
    for n in ladder:
        rates = realize_coefficients(*families, n)
        sys = TruncatedSystem(params, rates)
        try:
            traj = integrate(sys, initial_data.state(n), t_end, cfg)
        except IntegrationError as exc:
            raise TruncationRungError(n, str(exc)) from exc
        phases.append(traj.dense_matrix(grid)[: sys.dimension])
    gaps = []
    x_gaps = []
    for za, zb in zip(phases, phases[1:]):
        per_t = _phase_gap(za, zb)
        gaps.append(float(np.max(per_t)))
        x_gaps.append(float(np.max(np.abs(zb[0] - za[0]))))
    gaps_arr = np.asarray(gaps)
    return ConvergenceReport(
        n_ladder=ladder,
        gaps=gaps_arr,
        x_gaps=np.asarray(x_gaps),
        decreasing=bool(np.all(np.diff(gaps_arr) < 0.0)),
    )


def uniqueness_probe(
    sys: TruncatedSystem,
    y0: State,
    t_end: float,
    cfg_a: IntegratorConfig,
    cfg_b: IntegratorConfig,
    num_grid: int = 201,
) -> float:
    """Sup-in-time total-matter-norm gap between two stepping configurations."""
    grid = np.linspace(y0.t, t_end, num_grid)
    za = integrate(sys, y0, t_end, cfg_a).dense_matrix(grid)[: sys.dimension]
    zb = integrate(sys, y0, t_end, cfg_b).dense_matrix(grid)[: sys.dimension]
    return float(np.max(_phase_gap(za, zb)))


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
    the zero-length integration, so those residuals are exactly zero.
    """
    if t < 0.0 or s < 0.0:
        raise ValueError("t and s must be >= 0")
    mu = 1.0 + sys.rates.gamma
    if t + s == 0.0:
        return 0.0
    direct = integrate(sys, y0, y0.t + t + s, cfg).final_state
    mid = integrate(sys, y0, y0.t + s, cfg).final_state if s > 0.0 else y0
    two_leg = integrate(sys, mid, mid.t + t, cfg).final_state if t > 0.0 else mid
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
    num_grid: int = 201,
) -> List[ContinuityRow]:
    """Continuity-in-initial-data table.

    Output gaps are reported per perturbation; no rate constant is fitted,
    only the gap pairs (the underlying property is continuity, not a
    Lipschitz bound).
    """
    mu = 1.0 + sys.rates.gamma
    grid = np.linspace(y0.t, t_end, num_grid)
    base = integrate(sys, y0, t_end, cfg).dense_matrix(grid)[: sys.dimension]
    rows = []
    for pert in perturbations:
        in_gap = weighted_norm(pert.x - y0.x, pert.M - y0.M, mu)
        other = integrate(sys, pert, t_end, cfg).dense_matrix(grid)[: sys.dimension]
        diff = other - base
        out_gap = float(np.max(weighted_norm(diff[0], diff[1:], mu)))
        ratio = out_gap / in_gap if in_gap > 0.0 else 0.0
        rows.append(ContinuityRow(input_gap=in_gap, output_gap=out_gap, ratio=ratio))
    return rows


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
    rates = traj.sys.rates
    w = MomentWeights.power(rates.n, 1.0 + gamma, rates)
    g, _, c2, _, _, c1_used, _ = _envelope_data(traj, w)
    norms = traj.phase[:, 0] + traj.phase[:, 1:] @ g
    with np.errstate(over="ignore"):
        bounds = 2.0 * c2 + c1_used * np.exp(c2 * (traj.t - traj.t_start))
    ok = bool(np.all(norms <= bounds))
    margin = float(np.min(_relative_margins(norms, bounds)))
    return InvarianceReport(ok=ok, max_norm=float(np.max(norms)), margin=margin)


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
    max_iter: int = 200,
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
            if f_hi <= 0.0:
                break
            hi *= 2.0
        else:
            raise NoBracket(f"residual stayed positive up to x={hi}")
        if f_hi == 0.0:
            return _equilibrium_at(sys, hi, _steady_chain(sys, hi))

    x = 0.5 * (lo + hi)
    for _ in range(max_iter):
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


def differential_form_check(traj: Trajectory, grid: Sequence[float], h: float = 1e-4) -> float:
    """Worst relative defect between dense-output finite differences and the vector field.

    At each grid point the centered difference of the interpolated phase is
    compared componentwise against the right-hand side; the defect is
    ``O(h^2)`` plus interpolation error, so a clean run shrinks about 4x when
    ``h`` is halved until the interpolation floor is reached.
    """
    dim = traj.sys.dimension
    worst = 0.0
    for t in np.asarray(grid, dtype=float):
        plus = traj.dense_vector(t + h)[:dim]
        minus = traj.dense_vector(t - h)[:dim]
        fd = (plus - minus) / (2.0 * h)
        f = traj.sys.rhs(traj.dense_vector(t)[:dim])
        defect = np.max(np.abs(fd - f) / np.maximum(1.0, np.abs(f)))
        worst = max(worst, float(defect))
    return worst
