"""Numerical experiments on the truncated family: convergence, uniqueness and
semigroup probes, the differential form of a run, and equilibria.

Rungs of a ladder and the legs of a probe are integrated independently and
may be executed concurrently by a caller.  A leg need not be a new run:
:func:`~silkin.integrator.integrate` returns a trajectory that is still alive
for the same system, start and end bits, start vector bytes and config (a
memo of weak references), so a probe's leg may be the very read-only object
its caller holds, with the bits a new run would give.  Nothing here assumes
that two legs with the same key are distinct objects.  Comparisons across
truncation orders use dense output on a shared time grid, because step
sequences differ between runs while the quantities of interest are
uniform-in-time gaps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .integrator import IntegrationError, IntegratorConfig, IntegratorStats, Trajectory, integrate
from .model import (
    CoefficientFamily,
    InitialData,
    ModelParams,
    State,
    realize_coefficients,
    weighted_norm,
)
from .truncation import TruncatedSystem

__all__ = [
    "ConvergenceReport",
    "EquilibriumResult",
    "TruncationRungError",
    "NoBracket",
    "NoConvergence",
    "DegenerateDenominator",
    "convergence_study",
    "uniqueness_probe",
    "semigroup_residual",
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
    """The equilibrium root iteration did not reach its tolerance."""


class DegenerateDenominator(ZeroDivisionError):
    """The steady-state recursion hit ``k_i x + p_i + q_i = 0``."""


GRID_POINTS = 201
"""Evenly spaced times, ends included, on which two runs are compared."""

MAX_ITER = 200
"""Iterations inside the bracket :func:`find_equilibrium` takes before it gives up."""


def _on_grid(traj: Trajectory) -> np.ndarray:
    """The phase block ``(dim, GRID_POINTS)`` of ``traj`` on the shared grid over its time range."""
    grid = np.linspace(traj.t_start, traj.t_end, GRID_POINTS)
    return traj.dense_matrix(grid)[: traj.sys.dimension]


def _gap(za: np.ndarray, zb: np.ndarray) -> float:
    """Sup over the grid of the total-matter-norm distance between two phase blocks.

    ``za``/``zb`` are ``(dim, G)``, the lower rung first: ``za`` has no more
    rows than ``zb``, and its cohorts above its own order count as zero
    (they are identically zero by the truncation convention).
    """
    diff = zb.copy()
    diff[: za.shape[0]] -= za
    return float(np.max(weighted_norm(diff[0], diff[1:])))


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup-norm gaps between consecutive rungs of a truncation ladder."""

    gaps: np.ndarray
    x_gaps: np.ndarray
    decreasing: bool
    stats: Tuple[IntegratorStats, ...]


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
    free-quartz component alone, and ``stats[j]`` rung ``j``'s integrator
    statistics.  Each rung realizes the families at its own order, and every
    rung must be an integer value (``16.0`` is rung 16; ``8.9`` is refused).
    """
    if not all(float(n).is_integer() for n in n_ladder):
        raise ValueError(f"n_ladder must hold integers, got {tuple(n_ladder)}")
    ladder = tuple(int(n) for n in n_ladder)
    if len(ladder) < 2 or any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"n_ladder must be strictly increasing, got {ladder}")
    phases: List[np.ndarray] = []
    stats: List[IntegratorStats] = []
    for n in ladder:
        try:
            traj = integrate(TruncatedSystem(params, realize_coefficients(*families, n)), initial_data.state(n), t_end, cfg)
        except IntegrationError as exc:
            raise TruncationRungError(n, str(exc)) from exc
        phases.append(_on_grid(traj))
        stats.append(traj.stats)
    pairs = list(zip(phases, phases[1:]))
    gaps_arr = np.array([_gap(za, zb) for za, zb in pairs])
    return ConvergenceReport(
        gaps=gaps_arr,
        x_gaps=np.array([float(np.max(np.abs(zb[0] - za[0]))) for za, zb in pairs]),
        decreasing=bool(np.all(np.diff(gaps_arr) < 0.0)),
        stats=tuple(stats),
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
    to the ingestion family.  The solution map at time 0 is the identity, so
    a pair with a zero-length leg (``t = 0``, ``s = 0``, or a leg whose end
    time rounds to its start time) reports 0 without integrating.  When
    ``y0.t != 0`` that includes a pair whose two routes would round to
    different end times (``y0.t = 1``, ``s = 2**-53``, ``t = 2**-52``).
    Any other pair makes three integrations.
    """
    if t < 0.0 or s < 0.0:
        raise ValueError("t and s must be >= 0")
    t_mid = y0.t + s
    if t_mid == y0.t or t_mid + t == t_mid:
        return 0.0
    direct = integrate(sys, y0, y0.t + t + s, cfg).final_state
    mid = integrate(sys, y0, t_mid, cfg).final_state
    two_leg = integrate(sys, mid, t_mid + t, cfg).final_state
    return weighted_norm(direct.x - two_leg.x, direct.M - two_leg.M, 1.0 + sys.rates.gamma)


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


def _x_residual(sys: TruncatedSystem, x: float) -> Tuple[float, float, np.ndarray]:
    """The field's x-rate and max-abs value at ``(x, M(x))``, and the steady chain ``M(x)``."""
    M = _steady_chain(sys, x)
    f = sys.rhs(np.concatenate(([x], M)))
    return float(f[0]), float(np.max(np.abs(f))), M


def _equilibrium_at(sys: TruncatedSystem, x: float, residual: float, M: np.ndarray) -> EquilibriumResult:
    # _steady_chain has checked loss[-1] > 0, so the ratio's denominator is positive.
    kx = sys.rates.k[-1] * x
    ratio = kx / (kx + sys.loss[-1])
    tail = M[-1] * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    return EquilibriumResult(x_star=x, M_star=M, residual=residual, tail_mass=tail)


def _search_end(sys: TruncatedSystem, f0: float, M0: np.ndarray) -> float:
    """Upper end of the search: a supply/ingestion scale estimate, doubled until the x-rate is ``<= 0``.

    ``f0`` and ``M0`` are the x-rate and the steady chain at ``x = 0``.
    """
    positive_k = sys.k_masked[sys.k_masked > 0.0]
    if len(positive_k) == 0:
        raise NoBracket("no ingestion (k = 0): the x residual never changes sign")
    scale = max(float(np.sum(M0)), 1e-300)
    hi = max(f0 / (float(np.min(positive_k)) * scale), 1.0)
    for _ in range(80):
        if _x_residual(sys, hi)[0] <= 0.0:
            return hi
        if math.isinf(2.0 * hi):
            break
        hi *= 2.0
    raise NoBracket(f"residual stayed positive up to x={hi}")


def find_equilibrium(
    sys: TruncatedSystem,
    x_bracket: Optional[Tuple[float, float]] = None,
    tol: float = 1e-12,
) -> EquilibriumResult:
    """Steady state via the cohort recursion plus Illinois regula falsi on the field's x-rate.

    The M equations are solved exactly by the recursion at any fixed ``x``;
    the field the integrator steps is then evaluated at ``(x, M(x))``.  Its
    x-rate is bracketed and the bracket is shrunk by false-position steps
    (the midpoint when that point leaves the bracket), halving the stored
    value of an end that is kept twice in a row (Dowell & Jarratt 1971).
    The first point, bracket ends included, at which the field's max-abs
    value is ``<= tol`` is returned, with that value as ``residual``.
    Without an explicit bracket the lower end is 0 and the upper end is
    searched for (:func:`_search_end`).  Steady states need not be unique:
    a bracket selects the root inside it.
    """
    lo, hi = 0.0, None
    if x_bracket is not None:
        lo, hi = float(x_bracket[0]), float(x_bracket[1])
        if not 0.0 <= lo < hi < math.inf:
            raise ValueError(f"need 0 <= lo < hi < inf, got ({lo}, {hi})")
    f_lo, res_lo, M_lo = _x_residual(sys, lo)
    if res_lo <= tol:
        return _equilibrium_at(sys, lo, res_lo, M_lo)
    if hi is None:
        hi = _search_end(sys, f_lo, M_lo)
    f_hi, res_hi, M_hi = _x_residual(sys, hi)
    if res_hi <= tol:
        return _equilibrium_at(sys, hi, res_hi, M_hi)
    if f_lo * f_hi > 0.0:
        raise NoBracket(f"residual has the same sign at {lo} and {hi}")
    if f_lo < 0.0:  # orient so that f(lo) >= 0 >= f(hi)
        lo, hi, f_lo, f_hi, res_lo, res_hi = hi, lo, f_hi, f_lo, res_hi, res_lo

    kept = 0  # +1 after hi was kept, -1 after lo was kept
    for _ in range(MAX_ITER):
        span = f_lo - f_hi
        x = hi + f_hi * (hi - lo) / span if span > 0.0 else math.nan
        if not min(lo, hi) < x < max(lo, hi):
            x = 0.5 * (lo + hi)
            if not min(lo, hi) < x < max(lo, hi):
                break  # lo and hi are adjacent floats
        f, res, M = _x_residual(sys, x)
        if res <= tol:
            return _equilibrium_at(sys, x, res, M)
        if f > 0.0:
            lo, f_lo, res_lo = x, f, res
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi, res_hi = x, f, res
            if kept == -1:
                f_lo *= 0.5
            kept = -1
    res, x = min((res_lo, lo), (res_hi, hi))
    raise NoConvergence(f"no convergence to max|f| <= {tol}; best residual {res} at x={x}")


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
