"""Adaptive integration of the truncated system with co-integrated balance accumulators.

The integration state is that of :func:`silkin.truncation.augmented_field`:
the phase, then the balance integrals A1..A4 and the requested flux
integrals F_m.  The same stepper and error control apply to all of them, so
residual checks probe the model, not a quadrature scheme.

``method="bdf"`` is scipy's BDF fed the sparse Jacobian of that field.  Its
Newton matrix ``I - c J`` is factored by :func:`newton_lu` with diagonal
pivots, so the LU factors stay about as sparse as the matrix.  Partial
pivoting would pick the large accumulator entries (``c i q_i`` and the
like) as pivots and fill U.  Diagonal pivots are safe here: nothing depends
on the accumulators, so their diagonal block is the identity and their rows
never update another row; each cohort's diagonal
``1 + c (k_i x + p_i + q_i)`` is at least 1 and larger than the
subdiagonal entry below it; and the x diagonal is ``1 + c sum_i k_i M_i``.

Each :class:`Trajectory` carries the stepper's counts (accepted steps,
``nfev``, ``njev``, ``nlu``) in :class:`IntegratorStats`.

Cohort time integrals are computed once per trajectory, on first use:
:attr:`Trajectory.step_integrals` holds ``int M_i`` and ``int x M_i`` over
each accepted step, by six-node Gauss-Legendre quadrature of the dense output
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.6), exact for its products of
degree <= 10 up to the cone clamp.  Windows add at most two partial steps.

Negativity policy: the exact flow preserves the nonnegative cone, so small
numerical undershoots are clamped to zero when samples are recorded and when
dense output is evaluated, while an undershoot below ``negativity_floor``
(default ``-100 * abs_tol``) aborts the run - that deep a violation signals
tolerances too loose for the problem, not model behaviour.

Integrations are sequential; distinct integrations share no mutable state and
may run concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import BDF, RK45, OdeSolution
from scipy.sparse.linalg import SuperLU, splu

from .model import State
from .truncation import NUM_BASE_ACC, TruncatedSystem, augmented_field

__all__ = [
    "IntegratorConfig",
    "IntegratorStats",
    "Trajectory",
    "integrate",
    "dense_eval",
    "IntegrationError",
    "StepSizeUnderflow",
    "NegativityViolation",
    "OutOfRange",
    "MissingAccumulator",
]

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(6)
_CHUNK_FLOATS = 2 ** 18  # one quadrature chunk's dense matrix stays near 2 MB


class IntegrationError(RuntimeError):
    """Base class for numerical failures during integration."""


class StepSizeUnderflow(IntegrationError):
    """The stepper could not meet the tolerances; consider the stiff method."""


class NegativityViolation(IntegrationError):
    """A component fell below the negativity floor; tolerances are too loose."""


class OutOfRange(ValueError):
    """Requested time lies outside the trajectory's range."""


class MissingAccumulator(KeyError):
    """A flux integral was requested that was not co-integrated."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Error control and policy knobs.

    ``method`` is ``"rk45"`` (explicit Dormand-Prince 5(4), the default) or
    ``"bdf"`` (implicit backward differentiation for stiff cases, fed by the
    sparse Jacobian of the augmented field).  Switching is always explicit,
    never silent.  Defaults leave the 1e-6 residual thresholds three orders
    of headroom.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = math.inf
    negativity_floor: Optional[float] = None
    method: str = "rk45"

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("rel_tol and abs_tol must be positive")
        if not self.max_step > 0.0:
            raise ValueError("max_step must be positive")
        if self.negativity_floor is not None and not self.negativity_floor <= 0.0:
            raise ValueError("negativity_floor must be <= 0")
        if self.method not in ("rk45", "bdf"):
            raise ValueError(f"method must be 'rk45' or 'bdf', got {self.method!r}")

    @property
    def floor(self) -> float:
        return self.negativity_floor if self.negativity_floor is not None else -100.0 * self.abs_tol


@dataclass(frozen=True)
class IntegratorStats:
    """Work counts of one integration, as the scipy stepper reports them."""

    steps: int
    nfev: int
    njev: int
    nlu: int


@dataclass(eq=False)
class Trajectory:
    """Accepted-step samples of one integration plus dense output.

    ``phase`` holds the clamped phase rows (strictly increasing in time,
    all in the cone); ``accumulators`` the co-integrated balance integrals at
    the same times.  ``pre_clamp_min`` records the most negative raw phase
    component seen before clamping, for cone-preservation diagnostics;
    ``stats`` the stepper's work counts.  :attr:`step_integrals` is built on
    first use and then kept: ``2 * steps * (n + 1)`` floats.
    """

    sys: TruncatedSystem
    cfg: IntegratorConfig
    t: np.ndarray
    phase: np.ndarray
    accumulators: np.ndarray
    flux_orders: Tuple[int, ...]
    pre_clamp_min: float
    stats: IntegratorStats
    _sol: OdeSolution = field(repr=False)

    @property
    def t_start(self) -> float:
        return float(self.t[0])

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def num_samples(self) -> int:
        return len(self.t)

    def state(self, i: int) -> State:
        row = self.phase[i]
        return State(t=float(self.t[i]), x=float(row[0]), M=row[1:])

    @property
    def initial_state(self) -> State:
        return self.state(0)

    @property
    def final_state(self) -> State:
        return self.state(-1)

    def _check_range(self, t: float) -> None:
        if not (self.t_start <= t <= self.t_end):
            raise OutOfRange(f"t={t} outside trajectory range [{self.t_start}, {self.t_end}]")

    def dense_matrix(self, ts: np.ndarray) -> np.ndarray:
        """Augmented rows evaluated at sorted times, phase part clamped to the cone."""
        Z = self._sol(ts)
        dim = self.sys.dimension
        np.maximum(Z[:dim], 0.0, out=Z[:dim])
        return Z

    def dense_vector(self, t: float) -> np.ndarray:
        self._check_range(t)
        z = self._sol(t)
        dim = self.sys.dimension
        np.maximum(z[:dim], 0.0, out=z[:dim])
        return z

    def _panel_integrals(self, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``int M_i`` and ``int x M_i`` over each panel ``[a_j, b_j]``, each ``(panels, n + 1)``."""
        half = 0.5 * (b - a)
        ws = half[:, None] * _GAUSS_W
        Z = self.dense_matrix((0.5 * (a + b)[:, None] + half[:, None] * _GAUSS_X).ravel())
        M = Z[1:self.sys.dimension].reshape(-1, *ws.shape)
        return np.einsum("ijk,jk->ji", M, ws), np.einsum("ijk,jk->ji", M, Z[0].reshape(ws.shape) * ws)

    @cached_property
    def step_integrals(self) -> Tuple[np.ndarray, np.ndarray]:
        """``int M_i`` and ``int x M_i`` over each accepted step, each ``(steps, n + 1)``."""
        steps = self.num_samples - 1
        chunk = max(1, _CHUNK_FLOATS // (len(_GAUSS_X) * (self.phase.shape[1] + self.accumulators.shape[1])))
        m_int, xm_int = np.empty((steps, self.sys.n + 1)), np.empty((steps, self.sys.n + 1))
        for j in range(0, steps, chunk):
            k = min(j + chunk, steps)
            m_int[j:k], xm_int[j:k] = self._panel_integrals(self.t[j:k], self.t[j + 1:k + 1])
        for cached in (m_int, xm_int):
            cached.setflags(write=False)
        return m_int, xm_int

    def window_integrals(self, t1: float, t2: float) -> Tuple[np.ndarray, np.ndarray]:
        """``int M_i`` and ``int x M_i`` over ``[t1, t2]``: cached whole steps plus partial ends."""
        if not (self.t_start <= t1 < t2 <= self.t_end):
            raise OutOfRange(f"need t_start <= t1 < t2 <= t_end, got [{t1}, {t2}] in [{self.t_start}, {self.t_end}]")
        i1 = int(np.searchsorted(self.t, t1))                     # first sample >= t1
        i2 = int(np.searchsorted(self.t, t2, side="right")) - 1   # last sample <= t2
        whole = [s[i1:i2].sum(axis=0) for s in self.step_integrals]
        ends = [(t1, t2)] if i1 > i2 else [(t1, self.t[i1]), (self.t[i2], t2)]
        partial = np.array([(a, b) for a, b in ends if a < b]).reshape(-1, 2)
        if len(partial):
            whole = [w + p.sum(axis=0) for w, p in zip(whole, self._panel_integrals(*partial.T))]
        return whole[0], whole[1]

    def accumulators_at(self, t: float) -> np.ndarray:
        """Balance integrals A1..A4 (and any flux integrals) at time ``t``."""
        self._check_range(t)
        i = np.searchsorted(self.t, t)
        if i < self.num_samples and self.t[i] == t:
            return self.accumulators[i].copy()
        return self._sol(t)[self.sys.dimension:]

    def flux_slot(self, m: int) -> int:
        """Index of F_m within the accumulator block."""
        try:
            return NUM_BASE_ACC + self.flux_orders.index(m)
        except ValueError:
            raise MissingAccumulator(
                f"flux integral F_{m} was not requested at integration time "
                f"(available: {list(self.flux_orders)})"
            ) from None

    def flux_at(self, m: int, t: float) -> float:
        return float(self.accumulators_at(t)[self.flux_slot(m)])


def newton_lu(A) -> SuperLU:
    """Sparse LU of a BDF Newton matrix ``I - c J``, pivoting on its diagonal.

    Every diagonal entry is at least 1 and no accumulator row is needed as
    a pivot (see the module docstring), so the factors keep the fill of the
    column ordering alone.
    """
    return splu(A, diag_pivot_thresh=0.0)


class _DiagonalPivotBDF(BDF):
    """scipy's BDF whose Newton matrices are factored by :func:`newton_lu`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)

        def lu(A):
            self.nlu += 1
            return newton_lu(A)

        self.lu = lu


_STEPPERS = {"rk45": RK45, "bdf": _DiagonalPivotBDF}


def integrate(
    sys: TruncatedSystem,
    y0: State,
    t_end: float,
    cfg: Optional[IntegratorConfig] = None,
    flux_orders: Sequence[int] = (),
) -> Trajectory:
    """Integrate from ``y0`` (at time ``y0.t``) up to ``t_end``.

    Raises :class:`StepSizeUnderflow` when the stepper stalls (switch to the
    stiff method) and :class:`NegativityViolation` when any phase component
    undershoots the negativity floor.
    """
    cfg = cfg or IntegratorConfig()
    if y0.n != sys.n:
        raise ValueError(f"initial state carries cohorts 0..{y0.n} but the system expects 0..{sys.n}")
    if not t_end > y0.t:
        raise ValueError(f"t_end must exceed the initial time {y0.t}, got {t_end}")
    flux = tuple(dict.fromkeys(int(m) for m in flux_orders))
    for m in flux:
        if not 1 <= m <= sys.n:
            raise ValueError(f"flux order must lie in 1..{sys.n}, got {m}")

    dim = sys.dimension
    fun, jac = augmented_field(sys, flux)
    z0 = np.concatenate([y0.vector(), np.zeros(NUM_BASE_ACC + len(flux))])
    kwargs = dict(rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=cfg.max_step)
    if cfg.method == "bdf":
        kwargs["jac"] = jac
    solver = _STEPPERS[cfg.method](fun, y0.t, z0, t_end, **kwargs)

    floor = cfg.floor
    ts = [y0.t]
    rows = [z0]
    segments = []
    pre_clamp_min = float(np.min(z0[:dim]))
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise StepSizeUnderflow(f"step size underflow near t={solver.t}: {message}")
        segments.append(solver.dense_output())
        ts.append(solver.t)
        rows.append(solver.y.copy())
        worst = float(np.min(solver.y[:dim]))
        pre_clamp_min = min(pre_clamp_min, worst)
        if worst < floor:
            raise NegativityViolation(
                f"component fell to {worst} (< floor {floor}) at t={solver.t}; tighten tolerances"
            )

    Z = np.asarray(rows)
    phase = np.where(Z[:, :dim] < 0.0, 0.0, Z[:, :dim])
    return Trajectory(
        sys=sys,
        cfg=cfg,
        t=np.asarray(ts),
        phase=phase,
        accumulators=Z[:, dim:].copy(),
        flux_orders=flux,
        pre_clamp_min=pre_clamp_min,
        stats=IntegratorStats(
            steps=len(segments), nfev=solver.nfev, njev=solver.njev, nlu=solver.nlu
        ),
        _sol=OdeSolution(np.asarray(ts), segments),
    )


def dense_eval(traj: Trajectory, t: float) -> State:
    """Interpolated state at ``t``; a stored sample time returns that sample exactly."""
    traj._check_range(t)
    i = np.searchsorted(traj.t, t)
    if i < traj.num_samples and traj.t[i] == t:
        return traj.state(i)
    z = traj.dense_vector(t)
    return State(t=float(t), x=float(z[0]), M=z[1:traj.sys.dimension])
