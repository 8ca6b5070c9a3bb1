"""Adaptive integration of the truncated system with co-integrated balance accumulators.

The integration state is that of :func:`silkin.truncation.augmented_field`:
the phase, then the balance integrals A1..A4 and the requested flux
integrals F_m.  The same stepper and error control apply to all of them, so
residual checks probe the model, not a quadrature scheme.

``method="rk45"`` is the module's own explicit Dormand-Prince 5(4) stepper
(Dormand & Prince 1980).  Its step control and dense output copy scipy's
``RK45`` operation for operation (Hairer, Norsett & Wanner, *Solving ODEs I*,
II.4 and II.6): the same tableau and initial step, safety factor 0.9, step
factor clipped to [0.2, 10] and capped at 1 after a rejection, the RMS error
norm, FSAL, a minimum step of ten ulps of ``t``, and Shampine's quartic
interpolant ``Q = K.T @ P``.  So it accepts the same steps with the same
``nfev``, and its dense output has the same bits.  scipy is not imported for
it.

``method="bdf"`` is scipy's BDF fed the sparse Jacobian of that field;
scipy is imported on its first use.  Its
Newton matrix ``I - c J`` is factored by :func:`newton_lu` with diagonal
pivots, so the LU factors stay about as sparse as the matrix.  Partial
pivoting would pick the large accumulator entries (``c i q_i`` and the
like) as pivots and fill U.  Diagonal pivots are safe here: nothing depends
on the accumulators, so their diagonal block is the identity and their rows
never update another row; each cohort's diagonal
``1 + c (k_i x + p_i + q_i)`` is at least 1 and larger than the
subdiagonal entry below it; and the x diagonal is ``1 + c sum_i k_i M_i``.

Each :class:`Trajectory` carries the stepper's counts (accepted steps,
``nfev``, ``njev``, ``nlu``) in :class:`IntegratorStats`.  A run that needs
more than :data:`MAX_STEPS` accepted steps stops with
:class:`StepBudgetExceeded`.

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

import functools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from .model import State
from .truncation import NUM_BASE_ACC, TruncatedSystem, augmented_field

if TYPE_CHECKING:
    from scipy.sparse.linalg import SuperLU

__all__ = [
    "IntegratorConfig",
    "IntegratorStats",
    "Trajectory",
    "integrate",
    "dense_eval",
    "IntegrationError",
    "StepSizeUnderflow",
    "StepBudgetExceeded",
    "NegativityViolation",
    "OutOfRange",
    "MissingAccumulator",
]

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(6)
_CHUNK_FLOATS = 2 ** 18  # one quadrature chunk's dense matrix stays near 2 MB

MAX_STEPS = 20_000
"""Accepted steps one integration may take: 12x the longest run of the tests or the benchmark (1 602 steps)."""


class IntegrationError(RuntimeError):
    """Base class for numerical failures during integration."""


class StepSizeUnderflow(IntegrationError):
    """The stepper could not meet the tolerances; consider the stiff method."""


class StepBudgetExceeded(IntegrationError):
    """The run took :data:`MAX_STEPS` accepted steps without reaching ``t_end``."""


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
    """Work counts of one integration: accepted steps, right-hand-side and Jacobian calls, LU factorisations.

    ``njev`` and ``nlu`` are 0 for RK45; for BDF all four are scipy's counts.
    """

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
    _sol: Callable[[np.ndarray], np.ndarray] = field(repr=False)

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
    from scipy.sparse.linalg import splu

    return splu(A, diag_pivot_thresh=0.0)


@functools.cache
def _diagonal_pivot_bdf() -> type:
    """scipy's BDF whose Newton matrices are factored by :func:`newton_lu`, built on first use."""
    from scipy.integrate import BDF

    class _DiagonalPivotBDF(BDF):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)

            def lu(A):
                self.nlu += 1
                return newton_lu(A)

            self.lu = lu

    return _DiagonalPivotBDF


# Dormand-Prince 5(4): nodes, stage matrix, fifth-order weights, error weights
# (fifth minus fourth order) and Shampine's dense-output matrix, as in scipy's RK45.
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)


def _rms(v: np.ndarray) -> float:
    return np.linalg.norm(v) / v.size ** 0.5


class _DormandPrince:
    """Forward Dormand-Prince 5(4) stepper with scipy's ``RK45`` control, operation for operation.

    It offers what :func:`integrate` reads of a scipy solver: ``step()``
    returning a failure message or ``None``, ``status``, ``t``, ``y``, the
    work counts and ``dense_output()``, which here is the last step's
    ``Q = K.T @ P``.
    """

    njev = 0
    nlu = 0

    def __init__(self, fun, t0: float, y0: np.ndarray, t_bound: float, rtol: float, atol: float, max_step: float):
        self._fun = fun
        self.nfev = 0
        self.t = t0
        self.y = y0
        self.t_bound = t_bound
        self.rtol = max(rtol, 100 * np.finfo(float).eps)  # scipy raises rtol to this floor
        self.atol = atol
        self.max_step = max_step
        self.status = "running"
        self.f = self.fun(t0, y0)
        self.h_abs = self._initial_step()
        self.K = np.empty((len(_DP_C) + 1, len(y0)))

    def fun(self, t, y: np.ndarray) -> np.ndarray:
        self.nfev += 1
        return self._fun(t, y)

    def _initial_step(self) -> float:
        """Hairer, Norsett & Wanner II.4 starting step, as scipy's ``select_initial_step``."""
        t0, y0, f0 = self.t, self.y, self.f
        interval_length = abs(self.t_bound - t0)
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        f1 = self.fun(t0 + h0, y0 + h0 * f0)
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        return min(100 * h0, h1, interval_length, self.max_step)

    def step(self) -> Optional[str]:
        t, y, K = self.t, self.y, self.K
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if self.h_abs > self.max_step:
            h_abs = self.max_step
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs

        step_rejected = False
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return "Required step size is less than spacing between numbers."
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = np.abs(h)

            K[0] = self.f
            for s in range(1, len(_DP_C)):
                dy = np.dot(K[:s].T, _DP_A[s, :s]) * h
                K[s] = self.fun(t + _DP_C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _DP_B)
            f_new = self.fun(t + h, y_new)
            K[-1] = f_new

            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = _rms(np.dot(K.T, _DP_E) * h / scale)
            if error_norm < 1:
                factor = _MAX_FACTOR if error_norm == 0 else min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            step_rejected = True

        self.t, self.y, self.f, self.h_abs = t_new, y_new, f_new, h_abs
        if t_new >= self.t_bound:
            self.status = "finished"
        return None

    def dense_output(self) -> np.ndarray:
        return self.K.T.dot(_DP_P)


@dataclass(frozen=True, eq=False)
class _DormandPrinceDense:
    """Dense output of accepted Dormand-Prince steps.

    Step ``i`` runs from ``t[i]`` to ``t[i + 1]``, starts at row ``y[i]`` and
    has interpolant matrix ``q[i]``.  Points are evaluated as scipy's
    ``OdeSolution`` over ``RkDenseOutput`` segments does: sorted, a point on a
    step boundary belongs to the earlier step, and each run of points in one
    step is ``h * (Q @ p) + y_old``, so the values have the same bits.  The
    matrix is column-major like scipy's, so reductions over it (the einsum
    of :meth:`Trajectory._panel_integrals`) also sum in the same order.
    """

    t: np.ndarray
    y: np.ndarray
    q: List[np.ndarray]

    @cached_property
    def h(self) -> np.ndarray:
        return np.diff(self.t)

    def _step_of(self, t):
        return np.clip(np.searchsorted(self.t, t, side="left") - 1, 0, len(self.q) - 1)

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t)
        if t.ndim == 0:
            i = int(self._step_of(t))
            p = np.cumprod(np.tile((t - self.t[i]) / self.h[i], 4))
            z = self.h[i] * np.dot(self.q[i], p)
            z += self.y[i]
            return z
        order = np.argsort(t)
        t_sorted = t[order]
        steps = self._step_of(t_sorted)
        cuts = [0, *(np.flatnonzero(np.diff(steps)) + 1).tolist(), len(t)]
        out = np.empty((self.y.shape[1], len(t)), order="F")  # the layout of scipy's ``ys[:, reverse]``
        for a, b in zip(cuts[:-1], cuts[1:]):
            i = steps[a]
            p = np.cumprod(np.tile((t_sorted[a:b] - self.t[i]) / self.h[i], (4, 1)), axis=0)
            z = self.h[i] * np.dot(self.q[i], p)
            z += self.y[i][:, None]
            out[:, order[a:b]] = z
        return out


def integrate(
    sys: TruncatedSystem,
    y0: State,
    t_end: float,
    cfg: Optional[IntegratorConfig] = None,
    flux_orders: Sequence[int] = (),
) -> Trajectory:
    """Integrate from ``y0`` (at time ``y0.t``) up to ``t_end``.

    Raises :class:`StepSizeUnderflow` when the stepper stalls (switch to the
    stiff method), :class:`NegativityViolation` when any phase component
    undershoots the negativity floor, and :class:`StepBudgetExceeded` when
    :data:`MAX_STEPS` accepted steps do not reach ``t_end``.
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
    if cfg.method == "bdf":
        solver = _diagonal_pivot_bdf()(
            fun, y0.t, z0, t_end, rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=cfg.max_step, jac=jac
        )
    else:
        solver = _DormandPrince(fun, y0.t, z0, t_end, cfg.rel_tol, cfg.abs_tol, cfg.max_step)

    floor = cfg.floor
    ts = [y0.t]
    rows = [z0]
    segments = []
    pre_clamp_min = float(np.min(z0[:dim]))
    while solver.status == "running":
        if len(segments) == MAX_STEPS:
            raise StepBudgetExceeded(
                f"{MAX_STEPS} accepted steps reached t={solver.t}, short of t_end={t_end}"
            )
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

    t = np.asarray(ts)
    Z = np.asarray(rows)
    if cfg.method == "bdf":
        from scipy.integrate import OdeSolution

        sol = OdeSolution(t, segments)
    else:
        sol = _DormandPrinceDense(t, Z, segments)
    return Trajectory(
        sys=sys,
        cfg=cfg,
        t=t,
        phase=np.where(Z[:, :dim] < 0.0, 0.0, Z[:, :dim]),
        accumulators=Z[:, dim:].copy(),
        flux_orders=flux,
        pre_clamp_min=pre_clamp_min,
        stats=IntegratorStats(
            steps=len(segments), nfev=solver.nfev, njev=solver.njev, nlu=solver.nlu
        ),
        _sol=sol,
    )


def dense_eval(traj: Trajectory, t: float) -> State:
    """Interpolated state at ``t``; a stored sample time returns that sample exactly."""
    traj._check_range(t)
    i = np.searchsorted(traj.t, t)
    if i < traj.num_samples and traj.t[i] == t:
        return traj.state(i)
    z = traj.dense_vector(t)
    return State(t=float(t), x=float(z[0]), M=z[1:traj.sys.dimension])
