"""Adaptive integration of the truncated system with co-integrated balance accumulators.

The integration state is that of :func:`silkin.truncation.augmented_field`:
the phase, then the balance integrals A1 and A2 and the requested flux
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
it.  The stepper makes fewer numpy calls per step than scipy, and each
difference keeps the bits:

- ``t``, ``h`` and the error norm are Python floats.  IEEE arithmetic rounds
  them as it rounds numpy scalars, and ``math.nextafter`` gives the ulp.
- The RMS norm is ``math.sqrt(v.dot(v)) / sqrt(size)``, which is what
  ``np.linalg.norm`` computes for a vector.
- The stage views ``K[:s].T``, ``K[:-1].T`` and ``K.T`` and the tableau rows
  are sliced once per run, not at every stage.
- ``y + (K.T @ a) * h`` is formed in place as ``(K.T @ a) * h + y``, and
  IEEE addition is commutative.

The one departure is a NaN step size, which fails the step as an underflow;
scipy keeps shrinking it and never returns.

``method="bdf"`` is the module's own variable-order BDF stepper (NDF, orders
1-5; Shampine & Reichelt 1997).  Its control copies scipy's ``BDF`` operation
for operation: the starting step, the difference array ``D`` and its rescaling
``change_D``, the simplified Newton iteration with its convergence-rate test,
a Jacobian refreshed only when Newton fails, the error estimate and the order
selection.  Only the Newton solve differs.  ``I - c J`` is never formed: the
field's ``jac`` returns its closed-form blocks (:class:`JacobianBlocks`), and
:class:`_NewtonFactor` solves with them in O(n).  The phase block is a lower
bidiagonal cohort block ``L`` bordered by the row and the column of ``x``; the
Schur complement on ``x`` reduces a solve to one bidiagonal solve, two dot
products, and one row product per accumulator.  The bidiagonal solve is the
recurrence ``w_i = a_i w_{i-1} + b_i / d_i``, run as a log-depth scan (Kogge &
Stone 1973) whose level products are formed once per factorisation: two
vector operations per level and no Python loop over the cohorts.  Each step's
dense output is the scipy ``BdfDenseOutput`` data ``t_shift``, ``denom`` and
``D``.

Both steppers share one shell (``_Stepper``): the field, the tolerances with
scipy's ``rtol`` floor, the first field call and Hairer, Norsett & Wanner's
starting step, the clip of each step's first try to ``[min_step, max_step]``,
and the ``nfev`` and ``rejected`` counts.  Unlike scipy's
``OdeSolver`` a stepper has no status: ``step()`` takes one accepted step and
returns its dense-output record (the start row and ``Q`` for RK45, a
``_BdfStep`` for BDF), or raises :class:`StepSizeUnderflow` when the step
size falls below ten ulps of ``t``; :func:`integrate` steps while ``t`` is
short of the end.  Each accepted ``y`` is a new array that no stepper writes
again.  :func:`integrate` stacks them once into the one sample matrix and
clamps its phase columns in place; ``Trajectory.phase`` and
``Trajectory.accumulators`` are views of it.

Each :class:`Trajectory` carries the stepper's counts (accepted and rejected
steps, ``nfev``, ``njev``, ``nlu``) and its step-size range in
:class:`IntegratorStats`.  A run that needs
more than :data:`MAX_STEPS` accepted steps stops with
:class:`StepBudgetExceeded`.

Cohort time integrals are computed once per trajectory, on first use:
:attr:`Trajectory.step_integrals` holds ``int M_i`` and ``int x M_i`` over
each accepted step, by six-node Gauss-Legendre quadrature of the dense output
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.6), exact for its products of
degree <= 10 up to the cone clamp.  Windows add at most two partial steps.

There is one dense evaluator for both methods, built from the accepted steps:
:meth:`Trajectory.dense_matrix` reads its values and
:meth:`Trajectory.dense_derivative` the exact time derivative of the same
step polynomials (Enright 1989; Shampine 2005), so the continuous extension's
defect ``u' - f(u)`` needs no difference quotient.  A point read
(:meth:`Trajectory.dense_vector`) is a one-column call of it, and keeps the
bits of scipy's scalar evaluation: numpy sends the ``(4, 1)`` power block to
the same BLAS matrix-vector product as a 1-D power vector.  Several points in
one step go through a matrix-matrix product instead, whose last bits can
differ from the point-by-point values, so a caller that needs those values
reads one point at a time.  :meth:`Trajectory.at` states the sample rule
once: a stored sample time returns that sample, any other time the dense
output.  Every read rejects a time outside the run with :class:`OutOfRange`;
the dense output is never extrapolated.

:func:`integrate` runs with numpy's overflow, invalid and divide errors
raised, so an input that leaves double precision ends in one
``FloatingPointError``.

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
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .model import State
from .truncation import NUM_BASE_ACC, JacobianBlocks, TruncatedSystem, augmented_field

__all__ = [
    "IntegratorConfig",
    "IntegratorStats",
    "Trajectory",
    "integrate",
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
"""Accepted steps one integration may take: 12x the longest run of the tests or the benchmark (1 601 steps)."""


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
    ``"bdf"`` (implicit backward differentiation for stiff cases, whose
    Newton systems are solved in O(n) from the field's Jacobian blocks).
    Switching is always explicit, never silent.  Defaults leave the 1e-6
    residual thresholds three orders of headroom.
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
    """Work counts of one integration and the range of its accepted step sizes.

    ``steps`` are accepted, ``rejected`` tried and refused (for BDF also a
    step whose Newton iteration failed); ``nfev``, ``njev`` and ``nlu`` count
    field calls, Jacobian calls and Newton factorisations, the last two 0
    for RK45.  ``h_min`` and ``h_max`` come from the sample times.
    """

    steps: int
    nfev: int
    njev: int
    nlu: int
    rejected: int
    h_min: float
    h_max: float


@dataclass(eq=False)
class Trajectory:
    """Accepted-step samples of one integration plus dense output.

    ``phase`` holds the clamped phase rows (strictly increasing in time,
    all in the cone); ``accumulators`` the co-integrated balance integrals at
    the same times.  The two are column blocks of one sample matrix.
    ``pre_clamp_min`` records the most negative raw phase component seen
    before clamping, for cone-preservation diagnostics; ``stats`` the
    stepper's work counts.  :attr:`step_integrals` is built on
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
    _sol: _DenseOutput = field(repr=False)

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
    def final_state(self) -> State:
        return self.state(-1)

    def dense_matrix(self, ts: np.ndarray) -> np.ndarray:
        """Augmented rows at the times ``ts``, in any order, phase part clamped to the cone.

        Every time must lie in the run; others raise :class:`OutOfRange`, as
        they do for :meth:`dense_vector` and :meth:`dense_derivative`.
        """
        Z = self._sol(ts)
        dim = self.sys.dimension
        np.maximum(Z[:dim], 0.0, out=Z[:dim])
        return Z

    def dense_derivative(self, ts: np.ndarray) -> np.ndarray:
        """Time derivative of the augmented dense output at ``ts``, not clamped; every time must lie in the run."""
        return self._sol(ts, derivative=True)

    def dense_vector(self, t: float) -> np.ndarray:
        """The augmented row at ``t`` by dense output, through the same evaluator as :meth:`dense_matrix`."""
        return self.dense_matrix(np.array([t]))[:, 0]

    def at(self, t: float) -> np.ndarray:
        """The augmented row at ``t``: the stored sample at a sample time, the dense output anywhere else."""
        i = np.searchsorted(self.t, t)  # a time outside the run is no sample: dense_vector rejects it
        if i < self.num_samples and self.t[i] == t:
            return np.concatenate((self.phase[i], self.accumulators[i]))
        return self.dense_vector(t)

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

    def flux_slot(self, m: int) -> int:
        """Index of F_m within the accumulator block."""
        try:
            return NUM_BASE_ACC + self.flux_orders.index(m)
        except ValueError:
            raise MissingAccumulator(
                f"flux integral F_{m} was not requested at integration time "
                f"(available: {list(self.flux_orders)})"
            ) from None


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
_EPS = np.finfo(float).eps


def _rms(v: np.ndarray) -> float:
    return math.sqrt(v.dot(v)) / v.size ** 0.5


class _Stepper:
    """The shell both steppers share, after scipy's ``OdeSolver`` but with no status.

    It holds the field ``fun``, the time ``t`` and state ``y``, the end
    ``t_bound``, the tolerances (``rtol`` raised to scipy's floor ``100 eps``)
    and ``max_step``, and counts field calls in ``nfev`` and refused attempts
    in ``rejected``.  The constructor makes the first field call, ``f``, and
    picks the starting step ``h_abs`` by Hairer, Norsett & Wanner's rule
    (II.4), as scipy's ``select_initial_step`` does; ``order`` is the error
    estimator's order (4 for RK45, 1 for BDF).

    A subclass's ``step()`` takes one accepted step toward ``t_bound`` and
    returns that step's dense-output record.  It first tries ``h_abs``
    clipped to ``[min_step, max_step]`` (:meth:`_first_h_abs`), and a
    stepper with a step history adapts it in :meth:`_rescale`.  A step
    size below ten ulps of ``t``, or NaN, raises :class:`StepSizeUnderflow`.
    Each accepted step makes a new ``y``; none is written again.
    """

    njev = 0
    nlu = 0

    def __init__(self, fun, t0: float, y0: np.ndarray, t_bound: float, rtol: float, atol: float,
                 max_step: float, order: int):
        self.fun = fun
        self.t = t0 = float(t0)
        self.y = y0
        self.t_bound = t_bound = float(t_bound)
        self.rtol = rtol = max(rtol, 100 * _EPS)  # scipy raises rtol to this floor
        self.atol = atol
        self.max_step = max_step
        self.f = f0 = fun(t0, y0)
        interval_length = abs(t_bound - t0)
        scale = atol + np.abs(y0) * rtol
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        f1 = fun(t0 + h0, y0 + h0 * f0)
        d2 = _rms((f1 - f0) / scale) / h0 if h0 > 0.0 else math.inf  # h0 = 0 when f0 overflowed
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / (order + 1))
        self.h_abs = min(100 * h0, h1, interval_length, max_step)
        self.nfev = 2
        self.rejected = 0

    def _min_step(self) -> float:
        """Ten ulps of ``t``, scipy's shortest step."""
        return 10 * (math.nextafter(self.t, math.inf) - self.t)

    def _first_h_abs(self, min_step: float) -> float:
        """The step size a step tries first: ``h_abs`` clipped to ``[min_step, max_step]``, history rescaled."""
        if self.h_abs > self.max_step:
            h_abs = self.max_step
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            return self.h_abs
        self._rescale(h_abs / self.h_abs)
        return h_abs

    def _rescale(self, factor: float) -> None:
        """Adapt the step history to a step size ``factor`` times as long (RK45 keeps none)."""

    def _check_step(self, h_abs: float, min_step: float) -> None:
        if not h_abs >= min_step:  # a NaN step size fails too, where scipy's RK45 would loop forever
            raise StepSizeUnderflow(
                f"step size underflow near t={self.t}: Required step size is less than spacing between numbers."
            )


class _RkStep(NamedTuple):
    """One Dormand-Prince step's polynomial: its start row ``y`` and Shampine's matrix ``Q = K.T @ P``."""

    y: np.ndarray
    Q: np.ndarray


class _DormandPrince(_Stepper):
    """Forward Dormand-Prince 5(4) stepper with scipy's ``RK45`` control, operation for operation.

    ``step()`` returns the step's :class:`_RkStep`.
    """

    def __init__(self, fun, t0: float, y0: np.ndarray, t_bound: float, rtol: float, atol: float, max_step: float):
        super().__init__(fun, t0, y0, t_bound, rtol, atol, max_step, 4)
        self.K = K = np.empty((len(_DP_C) + 1, len(y0)))
        # Views of K and of the tableau, made once: stage s reads K[:s].T and _DP_A[s, :s].
        self._stages = [(s, K[:s].T, _DP_A[s, :s], float(_DP_C[s])) for s in range(1, len(_DP_C))]
        self._K_solution = K[:-1].T
        self._K_all = K.T
        self._abs_y = np.abs(y0)

    def step(self) -> _RkStep:
        t, y, K, fun = self.t, self.y, self.K, self.fun
        min_step = self._min_step()
        h_abs = self._first_h_abs(min_step)

        step_rejected = False
        while True:
            self._check_step(h_abs, min_step)
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = abs(h)

            # y + (K[:s].T @ a) * h, written as ((K[:s].T @ a) * h) + y: the same bits with fewer temporaries.
            K[0] = self.f
            for s, K_s, a, c in self._stages:
                dy = K_s.dot(a)
                dy *= h
                dy += y
                K[s] = fun(t + c * h, dy)
            y_new = self._K_solution.dot(_DP_B)
            y_new *= h
            y_new += y
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            self.nfev += len(_DP_C)  # five stages and f_new

            abs_new = np.abs(y_new)
            scale = np.maximum(self._abs_y, abs_new)
            scale *= self.rtol
            scale += self.atol
            error = self._K_all.dot(_DP_E)
            error *= h
            error /= scale
            error_norm = _rms(error)
            if error_norm < 1:
                factor = _MAX_FACTOR if error_norm == 0 else min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            step_rejected = True
            self.rejected += 1

        self.t, self.y, self.f, self.h_abs, self._abs_y = t_new, y_new, f_new, h_abs, abs_new
        return _RkStep(y, self._K_all.dot(_DP_P))


class _NewtonFactor:
    """``I - c J`` for the blocks ``J`` of :func:`augmented_field`'s ``jac``, factored for O(n) solves.

    The phase block of ``I - c J`` is ``[[corner, row], [col, L]]`` with
    ``L`` lower bidiagonal (diagonal ``d``).  With ``v = L^-1 col`` and the Schur
    complement ``s = corner - row . v``, a solve is ``w = L^-1 b_M``,
    ``u_x = (b_x - row . w) / s`` and ``u_M = w - u_x v``; each accumulator
    row of ``I - c J`` is the identity less ``c`` times a row that reads only
    the phase, so ``u_A = b_A + c (row_A . u)``.

    ``L w = b`` is the recurrence ``w_i = a_i w_{i-1} + b_i / d_i`` with
    ``a_i = c sub_i / d_i`` and ``a_0 = 0``.  It is solved by a log-depth
    scan (Kogge & Stone 1973): at the level of stride ``2^j`` each ``w_i``
    adds ``A_i w_{i - 2^j}``, where ``A_i`` is the product of the ``a`` over
    the ``2^j`` rows below ``i``.  The level products depend only on ``c`` and
    ``J`` and are formed here.  A level whose products are all zero (they
    underflow along a subnormal tail) ends the scan, since every later
    product has one of them as a factor.  None can overflow, whatever the
    shape of ``k``: pair each numerator ``c k_l x`` of a window's product with the
    denominator ``d_l = 1 + c (k_l x + p_l + q_l)`` of the same row, and every
    pair is below 1 for ``x >= 0``, which leaves at most the window's first
    numerator ``c k x``.
    """

    def __init__(self, J: JacobianBlocks, c: float):
        self.J = J
        self.c = c
        self.d = d = 1.0 - c * J.diag
        a = np.zeros_like(d)
        np.divide(c * J.sub, d[1:], out=a[1:])
        self.levels = []
        stride = 1
        while stride < len(a) and a[stride:].any():  # a zero level makes every later level zero
            self.levels.append((stride, a[stride:]))
            a = np.concatenate((a[:stride], a[stride:] * a[:-stride]))
            stride *= 2
        self._product = np.empty(len(d) - 1)
        self.row = -c * J.row
        self.v = self._bidiagonal(-c * J.col)
        self.s = (1.0 - c * J.corner) - self.row.dot(self.v)

    def _bidiagonal(self, b: np.ndarray) -> np.ndarray:
        """``L^-1 b`` by the scan."""
        w = b / self.d
        for stride, a in self.levels:
            product = self._product[:len(a)]
            np.multiply(a, w[:-stride], out=product)
            w[stride:] += product
        return w

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``(I - c J)^-1 b``."""
        J, c = self.J, self.c
        dim = len(self.d) + 1
        w = self._bidiagonal(b[1:dim])
        u = np.empty_like(b)
        u_x = u[0] = (b[0] - self.row.dot(w)) / self.s
        u_M = u[1:dim]
        np.multiply(self.v, u_x, out=u_M)
        np.subtract(w, u_M, out=u_M)
        acc = dim + NUM_BASE_ACC
        u[dim:acc] = b[dim:acc] + c * J.acc.dot(u_M)
        u[acc:] = b[acc:] + c * (J.flux_x * u_x + J.flux_M * u_M[J.flux_cohorts])
        return u


# NDF coefficients of scipy's BDF (Shampine & Reichelt 1997), by the same operations.
_BDF_MAX_ORDER = 5
_NEWTON_MAXITER = 4
_NDF_KAPPA = np.array([0, -0.1850, -1/9, -0.0823, -0.0415, 0])
_BDF_GAMMA = np.hstack((0, np.cumsum(1 / np.arange(1, _BDF_MAX_ORDER + 1))))
_BDF_ALPHA = (1 - _NDF_KAPPA) * _BDF_GAMMA
_BDF_ERROR_CONST = _NDF_KAPPA * _BDF_GAMMA + 1 / np.arange(1, _BDF_MAX_ORDER + 2)


def _compute_R(order: int, factor: float) -> np.ndarray:
    """scipy's ``compute_R``: the matrix that changes the differences array for a step ``factor`` times as long."""
    I = np.arange(1, order + 1)[:, None]
    J = np.arange(1, order + 1)
    M = np.zeros((order + 1, order + 1))
    M[1:, 1:] = (I - 1 - factor * J) / I
    M[0] = 1
    return np.cumprod(M, axis=0)


class _BdfStep(NamedTuple):
    """One BDF step's polynomial: the data of scipy's ``BdfDenseOutput``."""

    t_shift: np.ndarray
    denom: np.ndarray
    D: np.ndarray


class _BDF(_Stepper):
    """Variable-order BDF (NDF) stepper with scipy's ``BDF`` control, operation for operation.

    ``step()`` returns the step's :class:`_BdfStep`.  Where scipy factors
    ``I - c J`` this builds a :class:`_NewtonFactor` and counts it in ``nlu``.
    """

    def __init__(self, fun, jac, t0: float, y0: np.ndarray, t_bound: float, rtol: float, atol: float,
                 max_step: float):
        super().__init__(fun, t0, y0, t_bound, rtol, atol, max_step, 1)
        if not self.h_abs > 0.0:  # the field's norm overflowed; scipy divides by this step size
            raise FloatingPointError("divide by zero: the initial step size is 0")
        self.newton_tol = max(10 * _EPS / rtol, min(0.03, rtol ** 0.5))  # scipy's, from rtol as given
        self.jac = jac
        self.J = jac(self.t, y0)
        self.njev = 1
        self.D = D = np.empty((_BDF_MAX_ORDER + 3, len(y0)))
        D[0] = y0
        D[1] = self.f * self.h_abs
        self.order = 1
        self.n_equal_steps = 0
        self.LU = None

    def _rescale(self, factor: float) -> None:
        """scipy's ``change_D``: rescale the differences array in place, and count equal steps anew."""
        order = self.order
        RU = _compute_R(order, factor).dot(_compute_R(order, 1))
        self.D[:order + 1] = np.dot(RU.T, self.D[:order + 1])
        self.n_equal_steps = 0

    def _newton(self, t_new: float, y_predict: np.ndarray, c: float, psi: np.ndarray, LU: _NewtonFactor,
                scale: np.ndarray):
        """scipy's ``solve_bdf_system``: ``(converged, iterations, y, d)`` of one step's Newton iteration."""
        d = 0
        y = y_predict.copy()
        dy_norm_old = None
        converged = False
        for k in range(_NEWTON_MAXITER):
            f = self.fun(t_new, y)
            self.nfev += 1
            if not np.all(np.isfinite(f)):
                break
            dy = LU.solve(c * f - psi - d)
            dy_norm = _rms(dy / scale)
            rate = None if dy_norm_old is None else dy_norm / dy_norm_old
            if rate is not None and (
                rate >= 1 or rate ** (_NEWTON_MAXITER - k) / (1 - rate) * dy_norm > self.newton_tol
            ):
                break
            y += dy
            d += dy
            if dy_norm == 0 or rate is not None and rate / (1 - rate) * dy_norm < self.newton_tol:
                converged = True
                break
            dy_norm_old = dy_norm
        return converged, k + 1, y, d

    def step(self) -> _BdfStep:
        t, D, order = self.t, self.D, self.order
        min_step = self._min_step()
        h_abs = self._first_h_abs(min_step)

        alpha = _BDF_ALPHA[order]
        J, LU = self.J, self.LU
        current_jac = False
        while True:
            self._check_step(h_abs, min_step)
            t_new = t + h_abs
            if t_new > self.t_bound:
                t_new = self.t_bound
                self._rescale(abs(t_new - t) / h_abs)
                LU = None
            h = t_new - t
            h_abs = abs(h)

            y_predict = np.sum(D[:order + 1], axis=0)
            scale = self.atol + self.rtol * np.abs(y_predict)
            psi = np.dot(D[1:order + 1].T, _BDF_GAMMA[1:order + 1]) / alpha
            c = h / alpha
            while True:
                if LU is None:
                    LU = _NewtonFactor(J, c)
                    self.nlu += 1
                converged, n_iter, y_new, d = self._newton(t_new, y_predict, c, psi, LU, scale)
                if converged or current_jac:
                    break
                J = self.jac(t_new, y_predict)
                self.njev += 1
                LU = None
                current_jac = True

            if not converged:
                h_abs *= 0.5
                self._rescale(0.5)
                LU = None
                self.rejected += 1
                continue

            safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
            scale = self.atol + self.rtol * np.abs(y_new)
            error_norm = _rms(_BDF_ERROR_CONST[order] * d / scale)
            if error_norm > 1:
                factor = max(_MIN_FACTOR, safety * error_norm ** (-1 / (order + 1)))
                h_abs *= factor
                self._rescale(factor)
                self.rejected += 1
            else:
                break

        self.n_equal_steps += 1
        self.t, self.y, self.h_abs, self.J, self.LU = t_new, y_new, h_abs, J, LU

        # D^{j+1} y_n = D^j y_n - D^j y_{n-1}, where d = D^{order+1} y_n (scipy's update).
        D[order + 2] = d - D[order + 1]
        D[order + 1] = d
        for i in reversed(range(order + 1)):
            D[i] += D[i + 1]

        if self.n_equal_steps >= order + 1:
            error_m_norm = _rms(_BDF_ERROR_CONST[order - 1] * D[order] / scale) if order > 1 else np.inf
            error_p_norm = (
                _rms(_BDF_ERROR_CONST[order + 1] * D[order + 2] / scale) if order < _BDF_MAX_ORDER else np.inf
            )
            error_norms = np.array([error_m_norm, error_norm, error_p_norm])
            with np.errstate(divide="ignore"):
                factors = error_norms ** (-1 / np.arange(order, order + 3))
            self.order = order = order + int(np.argmax(factors)) - 1
            factor = min(_MAX_FACTOR, safety * np.max(factors))
            self.h_abs *= factor
            self._rescale(factor)
            self.LU = None

        h = self.h_abs
        return _BdfStep(t_new - h * np.arange(order), h * (1 + np.arange(order)), D[:order + 1].copy())


_DP_ORDERS = np.arange(1.0, 5.0)[:, None]  # d/ds of s^j is j s^(j-1)


@dataclass(frozen=True, eq=False)
class _DenseOutput:
    """Dense output of the accepted steps of either stepper, and its time derivative.

    Step ``i`` runs from ``t[i]`` to ``t[i + 1]``; ``steps[i]`` is that step's
    record: an :class:`_RkStep` for RK45, and for BDF a :class:`_BdfStep` or
    any record with the ``t_shift``, ``denom`` and ``D`` of scipy's
    ``BdfDenseOutput``.  A time outside ``[t[0], t[-1]]`` raises
    :class:`OutOfRange`.  Points are grouped as scipy's ``OdeSolution``
    groups them: sorted, a point on a step boundary belongs to the earlier
    step, and each step evaluates its run of points with the operations of
    scipy's own step interpolant, so the values have the same bits.  The
    matrix is column-major like scipy's, so reductions over it (the einsum
    of :meth:`Trajectory._panel_integrals`) also sum in the same order.
    """

    t: np.ndarray
    steps: list

    def __call__(self, t: np.ndarray, derivative: bool = False) -> np.ndarray:
        if not (self.t[0] <= np.min(t) and np.max(t) <= self.t[-1]):
            raise OutOfRange(f"t in [{np.min(t)}, {np.max(t)}] outside trajectory range [{self.t[0]}, {self.t[-1]}]")
        first = self.steps[0]
        if isinstance(first, _RkStep):
            block, size = self._dormand_prince, len(first.y)
        else:
            block, size = self._bdf, first.D.shape[1]
        order = np.argsort(t)
        t_sorted = t[order]
        steps = np.clip(np.searchsorted(self.t, t_sorted, side="left") - 1, 0, len(self.steps) - 1)
        cuts = [0, *(np.flatnonzero(np.diff(steps)) + 1).tolist(), len(t)]
        out = np.empty((size, len(t)), order="F")  # the layout of scipy's ``ys[:, reverse]``
        for a, b in zip(cuts[:-1], cuts[1:]):
            out[:, order[a:b]] = block(int(steps[a]), t_sorted[a:b], derivative)
        return out

    def _dormand_prince(self, i: int, t: np.ndarray, derivative: bool) -> np.ndarray:
        """``h (Q @ [s, s^2, s^3, s^4]) + y``, or its derivative ``Q @ [1, 2s, 3s^2, 4s^3]``."""
        y, Q = self.steps[i]
        h = self.t[i + 1] - self.t[i]
        p = np.empty((4, len(t)))  # s, s^2, s^3, s^4: the products scipy's cumprod forms, in the same order
        np.divide(t - self.t[i], h, out=p[0])
        for j in range(1, 4):
            np.multiply(p[j - 1], p[0], out=p[j])
        if derivative:
            return np.dot(Q, _DP_ORDERS * np.vstack((np.ones(len(t)), p[:3])))
        z = h * np.dot(Q, p)
        z += y[:, None]
        return z

    def _bdf(self, i: int, t: np.ndarray, derivative: bool) -> np.ndarray:
        """``D[1:].T @ p + D[0]`` with ``p = cumprod((t - t_shift) / denom)``, or its derivative ``D[1:].T @ p'``.

        ``p'`` is formed in units of ``1 / denom[0]`` and the product is divided
        by ``denom[0]`` last, so a subnormal step takes no reciprocal.
        """
        t_shift, denom, D = self.steps[i].t_shift, self.steps[i].denom, self.steps[i].D
        x = (t - t_shift[:, None]) / denom[:, None]
        p = np.cumprod(x, axis=0)
        if derivative:  # the product rule: q_0 = 1, q_j = q_{j-1} x_j + p_{j-1} denom_0 / denom_j, p' = q / denom_0
            q = np.empty_like(p)
            q[0] = 1.0
            for j in range(1, len(denom)):
                q[j] = q[j - 1] * x[j] + p[j - 1] * (denom[0] / denom[j])
            return np.dot(D[1:].T, q) / denom[0]
        z = np.dot(D[1:].T, p)
        z += D[0, :, None]
        return z


@np.errstate(over="raise", invalid="raise", divide="raise")
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
    undershoots the negativity floor, :class:`StepBudgetExceeded` when
    :data:`MAX_STEPS` accepted steps do not reach ``t_end``, and
    ``FloatingPointError`` when a value leaves double precision (inputs near
    1e308) instead of carrying inf or nan on.
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
    if cfg.method == "rk45":
        stepper = _DormandPrince(fun, y0.t, z0, t_end, cfg.rel_tol, cfg.abs_tol, cfg.max_step)
    else:
        stepper = _BDF(fun, jac, y0.t, z0, t_end, cfg.rel_tol, cfg.abs_tol, cfg.max_step)

    floor = cfg.floor
    ts = [y0.t]
    rows = [z0]
    records = []
    pre_clamp_min = float(np.min(z0[:dim]))
    while stepper.t < stepper.t_bound:
        if len(records) == MAX_STEPS:
            raise StepBudgetExceeded(
                f"{MAX_STEPS} accepted steps reached t={stepper.t}, short of t_end={t_end}"
            )
        records.append(stepper.step())
        ts.append(stepper.t)
        rows.append(stepper.y)  # no stepper writes an accepted y again
        worst = float(stepper.y[:dim].min())
        pre_clamp_min = min(pre_clamp_min, worst)
        if worst < floor:
            raise NegativityViolation(
                f"component fell to {worst} (< floor {floor}) at t={stepper.t}; tighten tolerances"
            )

    t = np.asarray(ts)
    samples = np.asarray(rows)
    phase = samples[:, :dim]
    phase[phase < 0.0] = 0.0  # in place; -0.0 stays
    return Trajectory(
        sys=sys,
        cfg=cfg,
        t=t,
        phase=phase,
        accumulators=samples[:, dim:],
        flux_orders=flux,
        pre_clamp_min=pre_clamp_min,
        stats=IntegratorStats(
            steps=len(records),
            nfev=stepper.nfev,
            njev=stepper.njev,
            nlu=stepper.nlu,
            rejected=stepper.rejected,
            h_min=float(np.min(np.diff(t))),
            h_max=float(np.max(np.diff(t))),
        ),
        _sol=_DenseOutput(t, records),
    )

