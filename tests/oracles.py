"""Independent oracles the tests check the library against.

Everything here is deliberately computed by a different route than the
library uses: closed forms, finite differences, extended-precision summation
and brute-force maxima.  Keeping these independent is the point; do not
"optimize" them by calling back into the solver.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import mpmath

from silkin import TruncatedSystem, State
from silkin.truncation import ACC_QUARTZ_REMOVED, ACC_TOTAL_LOSS, NUM_ACC


def decoupled_solution(x0, M0, p, q, r, alpha, t):
    """Closed-form solution when nothing is ingested (k = 0).

    Every cohort decays independently at rate ``a_i = p_i + q_i`` (cohort 0
    additionally relaxes to ``r / a_0``), and the free quartz collects the
    released loads:

        M_0(t) = M_00 e^{-a_0 t} + r (1 - e^{-a_0 t}) / a_0
        M_i(t) = M_0i e^{-a_i t}
        x(t)   = x_0 + alpha t + sum_{i>=1} i q_i M_0i (1 - e^{-a_i t}) / a_i

    with the ``a = 0`` limits ``(1 - e^{-a t}) / a -> t``.
    """
    M0 = np.asarray(M0, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    a = p + q
    decay = np.exp(-a * t)
    with np.errstate(invalid="ignore", divide="ignore"):
        ramp = np.where(a > 0.0, -np.expm1(-a * t) / np.where(a > 0.0, a, 1.0), t)
    M = M0 * decay
    M[0] += r * ramp[0]
    i = np.arange(len(M0), dtype=float)
    x = x0 + alpha * t + float(np.sum(i * q * M0 * ramp))
    return x, M


def affine_closure(r, alpha, a, b, p, q, x0, N0, X0, ts):
    """``(x, N, X)`` of the infinite system at the times ``ts`` when ``k_i = a + b i`` and ``p``, ``q`` are constant.

    ``N = sum_i M_i`` and ``X = sum_i i M_i`` then obey a closed ODE with the
    free quartz ``x``:

        N' = r - (p + q) N
        X' = x (a N + b X) - (p + q) X
        x' = alpha - x (a N + b X) + q X

    solved by scipy's DOP853 at ``rtol = 1e-13``, far below any truncation's
    error.  It never touches a cohort, so it shares nothing with the solver.
    """
    from scipy.integrate import solve_ivp

    def field(t, z):
        x, N, X = z
        ingested = x * (a * N + b * X)
        return [alpha - ingested + q * X, r - (p + q) * N, ingested - (p + q) * X]

    sol = solve_ivp(field, (ts[0], ts[-1]), [x0, N0, X0], method="DOP853", rtol=1e-13, atol=1e-16, t_eval=ts)
    assert sol.success, sol.message
    return sol.y


def affine_closure_equilibrium(r, alpha, a, b, p, q):
    """The closure's steady state ``(x*, N*, X*)``: ``N* = r / (p + q)``, ``X* = alpha / p``, ``x*`` from ``X' = 0``."""
    N = r / (p + q)
    X = alpha / p
    return (p + q) * X / (a * N + b * X), N, X


def central_jacobian(sys: TruncatedSystem, s: State, h: float = 1e-6) -> np.ndarray:
    """Finite-difference Jacobian, column by column, with relative step h."""
    v = s.vector()
    dim = len(v)
    J = np.empty((dim, dim))
    for j in range(dim):
        step = h * max(1.0, abs(v[j]))
        vp = v.copy()
        vm = v.copy()
        vp[j] += step
        vm[j] -= step
        J[:, j] = (sys.rhs(vp) - sys.rhs(vm)) / (2.0 * step)
    return J


def precise_moments(x, M, p, q):
    """Moment sums in 50-digit arithmetic: (m_total, x_total, u_total, Q, P)."""
    with mpmath.workdps(50):
        xm = mpmath.mpf(x)
        m_total = mpmath.fsum(mpmath.mpf(v) for v in M)
        carried = mpmath.fsum(i * mpmath.mpf(v) for i, v in enumerate(M))
        Q = mpmath.fsum(i * mpmath.mpf(qi) * mpmath.mpf(v) for i, (qi, v) in enumerate(zip(q, M)))
        P = mpmath.fsum(i * mpmath.mpf(pi) * mpmath.mpf(v) for i, (pi, v) in enumerate(zip(p, M)))
        x_total = xm + carried
        return (
            float(m_total),
            float(x_total),
            float(x_total + m_total),
            float(Q),
            float(P),
        )


def row_moments(x, M, p, q):
    """Moment sums of one phase row in float64, one dot or sum each: [m_total, x_total, u_total, Q, P]."""
    i = np.arange(len(M), dtype=float)
    m_total = float(np.sum(M))
    x_total = float(x) + float(i @ M)
    return [m_total, x_total, x_total + m_total, float((i * q) @ M), float((i * p) @ M)]


def brute_force_growth_constant(g, k):
    """max over i < n of (g_{i+1} - g_i) k_i / g_i by explicit loop (0/0 -> 0)."""
    worst = 0.0
    for i in range(len(g) - 1):
        numer = (g[i + 1] - g[i]) * k[i]
        if numer == 0.0:
            continue
        if g[i] == 0.0:
            return float("inf")
        worst = max(worst, numer / g[i])
    return worst


def chain_equilibrium(n: int, x: float):
    """Steady cohorts for k_i = p_i = 1, q_i = 0, r = 1 at fixed free quartz x.

    Setting each dM_i/dt = 0 gives M_0 = 1/(1+x) and M_i = (x/(1+x)) M_{i-1}
    for i < n; the top cohort (no onward ingestion) gets M_n = x M_{n-1}.
    """
    M = np.empty(n + 1)
    M[0] = 1.0 / (1.0 + x)
    for i in range(1, n):
        M[i] = M[i - 1] * x / (1.0 + x)
    M[n] = x * M[n - 1]
    return M


def rhs_norm(sys: TruncatedSystem, x: float, M) -> float:
    return float(np.max(np.abs(sys.rhs(State(t=0.0, x=x, M=M).vector()))))


def reference_augmented_rhs(sys: TruncatedSystem, z: np.ndarray) -> np.ndarray:
    """The augmented field as first written, kept to pin the bits of ``augmented_field``.

    It has lost only the stores of the slots that no check reads any more.
    Its zeroed output and separate ``@`` products are slower
    than the library's field, but every floating-point operation and its
    order is the same, so the two agree bit for bit.  Since the field takes
    its four sums against ``M`` from one ``np.vecdot``, the ingestion sum
    of dx/dt is ``x (k . M)``, one BLAS dot like the others, where it was the
    pairwise ``flow.sum()`` of the products ``x k_i M_i``: equal in real
    arithmetic, within the same summation bound, and dx/dt moved by rounding.
    """
    dim = sys.dimension
    r = sys.params.r
    alpha = sys.params.alpha
    k = sys.k_masked
    loss = sys.loss
    ip = np.arange(sys.n + 1, dtype=float) * sys.rates.p
    iq = np.arange(sys.n + 1, dtype=float) * sys.rates.q

    x = z[0]
    M = z[1:dim]
    flow = (x * k) * M
    out = np.zeros_like(z)
    out[1] = r - flow[0] - loss[0] * M[0]
    out[2:dim] = flow[:-1] - flow[1:] - loss[1:] * M[1:]
    out[0] = alpha - x * (k @ M) + iq @ M
    if len(z) == dim:  # phase state only, as TruncatedSystem.rhs passes it
        return out
    out[dim + ACC_TOTAL_LOSS] = loss @ M
    out[dim + ACC_QUARTZ_REMOVED] = ip @ M
    return out


def exact_augmented_rhs(sys: TruncatedSystem, z: np.ndarray) -> list:
    """Each component of the augmented field at ``z`` as ``(value, size)``, in exact rational arithmetic.

    ``value`` is the component computed with ``Fraction`` from the same
    doubles the field reads (the rates, ``r``, ``alpha`` and ``z``), with
    ``k_n`` masked by hand, and ``size`` is the sum of its terms' magnitudes:
    the scale of a summation error bound.  It follows the formulas in
    ``silkin.truncation``'s docstring term by term, so it agrees with any
    correct order of operations, not only the library's.
    """
    n = sys.n
    r, alpha = Fraction(sys.params.r), Fraction(sys.params.alpha)
    x = Fraction(float(z[0]))
    M = [Fraction(float(v)) for v in z[1:n + 2]]
    k = [Fraction(float(v)) for v in sys.rates.k[:n]] + [Fraction(0)]
    p = [Fraction(float(v)) for v in sys.rates.p]
    q = [Fraction(float(v)) for v in sys.rates.q]
    flow = [x * k[i] * M[i] for i in range(n + 1)]
    inflow = [r] + flow[:-1]
    components = [[alpha] + [-f for f in flow] + [i * q[i] * M[i] for i in range(n + 1)]]
    components += [[inflow[i], -flow[i], -p[i] * M[i], -q[i] * M[i]] for i in range(n + 1)]
    if len(z) > n + 2:
        components.insert(n + 2 + ACC_TOTAL_LOSS, [p[i] * M[i] for i in range(n + 1)] + [q[i] * M[i] for i in range(n + 1)])
        components.insert(n + 2 + ACC_QUARTZ_REMOVED, [i * p[i] * M[i] for i in range(n + 1)])
    return [(sum(terms), sum(abs(term) for term in terms)) for terms in components]


class ReferenceDenseOutput:
    """The dense output as first written, kept to pin the bits of ``integrator._DenseOutput``.

    It evaluates a read one step at a time: each step's run of sorted points
    gets its own ``np.dot`` and elementwise operations, as scipy's
    ``OdeSolution`` and its step interpolants do.  The library stacks the
    steps of one shape into one ``np.matmul``; the two agree bit for bit.
    ``steps`` are the library's step records (``(y, Q)`` for RK45, records
    with ``t_shift``, ``denom`` and ``D`` for BDF), ``size`` is the run's
    augmented size, and it is called as the library's evaluator is:
    ``(t, derivative=False)``.  A BDF record's ``D`` may lack the phase
    columns of an all-zero tail; each step restores its own full-width ``D``
    by two slice copies into zeros.
    """

    _ORDERS = np.arange(1.0, 5.0)[:, None]

    def __init__(self, t: np.ndarray, steps, size: int):
        self.t = t
        self.steps = steps
        self.size = size

    def __call__(self, t: np.ndarray, derivative: bool = False) -> np.ndarray:
        block = self._dormand_prince if hasattr(self.steps[0], "Q") else self._bdf
        size = self.size
        order = np.argsort(t)
        t_sorted = t[order]
        steps = np.clip(np.searchsorted(self.t, t_sorted, side="left") - 1, 0, len(self.steps) - 1)
        cuts = [0, *(np.flatnonzero(np.diff(steps)) + 1).tolist(), len(t)]
        out = np.empty((size, len(t)), order="F")
        for a, b in zip(cuts[:-1], cuts[1:]):
            out[:, order[a:b]] = block(int(steps[a]), t_sorted[a:b], derivative)
        return out

    def _dormand_prince(self, i, t, derivative):
        y, Q = self.steps[i]
        h = self.t[i + 1] - self.t[i]
        p = np.empty((4, len(t)))
        np.divide(t - self.t[i], h, out=p[0])
        for j in range(1, 4):
            np.multiply(p[j - 1], p[0], out=p[j])
        if derivative:
            return np.dot(Q, self._ORDERS * np.vstack((np.ones(len(t)), p[:3])))
        z = h * np.dot(Q, p)
        z += y[:, None]
        return z

    def _bdf(self, i, t, derivative):
        t_shift, denom, kept = self.steps[i].t_shift, self.steps[i].denom, self.steps[i].D
        D = np.zeros((len(kept), self.size))
        D[:, :kept.shape[1] - NUM_ACC] = kept[:, :-NUM_ACC]
        D[:, -NUM_ACC:] = kept[:, -NUM_ACC:]
        x = (t - t_shift[:, None]) / denom[:, None]
        p = np.cumprod(x, axis=0)
        if derivative:
            q = np.empty_like(p)
            q[0] = 1.0
            for j in range(1, len(denom)):
                q[j] = q[j - 1] * x[j] + p[j - 1] * (denom[0] / denom[j])
            return np.dot(D[1:].T, q) / denom[0]
        z = np.dot(D[1:].T, p)
        z += D[0, :, None]
        return z


def dense_jacobian(J, size: int) -> np.ndarray:
    """The augmented Jacobian as a dense ``(size, size)`` matrix, each block placed entry by entry.

    ``J`` holds the blocks of ``augmented_field``'s ``jac``; the placement
    loops are slow on purpose, so they share no index arithmetic with the library.
    """
    dim = len(J.diag) + 1
    A = np.zeros((size, size))
    A[0, 0] = J.corner
    for i in range(dim - 1):
        A[0, 1 + i] = J.row[i]
        A[1 + i, 0] = J.col[i]
        A[1 + i, 1 + i] = J.diag[i]
        if i > 0:
            A[1 + i, i] = J.sub[i - 1]
        for a in range(NUM_ACC):
            A[dim + a, 1 + i] = J.acc[a][i]
    return A


def repr_lines(rows) -> bytes:
    """``",".join(map(repr, row)) + "\\n"`` for each row of Python ints and floats: the text of a CSV body."""
    return "".join(",".join(map(repr, row)) + "\n" for row in rows).encode("ascii")
