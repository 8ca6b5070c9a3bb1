"""Independent oracles the tests check the library against.

Everything here is deliberately computed by a different route than the
library uses: closed forms, finite differences, extended-precision summation
and brute-force maxima.  Keeping these independent is the point; do not
"optimize" them by calling back into the solver.
"""
from __future__ import annotations

import numpy as np
import mpmath

from silkin import TruncatedSystem, State
from silkin.truncation import ACC_QUARTZ_REMOVED, ACC_TOTAL_LOSS, NUM_BASE_ACC


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


def reference_augmented_rhs(sys: TruncatedSystem, flux_orders, z: np.ndarray) -> np.ndarray:
    """The augmented field as first written, kept to pin the bits of ``augmented_field``.

    It has lost only the stores of the two accumulators that no check read.
    Its zeroed output and ``ndarray.sum`` are slower
    than the library's field, but every floating-point operation and its
    order is the same, so the two agree bit for bit.
    """
    dim = sys.dimension
    r = sys.params.r
    alpha = sys.params.alpha
    k = sys.k_masked
    loss = sys.loss
    ip = np.arange(sys.n + 1, dtype=float) * sys.rates.p
    iq = np.arange(sys.n + 1, dtype=float) * sys.rates.q
    flux_idx = np.array([m - 1 for m in flux_orders], dtype=int)

    x = z[0]
    M = z[1:dim]
    flow = (x * k) * M
    out = np.zeros_like(z)
    out[1] = r - flow[0] - loss[0] * M[0]
    out[2:dim] = flow[:-1] - flow[1:] - loss[1:] * M[1:]
    total_flow = flow.sum()
    out[0] = alpha - total_flow + iq @ M
    if len(z) == dim:  # phase state only, as TruncatedSystem.rhs passes it
        return out
    out[dim + ACC_TOTAL_LOSS] = loss @ M
    out[dim + ACC_QUARTZ_REMOVED] = ip @ M
    if len(flux_idx):
        out[dim + NUM_BASE_ACC:] = flow[flux_idx]
    return out


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
        for a in range(NUM_BASE_ACC):
            A[dim + a, 1 + i] = J.acc[a][i]
    for j, m in enumerate(J.flux_cohorts):
        A[dim + NUM_BASE_ACC + j, 0] = J.flux_x[j]
        A[dim + NUM_BASE_ACC + j, 1 + m] = J.flux_M[j]
    return A


def repr_lines(rows) -> bytes:
    """``",".join(map(repr, row)) + "\\n"`` for each row of Python ints and floats: the text of a CSV body."""
    return "".join(",".join(map(repr, row)) + "\n" for row in rows).encode("ascii")
