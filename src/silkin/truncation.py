"""Truncated vector field and its Jacobian.

At truncation order ``n`` the dynamics on ``(x, M_0 .. M_n)`` are

    dM_0/dt = r - k_0 x M_0 - (p_0 + q_0) M_0
    dM_i/dt = k_{i-1} x M_{i-1} - k_i x M_i - (p_i + q_i) M_i    (1 <= i <= n-1)
    dM_n/dt = k_{n-1} x M_{n-1} - (p_n + q_n) M_n
    dx/dt   = alpha - x * sum_{i<=n-1} k_i M_i + sum_{i<=n} i q_i M_i

i.e. the stored ``k_n`` is masked to zero, the ingestion sum in dx/dt stops at
``n - 1`` while the release sum runs to ``n`` inclusive.  Cohorts above ``n``
would stay identically zero, which is what makes the finite system a
self-consistent approximation of the infinite one.

The field is defined once, by :func:`augmented_field`, on the phase state
extended with running integrals that the balance identities need:

    A1(t) = int_0^t sum_i (p_i + q_i) M_i        (total loss)
    A2(t) = int_0^t sum_i i p_i M_i              (quartz removed by the escalator)

plus one flux integral F_m(t) = int_0^t x k_{m-1} M_{m-1} per requested
cohort boundary ``m``.  These are the integrals the balance and tail
identities read, and no others: every co-integrated slot enters the
stepper's error norm and the BDF Newton matrix.  The Jacobian has a fixed
sparsity pattern: the border row and column of ``x``, the lower bidiagonal
cohort block, the two accumulator rows over the cohorts and two entries per
flux row, O(n) stored entries.  :meth:`TruncatedSystem.rhs`,
:func:`eval_rhs` and :func:`eval_jacobian` return the phase part of that one
field; the Jacobian's closed-form entries are written once, in the field's
``jac``.  scipy's sparse module is imported only when a Jacobian matrix is
built.

``eval_rhs`` and ``eval_jacobian`` are pure functions of their arguments and
safe to call concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence, Tuple

import numpy as np

from .model import ModelParams, RateTable, State

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "TruncatedSystem",
    "BandedBorderJacobian",
    "augmented_field",
    "eval_rhs",
    "eval_jacobian",
]

# Accumulator slots appended after the phase components.
ACC_TOTAL_LOSS = 0        # A1
ACC_QUARTZ_REMOVED = 1    # A2
NUM_BASE_ACC = 2


@dataclass(frozen=True, eq=False)
class TruncatedSystem:
    """A rate table plus supply rates, fixed at one truncation order."""

    params: ModelParams
    rates: RateTable

    @property
    def n(self) -> int:
        return self.rates.n

    @property
    def dimension(self) -> int:
        """Phase dimension n + 2 with layout ``(x, M_0 .. M_n)``."""
        return self.rates.n + 2

    # Derived coefficient arrays shared by the field and its Jacobian.
    # Cached once; read-only.
    @cached_property
    def k_masked(self) -> np.ndarray:
        k = self.rates.k.copy()
        k[-1] = 0.0
        k.setflags(write=False)
        return k

    @cached_property
    def loss(self) -> np.ndarray:
        pq = self.rates.p + self.rates.q
        pq.setflags(write=False)
        return pq

    @cached_property
    def i_times_p(self) -> np.ndarray:
        ip = np.arange(self.n + 1, dtype=float) * self.rates.p
        ip.setflags(write=False)
        return ip

    @cached_property
    def i_times_q(self) -> np.ndarray:
        iq = np.arange(self.n + 1, dtype=float) * self.rates.q
        iq.setflags(write=False)
        return iq

    @cached_property
    def _phase_field(self):
        return augmented_field(self)

    def rhs(self, v: np.ndarray) -> np.ndarray:
        """Vector field on the flat layout ``[x, M_0, ..., M_n]``."""
        if v.shape != (self.dimension,):
            raise ValueError(f"expected state vector of length {self.dimension}, got {v.shape}")
        return self._phase_field[0](0.0, v)


def augmented_field(sys: TruncatedSystem, flux_orders: Sequence[int] = ()) -> Tuple[Callable, Callable]:
    """``(rhs, jac)`` of the field on ``(x, M_0 .. M_n, A1, A2, F_m ..)``.

    Both take ``(t, z)`` as the steppers call them.  The coefficient
    arrays and the Jacobian's ``(rows, cols)`` pattern are bound here, once;
    each ``jac`` call computes the entries and lets scipy assemble the CSC.
    """
    dim = sys.dimension
    size = dim + NUM_BASE_ACC + len(flux_orders)
    r = sys.params.r
    alpha = sys.params.alpha
    k = sys.k_masked
    loss = sys.loss
    loss_0 = float(loss[0])
    loss_tail = loss[1:]
    ip = sys.i_times_p
    iq = sys.i_times_q
    flux_idx = np.array([m - 1 for m in flux_orders], dtype=int)
    add = np.add.reduce

    def rhs(t: float, z: np.ndarray) -> np.ndarray:
        # Every slot of ``out`` is written below; the operations and their order are fixed
        # (tests/oracles.py::reference_augmented_rhs pins the bits).
        x = z[0]
        M = z[1:dim]
        flow = x * k
        flow *= M
        out = np.empty_like(z)
        out[1] = r - flow[0] - loss_0 * M[0]
        tail = out[2:dim]
        np.subtract(flow[:-1], flow[1:], out=tail)
        tail -= loss_tail * M[1:]
        out[0] = alpha - add(flow) + iq.dot(M)
        if len(z) == dim:  # phase state only, as TruncatedSystem.rhs passes it
            return out
        out[dim + ACC_TOTAL_LOSS] = loss.dot(M)
        out[dim + ACC_QUARTZ_REMOVED] = ip.dot(M)
        if len(flux_idx):
            out[dim + NUM_BASE_ACC:] = flow[flux_idx]
        return out

    # (rows, cols) of each block, in the order jac() lists the values.
    cohorts = np.arange(1, dim)
    flux_rows = dim + NUM_BASE_ACC + np.arange(len(flux_orders))
    blocks = [
        ([0], [0]),                                  # d(dx/dt)/dx
        (np.zeros(dim - 1), cohorts),                # d(dx/dt)/dM
        (cohorts, np.zeros(dim - 1)),                # d(dM/dt)/dx
        (cohorts, cohorts),                          # diagonal of the M block
        (cohorts[1:], cohorts[:-1]),                 # its subdiagonal
        *((np.full(dim - 1, dim + a), cohorts) for a in range(NUM_BASE_ACC)),  # dA/dM
        (flux_rows, np.zeros(len(flux_orders))),     # dF_m/dx
        (flux_rows, flux_idx + 1),                   # dF_m/dM_{m-1}
    ]
    rows = np.concatenate([b[0] for b in blocks]).astype(np.int32)
    cols = np.concatenate([b[1] for b in blocks]).astype(np.int32)

    def jac(t: float, z: np.ndarray) -> scipy.sparse.csc_matrix:
        import scipy.sparse

        x = z[0]
        M = z[1:dim]
        kM = k * M
        dM_dx = np.empty(dim - 1)
        dM_dx[0] = -kM[0]
        dM_dx[1:] = kM[:-1] - kM[1:]
        values = np.concatenate([
            [-(k @ M)],
            iq - k * x,
            dM_dx,
            -(k * x + loss),
            k[:-1] * x,
            loss,
            ip,
            kM[flux_idx],
            x * k[flux_idx],
        ])
        return scipy.sparse.csc_matrix((values, (rows, cols)), shape=(size, size))

    return rhs, jac


@dataclass(frozen=True, eq=False)
class BandedBorderJacobian:
    """Phase Jacobian: the border row/column of ``x`` around a lower bidiagonal M block."""

    matrix: scipy.sparse.csc_matrix

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def to_sparse(self) -> scipy.sparse.csc_matrix:
        return self.matrix


def eval_rhs(sys: TruncatedSystem, s: State) -> np.ndarray:
    """Time derivative ``(dx/dt, dM_0/dt, ..., dM_n/dt)`` at a state."""
    if s.n != sys.n:
        raise ValueError(f"state carries cohorts 0..{s.n} but the system expects 0..{sys.n}")
    return sys.rhs(s.vector())


def eval_jacobian(sys: TruncatedSystem, s: State) -> BandedBorderJacobian:
    """Jacobian of :func:`eval_rhs` with respect to ``(x, M_0 .. M_n)``.

    It is the leading phase block of the augmented field's sparse Jacobian.
    """
    if s.n != sys.n:
        raise ValueError(f"state carries cohorts 0..{s.n} but the system expects 0..{sys.n}")
    d = sys.dimension
    return BandedBorderJacobian(sys._phase_field[1](0.0, s.vector())[:d, :d])
