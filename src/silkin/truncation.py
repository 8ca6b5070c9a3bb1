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
stepper's error norm and the BDF Newton solve.  The Jacobian is O(n) closed-form
blocks (:class:`JacobianBlocks`): the border row and column of ``x``, the lower
bidiagonal cohort block, the two accumulator rows over the cohorts and two
entries per flux row.  :meth:`TruncatedSystem.rhs` and :func:`eval_jacobian`
return the phase part of that one field; the Jacobian's entries are written
once, in the field's ``jac``.  :func:`eval_jacobian` is the only place that
imports scipy: it assembles the phase blocks into a sparse matrix.

``TruncatedSystem.rhs`` and ``eval_jacobian`` are pure functions of their
arguments and safe to call concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence, Tuple

import numpy as np

from .model import ModelParams, RateTable, State

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "TruncatedSystem",
    "BandedBorderJacobian",
    "JacobianBlocks",
    "augmented_field",
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
    def _phase_field(self):
        return augmented_field(self)

    def rhs(self, v: np.ndarray) -> np.ndarray:
        """Vector field on the flat layout ``[x, M_0, ..., M_n]``."""
        if v.shape != (self.dimension,):
            raise ValueError(f"expected state vector of length {self.dimension}, got {v.shape}")
        return self._phase_field[0](0.0, v)


class JacobianBlocks(NamedTuple):
    """The nonzero entries of the augmented field's Jacobian, block by block.

    Phase rows and columns are ``(x, M_0 .. M_n)``; ``sub[i]`` is
    ``d(dM_{i+1}/dt)/dM_i``.  Nothing depends on an accumulator, so the
    accumulator columns are zero.
    """

    corner: float        # d(dx/dt)/dx
    row: np.ndarray      # d(dx/dt)/dM
    col: np.ndarray      # d(dM/dt)/dx
    diag: np.ndarray     # diagonal of the M block
    sub: np.ndarray      # its subdiagonal
    acc: np.ndarray      # dA/dM, one row per base accumulator
    flux_x: np.ndarray   # dF_m/dx
    flux_M: np.ndarray   # dF_m/dM_{m-1}
    flux_cohorts: np.ndarray  # m - 1 for each flux row


def augmented_field(sys: TruncatedSystem, flux_orders: Sequence[int] = ()) -> Tuple[Callable, Callable]:
    """``(rhs, jac)`` of the field on ``(x, M_0 .. M_n, A1, A2, F_m ..)``.

    Both take ``(t, z)`` as the steppers call them; ``jac`` returns
    :class:`JacobianBlocks`.  The coefficient arrays are bound here, once.
    """
    dim = sys.dimension
    r = sys.params.r
    alpha = sys.params.alpha
    k = sys.k_masked
    loss = sys.loss
    loss_0 = float(loss[0])
    loss_tail = loss[1:]
    i = np.arange(sys.n + 1, dtype=float)
    ip = i * sys.rates.p
    iq = i * sys.rates.q
    flux_idx = np.array([m - 1 for m in flux_orders], dtype=int)
    acc_rows = np.stack((loss, ip))
    acc_rows.setflags(write=False)
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

    def jac(t: float, z: np.ndarray) -> JacobianBlocks:
        x = z[0]
        M = z[1:dim]
        kM = k * M
        kx = k * x
        col = np.empty(dim - 1)
        col[0] = -kM[0]
        np.subtract(kM[:-1], kM[1:], out=col[1:])
        return JacobianBlocks(
            corner=-(k @ M),
            row=iq - kx,
            col=col,
            diag=-(kx + loss),
            sub=kx[:-1],
            acc=acc_rows,
            flux_x=kM[flux_idx],
            flux_M=kx[flux_idx],
            flux_cohorts=flux_idx,
        )

    return rhs, jac


@dataclass(frozen=True, eq=False)
class BandedBorderJacobian:
    """Phase Jacobian: the border row/column of ``x`` around a lower bidiagonal M block."""

    matrix: scipy.sparse.csc_matrix

    def to_sparse(self) -> scipy.sparse.csc_matrix:
        return self.matrix


def eval_jacobian(sys: TruncatedSystem, s: State) -> BandedBorderJacobian:
    """Jacobian of :meth:`TruncatedSystem.rhs` with respect to ``(x, M_0 .. M_n)``.

    The phase blocks of the augmented field's ``jac``, assembled by scipy
    from their ``(rows, cols)``.
    """
    import scipy.sparse

    if s.n != sys.n:
        raise ValueError(f"state carries cohorts 0..{s.n} but the system expects 0..{sys.n}")
    d = sys.dimension
    J = sys._phase_field[1](0.0, s.vector())
    cohorts = np.arange(1, d)
    zeros = np.zeros(d - 1, dtype=int)
    # (rows, cols) of corner, border row, border column, diagonal and subdiagonal, in that order.
    rows = np.concatenate(([0], zeros, cohorts, cohorts, cohorts[1:]))
    cols = np.concatenate(([0], cohorts, zeros, cohorts, cohorts[:-1]))
    values = np.concatenate(([J.corner], J.row, J.col, J.diag, J.sub))
    return BandedBorderJacobian(scipy.sparse.csc_matrix((values, (rows, cols)), shape=(d, d)))
