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

The field needs four weighted sums of the cohorts: the ingestion sum
``x (k . M)``, the release sum ``(i q) . M`` and the accumulator rates
``(p + q) . M`` and ``(i p) . M``.  One ``np.vecdot`` of a stack of the four
weight rows against ``M`` forms them, the BLAS dot per row that ``.dot``
makes.  So the ingestion sum is ``x (k . M)``, not a sum of the products
``x k_i M_i`` that the cohort rows use: the two are equal in real arithmetic
and meet the same summation error bound, but differ in their last bits.

The field is defined once, by :func:`augmented_field`, on the phase state
extended with running integrals that the balance identities need:

    A1(t) = int_0^t sum_i (p_i + q_i) M_i        (total loss)
    A2(t) = int_0^t sum_i i p_i M_i              (quartz removed by the escalator)

so the integration state is phase + A1 + A2.  These are the integrals the
balances read, and no others: every co-integrated slot enters the stepper's
error norm and the BDF Newton solve.  The tail identities' boundary flux is
a Gauss quadrature of the dense output, like their other integrals.

A1 and A2 stay in the state although the balances could read the same
integrals from a quadrature of the dense output: a prototype that did so
kept every balance within 1.8e-8, but the two slots start at zero, so
under ``abs_tol`` they set BDF's starting-step rule.  Without them BDF's
first step on the decay-oracle chain of the integrator tests grew 27x
(8.58e-8 to 2.30e-6); that test's dense-derivative error rose from 5.8e-7
to 1.56e-5, above its 5e-6 bound, and ``differential_form`` on a BDF
``verify`` with ``t_end = 1e-4`` rose from 2.97e-8 to 1.55e-5, above the
CLI's 1e-5 threshold.

The Jacobian is O(n) closed-form blocks (:class:`JacobianBlocks`): the border row
and column of ``x``, the lower bidiagonal cohort block and the two
accumulator rows over the cohorts.  :meth:`TruncatedSystem.rhs` and
:func:`eval_jacobian` return the phase part of that one field; the Jacobian's
entries are written once, in the field's ``jac``.  :func:`eval_jacobian` is
the only place that imports scipy: it assembles the phase blocks into a
sparse matrix.

``TruncatedSystem.rhs`` and ``eval_jacobian`` are pure functions of their
arguments and safe to call concurrently.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Tuple

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
NUM_ACC = 2


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

    @cached_property
    def _runs(self) -> weakref.WeakValueDictionary:
        """The live trajectories of :func:`~silkin.integrator.integrate` on this system, by start, end and config."""
        return weakref.WeakValueDictionary()

    def __getstate__(self) -> dict:
        """Copies and pickles carry the fields only: a copy starts with no cached field and no live runs."""
        return {"params": self.params, "rates": self.rates}

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
    acc: np.ndarray      # dA/dM, one row per accumulator


def augmented_field(sys: TruncatedSystem) -> Tuple[Callable, Callable]:
    """``(rhs, jac)`` of the field on ``(x, M_0 .. M_n, A1, A2)``.

    Both take ``(t, z)`` as the steppers call them; ``jac`` returns
    :class:`JacobianBlocks`.  The coefficient arrays are bound here, once.
    ``rhs(t, z, out)`` writes every slot of the row ``out`` (the length of
    ``z``, not overlapping it) and returns ``out``; its temporaries are two
    scratch rows and a 4-slot scratch of this field, so calls with ``out``
    must not overlap in time.  Without ``out`` it returns a new row and
    shares nothing with another call.  Both forms make the same
    floating-point operations in the same order.  The four sums against
    ``M`` come from one ``np.vecdot`` of the bound weight rows ``k`` (masked),
    ``i q``, ``p + q`` and ``i p``; dx/dt is ``alpha - x (k . M) + (i q) . M``.
    """
    dim = sys.dimension
    r = sys.params.r
    alpha = sys.params.alpha
    k = sys.k_masked
    loss = sys.loss
    i = np.arange(sys.n + 1, dtype=float)
    iq = i * sys.rates.q
    # The four weights the field sums against M: ingestion, release, then the accumulator rows.
    weights = np.stack((k, iq, loss, i * sys.rates.p))
    weights.setflags(write=False)
    acc_rows = weights[2:]
    # The out form's temporaries: ``[r, x k_0 M_0, .., x k_n M_n]``, so that the inflow of cohort i is entry
    # i and its ingestion entry i + 1, the losses (p + q) M, and the four sums.
    inflows = np.empty(dim)
    inflows[0] = r
    scratch = inflows[:-1], inflows[1:], np.empty(dim - 1), np.empty(4)

    def rhs(t: float, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        # Every slot of ``out`` is written below; the operations and their order are fixed
        # (tests/oracles.py::reference_augmented_rhs pins the bits).  The sums stay numpy
        # float64 scalars, so an overflow of x (k.M) raises under integrate's errstate.
        if out is None:
            out, inflows, lost, sums = np.empty_like(z), np.empty(dim), np.empty(dim - 1), np.empty(4)
            inflows[0] = r
            inflow, flow = inflows[:-1], inflows[1:]
        else:
            inflow, flow, lost, sums = scratch
        x = z[0]
        M = z[1:dim]
        np.multiply(k, x, out=flow)
        flow *= M
        cohorts = out[1:dim]
        np.subtract(inflow, flow, out=cohorts)
        cohorts -= np.multiply(loss, M, out=lost)
        np.vecdot(weights, M, out=sums)
        out[0] = alpha - x * sums[0] + sums[1]
        if len(z) == dim:  # phase state only, as TruncatedSystem.rhs passes it
            return out
        out[dim + ACC_TOTAL_LOSS] = sums[2]
        out[dim + ACC_QUARTZ_REMOVED] = sums[3]
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
