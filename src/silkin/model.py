"""Core types: model parameters, rate coefficients, phase states and weighted norms.

The model tracks a free-quartz concentration ``x`` together with cohort
concentrations ``M_0, M_1, ..., M_n`` of macrophages carrying exactly ``i``
quartz particles.  Everything downstream (vector field assembly, integration,
moment bookkeeping) works on the layout ``(x, M_0, ..., M_n)``.

The natural norms are the weighted sums

    ||y||_mu = |x| + sum_{i>=0} (i+1)^mu |M_i|,

``mu = 1`` being the total-matter norm in which solutions grow at most
linearly in time.

All types here are immutable after construction and safe to share across
threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "ModelParams",
    "CoefficientFamily",
    "RateTable",
    "State",
    "MomentWeights",
    "InitialData",
    "realize_coefficients",
    "weighted_norm",
]


def _frozen_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ModelParams:
    """External supply rates.

    Parameters
    ----------
    r:
        Supply rate of fresh (empty) macrophages [concentration/time].
    alpha:
        Inhalation rate of quartz particles [concentration/time].
    """

    r: float
    alpha: float

    def __post_init__(self) -> None:
        for name in ("r", "alpha"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class CoefficientFamily:
    """A rule producing one nonnegative rate sequence of any requested length.

    There are two kinds.  ``power_law`` realizes ``a * (i+1)**exponent`` (the
    ``i+1`` base keeps the i=0 entry nonzero, so empty macrophages can
    ingest), and ``table`` copies an explicit sequence and extends it past its
    length by its last value.  :meth:`constant` names the power law of
    exponent 0 (``a`` for every i).  A field of another kind (``values`` on a
    power law, ``amplitude`` or ``exponent`` on a table) is refused, not
    dropped, so ``exponent`` is always the growth class of the realized
    sequence: a table is bounded, and its exponent is 0.
    """

    kind: str
    amplitude: float = 0.0
    exponent: float = 0.0
    values: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in ("power_law", "table"):
            raise ValueError(f"unknown coefficient family kind {self.kind!r}")
        if self.kind == "power_law":
            if len(self.values):
                raise ValueError(f"a power_law family takes no values, got {self.values}")
            if not (math.isfinite(self.amplitude) and self.amplitude >= 0.0):
                raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")
            if not (math.isfinite(self.exponent) and self.exponent >= 0.0):
                raise ValueError(f"exponent must be finite and >= 0, got {self.exponent}")
        else:
            for name in ("amplitude", "exponent"):
                if getattr(self, name) != 0.0:
                    raise ValueError(f"a table family takes no {name}, got {getattr(self, name)}")
            if len(self.values) == 0:
                raise ValueError("table family needs at least one value")
            vals = np.asarray(self.values, dtype=float)
            if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
                raise ValueError("table values must be finite and >= 0")

    @classmethod
    def power_law(cls, amplitude: float, exponent: float) -> "CoefficientFamily":
        return cls(kind="power_law", amplitude=amplitude, exponent=exponent)

    @classmethod
    def constant(cls, amplitude: float) -> "CoefficientFamily":
        """The power law of exponent 0: ``amplitude`` for every i."""
        return cls.power_law(amplitude, 0.0)

    @classmethod
    def table(cls, values: Sequence[float]) -> "CoefficientFamily":
        return cls(kind="table", values=tuple(float(v) for v in values))

    def realize(self, n: int) -> np.ndarray:
        """Realize entries ``i = 0 .. n`` as a fresh float array."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if self.kind == "table":
            out = np.full(n + 1, self.values[-1])
            out[: len(self.values)] = self.values[: n + 1]
            return out
        # i + 1 as a cumulative sum of ones: for a length near 2**63 arange returns no entries, where ones raises
        return self.amplitude * np.cumsum(np.ones(n + 1)) ** self.exponent


@dataclass(frozen=True, eq=False)
class RateTable:
    """Realized coefficient sequences up to a truncation order.

    ``k`` is the phagocytosis rate ladder, ``p`` the escalator removal rates
    and ``q`` the death/release rates, each of length ``n + 1``.  The vector
    field builder treats ``k[n]`` as zero (the truncation convention); the
    stored value is kept for tail diagnostics.  ``gamma`` records the growth
    class of the ``k`` family, its ``exponent`` (needed by the
    ``(1+gamma)``-weighted norms).
    """

    n: int
    k: np.ndarray
    p: np.ndarray
    q: np.ndarray
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"truncation order must be >= 2, got {self.n}")
        for name in ("k", "p", "q"):
            arr = _frozen_array(getattr(self, name), name)
            if arr.shape != (self.n + 1,):
                raise ValueError(f"{name} must have length n+1 = {self.n + 1}, got {arr.shape[0]}")
            if np.any(arr < 0.0):
                raise ValueError(f"{name} entries must be >= 0")
            object.__setattr__(self, name, arr)


def realize_coefficients(
    family_k: CoefficientFamily,
    family_p: CoefficientFamily,
    family_q: CoefficientFamily,
    n: int,
) -> RateTable:
    """Instantiate the three coefficient families at truncation order ``n``.

    Role-specific growth constraints are enforced here, on each family's
    ``exponent`` (its growth class, 0 for a table): the phagocytosis exponent
    must lie in [0, 1] (the regime where the weighted norms control
    uniqueness) and becomes the rate table's ``gamma``, the removal rates
    ``p`` must be bounded (exponent 0), and the death rates ``q`` may grow at
    any polynomial order.  The order's own rule, ``n >= 2``, is :class:`RateTable`'s, which
    raises its ``ValueError``.
    """
    if not (0.0 <= family_k.exponent <= 1.0):
        raise ValueError(f"k exponent must lie in [0, 1], got {family_k.exponent}")
    if family_p.exponent != 0.0:
        raise ValueError(f"p must be bounded (exponent 0), got exponent {family_p.exponent}")
    return RateTable(
        n=n,
        k=family_k.realize(n),
        p=family_p.realize(n),
        q=family_q.realize(n),
        gamma=family_k.exponent,
    )


@dataclass(frozen=True, eq=False)
class State:
    """A truncated phase point ``(x, M_0 .. M_n)`` at time ``t``.

    States live in the nonnegative cone: constructing one with a negative
    component is rejected.  ``M`` is stored read-only.
    """

    t: float
    x: float
    M: np.ndarray

    def __post_init__(self) -> None:
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")
        if not (math.isfinite(self.x) and self.x >= 0.0):
            raise ValueError(f"x must be finite and >= 0, got {self.x}")
        M = _frozen_array(self.M, "M")
        if np.any(M < 0.0):
            raise ValueError("cohort concentrations must be >= 0")
        object.__setattr__(self, "M", M)

    @property
    def n(self) -> int:
        """Largest cohort index carried by this state."""
        return len(self.M) - 1

    def vector(self) -> np.ndarray:
        """Copy out the flat layout ``[x, M_0, ..., M_n]``."""
        return np.concatenate(([self.x], self.M))


def weighted_norm(x, M: np.ndarray, mu: float = 1.0):
    """``|x| + sum_i (i+1)^mu |M_i|`` on raw components (no cone restriction).

    ``M`` of shape ``(n+1, G)``, cohorts on the first axis, with ``x`` of
    shape ``(G,)`` gives the ``G`` column norms as an array.
    """
    M = np.asarray(M, dtype=float)
    w = (np.arange(len(M)) + 1.0) ** mu
    norm = np.abs(x) + w @ np.abs(M)
    return norm if norm.ndim else float(norm)


@dataclass(frozen=True, eq=False)
class MomentWeights:
    """A weight sequence ``g_0 .. g_n``.

    The exact moment identities hold for any real weights (so flat weights
    are legitimate inputs there).  The exponential envelope states its own
    rules on them against the run's rate table, and derives the growth
    constant ``C`` of ``(g_{i+1} - g_i) * k_i <= C * g_i`` there
    (:func:`silkin.moments.gronwall_check`).
    """

    g: np.ndarray

    def __post_init__(self) -> None:
        g = _frozen_array(self.g, "g")
        if len(g) < 2:
            raise ValueError("need at least two weights")
        object.__setattr__(self, "g", g)

    @classmethod
    def ones(cls, n: int) -> "MomentWeights":
        """Flat weights g_i = 1 (telescoping identity; no positive increment)."""
        return cls(g=np.ones(n + 1))

    @classmethod
    def linear(cls, n: int) -> "MomentWeights":
        """Weights g_i = i: g_0 = 0, so no finite growth constant holds once k_0 > 0."""
        return cls(g=np.arange(n + 1, dtype=float))

    @classmethod
    def power(cls, n: int, mu: float, rates: Optional[RateTable] = None) -> "MomentWeights":
        """Weights g_i = (i+1)^mu.  ``rates`` is accepted and not read."""
        if mu < 1.0:
            raise ValueError(f"mu must be >= 1, got {mu}")
        return cls(g=(np.arange(n + 1, dtype=float) + 1.0) ** mu)


@dataclass(frozen=True)
class InitialData:
    """Initial-data prescription: explicit cohort list or geometric decay ``M_i = b * rho**i``.

    The prescription is independent of the truncation order, so the same data
    can be projected onto every rung of a truncation ladder.
    """

    x0: float = 0.0
    M: Optional[tuple] = None
    b: Optional[float] = None
    rho: Optional[float] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x0) and self.x0 >= 0.0):
            raise ValueError(f"x0 must be finite and >= 0, got {self.x0}")
        explicit = self.M is not None
        decay = self.b is not None or self.rho is not None
        if explicit == decay:
            raise ValueError("give exactly one of an explicit M list or a (b, rho) decay")
        if explicit:
            arr = np.asarray(self.M, dtype=float)
            if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
                raise ValueError("explicit cohorts must be finite and >= 0")
            object.__setattr__(self, "M", tuple(float(v) for v in arr))
        else:
            if self.b is None or self.rho is None:
                raise ValueError("decay data needs both b and rho")
            if not (math.isfinite(self.b) and self.b >= 0.0):
                raise ValueError(f"b must be finite and >= 0, got {self.b}")
            if not (0.0 <= self.rho < 1.0):
                raise ValueError(f"rho must lie in [0, 1), got {self.rho}")

    def realize(self, n: int) -> np.ndarray:
        """Cohorts 0..n; explicit lists are zero-padded or truncated (projection)."""
        out = np.zeros(n + 1)
        if self.M is not None:
            m = min(len(self.M), n + 1)
            out[:m] = self.M[:m]
        else:
            out[:] = self.b * np.asarray(self.rho, dtype=float) ** np.arange(n + 1)
        return out

    def state(self, n: int) -> State:
        """The data projected onto cohorts ``0..n``, at time 0."""
        return State(t=0.0, x=self.x0, M=self.realize(n))
