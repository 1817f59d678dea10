"""Strategy representation and the resource-cost objective.

A strategy assigns each (link, interval) a triple: replication probability a,
caching probability b, and seeding ratio s, all in [0, 1].  The cost of a
simulated outcome combines time-normalized storage and transmission terms
with an un-normalized infrastructure-seeding term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SchemeValueError(ValueError):
    pass


class CostShapeError(ValueError):
    pass


@dataclass
class FcScheme:
    """An L-by-T array of (a, b, s) triples in [0, 1]."""
    a: np.ndarray
    b: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.s = np.asarray(self.s, dtype=float)
        if not (self.a.shape == self.b.shape == self.s.shape):
            raise SchemeValueError("a, b, s must share one (L, T) shape")
        if self.a.ndim != 2 or min(self.a.shape) < 1:
            raise SchemeValueError(f"scheme needs positive L and T, got {self.a.shape}")
        for name, arr in (("a", self.a), ("b", self.b), ("s", self.s)):
            if np.any(arr < 0) or np.any(arr > 1) or not np.all(np.isfinite(arr)):
                raise SchemeValueError(f"{name} entries must lie in [0, 1]")

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def dominates(self, other: "FcScheme") -> bool:
        """Componentwise >= in all of (a, b, s)."""
        return bool(np.all(self.a >= other.a) and np.all(self.b >= other.b)
                    and np.all(self.s >= other.s))

    def tail(self, t0: int) -> "FcScheme":
        """Sub-scheme for intervals t0..T (1-based t0)."""
        return FcScheme(self.a[:, t0 - 1:].copy(), self.b[:, t0 - 1:].copy(),
                        self.s[:, t0 - 1:].copy())

    def perturbed(self, sigma: float, generator: np.random.Generator) -> "FcScheme":
        """Gaussian-perturbed copy, clamped back into [0, 1]."""
        return FcScheme(*(np.clip(x + generator.normal(0.0, sigma, x.shape), 0.0, 1.0)
                          for x in (self.a, self.b, self.s)))

    def copy(self) -> "FcScheme":
        return FcScheme(self.a.copy(), self.b.copy(), self.s.copy())


def all_on(L: int, T: int) -> FcScheme:
    """Replicate everywhere, never drop, seed everyone: the feasibility oracle."""
    if L < 1 or T < 1:
        raise SchemeValueError("L and T must be >= 1")
    return FcScheme(np.ones((L, T)), np.ones((L, T)), np.ones((L, T)))


def all_zero(L: int, T: int) -> FcScheme:
    if L < 1 or T < 1:
        raise SchemeValueError("L and T must be >= 1")
    return FcScheme(np.zeros((L, T)), np.zeros((L, T)), np.zeros((L, T)))


@dataclass
class CostWeights:
    """Coefficients of the resource-cost objective."""
    d_t: np.ndarray                   # (T,) interval durations in seconds
    content_bits: float               # content size D in bits
    beta: float = 1.0
    delta: float = 1.0
    theta: np.ndarray | float = 1.0   # scalar or (L, T, U)

    def __post_init__(self):
        self.d_t = np.asarray(self.d_t, dtype=float)
        if self.beta < 0 or self.delta < 0:
            raise SchemeValueError("beta and delta must be non-negative")
        if np.any(np.asarray(self.theta) < 0):
            raise SchemeValueError("theta must be non-negative")
        if self.d_t.sum() <= 0:
            raise SchemeValueError("total floating period must be positive")
        if self.content_bits <= 0:
            raise SchemeValueError("content size must be positive")


@dataclass
class ServiceRequest:
    """An application request: where, how reliably, and for how long."""
    zoi: tuple[int, ...]
    alpha0: float
    d_t: np.ndarray

    def __post_init__(self):
        self.zoi = tuple(sorted(set(int(z) for z in self.zoi)))
        self.d_t = np.asarray(self.d_t, dtype=float)
        if not self.zoi:
            raise SchemeValueError("ZOI must be non-empty")
        if not (0 < self.alpha0 <= 1):
            raise SchemeValueError(f"alpha0 must lie in (0, 1], got {self.alpha0}")
        if len(self.d_t) < 1 or np.any(self.d_t <= 0):
            raise SchemeValueError("floating period needs positive interval durations")


def scheme_cost(outcome, scheme: FcScheme, w: CostWeights) -> float:
    """Storage + weighted transmission cost, time-normalized over the floating
    period, plus the un-normalized infrastructure seeding cost D*[s - v]+."""
    L, T = scheme.shape
    if outcome.n_c.shape != (L, T):
        raise CostShapeError(f"outcome shape {outcome.n_c.shape} != scheme shape {(L, T)}")
    if len(w.d_t) != T:
        raise CostShapeError(f"{len(w.d_t)} interval durations for T={T}")
    theta = np.broadcast_to(np.asarray(w.theta, dtype=float), outcome.gamma.shape)
    comm = (theta * outcome.gamma).sum(axis=2)            # (L, T)
    usage = (w.d_t[None, :] * w.content_bits * (outcome.n_c + w.beta * comm)).sum()
    usage /= w.d_t.sum()
    seeding = w.delta * w.content_bits * np.maximum(scheme.s - outcome.v, 0.0).sum()
    return float(usage + seeding)


def is_feasible(outcome, req: ServiceRequest) -> bool:
    """True iff the success ratio meets alpha0 in every interval; an interval
    with no ZOI traffic counts as infeasible."""
    from .fcsim import zoi_alpha
    return bool(np.all(zoi_alpha(outcome.n_c, outcome.n, req.zoi) >= req.alpha0))
