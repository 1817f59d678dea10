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


class SettingError(ValueError):
    """Broken rules of some settings, one message each, led by the field's name."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


def check_settings(rules) -> None:
    """Raise SettingError naming every (ok, message) rule whose ok is false."""
    if bad := [message for ok, message in rules if not ok]:
        raise SettingError(bad)


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
        if not 0 < self.content_bits < np.inf:
            raise SchemeValueError("content size must be positive and finite")


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
    return float(scheme_costs(outcome.n_c[None], outcome.gamma[None], outcome.v[None],
                              scheme.s[None], w)[0])


def scheme_costs(n_c, gamma, v, s, w: CostWeights) -> np.ndarray:
    """`scheme_cost` of C outcomes and strategies stacked on a first axis:
    n_c, v and s are (C, L, T) and gamma (C, L, T, U).  Each total is a sum
    over its own (L, T) block, so it equals the lone cost bit for bit."""
    theta = np.broadcast_to(np.asarray(w.theta, dtype=float), gamma.shape[1:])
    comm = (theta * gamma).sum(axis=3)                     # (C, L, T)
    usage = np.array([x.sum() for x in w.d_t * w.content_bits * (n_c + w.beta * comm)])
    usage /= w.d_t.sum()
    seeding = w.delta * w.content_bits * np.array([x.sum() for x in np.maximum(s - v, 0.0)])
    return usage + seeding


def safe_ratio(num, den, fill):
    """num / den elementwise where den > 0, `fill` elsewhere: the form of
    every success ratio and availability in the package."""
    return np.where(den > 0, num / np.maximum(den, 1e-300), fill)


def zoi_alpha(n_c, n, zoi) -> np.ndarray:
    """Success ratio: the ZOI links' content holders over their nodes, from
    per-link rows of (L, T) or (L,) holder and node counts; per interval,
    NaN where the ZOI has no nodes."""
    z = np.asarray(sorted(zoi), dtype=np.int64)
    return safe_ratio(n_c[z].sum(axis=0), n[z].sum(axis=0), np.nan)


def is_feasible(outcome, req: ServiceRequest) -> bool:
    """True iff the success ratio meets alpha0 in every interval; an interval
    with no ZOI traffic counts as infeasible."""
    return bool(np.all(zoi_alpha(outcome.n_c, outcome.n, req.zoi) >= req.alpha0))
