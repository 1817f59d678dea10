"""Keyed, counter-style randomness.

Every stochastic event in a simulation run is decided by hashing a stable
event key (event kind, entity ids, tick) together with the run seed.  Two
runs with the same seed therefore draw identical randomness for identical
events no matter what happens around them, which is what makes per-event
couplings between runs exact instead of merely statistical.
"""

from __future__ import annotations

import numpy as np

# Event kinds; keep values stable, they are part of the reproducibility contract.
KIND_SEED_PRIORITY = 1
KIND_ENTRY_KEEP = 2
KIND_SEND = 3
KIND_RECV_KEEP = 4
KIND_PARTNER = 5

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = np.uint64(30), np.uint64(27), np.uint64(31), np.uint64(11)


def _finalize(x: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer: full avalanche on 64 bits
    x = (x ^ (x >> _S30)) * _MUL1
    x = (x ^ (x >> _S27)) * _MUL2
    return x ^ (x >> _S31)


def _as_u64(v) -> np.ndarray:
    a = np.asarray(v)
    if a.dtype.kind == "i":
        return a.astype(np.int64, copy=False).view(np.uint64)
    if a.dtype.kind == "u":
        return a.astype(np.uint64, copy=False)
    return np.asarray(a, dtype=np.int64).view(np.uint64)


def key_prefix(seed, kind) -> np.ndarray:
    """Hash of the (seed, kind) head of an event key (uint64, broadcast over
    array arguments).  Draws that share it hash only their ids and tick, so
    a batch of runs hashes each run's head once."""
    with np.errstate(over="ignore"):
        h = _finalize(_as_u64(seed) + _GAMMA)
        return _finalize((h + _GAMMA) ^ _as_u64(kind))


def keyed_u01_at(prefix, id_a, id_b, tick) -> np.ndarray:
    """Uniform [0, 1) draws keyed by a `key_prefix` and (id_a, id_b, tick);
    every argument broadcasts, so one call can draw for many runs."""
    with np.errstate(over="ignore"):
        h = _finalize((np.asarray(prefix, dtype=np.uint64) + _GAMMA) ^ _as_u64(id_a))
        h = _finalize((h + _GAMMA) ^ _as_u64(id_b))
        h = _finalize((h + _GAMMA) ^ _as_u64(tick))
    return (h >> _S11).astype(np.float64) * (2.0 ** -53)


def keyed_u01(seed: int, kind: int, id_a, id_b, tick) -> np.ndarray:
    """Uniform [0, 1) draws keyed by (seed, kind, id_a, id_b, tick).

    All id/tick arguments broadcast; the result has the broadcast shape
    (a 0-d array for all-scalar input, so use float() if a scalar is wanted).
    """
    return keyed_u01_at(key_prefix(seed, kind), id_a, id_b, tick)


def derive_seed(seed: int, *fields: int) -> int:
    """Deterministic child seed for spawning numpy Generators."""
    with np.errstate(over="ignore"):
        h = _finalize(_as_u64(seed) + _GAMMA)
        for f in fields:
            h = _finalize((h + _GAMMA) ^ _as_u64(f))
    return int(h)
