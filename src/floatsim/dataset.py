"""Training-set generation: random strategies, paired simulations, feature
normalization, and an append-friendly on-disk format.

Knowledge of any ZOI or target success ratio is deliberately not needed
here; feasibility labels are derived later from the stored communication
features for whatever request is being served.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage
from scipy.special import erf

from .fcsim import ChannelModel, SimContext
from .mobility import ContactTable, MobilityFeatures, TrajectorySet, detect_contacts, mobility_features
from .rng import derive_seed
from .roadnet import RasterEmbedding, RoadGrid, grid_to_json
from .scheme import FcScheme, all_on, all_zero

FEATURE_CHANNELS = ("n", "lambda", "tau", "nu", "n_c", "gamma")


@dataclass
class CommFeatures:
    """Communication features measured (or predicted) per (link, interval)."""
    n_c: np.ndarray            # (L, T)
    gamma: np.ndarray          # (L, T, U)

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_c.shape


@dataclass
class TrainingPair:
    m: MobilityFeatures
    scheme: FcScheme
    c: CommFeatures
    provenance: str            # "simulated" | "measured"
    scenario: str
    seed: int

    def __post_init__(self):
        if self.provenance not in ("simulated", "measured"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.m.shape != self.scheme.shape or self.m.shape != self.c.shape:
            raise ValueError("mobility, scheme and communication shapes differ")


@dataclass
class Normalizer:
    """Per-channel affine (mean, scale) fitted on a training split."""
    names: tuple[str, ...]
    mean: np.ndarray
    scale: np.ndarray

    def _idx(self, name: str) -> int:
        return self.names.index(name)

    def transform(self, name: str, values: np.ndarray) -> np.ndarray:
        i = self._idx(name)
        return (np.asarray(values, dtype=float) - self.mean[i]) / self.scale[i]

    def inverse(self, name: str, values: np.ndarray) -> np.ndarray:
        i = self._idx(name)
        return np.asarray(values, dtype=float) * self.scale[i] + self.mean[i]

    def transform_mobility(self, m: MobilityFeatures) -> np.ndarray:
        """Stack the four mobility channels, z-scored, as (4, L, T)."""
        return np.stack([self.transform("n", m.n), self.transform("lambda", m.lam),
                         self.transform("tau", m.tau), self.transform("nu", m.nu)])

    def to_dict(self) -> dict:
        return {"names": list(self.names), "mean": self.mean.tolist(),
                "scale": self.scale.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Normalizer":
        return cls(tuple(d["names"]), np.array(d["mean"], dtype=float),
                   np.array(d["scale"], dtype=float))


def _channel_values(pair: TrainingPair, name: str) -> np.ndarray:
    if name == "n":
        return pair.m.n
    if name == "lambda":
        return pair.m.lam
    if name == "tau":
        return pair.m.tau
    if name == "nu":
        return pair.m.nu
    if name == "n_c":
        return pair.c.n_c
    if name == "gamma":
        return pair.c.gamma.sum(axis=2)
    raise KeyError(name)


def fit_normalizer(pairs: list[TrainingPair], split=None) -> Normalizer:
    """Z-score parameters per feature channel over the given pair indices
    (all pairs when split is None).  Constant channels get scale 1 so they
    normalize to exactly zero."""
    chosen = pairs if split is None else [pairs[i] for i in split]
    if not chosen:
        raise ValueError("cannot fit a normalizer on an empty split")
    mean = np.zeros(len(FEATURE_CHANNELS))
    scale = np.ones(len(FEATURE_CHANNELS))
    for ci, name in enumerate(FEATURE_CHANNELS):
        stacked = np.concatenate([_channel_values(p, name).ravel() for p in chosen])
        mean[ci] = stacked.mean()
        sd = stacked.std()
        scale[ci] = sd if sd > 0 else 1.0
    return Normalizer(FEATURE_CHANNELS, mean, scale)


def apply_normalizer(norm: Normalizer, features: dict) -> dict:
    """Normalize a {channel: array} mapping; unknown channels pass through."""
    out = {}
    for name, values in features.items():
        out[name] = norm.transform(name, values) if name in norm.names else values
    return out


# ---------------------------------------------------------------------------
# random strategies
# ---------------------------------------------------------------------------

def _smoothed_planes(generator: np.random.Generator, embedding: RasterEmbedding,
                     T: int, blur: float = 1.5) -> np.ndarray:
    """(3, L, T) spatially coherent random planes in [0, 1]: Gaussian noise on
    the raster, blurred, standardized and squashed through the normal CDF.

    A random squash gain per plane varies how binary the field looks, from
    gentle gradients up to sharp compact blobs like anchor-zone strategies.
    """
    out = np.empty((3, embedding.num_links, T))
    for p in range(3):
        gain = float(generator.choice([1.0, 3.0, 8.0]))
        for t in range(T):
            field = generator.normal(size=(embedding.H, embedding.W))
            field = ndimage.gaussian_filter(field, blur, mode="nearest")
            sd = field.std()
            if sd > 0:
                field = (field - field.mean()) / sd
            squashed = 0.5 * (1.0 + erf(gain * field / math.sqrt(2.0)))
            out[p, :, t] = embedding.unrasterize(squashed)
    return out


def gen_random_schemes(K: int, L: int, T: int, seed: int, style: str = "mixed",
                       embedding: RasterEmbedding | None = None) -> list[FcScheme]:
    """K random strategies plus the all-on and all-zero extremes.

    iid: every entry uniform.  smoothed: per-parameter Gaussian random fields
    over the raster (spatially coherent).  mixed: alternating halves.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if style not in ("iid", "smoothed", "mixed"):
        raise ValueError(f"unknown style {style!r}")
    if style in ("smoothed", "mixed") and embedding is None:
        raise ValueError(f"style {style!r} needs a raster embedding")
    schemes = []
    for k in range(K):
        generator = np.random.default_rng(derive_seed(seed, 303, k))
        smooth = style == "smoothed" or (style == "mixed" and k % 2 == 1)
        if smooth:
            planes = _smoothed_planes(generator, embedding, T)
        else:
            planes = generator.uniform(0.0, 1.0, (3, L, T))
        schemes.append(FcScheme(planes[0], planes[1], planes[2]))
    schemes.append(all_on(L, T))
    schemes.append(all_zero(L, T))
    return schemes


# ---------------------------------------------------------------------------
# dataset construction and persistence
# ---------------------------------------------------------------------------

def build_dataset(traj: TrajectorySet, grid: RoadGrid, d_t, schemes: list[FcScheme],
                  channel: ChannelModel, seed: int,
                  contacts: ContactTable | None = None,
                  seeding_mode: str = "exact", scenario: str = "sim") -> list[TrainingPair]:
    """Simulate every scheme over the trajectories; all pairs share one
    mobility-feature array.  Per-scheme seeds derive from the master seed."""
    if contacts is None:
        contacts = detect_contacts(traj, channel.radius_m)
    m = mobility_features(traj, contacts, grid, d_t)
    ctx = SimContext(grid, traj, contacts, channel, d_t, seeding_mode=seeding_mode)
    pairs = []
    for k, scheme in enumerate(schemes):
        run_seed = derive_seed(seed, 301, k)
        out = ctx.run(scheme, seed=run_seed)
        pairs.append(TrainingPair(m=m, scheme=scheme,
                                  c=CommFeatures(out.n_c, out.gamma),
                                  provenance="simulated", scenario=scenario,
                                  seed=run_seed))
    return pairs


def save_dataset(directory, pairs: list[TrainingPair], grid: RoadGrid,
                 channel: ChannelModel, d_t, tick: float,
                 normalizer: Normalizer | None = None) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema": "pairs-v1",
        "grid_sha256": hashlib.sha256(grid_to_json(grid).encode()).hexdigest(),
        "channel": {"bandwidth_hz": channel.bandwidth_hz,
                    "edge_sinr_db": channel.edge_sinr_db,
                    "path_loss_exp": channel.path_loss_exp,
                    "radius_m": channel.radius_m,
                    "mode": channel.mode,
                    "sinr_cap_db": channel.sinr_cap_db,
                    "content_bits": channel.content_bits},
        "d_t": list(np.asarray(d_t, dtype=float)),
        "tick": tick,
        "count": len(pairs),
        "normalizer": normalizer.to_dict() if normalizer else None,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
    with open(directory / "pairs.csv", "w") as fh:
        fh.write("pair_id,scenario,seed,link_id,t,n,lambda,tau,nu,a,b,s,n_c,gamma\n")
        for pid, p in enumerate(pairs):
            L, T = p.m.shape
            g = p.c.gamma.sum(axis=2)
            for l in range(L):
                for t in range(T):
                    vals = ",".join(repr(float(v)) for v in (
                        p.m.n[l, t], p.m.lam[l, t], p.m.tau[l, t], p.m.nu[l, t],
                        p.scheme.a[l, t], p.scheme.b[l, t], p.scheme.s[l, t],
                        p.c.n_c[l, t], g[l, t]))
                    fh.write(f"{pid},{p.scenario},{p.seed},{l},{t + 1},{vals}\n")


def load_dataset(directory) -> tuple[list[TrainingPair], dict]:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    d_t = np.array(manifest["d_t"], dtype=float)
    rows: dict[int, list] = {}
    meta: dict[int, tuple[str, int]] = {}
    with open(directory / "pairs.csv") as fh:
        header = fh.readline()
        if not header.startswith("pair_id"):
            raise ValueError("pairs.csv: unexpected header")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            pid = int(parts[0])
            meta[pid] = (parts[1], int(parts[2]))
            rows.setdefault(pid, []).append(
                (int(parts[3]), int(parts[4])) + tuple(float(x) for x in parts[5:]))
    pairs = []
    mobility_cache: dict[bytes, MobilityFeatures] = {}
    for pid in sorted(rows):
        data = rows[pid]
        L = max(r[0] for r in data) + 1
        T = max(r[1] for r in data)
        arrays = {k: np.zeros((L, T)) for k in
                  ("n", "lam", "tau", "nu", "a", "b", "s", "n_c", "gamma")}
        for r in data:
            l, t = r[0], r[1] - 1
            for name, val in zip(("n", "lam", "tau", "nu", "a", "b", "s", "n_c", "gamma"),
                                 r[2:]):
                arrays[name][l, t] = val
        key = arrays["n"].tobytes() + arrays["nu"].tobytes()
        if key not in mobility_cache:
            mobility_cache[key] = MobilityFeatures(
                n=arrays["n"], lam=arrays["lam"], tau=arrays["tau"], nu=arrays["nu"],
                empty=arrays["n"] == 0, d_t=d_t)
        scenario, run_seed = meta[pid]
        pairs.append(TrainingPair(
            m=mobility_cache[key],
            scheme=FcScheme(arrays["a"], arrays["b"], arrays["s"]),
            c=CommFeatures(arrays["n_c"], arrays["gamma"][:, :, None]),
            provenance="simulated", scenario=scenario, seed=run_seed))
    return pairs, manifest


def feasibility_labels(pairs: list[TrainingPair], zoi, alpha0: float) -> np.ndarray:
    """Per-(pair, interval) boolean: does the stored outcome meet alpha0 on
    the ZOI?  Intervals with no ZOI traffic are infeasible."""
    z = np.asarray(sorted(zoi), dtype=np.int64)
    labels = []
    for p in pairs:
        denom = p.m.n[z, :].sum(axis=0)
        num = p.c.n_c[z, :].sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(denom > 0, num / np.maximum(denom, 1e-300), np.nan)
        labels.append((ratio >= alpha0) & ~np.isnan(ratio))
    return np.concatenate(labels)
