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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage
from scipy.special import erf

from .fcsim import ChannelModel, SimContext, zoi_alpha
from .mobility import ContactTable, MobilityFeatures, TrajectorySet, detect_contacts, mobility_features
from .rng import derive_seed
from .roadnet import RasterEmbedding, RoadGrid, grid_to_json
from .scheme import FcScheme, all_on, all_zero

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
    """Z-score (mean, scale) of the four mobility channels n, lambda, tau
    and nu, fitted on a training split."""
    mean: np.ndarray           # (4,)
    scale: np.ndarray          # (4,)

    def transform_mobility(self, m: MobilityFeatures) -> np.ndarray:
        """Stack the four mobility channels, z-scored, as (4, L, T)."""
        return ((np.stack([m.n, m.lam, m.tau, m.nu]) - self.mean[:, None, None])
                / self.scale[:, None, None])

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "scale": self.scale.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Normalizer":
        return cls(np.array(d["mean"], dtype=float), np.array(d["scale"], dtype=float))


def fit_normalizer(pairs: list[TrainingPair], split=None) -> Normalizer:
    """Z-score parameters per mobility channel over the given pair indices
    (all pairs when split is None).  Constant channels get scale 1 so they
    normalize to exactly zero."""
    chosen = pairs if split is None else [pairs[i] for i in split]
    if not chosen:
        raise ValueError("cannot fit a normalizer on an empty split")
    mean = np.zeros(4)
    scale = np.ones(4)
    # one flat channel at a time: a stacked mean sums in another order
    for ci, channel in enumerate(zip(*((p.m.n, p.m.lam, p.m.tau, p.m.nu) for p in chosen))):
        stacked = np.concatenate([v.ravel() for v in channel])
        mean[ci] = stacked.mean()
        sd = stacked.std()
        scale[ci] = sd if sd > 0 else 1.0
    return Normalizer(mean, scale)


def link_inputs(normalizer: Normalizer, m: MobilityFeatures, scheme: FcScheme) -> np.ndarray:
    """The surrogate's per-link input stack (7, L, T): z-scored n, lambda,
    tau and nu, then the raw strategy planes a, b and s."""
    return np.concatenate([normalizer.transform_mobility(m),
                           np.stack([scheme.a, scheme.b, scheme.s])])


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
    run_seeds = [derive_seed(seed, 301, k) for k in range(len(schemes))]
    outs = ctx.run_many(schemes, run_seeds)
    return [TrainingPair(m=m, scheme=scheme, c=CommFeatures(out.n_c, out.gamma),
                         provenance="simulated", scenario=scenario, seed=run_seed)
            for scheme, run_seed, out in zip(schemes, run_seeds, outs)]


def save_dataset(directory, pairs: list[TrainingPair], grid: RoadGrid,
                 channel: ChannelModel, d_t, tick: float) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema": "pairs-v1",
        "grid_sha256": hashlib.sha256(grid_to_json(grid).encode()).hexdigest(),
        "channel": asdict(channel),
        "d_t": list(np.asarray(d_t, dtype=float)),
        "tick": tick,
        "count": len(pairs),
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
    return np.concatenate([zoi_alpha(p.c.n_c, p.m.n, zoi) >= alpha0 for p in pairs])
