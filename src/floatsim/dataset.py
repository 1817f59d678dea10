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

from .fcsim import ChannelModel, SimContext
from .linktable import read_table, write_table
from .mobility import ContactTable, MobilityFeatures, TrajectorySet, detect_contacts, mobility_features
from .rng import derive_seed
from .roadnet import RasterEmbedding, RoadGrid, grid_to_json
from .scheme import FcScheme, all_on, all_zero, zoi_alpha

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
    scenario: str
    seed: int

    def __post_init__(self):
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


def fit_normalizer(pairs: list[TrainingPair]) -> Normalizer:
    """Z-score parameters per mobility channel over the given pairs.
    Constant channels get scale 1 so they normalize to exactly zero."""
    if not pairs:
        raise ValueError("cannot fit a normalizer on no pairs")
    mean = np.zeros(4)
    scale = np.ones(4)
    # one flat channel at a time: a stacked mean sums in another order
    for ci, channel in enumerate(zip(*((p.m.n, p.m.lam, p.m.tau, p.m.nu) for p in pairs))):
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

# The blur and the error function repeat SciPy's float operations one for
# one: scipy.ndimage.gaussian_filter(field, sigma, mode="nearest") and
# scipy.special.erf (cephes ndtr.c).  So the smoothed strategies are the ones
# SciPy gave, bit for bit, and a run loads no SciPy.

# cephes erf on |x| <= 1: x * T(x^2) / U(x^2)
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
# cephes erfc on 1 <= x < 8: exp(-x^2) P(x) / Q(x); on x >= 8: R and S
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2       # log(2**1024): exp(-x^2) underflows past it

# fields blurred, standardized and squashed together: bounds the temporaries
_FIELD_BLOCK = 4096
_BLUR_SIGMA = 1.5       # raster cells, the Gaussian blur of smoothed strategies


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner's rule, highest power first (cephes polevl)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner's rule with a leading coefficient 1 left out (cephes p1evl)."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erfc_above_one(x: np.ndarray) -> np.ndarray:
    """cephes erfc of every x > 1; 0 where exp(-x^2) underflows."""
    with np.errstate(over="ignore"):       # -inf for |x| past 1e154, as in C
        z = -x * x
    out = np.zeros_like(x)
    live = np.flatnonzero(z >= -_MAXLOG)
    # libm's exp, as cephes calls it: np.exp rounds some inputs differently
    e = np.fromiter(map(math.exp, z[live].tolist()), float, len(live))
    x = x[live]
    near = x < 8.0
    out[live[near]] = e[near] * _polevl(x[near], _ERFC_P) / _p1evl(x[near], _ERFC_Q)
    far = ~near
    out[live[far]] = e[far] * _polevl(x[far], _ERFC_R) / _p1evl(x[far], _ERFC_S)
    return out


def erf(x) -> np.ndarray:
    """The error function of every element, as scipy.special.erf computes it
    (cephes erf: a rational function on |x| <= 1, else 1 - erfc), bit for bit."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    out = np.empty_like(a)
    small = a <= 1.0
    s = a[small]
    z = s * s
    out[small] = s * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)
    out[~small] = 1.0 - _erfc_above_one(a[~small])
    # erf(-x) = -erf(x), and erf(-0.0) is -0.0
    return np.copysign(out, x)


def gaussian_blur(fields: np.ndarray, sigma: float) -> np.ndarray:
    """Blur each (H, W) field of `fields` (..., H, W) by a Gaussian of standard
    deviation `sigma` cells, truncated at 4 sigmas, the border extended by its
    nearest cell: scipy.ndimage.gaussian_filter(field, sigma, mode="nearest")
    of each field, bit for bit."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    # ndimage correlates with the normalized kernel reversed
    w = (kernel / kernel.sum())[::-1]
    for axis in (-2, -1):
        line = np.moveaxis(fields, axis, -1)
        n = line.shape[-1]
        line = np.pad(line, [(0, 0)] * (line.ndim - 1) + [(radius, radius)], mode="edge")
        # ndimage's symmetric correlation: the centre tap, then each pair of
        # taps from the farthest inwards
        out = line[..., radius:radius + n] * w[radius]
        for d in range(radius, 0, -1):
            out += (line[..., radius - d:radius - d + n]
                    + line[..., radius + d:radius + d + n]) * w[radius - d]
        fields = np.moveaxis(out, -1, axis)
    return fields


def _smoothed_planes(generators: list[np.random.Generator], embedding: RasterEmbedding,
                     T: int) -> np.ndarray:
    """(len(generators), 3, L, T) spatially coherent random planes in [0, 1],
    one strategy per generator: Gaussian noise on the raster, blurred,
    standardized and squashed through the normal CDF.

    A random squash gain per plane varies how binary the field looks, from
    gentle gradients up to sharp compact blobs like anchor-zone strategies.
    Each generator draws, plane by plane, the gain and then one field per
    interval.  The fields of up to _FIELD_BLOCK // (3 T) strategies are then
    blurred (`gaussian_blur`), standardized and squashed (`erf`) as one
    stack; every field gets the values that SciPy's filter and erf gave it
    one field at a time.
    """
    H, W = embedding.H, embedding.W
    out = np.empty((len(generators), 3, embedding.num_links, T))
    per_block = max(1, _FIELD_BLOCK // (3 * T))
    for lo in range(0, len(generators), per_block):
        block = generators[lo:lo + per_block]
        gains = np.empty((len(block), 3, 1, 1, 1))
        fields = np.empty((len(block), 3, T, H, W))
        for k, generator in enumerate(block):
            for p in range(3):
                gains[k, p] = float(generator.choice([1.0, 3.0, 8.0]))
                fields[k, p] = generator.normal(size=(T, H, W))
        fields = gaussian_blur(fields, _BLUR_SIGMA)
        flat = fields.reshape(-1, H * W)
        # one row per field, summed as field.mean() and field.std() sum it
        sd = flat.std(axis=1, keepdims=True)
        np.divide(flat - flat.mean(axis=1, keepdims=True), sd, out=flat, where=sd > 0)
        squashed = 0.5 * (1.0 + erf(gains * fields / math.sqrt(2.0)))
        out[lo:lo + len(block)] = embedding.unrasterize(squashed).transpose(0, 1, 3, 2)
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
    generators = [np.random.default_rng(derive_seed(seed, 303, k)) for k in range(K)]
    smooth = [style == "smoothed" or (style == "mixed" and k % 2 == 1) for k in range(K)]
    smoothed = iter(_smoothed_planes([g for g, s in zip(generators, smooth) if s],
                                     embedding, T) if any(smooth) else ())
    schemes = [FcScheme(*(next(smoothed) if s else g.uniform(0.0, 1.0, (3, L, T))))
               for g, s in zip(generators, smooth)]
    schemes.append(all_on(L, T))
    schemes.append(all_zero(L, T))
    return schemes


# ---------------------------------------------------------------------------
# dataset construction and persistence
# ---------------------------------------------------------------------------

def build_dataset(traj: TrajectorySet, grid: RoadGrid, d_t, schemes: list[FcScheme],
                  channel: ChannelModel, seed: int,
                  contacts: ContactTable | None = None) -> list[TrainingPair]:
    """Simulate every scheme over the trajectories; all pairs share one
    mobility-feature array.  Per-scheme seeds derive from the master seed."""
    if contacts is None:
        contacts = detect_contacts(traj, channel.radius_m)
    m = mobility_features(traj, contacts, grid, d_t)
    ctx = SimContext(grid, traj, contacts, channel, d_t)
    run_seeds = [derive_seed(seed, 301, k) for k in range(len(schemes))]
    outs = ctx.run_many(schemes, run_seeds)
    return [TrainingPair(m=m, scheme=scheme, c=CommFeatures(out.n_c, out.gamma),
                         scenario="sim", seed=run_seed)
            for scheme, run_seed, out in zip(schemes, run_seeds, outs)]


PAIR_LEAD = {"pair_id": int, "scenario": str, "seed": int}
PAIR_PLANES = dict.fromkeys(("n", "lambda", "tau", "nu", "a", "b", "s", "n_c", "gamma"), float)


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
    planes = zip(*((p.m.n, p.m.lam, p.m.tau, p.m.nu, p.scheme.a, p.scheme.b, p.scheme.s,
                    p.c.n_c, p.c.gamma.sum(axis=2)) for p in pairs))
    write_table(directory / "pairs.csv", dict(zip(PAIR_PLANES, planes)),
                lead={"pair_id": range(len(pairs)), "scenario": [p.scenario for p in pairs],
                      "seed": [p.seed for p in pairs]})


def load_dataset(directory) -> tuple[list[TrainingPair], dict]:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    d_t = np.array(manifest["d_t"], dtype=float)
    table = read_table(directory / "pairs.csv", PAIR_PLANES, lead=PAIR_LEAD)
    pairs = []
    mobility_cache: dict[bytes, MobilityFeatures] = {}
    for k, (scenario, run_seed) in enumerate(zip(table["scenario"], table["seed"])):
        n, lam, tau, nu, a, b, s, n_c, gamma = (table[name][k] for name in PAIR_PLANES)
        m = mobility_cache.setdefault(n.tobytes() + nu.tobytes(), MobilityFeatures(
            n=n, lam=lam, tau=tau, nu=nu, empty=n == 0, d_t=d_t))
        pairs.append(TrainingPair(
            m=m, scheme=FcScheme(a, b, s),
            c=CommFeatures(n_c, gamma[:, :, None]), scenario=scenario, seed=run_seed))
    return pairs, manifest


def feasibility_labels(pairs: list[TrainingPair], zoi, alpha0: float) -> np.ndarray:
    """Per-(pair, interval) boolean: does the stored outcome meet alpha0 on
    the ZOI?  Intervals with no ZOI traffic are infeasible."""
    return np.concatenate([zoi_alpha(p.c.n_c, p.m.n, zoi) >= alpha0 for p in pairs])
