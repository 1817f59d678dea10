"""Convolutional surrogate: (rasterized mobility features, strategy planes)
per interval -> predicted per-cell content-holder and transmitter counts.

The network is conv -> ReLU -> max-pool -> conv blocks -> ReLU -> flatten ->
affine head -> softplus, trained with minibatch SGD plus momentum; mobility
input channels arrive z-scored and strategy planes raw in [0, 1].

Internally the network regresses the per-node ratios n_c/n and gamma/n
rather than absolute counts: ratios live in [0, 1] regardless of traffic
density, which keeps predictions stable when the serving scenario is denser
or sparser than the training traces.  predict() multiplies the ratios back
by the forecast node counts, so callers always see counts.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from ..dataset import CommFeatures, Normalizer, TrainingPair
from ..mobility import MobilityFeatures
from ..roadnet import RasterEmbedding
from ..rng import derive_seed
from ..scheme import FcScheme
from .layers import Conv2D, Dense, Flatten, MaxPool2x2, ReLU, Softplus

INPUT_CHANNELS = 7    # n, lambda, tau, nu, a, b, s
OUTPUT_CHANNELS = 2   # n_c, gamma


class TrainingDataError(ValueError):
    pass


class TrainingDivergedError(RuntimeError):
    def __init__(self, step: int, loss: float):
        super().__init__(f"training diverged at step {step} (loss={loss})")
        self.step = step


class PredictShapeError(ValueError):
    pass


@dataclass
class SurrogateHyper:
    conv_channels: int = 8
    kernel: int = 3
    blocks: int = 1            # convolution blocks after the pooled stage
    learning_rate: float = 0.05
    epochs: int = 15
    batch: int = 32
    momentum: float = 0.9
    folds: int = 10
    patience: int = 10
    seed: int = 0


class SurrogateModel:
    """Forward evaluator of communication features for candidate strategies."""

    def __init__(self, embedding: RasterEmbedding, normalizer: Normalizer,
                 hyper: SurrogateHyper | None = None):
        self.embedding = embedding
        self.normalizer = normalizer
        self.hyper = hyper or SurrogateHyper()
        h = self.hyper
        rng = np.random.default_rng(derive_seed(h.seed, 501))
        H, W = embedding.H, embedding.W
        ph, pw = H // 2, W // 2
        if ph < 1 or pw < 1:
            raise ValueError(f"raster {H}x{W} too small for 2x2 pooling")
        self.layers = [Conv2D(INPUT_CHANNELS, h.conv_channels, h.kernel, rng), ReLU(),
                       MaxPool2x2()]
        for _ in range(h.blocks):
            self.layers += [Conv2D(h.conv_channels, h.conv_channels, h.kernel, rng), ReLU()]
        self.layers += [Flatten(),
                        Dense(ph * pw * h.conv_channels, H * W * OUTPUT_CHANNELS, rng),
                        Softplus()]

    # -- plumbing --------------------------------------------------------------
    @property
    def cell_mask(self) -> np.ndarray:
        """(H, W) True where at least one link lives; the loss ignores the rest."""
        mask = np.zeros((self.embedding.H, self.embedding.W), dtype=bool)
        mask[self.embedding.rows, self.embedding.cols] = True
        return mask

    @property
    def param_count(self) -> int:
        return sum(v.size for layer in self.layers for _, v, _ in layer.param_items())

    def parameters(self) -> list[np.ndarray]:
        return [v for layer in self.layers for _, v, _ in layer.param_items()]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for _, _, g in layer.param_items()]

    def set_flat_params(self, flat: np.ndarray) -> None:
        pos = 0
        for p in self.parameters():
            p[...] = flat[pos:pos + p.size].reshape(p.shape)
            pos += p.size
        if pos != flat.size:
            raise ValueError(f"parameter blob holds {flat.size} values, model needs {pos}")

    def flat_params(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.parameters()])

    # -- forward / backward ------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out)
        H, W = self.embedding.H, self.embedding.W
        return out.reshape(len(x), H, W, OUTPUT_CHANNELS)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        grad = dout.reshape(dout.shape[0], -1)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    # -- AP-level interface --------------------------------------------------------
    def input_raster(self, m: MobilityFeatures, scheme: FcScheme, t: int) -> np.ndarray:
        """(H, W, 7) input plane stack for interval index t (0-based)."""
        emb, norm = self.embedding, self.normalizer
        mob = norm.transform_mobility(m)
        planes = [emb.rasterize(mob[c, :, t]) for c in range(4)]
        planes += [emb.rasterize(scheme.a[:, t]), emb.rasterize(scheme.b[:, t]),
                   emb.rasterize(scheme.s[:, t])]
        return np.stack(planes, axis=-1)

    def predict(self, m: MobilityFeatures, scheme: FcScheme) -> CommFeatures:
        if m.shape != scheme.shape:
            raise PredictShapeError(f"mobility {m.shape} vs scheme {scheme.shape}")
        if m.shape[0] != self.embedding.num_links:
            raise PredictShapeError(
                f"{m.shape[0]} links but embedding maps {self.embedding.num_links}")
        L, T = m.shape
        x = np.stack([self.input_raster(m, scheme, t) for t in range(T)])
        out = self.forward(x)
        nc_ratio = np.stack([self.embedding.unrasterize(out[t, :, :, 0])
                             for t in range(T)], axis=1)
        g_ratio = np.stack([self.embedding.unrasterize(out[t, :, :, 1])
                            for t in range(T)], axis=1)
        return CommFeatures(n_c=nc_ratio * m.n, gamma=(g_ratio * m.n)[:, :, None])


def make_examples(pairs: list[TrainingPair], embedding: RasterEmbedding,
                  normalizer: Normalizer) -> tuple[np.ndarray, np.ndarray]:
    """Stack every (pair, interval) into input and per-node-ratio target
    rasters (n_c/n and gamma/n, zero where the link carried no traffic)."""
    if not pairs:
        raise TrainingDataError("no training pairs")
    xs, ys = [], []
    for p in pairs:
        mob = normalizer.transform_mobility(p.m)
        L, T = p.m.shape
        g = p.c.gamma.sum(axis=2)
        denom = np.maximum(p.m.n, 1e-12)
        nc_ratio = np.where(p.m.n > 0, p.c.n_c / denom, 0.0)
        g_ratio = np.where(p.m.n > 0, g / denom, 0.0)
        for t in range(T):
            planes = [embedding.rasterize(mob[c, :, t]) for c in range(4)]
            planes += [embedding.rasterize(p.scheme.a[:, t]),
                       embedding.rasterize(p.scheme.b[:, t]),
                       embedding.rasterize(p.scheme.s[:, t])]
            xs.append(np.stack(planes, axis=-1))
            ys.append(np.stack([embedding.rasterize(nc_ratio[:, t]),
                                embedding.rasterize(g_ratio[:, t])], axis=-1))
    return np.stack(xs), np.stack(ys)


@dataclass
class TrainResult:
    model: SurrogateModel
    fold_losses: list[tuple[float, float]]      # (train MSE, val MSE) per fold
    initial_val_loss: float
    final_val_loss: float
    history: list[float] = field(default_factory=list)


def masked_mse(model: SurrogateModel, pred: np.ndarray, y: np.ndarray) -> float:
    """MSE over cells that actually carry links; padding cells do not count."""
    mask = model.cell_mask
    diff = (pred - y)[:, mask, :]
    return float(np.mean(diff ** 2))


def _sgd_epochs(model: SurrogateModel, x: np.ndarray, y: np.ndarray,
                val_x: np.ndarray, val_y: np.ndarray, hyper: SurrogateHyper,
                stream: int) -> tuple[float, float, list[float]]:
    """Train in place; returns (initial val MSE, best val MSE, epoch history)."""
    rng = np.random.default_rng(derive_seed(hyper.seed, 502, stream))
    velocity = [np.zeros_like(p) for p in model.parameters()]
    mask = model.cell_mask
    mask_cells = int(mask.sum())

    def val_loss() -> float:
        return masked_mse(model, model.forward(val_x), val_y)

    initial = val_loss()
    best = initial
    best_params = model.flat_params()
    stall = 0
    history = []
    step = 0
    for _ in range(hyper.epochs):
        order = rng.permutation(len(x))
        for lo in range(0, len(x), hyper.batch):
            idx = order[lo:lo + hyper.batch]
            pred = model.forward(x[idx])
            diff = (pred - y[idx]) * mask[None, :, :, None]
            denom = len(idx) * mask_cells * OUTPUT_CHANNELS
            loss = float(np.sum(diff ** 2)) / denom
            if not np.isfinite(loss):
                raise TrainingDivergedError(step, loss)
            model.backward(2.0 * diff / denom)
            for vel, p, g in zip(velocity, model.parameters(), model.gradients()):
                vel *= hyper.momentum
                vel += g
                p -= hyper.learning_rate * vel
            step += 1
        cur = val_loss()
        history.append(cur)
        if cur < best - 1e-12:
            best = cur
            best_params = model.flat_params()
            stall = 0
        else:
            stall += 1
            if stall >= hyper.patience:
                break
    model.set_flat_params(best_params)
    return initial, best, history


def train_surrogate(pairs: list[TrainingPair], embedding: RasterEmbedding,
                    normalizer: Normalizer | None = None,
                    hyper: SurrogateHyper | None = None) -> TrainResult:
    """K-fold cross-validation for loss reporting, then a final fit on all
    examples with the first fold as its early-stopping monitor."""
    from ..dataset import fit_normalizer
    hyper = hyper or SurrogateHyper()
    if not pairs:
        raise TrainingDataError("empty training set")
    if normalizer is None:
        normalizer = fit_normalizer(pairs)
    x, y = make_examples(pairs, embedding, normalizer)
    n = len(x)
    folds = max(2, min(hyper.folds, n))
    rng = np.random.default_rng(derive_seed(hyper.seed, 503))
    order = rng.permutation(n)
    chunks = np.array_split(order, folds)

    fold_losses = []
    for f, val_idx in enumerate(chunks):
        train_idx = np.concatenate([c for g, c in enumerate(chunks) if g != f])
        model = SurrogateModel(embedding, normalizer, hyper)
        _, val_best, _ = _sgd_epochs(model, x[train_idx], y[train_idx],
                                     x[val_idx], y[val_idx], hyper, stream=f + 1)
        train_mse = masked_mse(model, model.forward(x[train_idx]), y[train_idx])
        fold_losses.append((train_mse, val_best))

    final = SurrogateModel(embedding, normalizer, hyper)
    monitor = chunks[0]
    initial, final_val, history = _sgd_epochs(final, x, y, x[monitor], y[monitor],
                                              hyper, stream=0)
    return TrainResult(model=final, fold_losses=fold_losses,
                       initial_val_loss=initial, final_val_loss=final_val,
                       history=history)


def mean_baseline_mse(train_y: np.ndarray, test_y: np.ndarray) -> float:
    """Held-out MSE of always predicting the per-channel training mean."""
    mean = train_y.mean(axis=tuple(range(train_y.ndim - 1)))
    return float(np.mean((test_y - mean) ** 2))


# ---------------------------------------------------------------------------
# model file: one JSON header line, then little-endian float64 parameters
# ---------------------------------------------------------------------------

def save_model(model: SurrogateModel, path) -> None:
    header = {
        "format": "surrogate-v1",
        "hyper": asdict(model.hyper),
        "embedding": {"H": model.embedding.H, "W": model.embedding.W,
                      "rows": model.embedding.rows.tolist(),
                      "cols": model.embedding.cols.tolist(),
                      "origin": list(model.embedding.origin),
                      "cell_size": list(model.embedding.cell_size)},
        "normalizer": model.normalizer.to_dict(),
        "param_count": model.param_count,
    }
    flat = model.flat_params()
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(struct.pack(f"<{flat.size}d", *flat))


def load_model(path) -> SurrogateModel:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        blob = fh.read()
    if header.get("format") != "surrogate-v1":
        raise ValueError(f"{path}: not a surrogate model file")
    e = header["embedding"]
    embedding = RasterEmbedding(e["H"], e["W"], np.array(e["rows"], dtype=np.int64),
                                np.array(e["cols"], dtype=np.int64),
                                tuple(e["origin"]), tuple(e["cell_size"]))
    normalizer = Normalizer.from_dict(header["normalizer"])
    model = SurrogateModel(embedding, normalizer, SurrogateHyper(**header["hyper"]))
    flat = np.array(struct.unpack(f"<{header['param_count']}d", blob))
    model.set_flat_params(flat)
    return model
