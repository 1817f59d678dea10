"""Classical baselines, built from scratch: exhaustive k-nearest-neighbour,
a Gini-split decision tree, and a bagged random forest.  They classify the
per-(pair, interval) feasibility of a request from flattened link features.
"""

from __future__ import annotations

import numpy as np

from ..dataset import Normalizer, TrainingPair
from ..rng import derive_seed


class BaselineParameterError(ValueError):
    pass


def flatten_pair_rows(pairs: list[TrainingPair],
                      normalizer: Normalizer | None = None) -> np.ndarray:
    """One row per (pair, interval): concatenated per-link
    [n, lambda, tau, nu, a, b, s], mobility channels z-scored when a
    normalizer is given.  Row order matches dataset.feasibility_labels."""
    rows = []
    for p in pairs:
        if normalizer is not None:
            mob = normalizer.transform_mobility(p.m)
        else:
            mob = np.stack([p.m.n, p.m.lam, p.m.tau, p.m.nu])
        L, T = p.m.shape
        for t in range(T):
            rows.append(np.concatenate([mob[0, :, t], mob[1, :, t], mob[2, :, t],
                                        mob[3, :, t], p.scheme.a[:, t],
                                        p.scheme.b[:, t], p.scheme.s[:, t]]))
    return np.stack(rows)


class KNNClassifier:
    def __init__(self, k: int = 5):
        if k < 1:
            raise BaselineParameterError("k must be >= 1")
        self.k = k

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KNNClassifier":
        if self.k > len(x):
            raise BaselineParameterError(f"k={self.k} exceeds {len(x)} training rows")
        self._x = np.asarray(x, dtype=float)
        self._y = np.asarray(y, dtype=np.int64)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.empty(len(x), dtype=np.int64)
        for chunk in range(0, len(x), 256):
            q = x[chunk:chunk + 256]
            d2 = ((q[:, None, :] - self._x[None, :, :]) ** 2).sum(axis=2)
            # stable sort: equidistant neighbours resolve by training index
            nn = np.argsort(d2, axis=1, kind="stable")[:, :self.k]
            for r, row in enumerate(nn):
                out[chunk + r] = np.bincount(self._y[row]).argmax()
        return out


class _TreeNode:
    __slots__ = ("feature", "threshold", "left", "right", "label")

    def __init__(self, label=None, feature=None, threshold=None, left=None, right=None):
        self.label = label
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right


def _majority(y: np.ndarray) -> int:
    return int(np.bincount(y).argmax())


def _gini_from_counts(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = counts / totals[..., None]
    g = 1.0 - np.nansum(frac ** 2, axis=-1)
    return np.where(totals > 0, g, 0.0)


def _split_point(lo: float, hi: float) -> float:
    """Threshold between two adjacent distinct values, lo < hi: their
    midpoint, or lo where the midpoint rounds up to hi, so that `x <= t`
    always sends lo left and hi right."""
    mid = (lo + hi) / 2.0
    return float(mid if mid < hi else lo)


class DecisionTreeClassifier:
    """CART-style classifier with Gini impurity splits."""

    def __init__(self, max_depth: int | None = None, min_leaf: int = 1):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self._root: _TreeNode | None = None

    def fit(self, x: np.ndarray, y: np.ndarray,
            feature_subset: np.ndarray | None = None) -> "DecisionTreeClassifier":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=np.int64)
        self._classes = int(y.max()) + 1 if len(y) else 1
        self._features = (np.arange(x.shape[1]) if feature_subset is None
                          else np.asarray(feature_subset, dtype=np.int64))
        self._root = self._build(x, y, 0)
        return self

    def _best_split(self, x: np.ndarray, y: np.ndarray):
        n = len(y)
        best = (np.inf, None, None)
        onehot = np.zeros((n, self._classes))
        onehot[np.arange(n), y] = 1.0
        for f in self._features:
            order = np.argsort(x[:, f], kind="stable")
            xs = x[order, f]
            cum = np.cumsum(onehot[order], axis=0)
            cut = np.nonzero(xs[:-1] < xs[1:])[0]      # split between distinct values
            if cut.size == 0:
                continue
            n_left = (cut + 1).astype(float)
            n_right = n - n_left
            g_left = _gini_from_counts(cum[cut], n_left)
            g_right = _gini_from_counts(cum[-1] - cum[cut], n_right)
            weighted = (n_left * g_left + n_right * g_right) / n
            k = int(np.argmin(weighted))
            if weighted[k] < best[0] - 1e-15:
                best = (float(weighted[k]), int(f), _split_point(xs[cut[k]], xs[cut[k] + 1]))
        return best[1], best[2]

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> _TreeNode:
        if (self.max_depth is not None and depth >= self.max_depth) \
                or len(np.unique(y)) <= 1 or len(y) < 2 * self.min_leaf:
            return _TreeNode(label=_majority(y))
        feature, threshold = self._best_split(x, y)
        if feature is None:
            return _TreeNode(label=_majority(y))
        go_left = x[:, feature] <= threshold
        return _TreeNode(feature=feature, threshold=threshold,
                         left=self._build(x[go_left], y[go_left], depth + 1),
                         right=self._build(x[~go_left], y[~go_left], depth + 1))

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.empty(len(x), dtype=np.int64)
        for i, row in enumerate(x):
            node = self._root
            while node.label is None:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.label
        return out


class RandomForestClassifier:
    """Bagged Gini trees with optional per-tree feature subsampling."""

    def __init__(self, n_trees: int = 10, max_depth: int | None = None,
                 bootstrap: bool = True, feature_frac: float | None = None,
                 seed: int = 0):
        if n_trees < 1:
            raise BaselineParameterError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.bootstrap = bootstrap
        self.feature_frac = feature_frac
        self.seed = seed
        self.trees: list[DecisionTreeClassifier] = []

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=np.int64)
        self.trees = []
        n, f = x.shape
        for t in range(self.n_trees):
            rng = np.random.default_rng(derive_seed(self.seed, 401, t))
            idx = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            subset = None
            if self.feature_frac is not None:
                k = max(1, int(round(self.feature_frac * f)))
                subset = np.sort(rng.choice(f, size=k, replace=False))
            tree = DecisionTreeClassifier(self.max_depth)
            tree.fit(x[idx], y[idx], feature_subset=subset)
            self.trees.append(tree)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        votes = np.stack([tree.predict(x) for tree in self.trees])
        n_classes = int(votes.max()) + 1
        out = np.empty(votes.shape[1], dtype=np.int64)
        for i in range(votes.shape[1]):
            out[i] = np.bincount(votes[:, i], minlength=n_classes).argmax()
        return out


def train_baseline(kind: str, rows: np.ndarray, labels: np.ndarray, **params):
    """kind: knn (k), tree (max_depth), forest (n_trees, max_depth, ...)."""
    if kind == "knn":
        model = KNNClassifier(**params)
    elif kind == "tree":
        model = DecisionTreeClassifier(**params)
    elif kind == "forest":
        model = RandomForestClassifier(**params)
    else:
        raise BaselineParameterError(f"unknown baseline kind {kind!r}")
    return model.fit(np.asarray(rows, dtype=float), np.asarray(labels, dtype=np.int64))
