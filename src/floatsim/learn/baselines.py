"""Classical baselines, built from scratch: exhaustive k-nearest-neighbour,
a Gini-split decision tree, and a bagged random forest.  They classify the
per-(pair, interval) feasibility of a request from flattened link features.
"""

from __future__ import annotations

import numpy as np

from ..dataset import Normalizer, TrainingPair, link_inputs
from ..rng import derive_seed


class BaselineParameterError(ValueError):
    pass


def flatten_pair_rows(pairs: list[TrainingPair], normalizer: Normalizer) -> np.ndarray:
    """One row per (pair, interval): the interval's dataset.link_inputs
    stack, channel by channel [n, lambda, tau, nu, a, b, s] over the links.
    Row order matches dataset.feasibility_labels."""
    return np.concatenate([link_inputs(normalizer, p.m, p.scheme).transpose(2, 0, 1)
                           .reshape(p.m.shape[1], -1) for p in pairs])


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

    def __init__(self, max_depth: int | None = None):
        self.max_depth = max_depth
        self._root: _TreeNode | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=np.int64)
        self._classes = int(y.max()) + 1 if len(y) else 1
        self._root = self._build(x, y, 0)
        return self

    def _best_split(self, x: np.ndarray, y: np.ndarray):
        """Every cut of every feature scored in one pass: the columns are
        sorted at once, and a cut between two distinct values scores the
        weighted Gini of its sides.  The features are then scanned in
        ascending order, and one takes the lead only by beating the best
        earlier minimum by more than 1e-15."""
        n = len(y)
        onehot = np.zeros((n, self._classes))
        onehot[np.arange(n), y] = 1.0
        order = np.argsort(x, axis=0, kind="stable")                  # (n, F)
        xs = np.take_along_axis(x, order, axis=0)
        cum = np.cumsum(onehot[order], axis=0)                        # (n, F, classes)
        n_left = np.arange(1.0, n)[:, None]                           # cut after row r
        n_right = n - n_left
        g_left = _gini_from_counts(cum[:-1], n_left)
        g_right = _gini_from_counts(cum[-1] - cum[:-1], n_right)
        weighted = np.where(xs[:-1] < xs[1:],                         # between distinct values
                            (n_left * g_left + n_right * g_right) / n, np.inf)
        cut = weighted.argmin(axis=0)
        best = (np.inf, None, None)
        for f, (w, k) in enumerate(zip(weighted[cut, np.arange(x.shape[1])].tolist(),
                                       cut.tolist())):
            if w < best[0] - 1e-15:
                best = (w, f, _split_point(xs[k, f], xs[k + 1, f]))
        return best[1], best[2]

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> _TreeNode:
        if (self.max_depth is not None and depth >= self.max_depth) \
                or len(np.unique(y)) <= 1 or len(y) < 2:
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
    """Gini trees, each fit on its own bootstrap sample of the rows, over
    every feature."""

    def __init__(self, n_trees: int = 10, max_depth: int | None = None, seed: int = 0):
        if n_trees < 1:
            raise BaselineParameterError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.seed = seed
        self.trees: list[DecisionTreeClassifier] = []

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=np.int64)
        self.trees = []
        n = len(x)
        for t in range(self.n_trees):
            rng = np.random.default_rng(derive_seed(self.seed, 401, t))
            idx = rng.integers(0, n, size=n)
            self.trees.append(DecisionTreeClassifier(self.max_depth).fit(x[idx], y[idx]))
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
