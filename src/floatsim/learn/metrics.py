"""Binary classification metrics."""

from __future__ import annotations

import numpy as np


def f_score(predicted, true) -> float:
    """F1 = 2PR/(P+R); 0 when precision and recall are both 0."""
    p = np.asarray(predicted, dtype=bool)
    t = np.asarray(true, dtype=bool)
    if p.shape != t.shape:
        raise ValueError(f"label sequences differ in length: {p.shape} vs {t.shape}")
    tp = float(np.sum(p & t))
    fp = float(np.sum(p & ~t))
    fn = float(np.sum(~p & t))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)
