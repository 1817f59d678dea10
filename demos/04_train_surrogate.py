"""Generate a training set of random strategies, train the convolutional
surrogate, and compare it against predicting the mean and against classical
classifiers on the feasibility task.

Run: python demos/04_train_surrogate.py   (about a minute)
"""

import numpy as np

from floatsim import (ChannelModel, KMH, SpeedModel, build_dataset, build_manhattan,
                      feasibility_labels, gen_random_schemes, raster_embed,
                      simulate_manhattan)
from floatsim.learn import (SurrogateHyper, f_score, flatten_pair_rows,
                            train_baseline, train_surrogate)

grid = build_manhattan(5, 4, 150.0)
emb = raster_embed(grid, 9, 7)
traj = simulate_manhattan(grid, 0.05, SpeedModel.uniform(20 * KMH, 30 * KMH),
                          duration=1200.0, seed=3, warmup_s=200.0)
channel = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode="instantaneous")

# 40 random strategies (plus the all-on / all-zero extremes), one simulation
# each, over 60 s intervals: every (strategy, interval) is a training example.
schemes = gen_random_schemes(40, grid.num_links, 20, seed=11, embedding=emb)
pairs = build_dataset(traj, grid, [60.0] * 20, schemes, channel, seed=12)
test, train = pairs[:8], pairs[8:]
print(f"{len(train)} training pairs, {len(test)} held out, "
      f"{len(train) * grid.num_links * 20} training rows")

result = train_surrogate(train, emb,
                         hyper=SurrogateHyper(epochs=25, folds=3,
                                              learning_rate=0.1, seed=0))
print(f"{result.model.param_count} parameters; fold (train, val) losses:")
for f, (tr, va) in enumerate(result.fold_losses):
    print(f"  fold {f}: {tr:.4f} / {va:.4f}")

train_mean = np.mean([p.c.n_c for p in train])
mse = np.mean([np.mean((result.model.predict(p.m, p.scheme).n_c - p.c.n_c) ** 2)
               for p in test])
base = np.mean([np.mean((train_mean - p.c.n_c) ** 2) for p in test])
print(f"held-out MSE on holder counts: {mse:.4f} vs mean-baseline {base:.4f} "
      f"({100 * (1 - mse / base):.0f}% better)")

# Feasibility classification view: does a strategy keep half the central
# nodes supplied?  The surrogate derives its answer from predicted counts.
zoi, target = (0, 1, 2), 0.5
labels = feasibility_labels(pairs, zoi, target)
rows = flatten_pair_rows(pairs, result.model.normalizer)   # fitted on `train`
split = 8 * 20                     # rows of the held-out pairs come first
tree = train_baseline("tree", rows[split:], labels[split:].astype(int), max_depth=8)
knn = train_baseline("knn", rows[split:], labels[split:].astype(int), k=5)
pred = []
for p in pairs:
    c = result.model.predict(p.m, p.scheme)
    z = np.asarray(zoi)
    ratio = c.n_c[z].sum(axis=0) / np.maximum(p.m.n[z].sum(axis=0), 1e-9)
    pred.append(ratio >= target)
pred = np.concatenate(pred)
print(f"F1 on held-out rows: surrogate {f_score(pred[:split], labels[:split]):.3f}, "
      f"tree {f_score(tree.predict(rows[:split]) > 0, labels[:split]):.3f}, "
      f"knn {f_score(knn.predict(rows[:split]) > 0, labels[:split]):.3f}")
