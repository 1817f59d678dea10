import json

import numpy as np
import pytest

from floatsim import (ChannelModel, FcScheme, build_dataset, fit_normalizer,
                      gen_random_schemes, raster_embed, simulate_manhattan,
                      SpeedModel, KMH)
from floatsim.learn import (DecisionTreeClassifier, KNNClassifier,
                            RandomForestClassifier, SurrogateHyper, SurrogateModel,
                            check_layer, f_score, flatten_pair_rows,
                            load_model, make_examples, save_model, train_baseline,
                            train_surrogate)
from floatsim.learn.baselines import BaselineParameterError
from floatsim.learn.gradcheck import check_model_loss
from floatsim.learn.layers import Conv2D, Dense, Flatten, MaxPool2x2, ReLU, Softplus
from floatsim.learn.surrogate import (TrainingDataError, TrainingDivergedError, input_rasters,
                                      masked_mse)
from floatsim.rng import derive_seed
from floatsim.dataset import link_inputs
from floatsim.mobility import MobilityFeatures
from floatsim.scheme import zoi_alpha


@pytest.fixture(scope="module")
def trained(grid):
    """A small but competent model over an instantaneous-transfer dataset."""
    emb = raster_embed(grid, 9, 7)
    traj = simulate_manhattan(grid, 0.05, SpeedModel.uniform(20 * KMH, 30 * KMH),
                              600.0, seed=11, warmup_s=200.0)
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode="instantaneous")
    schemes = gen_random_schemes(40, grid.num_links, 10, seed=21, embedding=emb)
    pairs = build_dataset(traj, grid, [60.0] * 10, schemes, ch, seed=33)
    res = train_surrogate(pairs[:34], emb,
                          hyper=SurrogateHyper(epochs=25, folds=2,
                                               learning_rate=0.1, seed=0))
    return res, pairs, emb


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_every_layer_matches_finite_differences():
    rng = np.random.default_rng(7)
    worst = {}
    for trial in range(3):
        x = rng.normal(size=(2, 6, 6, 3))
        cases = [("conv", Conv2D(3, 4, 3, rng), x),
                 ("relu", ReLU(), x + 0.03),
                 ("pool", MaxPool2x2(), x),
                 ("flatten", Flatten(), x),
                 ("dense", Dense(10, 4, rng), rng.normal(size=(3, 10))),
                 ("softplus", Softplus(), rng.normal(size=(3, 6)))]
        for name, layer, inp in cases:
            err = check_layer(layer, inp.copy(), seed=trial)
            worst[name] = max(worst.get(name, 0.0), err)
    assert all(err < 1e-4 for err in worst.values()), worst


def test_model_loss_gradient(grid):
    emb = raster_embed(grid, 9, 7)
    from floatsim.dataset import Normalizer
    norm = Normalizer(np.zeros(4), np.ones(4))
    model = SurrogateModel(emb, norm, SurrogateHyper(conv_channels=4, seed=3))
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 9, 7, 7))
    y = np.abs(rng.normal(size=(2, 9, 7, 2)))
    assert check_model_loss(model, x, y, max_params=40) < 1e-4


def test_maxpool_tie_routes_to_first_cell():
    pool = MaxPool2x2()
    x = np.zeros((1, 2, 2, 1))
    x[0, :, :, 0] = [[5.0, 5.0], [5.0, 5.0]]          # full tie
    out = pool.forward(x)
    assert out[0, 0, 0, 0] == 5.0
    dx = pool.backward(np.ones((1, 1, 1, 1)))
    assert dx[0, 0, 0, 0] == 1.0                      # first cell in scan order
    assert dx.sum() == 1.0


# ---------------------------------------------------------------------------
# training behaviour
# ---------------------------------------------------------------------------

def test_zero_epochs_returns_initialization(trained, grid):
    _, pairs, emb = trained
    hyper = SurrogateHyper(epochs=0, folds=2, seed=12)
    res = train_surrogate(pairs[:6], emb, hyper=hyper)
    fresh = SurrogateModel(emb, res.model.normalizer, hyper)
    assert np.array_equal(res.model.flat_params(), fresh.flat_params())


def test_training_reduces_validation_loss(trained):
    res, _, _ = trained
    assert res.final_val_loss <= res.initial_val_loss
    assert len(res.fold_losses) == 2
    assert all(np.isfinite(tr) and np.isfinite(va) for tr, va in res.fold_losses)


def test_ten_fold_cross_validation_reports_ten_pairs(trained):
    _, pairs, emb = trained
    res = train_surrogate(pairs[:12], emb,
                          hyper=SurrogateHyper(epochs=1, folds=10, seed=2))
    assert len(res.fold_losses) == 10
    assert all(va >= 0 for _, va in res.fold_losses)


def test_training_determinism(grid, trained):
    _, pairs, emb = trained
    h = SurrogateHyper(epochs=3, folds=2, learning_rate=0.05, seed=77)
    r1 = train_surrogate(pairs[:8], emb, hyper=h)
    r2 = train_surrogate(pairs[:8], emb, hyper=h)
    assert np.array_equal(r1.model.flat_params(), r2.model.flat_params())
    assert r1.fold_losses == r2.fold_losses


def test_divergence_reports_step(grid, trained):
    # a non-finite loss must abort training and name the offending step
    _, pairs, emb = trained
    from floatsim.learn.surrogate import _sgd_epochs
    res = train_surrogate(pairs[:4], emb, hyper=SurrogateHyper(epochs=0, folds=2))
    model = res.model
    model.layers[-2].b[0] = np.nan       # output head feeds the loss directly
    x, y = make_examples(pairs[:4], emb, model.normalizer)
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError) as err:
        _sgd_epochs(model, x, y, x, y, SurrogateHyper(epochs=2, folds=2), stream=0)
    assert err.value.step == 0


def test_empty_training_set_rejected(grid):
    emb = raster_embed(grid, 9, 7)
    with pytest.raises(TrainingDataError):
        train_surrogate([], emb)


def test_overfit_tiny_run(grid, desk_traj):
    # memorization floor: 10 pairs, 2000 epochs, training MSE under 1% of variance
    emb = raster_embed(grid, 9, 7)
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode="instantaneous")
    schemes = gen_random_schemes(8, grid.num_links, 3, seed=21, embedding=emb)
    pairs = build_dataset(desk_traj, grid, [100.0] * 3, schemes, ch, seed=33)[:10]
    res = train_surrogate(pairs, emb,
                          hyper=SurrogateHyper(epochs=2000, folds=2, batch=64,
                                               learning_rate=0.1, patience=2000,
                                               conv_channels=12, seed=0))
    errs = [np.mean((res.model.predict(p.m, p.scheme).n_c - p.c.n_c) ** 2)
            for p in pairs]
    var = np.concatenate([p.c.n_c.ravel() for p in pairs]).var()
    assert np.mean(errs) < 0.01 * var


def test_surrogate_beats_mean_baseline(trained):
    res, pairs, emb = trained
    test = pairs[34:]
    errs = [np.mean((res.model.predict(p.m, p.scheme).n_c - p.c.n_c) ** 2)
            for p in test]
    train_mean = np.mean([p.c.n_c for p in pairs[:34]])
    base = [np.mean((train_mean - p.c.n_c) ** 2) for p in test]
    assert np.mean(errs) <= 0.8 * np.mean(base)


def test_monotone_sanity_in_replication_plane(trained):
    res, pairs, _ = trained
    diffs = []
    for p in pairs[34:]:
        lo = FcScheme(np.zeros(p.scheme.a.shape), p.scheme.b, p.scheme.s)
        hi = FcScheme(np.ones(p.scheme.a.shape), p.scheme.b, p.scheme.s)
        diffs.append(res.model.predict(p.m, hi).n_c.mean()
                     - res.model.predict(p.m, lo).n_c.mean())
    diffs = np.array(diffs)
    rng = np.random.default_rng(0)
    boot = np.array([rng.choice(diffs, size=len(diffs)).mean() >= 0
                     for _ in range(200)])
    assert boot.mean() >= 0.95


def test_predict_is_pure_and_finite(trained):
    res, pairs, _ = trained
    probe = pairs[-3]
    before = res.model.predict(probe.m, probe.scheme)
    _ = res.model.predict(pairs[0].m, pairs[0].scheme)
    _ = res.model.predict(pairs[1].m, pairs[1].scheme)
    after = res.model.predict(probe.m, probe.scheme)
    assert np.array_equal(before.n_c, after.n_c)
    assert np.all(np.isfinite(before.n_c)) and np.all(before.n_c >= 0)

    zero_m = pairs[0].m
    zeros = FcScheme(*np.zeros((3,) + zero_m.shape))
    out = res.model.predict(zero_m, zeros)
    assert np.all(np.isfinite(out.n_c)) and np.all(np.isfinite(out.gamma))


def _lone_forward(model, m, scheme):
    """n_c and gamma of one strategy from a forward pass of its own rasters,
    built channel by channel as the surrogate's input stack."""
    x = model.embedding.rasterize(link_inputs(model.normalizer, m, scheme).transpose(2, 0, 1))
    out = model.forward(x.transpose(0, 2, 3, 1))
    ratio = model.embedding.unrasterize(out.transpose(3, 0, 1, 2)).transpose(0, 2, 1)
    return np.ascontiguousarray(ratio) * m.n


@pytest.mark.parametrize("T", [10, 1])
def test_predict_many_equals_lone_forward_passes(trained, T):
    # with one interval the head multiplies a single row per strategy, which
    # BLAS rounds otherwise than a product of several rows
    res, pairs, _ = trained
    model, full = res.model, pairs[0].m
    m = MobilityFeatures(full.n[:, :T], full.lam[:, :T], full.tau[:, :T], full.nu[:, :T],
                         full.empty[:, :T], full.d_t[:T])
    pool = [FcScheme(p.scheme.a[:, :T], p.scheme.b[:, :T], p.scheme.s[:, :T])
            for p in pairs[:9]]
    lone = [_lone_forward(model, m, scheme) for scheme in pool]
    for size in (1, 2, len(pool)):
        for lo in range(0, len(pool) - size + 1, size):
            for c, want in zip(model.predict_many(m, pool[lo:lo + size]), lone[lo:lo + size]):
                assert c.n_c.flags.c_contiguous and c.gamma.shape == m.shape + (1,)
                assert c.n_c.tobytes() == want[0].tobytes()
                assert c.gamma.tobytes() == want[1][:, :, None].tobytes()
    assert model.predict(m, pool[3]).n_c.tobytes() == lone[3][0].tobytes()
    assert model.predict_many(m, []) == []


def test_model_save_load_roundtrip(tmp_path, trained):
    res, pairs, _ = trained
    path = tmp_path / "model.bin"
    save_model(res.model, path)
    back = load_model(path)
    assert np.array_equal(back.flat_params(), res.model.flat_params())
    p = pairs[-1]
    np.testing.assert_array_equal(back.predict(p.m, p.scheme).n_c,
                                  res.model.predict(p.m, p.scheme).n_c)
    assert back.param_count == res.model.param_count


def test_six_channel_model_file_asks_for_retraining(tmp_path, trained):
    # model files written before the normalizer covered only the four
    # mobility channels carry six means and scales
    res, _, _ = trained
    path = tmp_path / "model.bin"
    save_model(res.model, path)
    header, blob = path.read_bytes().split(b"\n", 1)
    old = json.loads(header)
    old["normalizer"] = {"names": ["n", "lambda", "tau", "nu", "n_c", "gamma"],
                         "mean": [0.0] * 6, "scale": [1.0] * 6}
    path.write_bytes(json.dumps(old, sort_keys=True).encode() + b"\n" + blob)
    with pytest.raises(ValueError, match="re-run"):
        load_model(path)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def _toy_rows(n=60, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 5))
    y = (x[:, 0] + 0.3 * x[:, 1] > 0).astype(int)
    return x, y


def test_knn_k1_recalls_training_labels():
    x, y = _toy_rows()
    model = train_baseline("knn", x, y, k=1)
    assert np.array_equal(model.predict(x), y)


def test_knn_k_exceeding_samples_rejected():
    x, y = _toy_rows(10)
    with pytest.raises(BaselineParameterError):
        train_baseline("knn", x, y, k=11)


def test_single_leaf_tree_is_majority_vote():
    x, y = _toy_rows()
    model = train_baseline("tree", x, y, max_depth=0)
    expected = int(np.bincount(y).argmax())
    assert np.all(model.predict(x) == expected)


def test_tree_learns_separable_data():
    x, y = _toy_rows(200)
    model = DecisionTreeClassifier(max_depth=6).fit(x, y)
    assert (model.predict(x) == y).mean() > 0.95


def test_tree_splits_adjacent_floats():
    # (0.9999999999999999 + 1.0) / 2 rounds to 1.0: a midpoint threshold
    # would send both rows left and leave an empty right child
    lo = 0.9999999999999999
    assert np.nextafter(lo, 2.0) == 1.0 and (lo + 1.0) / 2.0 == 1.0
    x = np.array([[lo], [1.0], [lo], [1.0]])
    y = np.array([0, 1, 0, 1])
    model = DecisionTreeClassifier().fit(x, y)
    assert np.array_equal(model.predict(x), y)


def _loop_best_split(tree, x, y):
    """The split search as a loop over the features, one sort each: the
    reference the one-pass search must reproduce."""
    from floatsim.learn.baselines import _gini_from_counts, _split_point
    n = len(y)
    best = (np.inf, None, None)
    onehot = np.zeros((n, tree._classes))
    onehot[np.arange(n), y] = 1.0
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        cum = np.cumsum(onehot[order], axis=0)
        cut = np.nonzero(xs[:-1] < xs[1:])[0]
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


def _split_sets(trained):
    """Desk-like surrogate rows with feasibility labels, and a random
    three-class set whose rounded features tie often."""
    res, pairs, _ = trained
    rows = flatten_pair_rows(pairs, res.model.normalizer)
    alpha = np.concatenate([zoi_alpha(p.c.n_c, p.m.n, (0, 1, 2)) for p in pairs])
    desk = (rows, (alpha >= np.median(alpha)).astype(np.int64))
    gen = np.random.default_rng(12)
    x = np.round(gen.normal(size=(150, 12)), 1)
    return [desk, (x, gen.integers(0, 3, len(x)))]


def test_one_pass_split_matches_feature_loop(trained, monkeypatch):
    gen = np.random.default_rng(4)
    for x, y in _split_sets(trained):
        tree = DecisionTreeClassifier().fit(x, y)
        for size in (2, 3, 10, len(y) // 2, len(y)):       # nodes of several sizes
            rows = gen.choice(len(y), size, replace=False)
            assert tree._best_split(x[rows], y[rows]) == _loop_best_split(tree, x[rows], y[rows])
        probe = np.round(gen.normal(size=(200, x.shape[1])), 1)
        fits = []
        for split in (DecisionTreeClassifier._best_split, _loop_best_split):
            monkeypatch.setattr(DecisionTreeClassifier, "_best_split", split)
            models = [DecisionTreeClassifier(max_depth=6).fit(x, y),
                      RandomForestClassifier(n_trees=4, max_depth=6, seed=3).fit(x, y)]
            fits.append([m.predict(z) for m in models for z in (x, probe)])
        assert all(np.array_equal(a, b) for a, b in zip(*fits))


def test_forest_single_tree_matches_lone_tree():
    x, y = _toy_rows(120)
    forest = RandomForestClassifier(n_trees=1, max_depth=4, seed=5).fit(x, y)
    # the forest's one tree is fit on its bootstrap rows
    rows = np.random.default_rng(derive_seed(5, 401, 0)).integers(0, len(x), len(x))
    tree = DecisionTreeClassifier(max_depth=4).fit(x[rows], y[rows])
    probe = np.random.default_rng(1).normal(size=(50, 5))
    assert np.array_equal(forest.predict(probe), tree.predict(probe))


def test_forest_determinism():
    x, y = _toy_rows(100)
    a = RandomForestClassifier(n_trees=5, max_depth=4, seed=9).fit(x, y)
    b = RandomForestClassifier(n_trees=5, max_depth=4, seed=9).fit(x, y)
    probe = np.random.default_rng(2).normal(size=(40, 5))
    assert np.array_equal(a.predict(probe), b.predict(probe))


def test_flatten_pair_rows_shape(trained):
    _, pairs, _ = trained
    norm = fit_normalizer(pairs)
    rows = flatten_pair_rows(pairs[:3], norm)
    L, T = pairs[0].m.shape
    assert rows.shape == (3 * T, 7 * L)


def _interval_links(norm, m, scheme, t):
    """The per-link planes of interval t as the per-interval builders made
    them: each mobility channel z-scored on its own, then a, b and s."""
    mob = [(v[:, t] - norm.mean[i]) / norm.scale[i]
           for i, v in enumerate((m.n, m.lam, m.tau, m.nu))]
    return mob + [scheme.a[:, t], scheme.b[:, t], scheme.s[:, t]]


def test_input_stack_matches_per_interval_builders(trained):
    res, pairs, emb = trained
    model, norm = res.model, res.model.normalizer
    chosen = pairs[:3] + pairs[-2:]
    T = chosen[0].m.shape[1]
    assert T == 10
    xs, ys, rows = [], [], []
    for p in chosen:
        m = p.m
        nc_ratio = np.where(m.n > 0, p.c.n_c / np.maximum(m.n, 1e-12), 0.0)
        g_ratio = np.where(m.n > 0, p.c.gamma.sum(axis=2) / np.maximum(m.n, 1e-12), 0.0)
        x = []
        for t in range(T):
            planes = _interval_links(norm, m, p.scheme, t)
            x.append(np.stack([emb.rasterize(v) for v in planes], axis=-1))
            ys.append(np.stack([emb.rasterize(nc_ratio[:, t]),
                                emb.rasterize(g_ratio[:, t])], axis=-1))
            rows.append(np.concatenate(planes))
        assert input_rasters(emb, norm, m, [p.scheme]).tobytes() == np.stack(x).tobytes()
        xs += x
        out = model.forward(np.stack(x))
        n_c = np.stack([emb.unrasterize(out[t, :, :, 0]) for t in range(T)], axis=1) * m.n
        g = np.stack([emb.unrasterize(out[t, :, :, 1]) for t in range(T)], axis=1) * m.n
        c = model.predict(m, p.scheme)
        assert c.n_c.flags.c_contiguous
        assert c.n_c.tobytes() == n_c.tobytes()
        assert c.gamma.tobytes() == g[:, :, None].tobytes()
    x_new, y_new = make_examples(chosen, emb, norm)
    assert x_new.tobytes() == np.stack(xs).tobytes() and x_new.shape == np.stack(xs).shape
    assert y_new.tobytes() == np.stack(ys).tobytes() and y_new.shape == np.stack(ys).shape
    flat = flatten_pair_rows(chosen, norm)
    assert flat.tobytes() == np.stack(rows).tobytes() and flat.shape == np.stack(rows).shape


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_f_score_cases():
    assert f_score([1, 0, 1], [1, 0, 1]) == 1.0
    assert f_score([0, 0], [1, 1]) == 0.0
    # precision = recall = 0.5 -> F1 = 0.5
    pred = [1, 1, 0, 0]
    true = [1, 0, 1, 0]
    assert f_score(pred, true) == pytest.approx(0.5)


def test_masked_mse_ignores_padding(trained):
    res, pairs, emb = trained
    x, y = make_examples(pairs[:2], emb, res.model.normalizer)
    pred = res.model.forward(x)
    corrupted = pred.copy()
    corrupted[:, ~res.model.cell_mask, :] += 100.0    # padding cells only
    assert masked_mse(res.model, corrupted, y) == pytest.approx(
        masked_mse(res.model, pred, y))
