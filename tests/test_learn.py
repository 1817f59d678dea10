import numpy as np
import pytest

from floatsim import (ChannelModel, FcScheme, build_dataset, fit_normalizer,
                      gen_random_schemes, raster_embed, simulate_manhattan,
                      SpeedModel, KMH)
from floatsim.learn import (DecisionTreeClassifier, KNNClassifier,
                            RandomForestClassifier, SurrogateHyper, SurrogateModel,
                            check_layer, f_score, flatten_pair_rows,
                            load_model, make_examples, mean_baseline_mse,
                            rejection_probability, save_model, train_baseline,
                            train_surrogate)
from floatsim.learn.baselines import BaselineParameterError
from floatsim.learn.gradcheck import check_model_loss
from floatsim.learn.layers import Conv2D, Dense, Flatten, MaxPool2x2, ReLU, Softplus
from floatsim.learn.surrogate import TrainingDataError, TrainingDivergedError, masked_mse


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
    norm = Normalizer(("n", "lambda", "tau", "nu", "n_c", "gamma"),
                      np.zeros(6), np.ones(6))
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


def test_forest_single_tree_matches_lone_tree():
    x, y = _toy_rows(120)
    forest = RandomForestClassifier(n_trees=1, bootstrap=False,
                                    feature_frac=None, max_depth=4, seed=5).fit(x, y)
    tree = DecisionTreeClassifier(max_depth=4).fit(x, y)
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


def test_rejection_probability():
    strategies = ["s1", "s2", "s3", "s4"]
    verdicts = [True, False, True, True]
    assert rejection_probability(strategies, verdicts) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        rejection_probability(strategies, [True])


def test_masked_mse_ignores_padding(trained):
    res, pairs, emb = trained
    x, y = make_examples(pairs[:2], emb, res.model.normalizer)
    pred = res.model.forward(x)
    corrupted = pred.copy()
    corrupted[:, ~res.model.cell_mask, :] += 100.0    # padding cells only
    assert masked_mse(res.model, corrupted, y) == pytest.approx(
        masked_mse(res.model, pred, y))
