from dataclasses import replace

import numpy as np
import pytest

from floatsim import (ChannelModel, FcScheme, all_on, all_zero, build_dataset,
                      detect_contacts, fit_normalizer, gen_random_schemes,
                      load_dataset, raster_embed, run_fc, save_dataset)
from floatsim.dataset import feasibility_labels
from conftest import make_traj


@pytest.fixture(scope="module")
def embedding(grid):
    return raster_embed(grid, 9, 7)


@pytest.fixture(scope="module")
def small_pairs(grid, desk_traj, desk_contacts):
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode="instantaneous")
    emb = raster_embed(grid, 9, 7)
    schemes = gen_random_schemes(4, grid.num_links, 2, seed=21, style="mixed",
                                 embedding=emb)
    return build_dataset(desk_traj, grid, [150.0, 150.0], schemes, ch, seed=33,
                         contacts=desk_contacts), schemes, ch


def test_gen_appends_extremes(grid, embedding):
    schemes = gen_random_schemes(5, grid.num_links, 2, seed=1, embedding=embedding)
    assert len(schemes) == 7
    assert np.all(schemes[-2].a == 1.0) and np.all(schemes[-2].s == 1.0)
    assert np.all(schemes[-1].a == 0.0) and np.all(schemes[-1].s == 0.0)
    # the documented large-sample shape: 1000 requested -> 1002 returned
    big = gen_random_schemes(1000, 4, 1, seed=2, style="iid")
    assert len(big) == 1002


def test_gen_reproducible_and_in_range(grid, embedding):
    a = gen_random_schemes(6, grid.num_links, 3, seed=5, embedding=embedding)
    b = gen_random_schemes(6, grid.num_links, 3, seed=5, embedding=embedding)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.a, sb.a)
        assert np.array_equal(sa.b, sb.b)
        assert np.array_equal(sa.s, sb.s)
    for s in a:
        for plane in (s.a, s.b, s.s):
            assert np.all((plane >= 0) & (plane <= 1))


def test_gen_smoothed_is_spatially_coherent(grid, embedding):
    # neighbouring links should correlate more under the smoothed style
    iid = gen_random_schemes(30, grid.num_links, 1, seed=3, style="iid")[:-2]
    smo = gen_random_schemes(30, grid.num_links, 1, seed=3, style="smoothed",
                             embedding=embedding)[:-2]
    mids = grid.link_midpoints()
    d = np.linalg.norm(mids[:, None] - mids[None, :], axis=2)
    near = (d > 0) & (d < 160.0)

    def mean_abs_gap(schemes):
        gaps = []
        for s in schemes:
            diff = np.abs(s.a[:, 0][:, None] - s.a[:, 0][None, :])
            gaps.append(diff[near].mean())
        return np.mean(gaps)

    assert mean_abs_gap(smo) < mean_abs_gap(iid) * 0.8


def test_gen_requires_embedding_for_smoothed(grid):
    with pytest.raises(ValueError, match="embedding"):
        gen_random_schemes(3, grid.num_links, 1, seed=1, style="smoothed")


def test_build_dataset_shares_mobility_and_is_consistent(grid, desk_traj,
                                                         desk_contacts, small_pairs):
    pairs, schemes, ch = small_pairs
    assert len(pairs) == len(schemes)
    assert all(p.m is pairs[0].m for p in pairs)          # one shared feature array
    # all-zero scheme (appended last) produced an all-zero outcome
    assert np.all(pairs[-1].c.n_c == 0.0)
    assert np.all(pairs[-1].c.gamma == 0.0)
    # re-running with the stored seed reproduces the stored features exactly
    for p in (pairs[0], pairs[-2]):
        out = run_fc(desk_traj, desk_contacts, p.scheme, ch, [150.0, 150.0],
                     grid=grid, seed=p.seed)
        assert np.array_equal(out.n_c, p.c.n_c)
        assert np.array_equal(out.gamma, p.c.gamma)


def test_all_on_saturates_parked_cluster(grid):
    mid = np.array(grid.links[0].midpoint)
    tracks = [(i, 0, mid + [5.0 * i, 0.0]) for i in range(5)]
    traj = make_traj(grid, tracks, horizon=20)
    contacts = detect_contacts(traj, 100.0)
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode="instantaneous")
    pairs = build_dataset(traj, grid, [20.0], [all_on(grid.num_links, 1)], ch, seed=2,
                          contacts=contacts)
    assert pairs[0].c.n_c[0, 0] == pytest.approx(5.0)     # everyone holds throughout


def test_normalizer_roundtrip_and_constant_channel(small_pairs):
    pairs, _, _ = small_pairs
    norm = fit_normalizer(pairs)
    m = pairs[0].m
    z = norm.transform_mobility(m)
    assert z.shape == (4,) + m.shape
    for i, values in enumerate((m.n, m.lam, m.tau, m.nu)):
        np.testing.assert_array_equal(z[i], (values - norm.mean[i]) / norm.scale[i])
    # constant channel: tau is often all-zero on sparse runs; force one
    flat = replace(m, tau=np.zeros_like(m.tau))
    n2 = fit_normalizer([replace(pairs[0], m=flat)])
    assert n2.scale[2] == 1.0
    assert np.all(n2.transform_mobility(flat)[2] == 0.0)


def test_normalizer_matches_two_pass_oracle(small_pairs):
    pairs, _, _ = small_pairs
    chosen = [pairs[0], pairs[2]]
    norm = fit_normalizer(chosen)
    stacked = np.concatenate([p.m.n.ravel() for p in chosen])
    mean = sum(stacked) / len(stacked)
    var = sum((x - mean) ** 2 for x in stacked) / len(stacked)
    assert norm.mean[0] == pytest.approx(mean, rel=1e-9)
    assert norm.scale[0] == pytest.approx(np.sqrt(var), rel=1e-9)


def test_dataset_persistence_roundtrip(tmp_path, grid, small_pairs):
    pairs, _, ch = small_pairs
    save_dataset(tmp_path / "ds", pairs, grid, ch, [150.0, 150.0], 1.0)
    loaded, manifest = load_dataset(tmp_path / "ds")
    assert manifest["count"] == len(pairs)
    assert len(loaded) == len(pairs)
    for a, b in zip(pairs, loaded):
        np.testing.assert_array_equal(a.c.n_c, b.c.n_c)
        np.testing.assert_array_equal(a.scheme.a, b.scheme.a)
        np.testing.assert_array_equal(a.m.n, b.m.n)
        assert a.seed == b.seed
    # byte-identical re-save (dataset determinism)
    save_dataset(tmp_path / "ds2", loaded, grid, ch, [150.0, 150.0], 1.0)
    assert (tmp_path / "ds" / "pairs.csv").read_bytes() == \
        (tmp_path / "ds2" / "pairs.csv").read_bytes()


def test_measured_pairs_merge_with_simulated(small_pairs):
    # pairs observed in deployment join the training set with no schema change
    pairs, _, _ = small_pairs
    p = pairs[0]
    from floatsim.dataset import TrainingPair
    measured = TrainingPair(m=p.m, scheme=p.scheme, c=p.c, scenario="live", seed=0)
    merged = pairs + [measured]
    norm = fit_normalizer(merged)
    labels = feasibility_labels(merged, [0, 1], 0.5)
    assert labels.shape == (len(merged) * 2,)
    assert norm.scale.shape == (4,)


def test_feasibility_labels_extremes(grid, small_pairs):
    pairs, _, _ = small_pairs
    zoi = [0, 1, 2]
    labels = feasibility_labels(pairs, zoi, alpha0=0.9)
    assert labels.shape == (len(pairs) * 2,)
    # all-zero scheme rows are never feasible
    assert not labels[-1] and not labels[-2]
    # trivial target: anything with traffic passes alpha0 -> 0 is invalid, use tiny
    lax = feasibility_labels([pairs[-2]], zoi, alpha0=1e-9)
    strict_zero = feasibility_labels([pairs[-1]], zoi, alpha0=1e-9)
    assert lax.all()            # all-on meets a vanishing target
    assert not strict_zero.any()  # all-zero holds no content at all
