"""The smoothed random strategies without SciPy, checked against SciPy.

`dataset.gaussian_blur` and `dataset.erf` repeat the float operations of
`scipy.ndimage.gaussian_filter(..., mode="nearest")` and `scipy.special.erf`;
these tests require the same bits, and keep the per-field SciPy body of
`_smoothed_planes` as the reference for `gen_random_schemes`.  SciPy is a
test dependency only, so they are skipped where it is not installed.
"""

import math

import numpy as np
import pytest

scipy_ndimage = pytest.importorskip("scipy.ndimage")
scipy_special = pytest.importorskip("scipy.special")

from floatsim import FcScheme, all_on, all_zero, gen_random_schemes, raster_embed
from floatsim.dataset import erf, gaussian_blur
from floatsim.rng import derive_seed


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _smoothed_planes_by_scipy(generator, embedding, T, blur=1.5):
    """The SciPy body of `_smoothed_planes`, one field at a time."""
    out = np.empty((3, embedding.num_links, T))
    for p in range(3):
        gain = float(generator.choice([1.0, 3.0, 8.0]))
        for t in range(T):
            field = generator.normal(size=(embedding.H, embedding.W))
            field = scipy_ndimage.gaussian_filter(field, blur, mode="nearest")
            sd = field.std()
            if sd > 0:
                field = (field - field.mean()) / sd
            squashed = 0.5 * (1.0 + scipy_special.erf(gain * field / math.sqrt(2.0)))
            out[p, :, t] = embedding.unrasterize(squashed)
    return out


def _gen_random_schemes_by_scipy(K, L, T, seed, style, embedding):
    schemes = []
    for k in range(K):
        generator = np.random.default_rng(derive_seed(seed, 303, k))
        if style == "smoothed" or (style == "mixed" and k % 2 == 1):
            planes = _smoothed_planes_by_scipy(generator, embedding, T)
        else:
            planes = generator.uniform(0.0, 1.0, (3, L, T))
        schemes.append(FcScheme(planes[0], planes[1], planes[2]))
    return schemes + [all_on(L, T), all_zero(L, T)]


@pytest.mark.parametrize("shape", [(2, 2), (4, 3), (9, 7), (20, 16)])
def test_blur_matches_gaussian_filter(shape):
    rng = np.random.default_rng(sum(shape))
    fields = rng.normal(size=(2, 5) + shape)
    got = gaussian_blur(fields, 1.5)
    for index in np.ndindex(fields.shape[:2]):
        want = scipy_ndimage.gaussian_filter(fields[index], 1.5, mode="nearest")
        assert np.array_equal(_bits(got[index]), _bits(want))


def test_blur_of_one_field_matches_its_stack():
    fields = np.random.default_rng(3).normal(size=(6, 9, 7))
    stacked = gaussian_blur(fields, 1.5)
    for field, blurred in zip(fields, stacked):
        assert np.array_equal(_bits(gaussian_blur(field, 1.5)), _bits(blurred))


def test_erf_matches_scipy():
    rng = np.random.default_rng(17)
    sqrt_maxlog = math.sqrt(7.09782712893383996843E2)          # about 26.64
    x = np.concatenate([
        rng.uniform(-1.0, 1.0, 20_000),                         # the rational branch
        [1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)],
        rng.uniform(1.0, 8.0, 20_000), -rng.uniform(1.0, 8.0, 5_000),   # erfc by P/Q
        [8.0, -8.0, np.nextafter(8.0, 0.0)],
        rng.uniform(8.0, sqrt_maxlog, 5_000),                   # erfc by R/S
        [sqrt_maxlog, np.nextafter(sqrt_maxlog, 30.0), 26.7, 30.0, 1e10, -1e10, 1e200],
        [0.0, -0.0, 5e-324, -5e-324, 1e-300],
    ])
    assert np.array_equal(_bits(erf(x)), _bits(scipy_special.erf(x)))
    assert np.signbit(erf(np.array([-0.0]))[0])


@pytest.mark.parametrize("style", ["iid", "smoothed", "mixed"])
@pytest.mark.parametrize("H, W, K, T", [(9, 7, 14, 3), (4, 3, 5, 1), (9, 7, 30, 100)])
def test_schemes_match_the_scipy_body(grid, style, H, W, K, T):
    emb = raster_embed(grid, H, W)
    for seed in range(3):
        got = gen_random_schemes(K, grid.num_links, T, seed, style, emb)
        want = _gen_random_schemes_by_scipy(K, grid.num_links, T, seed, style, emb)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            for plane in "abs":
                assert np.array_equal(_bits(getattr(a, plane)), _bits(getattr(b, plane)))
                assert getattr(a, plane).flags.c_contiguous
