"""Seeded noise models: distribution checks and bit-level determinism."""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varipix import NoiseSpec, apply_noise
from varipix.noise import _PAIRS, _standard_normals, draw_noise

from .conftest import random_image


def salt_pepper(img, density, seed):
    return apply_noise(img, NoiseSpec("salt_pepper", density=density, seed=seed))


def gaussian(img, sigma, seed):
    return apply_noise(img, NoiseSpec("gaussian", sigma=sigma, seed=seed))


def speckle(img, variance, seed):
    return apply_noise(img, NoiseSpec("speckle", variance=variance, seed=seed))


def test_salt_pepper_density_zero_is_identity(rng):
    img = random_image(rng, 20, 20)
    assert np.array_equal(salt_pepper(img, 0.0, seed=1), img)


def test_salt_pepper_density_one_saturates(rng):
    img = random_image(rng, 20, 20)
    out = salt_pepper(img, 1.0, seed=1)
    assert np.isin(out, (0.0, 255.0)).all()


def test_salt_pepper_count_within_four_sigma():
    img = np.full((512, 512), 128.0)
    density = 0.05
    out = salt_pepper(img, density, seed=42)
    changed = int(np.count_nonzero(out != 128.0))
    n = img.size
    expected = n * density
    sigma = math.sqrt(n * density * (1.0 - density))
    assert abs(changed - expected) <= 4.0 * sigma
    assert np.isin(out[out != 128.0], (0.0, 255.0)).all()


def test_salt_pepper_salt_and_pepper_roughly_balanced():
    img = np.full((512, 512), 128.0)
    out = salt_pepper(img, 0.05, seed=7)
    salt = int(np.count_nonzero(out == 255.0))
    pepper = int(np.count_nonzero(out == 0.0))
    total = salt + pepper
    sigma = math.sqrt(total * 0.25)
    assert abs(salt - total / 2) <= 4.0 * sigma


def test_salt_pepper_rejects_bad_density():
    with pytest.raises(ValueError, match="density"):
        salt_pepper(np.zeros((2, 2)), 1.5, seed=1)


def test_gaussian_sigma_zero_is_identity(rng):
    img = random_image(rng, 20, 20)
    assert np.array_equal(gaussian(img, 0.0, seed=1), img)


def test_gaussian_sample_mean_tracks_clt_bound():
    img = np.full((512, 512), 128.0)
    sigma = 10.0
    out = gaussian(img, sigma, seed=42)
    n = img.size
    assert abs(out.mean() - 128.0) <= 4.0 * sigma / math.sqrt(n)


def test_gaussian_sample_std_close():
    img = np.full((512, 512), 128.0)
    out = gaussian(img, 10.0, seed=42)
    assert out.std() == pytest.approx(10.0, rel=0.05)


def test_gaussian_clips_to_range(rng):
    img = random_image(rng, 32, 32)
    out = gaussian(img, 200.0, seed=3)
    assert out.min() >= 0.0
    assert out.max() <= 255.0


def test_gaussian_rejects_negative_sigma():
    with pytest.raises(ValueError, match="sigma"):
        gaussian(np.zeros((2, 2)), -1.0, seed=1)


def test_speckle_variance_zero_is_identity(rng):
    img = random_image(rng, 20, 20)
    assert np.array_equal(speckle(img, 0.0, seed=1), img)


def test_speckle_leaves_black_pixels_black():
    img = np.zeros((64, 64))
    assert np.array_equal(speckle(img, 0.04, seed=5), img)


def test_speckle_per_pixel_std_scales_with_intensity():
    img = np.full((512, 512), 100.0)
    out = speckle(img, 0.04, seed=42)
    # noise std should be 100 * sqrt(0.04) = 20, within 5 percent
    assert (out - 100.0).std() == pytest.approx(20.0, rel=0.05)


def test_speckle_rejects_negative_variance():
    with pytest.raises(ValueError, match="variance"):
        speckle(np.zeros((2, 2)), -0.1, seed=1)


def test_same_seed_is_bit_identical(rng):
    img = random_image(rng, 48, 48)
    for fn, arg in ((salt_pepper, 0.05), (gaussian, 25.5), (speckle, 0.04)):
        a = fn(img, arg, seed=42)
        b = fn(img, arg, seed=42)
        assert np.array_equal(a, b)
        assert a.tobytes() == b.tobytes()


def test_different_seeds_differ(rng):
    img = random_image(rng, 48, 48)
    for fn, arg in ((salt_pepper, 0.05), (gaussian, 25.5), (speckle, 0.04)):
        assert not np.array_equal(fn(img, arg, seed=1), fn(img, arg, seed=2))


def test_noise_does_not_mutate_input(rng):
    img = random_image(rng, 16, 16)
    copy = img.copy()
    salt_pepper(img, 0.5, seed=1)
    gaussian(img, 25.5, seed=1)
    speckle(img, 0.04, seed=1)
    assert np.array_equal(img, copy)


def test_apply_noise_dispatch_matches_direct(rng):
    # the module docstring's stream, written out; 35 pixels leave the last normal pair half used
    img = random_image(rng, 5, 7)
    u = np.random.Generator(np.random.PCG64(9)).random(2 * img.size)
    corrupt = u[: img.size] < 0.1
    flips = u[img.size : img.size + corrupt.sum()]
    want = img.ravel().copy()
    want[corrupt] = np.where(flips < 0.5, 0.0, 255.0)
    assert np.array_equal(apply_noise(img, NoiseSpec("salt_pepper", density=0.1, seed=9)), want.reshape(img.shape))
    u1, u2 = u[0:36:2], u[1:36:2]
    radius = np.sqrt(-2.0 * np.log(1.0 - u1))
    z = np.column_stack([radius * np.cos(2 * np.pi * u2), radius * np.sin(2 * np.pi * u2)]).ravel()
    z = z[: img.size].reshape(img.shape)
    got = apply_noise(img, NoiseSpec("gaussian", sigma=5.0, seed=9))
    np.testing.assert_allclose(got, np.clip(img + 5.0 * z, 0.0, 255.0), rtol=1e-12, atol=1e-9)
    got = apply_noise(img, NoiseSpec("speckle", variance=0.02, seed=9))
    np.testing.assert_allclose(got, np.clip(img + img * (np.sqrt(0.02) * z), 0.0, 255.0), rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize(
    "n",
    [1, 2, 35, 4096, 100001, 2 * _PAIRS - 2, 2 * _PAIRS - 1, 2 * _PAIRS, 2 * _PAIRS + 2,
     4 * _PAIRS - 2, 4 * _PAIRS + 1, 4 * _PAIRS + 2],
)
def test_in_place_box_muller_has_the_bits_of_the_expressions(n):
    # the module docstring's expressions, each ufunc on fresh contiguous arrays; the
    # pair counts around one and two chunks end a chunk one pair short, full or over
    u = np.random.Generator(np.random.PCG64(n)).random(((n + 1) // 2, 2))
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    angle = 2.0 * np.pi * u[:, 1]
    want = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)]).ravel()[:n]
    got = _standard_normals(np.random.Generator(np.random.PCG64(n)), n)
    assert got.shape == (n,) and got.tobytes() == want.tobytes()


def test_box_muller_holds_one_chunk_beside_its_draw_buffer():
    # the (pairs, 2) draw buffer is the one image-sized array; cos has one chunk
    h, w = 509, 512
    _standard_normals(np.random.Generator(np.random.PCG64(1)), 64)
    tracemalloc.start()
    try:
        _standard_normals(np.random.Generator(np.random.PCG64(1)), h * w)
        left, peak = tracemalloc.get_traced_memory()  # left: the interpreter's bookkeeping
    finally:
        tracemalloc.stop()
    assert left < 0.5 * h * w * 8, left / (h * w * 8)
    assert peak - left <= 1.1 * h * w * 8, (peak - left) / (h * w * 8)


@pytest.mark.parametrize("kind", ["salt_pepper", "gaussian", "speckle"])
@pytest.mark.parametrize("shape", [(5, 7), (48, 48)], ids=str)
def test_applying_a_given_draw_is_applying_its_own(rng, kind, shape):
    # 5 x 7: an odd pixel count leaves the last normal pair half used
    spec = NoiseSpec(kind, density=0.3, seed=9)
    img = rng.random(shape) * 255.0
    draw = draw_noise(shape, spec)
    parts = draw if kind == "salt_pepper" else (draw,)
    kept = [a.copy() for a in parts]
    assert apply_noise(img, spec, draw).tobytes() == apply_noise(img, spec).tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(parts, kept))  # the draw is only read


@pytest.mark.parametrize("kind", ["salt_pepper", "gaussian", "speckle"])
def test_apply_noise_rejects_a_draw_for_another_shape(kind):
    spec = NoiseSpec(kind)
    with pytest.raises(ValueError, match=re.escape("the draw is for images of shape (6, 5), not (5, 6)")):
        apply_noise(np.zeros((5, 6)), spec, draw_noise((6, 5), spec))


def test_noisespec_validation():
    with pytest.raises(ValueError, match="unknown noise kind"):
        NoiseSpec("poisson")
    with pytest.raises(ValueError, match="density"):
        NoiseSpec("salt_pepper", density=-0.1)
    with pytest.raises(ValueError, match="sigma"):
        NoiseSpec("gaussian", sigma=-2.0)
    with pytest.raises(ValueError, match="variance"):
        NoiseSpec("speckle", variance=-0.5)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="density"):
            NoiseSpec("salt_pepper", density=value)
        with pytest.raises(ValueError, match="sigma"):
            NoiseSpec("gaussian", sigma=value)
        with pytest.raises(ValueError, match="variance"):
            NoiseSpec("speckle", variance=value)
    for seed in (-1, 1.5, "7", None, True, False):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer >= 0, got {seed!r}")):
            NoiseSpec("gaussian", seed=seed)


def test_noisespec_defaults():
    spec = NoiseSpec("gaussian")
    assert (spec.density, spec.sigma, spec.variance, spec.seed) == (0.05, 25.5, 0.04, 42)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["salt_pepper", "gaussian", "speckle"]))
def test_noise_output_stays_in_range(seed, kind):
    img = np.random.default_rng(seed).random((12, 12)) * 255.0
    out = apply_noise(img, NoiseSpec(kind, seed=seed))
    assert out.min() >= 0.0
    assert out.max() <= 255.0
    assert out.shape == img.shape


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2, 2), (0, 3, 3), (2, 0, 3)])
def test_apply_noise_rejects_shapes_other_than_images(shape):
    with pytest.raises(ValueError, match="image must be 2-D with samples"):
        apply_noise(np.zeros(shape), NoiseSpec("gaussian"))
