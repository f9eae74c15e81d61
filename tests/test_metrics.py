"""Mean squared error and PSNR."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varipix import mse, psnr


def test_mse_identical_is_zero(rng):
    img = rng.random((16, 16)) * 255.0
    assert mse(img, img) == 0.0


def test_mse_unit_offset():
    assert mse(np.zeros((8, 8)), np.ones((8, 8))) == 1.0


def test_mse_small_example():
    a = np.zeros((2, 2))
    b = np.array([[0.0, 1.0], [2.0, 3.0]])
    # (0 + 1 + 4 + 9) / 4
    assert mse(a, b) == (0.0 + 1.0 + 4.0 + 9.0) / 4


def test_mse_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape mismatch"):
        mse(np.zeros((2, 2)), np.zeros((2, 3)))


def test_psnr_identical_is_infinite(rng):
    img = rng.random((16, 16)) * 255.0
    assert mse(img, img) == 0.0
    assert psnr(img, img) == math.inf
    assert isinstance(psnr(img, img), float)


def test_psnr_is_minus_infinity_when_the_squared_error_overflows():
    a, b = np.full((2, 2), 1e200), np.zeros((2, 2))
    assert mse(a, b) == math.inf
    assert psnr(a, b) == -math.inf


def test_psnr_is_finite_for_different_images_whose_mse_is_tiny():
    # PEAK**2 / mse overflows below an mse of about 3.6e-304; the value is still finite
    a, b = np.zeros((2, 2)), np.full((2, 2), 1e-160)
    assert mse(a, b) == pytest.approx(1e-320, rel=1e-3)
    assert psnr(a, b) == pytest.approx(10.0 * (2.0 * math.log10(255.0) - math.log10(mse(a, b))))
    assert psnr(a, b) == pytest.approx(3248.13, abs=0.01)
    assert psnr(a, np.full((2, 2), 1e-150)) == pytest.approx(3048.13, abs=0.01)


def test_psnr_falls_with_the_mse_on_both_sides_of_the_overflow():
    errs = [5e-324, 1e-320, 1e-310, 3.5e-304, 3.7e-304, 1e-300, 1e-10]
    dbs = [psnr(np.zeros((1, 1)), np.array([[math.sqrt(err)]])) for err in errs]
    assert all(math.isfinite(db) for db in dbs)
    assert all(x > y for x, y in zip(dbs, dbs[1:]))


def test_psnr_unit_mse_reference_value():
    db = psnr(np.zeros((8, 8)), np.ones((8, 8)))
    assert mse(np.zeros((8, 8)), np.ones((8, 8))) == 1.0
    assert db == pytest.approx(48.1308, abs=1e-3)
    assert db == 10.0 * math.log10(255.0**2)


def test_psnr_full_scale_error():
    assert psnr(np.zeros((4, 4)), np.full((4, 4), 255.0)) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_psnr_symmetry(seed):
    gen = np.random.default_rng(seed)
    a = gen.random((6, 6)) * 255.0
    b = gen.random((6, 6)) * 255.0
    assert psnr(a, b) == psnr(b, a)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_psnr_shift_invariance(seed):
    gen = np.random.default_rng(seed)
    a = gen.random((6, 6)) * 100.0
    b = gen.random((6, 6)) * 100.0
    base = psnr(a, b)
    shifted = psnr(a + 50.0, b + 50.0)
    assert shifted == pytest.approx(base, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 1e6), st.floats(1.001, 10.0))
def test_psnr_strictly_decreasing_in_mse(err, factor):
    a = psnr(np.zeros((1, 1)), np.array([[math.sqrt(err)]]))
    b = psnr(np.zeros((1, 1)), np.array([[math.sqrt(err * factor)]]))
    assert b < a


def test_mse_accepts_lists():
    assert mse([[0.0, 0.0]], [[3.0, 4.0]]) == 12.5
