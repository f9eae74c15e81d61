"""Deterministic synthetic fixtures."""

from __future__ import annotations

import numpy as np

from varipix.synth import (
    FIXTURE_SIZE,
    checkerboard,
    disks,
    fixture_images,
    pinwheel,
    rings,
    sawtooth,
)


def test_fixture_set_names_and_shape():
    fixtures = fixture_images()
    assert sorted(fixtures) == ["checkerboard", "disks", "pinwheel", "rings", "sawtooth"]
    for img in fixtures.values():
        assert img.shape == (FIXTURE_SIZE, FIXTURE_SIZE)
        assert img.dtype == np.float64
        assert FIXTURE_SIZE % 6 == 0


def test_fixtures_are_deterministic():
    a = fixture_images()
    b = fixture_images()
    for name in a:
        assert np.array_equal(a[name], b[name])


def test_fixtures_stay_in_range():
    for img in fixture_images().values():
        assert img.min() >= 0.0
        assert img.max() <= 255.0


def test_fixtures_are_not_flat():
    for name, img in fixture_images().items():
        assert img.std() > 10.0, name


def test_two_level_generators():
    for img in (checkerboard(60), rings(60), disks(60), pinwheel(60)):
        assert len(np.unique(img)) == 2


def test_sawtooth_period():
    img = sawtooth(96)
    assert img[0, 0] == 0.0
    assert img[0, 23] == 255.0
    assert img[0, 24] == 0.0
    assert np.array_equal(img[:, :24], img[:, 24:48])


def test_custom_sizes():
    assert disks(48).shape == (48, 48)
