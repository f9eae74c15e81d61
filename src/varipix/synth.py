"""Synthetic test images.

Deterministic fixtures so the benchmark pipeline runs without downloaded
photographs. The five images in fixture_images() carry dense edge content
at many orientations (curved, axis-aligned, oblique, radial), which is the
regime the variable-pixel representation is built for. All generators
return float64 images with values in [0, 255].
"""

from __future__ import annotations

import numpy as np

FIXTURE_SIZE = 240  # multiple of the 6-pixel block


def checkerboard(n: int = FIXTURE_SIZE) -> np.ndarray:
    """Axis-aligned checkerboard of 9-pixel cells, so edges fall mid-block."""
    y, x = np.indices((n, n))
    board = (y // 9 + x // 9) % 2
    return np.where(board == 0, 60.0, 200.0)


def rings(n: int = FIXTURE_SIZE) -> np.ndarray:
    """Concentric alternating 12-pixel bands around the image center."""
    y, x = np.indices((n, n), dtype=np.float64)
    c = (n - 1) / 2.0
    dist = np.sqrt((x - c) ** 2 + (y - c) ** 2)
    return np.where((dist // 12) % 2 == 0, 50.0, 210.0)


def disks(n: int = FIXTURE_SIZE) -> np.ndarray:
    """Lattice of bright disks of radius 9 at a 24-pixel pitch (curved edges throughout the frame)."""
    y, x = np.indices((n, n), dtype=np.float64)
    cy = (y % 24) - 11.5
    cx = (x % 24) - 11.5
    return np.where(cx**2 + cy**2 <= 81.0, 220.0, 40.0)


def pinwheel(n: int = FIXTURE_SIZE) -> np.ndarray:
    """16 alternating angular sectors: oblique edges at every orientation."""
    y, x = np.indices((n, n), dtype=np.float64)
    c = (n - 1) / 2.0
    angle = np.arctan2(y - c, x - c)
    sector = np.floor(angle / (2 * np.pi / 16)).astype(np.int64)
    return np.where(sector % 2 == 0, 30.0, 230.0)


def sawtooth(n: int = FIXTURE_SIZE) -> np.ndarray:
    """Repeating diagonal gradients with a sharp reset every 24 pixels."""
    y, x = np.indices((n, n), dtype=np.float64)
    return ((x + y) % 24) * (255.0 / 23)


def fixture_images() -> dict[str, np.ndarray]:
    """The named five-fixture benchmark set."""
    return {
        "checkerboard": checkerboard(),
        "disks": disks(),
        "pinwheel": pinwheel(),
        "rings": rings(),
        "sawtooth": sawtooth(),
    }
