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


def checkerboard(n: int = FIXTURE_SIZE, cell: int = 9, lo: float = 60.0, hi: float = 200.0) -> np.ndarray:
    """Axis-aligned checkerboard; cell=9 puts edges mid-block."""
    y, x = np.indices((n, n))
    board = (y // cell + x // cell) % 2
    return np.where(board == 0, lo, hi).astype(np.float64)


def rings(n: int = FIXTURE_SIZE, period: int = 12, lo: float = 50.0, hi: float = 210.0) -> np.ndarray:
    """Concentric alternating bands around the image center."""
    y, x = np.indices((n, n), dtype=np.float64)
    c = (n - 1) / 2.0
    dist = np.sqrt((x - c) ** 2 + (y - c) ** 2)
    return np.where((dist // period) % 2 == 0, lo, hi).astype(np.float64)


def disks(n: int = FIXTURE_SIZE, pitch: int = 24, radius: float = 9.0, bg: float = 40.0, fg: float = 220.0) -> np.ndarray:
    """Lattice of bright disks (curved edges throughout the frame)."""
    y, x = np.indices((n, n), dtype=np.float64)
    cy = (y % pitch) - pitch / 2 + 0.5
    cx = (x % pitch) - pitch / 2 + 0.5
    return np.where(cx**2 + cy**2 <= radius**2, fg, bg).astype(np.float64)


def pinwheel(n: int = FIXTURE_SIZE, sectors: int = 16, lo: float = 30.0, hi: float = 230.0) -> np.ndarray:
    """Alternating angular sectors: oblique edges at every orientation."""
    y, x = np.indices((n, n), dtype=np.float64)
    c = (n - 1) / 2.0
    angle = np.arctan2(y - c, x - c)
    sector = np.floor(angle / (2 * np.pi / sectors)).astype(np.int64)
    return np.where(sector % 2 == 0, lo, hi).astype(np.float64)


def sawtooth(n: int = FIXTURE_SIZE, period: int = 24) -> np.ndarray:
    """Repeating diagonal gradients with a sharp reset every period."""
    y, x = np.indices((n, n), dtype=np.float64)
    return ((x + y) % period) * (255.0 / (period - 1))


def fixture_images(n: int = FIXTURE_SIZE) -> dict[str, np.ndarray]:
    """The named five-fixture benchmark set."""
    return {
        "checkerboard": checkerboard(n),
        "disks": disks(n),
        "pinwheel": pinwheel(n),
        "rings": rings(n),
        "sawtooth": sawtooth(n),
    }
