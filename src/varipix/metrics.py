"""Image quality metrics: mean squared error and PSNR."""

from __future__ import annotations

import math

import numpy as np

from .imgio import as_image

PEAK = 255.0  # intensities live on [0, 255]


def mse(a: np.ndarray, b: np.ndarray) -> float:
    a = as_image(a)
    b = as_image(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = np.subtract(a, b)
    with np.errstate(over="ignore"):  # an overflow gives inf, which psnr takes to its limit
        return float(np.mean(np.square(diff, out=diff)))


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10 * log10(PEAK^2 / mse) in dB; identical images give math.inf, and -math.inf if the mse overflows."""
    err = mse(a, b)
    if err == 0.0:
        return math.inf
    if err == math.inf:  # finite samples whose squared difference overflows float64: the limit
        return -math.inf
    ratio = PEAK * PEAK / err
    if ratio == math.inf:  # an mse below about 3.6e-304: different images, so a finite value
        return 10.0 * (2.0 * math.log10(PEAK) - math.log10(err))
    return 10.0 * math.log10(ratio)
