"""Image quality metrics: mean squared error and PSNR."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imgio import as_image

PEAK = 255.0  # intensities live on [0, 255]


@dataclass(frozen=True)
class QualityReport:
    mse: float
    psnr_db: float  # math.inf when mse == 0


def mse(a: np.ndarray, b: np.ndarray) -> float:
    a = as_image(a)
    b = as_image(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def psnr(a: np.ndarray, b: np.ndarray) -> QualityReport:
    """10 * log10(PEAK^2 / mse); identical images report infinite PSNR."""
    err = mse(a, b)
    if err == 0.0:
        return QualityReport(0.0, math.inf)
    return QualityReport(err, 10.0 * math.log10(PEAK * PEAK / err))
