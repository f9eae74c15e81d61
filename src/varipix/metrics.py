"""Image quality metrics: mean squared error and PSNR.

`mse` is `np.mean(np.square(a - b))` bit for bit, without the full-image
difference. numpy sums a contiguous row of n values pairwise: it splits at
n2 = n // 2 - (n // 2) % 8 until a node holds at most 128 values, so a
node's sum depends only on its length. `mse` walks the same splits down to
nodes of at most `_NODE` values, squares each node's differences in one
scratch buffer and lets `np.add.reduce` sum them, then adds the node sums up
the tree as Python floats. Every 240x240 image is one node, three numpy
calls; smaller nodes cost more short calls per PSNR, each of which gives the
GIL away. Inputs are summed in C order whatever their layout; a view that
is not C-contiguous is copied first.
"""

from __future__ import annotations

import math

import numpy as np

from .imgio import as_image

PEAK = 255.0  # intensities live on [0, 255]
_NODE = 65536  # largest node of the pairwise tree that one numpy call sums


def _squared_sum(x: np.ndarray, y: np.ndarray, n: int, buf: np.ndarray) -> float:
    """The pairwise sum of (x - y)**2 over the first n values of the flat rows x and y."""
    if n > _NODE:
        n2 = n // 2 - (n // 2) % 8
        return _squared_sum(x, y, n2, buf) + _squared_sum(x[n2:], y[n2:], n - n2, buf)
    d = np.subtract(x[:n], y[:n], out=buf[:n])
    return float(np.add.reduce(np.square(d, out=d)))


def mse(a: np.ndarray, b: np.ndarray) -> float:
    a = as_image(a)
    b = as_image(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    x, y = a.reshape(-1), b.reshape(-1)
    with np.errstate(over="ignore"):  # an overflow gives inf, which psnr takes to its limit
        return _squared_sum(x, y, x.size, np.empty(min(x.size, _NODE))) / x.size


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
