"""Seeded sensor-noise models: salt & pepper, additive gaussian, speckle.

Reproducibility contract: all draws come from numpy's PCG64 bit generator
(PCG XSL RR 128/64) seeded with the caller's 64-bit seed, consumed as
uniform float64 in [0, 1) in row-major pixel order. Normal variates use
the trigonometric Box-Muller transform, two uniforms per pair of normals:

    z0 = sqrt(-2 ln(1 - u1)) * cos(2 pi u2)
    z1 = sqrt(-2 ln(1 - u1)) * sin(2 pi u2)

with pairs interleaved (z0, z1, z0, z1, ...) along the row-major pixel
stream. Salt & pepper consumes one uniform per pixel (corruption decision,
row-major), then one extra uniform per corrupted pixel (again row-major):
flip < 0.5 means pepper (0), otherwise salt (255). Identical inputs and
seed give bit-identical outputs.

The transform runs in place in the buffer the uniforms are drawn into,
each ufunc with the operands and in the order of the expressions above
(`log1p(-u1)` for ln(1 - u1)), so every normal has the bits those
expressions give on fresh arrays. It runs over _PAIRS pairs at a time,
and only cos(2 pi u2) has a buffer of its own, one chunk long.

A draw and its application are two steps: `draw_noise` needs only the
image shape and the spec, so a caller can draw while the image is still
being made, and `apply_noise` applies a given draw, or makes one itself.
One draw applied to two images of its shape gives both the same noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imgio import as_image

NOISE_KINDS = ("salt_pepper", "gaussian", "speckle")
# The one definition of the noise defaults; NoiseSpec, PipelineConfig and the CLI read them.
DEFAULT_DENSITY = 0.05
DEFAULT_SIGMA = 25.5
DEFAULT_VARIANCE = 0.04
DEFAULT_SEED = 42


@dataclass(frozen=True)
class NoiseSpec:
    kind: str
    density: float = DEFAULT_DENSITY  # salt_pepper: per-pixel corruption probability
    sigma: float = DEFAULT_SIGMA  # gaussian: std-dev on the [0, 255] scale
    variance: float = DEFAULT_VARIANCE  # speckle: variance of the multiplicative normal
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density must be in [0, 1], got {self.density}")
        # written so that nan fails too
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not 0.0 <= self.variance < math.inf:
            raise ValueError(f"variance must be finite and >= 0, got {self.variance}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


_PAIRS = 16384  # Box-Muller pairs transformed at a time


def _standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via Box-Muller over the uniform stream.

    Runs in place in the (pairs, 2) draw buffer, _PAIRS rows at a time:
    column 0 holds u1 and then z0, column 1 holds u2 and then z1, so the
    buffer read row-major is the interleaved stream.
    """
    pairs = (n + 1) // 2
    u = rng.random((pairs, 2))
    cos = np.empty(min(pairs, _PAIRS))
    for start in range(0, pairs, _PAIRS):
        chunk = u[start : start + _PAIRS]
        radius, angle, c = chunk[:, 0], chunk[:, 1], cos[: len(chunk)]
        np.negative(radius, out=radius)
        np.log1p(radius, out=radius)
        np.multiply(-2.0, radius, out=radius)
        np.sqrt(radius, out=radius)
        np.multiply(2.0 * np.pi, angle, out=angle)
        np.cos(angle, out=c)
        np.sin(angle, out=angle)
        np.multiply(radius, angle, out=angle)
        np.multiply(radius, c, out=radius)
    return u.reshape(-1)[:n]


def draw_noise(shape: tuple[int, int], spec: NoiseSpec):
    """spec's draw for images of shape (h, w), from spec.seed.

    gaussian and speckle give the (h, w) noise plane, already scaled by
    sigma or sqrt(variance); salt_pepper gives the (h, w) bool mask of the
    corrupted pixels and their replacement values, 0 or 255, in row-major
    order.
    """
    h, w = shape
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    if spec.kind == "salt_pepper":
        corrupt = rng.random(h * w) < spec.density
        flips = rng.random(int(corrupt.sum()))
        return corrupt.reshape(shape), np.where(flips < 0.5, 0.0, 255.0)
    z = _standard_normals(rng, h * w).reshape(shape)
    z *= spec.sigma if spec.kind == "gaussian" else np.sqrt(spec.variance)
    return z


def apply_noise(img: np.ndarray, spec: NoiseSpec, draw=None) -> np.ndarray:
    """img under spec's noise model, drawn from spec.seed; the input is not modified.

    salt_pepper corrupts each pixel to 0 or 255 (equal odds) with
    probability density; gaussian adds i.i.d. normal(0, sigma^2); speckle
    adds img * n, n ~ normal(0, variance). Both normal models clip to [0, 255].

    draw is `draw_noise(img.shape, spec)`, made here when not given.
    """
    img = as_image(img)
    if draw is None:
        draw = draw_noise(img.shape, spec)
    plane = draw[0] if spec.kind == "salt_pepper" else draw
    if plane.shape != img.shape:
        raise ValueError(f"the draw is for images of shape {plane.shape}, not {img.shape}")
    if spec.kind == "salt_pepper":
        corrupt, values = draw
        out = img.copy()
        out[corrupt] = values
        return out
    if spec.kind == "gaussian":
        out = np.add(img, draw)
    else:
        out = np.multiply(img, draw)
        np.add(img, out, out=out)
    return np.clip(out, 0.0, 255.0, out=out)
