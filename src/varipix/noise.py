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
seed give bit-identical outputs. A stack of same-shape images shares one
draw: each image gets the stream a lone call on it would consume.

The transform runs in place in the buffer the uniforms are drawn into,
each ufunc with the operands and in the order of the expressions above
(`log1p(-u1)` for ln(1 - u1)), so every normal has the bits those
expressions give on fresh arrays; only cos(2 pi u2) has a buffer of its own.
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


def _standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via Box-Muller over the uniform stream.

    Runs in place in the (pairs, 2) draw buffer: column 0 holds u1 and then
    z0, column 1 holds u2 and then z1, so the buffer read row-major is the
    interleaved stream.
    """
    pairs = (n + 1) // 2
    u = rng.random((pairs, 2))
    radius, angle = u[:, 0], u[:, 1]
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)
    np.multiply(-2.0, radius, out=radius)
    np.sqrt(radius, out=radius)
    np.multiply(2.0 * np.pi, angle, out=angle)
    cos = np.cos(angle)
    np.sin(angle, out=angle)
    np.multiply(radius, angle, out=angle)
    np.multiply(radius, cos, out=radius)
    return u.reshape(-1)[:n]


def apply_noise(img: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """img under spec's noise model, drawn from spec.seed; the input is not modified.

    salt_pepper corrupts each pixel to 0 or 255 (equal odds) with
    probability density; gaussian adds i.i.d. normal(0, sigma^2); speckle
    adds img * n, n ~ normal(0, variance). Both normal models clip to [0, 255].

    img may also be a stack of same-shape images, (n, h, w). The draw is made
    once, for one image, and every image in the stack gets it, so each comes
    out bit for bit as a lone call on it would give.
    """
    img = as_image(img, stack=True)
    shape = img.shape[-2:]
    size = shape[0] * shape[1]
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    if spec.kind == "salt_pepper":
        corrupt = rng.random(size) < spec.density
        flips = rng.random(int(corrupt.sum()))
        out = img.copy()
        out.reshape(-1, size)[:, corrupt] = np.where(flips < 0.5, 0.0, 255.0)
        return out
    z = _standard_normals(rng, size).reshape(shape)
    # The output is allocated after the draw, and the draw's one noise plane
    # is broadcast over the stack, so no temporary is as large as the stack.
    if spec.kind == "gaussian":
        z *= spec.sigma
        out = np.add(img, z)
    else:
        z *= np.sqrt(spec.variance)
        out = np.multiply(img, z)
        np.add(img, out, out=out)
    return np.clip(out, 0.0, 255.0, out=out)
