"""Square-pixel and variable-pixel image formation.

An image is processed in 6x6 blocks. The square baseline replaces each
block with its mean; a variable scan replaces each mask region with that
region's mean, so every block becomes piecewise constant over two regions.
The fused scan picks the best mask per block from a mask set and also
emits the per-pixel region-label map that drives adaptive filtering.

Scans take an image of any shape: its right and bottom are edge-replicated
up to a multiple of 6, and the scanned image and labels are cropped back to
the input's shape (chosen_masks covers the whole padded grid). Every scan
is one kernel over the padded image as a C-contiguous (blocks, 36) tensor;
a 6x6 image is one block of the same kernel. Ordering contract: region
means reduce C-contiguous gathers (`np.take`; fancy indexing gives F-order,
which numpy sums in another order, flipping last-ulp ties).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imgio import as_image, as_labels
from .masks import MASK_SIZE, MaskSet

BLOCK = MASK_SIZE

CRITERIA = ("recon-error", "mean-diff")
DEFAULT_CRITERION = "recon-error"


@dataclass
class ScanResult:
    image: np.ndarray  # piecewise-constant within each block region
    labels: np.ndarray  # int64 region bits, aligned with image
    chosen_masks: np.ndarray  # (ceil(h/6), ceil(w/6)) winning mask indices


def _to_blocks(img) -> tuple[np.ndarray, tuple[int, int]]:
    """The image edge-replicated right and bottom to a multiple of 6, as a
    C-contiguous (blocks, 36) tensor, blocks row-major; and the image's shape."""
    img = as_image(img)
    h, w = img.shape
    padded = np.pad(img, ((0, -h % BLOCK), (0, -w % BLOCK)), mode="edge")
    by, bx = padded.shape[0] // BLOCK, padded.shape[1] // BLOCK
    tensor = padded.reshape(by, BLOCK, bx, BLOCK).swapaxes(1, 2).reshape(by * bx, BLOCK * BLOCK)
    return np.ascontiguousarray(tensor), img.shape


def _from_blocks(tensor: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of _to_blocks: the blocks back on their grid, cropped to shape."""
    h, w = shape
    by, bx = -(-h // BLOCK), -(-w // BLOCK)
    image = tensor.reshape(by, bx, BLOCK, BLOCK).swapaxes(1, 2).reshape(by * BLOCK, bx * BLOCK)
    return image[:h, :w]


def _fill(bits: np.ndarray, m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """Piecewise-constant blocks: region 0 cells get m0, region 1 cells m1."""
    return np.where(bits == 0, m0[:, None], m1[:, None])


def _recon_error(tensor, bits, m0, m1) -> np.ndarray:
    """Per-block squared deviation from the rebuild, in one scratch array."""
    resid = _fill(bits, m0, m1)
    np.subtract(tensor, resid, out=resid)
    return np.square(resid, out=resid).sum(-1)


def _select(tensor: np.ndarray, maskset, criterion: str):
    """The scan kernel: score every mask on every block, keep the best.

    `recon-error` minimizes the squared deviation of the block rebuilt from
    its two region means; `mean-diff` minimizes the absolute difference of
    the two means. Returns per block the winning mask index (lowest on
    ties), its region bits, and the rebuilt block.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"unknown selection criterion {criterion!r}")
    if len(maskset) == 0:
        raise ValueError("empty mask set")
    n = len(tensor)
    cells = np.empty((len(maskset), BLOCK * BLOCK), dtype=np.uint8)
    means = np.empty((2, n, len(maskset)))
    scores = np.empty((n, len(maskset)))
    for i, m in enumerate(maskset):
        bits = cells[i] = m.cells.ravel()
        m0 = means[0, :, i] = tensor.take(np.flatnonzero(bits == 0), axis=1).mean(-1)
        m1 = means[1, :, i] = tensor.take(np.flatnonzero(bits == 1), axis=1).mean(-1)
        if criterion == "recon-error":
            scores[:, i] = _recon_error(tensor, bits, m0, m1)
        else:
            scores[:, i] = np.abs(m0 - m1)
    win = scores.argmin(axis=1)
    rows = np.arange(n)
    bits = cells[win]
    return win, bits, _fill(bits, means[0, rows, win], means[1, rows, win])


def scan_square(img: np.ndarray) -> np.ndarray:
    """Replace every 6x6 block with its arithmetic mean (square baseline)."""
    tensor, shape = _to_blocks(img)
    return _from_blocks(np.broadcast_to(tensor.mean(-1)[:, None], tensor.shape), shape)


def scan_parallel_fused(img: np.ndarray, maskset: MaskSet, criterion: str = DEFAULT_CRITERION) -> ScanResult:
    """Scan every block with every mask and keep, per block, the best one.

    The image holds each block rebuilt from the winning mask's two region
    means, labels the winning region bits, and chosen_masks the winning
    indices. A one-mask set scans the whole image with that mask.
    """
    tensor, shape = _to_blocks(img)
    win, bits, blocks = _select(tensor, maskset, criterion)
    labels = _from_blocks(bits, shape).astype(np.int64)
    return ScanResult(_from_blocks(blocks, shape), labels, win.reshape(-1, -(-shape[1] // BLOCK)))


def block_labels(labels: np.ndarray) -> np.ndarray:
    """Scope region bits to their 6x6 block: label = block_index * 2 + bit.

    Blocks are indexed row-major over the ceil(width/6) grid that scans pad
    to, so scoping commutes with cropping. Bits other than 0 and 1 would
    alias the next block and are rejected.
    """
    labels = as_labels(labels, region_bits=True)
    h, w = labels.shape
    blocks_x = -(-w // BLOCK)
    r_block = np.arange(h) // BLOCK
    c_block = np.arange(w) // BLOCK
    index = r_block[:, None] * blocks_x + c_block[None, :]
    return index * 2 + labels
