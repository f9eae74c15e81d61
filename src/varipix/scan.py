"""Square-pixel and variable-pixel image formation.

An image is processed in 6x6 blocks. The square baseline replaces each
block with its mean; a variable scan replaces each mask region with that
region's mean, so every block becomes piecewise constant over two regions.
The fused scan picks the best mask per block from a mask set and also
emits the per-pixel region-label map that drives adaptive filtering.

Scans take an image of any shape: its right and bottom are edge-replicated
up to a multiple of 6, and the scanned image and labels are cropped back to
the input's shape (chosen_masks covers the whole padded grid). Every scan
is one kernel over the padded image as a C-contiguous (36, blocks) tensor
of planes: plane c holds cell c of every block, cells and blocks
row-major; a 6x6 image is one block of the same kernel. Ordering contract:
a region sum adds whole planes in numpy's float64 pairwise order for one
contiguous row (_pairwise), so each region mean and recon error has the
bits of numpy's mean or sum over that block's cells in one row-major row.
A sum along the cell axis, or `B @ M.T`, adds in another order and flips
last-ulp ties.
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


def _to_planes(img) -> tuple[np.ndarray, tuple[int, int]]:
    """The image edge-replicated right and bottom to a multiple of 6, as a
    C-contiguous (36, blocks) tensor: plane c holds cell c of every block,
    cells and blocks row-major; and the image's shape.

    Whole blocks are copied straight from the image; only the partial last
    block row and column are padded, so no padded copy of the image is made.
    """
    img = as_image(img)
    h, w = img.shape
    (fy, py), (fx, px) = divmod(h, BLOCK), divmod(w, BLOCK)
    by, bx = fy + (py > 0), fx + (px > 0)
    planes = np.empty((BLOCK, BLOCK, by, bx))
    planes[:, :, :fy, :fx] = img[: fy * BLOCK, : fx * BLOCK].reshape(fy, BLOCK, fx, BLOCK).transpose(1, 3, 0, 2)
    pad = ((0, -h % BLOCK), (0, -w % BLOCK))
    if py:
        bottom = np.pad(img[fy * BLOCK :], pad, mode="edge")
        planes[:, :, fy] = bottom.reshape(BLOCK, bx, BLOCK).transpose(0, 2, 1)
    if px:
        right = np.pad(img[:, fx * BLOCK :], pad, mode="edge")
        planes[:, :, :, fx] = right.reshape(by, BLOCK, BLOCK).transpose(1, 2, 0)
    return planes.reshape(BLOCK * BLOCK, by * bx), img.shape


def _from_planes(planes: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of _to_planes: the blocks back on their grid, cropped to shape."""
    h, w = shape
    by, bx = -(-h // BLOCK), -(-w // BLOCK)
    image = planes.reshape(BLOCK, BLOCK, by, bx).transpose(2, 0, 3, 1).reshape(by * BLOCK, bx * BLOCK)
    return image[:h, :w]


def _pairwise(terms, n: int) -> np.ndarray:
    """The sum of the n <= 128 planes `terms` yields, in the order numpy sums a contiguous row.

    Below 8 terms, one at a time; otherwise 8 accumulators seeded with
    terms 0..7 each add every 8th term after them, are combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and the rest follow
    one at a time. The terms are only read, one at a time: at most 8
    accumulators and one term are alive.
    """
    terms = iter(terms)
    if n < 8:
        total = next(terms) + 0.0
        for term in terms:
            total += term
        return total
    acc = [next(terms) for _ in range(8)]
    for i in range(8, n - n % 8, 8):
        for j in range(8):
            acc[j] = np.add(acc[j], next(terms), out=acc[j] if i > 8 else None)
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for term in terms:
        total += term
    total += 0.0  # numpy's reduce starts from +0.0: a sum of -0.0 terms is +0.0
    return total


def _select(planes: np.ndarray, maskset, criterion: str):
    """The scan kernel: score every mask on every block, keep the best.

    `recon-error` minimizes the squared deviation of the block rebuilt from
    its two region means; `mean-diff` minimizes the absolute difference of
    the two means. Returns per block the winning mask index (lowest on
    ties), and as planes its region bits and the rebuilt block.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"unknown selection criterion {criterion!r}")
    if len(maskset) == 0:
        raise ValueError("empty mask set")
    n = planes.shape[1]
    cells = np.empty((BLOCK * BLOCK, len(maskset)), dtype=np.uint8)
    means = np.empty((2, len(maskset), n))
    scores = np.empty((len(maskset), n))
    for i, m in enumerate(maskset):
        bits = cells[:, i] = m.cells.ravel()
        for bit in (0, 1):
            region = np.flatnonzero(bits == bit)
            means[bit, i] = _pairwise((planes[c] for c in region), len(region)) / len(region)
        if criterion == "recon-error":
            residuals = (plane - means[bit, i] for plane, bit in zip(planes, bits))
            scores[i] = _pairwise((np.square(r, out=r) for r in residuals), BLOCK * BLOCK)
        else:
            scores[i] = np.abs(means[0, i] - means[1, i])
    win = scores.argmin(axis=0)
    blocks = np.arange(n)
    bits = cells[:, win]
    return win, bits, np.where(bits == 0, means[0, win, blocks], means[1, win, blocks])


def scan_square(img: np.ndarray) -> np.ndarray:
    """Replace every 6x6 block with its arithmetic mean (square baseline)."""
    planes, shape = _to_planes(img)
    means = _pairwise(planes, len(planes)) / len(planes)
    return _from_planes(np.broadcast_to(means, planes.shape), shape)


def scan_parallel_fused(img: np.ndarray, maskset: MaskSet, criterion: str = DEFAULT_CRITERION) -> ScanResult:
    """Scan every block with every mask and keep, per block, the best one.

    The image holds each block rebuilt from the winning mask's two region
    means, labels the winning region bits, and chosen_masks the winning
    indices. A one-mask set scans the whole image with that mask.
    """
    planes, shape = _to_planes(img)
    win, bits, blocks = _select(planes, maskset, criterion)
    labels = _from_planes(bits, shape).astype(np.int64)
    return ScanResult(_from_planes(blocks, shape), labels, win.reshape(-1, -(-shape[1] // BLOCK)))


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
