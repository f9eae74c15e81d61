"""Square-pixel and variable-pixel image formation.

An image is processed in 6x6 blocks. The square baseline replaces each
block with its mean; a variable scan replaces each mask region with that
region's mean, so every block becomes piecewise constant over two regions.
The fused scan picks the best mask per block from a mask set and also
emits the per-pixel region-label map that drives adaptive filtering.

Scans take an image of any shape: its right and bottom are edge-replicated
up to a multiple of 6, and the scanned image and labels have the input's
shape (chosen_masks covers the whole padded grid). Neither the padded
image nor the padded scan is ever built: pixels go straight into and out
of the plane tensor. A scan returns arrays of its own, and the labels
are uint8. Every scan is one kernel over the padded image as a
C-contiguous (36, blocks) tensor of planes: plane c holds cell c of
every block, cells and blocks row-major; a 6x6 image is one block of
the same kernel. Ordering contract:
a region sum adds whole planes in numpy's float64 pairwise order for one
contiguous row (_pairwise), so each region mean and recon error has the
bits of numpy's mean or sum over that block's cells in one row-major row.
A sum along the cell axis, or `B @ M.T`, adds in another order and flips
last-ulp ties.

The fused scan keeps each block's winner as it scores the masks: its
index, its two region means and its score, replaced only by a strictly
lower score, so ties keep the lowest index as argmin does. The plane
tensor is freed before the image is built: each winner's bits become
the labels, and its two means are written straight into the image.
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
    labels: np.ndarray  # uint8 region bits, aligned with image
    chosen_masks: np.ndarray  # (ceil(h/6), ceil(w/6)) winning mask indices


def _pieces(n: int) -> list[tuple[slice, slice, int]]:
    """An axis of n pixels as its whole blocks, then its partial last block:
    (slice of blocks, slice of pixels, pixels per block) each, if it has pixels."""
    whole, part = divmod(n, BLOCK)
    cut = whole * BLOCK
    pieces = ((slice(0, whole), slice(0, cut), BLOCK), (slice(whole, whole + 1), slice(cut, n), part))
    return [piece for piece in pieces if piece[1].stop > piece[1].start]


def _to_planes(img) -> tuple[np.ndarray, tuple[int, int]]:
    """The image edge-replicated right and bottom to a multiple of 6, as a
    C-contiguous (36, blocks) tensor: plane c holds cell c of every block,
    cells and blocks row-major; and the image's shape.

    The image's pixels are copied straight into their cells, and the cells
    past its bottom and right edges repeat the last row and column, so no
    padded copy of the image is made.
    """
    img = as_image(img)
    h, w = img.shape
    grid = np.empty((BLOCK, BLOCK, -(-h // BLOCK), -(-w // BLOCK)))
    for ys, rows, cy in _pieces(h):
        for xs, cols, cx in _pieces(w):
            cells = grid[:cy, :cx, ys, xs]  # (cy, cx, block rows, block columns)
            ny, nx = cells.shape[2:]
            cells[...] = img[rows, cols].reshape(ny, cy, nx, cx).transpose(1, 3, 0, 2)
    py, px = h % BLOCK, w % BLOCK
    if py:  # rows first: the column step then fills the corner from the replicated rows
        grid[py:, :, -1] = grid[py - 1, :, -1]
    if px:
        grid[:, px:, :, -1] = grid[:, px - 1 : px, :, -1]
    return grid.reshape(BLOCK * BLOCK, -1), img.shape


def _from_planes(planes: np.ndarray, shape: tuple[int, int], out: np.ndarray | None = None, where=None) -> np.ndarray:
    """Inverse of _to_planes: the blocks written into out, cells outside shape left out; returns out.

    out is by default a new array of shape and the planes' dtype. Given
    where, bool planes of the same layout, only its true cells are written.
    """
    h, w = shape
    grid_shape = (BLOCK, BLOCK, -(-h // BLOCK), -(-w // BLOCK))
    grid = planes.reshape(grid_shape)
    mask = None if where is None else where.reshape(grid_shape)
    if out is None:
        out = np.empty(shape, planes.dtype)
    for ys, rows, cy in _pieces(h):
        for xs, cols, cx in _pieces(w):
            cells = grid[:cy, :cx, ys, xs].transpose(2, 0, 3, 1)  # (block rows, cy, block columns, cx)
            keep = True if mask is None else mask[:cy, :cx, ys, xs].transpose(2, 0, 3, 1)
            np.copyto(out[rows, cols].reshape(cells.shape), cells, where=keep)  # splitting both axes is a view
    return out


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
    ties, the first nan if a score is nan, as argmin picks), its region bits
    as (36, blocks) uint8 planes, and its two region means as a (2, blocks)
    array. The winner is kept as the masks are scored, so no mask's scores
    or means outlive its turn.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"unknown selection criterion {criterion!r}")
    if len(maskset) == 0:
        raise ValueError("empty mask set")
    cells = np.empty((BLOCK * BLOCK, len(maskset)), dtype=np.uint8)
    for i, m in enumerate(maskset):
        bits = cells[:, i] = m.cells.ravel()
        means = np.empty((2, planes.shape[1]))
        for bit in (0, 1):
            region = np.flatnonzero(bits == bit)
            means[bit] = _pairwise((planes[c] for c in region), len(region)) / len(region)
        if criterion == "recon-error":
            residuals = (plane - means[bit] for plane, bit in zip(planes, bits))
            score = _pairwise((np.square(r, out=r) for r in residuals), BLOCK * BLOCK)
        else:
            score = np.abs(means[0] - means[1])
        if i == 0:
            best, win, best_means = score, np.zeros(len(score), np.intp), means
            continue
        better = (score < best) | (np.isnan(score) & ~np.isnan(best))
        np.copyto(best, score, where=better)
        win[better] = i
        np.copyto(best_means, means, where=better)
    return win, cells[:, win], best_means


def scan_square(img: np.ndarray) -> np.ndarray:
    """Replace every 6x6 block with its arithmetic mean (square baseline)."""
    planes, shape = _to_planes(img)
    means = _pairwise(planes, len(planes)) / len(planes)
    return _from_planes(np.broadcast_to(means, planes.shape), shape)


def scan_parallel_fused(img: np.ndarray, maskset: MaskSet, criterion: str = DEFAULT_CRITERION) -> ScanResult:
    """Scan every block with every mask and keep, per block, the best one.

    The image holds each block rebuilt from the winning mask's two region
    means, labels the winning region bits as uint8, and chosen_masks the
    winning indices. A one-mask set scans the whole image with that mask.
    """
    planes, shape = _to_planes(img)
    win, bits, means = _select(planes, maskset, criterion)
    del planes  # freed before the image is built from the winners
    labels = _from_planes(bits, shape)
    image = _from_planes(np.broadcast_to(means[0], bits.shape), shape)
    _from_planes(np.broadcast_to(means[1], bits.shape), shape, image, where=bits.view(bool))
    return ScanResult(image, labels, win.reshape(-1, -(-shape[1] // BLOCK)))


def block_labels(labels: np.ndarray) -> np.ndarray:
    """Scope region bits to their 6x6 block: label = block_index * 2 + bit.

    Blocks are indexed row-major over the ceil(width/6) grid that scans pad
    to, so scoping commutes with cropping. Bits other than 0 and 1 would
    alias the next block and are rejected. The result has the narrowest
    unsigned dtype that holds every block's labels.
    """
    labels = as_labels(labels)
    h, w = labels.shape
    blocks_x = -(-w // BLOCK)
    dtype = np.min_scalar_type(2 * -(-h // BLOCK) * blocks_x - 1)
    rows = (np.arange(h) // BLOCK * (2 * blocks_x)).astype(dtype)
    cols = (np.arange(w) // BLOCK * 2).astype(dtype)
    out = np.add(rows[:, None], cols, dtype=dtype)
    return np.add(out, labels, out=out)
