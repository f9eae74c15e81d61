"""Square-pixel and variable-pixel image formation.

An image is processed in 6x6 blocks. The square baseline replaces each
block with its mean; a variable scan replaces each mask region with that
region's mean, so every block becomes piecewise constant over two regions.
The fused scan picks the best mask per block from a mask set and also
emits the per-pixel region-label map that drives adaptive filtering.

Every scan is one kernel over the image as a C-contiguous (blocks, 36)
tensor; the one-block functions run it on a single block. Ordering contract:
region means reduce C-contiguous gathers (`np.take`; fancy indexing gives
F-order, which numpy sums in another order, flipping last-ulp ties).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .imgio import as_image
from .masks import MASK_SIZE, Mask, MaskSet

BLOCK = MASK_SIZE

CRITERIA = ("recon-error", "mean-diff")
DEFAULT_CRITERION = "recon-error"


@dataclass
class ScanResult:
    image: np.ndarray  # piecewise-constant within each block region
    labels: np.ndarray  # int64 region bits, aligned with image (all 0 for square)
    chosen_masks: np.ndarray | None  # (blocks_y, blocks_x) indices, fused scans only
    block_grid: tuple[int, int]  # (blocks_x, blocks_y)


def pad_to_block_multiple(img: np.ndarray) -> np.ndarray:
    """Edge-replicate on the right/bottom up to the next multiple of 6."""
    h, w = img.shape
    pad_h = (-h) % BLOCK
    pad_w = (-w) % BLOCK
    if pad_h == 0 and pad_w == 0:
        return img
    return np.pad(img, ((0, pad_h), (0, pad_w)), mode="edge")


def _to_blocks(img) -> tuple[np.ndarray, tuple[int, int]]:
    """The image as a C-contiguous (blocks, 36) tensor, blocks row-major."""
    img = as_image(img)
    h, w = img.shape
    if h % BLOCK or w % BLOCK:
        raise ValueError(f"image dimensions {w}x{h} are not multiples of {BLOCK}")
    bx, by = w // BLOCK, h // BLOCK
    tensor = img.reshape(by, BLOCK, bx, BLOCK).swapaxes(1, 2).reshape(by * bx, BLOCK * BLOCK)
    return np.ascontiguousarray(tensor), (bx, by)


def _from_blocks(tensor: np.ndarray, grid: tuple[int, int]) -> np.ndarray:
    bx, by = grid
    return tensor.reshape(by, bx, BLOCK, BLOCK).swapaxes(1, 2).reshape(by * BLOCK, bx * BLOCK)


def _one_block(block) -> np.ndarray:
    if np.shape(block) != (BLOCK, BLOCK):
        raise ValueError(f"block must be {BLOCK}x{BLOCK}, got shape {np.shape(block)}")
    return _to_blocks(block)[0]


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

    Returns per block the winning mask index (lowest on ties), its region
    bits, the block rebuilt from its two region means, and its score.
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
    return win, bits, _fill(bits, means[0, rows, win], means[1, rows, win]), scores[rows, win]


def apply_mask_to_block(block: np.ndarray, m: Mask):
    """Replace each mask region with its mean.

    Returns (output block, recon_error) where recon_error is the sum of
    squared deviations of the output from the input over the 36 cells.
    """
    _, _, out, err = _select(_one_block(block), [m], "recon-error")
    return out.reshape(BLOCK, BLOCK), float(err[0])


def select_mask(block: np.ndarray, maskset: MaskSet, criterion: str = DEFAULT_CRITERION):
    """Pick the best mask for one block; ties go to the lowest index.

    `recon-error` minimizes the squared deviation of apply_mask_to_block;
    `mean-diff` minimizes the absolute difference of the two region means.
    """
    win, _, _, score = _select(_one_block(block), maskset, criterion)
    return int(win[0]), float(score[0])


def scan_square(img: np.ndarray) -> ScanResult:
    """Replace every 6x6 block with its arithmetic mean (square baseline)."""
    tensor, (bx, by) = _to_blocks(img)
    image = np.empty((by * BLOCK, bx * BLOCK))
    image.reshape(by, BLOCK, bx, BLOCK)[...] = tensor.mean(-1).reshape(by, 1, bx, 1)
    return ScanResult(image, np.zeros(image.shape, dtype=np.int64), None, (bx, by))


def scan_uniform(img: np.ndarray, m: Mask) -> ScanResult:
    """Scan the whole image with a single mask (one arm of the parallel array)."""
    return replace(scan_parallel_fused(img, [m]), chosen_masks=None)


def scan_parallel_fused(
    img: np.ndarray, maskset: MaskSet, criterion: str = DEFAULT_CRITERION
) -> ScanResult:
    """Run all uniform scans and keep, per block, the selected mask's block.

    Equivalent to scanning each block with select_mask + apply_mask_to_block
    directly; the fused image carries the winning region bits as its labels
    and the winning indices in chosen_masks.
    """
    tensor, (bx, by) = _to_blocks(img)
    win, bits, blocks, _ = _select(tensor, maskset, criterion)
    labels = _from_blocks(bits, (bx, by)).astype(np.int64)
    return ScanResult(_from_blocks(blocks, (bx, by)), labels, win.reshape(by, bx), (bx, by))


def block_labels(labels: np.ndarray, block: int = BLOCK) -> np.ndarray:
    """Scope region bits to their block: label = block_index * 2 + bit.

    Blocks are indexed row-major over the ceil(width/block) grid, so maps
    cropped back from a padded scan keep consistent block indices. Bits
    other than 0 and 1 would alias the next block and are rejected.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if np.any((labels != 0) & (labels != 1)):
        raise ValueError("block-scoped labels must be region bits 0 or 1")
    h, w = labels.shape
    blocks_x = -(-w // block)
    r_block = np.arange(h) // block
    c_block = np.arange(w) // block
    index = r_block[:, None] * blocks_x + c_block[None, :]
    return index * 2 + labels
