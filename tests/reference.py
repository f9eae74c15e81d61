"""Naive reference implementations used as independent test oracles.

Everything here is deliberately written as plain per-pixel / per-cell
loops, kept free of the production code paths so the optimized
implementations have something honest to be checked against. The adaptive
filter reference walks the kernel window in row-major order and
accumulates left to right, which is the ordering contract the production
filter has to reproduce bit-for-bit.
"""

from __future__ import annotations

import numpy as np

BLOCK = 6


def clamp(v: int, lo: int, hi: int) -> int:
    return lo if v < lo else hi if v > hi else v


def naive_block_labels(labels: np.ndarray, block: int = BLOCK) -> np.ndarray:
    """Block-scoped labels: label = (block_row * blocks_x + block_col) * 2 + bit."""
    h, w = labels.shape
    blocks_x = (w + block - 1) // block
    out = np.empty_like(labels)
    for r in range(h):
        for c in range(w):
            out[r, c] = (r // block * blocks_x + c // block) * 2 + labels[r, c]
    return out


def naive_adaptive_filter(img, labels, k, statistic, mode="literal"):
    """Per-pixel candidate filtering, the algorithm written out verbatim.

    Edge replication is realized by clamping window coordinates into the
    image, which is equivalent to filtering the edge-padded arrays.
    """
    img = np.asarray(img, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if mode == "block":
        labels = naive_block_labels(labels)
    h, w = img.shape
    half = k // 2
    out = np.empty((h, w), dtype=np.float64)
    for r in range(h):
        for c in range(w):
            anchor = labels[r, c]
            candidates = []
            for dr in range(-half, half + 1):
                for dc in range(-half, half + 1):
                    rr = clamp(r + dr, 0, h - 1)
                    cc = clamp(c + dc, 0, w - 1)
                    if labels[rr, cc] == anchor:
                        candidates.append(img[rr, cc])
            if statistic == "mean":
                total = 0.0
                for v in candidates:
                    total += v
                out[r, c] = total / len(candidates)
            else:
                candidates.sort()
                m = len(candidates)
                if m % 2:
                    out[r, c] = candidates[m // 2]
                else:
                    out[r, c] = (candidates[m // 2 - 1] + candidates[m // 2]) / 2.0
    return out


def naive_region_apply(block, cells):
    """Brute-force two-region mean replacement over all 36 cells.

    Returns (output block, sum of squared deviations).
    """
    block = np.asarray(block, dtype=np.float64)
    sums = [0.0, 0.0]
    counts = [0, 0]
    for r in range(BLOCK):
        for c in range(BLOCK):
            bit = int(cells[r, c])
            sums[bit] += block[r, c]
            counts[bit] += 1
    means = [sums[0] / counts[0], sums[1] / counts[1]]
    out = np.empty((BLOCK, BLOCK), dtype=np.float64)
    err = 0.0
    for r in range(BLOCK):
        for c in range(BLOCK):
            out[r, c] = means[int(cells[r, c])]
            err += (block[r, c] - out[r, c]) ** 2
    return out, err


def naive_square_error(block):
    """Sum of squared deviations from the block mean (one-region baseline)."""
    block = np.asarray(block, dtype=np.float64)
    total = 0.0
    for r in range(BLOCK):
        for c in range(BLOCK):
            total += block[r, c]
    mean = total / (BLOCK * BLOCK)
    err = 0.0
    for r in range(BLOCK):
        for c in range(BLOCK):
            err += (block[r, c] - mean) ** 2
    return mean, err


def naive_select_mask(block, maskset, criterion="recon-error"):
    """Exhaustive selection over all masks with lowest-index tie-breaking."""
    best_index, best_score = 0, None
    for i, m in enumerate(maskset):
        if criterion == "recon-error":
            _, score = naive_region_apply(block, m.cells)
        else:
            out, _ = naive_region_apply(block, m.cells)
            bits = np.asarray(m.cells)
            score = abs(out[bits == 0][0] - out[bits == 1][0])
        if best_score is None or score < best_score:
            best_index, best_score = i, score
    return best_index, best_score


def loop_select_apply(block, maskset, criterion="recon-error"):
    """Per-block selection written as a numpy loop in the scan's reduction order.

    naive_select_mask sums in plain Python and so agrees with the scan only
    up to rounding. This loop pins the scan's ordering contract instead:
    each region mean is numpy's mean of that region's cells gathered
    row-major into a 1-D array, and the recon error is numpy's sum of the
    36 squared deviations; ties go to the lowest index. The vectorized scan
    must match it bit for bit. Returns (index, output block).
    """
    block = np.asarray(block, dtype=np.float64)
    best_index, best_score, best_out = 0, None, None
    for i, m in enumerate(maskset):
        region0 = np.asarray(m.cells) == 0
        m0, m1 = block[region0].mean(), block[~region0].mean()
        out = np.where(region0, m0, m1)
        if criterion == "recon-error":
            score = float(((block - out) ** 2).sum())
        else:
            score = abs(float(m0) - float(m1))
        if best_score is None or score < best_score:
            best_index, best_score, best_out = i, score, out
    return best_index, best_out


def region_connected(cells: np.ndarray, bit: int) -> bool:
    """True if the cells holding `bit` form a single 4-connected component."""
    want = cells == bit
    total = int(np.count_nonzero(want))
    if total == 0:
        return False
    start = tuple(np.argwhere(want)[0])
    seen = {start}
    frontier = [start]
    while frontier:
        r, c = frontier.pop()
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= nr < cells.shape[0] and 0 <= nc < cells.shape[1]:
                if want[nr, nc] and (nr, nc) not in seen:
                    seen.add((nr, nc))
                    frontier.append((nr, nc))
    return len(seen) == total


