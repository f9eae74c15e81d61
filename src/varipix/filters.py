"""Box filtering and label-driven shape-adaptive filtering.

Both filters slide an odd k x k window over the edge-replicated image and
write the mean or median of the window's candidate pixels to the center
pixel. They share one window kernel. The adaptive filter's candidates are
the pixels whose region label equals the center (anchor) label, so
smoothing never crosses the region boundaries laid down by a variable
scan; the box filter is the same kernel with every window pixel a
candidate. In literal mode the raw region bits are compared, so same-bit
pixels from neighboring blocks can join the candidate set; block mode
scopes the bits to their 6x6 block first, which confines candidates to the
anchor's own block region.

The window is traversed in row-major order and the mean is accumulated in
that order, which keeps the kernel bit-identical to a naive per-pixel
evaluation. The median of an odd-sized candidate set is its middle value;
an even-sized set takes the midpoint of the two middle values.
"""

from __future__ import annotations

import numpy as np

from .imgio import as_image
from .scan import block_labels

STATISTICS = ("mean", "median")
FILTER_MODES = ("square", "adaptive-literal", "adaptive-block")
ADAPTIVE_MODES = ("literal", "block")


def check_kernel(k) -> None:
    """Reject kernel sizes other than odd integers >= 1."""
    if not isinstance(k, (int, np.integer)) or k < 1 or k % 2 == 0:
        raise ValueError(f"kernel size must be an odd integer >= 1, got {k!r}")


def _checked(img, k, statistic) -> np.ndarray:
    check_kernel(k)
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    return as_image(img)


def _rank(planes: np.ndarray, rank) -> np.ndarray:
    """The value of the given per-pixel rank along the sorted plane axis."""
    index = np.broadcast_to(rank, planes.shape[1:])[None]
    return np.take_along_axis(planes, index, axis=0)[0]


def _window_filter(img: np.ndarray, labels: np.ndarray | None, k: int, statistic: str) -> np.ndarray:
    """The window kernel behind both filters.

    One pass over the k*k shifted window planes in row-major order.
    Candidates are the window pixels whose label equals the anchor's;
    labels=None makes every pixel a candidate. A non-candidate holds the
    statistic's neutral value: 0.0 in the mean's sum, +inf in the
    median's sort, which puts it after every finite candidate.
    """
    h, w = img.shape
    pad = k // 2
    padded = np.pad(img, pad, mode="edge")
    padded_lab = None if labels is None else np.pad(labels, pad, mode="edge")
    mean = statistic == "mean"
    neutral = 0.0 if mean else np.inf
    count = k * k if labels is None else np.zeros((h, w), dtype=np.int64)
    # The median stacks planes along the first axis, so each plane is one contiguous write.
    acc = np.zeros((h, w)) if mean else np.empty((k * k, h, w))
    for i, (dy, dx) in enumerate(np.ndindex(k, k)):
        win = padded[dy : dy + h, dx : dx + w]
        if padded_lab is not None:
            match = padded_lab[dy : dy + h, dx : dx + w] == labels
            count += match
            win = np.where(match, win, neutral)
        if mean:
            acc += win
        else:
            acc[i] = win
    if mean:
        acc /= count
        return acc
    acc.sort(axis=0)
    mid = _rank(acc, (count - 1) // 2)
    even = count % 2 == 0
    if np.any(even):
        mid[even] = 0.5 * (mid[even] + _rank(acc, count // 2)[even])
    return mid


def box_filter(img: np.ndarray, k: int, statistic: str = "mean") -> np.ndarray:
    """Plain k x k mean or median over the edge-replicated image."""
    return _window_filter(_checked(img, k, statistic), None, k, statistic)


def adaptive_filter(
    img: np.ndarray,
    labels: np.ndarray,
    k: int,
    statistic: str = "mean",
    mode: str = "literal",
) -> np.ndarray:
    """Filter each pixel over the same-label candidates in its k x k window.

    labels are the literal region bits from a scan; mode "block" scopes
    them per block before comparing. The anchor pixel always matches
    itself, so the candidate set is never empty.
    """
    img = _checked(img, k, statistic)
    if mode not in ADAPTIVE_MODES:
        raise ValueError(f"unknown adaptive mode {mode!r}")
    labels = np.asarray(labels, dtype=np.int64)
    if img.shape != labels.shape:
        raise ValueError(f"image shape {img.shape} != label map shape {labels.shape}")
    if mode == "block":
        labels = block_labels(labels)
    return _window_filter(img, labels, k, statistic)
