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

The kernel is one loop over row bands. Each band pads its rows with its
own k//2 halo and writes only its own output rows, so neither the band
size nor the order the bands run in changes a bit. A median band builds
its window stack pixel-major, (band pixels, k*k) in row-major window
order, and sorts along the contiguous last axis. The band bounds that
stack, and median bands run on one thread per CPU the process may use,
because the stack build and the sort release the GIL. A mean band keeps
the plane-by-plane accumulation, because a sum along the last axis would
add in another order and change the bits. Its many short numpy calls
hold the GIL between them, so mean bands run on the calling thread.
"""

from __future__ import annotations

import functools
import os

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .imgio import as_image
from .scan import block_labels

STATISTICS = ("mean", "median")
DEFAULT_STATISTIC = "mean"
FILTER_MODES = ("square", "adaptive-literal", "adaptive-block")
DEFAULT_FILTER_MODE = "square"
ADAPTIVE_MODES = ("literal", "block")
DEFAULT_ADAPTIVE_MODE = "literal"
DEFAULT_KERNEL = 5

# Row-band sizes, for a working set of about 1.6 MB per band. A median
# band holds about _MEDIAN_BAND_SAMPLES window samples (4096 pixels at
# k = 7); a mean band holds no window stack, only a few planes of
# _MEAN_BAND_PIXELS pixels, so a 240x240 fixture is one mean band.
_MEDIAN_BAND_SAMPLES = 4096 * 49
_MEAN_BAND_PIXELS = 65536


def check_kernel(k) -> None:
    """Reject kernel sizes other than odd integers >= 1."""
    if not isinstance(k, (int, np.integer)) or k < 1 or k % 2 == 0:
        raise ValueError(f"kernel size must be an odd integer >= 1, got {k!r}")


def _checked(img, k, statistic) -> np.ndarray:
    check_kernel(k)
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    return as_image(img)


def _band_rows(statistic: str, k: int, w: int) -> int:
    """Output rows per band, at least one."""
    pixels = _MEAN_BAND_PIXELS if statistic == "mean" else _MEDIAN_BAND_SAMPLES // (k * k)
    return max(1, pixels // w)


def _worker_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _pool(workers: int, pid: int):
    """A thread pool kept for the process; a forked child gets its own (pid)."""
    from concurrent.futures import ThreadPoolExecutor  # lazily: it adds ~6 ms to import time

    return ThreadPoolExecutor(workers, thread_name_prefix="varipix-band")


def _halo(a: np.ndarray, top: int, bottom: int, pad: int) -> np.ndarray:
    """Rows top..bottom of a with a pad-wide halo on every side, edge-replicated outside a."""
    h = a.shape[0]
    rows = a[max(top - pad, 0) : min(bottom + pad, h)]
    return np.pad(rows, ((max(pad - top, 0), max(bottom + pad - h, 0)), (pad, pad)), mode="edge")


def _band_mean(padded, padded_lab, anchor, k, out) -> None:
    """Mean over one band: the k*k shifted planes summed into out in row-major order."""
    h, w = out.shape
    count = k * k if anchor is None else np.zeros((h, w), dtype=np.int64)
    out[...] = 0.0
    for dy, dx in np.ndindex(k, k):
        win = padded[dy : dy + h, dx : dx + w]
        if anchor is not None:
            match = padded_lab[dy : dy + h, dx : dx + w] == anchor
            count += match
            win = np.where(match, win, 0.0)
        out += win
    out /= count


def _rank(stack: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """The value of the given per-row rank in a row-sorted stack."""
    return np.take_along_axis(stack, rank[:, None], axis=1)[:, 0]


def _band_median(padded, padded_lab, anchor, k, out) -> None:
    """Median over one band: each pixel's k*k window is one contiguous, sorted row."""
    h, w = out.shape
    n = h * w
    windows = sliding_window_view(padded, (k, k))  # (h, w, k, k), row-major window order
    if anchor is None:
        stack = windows.copy().reshape(n, k * k)
        stack.sort(axis=-1)
        out[...] = stack[:, k * k // 2].reshape(h, w)
        return
    match = np.empty((h, w, k, k), dtype=bool)
    # Laid out pixel-major, computed with the image column innermost: long runs, not runs of k.
    np.equal(
        sliding_window_view(padded_lab, (k, k)).transpose(0, 2, 3, 1),
        anchor[:, None, None, :],
        out=match.transpose(0, 2, 3, 1),
    )
    stack = np.where(match, windows, np.inf).reshape(n, k * k)
    count = np.einsum("ij->i", match.reshape(n, k * k), dtype=np.intp)
    stack.sort(axis=-1)
    mid = _rank(stack, (count - 1) // 2)
    even = count % 2 == 0
    if np.any(even):
        mid[even] = 0.5 * (mid[even] + _rank(stack, count // 2)[even])
    out[...] = mid.reshape(h, w)


def _window_filter(img: np.ndarray, labels: np.ndarray | None, k: int, statistic: str) -> np.ndarray:
    """The window kernel behind both filters.

    Candidates are the window pixels whose label equals the anchor's;
    labels=None makes every pixel a candidate. A non-candidate holds the
    statistic's neutral value: 0.0 in the mean's sum, +inf in the
    median's sort, which puts it after every finite candidate. The output
    rows are cut into bands (_band_rows); each band pads its rows with its
    own k//2 halo, edge-replicated at the image border, and writes only its
    own output rows, so the bands run in any order, on any thread.
    """
    h, w = img.shape
    pad = k // 2
    band = _band_mean if statistic == "mean" else _band_median
    rows = _band_rows(statistic, k, w)
    out = np.empty((h, w))

    def run(tops: range) -> None:
        for top in tops:
            bottom = min(top + rows, h)
            padded_lab = anchor = None
            if labels is not None:
                padded_lab, anchor = _halo(labels, top, bottom, pad), labels[top:bottom]
            band(_halo(img, top, bottom, pad), padded_lab, anchor, k, out[top:bottom])

    tops = range(0, h, rows)
    # A mean band makes ~4*k*k short numpy calls and holds the GIL between
    # them, so a second thread mostly waits; a median band mostly sorts,
    # with the GIL released. The calling thread takes its share of bands.
    workers = 1 if statistic == "mean" else min(_worker_count(), len(tops))
    helpers = [_pool(workers - 1, os.getpid()).submit(run, tops[i::workers]) for i in range(1, workers)]
    try:
        run(tops[::workers])
    finally:
        for helper in helpers:
            helper.result()
    return out


def box_filter(img: np.ndarray, k: int, statistic: str = DEFAULT_STATISTIC) -> np.ndarray:
    """Plain k x k mean or median over the edge-replicated image."""
    return _window_filter(_checked(img, k, statistic), None, k, statistic)


def adaptive_filter(
    img: np.ndarray,
    labels: np.ndarray,
    k: int,
    statistic: str = DEFAULT_STATISTIC,
    mode: str = DEFAULT_ADAPTIVE_MODE,
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
