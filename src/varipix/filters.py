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
size nor the order the bands run in changes a bit. The labels are shifted
by their minimum into the narrowest unsigned dtype that holds their span
(int64 stays when the span needs 64 bits), so the window compare moves one
or two bytes per pixel, not eight.

A mean band adds the k*k shifted planes in row-major window order; an
adaptive band multiplies each plane by its bool match plane and counts the
candidates in the smallest dtype that holds k*k. A sum along a window
axis would add in another order and change the bits. Its many short numpy
calls hold the GIL between them, so mean bands run on the calling thread.

A median band for k <= 3 runs a selection network on whole band planes:
Batcher's odd-even merge sort, generated in code and pruned to the output
ranks needed (the middle one for the box filter; 0..k*k//2 for the
adaptive filter, whose non-candidates are +inf and whose per-pixel rank is
then picked). The box filter's planes are contiguous runs of the
flattened band, read in place: the first pass that touches a plane writes
it into a buffer of its own. Min and max never round, so the network
returns the sort's values. For larger k the pruned network makes more
min/max passes than the sort costs, so the band builds its window stack
pixel-major, (band pixels, k*k) in row-major window order, and sorts along
the contiguous last axis. The band bounds that stack. Median bands run on
one thread per CPU the process may use, because their long numpy calls
release the GIL. The sort and the network may return different zeros when
-0.0 and 0.0 tie, so a zero median is always written as +0.0.
"""

from __future__ import annotations

import functools
import os

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .imgio import as_image, as_labels
from .scan import block_labels

STATISTICS = ("mean", "median")
DEFAULT_STATISTIC = "mean"
ADAPTIVE_MODES = ("literal", "block")
DEFAULT_ADAPTIVE_MODE = "literal"
FILTER_MODES = ("square", *(f"adaptive-{m}" for m in ADAPTIVE_MODES))
DEFAULT_FILTER_MODE = "square"
DEFAULT_KERNEL = 5

# Row-band sizes, for a working set of about 1.6 MB per band. A median
# band holds about _MEDIAN_BAND_SAMPLES window samples (4096 pixels at
# k = 7); a mean band holds no window stack, only a few planes of
# _MEAN_BAND_PIXELS pixels, so a 240x240 fixture is one mean band.
_MEDIAN_BAND_SAMPLES = 4096 * 49
_MEAN_BAND_PIXELS = 65536
# The largest k whose median runs as a selection network. From k = 5 on,
# the pruned networks (202 and 236 min/max passes at k = 5) measured
# slower than the sort.
_NETWORK_MAX_K = 3


def check_kernel(k) -> None:
    """Reject kernel sizes other than odd integers >= 1."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1 or k % 2 == 0:
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
    out[...] = 0.0
    if anchor is None:
        for dy, dx in np.ndindex(k, k):
            out += padded[dy : dy + h, dx : dx + w]
        out /= k * k
        return
    count = np.zeros((h, w), dtype=np.min_scalar_type(k * k))
    match = np.empty((h, w), dtype=bool)
    term = np.empty((h, w))
    for dy, dx in np.ndindex(k, k):
        np.equal(padded_lab[dy : dy + h, dx : dx + w], anchor, out=match)
        count += match
        # a non-candidate adds x * 0.0, which is -0.0 for a negative x; the sum
        # starts at +0.0 and +0.0 + -0.0 == +0.0, so no bit differs from adding 0.0
        out += np.multiply(padded[dy : dy + h, dx : dx + w], match, out=term)
    out /= count


@functools.cache
def _selection_network(n: int, ranks: tuple[int, ...]) -> tuple[tuple[int, int, bool, bool], ...]:
    """Batcher's odd-even merge sort on n inputs, pruned to the output ranks given.

    Each step (i, j, lo, hi) puts min(x[i], x[j]) into x[i] if lo and
    max(x[i], x[j]) into x[j] if hi; the output a step skips is never read
    again. The network is generated for the next power of two without the
    comparators that reach past n, as if the missing inputs were +inf, and
    then walked backwards from the ranks, keeping only the steps they need.
    """
    steps = []
    p = 1
    while p < n:
        d = p
        while d >= 1:
            for j in range(d % p, n - d, 2 * d):
                for i in range(j, j + min(d, n - j - d)):
                    if i // (2 * p) == (i + d) // (2 * p):
                        steps.append((i, i + d))
            d //= 2
        p *= 2
    live = set(ranks)
    kept = []
    for i, j in reversed(steps):
        if i in live or j in live:
            kept.append((i, j, i in live, j in live))
            live |= {i, j}
    return tuple(reversed(kept))


def _select(planes: list, ranks: tuple[int, ...], views: bool = False) -> list:
    """The planes' per-pixel values at the ranks given, by min/max over whole planes.

    Works in place on planes the caller owns. views=True only reads the
    planes: the first comparator that touches a plane writes it into a
    buffer of its own, and later ones work in place.
    """
    planes = list(planes)
    owned = [not views] * len(planes)
    spare = None if views else np.empty_like(planes[0])
    for i, j, lo, hi in _selection_network(len(planes), ranks):
        a, b = planes[i], planes[j]
        if lo and hi:
            planes[i] = np.minimum(a, b, out=spare)
            planes[j] = np.maximum(a, b, out=b if owned[j] else None)
            spare = a if owned[i] else None
            owned[i] = owned[j] = True
        elif lo:
            planes[i] = np.minimum(a, b, out=a if owned[i] else None)
            owned[i] = True
        else:
            planes[j] = np.maximum(a, b, out=b if owned[j] else None)
            owned[j] = True
    return [planes[r] for r in ranks]


def _rank(stack: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """The value of the given per-row rank in a row-sorted stack."""
    return np.take_along_axis(stack, rank[:, None], axis=1)[:, 0]


def _middle(count: np.ndarray, value_at) -> np.ndarray:
    """The median of count candidates per pixel; value_at(r) gives each pixel's value at rank r."""
    mid = value_at((count - 1) // 2)
    even = count % 2 == 0
    if np.any(even):
        mid[even] = 0.5 * (mid[even] + value_at(count // 2)[even])
    return mid


def _pick(planes: list, rank: np.ndarray) -> np.ndarray:
    """planes[rank] at each pixel, by masked copies (np.choose measured 3x slower)."""
    value = planes[0].copy()
    for r in range(1, len(planes)):
        np.copyto(value, planes[r], where=rank >= r)
    return value


def _band_median(padded, padded_lab, anchor, k, out) -> None:
    """Median over one band, by selection network for k <= 3 and by sorting each window for larger k."""
    h, w = out.shape
    n = k * k
    if k <= _NETWORK_MAX_K:
        if anchor is None:
            # each shifted plane as one contiguous run of the flattened band,
            # rows `width` apart; the k - 1 samples between rows are dropped
            width = padded.shape[1]
            flat, size = padded.ravel(), (h - 1) * width + w
            planes = [flat[dy * width + dx : dy * width + dx + size] for dy, dx in np.ndindex(k, k)]
            out[...] = sliding_window_view(_select(planes, (n // 2,), views=True)[0], w)[::width]
        else:
            planes = [padded[dy : dy + h, dx : dx + w] for dy, dx in np.ndindex(k, k)]
            count = np.zeros((h, w), dtype=np.min_scalar_type(n))
            for i, (dy, dx) in enumerate(np.ndindex(k, k)):
                match = padded_lab[dy : dy + h, dx : dx + w] == anchor
                count += match
                planes[i] = np.where(match, planes[i], np.inf)
            ranks = _select(planes, tuple(range(n // 2 + 1)))
            out[...] = _middle(count, lambda r: _pick(ranks, r))
    else:
        # each pixel's k*k window is one contiguous row of the stack, sorted
        windows = sliding_window_view(padded, (k, k))  # (h, w, k, k), row-major window order
        if anchor is None:
            stack = windows.copy().reshape(h * w, n)
            stack.sort(axis=-1)
            out[...] = stack[:, n // 2].reshape(h, w)
        else:
            match = np.empty((h, w, k, k), dtype=bool)
            # Laid out pixel-major, computed with the image column innermost: long runs, not runs of k.
            np.equal(
                sliding_window_view(padded_lab, (k, k)).transpose(0, 2, 3, 1),
                anchor[:, None, None, :],
                out=match.transpose(0, 2, 3, 1),
            )
            stack = np.where(match, windows, np.inf).reshape(h * w, n)
            count = np.einsum("ij->i", match.reshape(h * w, n), dtype=np.intp)
            stack.sort(axis=-1)
            out[...] = _middle(count, lambda r: _rank(stack, r)).reshape(h, w)
    out += 0.0  # -0.0 + 0.0 is +0.0, and no other value changes: a zero median is always +0.0


def _narrow(labels: np.ndarray) -> np.ndarray:
    """labels shifted by their minimum into the narrowest unsigned dtype holding their span.

    Shifting keeps every equality, and a narrower compare moves fewer
    bytes. The cast and the subtraction wrap modulo 2**bits, which is exact
    because the span fits. A span that needs 64 bits leaves the labels as
    they are.
    """
    lo = labels.min()
    dtype = np.min_scalar_type(int(labels.max()) - int(lo))
    if dtype.itemsize == 8:
        return labels
    narrow = labels.astype(dtype)
    narrow -= lo.astype(dtype)
    return narrow


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
    if labels is not None:
        labels = _narrow(labels)
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
    labels = as_labels(labels)
    if img.shape != labels.shape:
        raise ValueError(f"image shape {img.shape} != label map shape {labels.shape}")
    if mode == "block":
        labels = block_labels(labels)
    return _window_filter(img, labels, k, statistic)
