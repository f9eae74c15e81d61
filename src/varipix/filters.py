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
size nor the order the bands run in changes a bit. Labels are compared as
they arrive: uint8 region bits in literal mode, block_labels' narrowest
unsigned dtype in block mode, so the window compare moves one or two bytes
per pixel.

Every plane-major band reads its k*k shifted planes in one layout
(_runs). The halo band is flattened, and each plane, in row-major window
order, is one contiguous run of it, read in place: output pixel (y, x)
sits at y * width + x of every run, width being the halo band's row
length, and the k - 1 samples between two output rows are computed and
dropped. The center run holds the anchors. One cut,
sliding_window_view(run, w)[::width], takes the band's output rows back
out of a result run. Min and max measured twice as fast on contiguous
runs as on 2-D strided views.

A mean band adds the runs into one accumulator run in row-major window
order; an adaptive band multiplies each run by its bool match run and
counts the candidates in the smallest dtype that holds k*k. A sum along a
window axis would add in another order and change the bits.

A median band for k <= 3 runs a selection network on the runs: Batcher's
odd-even merge sort, generated in code and pruned to the output ranks
needed (the middle one for the box filter; 0..k*k//2 for the adaptive
filter, whose non-candidates are +inf and whose per-pixel rank is then
picked). The box filter's network reads the runs in place: the first
pass that touches a run writes it into a buffer of its own. Min and max
never round, so the network returns the sort's values. For larger k the
pruned network makes more min/max passes than the sort costs, so the
band builds its window stack pixel-major, (band pixels, k*k) in row-major
window order, takes its anchors from the center of the halo band, and
sorts along the contiguous last axis. The band bounds that stack. The
sort and the network may return different zeros when -0.0 and 0.0 tie,
so a zero median is always written as +0.0.

A filter call runs its bands one after another on the calling thread.
The pipeline runs whole filter calls in parallel, as tasks
(pipeline._run_tasks): a whole call's long numpy calls release the GIL,
where a mean band's short ones held it.
"""

from __future__ import annotations

import functools

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


def _halo(a: np.ndarray, top: int, bottom: int, pad: int) -> np.ndarray:
    """Rows top..bottom of a with a pad-wide halo on every side, edge-replicated outside a.

    np.pad(..., mode="edge") gives the same array, but costs about four
    times as much on a band of a few rows.
    """
    h, w = a.shape
    lo, hi = max(top - pad, 0), min(bottom + pad, h)
    above = lo - (top - pad)
    out = np.empty((bottom - top + 2 * pad, w + 2 * pad), a.dtype)
    body = out[:, pad : pad + w]
    body[above : above + hi - lo] = a[lo:hi]
    body[:above] = a[lo]
    body[above + hi - lo :] = a[hi - 1]
    out[:, :pad] = out[:, pad : pad + 1]
    out[:, pad + w :] = out[:, pad + w - 1 : pad + w]
    return out


def _runs(padded: np.ndarray, k: int) -> list:
    """A halo band's k*k shifted planes in row-major window order, as contiguous runs of the flattened band.

    Output pixel (y, x) sits at y * width + x of every run, width being the
    halo band's row length; sliding_window_view(run, w)[::width] cuts the
    (h, w) output back out of a run.
    """
    width, flat = padded.shape[1], padded.ravel()
    size = flat.size - (k - 1) * (width + 1)  # the last run ends where the band ends
    return [flat[dy * width + dx : dy * width + dx + size] for dy, dx in np.ndindex(k, k)]


def _band_mean(padded, padded_lab, k, out) -> None:
    """Mean over one band: the k*k shifted runs summed in row-major window order."""
    planes = _runs(padded, k)
    total = np.zeros_like(planes[0])
    if padded_lab is None:
        for plane in planes:
            total += plane
        total /= k * k
    else:
        labs = _runs(padded_lab, k)
        count = np.zeros(total.shape, dtype=np.min_scalar_type(k * k))
        match = np.empty(total.shape, dtype=bool)
        term = np.empty_like(total)
        for plane, lab in zip(planes, labs):
            np.equal(lab, labs[k * k // 2], out=match)  # the center run is the anchor
            count += match
            # a non-candidate adds x * 0.0, which is -0.0 for a negative x; the sum
            # starts at +0.0 and +0.0 + -0.0 == +0.0, so no bit differs from adding 0.0
            total += np.multiply(plane, match, out=term)
        total /= count
    out[...] = sliding_window_view(total, out.shape[1])[:: padded.shape[1]]


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


def _band_median(padded, padded_lab, k, out) -> None:
    """Median over one band, by selection network for k <= 3 and by sorting each window for larger k."""
    h, w = out.shape
    n = k * k
    if k <= _NETWORK_MAX_K:
        planes = _runs(padded, k)
        if padded_lab is None:
            median = _select(planes, (n // 2,), views=True)[0]
        else:
            labs = _runs(padded_lab, k)
            count = np.zeros(planes[0].shape, dtype=np.min_scalar_type(n))
            for i, lab in enumerate(labs):
                match = lab == labs[n // 2]  # the center run is the anchor
                count += match
                planes[i] = np.where(match, planes[i], np.inf)
            ranks = _select(planes, tuple(range(n // 2 + 1)))
            median = _middle(count, lambda r: _pick(ranks, r))
        out[...] = sliding_window_view(median, w)[:: padded.shape[1]]
    else:
        # each pixel's k*k window is one contiguous row of the stack, sorted
        windows = sliding_window_view(padded, (k, k))  # (h, w, k, k), row-major window order
        if padded_lab is None:
            stack = windows.copy().reshape(h * w, n)
            stack.sort(axis=-1)
            out[...] = stack[:, n // 2].reshape(h, w)
        else:
            anchor = padded_lab[k // 2 : k // 2 + h, k // 2 : k // 2 + w]
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


def _window_filter(img: np.ndarray, labels: np.ndarray | None, k: int, statistic: str) -> np.ndarray:
    """The window kernel behind both filters.

    Candidates are the window pixels whose label equals the anchor's,
    compared in the labels' own unsigned dtype; labels=None makes every
    pixel a candidate. A non-candidate holds the statistic's neutral value:
    0.0 in the mean's sum, +inf in the median's sort, which puts it after
    every finite candidate. The output rows are cut into bands
    (_band_rows); each band pads its rows with its own k//2 halo,
    edge-replicated at the image border, and writes only its own output
    rows, so the band height never changes a bit.
    """
    h, w = img.shape
    pad = k // 2
    band = _band_mean if statistic == "mean" else _band_median
    rows = _band_rows(statistic, k, w)
    out = np.empty((h, w))
    for top in range(0, h, rows):
        bottom = min(top + rows, h)
        padded_lab = None if labels is None else _halo(labels, top, bottom, pad)
        band(_halo(img, top, bottom, pad), padded_lab, k, out[top:bottom])
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
    labels = (block_labels if mode == "block" else as_labels)(labels)  # either checks the bits once
    if img.shape != labels.shape:
        raise ValueError(f"image shape {img.shape} != label map shape {labels.shape}")
    return _window_filter(img, labels, k, statistic)
