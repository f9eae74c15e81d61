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

Every mean band and every k <= 3 median band reads its k*k shifted
planes in one layout (_run_stack), as does a larger median band's label
count. The halo band is flattened, and each plane, in row-major window
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
never round, so the network returns the sort's values.

For larger k the pruned network makes more min/max passes than a sort
costs, so the band sorts integer keys, which sort twice as fast as
float64 samples. The halo band is argsorted once, and a sample's key is
its rank in it, with its label, less the band's smallest label, in the
bits above; the box filter's keys have no label bits. The key stack has
one row per output pixel, not per run position, and is built in two
copies (_key_stack): first the k keys of each halo pixel's column of
k rows, then each window's k columns, which lie next to each other, as
one contiguous k*k slice. Copying a window's keys out of the runs moves
them k at a time and cost as much as sorting them; the two copies cost
less than half of that. A row lists its window column by column, but the
keys are distinct, so the sorted row is the same. In a sorted row the
anchor's candidates are one group, in value order: its offset is the
number of window labels below the anchor's and its length the number
equal to it, both counted by one compare of every run with the center
run and cut to the output pixels. The group's middle rank, and the next
one for an even count, map back through the sorted band to their
samples. Keys are uint32, or uint64 for a band whose rank and label bits
together need more than 32 (_KEY_BITS). The band bounds the key stack,
four bytes per window sample, and its column array, about 1/k of the
stack.

Tied samples get distinct ranks, but a picked rank's sample has the
tie's bits whichever order the ties took, except for -0.0 and 0.0. The
key sort and the network may return either of those zeros, so a zero
median is always written as +0.0.

A filter call runs its bands one after another on the calling thread.
The pipeline runs whole filter calls in parallel, as tasks
(pipeline._run_tasks): a whole call's long numpy calls release the GIL,
where a mean band's short ones held it.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .imgio import as_image, as_labels
from .scan import block_labels

STATISTICS = ("mean", "median")
DEFAULT_STATISTIC = "mean"
ADAPTIVE_MODES = ("literal", "block")
DEFAULT_ADAPTIVE_MODE = "literal"
FILTER_MODES = ("square", *(f"adaptive-{m}" for m in ADAPTIVE_MODES))
DEFAULT_FILTER_MODE = "square"
DEFAULT_KERNEL = 5

# Row-band sizes, for a working set of at most about 1.6 MB per band. A
# median band holds about _MEDIAN_BAND_SAMPLES window samples (4096 pixels
# at k = 7): float64 runs in a network, uint32 keys in a key sort. A mean
# band holds no window stack, only a few planes of _MEAN_BAND_PIXELS
# pixels, so a 240x240 fixture is one mean band.
_MEDIAN_BAND_SAMPLES = 4096 * 49
_MEAN_BAND_PIXELS = 65536
# The largest k whose median runs as a selection network. From k = 5 on,
# the pruned networks (202 and 236 min/max passes at k = 5) measured
# slower than the sort.
_NETWORK_MAX_K = 3
# Larger medians sort uint32 keys, rank and label bits together, unless a
# band's ranks and label span need more bits than this; then uint64 keys.
_KEY_BITS = 32


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


def _run_stack(padded: np.ndarray, k: int) -> np.ndarray:
    """A halo band's k*k shifted planes, as one read-only (k, k, run length) view.

    [dy, dx] is the plane of window offset (dy, dx), one contiguous run of
    the flattened band. Output pixel (y, x) sits at y * width + x of every
    run, width being the halo band's row length;
    sliding_window_view(run, w)[::width] cuts the (h, w) output back out of
    a run.
    """
    width, flat = padded.shape[1], padded.ravel()
    size = flat.size - (k - 1) * (width + 1)  # the last run ends where the band ends
    step = flat.itemsize
    return as_strided(flat, (k, k, size), (width * step, step, step), writeable=False)


def _runs(padded: np.ndarray, k: int) -> list:
    """The band's runs (_run_stack) as a list, in row-major window order."""
    stack = _run_stack(padded, k)
    return [stack[dy, dx] for dy, dx in np.ndindex(k, k)]


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


def _middle(count: np.ndarray, value_at) -> np.ndarray:
    """The median of count candidates per pixel; value_at(r) gives each pixel's value at rank r."""
    low, high = value_at((count - 1) // 2), value_at(count // 2)
    with np.errstate(over="ignore"):  # an odd count's low + low may overflow, but is not taken
        high += low
    high *= 0.5
    return np.where(count & 1, low, high)


def _pick(planes: list, rank: np.ndarray) -> np.ndarray:
    """planes[rank] at each pixel, by masked copies (np.choose measured 3x slower)."""
    value = planes[0].copy()
    for r in range(1, len(planes)):
        np.copyto(value, planes[r], where=rank >= r)
    return value


def _key_stack(keys: np.ndarray, k: int, w: int) -> np.ndarray:
    """Each output pixel's k*k keys as one contiguous row of a (rows * w, k*k) stack, column by column.

    keys is the halo band's (rows + k - 1, width) key grid. The first copy
    takes k keys per halo pixel, columns[y, x] = keys[y:y+k, x]; a window's
    k columns are then k neighboring k-key rows of it, one contiguous
    k*k slice, which the second copy takes for every output pixel.
    """
    rows, width, step = keys.shape[0] - k + 1, keys.shape[1], keys.itemsize
    columns = as_strided(keys, (rows, width, k), (width * step, step, width * step)).copy()
    stack = as_strided(columns, (rows, w, k * k), (width * k * step, k * step, step)).copy()
    return stack.reshape(-1, k * k)


def _key_median(padded, padded_lab, k) -> np.ndarray:
    """The band's (rows, w) medians, by sorting one integer key per window sample.

    A key is the sample's rank in the halo band (argsort order, ties in any
    order), with its label, less the band's smallest label, in the bits
    above; values maps a rank back to its sample. Row y * w + x of the
    stack (_key_stack) holds output pixel (y, x)'s window keys and is
    sorted: the anchor's candidates are then one group in value order,
    after the window samples whose labels are lower than the anchor's. The
    label counts are taken on the runs and cut to the output pixels.
    """
    n = k * k
    flat = padded.ravel()
    order = flat.argsort()
    values = flat[order]
    rank_bits = (flat.size - 1).bit_length()
    low = span = 0
    if padded_lab is not None:
        low = padded_lab.min()
        span = int(padded_lab.max()) - int(low)
    dtype = np.uint32 if rank_bits + span.bit_length() <= _KEY_BITS else np.uint64
    keys = np.empty(flat.size, dtype)
    keys[order] = np.arange(flat.size, dtype=dtype)
    if span:
        keys |= np.subtract(padded_lab.ravel(), low, dtype=dtype) << dtype(rank_bits)
    width = padded.shape[1]
    w = width - k + 1
    stack = _key_stack(keys.reshape(padded.shape), k, w)
    stack.sort(axis=-1)
    if not span:  # every window sample is a candidate
        return values[stack[:, n // 2]].reshape(-1, w)
    labs = _run_stack(padded_lab, k)
    match = np.less(labs, labs[k // 2, k // 2])  # the center run is the anchor
    below = np.add.reduce(match.view(np.uint8), axis=(0, 1), dtype=np.min_scalar_type(n))
    np.equal(labs, labs[k // 2, k // 2], out=match)
    count = np.add.reduce(match.view(np.uint8), axis=(0, 1), dtype=below.dtype)
    below, count = (sliding_window_view(run, w)[::width].ravel() for run in (below, count))
    start = np.arange(0, below.size * n, n) + below
    rank_mask = dtype((1 << rank_bits) - 1)
    return _middle(count, lambda r: values.take(stack.take(start + r) & rank_mask)).reshape(-1, w)


def _network_median(padded, padded_lab, k) -> np.ndarray:
    """The band's medians as one run (_runs), by a selection network over the runs."""
    n = k * k
    if padded_lab is None:
        return _select(_runs(padded, k), (n // 2,), views=True)[0]
    planes = _runs(padded, k)
    labs = _runs(padded_lab, k)
    count = np.zeros(planes[0].shape, dtype=np.min_scalar_type(n))
    for i, lab in enumerate(labs):
        match = lab == labs[n // 2]  # the center run is the anchor
        count += match
        planes[i] = np.where(match, planes[i], np.inf)
    ranks = _select(planes, tuple(range(n // 2 + 1)))
    return _middle(count, lambda r: _pick(ranks, r))


def _band_median(padded, padded_lab, k, out) -> None:
    """Median over one band, by selection network for k <= 3 and by sorting each window's keys for larger k."""
    if k > _NETWORK_MAX_K:
        out[...] = _key_median(padded, padded_lab, k)
    else:
        median = _network_median(padded, padded_lab, k)
        out[...] = sliding_window_view(median, out.shape[1])[:: padded.shape[1]]
    out += 0.0  # -0.0 + 0.0 is +0.0, and no other value changes: a zero median is always +0.0


def _window_filter(img: np.ndarray, labels: np.ndarray | None, k: int, statistic: str) -> np.ndarray:
    """The window kernel behind both filters.

    Candidates are the window pixels whose label equals the anchor's,
    compared in the labels' own unsigned dtype; labels=None makes every
    pixel a candidate. In the mean's sum a non-candidate adds 0.0; in a
    median's selection network it is +inf, after every finite candidate,
    and the key sort puts the candidates in a group of their own. The
    output rows are cut into bands (_band_rows); each band pads its rows
    with its own k//2 halo, edge-replicated at the image border, and
    writes only its own output rows, so the band height never changes a
    bit.
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
