"""Grayscale image and label-map I/O.

Images travel through the pipeline as 2-D float64 arrays with intensities
in [0, 255]; quantization to 8 bits happens only when writing PGM. Three
on-disk formats:

* PGM, binary P5 or ASCII P2, maxval <= 255 (read, rescaled to 0..255),
  P5 maxval 255 (write).
* Label maps: `labels <width> <height>` then <height> lines of <width>
  space-separated region bits, each 0 or 1.
* Raw dumps: `rawgray <width> <height>` then <height> lines of <width>
  finite floats written as repr writes them, so float64 values round-trip
  exactly.

Every header is read once, by one parser, `_read_header`: whitespace-separated
fields, `#` comments to the end of the line, and the magic, the
dimensions and the PGM maxval checked before any sample is read. The magic
is the first field and names the file's kind, so `read_image` learns from it
whether a PGM or a raw dump follows.

Raw dumps are written with repr's bytes but without calling repr per value.
A finite x is m / 2**s with m < 2**53; its k-fraction-digit candidate is
D = round(m * 5**k / 2**(s-k)), computed exactly in two uint64 limbs, with an
exact tie rounded half to even as repr rounds it, and D / 10**k reads back as
x exactly when 2 * |m * 5**k - D * 2**(s-k)| < 5**k (never equal, because
5**k is odd). The smallest k with 10**k >= 2**s always round-trips; below it
at most the nearest multiple of 10 does, and each of its trailing zeros is
one digit fewer, so the shortest digits come from one 128-bit product (the
approach of Ryu and Schubfach). This exact path takes 0.0 and -0.0, integral
|x| < 2**52 (written `<int>.0`) and non-integral 1e-3 <= |x| < 2**31; repr
writes only the values outside it. The only powers of two in that range,
2**-1 to 2**-9, are exact at their first candidate, so their lopsided
rounding interval never matters.
The bytes are laid out as four-digit ASCII words with NUL padding, which is
deleted, and written 16384 values at a time, so a chunk's float64 temporaries
are 128 KB. What a chunk size costs depends on glibc's dynamic mmap and trim
thresholds: until the process has freed a larger block, blocks that size are
mapped or trimmed away and their fresh pages faulted in again on every chunk.
On a 2-core x86 host, a long-lived process wrote the 35 dumps of a
`dump_roundtrip` job in 16-20% less time with 16384 values per chunk than
with 4096, and in 35-38% more with 65536. A fresh-process `varipix run` with
raw dumps took the same time with 4096 or 16384, but a fresh process that
writes a single 240x240 dump spent 23.4 ms in this writer against 20.4 ms in
the previous 4096-value one, because nothing it freed before had raised the
thresholds.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

GrayImage = np.ndarray  # float64, shape (height, width)
LabelMap = np.ndarray  # uint8 region bits 0/1, shape (height, width)


class ImageFormatError(ValueError):
    """Malformed image or label-map file."""


def as_image(data, stack: bool = False) -> GrayImage:
    """View data as a GrayImage; rejects non-2-D or empty shapes and nan/inf samples.

    stack=True also takes a 3-D stack of same-shape images, (n, height, width).
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim not in ((2, 3) if stack else (2,)) or arr.size == 0:
        shape = "2-D, or a 3-D stack of 2-D images," if stack else "2-D"
        raise ValueError(f"image must be {shape} with samples, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("image has non-finite samples (nan or inf)")
    return arr


def as_labels(data) -> LabelMap:
    """Check data as a LabelMap of region bits; returns them as uint8.

    Takes any integer or bool dtype, and rejects other dtypes, non-2-D or
    empty shapes and labels other than 0/1. Bool is viewed, uint8 returned
    as it is, and a wider dtype copied.
    """
    arr = np.asarray(data)
    if arr.dtype.kind not in "biu":
        raise ValueError(f"labels must be integers, got dtype {arr.dtype}")
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"labels must be 2-D with samples, got shape {arr.shape}")
    if arr.dtype == bool:
        return arr.view(np.uint8)
    if arr.min() < 0 or arr.max() > 1:
        raise ValueError("labels must be region bits 0 or 1")
    return arr.astype(np.uint8, copy=False)


_KINDS = {"P5": "PGM", "P2": "PGM", "rawgray": "raw dump", "labels": "label map"}


def _header_field(fh, bad: str) -> str:
    """The next whitespace-separated header field at fh's position, skipping `#` comments.

    Read a byte at a time, so fh stops just past the one whitespace byte
    that ends the field. A field that cannot be read is reported as `bad`.
    """
    field = b""
    while True:
        c = fh.read(1)
        if c == b"#" and not field:
            fh.readline()
        elif c and not c.isspace():
            if len(field) == 20:  # longer than any magic or int64 dimension
                raise ImageFormatError(f"{bad}: field too long")
            field += c
        elif field:
            return field.decode("ascii", "replace")
        elif not c:
            raise ImageFormatError(f"{bad}: unexpected end of file")


def _read_header(fh, path, magics: tuple[str, ...] = ("P5", "P2", "rawgray")) -> tuple[str, int, int, int]:
    """Parse and check the header at the start of binary stream fh, leaving fh at the samples.

    The first field is the magic, one of magics, and its kind decides the
    rest: a PGM header goes on with width, height and maxval, a text grid's
    with width and height (its maxval is returned as 0). A file that starts
    with none of several magics is an unrecognized image format.
    """
    bad = f"malformed {_KINDS[magics[0]]} header" if len(magics) == 1 else f"unrecognized image format in {path}"
    magic = _header_field(fh, bad)
    if magic not in magics:
        raise ImageFormatError(f"{bad}: bad magic {magic!r}")
    what = _KINDS[magic]
    bad = f"malformed {what} header"
    sizes = [_header_field(fh, bad) for _ in range(3 if what == "PGM" else 2)]
    try:
        width, height, *maxval = map(int, sizes)
    except ValueError:
        raise ImageFormatError(f"{bad}: non-integer dimension") from None
    if width <= 0 or height <= 0:
        raise ImageFormatError(f"{bad}: bad dimensions {width}x{height}")
    maxval = maxval[0] if maxval else 0
    if maxval > 255:
        raise ImageFormatError(f"unsupported maxval {maxval} (must be <= 255)")
    if what == "PGM" and maxval <= 0:
        raise ImageFormatError(f"{bad}: bad maxval {maxval}")
    return magic, width, height, maxval


def read_image_header(path) -> tuple[str, int, int, int]:
    """Check the header of the PGM or raw dump at path as read_image does, reading no samples."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def read_image(path) -> GrayImage:
    """Read a PGM (P5 or P2) or a raw dump, whichever the magic in its header names."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        return (_raw_samples if header[0] == "rawgray" else _pgm_samples)(fh, *header)


def _pgm_samples(fh, magic: str, width: int, height: int, maxval: int) -> GrayImage:
    """The raster after a PGM header, rescaled from 0..maxval to 0..255, so white is 255.0 whatever the maxval."""
    n = width * height
    if magic == "P5":  # exactly one whitespace byte, already read, separates maxval from the raster
        data = fh.read(n)
        if len(data) < n:
            raise ImageFormatError(f"truncated PGM data: expected {n} bytes, got {len(data)}")
        samples = np.frombuffer(data, dtype=np.uint8)
    else:
        tokens = fh.read().split()
        if len(tokens) < n:
            raise ImageFormatError(f"truncated PGM data: expected {n} samples, got {len(tokens)}")
        samples = _parse(tokens[:n], np.int64, "malformed PGM data: non-integer sample")
    if samples.max(initial=0) > maxval or samples.min(initial=0) < 0:
        raise ImageFormatError(f"malformed PGM data: sample outside [0, {maxval}]")
    img = samples.reshape(height, width).astype(np.float64)
    if maxval < 255:
        img = img * 255.0 / maxval  # onto 0..255, where noise clipping and the PSNR peak live
    return img


def _raw_samples(fh, magic: str, w: int, h: int, _maxval: int) -> GrayImage:
    samples = _grid_samples(fh, magic, w, h, "samples", np.float64, "non-numeric sample")
    if not np.isfinite(samples).all():
        raise ImageFormatError("malformed raw dump: non-finite sample (nan or inf)")
    return samples


def _parse(tokens, dtype, message: str) -> np.ndarray:
    """Tokens as a dtype array, rejected as `message` where int()/float() would be."""
    try:
        return np.array(tokens, dtype=dtype)
    except (ValueError, OverflowError):
        raise ImageFormatError(message) from None


def _grid_samples(fh, magic: str, w: int, h: int, noun: str, dtype, message: str) -> np.ndarray:
    """The exactly w*h whitespace-separated values after a text grid's header."""
    tokens = fh.read().split()
    what = _KINDS[magic]
    if len(tokens) != w * h:
        raise ImageFormatError(f"{what} says {w}x{h} ({w * h} {noun}) but {len(tokens)} {noun} present")
    return _parse(tokens, dtype, f"malformed {what}: {message}").reshape(h, w)


def write_pgm(img: GrayImage, path) -> None:
    """Write a binary P5 PGM; samples are clipped to [0, 255] and rounded half-up."""
    img = as_image(img)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.floor(np.clip(img, 0.0, 255.0) + 0.5).astype(np.uint8).tobytes())


def write_labelmap(labels: LabelMap, path) -> None:
    labels = as_labels(labels)
    h, w = labels.shape
    text = np.full((h, 2 * w), ord(" "), dtype=np.uint8)
    text[:, ::2] = labels + ord("0")
    text[:, -1:] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(f"labels {w} {h}\n".encode("ascii"))
        fh.write(text.tobytes())


def read_labelmap(path) -> LabelMap:
    with open(path, "rb") as fh:
        magic, w, h, _ = _read_header(fh, path, ("labels",))
        labels = _grid_samples(fh, magic, w, h, "labels", np.int64, "non-integer label")
    try:
        return as_labels(labels)
    except ValueError as exc:
        raise ImageFormatError(f"malformed label map: {exc}") from None


_CHUNK = 16384  # values per write; see the module docstring
_U64 = np.uint64
_M32, _S32, _ONE, _TEN = _U64(0xFFFFFFFF), _U64(32), _U64(1), _U64(10)


@functools.cache
def _tables() -> SimpleNamespace:
    """Lookup tables, built on first use rather than at import.

    words: '<u4' ASCII words "0000".."9999"; k, pow5, shift: per s, the
    smallest k with 10**k >= 2**s (it always round-trips), 5**k and s - k;
    pow10: int64 10**e for e < 19 (every D < 10**18); blank: per width
    n <= 5 words (k <= 19) and j <= 4*n, the n '<u4' masks that make the
    first j bytes of n words NUL.
    """
    i = np.arange(10000)
    words = sum((i // 10**p % 10 + ord("0")) << 8 * (3 - p) for p in range(4)).astype("<u4")
    k0 = [next(k for k in range(20) if 10**k >= 2**s) for s in range(64)]
    k, pow5, shift = (np.array(col, dtype=np.uint64) for col in zip(*[(k, 5**k, s - k) for s, k in enumerate(k0)]))
    blank = np.array([0xFFFFFFFF, 0xFFFFFF00, 0xFFFF0000, 0xFF000000, 0], dtype="<u4")  # per j <= 4: first j bytes NUL
    return SimpleNamespace(
        words=words, k=k, pow5=pow5, shift=shift,
        pow10=np.array([10**e for e in range(19)], dtype=np.int64),
        blank=[blank[np.clip(np.arange(4 * n + 1)[:, None] - np.arange(0, 4 * n, 4), 0, 4)] for n in range(6)],
    )


def _shortest(m, s, tables):
    """Shortest round-trip digits of m / 2**s (m < 2**53, 22 <= s <= 62) as D / 10**k."""
    k, p, t = tables.k[s], tables.pow5[s], tables.shift[s]
    # m * 5**k as hi * 2**64 + lo, from 32-bit halves
    a0, a1, b0, b1 = m & _M32, m >> _S32, p & _M32, p >> _S32
    lo = a0 * b0
    mid = (lo >> _S32) + a1 * b0 + a0 * b1
    lo = (lo & _M32) | (mid << _S32)
    hi = a1 * b1 + (mid >> _S32)
    # x * 10**k = q + r / 2**t; a candidate round-trips iff it lies within 5**k / 2**(t+1) of it
    q = (hi << (_U64(64) - t)) | (lo >> t)
    unit = _ONE << t
    r = lo & (unit - _ONE)
    q10 = q // _TEN
    last = q - q10 * _TEN
    up = last >= _U64(5)
    # up and shorter are near random, so select by modular uint64 blends, b + c * (a - b), not np.where
    err = (last << t) + r
    err += up * (((_TEN - last) << t) - r - err)  # to the nearest multiple of 10, times 2**t
    shorter = err + err < p
    half = unit >> _ONE
    nearest = (r > half) | ((r == half) & ((q & _ONE) == _ONE))  # a tie rounds half to even, as repr does
    d = q + nearest
    d += shorter * ((q10 + up) - d)
    k = k - shorter
    # a shorter candidate is unique; each trailing zero it has is one digit fewer
    z = np.flatnonzero(d == d // _TEN * _TEN)
    dz, kz = d[z], k[z]
    for e in (16, 8, 4, 2, 1):
        cut = dz // _U64(10**e)
        hit = cut * _U64(10**e) == dz
        dz, kz = np.where(hit, cut, dz), kz - hit * _U64(e)
    d[z], k[z] = dz, kz
    return d, k


def _digit_words(v, keep, nwords: int, tables) -> np.ndarray:
    """v as 4*nwords zero-padded ASCII digits in '<u4' words, all but the last `keep` NUL."""
    out = np.empty((v.size, nwords), dtype="<u4")
    for g in range(nwords - 1, -1, -1):
        q = v // 10000
        out[:, g] = tables.words[v - q * 10000]
        v = q
    out &= tables.blank[nwords][4 * nwords - keep]
    return out


def _format_raw(x, sep, tables) -> bytes:
    """repr of each value of x followed by its separator byte, as one bytes object."""
    pow10 = tables.pow10
    ax = np.abs(x)
    integral = (ax < 2.0**52) & (np.floor(ax) == ax)
    d = np.where(integral, ax, 0.0).astype(np.uint64) * _TEN  # `<int>.0` is D = 10 * int, k = 1
    k = np.ones(x.size, dtype=np.uint64)
    window = (ax >= 1e-3) & (ax < 2.0**31) & ~integral
    fast = np.flatnonzero(window)
    frac, exp = np.frexp(ax[fast])
    d[fast], k[fast] = _shortest(np.ldexp(frac, 53).astype(np.uint64), 53 - exp.astype(np.intp), tables)
    d, k = d.astype(np.int64), k.astype(np.int64)
    whole, part = np.divmod(d, pow10[np.minimum(k, 18)])
    n_whole = -(-len(str(whole.max())) // 4)
    neg = np.signbit(x)
    cols = [np.where(neg, ord("-"), 0)[:, None]] if neg.any() else []
    cols += [
        _digit_words(whole, 1 + sum(whole >= p for p in pow10[1 : 4 * n_whole]), n_whole, tables),
        np.full((x.size, 1), ord(".")),
        _digit_words(part, k, -(-int(k.max()) // 4), tables),
        sep[:, None],
    ]
    text = np.concatenate(cols, axis=1, dtype="<u4", casting="unsafe")
    at = np.flatnonzero(~(integral | window))
    if at.size:  # repr itself, NUL-padded into the row (widened to 28 bytes if need be)
        text = np.pad(text, ((0, 0), (0, max(0, 7 - text.shape[1]))))
        rows = [f"{v!r}{chr(c)}" for v, c in zip(x[at].tolist(), sep[at].tolist())]
        text[at] = np.array(rows, dtype=f"S{4 * text.shape[1]}").view("<u4").reshape(at.size, -1)
    return text.tobytes().translate(None, b"\0")


def write_raw(img: GrayImage, path) -> None:
    """Write the lossless real-valued dump format (exact float64 round trip), as repr writes it."""
    img = as_image(img)
    h, w = img.shape
    flat = img.ravel()
    tables = _tables()
    with open(path, "wb") as fh:
        fh.write(f"rawgray {w} {h}\n".encode("ascii"))
        for start in range(0, flat.size, _CHUNK):
            x = flat[start : start + _CHUNK]
            row_end = np.arange(start + 1, start + 1 + x.size) % w == 0
            fh.write(_format_raw(x, np.where(row_end, ord("\n"), ord(" ")), tables))
