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
approach of Ryu and Schubfach). This exact path takes +0.0 <= x < 1000:
the integral values, written `<int>.0`, and the non-integral ones from 1e-3
up. That window is the program's traffic. Its images hold intensities in
[0, 255], and of the 35,712,000 values of a dumped five-fixture `varipix
run` (both adaptive modes, the three noises, k 3/5/7, mean and median)
none was negative, -0.0 or >= 1000, and 4 were non-integral below 1e-3.
From +0.0 up a double's uint64 bits are ordered as its value, and a set
sign bit puts every negative above them, so two compares of the bits find
the window. repr writes the values outside it. The only powers of two in
the window, 2**-1 to 2**-9, are exact at their first candidate, so their
lopsided rounding interval never matters.

D's whole part is floor(x): no integer lies strictly between x and a
D / 10**k that reads back as x, because that integer would itself be a
double at least as close to D / 10**k. So the fraction part is
D - floor(x) * 10**k, with no division.

The bytes are laid out as four-digit ASCII words, one row of words per
column of the dump, and written 16384 values at a time; NUL bytes pad the
words and are deleted on the way out. Each value's words are its whole
part, one word from a table of words with the leading zeros NUL, and its
fraction part, zero-padded to ceil((kmax + 1) / 4) words for the chunk's
largest k. One take per fraction word from an XOR table turns the zeros
before the kept digits to NUL (^0x30) and the last of them to '.'
(^0x1E), so the '.' needs no word of its own. A whole part below 1000
leaves byte 0 of its word NUL, so each value's separator, the one that
ends the value before it, always goes there. The file's first value has
no separator, and the file ends with one '\n'. A noisy intensity takes at
most six words (24 bytes for about 18.5 written) and an integral one two.
A value repr writes takes its row of the grid, seven words wide or more
(a repr and its separator take up to 25 bytes), and the reprs are built
and spliced in 512 values at a time, so that no chunk builds a list or a
bytes array of all its reprs.

A write_raw call allocates its work arrays once, for one chunk, and
builds their views once per call: eight uint64 rows, named in `_work`, that
every stage reuses through `out=`, five bool rows and the text rows. Each
chunk's text is copied out and its NULs deleted 64 KB at a time (2730
six-word values): larger pieces raised the traced peak, and 48 KB ones
the peak RSS. So no chunk allocates a large array. On a 2-core x86 host
the 35 dumps of a `dump_roundtrip` job peak at 1.79 MB traced, and a
240x240 dump that repr writes whole (values of +-2e9, below 1e-4 or near
1e20) at 1.91 MB. A larger chunk makes fewer numpy calls per value, and
each call on a chunk-sized array hands the GIL to a task thread that waits
for it: two threads writing dumps at once with 8192 values per chunk ran
no faster than one thread writing them all.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

GrayImage = np.ndarray  # float64, shape (height, width)
LabelMap = np.ndarray  # uint8 region bits 0/1, shape (height, width)


_FINITE_BLOCK = 65536  # samples per finiteness check, in whole rows, so that no check allocates a bool image


class ImageFormatError(ValueError):
    """Malformed image or label-map file."""


def as_image(data) -> GrayImage:
    """View data as a GrayImage; rejects non-2-D or empty shapes and nan/inf samples."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"image must be 2-D with samples, got shape {arr.shape}")
    step = max(1, _FINITE_BLOCK // arr.shape[1])
    for row in range(0, arr.shape[0], step):
        if not np.isfinite(arr[row : row + step]).all():
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
_PIECE = 65536  # bytes of text copied out and stripped of NULs at a time, in whole values; see the module docstring
_REPRS = 512  # repr-written values spliced into the text at a time; see the module docstring
_ROWS = ("m", "s", "k", "p", "t", "b", "c", "e")  # the writer's work rows; see _work
_U64 = np.uint64
_M32, _S32, _ONE, _TEN = _U64(0xFFFFFFFF), _U64(32), _U64(1), _U64(10)
_LOW, _TOP = np.array([1e-3, 1000.0]).view(_U64)  # the bits of the exact path's bounds; see _write_chunk


def _xor_masks(n: int) -> np.ndarray:
    """Per word g < n and j < 4*n, the '<u4' mask that turns the first j of 4*n zero-padded digits from '0' to NUL.

    Digit j turns from '0' to '.'. Row g is word g's table, indexed by j.
    """
    j, byte = np.arange(4 * n)[:, None], np.arange(4 * n)
    masks = np.where(byte < j, 0x30, np.where(byte == j, 0x1E, 0)).astype(np.uint8)
    return np.ascontiguousarray(masks.view("<u4").T)


@functools.cache
def _tables() -> SimpleNamespace:
    """Lookup tables, built on first use rather than at import.

    words: '<u4' ASCII words "0000".."9999", and short: the same words with
    their leading zeros NUL, "0" kept; k, pow5, shift: per s, the smallest k
    with 10**k >= 2**s (it always round-trips), 5**k and s - k; pow10: uint64
    10**e for e <= 19, the largest k; dot: per width n, _xor_masks (a
    fraction takes up to 5 words).
    """
    i = np.arange(10000)
    words = sum((i // 10**p % 10 + ord("0")) << 8 * (3 - p) for p in range(4)).astype("<u4")
    k0 = [next(k for k in range(20) if 10**k >= 2**s) for s in range(64)]
    k, pow5, shift = (np.array(col, dtype=np.uint64) for col in zip(*[(k, 5**k, s - k) for s, k in enumerate(k0)]))
    blank = np.array([0xFFFFFFFF, 0xFFFFFF00, 0xFFFF0000, 0xFF000000], dtype="<u4")  # per j < 4: first j bytes NUL
    return SimpleNamespace(
        words=words, k=k, pow5=pow5, shift=shift,
        short=words & blank[4 - sum(i >= 10**p for p in range(4)) - (i == 0)],
        pow10=np.array([10**e for e in range(20)], dtype=np.uint64),
        dot=[_xor_masks(n) for n in range(6)],
    )


def _work(n: int) -> SimpleNamespace:
    """The work arrays of one write_raw call, for chunks of up to n values.

    rows: eight uint64 rows of n, named once here by their use in _shortest
    and reused by each stage of a chunk in turn. In that order, they hold:

      m  the window's mantissas m, then its D; then 10**k, and the digit
         loop's q
      s  the window's s, then _shortest's a; then every value's D and then
         its fraction part
      k  the window's k; then the digit loop's r
      p  _shortest's 5**k; then every value's k and then its fraction's
         digit-word indices
      t  _shortest's s - k; then the whole parts
      b  _shortest's scratch; then one digit word's XOR masks
      c  floor(x); then _shortest's scratch; then x clipped to [0, 999]
      e  _shortest's scratch

    _shortest needs all eight rows, so the whole parts are taken from x
    after it. flags: five bool rows; text: the chunk's digit words, one
    row per column of the dump, grown to the widest chunk written.
    """
    return SimpleNamespace(
        pool=np.empty((len(_ROWS), n), dtype=np.uint64),
        flags=np.empty((5, n), dtype=bool), text=np.empty(0, dtype="<u4"),
    )


def _rows(work, n: int) -> tuple[SimpleNamespace, SimpleNamespace, SimpleNamespace, np.ndarray]:
    """The first n values of each named pool row, viewed as uint64, int64 and float64, and of each flag row."""
    return (
        *(
            SimpleNamespace(**{name: row[:n] for name, row in zip(_ROWS, work.pool.view(dtype))})
            for dtype in (np.uint64, np.int64, np.float64)
        ),
        work.flags[:, :n],
    )


def _shortest(tables, rows, n: int):
    """Shortest round-trip digits of m / 2**s (m < 2**53, 22 <= s <= 62) as D / 10**k.

    m and s are the first n values of rows m and s (s as int64); D comes
    back in row m and k in row k. Every other row's first n values, and
    flags 2 to 4, are overwritten.
    """
    u, i, _, flags = rows
    m, k, p, t, b, c, e, a = (row[:n] for row in (u.m, u.k, u.p, u.t, u.b, u.c, u.e, u.s))
    s = i.s[:n]
    up, shorter, flag = (row[:n] for row in flags[2:])
    for table, out in ((tables.k, k), (tables.pow5, p), (tables.shift, t)):
        np.take(table, s, out=out, mode="clip")  # "clip" writes out directly; s is in range
    # s is read; its row is a from here on
    # m * 5**k as hi * 2**64 + lo, from the 32-bit halves a0, a1 of m and b0, b1 of 5**k
    np.bitwise_and(m, _M32, out=a)  # a0
    m >>= _S32  # a1
    np.bitwise_and(p, _M32, out=b)  # b0
    lo = np.multiply(a, b, out=c)  # a0 * b0
    mid = np.right_shift(lo, _S32, out=e)
    mid += np.multiply(m, b, out=b)  # a1 * b0
    np.right_shift(p, _S32, out=b)  # b1
    mid += np.multiply(a, b, out=a)  # a0 * b1
    lo &= _M32
    lo |= np.left_shift(mid, _S32, out=a)
    hi = np.multiply(m, b, out=m)  # a1 * b1
    mid >>= _S32
    hi += mid
    # x * 10**k = q + r / 2**t; a candidate round-trips iff it lies within 5**k / 2**(t+1) of it
    q = np.left_shift(hi, np.subtract(_U64(64), t, out=a), out=m)
    q |= np.right_shift(lo, t, out=a)
    half = np.left_shift(_ONE, t, out=b)
    r = np.bitwise_and(lo, np.subtract(half, _ONE, out=a), out=lo)
    half >>= _ONE
    q10 = np.floor_divide(q, _TEN, out=e)
    last = np.subtract(q, np.multiply(q10, _TEN, out=a), out=a)
    np.greater_equal(last, _U64(5), out=up)
    # the nearest candidate; a tie rounds half to even, as repr does
    np.equal(r, half, out=flag)
    np.greater(r, half, out=shorter)
    nearest = np.bitwise_and(q, _ONE, out=b)
    nearest *= flag
    nearest |= shorter
    d = q
    d += nearest
    # up and shorter are near random, so select by modular uint64 blends, b + c * (a - b), not np.where
    err = np.left_shift(last, t, out=b)
    err += r
    blend = np.subtract(_TEN, last, out=a)
    blend <<= t
    blend -= r
    blend -= err
    blend *= up
    err += blend  # to the nearest multiple of 10, times 2**t
    err += err
    np.less(err, p, out=shorter)
    q10 += up
    q10 -= d
    q10 *= shorter
    d += q10
    k -= shorter
    # a shorter candidate is unique; each trailing zero it has is one digit fewer
    z = np.flatnonzero(np.equal(np.multiply(np.floor_divide(d, _TEN, out=a), _TEN, out=a), d, out=flag))
    dz, kz, cut, prod, hit = a[: z.size], b[: z.size], c[: z.size], e[: z.size], flag[: z.size]
    np.take(d, z, out=dz, mode="clip")
    np.take(k, z, out=kz, mode="clip")
    for zeros in (16, 8, 4, 2, 1):
        np.floor_divide(dz, _U64(10**zeros), out=cut)
        np.equal(np.multiply(cut, _U64(10**zeros), out=prod), dz, out=hit)
        np.copyto(dz, cut, where=hit)
        np.subtract(kz, _U64(zeros), out=kz, where=hit)
    d[z], k[z] = dz, kz
    return d, k


def _digit_words(v, j, out, table, words, q, r, mask) -> None:
    """v as 4*n zero-padded ASCII digits in the n '<u4' rows of out, word g of each value XORed with table[g, j].

    v < 10**(4*n) is overwritten; q and r are int64 work rows the size of v,
    and mask a '<u4' one.
    """
    for g in range(out.shape[0] - 1, -1, -1):
        if g:
            np.floor_divide(v, 10000, out=q)
            v -= np.multiply(q, 10000, out=r)  # v % 10000
        np.take(words, v, out=out[g], mode="clip")
        out[g] ^= np.take(table[g], j, out=mask, mode="clip")
        v, q = q, v


def _write_chunk(fh, x, start: int, width: int, tables, work, rows) -> None:
    """Write each value of x, from flat index `start` of an image `width` wide, as repr does, after its separator.

    rows are _rows(work, x.size).
    """
    n = x.size
    u, i, f, flags = rows  # the rows' uses, in order, are listed in _work
    integral, window, _, _, flag = flags
    bits = x.view(np.uint64)  # ordered as the values from +0.0 up; every negative's sign bit puts it above them
    np.equal(np.floor(x, out=f.c), x, out=integral)
    integral &= np.less(bits, _TOP, out=window)  # +0.0 <= x < 1000
    window &= np.greater_equal(bits, _LOW, out=flag)
    window &= np.logical_not(integral, out=flag)
    # a finite double in the window is m / 2**s with m = 2**52 | its mantissa bits and s = 1075 - its exponent
    # bits; the window's values are compacted to the front of rows m and s
    fast = np.flatnonzero(window)
    nf = fast.size
    m = np.take(bits, fast, out=u.m[:nf], mode="clip")
    np.right_shift(m, _U64(52), out=u.s[:nf])
    np.subtract(1075, i.s[:nf], out=i.s[:nf])
    m &= _U64(2**52 - 1)
    m |= _U64(2**52)
    _shortest(tables, rows, nf)
    at = np.flatnonzero(np.logical_not(np.logical_or(integral, window, out=flag), out=flag))  # the values repr writes
    # no integer lies strictly between x and a D / 10**k that reads back as it, so floor(x) is D's whole part;
    # clipping to [0, 999] keeps every such floor and gives the values repr writes one below 1000 too
    np.copyto(i.t, np.clip(x, 0.0, 999.0, out=f.c), casting="unsafe")  # truncation, so floor(x)
    whole = i.t
    # every value as D / 10**k; `<int>.0` is D = 10 * int, k = 1
    d, k, q, r = i.s, i.p, i.m, i.k
    np.multiply(whole, 10, out=d)
    d[fast] = i.m[:nf]
    k.fill(1)
    k[fast] = i.k[:nf]
    del fast
    scale = np.take(tables.pow10, k, out=q.view(np.uint64), mode="clip")
    d.view(np.uint64)[...] -= np.multiply(u.t, scale, out=scale)  # the fraction part; 10**19 needs uint64
    n_part = (int(k.max()) + 4) // 4  # a fraction's k digits and its '.'
    cols = 1 + n_part
    nrows = max(cols, 7) if at.size else cols  # a repr takes up to 25 bytes with its separator
    if work.text.size < nrows * work.pool.shape[1]:
        del work.text  # freed before the wider grid is allocated
        work.text = np.empty(nrows * work.pool.shape[1], dtype="<u4")
    text = work.text[: nrows * n].reshape(nrows, n)
    first, mask = text[0], u.b.view("<u4")[:n]
    # each value's separator, the one that ends the value before it, goes into byte 0 of its whole part's
    # word, a NUL there below 1000
    np.take(tables.short, whole, out=first, mode="clip")
    first |= 0x20  # ' '
    first[(-start) % width :: width] ^= 0x20 ^ 0x0A  # '\n' after the last value of a row
    if start == 0:
        first[0] &= 0xFFFFFF00  # the first value of the file follows the header's '\n'
    j = np.subtract(4 * n_part - 1, k, out=k)
    _digit_words(d, j, text[1:cols], tables.dot[n_part], tables.words, q, r, mask)
    text[cols:] = 0
    text = text.T
    for a in range(0, at.size, _REPRS):  # repr itself, after its separator, NUL-padded into the row
        batch = at[a : a + _REPRS]
        reprs = [f"{chr(c & 0xFF)}{v!r}" for v, c in zip(x[batch].tolist(), first[batch].tolist())]
        text[batch] = np.array(reprs, dtype=f"S{4 * nrows}").view("<u4").reshape(batch.size, -1)
    piece = max(1, _PIECE // (4 * nrows))
    for a in range(0, n, piece):
        fh.write(text[a : a + piece].tobytes().translate(None, b"\0"))


def write_raw(img: GrayImage, path) -> None:
    """Write the lossless real-valued dump format (exact float64 round trip), as repr writes it."""
    img = as_image(img)
    h, w = img.shape
    flat = img.ravel()
    tables, work = _tables(), _work(min(flat.size, _CHUNK))
    size = rows = None
    with open(path, "wb") as fh:
        fh.write(f"rawgray {w} {h}\n".encode("ascii"))
        for start in range(0, flat.size, _CHUNK):
            x = flat[start : start + _CHUNK]
            if x.size != size:  # views built once per call, and again for a shorter last chunk
                size, rows = x.size, _rows(work, x.size)
            _write_chunk(fh, x, start, w, tables, work, rows)
        fh.write(b"\n")
