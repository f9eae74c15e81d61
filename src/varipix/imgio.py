"""Grayscale image and label-map I/O.

Images travel through the pipeline as 2-D float64 arrays with intensities
in [0, 255]; quantization to 8 bits happens only when writing PGM. Three
on-disk formats:

* PGM, binary P5 or ASCII P2, maxval <= 255 (read, rescaled to 0..255),
  P5 maxval 255 (write).
* Label maps: `labels <width> <height>` then <height> lines of <width>
  space-separated region bits, each 0 or 1.
* Raw dumps: `rawgray <width> <height>` then <height> lines of <width>
  finite floats written with repr, so float64 values round-trip exactly.
"""

from __future__ import annotations

import numpy as np

GrayImage = np.ndarray  # float64, shape (height, width)
LabelMap = np.ndarray  # int64, shape (height, width)


class ImageFormatError(ValueError):
    """Malformed image or label-map file."""


def as_image(data) -> GrayImage:
    """View data as a GrayImage; rejects non-2-D shapes and nan/inf samples."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("image has non-finite samples (nan or inf)")
    return arr


def _tokenize_pgm_header(buf: bytes):
    """Yield (token, next_pos) over whitespace/comment-separated header fields."""
    pos = 0
    while True:
        while pos < len(buf) and buf[pos : pos + 1].isspace():
            pos += 1
        if pos < len(buf) and buf[pos : pos + 1] == b"#":
            while pos < len(buf) and buf[pos] != ord("\n"):
                pos += 1
            continue
        if pos >= len(buf):
            raise ImageFormatError("malformed PGM header: unexpected end of file")
        start = pos
        while pos < len(buf) and not buf[pos : pos + 1].isspace():
            pos += 1
        yield buf[start:pos].decode("ascii", "replace"), pos


def read_pgm(path) -> GrayImage:
    """Read a P5 (binary) or P2 (ASCII) PGM with maxval <= 255.

    Samples are rescaled from 0..maxval to 0..255, so white is 255.0
    whatever the maxval; maxval 255 samples are returned as they are.
    """
    with open(path, "rb") as fh:
        buf = fh.read()

    fields = _tokenize_pgm_header(buf)
    magic, _ = next(fields)
    if magic not in ("P5", "P2"):
        raise ImageFormatError(f"malformed PGM header: bad magic {magic!r}")
    try:
        width, _ = next(fields)
        height, _ = next(fields)
        maxval, data_pos = next(fields)
        width, height, maxval = int(width), int(height), int(maxval)
    except ImageFormatError:
        raise
    except ValueError:
        raise ImageFormatError("malformed PGM header: non-integer dimension") from None
    if width <= 0 or height <= 0:
        raise ImageFormatError(f"malformed PGM header: bad dimensions {width}x{height}")
    if maxval > 255:
        raise ImageFormatError(f"unsupported maxval {maxval} (must be <= 255)")
    if maxval <= 0:
        raise ImageFormatError(f"malformed PGM header: bad maxval {maxval}")

    n = width * height
    if magic == "P5":
        # exactly one whitespace byte separates maxval from the raster
        data = buf[data_pos + 1 :]
        if len(data) < n:
            raise ImageFormatError(f"truncated PGM data: expected {n} bytes, got {len(data)}")
        samples = np.frombuffer(data[:n], dtype=np.uint8)
    else:
        tokens = buf[data_pos:].split()
        if len(tokens) < n:
            raise ImageFormatError(f"truncated PGM data: expected {n} samples, got {len(tokens)}")
        samples = _parse(tokens[:n], np.int64, "malformed PGM data: non-integer sample")
    if samples.max(initial=0) > maxval or samples.min(initial=0) < 0:
        raise ImageFormatError(f"malformed PGM data: sample outside [0, {maxval}]")
    img = samples.reshape(height, width).astype(np.float64)
    if maxval < 255:
        img = img * 255.0 / maxval  # onto 0..255, where noise clipping and the PSNR peak live
    return img


def quantize(img: GrayImage) -> np.ndarray:
    """Clip to [0, 255] and round half-up to uint8 (the write_pgm convention)."""
    return np.floor(np.clip(img, 0.0, 255.0) + 0.5).astype(np.uint8)


def write_pgm(img: GrayImage, path) -> None:
    """Write a binary P5 PGM; samples are clipped and rounded half-up."""
    img = as_image(img)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quantize(img).tobytes())


def _write_grid(grid: np.ndarray, path, magic: str, fmt) -> None:
    """Write `<magic> <width> <height>` then one line of fmt'd values per row."""
    h, w = grid.shape
    with open(path, "w") as fh:
        fh.write(f"{magic} {w} {h}\n")
        for row in grid:  # one row of Python scalars at a time, not the whole image
            fh.write(" ".join(map(fmt, row.tolist())))
            fh.write("\n")


def _parse(tokens, dtype, message: str) -> np.ndarray:
    """Tokens as a dtype array, rejected as `message` where int()/float() would be."""
    try:
        return np.array(tokens, dtype=dtype)
    except (ValueError, OverflowError):
        raise ImageFormatError(message) from None


def _read_grid(path, magic: str, what: str, noun: str, dtype, message: str) -> np.ndarray:
    """Inverse of _write_grid: the header, then exactly width*height values."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != magic:
            raise ImageFormatError(f"malformed {what} header")
        try:
            w, h = int(header[1]), int(header[2])
        except ValueError:
            raise ImageFormatError(f"malformed {what} header: non-integer size") from None
        tokens = fh.read().split()
    if len(tokens) != w * h:
        raise ImageFormatError(f"{what} says {w}x{h} ({w * h} {noun}) but {len(tokens)} {noun} present")
    return _parse(tokens, dtype, f"malformed {what}: {message}").reshape(h, w)


def write_labelmap(labels: LabelMap, path) -> None:
    _write_grid(np.asarray(labels).astype(np.int64, copy=False), path, "labels", str)


def read_labelmap(path) -> LabelMap:
    labels = _read_grid(path, "labels", "label map", "labels", np.int64, "non-integer label")
    if np.any((labels != 0) & (labels != 1)):
        raise ImageFormatError("malformed label map: labels must be region bits 0 or 1")
    return labels


def write_raw(img: GrayImage, path) -> None:
    """Write the lossless real-valued dump format (exact float64 round trip)."""
    _write_grid(as_image(img), path, "rawgray", repr)


def read_raw(path) -> GrayImage:
    samples = _read_grid(path, "rawgray", "raw dump", "samples", np.float64, "non-numeric sample")
    if not np.isfinite(samples).all():
        raise ImageFormatError("malformed raw dump: non-finite sample (nan or inf)")
    return samples


def read_image(path) -> GrayImage:
    """Read either format, sniffing the header (P5/P2 PGM or rawgray dump)."""
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head[:2] in (b"P5", b"P2"):
        return read_pgm(path)
    if head.startswith(b"rawgray"):
        return read_raw(path)
    raise ImageFormatError(f"unrecognized image format in {path}")
