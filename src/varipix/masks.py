"""Two-region 6x6 pixel masks and the built-in eight-mask set.

A mask partitions a 6x6 block into region 0 and region 1. The built-in set
holds a triangular and a near-rectangular base shape, each at the four 90
degree orientations, with a 15/21 cell split between the regions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MASK_SIZE = 6
SHAPE_KINDS = ("triangular", "rectangular", "custom")
ORIENTATIONS = (0, 90, 180, 270)


class MaskError(ValueError):
    """Invalid mask geometry or metadata."""


class MaskFormatError(MaskError):
    """Malformed mask text; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, eq=False)
class Mask:
    cells: np.ndarray  # (6, 6) uint8 region bits
    shape_kind: str
    orientation: int
    id: str

    def __post_init__(self):
        cells = np.array(self.cells, dtype=np.uint8)
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)
        validate_mask(self)

    def __eq__(self, other):
        if not isinstance(other, Mask):
            return NotImplemented
        return (
            self.id == other.id
            and self.shape_kind == other.shape_kind
            and self.orientation == other.orientation
            and np.array_equal(self.cells, other.cells)
        )

    def region_sizes(self) -> tuple[int, int]:
        n0 = int(np.count_nonzero(self.cells == 0))
        return n0, self.cells.size - n0


MaskSet = tuple[Mask, ...]  # a mask set is a plain tuple of masks


def validate_mask(m: Mask) -> None:
    """Raise MaskError unless m is a well-formed two-region mask."""
    if m.cells.shape != (MASK_SIZE, MASK_SIZE):
        raise MaskError(f"mask {m.id!r}: cells must be {MASK_SIZE}x{MASK_SIZE}")
    if not np.isin(m.cells, (0, 1)).all():
        raise MaskError(f"mask {m.id!r}: cells must contain only 0 or 1")
    n0, n1 = m.region_sizes()
    if n0 == 0 or n1 == 0:
        raise MaskError(f"mask {m.id!r}: empty region")
    if m.shape_kind not in SHAPE_KINDS:
        raise MaskError(f"mask {m.id!r}: unknown shape kind {m.shape_kind!r}")
    if m.orientation not in ORIENTATIONS:
        raise MaskError(f"mask {m.id!r}: orientation must be one of {ORIENTATIONS}")


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


def _triangular_base() -> np.ndarray:
    # region 0 = strict lower-left triangle (15 cells), region 1 = rest (21)
    r, c = np.indices((MASK_SIZE, MASK_SIZE))
    return (c >= r).astype(np.uint8)


def _rectangular_base() -> np.ndarray:
    # region 0 = rows 0-1 plus the first 3 cells of row 2 (15 cells); no
    # axis-aligned 6-wide rectangle has 15 cells, so the split is offset
    cells = np.ones((MASK_SIZE, MASK_SIZE), dtype=np.uint8)
    cells[0:2, :] = 0
    cells[2, 0:3] = 0
    return cells


def rotate90(m: Mask) -> Mask:
    """Rotate a mask 90 degrees clockwise, advancing its orientation tag."""
    cells = np.rot90(m.cells, -1)
    orientation = (m.orientation + 90) % 360
    stem = m.id
    suffix = f"-{m.orientation}"
    if stem.endswith(suffix):
        stem = stem[: -len(suffix)]
    return Mask(cells, m.shape_kind, orientation, f"{stem}-{orientation}")


def builtin_masks() -> MaskSet:
    """The eight built-in masks: tri-0..270 then rect-0..270."""
    masks = []
    for stem, kind, base in (
        ("tri", "triangular", _triangular_base()),
        ("rect", "rectangular", _rectangular_base()),
    ):
        m = Mask(base, kind, 0, f"{stem}-0")
        masks.append(m)
        for _ in range(3):
            m = rotate90(m)
            masks.append(m)
    return tuple(masks)


def format_masks(maskset: MaskSet) -> str:
    """Render masks in the mask text format (see load_masks)."""
    chunks = []
    for m in maskset:
        rows = "\n".join("".join(str(int(b)) for b in row) for row in m.cells)
        chunks.append(f"mask {m.id} {m.shape_kind} {m.orientation}\n{rows}\n")
    return "\n".join(chunks)


def save_masks(maskset: MaskSet, path) -> None:
    """Write masks in the mask text format; load_masks inverts it."""
    with open(path, "w") as fh:
        fh.write(format_masks(maskset))


def load_masks(path) -> MaskSet:
    """Parse the mask text format into a tuple of validated masks.

    Format: one `mask <id> <shape_kind> <orientation>` header line followed
    by 6 lines of 6 characters from {0,1}; blank line between masks; lines
    starting with '#' are comments.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()

    masks = []
    i = 0
    n = len(lines)
    while i < n:
        raw = lines[i]
        if not raw.strip() or raw.lstrip().startswith("#"):
            i += 1
            continue
        parts = raw.split()
        if parts[0] != "mask" or len(parts) != 4:
            raise MaskFormatError(f"expected 'mask <id> <kind> <orientation>', got {raw!r}", i + 1)
        mask_id, kind = parts[1], parts[2]
        try:
            orientation = int(parts[3])
        except ValueError:
            raise MaskFormatError(f"orientation is not an integer: {parts[3]!r}", i + 1) from None
        header_line = i + 1
        i += 1
        grid = []
        while len(grid) < MASK_SIZE:
            if i >= n or not lines[i].strip():
                raise MaskFormatError(
                    f"mask {mask_id!r}: grid ended after {len(grid)} of {MASK_SIZE} rows", i
                )
            row = lines[i].strip()
            if row.startswith("#"):
                i += 1
                continue
            if len(row) != MASK_SIZE or any(ch not in "01" for ch in row):
                raise MaskFormatError(
                    f"mask {mask_id!r}: expected {MASK_SIZE} characters from {{0,1}}, got {row!r}",
                    i + 1,
                )
            grid.append([int(ch) for ch in row])
            i += 1
        try:
            masks.append(Mask(np.array(grid, dtype=np.uint8), kind, orientation, mask_id))
        except MaskError as exc:
            raise MaskFormatError(str(exc), header_line) from None

    if not masks:
        raise MaskFormatError("no masks found in file")
    return tuple(masks)
