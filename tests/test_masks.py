"""Mask geometry, rotation, and the text round trip."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varipix import Mask, builtin_masks, load_masks, rotate90, save_masks
from varipix.masks import (
    MASK_SIZE,
    MaskError,
    MaskFormatError,
    format_masks,
    region_connected,
    validate_mask,
)


def test_builtin_count_and_order(masks):
    assert len(masks) == 8
    assert [m.id for m in masks] == [
        "tri-0", "tri-90", "tri-180", "tri-270",
        "rect-0", "rect-90", "rect-180", "rect-270",
    ]
    assert [m.shape_kind for m in masks] == ["triangular"] * 4 + ["rectangular"] * 4
    assert [m.orientation for m in masks] == [0, 90, 180, 270] * 2


def test_builtin_grids_pairwise_distinct(masks):
    grids = [m.cells for m in masks]
    for i in range(len(grids)):
        for j in range(i + 1, len(grids)):
            assert not np.array_equal(grids[i], grids[j])


def test_region_sizes_fifteen_twentyone(masks):
    for m in masks:
        assert m.region_sizes() == (15, 21)


def test_both_regions_four_connected(masks):
    for m in masks:
        assert region_connected(m.cells, 0)
        assert region_connected(m.cells, 1)


def test_triangular_base_is_strict_lower_triangle(masks):
    tri = masks[0]
    for r in range(MASK_SIZE):
        for c in range(MASK_SIZE):
            expected = 0 if c < r else 1
            assert tri.cells[r, c] == expected
    assert sum(1 for r in range(6) for c in range(6) if c < r) == 15


def test_rectangular_base_is_top_band(masks):
    rect = masks[4]
    for r in range(MASK_SIZE):
        for c in range(MASK_SIZE):
            expected = 0 if (r < 2 or (r == 2 and c < 3)) else 1
            assert rect.cells[r, c] == expected


def test_rotate90_index_map(masks):
    # Clockwise rotation sends (r, c) to (c, 5 - r); checked on all 36 cells.
    for m in masks[:1] + masks[4:5]:
        rot = rotate90(m)
        for r in range(MASK_SIZE):
            for c in range(MASK_SIZE):
                assert rot.cells[c, MASK_SIZE - 1 - r] == m.cells[r, c]


def test_rotate90_four_times_is_identity(masks):
    for m in masks:
        rot = m
        for _ in range(4):
            rot = rotate90(rot)
        assert np.array_equal(rot.cells, m.cells)
        assert rot.orientation == m.orientation
        assert rot.id == m.id


def test_rotate90_advances_orientation_and_keeps_sizes(masks):
    m = masks[0]
    seen = []
    for _ in range(4):
        m = rotate90(m)
        seen.append(m.orientation)
        assert m.region_sizes() == (15, 21)
        assert m.shape_kind == "triangular"
    assert seen == [90, 180, 270, 0]


def test_mask_cells_are_read_only(masks):
    with pytest.raises(ValueError):
        masks[0].cells[0, 0] = 1


def test_mask_constructor_copies_input():
    grid = _valid_grid()
    m = Mask(grid, "custom", 0, "c")
    grid[0, 0] = 1 - grid[0, 0]
    assert m.cells[0, 0] == 1 - grid[0, 0]


def _valid_grid():
    grid = np.zeros((6, 6), dtype=np.uint8)
    grid[:, 3:] = 1
    return grid


def test_validate_rejects_bad_shape():
    with pytest.raises(MaskError, match="6x6"):
        Mask(np.zeros((5, 6), dtype=np.uint8), "custom", 0, "bad")


def test_validate_rejects_non_binary_cells():
    grid = _valid_grid()
    grid[0, 0] = 2
    with pytest.raises(MaskError, match="only 0 or 1"):
        Mask(grid, "custom", 0, "bad")


def test_validate_rejects_empty_region():
    with pytest.raises(MaskError, match="empty region"):
        Mask(np.zeros((6, 6), dtype=np.uint8), "custom", 0, "bad")
    with pytest.raises(MaskError, match="empty region"):
        Mask(np.ones((6, 6), dtype=np.uint8), "custom", 0, "bad")


def test_validate_rejects_unknown_kind_and_orientation():
    with pytest.raises(MaskError, match="shape kind"):
        Mask(_valid_grid(), "hexagonal", 0, "bad")
    with pytest.raises(MaskError, match="orientation"):
        Mask(_valid_grid(), "custom", 45, "bad")


def test_validate_mask_accepts_builtins(masks):
    for m in masks:
        validate_mask(m)


def test_save_load_round_trip(masks, tmp_path):
    path = tmp_path / "masks.txt"
    save_masks(masks, path)
    loaded = load_masks(path)
    assert len(loaded) == len(masks)
    for a, b in zip(loaded, masks):
        assert a == b


def test_format_contains_fifteen_zero_cells_for_tri_base(masks):
    text = format_masks((masks[0],))
    lines = text.strip().splitlines()
    assert lines[0] == "mask tri-0 triangular 0"
    assert sum(row.count("0") for row in lines[1:]) == 15
    assert sum(row.count("1") for row in lines[1:]) == 21


def test_load_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "masks.txt"
    path.write_text(
        "# leading comment\n\nmask half custom 0\n"
        + "000111\n" * 6
        + "\n# trailing comment\n"
    )
    ms = load_masks(path)
    assert len(ms) == 1
    assert ms[0].id == "half"
    assert ms[0].region_sizes() == (18, 18)


def test_load_rejects_all_one_region(tmp_path):
    path = tmp_path / "masks.txt"
    path.write_text("mask solid custom 0\n" + "000000\n" * 6)
    with pytest.raises(MaskFormatError, match="empty region"):
        load_masks(path)


def test_load_rejects_bad_grid_row_with_line_number(tmp_path):
    path = tmp_path / "masks.txt"
    path.write_text("mask bad custom 0\n000111\n00x111\n000111\n000111\n000111\n000111\n")
    with pytest.raises(MaskFormatError, match=r"line 3") as exc:
        load_masks(path)
    assert exc.value.line == 3


def test_load_rejects_short_grid(tmp_path):
    path = tmp_path / "masks.txt"
    path.write_text("mask bad custom 0\n000111\n000111\n")
    with pytest.raises(MaskFormatError, match="grid ended after 2"):
        load_masks(path)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "masks.txt"
    path.write_text("mosk bad custom 0\n")
    with pytest.raises(MaskFormatError, match="line 1"):
        load_masks(path)


def test_load_rejects_non_integer_orientation(tmp_path):
    path = tmp_path / "masks.txt"
    path.write_text("mask bad custom north\n" + "000111\n" * 6)
    with pytest.raises(MaskFormatError, match="orientation is not an integer"):
        load_masks(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "masks.txt"
    path.write_text("# nothing here\n")
    with pytest.raises(MaskFormatError, match="no masks"):
        load_masks(path)


def test_save_to_directory_raises_oserror(masks, tmp_path):
    with pytest.raises(OSError):
        save_masks(masks, tmp_path)


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_masks(tmp_path / "absent.txt")


def test_maskset_indexing_and_equality(masks):
    assert masks[0].id == "tri-0"
    assert masks == builtin_masks()
    assert masks != masks[:4]


@st.composite
def two_region_grids(draw):
    bits = draw(
        st.lists(st.integers(0, 1), min_size=36, max_size=36).filter(
            lambda b: 0 < sum(b) < 36
        )
    )
    return np.array(bits, dtype=np.uint8).reshape(6, 6)


@settings(max_examples=50, deadline=None)
@given(two_region_grids())
def test_rotation_properties_hold_for_arbitrary_masks(grid):
    m = Mask(grid, "custom", 0, "fuzz")
    rot = m
    sizes = m.region_sizes()
    for _ in range(4):
        rot = rotate90(rot)
        assert rot.region_sizes() == sizes
    assert np.array_equal(rot.cells, m.cells)
    assert rot.orientation == 0
