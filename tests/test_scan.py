"""The square scan and the fused scan: on one 6x6 block and on whole images of any shape."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varipix import (
    Mask,
    adaptive_filter,
    block_labels,
    builtin_masks,
    load_masks,
    scan_parallel_fused,
    scan_square,
)
from varipix.scan import BLOCK, CRITERIA, DEFAULT_CRITERION, _from_planes, _pairwise, _to_planes

from .conftest import random_image
from .reference import (
    loop_select_apply,
    naive_block_labels,
    naive_region_apply,
    naive_select_mask,
    naive_square_error,
)

# region 0 is row 0 plus four cells of row 1 (a 10/26 split); the second
# mask is its complement, so the two tie exactly on every block
UNEQUAL_MASKS = """\
mask ten custom 0
000000
000011
111111
111111
111111
111111

mask ten-inv custom 0
111111
111100
000000
000000
000000
000000

mask tri custom 0
111111
011111
001111
000111
000011
000001
"""


def scan_block(block, maskset, criterion=DEFAULT_CRITERION):
    """A 6x6 image is one block of the fused scan: (chosen mask index, output block)."""
    result = scan_parallel_fused(block, maskset, criterion)
    return int(result.chosen_masks[0, 0]), result.image


def apply_mask(block, m):
    """One mask's two-region rebuild of a block, and its recon error."""
    _, out = scan_block(block, (m,))
    return out, float(((block - out) ** 2).sum())


def asym_gradient_block():
    # no symmetry between any two builtin partitions, so winners are robust
    r, c = np.indices((BLOCK, BLOCK))
    return 7.0 * r + 3.0 * c + 0.25 * r * c


def test_pad_512_to_516(masks):
    img = np.arange(512 * 512, dtype=np.float64).reshape(512, 512)
    planes, shape = _to_planes(img)
    assert shape == (512, 512)
    assert planes.shape == (BLOCK * BLOCK, 86 * 86)
    assert planes.flags.c_contiguous
    padded = _from_planes(planes, (516, 516))
    assert np.array_equal(padded[:512, :512], img)
    # replicated edges repeat the last row/column
    for extra in range(512, 516):
        assert np.array_equal(padded[extra, :512], img[511])
        assert np.array_equal(padded[:512, extra], img[:, 511])
    assert np.all(padded[512:, 512:] == img[511, 511])
    assert np.array_equal(_from_planes(planes, shape), img)
    result = scan_parallel_fused(img, masks)
    assert result.image.shape == result.labels.shape == (512, 512)
    assert result.chosen_masks.shape == (86, 86)


def test_pad_multiple_is_identity(rng):
    img = random_image(rng, 510, 510)
    planes, shape = _to_planes(img)
    assert shape == (510, 510)
    assert planes.shape == (BLOCK * BLOCK, 85 * 85)
    assert planes.flags.c_contiguous
    # no padded samples: each column is one block of img, blocks row-major;
    # each row is one cell of every block, cells row-major
    assert np.array_equal(planes[:, 0], img[:6, :6].ravel())
    assert np.array_equal(planes[:, 1], img[:6, 6:12].ravel())
    assert np.array_equal(planes[:, 85], img[6:12, :6].ravel())
    assert np.array_equal(planes[:, -1], img[504:, 504:].ravel())
    assert np.array_equal(planes[7], img[1::6, 1::6].ravel())
    assert np.array_equal(_from_planes(planes, shape), img)


def edge_pad(img):
    """img edge-replicated right and bottom up to a multiple of 6."""
    h, w = img.shape
    return np.pad(img, ((0, -h % BLOCK), (0, -w % BLOCK)), mode="edge")


@pytest.mark.parametrize("integer_valued", [False, True])
def test_scans_of_any_shape_equal_scanning_the_edge_padded_image_and_cropping(masks, integer_valued):
    rng = np.random.default_rng(6)
    for h in range(1, 21):
        for w in range(1, 21):
            img = rng.random((h, w)) * 255.0
            if integer_valued:
                img = np.floor(img)
            padded = edge_pad(img)
            square = scan_square(img)
            assert square.shape == (h, w)
            assert np.array_equal(square, scan_square(padded)[:h, :w])
            for criterion in CRITERIA:
                got = scan_parallel_fused(img, masks, criterion)
                want = scan_parallel_fused(padded, masks, criterion)
                assert got.image.shape == got.labels.shape == (h, w)
                assert got.labels.dtype == np.uint8
                assert got.chosen_masks.shape == (-(-h // BLOCK), -(-w // BLOCK))
                assert np.array_equal(got.image, want.image[:h, :w])
                assert np.array_equal(got.labels, want.labels[:h, :w])
                assert np.array_equal(got.chosen_masks, want.chosen_masks)


def test_scans_reject_non_finite_samples(masks):
    img = np.zeros((6, 6))
    img[2, 3] = np.nan
    for scan in (scan_square, lambda a: scan_parallel_fused(a, masks)):
        with pytest.raises(ValueError, match="non-finite"):
            scan(img)


def test_apply_mask_constant_block_is_fixed_point(masks):
    block = np.full((6, 6), 93.0)
    for m in masks:
        out, err = apply_mask(block, m)
        assert np.array_equal(out, block)
        assert err == 0.0


def test_apply_mask_two_level_block_is_fixed_point(masks):
    m = masks[0]
    block = np.where(m.cells == 0, 10.0, 200.0)
    out, err = apply_mask(block, m)
    assert np.array_equal(out, block)
    assert err == 0.0


def test_apply_mask_matches_naive_oracle(masks, rng):
    for _ in range(5):
        block = random_image(rng, 6, 6)
        for m in masks:
            out, err = apply_mask(block, m)
            ref_out, ref_err = naive_region_apply(block, m.cells)
            np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-9)
            assert err == pytest.approx(ref_err, abs=1e-6)


def test_apply_mask_output_piecewise_constant(masks, rng):
    block = random_image(rng, 6, 6)
    for m in masks:
        out, _ = apply_mask(block, m)
        assert len(np.unique(out[m.cells == 0])) == 1
        assert len(np.unique(out[m.cells == 1])) == 1


def test_select_constant_block_ties_to_lowest_index(masks):
    block = np.full((6, 6), 42.0)
    index, out = scan_block(block, masks)
    assert index == 0
    assert np.array_equal(out, block)  # zero recon error
    index, _ = scan_block(block, masks, criterion="mean-diff")
    assert index == 0


def test_select_finds_exact_partition_match(masks):
    for i, m in enumerate(masks):
        block = np.where(m.cells == 0, 0.0, 255.0)
        index, out = scan_block(block, masks)
        assert index == i
        assert np.array_equal(out, block)  # zero recon error


def test_select_matches_exhaustive_oracle_on_gradient(masks):
    block = asym_gradient_block()
    for criterion in ("recon-error", "mean-diff"):
        index, out = scan_block(block, masks, criterion=criterion)
        ref_index, ref_score = naive_select_mask(block, masks, criterion=criterion)
        assert index == ref_index
        cells = masks[index].cells
        got = ((block - out) ** 2).sum() if criterion == "recon-error" else abs(out[cells == 0][0] - out[cells == 1][0])
        assert got == pytest.approx(ref_score, rel=1e-12)


def test_select_matches_exhaustive_oracle_on_random_blocks(masks, rng):
    for _ in range(20):
        block = random_image(rng, 6, 6)
        for criterion in ("recon-error", "mean-diff"):
            index, _ = scan_block(block, masks, criterion=criterion)
            ref_index, _ = naive_select_mask(block, masks, criterion=criterion)
            assert index == ref_index


def test_select_rejects_bad_criterion(masks):
    with pytest.raises(ValueError, match="criterion"):
        scan_parallel_fused(np.zeros((6, 6)), masks, criterion="psnr")


def test_scan_square_constant_image():
    img = np.full((12, 12), 7.0)
    assert np.array_equal(scan_square(img), img)


def test_scan_square_block_means():
    img = np.zeros((6, 12))
    img[:, 6:] = 200.0
    img[:3, :6] = 0.0
    img[3:, :6] = 200.0
    out = scan_square(img)
    assert np.all(out[:, :6] == 100.0)
    assert np.all(out[:, 6:] == 200.0)


def test_scan_square_checker_block_mean():
    r, c = np.indices((6, 6))
    img = np.where((r + c) % 2 == 0, 0.0, 255.0)
    # 18 zeros and 18 full-scale cells average to 127.5
    expected = (18 * 0.0 + 18 * 255.0) / 36
    assert np.all(scan_square(img) == expected)


def test_scan_square_matches_naive_means(rng):
    img = random_image(rng, 18, 24)
    out = scan_square(img)
    for br in range(3):
        for bc in range(4):
            block = img[br * 6 : br * 6 + 6, bc * 6 : bc * 6 + 6]
            mean, _ = naive_square_error(block)
            got = out[br * 6, bc * 6]
            assert got == pytest.approx(mean, abs=1e-9)
            assert np.all(out[br * 6 : br * 6 + 6, bc * 6 : bc * 6 + 6] == got)


def test_scan_uniform_labels_tile_the_mask(masks, rng):
    img = random_image(rng, 12, 18)
    m = masks[3]
    result = scan_parallel_fused(img, (m,))
    assert result.chosen_masks.shape == (2, 3)
    assert np.all(result.chosen_masks == 0)
    for br in range(2):
        for bc in range(3):
            tile = result.labels[br * 6 : br * 6 + 6, bc * 6 : bc * 6 + 6]
            assert np.array_equal(tile, m.cells.astype(np.int64))


def test_scan_uniform_single_block_equals_apply(masks, rng):
    block = random_image(rng, 6, 6)
    for m in masks:
        out, _ = apply_mask(block, m)
        _, loop_out = loop_select_apply(block, (m,))
        assert np.array_equal(out, loop_out)


def test_uniform_scans_disagree_on_textured_image(masks, rng):
    img = random_image(rng, 6, 6)
    outputs = [scan_parallel_fused(img, (m,)).image for m in masks]
    for i in range(len(outputs)):
        for j in range(i + 1, len(outputs)):
            assert not np.array_equal(outputs[i], outputs[j])


def test_fused_constant_image(masks):
    img = np.full((12, 6), 55.0)
    result = scan_parallel_fused(img, masks)
    assert np.array_equal(result.image, img)
    assert np.all(result.chosen_masks == 0)
    assert np.array_equal(
        result.labels, np.tile(masks[0].cells.astype(np.int64), (2, 1))
    )


def test_fused_recovers_exact_partition_blocks(masks):
    # every block drawn from one mask's partition; fused must choose it
    img = np.zeros((12, 24))
    want = np.array([[6, 1], [4, 7]])
    for br in range(2):
        for bc in range(4):
            if bc < 2:
                m = masks[int(want[br, bc])]
                img[br * 6 : br * 6 + 6, bc * 6 : bc * 6 + 6] = np.where(
                    m.cells == 0, 30.0, 210.0
                )
            else:
                img[br * 6 : br * 6 + 6, bc * 6 : bc * 6 + 6] = 99.0
    result = scan_parallel_fused(img, masks)
    assert np.array_equal(result.image, img)
    assert np.array_equal(result.chosen_masks[:, :2], want)
    assert np.all(result.chosen_masks[:, 2:] == 0)


def test_fused_equals_direct_per_block_selection(masks, rng):
    img = random_image(rng, 30, 36)
    for criterion in ("recon-error", "mean-diff"):
        result = scan_parallel_fused(img, masks, criterion=criterion)
        for br in range(5):
            for bc in range(6):
                block = img[br * 6 : br * 6 + 6, bc * 6 : bc * 6 + 6]
                index, out = scan_block(block, masks, criterion=criterion)
                assert result.chosen_masks[br, bc] == index
                got = result.image[br * 6 : br * 6 + 6, bc * 6 : bc * 6 + 6]
                assert np.array_equal(got, out)
                bits = result.labels[br * 6 : br * 6 + 6, bc * 6 : bc * 6 + 6]
                assert np.array_equal(bits, masks[index].cells.astype(np.int64))


def naive_score(block, m, criterion):
    out, err = naive_region_apply(block, m.cells)
    if criterion == "recon-error":
        return err
    return abs(out[m.cells == 0][0] - out[m.cells == 1][0])


def assert_fused_matches_per_block(img, maskset, criterion):
    """The fused scan against three per-block paths, block by block.

    The scan of the block alone and the numpy loop reference must agree bit for bit;
    the naive oracle sums in another order, so its pick may differ only
    where the two scores are equal up to rounding and nonzero.
    """
    result = scan_parallel_fused(img, maskset, criterion)
    for br in range(img.shape[0] // BLOCK):
        for bc in range(img.shape[1] // BLOCK):
            tile = np.s_[br * BLOCK : br * BLOCK + BLOCK, bc * BLOCK : bc * BLOCK + BLOCK]
            block = img[tile]
            index, out = scan_block(block, maskset, criterion)
            loop_index, loop_out = loop_select_apply(block, maskset, criterion)
            assert result.chosen_masks[br, bc] == index == loop_index
            assert np.array_equal(result.image[tile], out)
            assert np.array_equal(out, loop_out)
            assert np.array_equal(result.labels[tile], maskset[index].cells)
            naive_index, naive_best = naive_select_mask(block, maskset, criterion)
            if index != naive_index:
                chosen = naive_score(block, maskset[index], criterion)
                assert naive_best > 0
                assert abs(chosen - naive_best) <= 1e-9 * naive_best


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**32 - 1), st.sampled_from(CRITERIA)
)
@example(h=6, w=6, seed=1, criterion="recon-error")
@example(h=6, w=6, seed=1, criterion="mean-diff")
@example(h=6, w=48, seed=2, criterion="recon-error")
@example(h=48, w=6, seed=3, criterion="mean-diff")
@example(h=13, w=29, seed=4, criterion="recon-error")
def test_fused_matches_per_block_paths_property(h, w, seed, criterion):
    # random floats make every region mean round: a reduction in another
    # order than the loop reference shows up here in the last ulp
    img = np.random.default_rng(seed).random((h, w)) * 255.0
    assert_fused_matches_per_block(edge_pad(img), builtin_masks(), criterion)


def test_unequal_split_mask_file(tmp_path, rng):
    path = tmp_path / "masks.txt"
    path.write_text(UNEQUAL_MASKS)
    maskset = load_masks(path)
    assert [m.region_sizes() for m in maskset] == [(10, 26), (26, 10), (15, 21)]
    img = random_image(rng, 24, 30)
    for criterion in CRITERIA:
        assert_fused_matches_per_block(img, maskset, criterion)
        # the complement ties mask 0 exactly, so it can never win
        assert not np.any(scan_parallel_fused(img, maskset, criterion).chosen_masks == 1)
        flat = scan_parallel_fused(np.full((12, 18), 77.0), maskset, criterion)
        assert np.all(flat.chosen_masks == 0)
    # two-level blocks on mask 0's partition: masks 0 and 1 both reach zero error
    img = np.tile(np.where(maskset[0].cells == 0, 20.0, 180.0), (2, 3))
    result = scan_parallel_fused(img, maskset)
    assert np.all(result.chosen_masks == 0)
    assert np.array_equal(result.image, img)


def mixed_magnitudes(rng, *shape):
    """Samples of both signs with magnitudes from 1e-8 to 1e8."""
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)


def test_pairwise_sum_is_numpys_contiguous_row_sum_bit_for_bit():
    # the region sums and recon errors rest on this order; a numpy that
    # reduces a contiguous row in another order shows up here first
    rng = np.random.default_rng(15)
    for n in range(1, 129):
        zeros = np.vstack([np.full((1, n), -0.0), np.zeros((1, n)), rng.choice([-0.0, 0.0], (4, n))])
        rows = np.vstack([mixed_magnitudes(rng, 40, n), zeros])
        planes = np.ascontiguousarray(rows.T)  # plane i holds term i of every row
        kept = planes.copy()
        got = _pairwise(planes, n)
        assert got.tobytes() == rows.sum(axis=-1).tobytes(), n
        assert not np.signbit(got[40]), n  # -0.0 terms only sum to +0.0
        assert planes.tobytes() == kept.tobytes()  # the terms are only read


def lopsided_masks():
    """One mask per region-0 size, down to a single cell and up to all cells but one."""
    order = np.random.default_rng(9).permutation(BLOCK * BLOCK)
    masks = []
    for n0 in (1, 2, 5, 7, 8, 9, 17, 29, 35):
        cells = np.ones(BLOCK * BLOCK, dtype=np.uint8)
        cells[order[:n0]] = 0
        masks.append(Mask(cells.reshape(BLOCK, BLOCK), "custom", 0, f"region0-{n0}"))
    return tuple(masks)


@pytest.mark.parametrize("criterion", CRITERIA)
def test_small_and_lopsided_regions_match_the_loop_reference_bit_for_bit(criterion):
    maskset = lopsided_masks()
    assert [m.region_sizes()[0] for m in maskset] == [1, 2, 5, 7, 8, 9, 17, 29, 35]
    rng = np.random.default_rng(10)
    images = (random_image(rng, 24, 30), mixed_magnitudes(rng, 24, 30), np.full((24, 30), -0.0))
    for img in images:
        result = scan_parallel_fused(img, maskset, criterion)
        for br in range(img.shape[0] // BLOCK):
            for bc in range(img.shape[1] // BLOCK):
                tile = np.s_[br * BLOCK : br * BLOCK + BLOCK, bc * BLOCK : bc * BLOCK + BLOCK]
                index, out = loop_select_apply(img[tile], maskset, criterion)
                assert result.chosen_masks[br, bc] == index
                assert result.image[tile].tobytes() == out.tobytes()
                assert np.array_equal(result.labels[tile], maskset[index].cells)


@pytest.mark.parametrize("criterion", CRITERIA)
def test_a_nan_score_wins_as_argmin_picks_it(masks, criterion):
    # Finite samples near the float64 limit overflow region sums to inf, so
    # some masks score nan: argmin takes the first nan, else the first of the
    # smallest, and the winner kept while scoring must agree.
    rng = np.random.default_rng(3)
    img = rng.choice([1.7e308, -1.7e308, 1e308, 3.0, 0.0], (60, 60))
    with np.errstate(all="ignore"):
        result = scan_parallel_fused(img, masks, criterion)
        nan_wins = 0
        for br in range(10):
            for bc in range(10):
                block = img[br * BLOCK : br * BLOCK + BLOCK, bc * BLOCK : bc * BLOCK + BLOCK]
                scores = []
                for m in masks:
                    region0 = m.cells == 0
                    m0, m1 = block[region0].mean(), block[~region0].mean()
                    out = np.where(region0, m0, m1)
                    scores.append(((block - out) ** 2).sum() if criterion == "recon-error" else abs(m0 - m1))
                want = int(np.argmin(scores))
                assert result.chosen_masks[br, bc] == want, (br, bc, scores)
                nan_wins += bool(np.isnan(scores[want]) and want > 0 and not np.isnan(scores[0]))
    assert nan_wins > 0  # the case this test is for


def test_fused_scan_memory_is_the_planes_and_its_image():
    # In image sizes: the plane tensor (1.01 at 509x512) while the masks are
    # scored, with one mask's accumulators and the winners kept so far; it is
    # freed before the image (1) is built from the winning bits and means.
    # What the call leaves traced is the interpreter's bookkeeping (blocks of
    # obmalloc's arena map), not counted.
    masks = builtin_masks()
    img = np.random.default_rng(24).random((509, 512)) * 255.0
    scan_parallel_fused(img[:64, :64], masks)
    tracemalloc.start()
    try:
        scan_parallel_fused(img, masks)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert left < 0.5 * img.nbytes, left / img.nbytes
    assert peak - left <= 1.7 * img.nbytes, (peak - left) / img.nbytes


def test_negative_zero_image_scans_to_positive_zero():
    img = np.full((13, 29), -0.0)
    zeros = np.zeros(img.shape).tobytes()
    assert scan_square(img).tobytes() == zeros
    for maskset in (builtin_masks(), lopsided_masks()):
        for criterion in CRITERIA:
            assert scan_parallel_fused(img, maskset, criterion).image.tobytes() == zeros


def test_fused_never_beaten_by_square(masks, rng):
    img = random_image(rng, 36, 36)
    result = scan_parallel_fused(img, masks)
    for br in range(6):
        for bc in range(6):
            block = img[br * 6 : br * 6 + 6, bc * 6 : bc * 6 + 6]
            got = result.image[br * 6 : br * 6 + 6, bc * 6 : bc * 6 + 6]
            variable_err = float(((block - got) ** 2).sum())
            _, square_err = naive_square_error(block)
            assert variable_err <= square_err


def test_fused_preserves_block_means(masks, rng):
    img = random_image(rng, 24, 24)
    result = scan_parallel_fused(img, masks)
    for br in range(4):
        for bc in range(4):
            block = img[br * 6 : br * 6 + 6, bc * 6 : bc * 6 + 6]
            got = result.image[br * 6 : br * 6 + 6, bc * 6 : bc * 6 + 6]
            assert abs(got.mean() - block.mean()) <= 1e-9


def test_fused_scan_is_idempotent_under_recon_error(masks, rng):
    # piecewise-constant blocks are fixed points; re-averaging a constant
    # region can round in the last ulp, hence the tight tolerance
    img = random_image(rng, 24, 30)
    first = scan_parallel_fused(img, masks)
    second = scan_parallel_fused(first.image, masks)
    np.testing.assert_allclose(second.image, first.image, rtol=0, atol=1e-9)
    assert np.array_equal(second.chosen_masks, first.chosen_masks)
    assert np.array_equal(second.labels, first.labels)


def test_fused_rejects_empty_mask_set(masks):
    with pytest.raises(ValueError, match="empty mask set"):
        scan_parallel_fused(np.zeros((6, 6)), ())


def test_block_labels_formula():
    labels = np.zeros((8, 14), dtype=np.int64)
    labels[0, 6] = 1
    scoped = block_labels(labels)
    assert np.array_equal(scoped, naive_block_labels(labels))
    # 14 columns span ceil(14/6) = 3 blocks per row
    assert scoped[0, 0] == 0
    assert scoped[0, 6] == 3
    assert scoped[0, 12] == 4
    assert scoped[6, 0] == 6
    assert scoped[7, 13] == 10


@pytest.mark.parametrize("blocks, dtype", [(1, np.uint8), (128, np.uint8), (129, np.uint16), (32769, np.uint32)])
def test_block_labels_take_the_narrowest_unsigned_dtype(blocks, dtype):
    labels = np.ones((1, BLOCK * blocks), dtype=np.uint8)
    scoped = block_labels(labels)
    assert scoped.dtype == dtype
    assert int(scoped[0, -1]) == 2 * blocks - 1
    assert np.array_equal(scoped, naive_block_labels(labels.astype(np.int64)))


def test_block_labels_rejects_non_bits(rng):
    labels = np.zeros((6, 12), dtype=np.int64)
    labels[0, 0] = 2  # would alias block 1's bit 0
    with pytest.raises(ValueError, match="region bits"):
        block_labels(labels)
    with pytest.raises(ValueError, match="region bits"):
        adaptive_filter(random_image(rng, 6, 12), labels, 3, mode="block")


def test_block_labels_commutes_with_cropping(masks, rng):
    img = random_image(rng, 20, 26)
    scoped_then_cropped = block_labels(scan_parallel_fused(edge_pad(img), masks).labels)[:20, :26]
    cropped_then_scoped = block_labels(scan_parallel_fused(img, masks).labels)
    assert np.array_equal(scoped_then_cropped, cropped_then_scoped)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_variable_recon_never_worse_than_square_property(seed):
    masks = builtin_masks()
    block = np.random.default_rng(seed).random((6, 6)) * 255.0
    index, out = scan_block(block, masks)
    err = float(((block - out) ** 2).sum())
    _, square_err = naive_square_error(block)
    assert err <= square_err + 1e-9
    ref_out, ref_err = naive_region_apply(block, masks[index].cells)
    assert err == pytest.approx(ref_err, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_scan_mean_preservation_property(seed):
    masks = builtin_masks()
    block = np.random.default_rng(seed).random((6, 6)) * 255.0
    for m in masks:
        out, _ = apply_mask(block, m)
        assert out.mean() == pytest.approx(block.mean(), abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_recon_error_is_sse_minus_region_contrast_property(seed):
    # SSE = recon error + n0*n1/36*(m0-m1)^2; with every builtin mask split
    # 15/21, minimizing recon error maximizes the contrast |m0 - m1|
    masks = builtin_masks()
    assert {m.region_sizes() for m in masks} == {(15, 21)}
    block = np.random.default_rng(seed).random((6, 6)) * 255.0
    sse = float(((block - block.mean()) ** 2).sum())
    contrast = []
    for m in masks:
        n0, n1 = m.region_sizes()
        m0, m1 = block[m.cells == 0].mean(), block[m.cells == 1].mean()
        _, err = apply_mask(block, m)
        assert abs(err - (sse - n0 * n1 / 36 * (m0 - m1) ** 2)) <= 1e-9 * sse
        contrast.append(abs(m0 - m1))
    index, _ = scan_block(block, masks)
    assert contrast[index] >= max(contrast) * (1 - 1e-9)
