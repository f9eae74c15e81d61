"""Box and shape-adaptive filtering against the naive per-pixel oracle."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varipix import adaptive_filter, block_labels, box_filter, filters, pipeline, write_labelmap
from varipix.filters import ADAPTIVE_MODES, STATISTICS

from .conftest import random_image, random_labels
from .reference import naive_adaptive_filter


def test_box_center_impulse():
    img = np.zeros((3, 3))
    img[1, 1] = 9.0
    out = box_filter(img, 3, statistic="mean")
    assert out[1, 1] == 1.0


def test_box_k1_is_identity(rng):
    img = random_image(rng, 10, 14)
    for statistic in ("mean", "median"):
        assert np.array_equal(box_filter(img, 1, statistic=statistic), img)


def test_box_constant_is_fixed_point():
    img = np.full((9, 9), 77.0)
    for statistic in ("mean", "median"):
        assert np.array_equal(box_filter(img, 5, statistic=statistic), img)


def test_box_mean_matches_direct_window_average(rng):
    img = random_image(rng, 12, 12)
    out = box_filter(img, 3, statistic="mean")
    # interior pixel: plain 3x3 average, accumulated row-major
    total = 0.0
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            total += img[5 + dr, 7 + dc]
    assert out[5, 7] == total / 9


def test_box_median_matches_sorted_window(rng):
    img = random_image(rng, 12, 12)
    out = box_filter(img, 5, statistic="median")
    window = sorted(img[3:8, 2:7].ravel())
    assert out[5, 4] == window[12]


def test_box_edge_replication(rng):
    img = random_image(rng, 8, 8)
    out = box_filter(img, 3, statistic="mean")
    # corner window replicates img[0,0] four times
    vals = [
        img[0, 0], img[0, 0], img[0, 1],
        img[0, 0], img[0, 0], img[0, 1],
        img[1, 0], img[1, 0], img[1, 1],
    ]
    total = 0.0
    for v in vals:
        total += v
    assert out[0, 0] == total / 9


def test_kernel_validation():
    img = np.zeros((4, 4))
    for bad in (0, -3, 2, 4, 3.0, "3", True):
        with pytest.raises(ValueError, match="odd integer"):
            box_filter(img, bad)
    with pytest.raises(ValueError, match="odd integer"):
        adaptive_filter(img, np.zeros((4, 4), dtype=np.int64), 2)


def test_statistic_validation(rng):
    img = random_image(rng, 4, 4)
    with pytest.raises(ValueError, match="statistic"):
        box_filter(img, 3, statistic="mode")
    with pytest.raises(ValueError, match="statistic"):
        adaptive_filter(img, np.zeros((4, 4), dtype=np.int64), 3, statistic="mode")


def test_adaptive_mode_validation(rng):
    img = random_image(rng, 4, 4)
    with pytest.raises(ValueError, match="adaptive mode"):
        adaptive_filter(img, np.zeros((4, 4), dtype=np.int64), 3, mode="global")


@pytest.mark.parametrize("mode", ["literal", "block"])
@pytest.mark.parametrize("bad", [1.6, np.nan])
def test_adaptive_rejects_non_integer_labels(rng, mode, bad):
    # a cast would filter 1.6 as label 1 and nan as -2**63
    img = random_image(rng, 6, 6)
    labels = np.zeros((6, 6))
    labels[2, 3] = bad
    with pytest.raises(ValueError, match="labels must be integers"):
        adaptive_filter(img, labels, 3, mode=mode)


def test_adaptive_shape_mismatch_rejected(rng):
    img = random_image(rng, 4, 4)
    with pytest.raises(ValueError, match="label map shape"):
        adaptive_filter(img, np.zeros((4, 5), dtype=np.int64), 3)


def test_adaptive_uniform_labels_equals_box_exactly(rng):
    img = random_image(rng, 18, 15)
    labels = np.zeros(img.shape, dtype=np.int64)
    for statistic in ("mean", "median"):
        for k in (1, 3, 5, 7):
            got = adaptive_filter(img, labels, k, statistic=statistic, mode="literal")
            want = box_filter(img, k, statistic=statistic)
            assert np.array_equal(got, want)


def test_adaptive_k1_is_identity(rng):
    img = random_image(rng, 10, 10)
    labels = random_labels(rng, 10, 10)
    for statistic in ("mean", "median"):
        for mode in ("literal", "block"):
            out = adaptive_filter(img, labels, 1, statistic=statistic, mode=mode)
            assert np.array_equal(out, img)


def test_adaptive_preserves_two_level_image(rng):
    # constant-per-region image with matching labels is a fixed point
    labels = np.zeros((12, 12), dtype=np.int64)
    labels[:, 6:] = 1
    img = np.where(labels == 1, 230.0, 30.0)
    for statistic in ("mean", "median"):
        for mode in ("literal", "block"):
            out = adaptive_filter(img, labels, 5, statistic=statistic, mode=mode)
            assert np.array_equal(out, img)


def test_adaptive_straddling_window_matches_oracle(rng):
    # 12x12 with a vertical region boundary; 5x5 windows straddle it
    img = random_image(rng, 12, 12)
    labels = np.zeros((12, 12), dtype=np.int64)
    labels[:, 6:] = 1
    for statistic in ("mean", "median"):
        got = adaptive_filter(img, labels, 5, statistic=statistic, mode="literal")
        want = naive_adaptive_filter(img, labels, 5, statistic, mode="literal")
        assert np.array_equal(got, want)


def test_adaptive_matches_oracle_random_labels(rng):
    img = random_image(rng, 13, 9)
    labels = random_labels(rng, 13, 9)
    for statistic in ("mean", "median"):
        for mode in ("literal", "block"):
            for k in (3, 5):
                got = adaptive_filter(img, labels, k, statistic=statistic, mode=mode)
                want = naive_adaptive_filter(img, labels, k, statistic, mode=mode)
                assert np.array_equal(got, want)


def test_block_mode_confines_candidates_to_block(rng):
    # same bit everywhere: literal mode averages across blocks, block mode
    # must not reach past the 6x6 block boundary
    img = np.zeros((6, 12))
    img[:, 6:] = 120.0
    labels = np.zeros((6, 12), dtype=np.int64)
    literal = adaptive_filter(img, labels, 5, statistic="mean", mode="literal")
    blocked = adaptive_filter(img, labels, 5, statistic="mean", mode="block")
    assert np.all(blocked[:, :6] == 0.0)
    assert np.all(blocked[:, 6:] == 120.0)
    assert np.any(literal[:, 4:8] != blocked[:, 4:8])


def test_shrinking_window_never_grows_candidates(rng):
    img = random_image(rng, 12, 12)
    labels = random_labels(rng, 12, 12)

    def counts(k):
        pad = k // 2
        lab = np.pad(labels, pad, mode="edge")
        n = np.zeros(labels.shape, dtype=np.int64)
        for dy in range(k):
            for dx in range(k):
                n += lab[dy : dy + 12, dx : dx + 12] == labels
        return n

    c1, c3, c5, c7 = counts(1), counts(3), counts(5), counts(7)
    assert np.all(c1 == 1)
    assert np.all(c3 >= c1)
    assert np.all(c5 >= c3)
    assert np.all(c7 >= c5)


def test_huge_finite_median_does_not_overflow():
    # an odd candidate count returns the middle value itself, never 0.5 * (x + x)
    img = np.full((1, 3), 1e308)
    labels = np.zeros((1, 3), dtype=np.int64)
    want = naive_adaptive_filter(img, labels, 3, "median")
    assert np.all(want == 1e308)
    assert np.array_equal(box_filter(img, 3, statistic="median"), want)
    for mode in ADAPTIVE_MODES:
        assert np.array_equal(adaptive_filter(img, labels, 3, statistic="median", mode=mode), want)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 20),
    st.integers(1, 20),
    st.sampled_from([1, 3, 5, 7, 9]),
    st.sampled_from(STATISTICS),
    st.sampled_from(ADAPTIVE_MODES),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(1, 13, 5, "median", "literal", True, 0)
@example(11, 1, 7, "mean", "block", False, 1)
@example(2, 3, 9, "median", "block", True, 2)
# one row (each shifted run is a single output row) or one column (output rows
# only 1 + 2 * (k // 2) samples apart in a run)
@example(1, 9, 3, "mean", "literal", False, 3)
@example(1, 9, 3, "mean", "block", True, 4)
@example(1, 9, 3, "median", "literal", True, 5)
@example(1, 9, 3, "median", "block", False, 6)
@example(9, 1, 3, "mean", "literal", True, 7)
@example(9, 1, 3, "mean", "block", False, 8)
@example(9, 1, 3, "median", "literal", False, 9)
@example(9, 1, 3, "median", "block", True, 10)
def test_filters_match_oracle_bit_for_bit(h, w, k, statistic, mode, integer_valued, seed):
    gen = np.random.default_rng(seed)
    img = gen.random((h, w)) * 255.0
    if integer_valued:
        img = np.floor(img / 32.0)  # eight levels, so windows hold rank ties
    labels = gen.integers(0, 2, size=(h, w), dtype=np.int64)
    got = adaptive_filter(img, labels, k, statistic=statistic, mode=mode)
    assert got.tobytes() == naive_adaptive_filter(img, labels, k, statistic, mode=mode).tobytes()
    # the box filter is the adaptive filter whose labels are all equal
    flat = np.zeros((h, w), dtype=np.int64)
    box = box_filter(img, k, statistic=statistic)
    assert box.tobytes() == naive_adaptive_filter(img, flat, k, statistic).tobytes()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 5]), st.sampled_from(["mean", "median"]))
def test_filter_output_bounded_by_input_range(seed, k, statistic):
    gen = np.random.default_rng(seed)
    img = gen.random((10, 10)) * 255.0
    labels = gen.integers(0, 2, size=(10, 10), dtype=np.int64)
    for out in (
        box_filter(img, k, statistic=statistic),
        adaptive_filter(img, labels, k, statistic=statistic),
    ):
        assert out.min() >= img.min() - 1e-9
        assert out.max() <= img.max() + 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_adaptive_mean_affine_equivariance(seed):
    gen = np.random.default_rng(seed)
    img = gen.random((9, 9)) * 255.0
    labels = gen.integers(0, 2, size=(9, 9), dtype=np.int64)
    a, b = 0.5, 20.0
    base = adaptive_filter(img, labels, 3, statistic="mean")
    shifted = adaptive_filter(a * img + b, labels, 3, statistic="mean")
    np.testing.assert_allclose(shifted, a * base + b, rtol=0, atol=1e-9)


def _all_filters(img, labels, k, statistic):
    out = {mode: adaptive_filter(img, labels, k, statistic=statistic, mode=mode) for mode in ADAPTIVE_MODES}
    out["box"] = box_filter(img, k, statistic=statistic)
    return out


@pytest.mark.parametrize("k", [1, 3, 9])
@pytest.mark.parametrize("statistic", STATISTICS)
@pytest.mark.parametrize("integer_valued", [False, True])
def test_band_height_and_worker_count_never_change_a_bit(monkeypatch, k, statistic, integer_valued):
    # 23 rows: neither the 7-row bands nor the 6x6 blocks divide it, and
    # 7-row bands cut through blocks; k = 9 reaches past a 1- or 7-row band.
    # Every band height, the single band (h + 1 rows) included, must give the oracle's bytes.
    gen = np.random.default_rng(k)
    h, w = 23, 17
    img = gen.random((h, w)) * 255.0
    if integer_valued:
        img = np.floor(img / 32.0)  # eight levels, so windows hold rank ties
    labels = gen.integers(0, 2, size=(h, w), dtype=np.int64)
    want = _oracle_filters(img, labels, k, statistic)
    for rows in (h + 1, 1, 7):
        monkeypatch.setattr(filters, "_band_rows", lambda statistic, k, w, rows=rows: rows)
        got = _all_filters(img, labels, k, statistic)
        for key, value in got.items():
            assert value.tobytes() == want[key].tobytes(), (key, rows)


def test_band_rows_floor_at_one_row_when_a_row_outgrows_the_band(monkeypatch):
    monkeypatch.setattr(filters, "_MEDIAN_BAND_SAMPLES", 8)
    monkeypatch.setattr(filters, "_MEAN_BAND_PIXELS", 8)
    assert filters._band_rows("median", 3, 17) == filters._band_rows("mean", 3, 17) == 1
    gen = np.random.default_rng(5)
    img = gen.random((11, 17)) * 255.0
    labels = gen.integers(0, 2, size=(11, 17), dtype=np.int64)
    for statistic in STATISTICS:
        got = _all_filters(img, labels, 3, statistic)
        assert got["box"].tobytes() == naive_adaptive_filter(img, np.zeros_like(labels), 3, statistic).tobytes()
        for mode in ADAPTIVE_MODES:
            assert got[mode].tobytes() == naive_adaptive_filter(img, labels, 3, statistic, mode=mode).tobytes()


def _filter_on_threads(workers, img, labels, statistic, mode):
    """The same k = 7 filter call as `workers` pipeline tasks, one per thread at once."""

    def task(i):
        if mode is None:
            return box_filter(img, 7, statistic=statistic)
        return adaptive_filter(img, labels, 7, statistic=statistic, mode=mode)

    pipeline._run_tasks(task, list(range(workers)), workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_median_memory_is_bounded_by_the_band(workers):
    # A whole-image k = 7 window stack of float64 samples would be
    # 49 * 240 * 240 * 8 bytes (~22.6 MB); the banded median holds one band's
    # uint32 key stack (0.80 MB) per filtering thread, with the column array
    # it is gathered from (7 keys per halo pixel, 0.12 MB) while the stack is
    # built, so two filters at once (the pipeline's calling thread and a
    # helper) stay under the same quarter of one whole-image stack.
    gen = np.random.default_rng(3)
    img = gen.random((240, 240)) * 255.0
    labels = gen.integers(0, 2, size=(240, 240), dtype=np.int64)
    bound = 49 * 240 * 240 * 8 / 4
    for mode in (None, *ADAPTIVE_MODES):
        tracemalloc.start()
        try:
            _filter_on_threads(workers, img, labels, "median", mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (mode, peak)


@pytest.mark.parametrize("workers", [1, 2])
def test_mean_memory_is_bounded_by_the_band(workers):
    # A mean without bands would hold about 4.8 image sizes at k = 7; the
    # banded mean holds the output and one band's runs, accumulator and scratch,
    # under 2.5 image sizes on each thread that filters at once.
    gen = np.random.default_rng(3)
    img = gen.random((600, 600)) * 255.0
    labels = gen.integers(0, 2, size=(600, 600), dtype=np.int64)
    bound = 2.5 * img.nbytes * workers
    for mode in (None, *ADAPTIVE_MODES):
        tracemalloc.start()
        try:
            _filter_on_threads(workers, img, labels, "mean", mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (mode, peak / img.nbytes)


@pytest.mark.parametrize("mode", ADAPTIVE_MODES)
def test_adaptive_rejects_labels_other_than_region_bits(rng, mode):
    # literal mode compares labels as uint8 bits, so a 2 or a 2**32 must not reach it
    img = random_image(rng, 6, 12)
    cases = [(bad, np.int64) for bad in (-1, 2, 255, 2**32)] + [(2, np.uint8)]
    for bad, dtype in cases:
        labels = np.zeros(img.shape, dtype=dtype)
        labels[3, 7] = bad
        with pytest.raises(ValueError, match="region bits 0 or 1"):
            adaptive_filter(img, labels, 3, mode=mode)


@pytest.mark.parametrize("shape", [(0, 3), (5,), (2, 3, 4)])
def test_label_maps_that_are_not_2d_with_samples_are_rejected(rng, tmp_path, shape):
    labels = np.zeros(shape, dtype=np.int64)
    with pytest.raises(ValueError, match="labels must be 2-D with samples"):
        block_labels(labels)
    with pytest.raises(ValueError, match="labels must be 2-D with samples"):
        write_labelmap(labels, tmp_path / "l.txt")
    assert not (tmp_path / "l.txt").exists()
    for mode in ADAPTIVE_MODES:
        with pytest.raises(ValueError, match="labels must be 2-D with samples"):
            adaptive_filter(random_image(rng, 4, 4), labels, 3, mode=mode)


@pytest.mark.parametrize("statistic", STATISTICS)
def test_block_labels_past_eight_bits_match_oracle_bit_for_bit(statistic):
    # 3 x 134 blocks: block-mode labels reach 803, so they compare as uint16
    gen = np.random.default_rng(17)
    img = gen.random((13, 800)) * 255.0
    labels = gen.integers(0, 2, size=img.shape, dtype=np.int64)
    got = adaptive_filter(img, labels, 3, statistic=statistic, mode="block")
    assert got.tobytes() == naive_adaptive_filter(img, labels, 3, statistic, mode="block").tobytes()


@pytest.mark.parametrize("statistic", STATISTICS)
@pytest.mark.parametrize("mode", ADAPTIVE_MODES)
def test_k17_counts_past_255_candidates_match_oracle_bit_for_bit(statistic, mode):
    # 289 window pixels: a uint8 count would wrap, a narrower one than uint16 is wrong
    gen = np.random.default_rng(289)
    img = gen.random((19, 20)) * 255.0
    labels = (gen.random(img.shape) < 0.05).astype(np.int64)
    got = adaptive_filter(img, labels, 17, statistic=statistic, mode=mode)
    assert got.tobytes() == naive_adaptive_filter(img, labels, 17, statistic, mode=mode).tobytes()
    want = naive_adaptive_filter(img, np.zeros_like(labels), 17, statistic)
    assert box_filter(img, 17, statistic=statistic).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 10))
def test_selection_network_sorts_every_zero_one_vector_at_its_ranks(n):
    # the 0-1 principle: a comparator network that sorts every 0/1 input sorts every input
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1  # all 2**n inputs, one per row
    want = np.sort(bits, axis=1)
    inputs = bits.T.astype(np.float64)  # one plane per input position
    for ranks in ((n // 2,), tuple(range(n // 2 + 1)), tuple(range(n))):
        for views in (False, True):
            planes = [p if views else p.copy() for p in inputs]
            got = filters._select(planes, ranks, views=views)
            for r, plane in zip(ranks, got):
                assert np.array_equal(plane, want[:, r]), (n, ranks, r, views)
        # planes given as views are only read
        assert np.array_equal(inputs, bits.T)


def test_selection_networks_are_pruned_to_their_ranks():
    # min/max operations per plane at n = 9, 25, 49: the middle rank, then ranks 0..n//2
    def passes(n, ranks):
        return sum(lo + hi for _, _, lo, hi in filters._selection_network(n, ranks))

    ops = {n: [passes(n, (n // 2,)), passes(n, tuple(range(n // 2 + 1)))] for n in (9, 25, 49)}
    assert ops == {9: [40, 46], 25: [202, 236], 49: [590, 680]}


def test_zero_medians_are_positive_zero_and_equal_the_oracle():
    # Which of the tied zeros the key sort or the network picks is not defined
    # (the argsort ranks -0.0 and 0.0 in either order), so the median writes
    # every zero as +0.0; the oracle's stable sort may give -0.0.
    gen = np.random.default_rng(0)
    for _ in range(100):
        img = gen.choice(np.array([-1.0, -0.0, 0.0, 1.0]), size=(7, 9))
        labels = gen.integers(0, 2, size=img.shape, dtype=np.int64)
        for k in (3, 5, 7):
            got = _all_filters(img, labels, k, "median")
            for key, value in got.items():
                if key == "box":
                    want = naive_adaptive_filter(img, np.zeros_like(labels), k, "median")
                else:
                    want = naive_adaptive_filter(img, labels, k, "median", mode=key)
                assert np.array_equal(value, want), (key, k)
                assert not np.signbit(value[value == 0.0]).any(), (key, k)


def _oracle_filters(img, labels, k, statistic):
    with np.errstate(over="ignore"):  # the oracle adds numpy scalars, which warn as a midpoint overflows
        want = {mode: naive_adaptive_filter(img, labels, k, statistic, mode=mode) for mode in ADAPTIVE_MODES}
        want["box"] = naive_adaptive_filter(img, np.zeros_like(labels), k, statistic)
    return want


def _key_median_image(gen, case, shape):
    if case == "equal runs":  # four levels: every window holds runs of tied samples
        return np.floor(gen.random(shape) * 4.0)
    # negative samples, and +-1e308, whose even midpoints overflow to +-inf as in the oracle
    return gen.choice(np.array([-1e308, -7.25, -1.0, 0.0, 0.5, 3.0, 1e308]), size=shape)


@pytest.mark.parametrize("k", [5, 7, 9])
@pytest.mark.parametrize("case", ["equal runs", "extremes"])
@pytest.mark.parametrize("band_rows", [None, 1])
@pytest.mark.parametrize("key_bits", [32, 8])
def test_key_median_matches_oracle_bit_for_bit(monkeypatch, k, case, band_rows, key_bits):
    # band_rows=1: one output row per band, so each band's argsort ranks only k rows;
    # key_bits=8 leaves no band enough bits for uint32 keys, so every band sorts uint64 keys.
    # The key stack holds output pixels only, so images narrower than the window
    # (one, two or four columns) leave it far narrower than the halo band.
    monkeypatch.setattr(filters, "_KEY_BITS", key_bits)
    if band_rows is not None:
        monkeypatch.setattr(filters, "_band_rows", lambda statistic, k, w: band_rows)
    gen = np.random.default_rng(k)
    for shape in ((17, 19), (1, 23), (23, 1), (9, 4), (40, 2)):
        img = _key_median_image(gen, case, shape)
        labels = gen.integers(0, 2, size=shape, dtype=np.int64)
        want = _oracle_filters(img, labels, k, "median")
        with np.errstate(over="raise"):  # no overflow warning from a midpoint that is not taken
            got = _all_filters(img, labels, k, "median")
        for key, value in got.items():
            assert value.tobytes() == want[key].tobytes(), (key, shape)


@pytest.mark.parametrize("k", [5, 7, 9])
@pytest.mark.parametrize("shape", [(1, 1), (1, 23), (3, 2), (12, 30)])
@pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
def test_key_stack_rows_hold_each_output_pixels_window_keys(k, shape, dtype):
    # The two-step gather lists a window's keys column by column, the run
    # stack row by row: the same keys, one row per output pixel and no row
    # for the k - 1 halo columns that _run_stack computes and drops.
    rows, w = shape
    width = w + k - 1
    gen = np.random.default_rng(rows * 100 + w + k)
    keys = gen.permutation((rows + k - 1) * width).astype(dtype).reshape(rows + k - 1, width)
    stack = filters._key_stack(keys, k, w)
    assert stack.shape == (rows * w, k * k) and stack.dtype == keys.dtype
    runs = filters._run_stack(keys, k).reshape(k * k, -1)
    for y, x in np.ndindex(rows, w):
        assert np.array_equal(np.sort(stack[y * w + x]), np.sort(runs[:, y * width + x])), (y, x)


@pytest.mark.parametrize("choices", [(0, 5, 2**31 - 1, 2**31), (2**31 - 1, 2**31)])
def test_key_median_of_wide_labels_matches_oracle_bit_for_bit(choices):
    # Labels 0 to 2**31 span 32 bits, so with the rank bits every band needs
    # uint64 keys; labels 2**31 - 1 and 2**31 span one bit, so their keys
    # are uint32, with the label less the band's smallest. The window kernel
    # compares unsigned labels of any size.
    gen = np.random.default_rng(31)
    img = np.floor(gen.random((15, 21)) * 8.0)
    labels = gen.choice(np.array(choices, dtype=np.uint32), size=img.shape)
    for k in (5, 7):
        got = filters._window_filter(img, labels, k, "median")
        want = naive_adaptive_filter(img, labels.astype(np.int64), k, "median")
        assert got.tobytes() == want.tobytes(), k


@pytest.mark.parametrize("k", [5, 7])
def test_block_labels_past_sixteen_bits_match_oracle_bit_for_bit(k):
    # 182 x 182 blocks: block-mode labels reach 66247, so they compare as
    # uint32. Candidates never leave the anchor's block, and the crop is cut
    # at block edges and shares the image's bottom and right edges, so the
    # crop's oracle holds for every pixel whose window stays inside the crop.
    gen = np.random.default_rng(16 + k)
    img = np.floor(gen.random((1092, 1092)) * 16.0)
    labels = gen.integers(0, 2, size=img.shape, dtype=np.int64)
    assert block_labels(labels).dtype == np.uint32
    got = adaptive_filter(img, labels, k, statistic="median", mode="block")
    crop, pad = 24, k // 2
    want = naive_adaptive_filter(img[-crop:, -crop:], labels[-crop:, -crop:], k, "median", mode="block")
    assert got[-crop + pad :, -crop + pad :].tobytes() == want[pad:, pad:].tobytes()


def test_adaptive_mean_of_negative_input_matches_oracle_bit_for_bit():
    # a non-candidate adds x * 0.0, which is -0.0 for a negative x; the sum starts at +0.0
    gen = np.random.default_rng(1)
    img = gen.choice(np.array([-2.5, -1.0, -0.0, 0.0, 3.0]), size=(10, 11))
    labels = gen.integers(0, 2, size=img.shape, dtype=np.int64)
    for mode in ADAPTIVE_MODES:
        for k in (3, 5):
            got = adaptive_filter(img, labels, k, statistic="mean", mode=mode)
            assert got.tobytes() == naive_adaptive_filter(img, labels, k, "mean", mode=mode).tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 3), (17, 12), (40, 33)])
@pytest.mark.parametrize("pad", [0, 1, 2, 3, 8])
def test_halo_equals_np_pad_edge(shape, pad):
    gen = np.random.default_rng(shape[0] * 100 + shape[1])
    h = shape[0]
    for a in (gen.random(shape), gen.integers(0, 300, size=shape, dtype=np.uint16)):
        # bands at the top and bottom edges, in the middle, one row, and the whole image
        for top, bottom in {(0, min(5, h)), (max(h - 5, 0), h), (h // 3, h // 3 + 1), (0, h)}:
            rows = a[max(top - pad, 0) : min(bottom + pad, h)]
            widths = ((max(pad - top, 0), max(bottom + pad - h, 0)), (pad, pad))
            want = np.pad(rows, widths, mode="edge")
            got = filters._halo(a, top, bottom, pad)
            assert (got.dtype, got.shape, got.tobytes()) == (a.dtype, want.shape, want.tobytes()), (top, bottom)


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.uint16, np.int32, np.int64])
def test_labels_of_any_integer_dtype_give_the_same_bytes(dtype, tmp_path):
    gen = np.random.default_rng(23)
    img = gen.random((23, 31)) * 255.0
    bits = gen.integers(0, 2, size=img.shape, dtype=np.int64)
    labels = bits.astype(dtype)
    for mode in ADAPTIVE_MODES:
        for statistic in STATISTICS:
            want = adaptive_filter(img, bits, 3, statistic, mode)
            assert adaptive_filter(img, labels, 3, statistic, mode).tobytes() == want.tobytes(), (mode, statistic)
    write_labelmap(bits, tmp_path / "int64.txt")
    write_labelmap(labels, tmp_path / "given.txt")
    assert (tmp_path / "given.txt").read_bytes() == (tmp_path / "int64.txt").read_bytes()
    index = np.arange(23)[:, None] // 6 * 6 + np.arange(31) // 6  # 6 blocks per row
    scoped = block_labels(labels)
    assert scoped.dtype == np.uint8  # 4 x 6 blocks: labels up to 47
    assert np.array_equal(scoped, index * 2 + bits)
