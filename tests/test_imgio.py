"""PGM, label-map, and raw-dump I/O."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from varipix import (
    adaptive_filter,
    NoiseSpec,
    apply_noise,
    box_filter,
    builtin_masks,
    mse,
    psnr,
    read_image,
    read_labelmap,
    scan_parallel_fused,
    scan_square,
    write_labelmap,
    write_pgm,
    write_raw,
)
from varipix.cli import main
from varipix.imgio import _CHUNK, _PIECE, ImageFormatError, as_image, as_labels, read_image_header
from varipix.synth import fixture_images


def test_read_ascii_pgm_exact_values(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2\n# a comment\n2 2\n255\n0 64\n128 255\n")
    img = read_image(path)
    assert img.dtype == np.float64
    assert np.array_equal(img, [[0.0, 64.0], [128.0, 255.0]])


def test_binary_and_ascii_agree(tmp_path, rng):
    data = rng.integers(0, 256, size=(7, 5), dtype=np.uint8)
    p5 = tmp_path / "b.pgm"
    write_pgm(data.astype(np.float64), p5)
    p2 = tmp_path / "b2.pgm"
    rows = "\n".join(" ".join(str(v) for v in row) for row in data)
    p2.write_text(f"P2\n5 7\n255\n{rows}\n")
    assert np.array_equal(read_image(p5), read_image(p2))


def test_write_read_round_trip_integers(tmp_path, rng):
    data = rng.integers(0, 256, size=(16, 9)).astype(np.float64)
    path = tmp_path / "c.pgm"
    write_pgm(data, path)
    assert np.array_equal(read_image(path), data)


def test_write_rounds_half_up_and_clips(tmp_path):
    img = np.array([[127.5, 126.4999, -3.0, 300.0, 0.49, 254.5]])
    path = tmp_path / "d.pgm"
    write_pgm(img, path)
    assert np.array_equal(read_image(path), [[128.0, 126.0, 0.0, 255.0, 0.0, 255.0]])


def test_quantize_convention(tmp_path):
    # clip to [0, 255], then round half-up, as the raster bytes show
    path = tmp_path / "q.pgm"
    write_pgm(np.array([[0.5, 1.5, 255.4]]), path)
    assert path.read_bytes() == b"P5\n3 1\n255\n" + bytes([1, 2, 255])


def test_written_file_size_is_header_plus_pixels(tmp_path):
    img = np.zeros((512, 512))
    path = tmp_path / "e.pgm"
    write_pgm(img, path)
    blob = path.read_bytes()
    header = b"P5\n512 512\n255\n"
    assert blob[: len(header)] == header
    assert len(blob) == len(header) + 512 * 512


def test_binary_pgm_comments_and_whitespace(tmp_path):
    path = tmp_path / "f.pgm"
    path.write_bytes(b"P5 # magic\n# size next\n2\t2\n255\n" + bytes([1, 2, 3, 4]))
    assert np.array_equal(read_image(path), [[1.0, 2.0], [3.0, 4.0]])


def test_small_maxval_accepted_large_rejected(tmp_path):
    ok = tmp_path / "g.pgm"
    ok.write_text("P2\n2 1\n15\n0 15\n")
    assert np.array_equal(read_image(ok), [[0.0, 255.0]])
    bad = tmp_path / "h.pgm"
    bad.write_text("P2\n2 1\n65535\n0 15\n")
    with pytest.raises(ImageFormatError, match="unsupported maxval"):
        read_image(bad)


@pytest.mark.parametrize("maxval", [1, 7, 15, 100, 254])
def test_small_maxval_rescaled_onto_0_255(tmp_path, maxval):
    samples = list(range(maxval + 1))
    path = tmp_path / "s.pgm"
    path.write_text(f"P2\n{maxval + 1} 1\n{maxval}\n" + " ".join(map(str, samples)) + "\n")
    img = read_image(path)
    assert img[0, 0] == 0.0 and img[0, -1] == 255.0
    assert np.array_equal(img, [[s * 255.0 / maxval for s in samples]])
    assert np.all(np.diff(img) > 0)


def test_sample_above_maxval_rejected(tmp_path):
    path = tmp_path / "i.pgm"
    path.write_text("P2\n2 1\n100\n0 101\n")
    with pytest.raises(ImageFormatError, match=r"outside \[0, 100\]"):
        read_image(path)


def test_negative_sample_rejected(tmp_path):
    path = tmp_path / "j.pgm"
    path.write_text("P2\n2 1\n255\n-1 0\n")
    with pytest.raises(ImageFormatError, match="outside"):
        read_image(path)


def test_truncated_binary_rejected(tmp_path):
    path = tmp_path / "k.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(ImageFormatError, match="truncated"):
        read_image(path)


def test_truncated_ascii_rejected(tmp_path):
    path = tmp_path / "k.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2\n")
    with pytest.raises(ImageFormatError, match="truncated PGM data: expected 4 samples, got 3"):
        read_image(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "l.pgm"
    path.write_bytes(b"P6\n1 1\n255\nx")
    with pytest.raises(ImageFormatError, match="unrecognized image format.*bad magic 'P6'"):
        read_image(path)


def test_non_integer_dimension_rejected(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_text("P2\ntwo 2\n255\n0 0\n")
    with pytest.raises(ImageFormatError, match="non-integer dimension"):
        read_image(path)


def test_header_eof_rejected(tmp_path):
    path = tmp_path / "n.pgm"
    path.write_text("P5\n3 3\n")
    with pytest.raises(ImageFormatError, match="unexpected end"):
        read_image(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_image(tmp_path / "absent.pgm")


def test_labelmap_round_trip(tmp_path, rng):
    labels = rng.integers(0, 2, size=(13, 7), dtype=np.int64)
    path = tmp_path / "a.labels"
    write_labelmap(labels, path)
    back = read_labelmap(path)
    assert back.dtype == np.uint8
    assert np.array_equal(back, labels)


def test_labelmap_rejects_labels_other_than_region_bits(tmp_path):
    # a label of 2 would alias the next block's bit 0 under block scoping
    for bad in (2, -1, 4096):
        path = tmp_path / f"b{bad}.labels"
        path.write_text(f"labels 2 2\n0 1\n1 {bad}\n")
        with pytest.raises(ImageFormatError, match="region bits 0 or 1"):
            read_labelmap(path)
        with pytest.raises(ValueError, match="region bits 0 or 1"):
            write_labelmap(np.array([[0, 1], [1, bad]], dtype=np.int64), path)
    # the writer does not truncate non-integer labels either
    with pytest.raises(ValueError, match="integers"):
        write_labelmap(np.array([[0.0, 0.6]]), tmp_path / "f.labels")
    assert not (tmp_path / "f.labels").exists()


def test_labelmap_count_mismatch_rejected(tmp_path):
    path = tmp_path / "c.labels"
    path.write_text("labels 3 2\n0 1 0\n")
    with pytest.raises(ImageFormatError, match="6 labels.*3 labels"):
        read_labelmap(path)


def test_labelmap_bad_header_rejected(tmp_path):
    path = tmp_path / "d.labels"
    path.write_text("labls 2 2\n0 0\n0 0\n")
    with pytest.raises(ImageFormatError, match="malformed label map header"):
        read_labelmap(path)
    for text in ("labels 0 0\n", "labels 0 3\n", "labels -2 -3\n0 0 0 0 0 0\n"):
        path.write_text(text)
        with pytest.raises(ImageFormatError, match="malformed label map header: bad dimensions"):
            read_labelmap(path)


def test_raw_round_trip_is_lossless(tmp_path, rng):
    img = rng.random((9, 11)) * 255.0
    img[0, 0] = 1.0 / 3.0
    img[0, 1] = np.nextafter(200.0, 201.0)
    path = tmp_path / "a.rawimg"
    write_raw(img, path)
    back = read_image(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, img)


def test_text_writers_match_per_sample_repr_and_str(tmp_path, rng):
    img = rng.random((3, 6)) * 255.0
    img[0, :5] = [-0.0, 5e-324, 1e16, 1.0000000000000002, 255.0]
    write_raw(img, tmp_path / "a.rawimg")
    rows = [" ".join(repr(float(v)) for v in row) for row in img]
    assert (tmp_path / "a.rawimg").read_text() == "rawgray 6 3\n" + "\n".join(rows) + "\n"
    assert "-0.0 5e-324 1e+16 1.0000000000000002 255.0 " in rows[0] + " "
    assert np.array_equal(np.signbit(read_image(tmp_path / "a.rawimg")), np.signbit(img))
    labels = rng.integers(0, 2, size=(4, 5))
    for given in (labels, labels.astype(np.uint8), labels.astype(bool)):
        write_labelmap(given, tmp_path / "a.labels")
        rows = [" ".join(str(int(v)) for v in row) for row in labels]
        assert (tmp_path / "a.labels").read_text() == "labels 5 4\n" + "\n".join(rows) + "\n"


def test_raw_bad_header_rejected(tmp_path):
    path = tmp_path / "b.rawimg"
    path.write_text("rawgrey 1 1\n0.0\n")
    with pytest.raises(ImageFormatError, match="unrecognized image format"):
        read_image(path)
    for text in ("rawgray 0 0\n", "rawgray 4 0\n", "rawgray -2 -3\n1 2 3 4 5 6\n"):
        path.write_text(text)
        with pytest.raises(ImageFormatError, match="malformed raw dump header: bad dimensions"):
            read_image(path)


def test_raw_count_mismatch_rejected(tmp_path):
    path = tmp_path / "c.rawimg"
    path.write_text("rawgray 2 2\n0.0 1.0 2.0\n")
    with pytest.raises(ImageFormatError, match="4 samples.*3 samples"):
        read_image(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "infinity"])
def test_raw_non_finite_sample_rejected(tmp_path, token):
    path = tmp_path / "d.rawimg"
    path.write_text(f"rawgray 2 1\n1.0 {token}\n")
    with pytest.raises(ImageFormatError, match="non-finite"):
        read_image(path)


@pytest.mark.parametrize(
    "text, reader, message",
    [
        ("labels 2 1\n0 x\n", read_labelmap, "non-integer label"),
        ("labels 2 1\n0 1.0\n", read_labelmap, "non-integer label"),
        ("labels 2 1\n0 99999999999999999999\n", read_labelmap, "non-integer label"),
        ("rawgray 2 1\n0.5 0x1p3\n", read_image, "non-numeric sample"),
        ("rawgray 2 1\n0.5 1,5\n", read_image, "non-numeric sample"),
        ("P2\n2 1\n255\n0 1.5\n", read_image, "non-integer sample"),
        ("P2\n2 1\n255\n0 99999999999999999999\n", read_image, "non-integer sample"),
        ("rawgray 2 1\n1.0 \xff\n", read_image, "malformed raw dump: non-numeric sample"),
        ("labels 2 1\n0 \xff\n", read_labelmap, "malformed label map: non-integer label"),
        ("P2\n2 1\n255\n0 \xff\n", read_image, "malformed PGM data: non-integer sample"),
    ],
)
def test_text_readers_reject_bad_tokens(tmp_path, text, reader, message):
    # an integer too large for int64, or a byte that is not UTF-8, is malformed content, not a crash
    path = tmp_path / "bad.txt"
    path.write_bytes(text.encode("latin-1"))  # one byte per character, so "\xff" is the byte 0xff
    with pytest.raises(ImageFormatError, match=message):
        reader(path)


def test_text_readers_parse_tokens_as_int_and_float_do(tmp_path):
    # the readers parse all tokens in one numpy call; int() and float() are the reference
    floats = [".5", "5.", "+1.5", "1E5", "-0", "-0.0", "1_0.5", "4.9e-324", "1e-400", "0.1", "1.7976931348623157e308"]
    path = tmp_path / "a.rawimg"
    path.write_text(f"rawgray {len(floats)} 1\n" + " ".join(floats) + "\n")
    assert read_image(path).tobytes() == np.array([[float(t) for t in floats]]).tobytes()
    labels = ["+1", "-0", "01", "0", "0_1"]
    path.write_text(f"labels {len(labels)} 1\n" + " ".join(labels) + "\n")
    assert read_labelmap(path).tolist() == [[int(t) for t in labels]]
    samples = ["+1", "-0", "01", "255", "1_0"]  # tokens are bytes, which int() parses as it parses str
    path.write_text(f"P2\n{len(samples)} 1\n255\n" + " ".join(samples) + "\n")
    assert read_image(path).tolist() == [[float(int(t.encode())) for t in samples]]


def test_read_image_sniffs_all_formats(tmp_path):
    img = np.array([[3.0, 5.0], [7.0, 9.0]])
    p5 = tmp_path / "x.pgm"
    write_pgm(img, p5)
    raw = tmp_path / "x.rawimg"
    write_raw(img, raw)
    p2 = tmp_path / "x2.pgm"
    p2.write_text("P2\n2 2\n255\n3 5\n7 9\n")
    for path in (p5, raw, p2):
        assert np.array_equal(read_image(path), img)


def test_read_image_rejects_unknown_format(tmp_path):
    path = tmp_path / "y.bin"
    path.write_bytes(b"GIF89a....")
    with pytest.raises(ImageFormatError, match="unrecognized image format"):
        read_image(path)


def test_as_image_rejects_non_2d():
    with pytest.raises(ValueError, match="2-D"):
        as_image(np.zeros(6))
    with pytest.raises(ValueError, match="2-D"):
        as_image(np.zeros((2, 2, 2)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_as_image_rejects_non_finite(value):
    img = np.zeros((3, 3))
    img[1, 2] = value
    with pytest.raises(ValueError, match="non-finite"):
        as_image(img)


@pytest.mark.parametrize("shape", [(3, 40000), (70000, 1), (1, 70000)])
def test_as_image_finds_a_non_finite_sample_in_any_row_block(shape):
    # blocks of whole rows, at most 65536 samples each unless one row is longer
    img = np.zeros(shape)
    for index in ((0, 0), (shape[0] - 1, shape[1] - 1), (shape[0] // 2, shape[1] // 2)):
        img[index] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            as_image(img)
        img[index] = 0.0
    assert as_image(img) is img


def test_psnr_of_a_1024x1024_image_holds_under_a_tenth_of_an_image(rng):
    # the finiteness checks of both images and the streamed squared error, each one block at a time
    a, b = rng.random((2, 1024, 1024)) * 255.0
    psnr(a, b)
    tracemalloc.start()
    try:
        psnr(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * a.nbytes, peak / a.nbytes


def test_as_labels_takes_integer_and_bool_dtypes_only():
    labels = as_labels(np.array([[True, False]]))
    assert labels.dtype == np.uint8 and labels.tolist() == [[1, 0]]
    with pytest.raises(ValueError, match="labels must be integers"):
        as_labels(np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError, match="region bits"):
        as_labels(np.array([[0, 2]], dtype=np.uint8))


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.uint16, np.int32, np.int64])
def test_as_labels_returns_uint8_bits(dtype):
    given = np.array([[0, 1, 1], [1, 0, 0]]).astype(dtype)
    labels = as_labels(given)
    assert labels.dtype == np.uint8 and labels.tolist() == given.astype(int).tolist()
    # uint8 is the same array and bool a view of it; a wider dtype is narrowed into a copy
    assert (labels is given) == (dtype == np.uint8)
    assert np.shares_memory(labels, given) == (dtype in (bool, np.uint8))


ENTRY_POINTS = {
    "box_filter": lambda img: box_filter(img, 3),
    "adaptive_filter": lambda img: adaptive_filter(img, np.zeros(img.shape, dtype=np.int64), 3),
    "add_salt_pepper": lambda img: apply_noise(img, NoiseSpec("salt_pepper", seed=1)),
    "add_gaussian": lambda img: apply_noise(img, NoiseSpec("gaussian", seed=1)),
    "add_speckle": lambda img: apply_noise(img, NoiseSpec("speckle", seed=1)),
    "mse": lambda img: mse(np.zeros(img.shape), img),
    "psnr": lambda img: psnr(np.zeros(img.shape), img),
    "scan_square": scan_square,
    "scan_parallel_fused": lambda img: scan_parallel_fused(img, builtin_masks()),
}


@pytest.mark.parametrize(
    "img, message",
    [
        (np.array([[1.0, np.nan], [2.0, 3.0]]), "non-finite"),
        (np.array([[1.0, 2.0], [-np.inf, 3.0]]), "non-finite"),
        (np.zeros((2, 2, 2, 2)), "2-D"),
        (np.zeros((0, 4)), "with samples"),
    ],
)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_library_entry_points_reject_bad_images(entry, img, message):
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](img)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_image_stacks(entry):
    with pytest.raises(ValueError, match="image must be 2-D with samples"):
        ENTRY_POINTS[entry](np.zeros((2, 2, 2)))


@settings(max_examples=30, deadline=None)
@given(
    arrays(
        np.uint8,
        st.tuples(st.integers(1, 12), st.integers(1, 12)),
        elements=st.integers(0, 255),
    )
)
def test_pgm_round_trip_property(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("pgm") / "t.pgm"
    write_pgm(data.astype(np.float64), path)
    assert np.array_equal(read_image(path), data.astype(np.float64))


@settings(max_examples=30, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.integers(1, 8)),
        elements=st.floats(0, 255, allow_nan=False),
    )
)
def test_raw_round_trip_property(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("raw") / "t.rawimg"
    write_raw(data, path)
    assert np.array_equal(read_image(path), data)


def repr_dump(img) -> bytes:
    """The raw-dump bytes with one repr call per sample: the reference the writer must match."""
    h, w = img.shape
    rows = (" ".join(repr(v) for v in row) + "\n" for row in img.tolist())
    return (f"rawgray {w} {h}\n" + "".join(rows)).encode("ascii")


def assert_dump_matches_repr(img, path):
    write_raw(img, path)
    assert path.read_bytes() == repr_dump(img)


def test_raw_dumps_of_a_dump_roundtrip_run_match_repr(tmp_path):
    # one disks `varipix run`, three noises, k 3/5/7, mean, block mode: 35 dumped images
    src = tmp_path / "disks.pgm"
    write_pgm(fixture_images()["disks"], src)
    out_dir = tmp_path / "out"
    args = [
        "run", src, "--out-dir", out_dir, "--dump-intermediates", "--raw-intermediates", "--adaptive-mode", "block",
        "--kernel", 3, "--kernel", 5, "--kernel", 7, "--statistic", "mean",
    ]
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code == 0, result.output
    dumps = sorted(out_dir.glob("*.rawimg"))
    assert len(dumps) == 35
    for path in dumps:
        assert path.read_bytes() == repr_dump(read_image(path)), path.name


def edges(*values):
    """Each value, its nextafter neighbours, and their negations."""
    out = []
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf, dropped later
        for v in values:
            out += [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]
    return out + [-v for v in out]


LAYOUT_WHOLES = (1.0, 9.0, 10.0, 99.0, 100.0, 255.0, 999.0, 1000.0, 9999.0, 10000.0, 2.0**31 - 1)
RAW_EDGE_CASES = {
    "zeros": [0.0, -0.0],
    "subnormals": edges(5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308),
    "powers_of_two": edges(*(2.0**e for e in range(-1074, 1024, 7)), 0.5, 0.25, 2.0**-10, 2.0**31, 2.0**52),
    "layout_boundaries": edges(1e-4, 1e-5, 1e16, 1e15, 9.999999999999999e15),
    "fast_domain_edges": edges(1e-3, 2.0**31, 2.0**52, 2.0**53, 255.0, 127.5, 1.0),
    "extremes": edges(1.7976931348623157e308, 1e300, 1e-300),
    # x * 10**k exactly halfway between two candidates: repr rounds half to even
    "rounding_ties": edges(1 + 2**-17, 1 + 3 * 2**-17, 200 + 2**-15, 200 + 5 * 2**-15),
    "short_decimals": edges(0.1, 0.3, 0.1 + 0.2, 2 / 3, 85.25, 1e-3 * 7, 123456.789, 2.0**31 - 0.5),
    # the only non-integral powers of two in the fast domain: a lopsided rounding interval, exact digits
    "fast_domain_powers_of_two": [sign * 2.0**-e for e in range(1, 10) for sign in (1, -1)],
    # whole parts on each side of a new digit: the separator shares the sign word, or the whole part's word
    # below 1000, or takes a word of its own
    "whole_part_layouts": edges(*LAYOUT_WHOLES),
    **{
        f"whole_parts_below_{limit}_unsigned": [v for v in edges(*LAYOUT_WHOLES) if 0 < v < limit]
        for limit in (1000, 10000, 2**31)
    },
    # whole parts on each side of a new four-digit word, and reprs with 4, 5, 8, 9, 12, 13, 16 and 17
    # fraction digits: the digit counts and leading-NUL masks change word there
    "digit_word_boundaries": edges(
        9999.5, 10000.25, 99999999.5, 1e8 + 0.5, 999999999.5, 1e9 + 0.5, 2.0**31 - 0.25,
        0.1234, 0.12345, 0.12345678, 0.123456789, 0.123456789012, 0.1234567890123,
        0.1234567890123456, 0.12345678901234566,
    ),
}


@pytest.mark.parametrize("case", sorted(RAW_EDGE_CASES))
def test_raw_writer_matches_repr_on_edge_cases(tmp_path, case):
    values = np.array([v for v in RAW_EDGE_CASES[case] if np.isfinite(v)], dtype=np.float64)
    assert_dump_matches_repr(values.reshape(1, -1), tmp_path / "row.rawimg")
    assert_dump_matches_repr(values.reshape(-1, 1), tmp_path / "column.rawimg")


def test_raw_writer_rounds_exact_ties_half_to_even_as_repr_does(tmp_path, rng):
    # In the binade [2**b, 2**(b+1)) a double is m / 2**s with s = 52 - b, and its
    # first candidate has the k fraction digits of the smallest 10**k >= 2**s.
    # Each odd n / 2**(k+1) lies exactly halfway between two such candidates.
    # Where 2**s < 2 * 10**(k-1) its (k-1)-digit neighbour always round-trips,
    # so only the other binades of the window [1e-3, 2**31) hold a tie.
    values, places = [], []
    for b in range(-10, 31):
        s = 52 - b
        k = next(k for k in range(20) if 10**k >= 2**s)
        if 2**s >= 2 * 10 ** (k - 1):
            odd = 2 ** (b + k)  # odd numerators in the binade
            n = 2 ** (b + k + 1) + 2 * rng.choice(odd, min(odd, 8000), replace=False) + 1
            values.append(np.ldexp(n.astype(np.float64), -(k + 1)))
            places.append(np.full(n.size, k))
    x, places = np.concatenate(values), np.concatenate(places)
    x, places = x[x >= 1e-3], places[x >= 1e-3]
    assert 2 * x.size >= 400_000  # both signs
    # repr writes each with k fraction digits, so it rounds every one of them
    assert [len(r) - r.index(".") - 1 for r in map(repr, x.tolist())] == places.tolist()
    assert_dump_matches_repr(np.stack([x, -x]), tmp_path / "ties.rawimg")


@settings(max_examples=200, deadline=None)
@given(
    arrays(np.uint64, st.tuples(st.integers(1, 5), st.integers(1, 60)), elements=st.integers(0, 2**64 - 1))
)
def test_raw_writer_matches_repr_on_any_finite_double(tmp_path_factory, bits):
    img = bits.view(np.float64)
    img = np.where(np.isfinite(img), img, 1.0)
    assert_dump_matches_repr(img, tmp_path_factory.mktemp("raw") / "t.rawimg")


@settings(max_examples=100, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 60)),
        elements=st.one_of(
            st.floats(-300.0, 300.0, allow_nan=False),
            st.integers(-(2**53), 2**53).map(float),
            st.integers(-255 * 64, 255 * 64).map(lambda i: i / 64.0),
            st.floats(1e-5, 1e-2).map(lambda v: round(v, 6)),
        ),
    )
)
def test_raw_writer_matches_repr_on_image_like_values(tmp_path_factory, img):
    # short decimals, dyadic fractions and integers take the fast path's shortcuts
    assert_dump_matches_repr(img, tmp_path_factory.mktemp("raw") / "t.rawimg")


@pytest.mark.parametrize(
    "shape",
    [(1, _CHUNK + 1), (_CHUNK + 1, 1), (7, 1000), (1, _CHUNK - 1), (_CHUNK, 1), (3, 2 * _CHUNK // 3 + 1)],
)
def test_raw_writer_matches_repr_across_row_and_chunk_ends(tmp_path, rng, shape):
    img = np.clip(rng.normal(128.0, 40.0, shape), 0.0, 255.0)
    flat = img.reshape(-1)
    flat[:: 97] = np.round(flat[:: 97])  # integral
    flat[5 :: 211] = 2.0**-20  # repr-written, so spliced in
    flat[_CHUNK - 1 :: _CHUNK] = -1e-7  # repr-written, at the end of each chunk
    assert_dump_matches_repr(img, tmp_path / "t.rawimg")


def test_raw_bytes_do_not_depend_on_the_chunk_size(tmp_path, rng, monkeypatch):
    # 2400 x 7 values: 7 divides none of the chunk sizes, and the last chunk of 4096 or 16384 is short;
    # each chunk's text is copied out in pieces of 1 byte to 64 KB, so of 1 to about 2730 values, whose
    # ends fall mid-row too. A value takes 4 bytes per word of its chunk's grid: 7 * 36 bytes are the
    # 7-value rows of the first 16384 values, whose grid is nine words wide, and 7 * 24 bytes the rows of
    # the first 1024 values of the layouts below, six words wide.
    # Per 4096 values: negatives or not, whole parts of 1 to `digits` digits and a few special
    # values, so the sign column comes and goes and the grid width changes from chunk to chunk.
    segments = []
    for negatives, digits, special in [
        (True, 1, [1e-7]),
        (False, 10, [1e300, 2.0**31 - 0.25, 1e9 + 0.5]),
        (True, 5, [1e-7, 1e300]),
        (False, 3, []),
        (False, 1, []),
    ]:
        v = rng.random(4096) * 10.0 ** rng.integers(0, digits + 1, 4096)
        v[::13] = np.round(v[::13])  # integral
        v[7 : 7 + 101 * len(special) : 101] = special  # repr-written, or 10-digit whole parts
        if negatives:
            v[::3] = -v[::3]
        segments.append(v)
    img = np.concatenate(segments)[: 2400 * 7].reshape(2400, 7)
    assert img.size > _CHUNK
    # Per 1024 values, one layout of the text grid: every value in the exact path's window (unsigned,
    # then signed), every value integral, whole parts on both sides of 1000 (the separator takes a
    # word of its own), and at most 15, 16 and 17 fraction digits (16 is the first to need a fifth word)
    fraction = rng.random(1024) * 0.9 + 0.1
    layouts = [
        rng.random(1024) * 255.0 + 1e-3,
        (rng.random(1024) * 255.0 + 1e-3) * (-1.0) ** np.arange(1024),
        rng.integers(0, 256, 1024).astype(np.float64),
        rng.random(1024) * 1500.0 + 500.0,
        np.round(fraction, 15),
        np.round(fraction, 16),
        fraction,
    ]
    assert all(1e-3 <= abs(v) < 2.0**31 and v != np.floor(v) for v in np.concatenate(layouts[:2]).tolist())
    assert np.array_equal(layouts[2], np.floor(layouts[2])) and layouts[3].min() < 1000.0 <= layouts[3].max()
    assert [max(len(r) - r.index(".") - 1 for r in map(repr, v.tolist())) for v in layouts[4:]] == [15, 16, 17]
    for image, sizes in [
        (img, [(1, 1), (5, 2 * 36), (4096, 1000), (_CHUNK, 7 * 36), (_CHUNK, _PIECE)]),
        (
            np.concatenate(layouts).reshape(1024, 7),
            [(5, 2 * 28), (1024, 100), (1024, 7 * 24), (4096, 1000), (_CHUNK, _PIECE)],
        ),
    ]:
        expected = repr_dump(image)
        for size, piece in sizes:
            monkeypatch.setattr("varipix.imgio._CHUNK", size)
            monkeypatch.setattr("varipix.imgio._PIECE", piece)
            write_raw(image, tmp_path / "t.rawimg")
            assert (tmp_path / "t.rawimg").read_bytes() == expected, (size, piece)


def test_raw_writer_holds_at_most_2_mb_for_a_240x240_dump(tmp_path, rng):
    # The work arrays are allocated once per call, for one chunk. A noisy
    # fixture, and the widest rows: signed 10-digit whole parts, 17 fraction
    # digits and repr-written values.
    wide = (rng.random((240, 240)) - 0.5) * 4e9
    wide.flat[::101] = 1e-7
    for img in (apply_noise(fixture_images()["disks"], NoiseSpec("gaussian")), wide):
        write_raw(img, tmp_path / "warm.rawimg")  # the cached tables are built before tracing
        tracemalloc.start()
        try:
            write_raw(img, tmp_path / "t.rawimg")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0e6, peak
        assert (tmp_path / "t.rawimg").read_bytes() == repr_dump(img)


def test_header_check_reads_no_samples_and_shares_the_readers_messages(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5 # size next\n3\t2\n7\n" + bytes(2))  # truncated raster
    assert read_image_header(path) == ("P5", 3, 2, 7)
    with pytest.raises(ImageFormatError, match="truncated"):
        read_image(path)
    path.write_text("rawgray 2\n1\n0.5 1.5\n")  # grid header fields may span lines too
    assert read_image_header(path) == ("rawgray", 2, 1, 0)
    assert read_image(path).tolist() == [[0.5, 1.5]]
    for text, match in [
        ("P2\n2 2\n0\n", "bad maxval"),
        ("rawgray 0 1\n", "bad dimensions"),
        ("P5\n2 2", "unexpected end"),
        ("rawgray 1 " + "1" * 30, "field too long"),
        ("GIF89a", "unrecognized image format"),
    ]:
        path.write_text(text)
        for reader in (read_image_header, read_image):
            with pytest.raises(ImageFormatError, match=match):
                reader(path)
