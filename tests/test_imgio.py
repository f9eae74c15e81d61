"""PGM, label-map, and raw-dump I/O."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from varipix import (
    adaptive_filter,
    add_gaussian,
    add_salt_pepper,
    add_speckle,
    box_filter,
    mse,
    psnr,
    read_image,
    read_labelmap,
    read_pgm,
    read_raw,
    write_labelmap,
    write_pgm,
    write_raw,
)
from varipix.imgio import ImageFormatError, as_image, quantize


def test_read_ascii_pgm_exact_values(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2\n# a comment\n2 2\n255\n0 64\n128 255\n")
    img = read_pgm(path)
    assert img.dtype == np.float64
    assert np.array_equal(img, [[0.0, 64.0], [128.0, 255.0]])


def test_binary_and_ascii_agree(tmp_path, rng):
    data = rng.integers(0, 256, size=(7, 5), dtype=np.uint8)
    p5 = tmp_path / "b.pgm"
    write_pgm(data.astype(np.float64), p5)
    p2 = tmp_path / "b2.pgm"
    rows = "\n".join(" ".join(str(v) for v in row) for row in data)
    p2.write_text(f"P2\n5 7\n255\n{rows}\n")
    assert np.array_equal(read_pgm(p5), read_pgm(p2))


def test_write_read_round_trip_integers(tmp_path, rng):
    data = rng.integers(0, 256, size=(16, 9)).astype(np.float64)
    path = tmp_path / "c.pgm"
    write_pgm(data, path)
    assert np.array_equal(read_pgm(path), data)


def test_write_rounds_half_up_and_clips(tmp_path):
    img = np.array([[127.5, 126.4999, -3.0, 300.0, 0.49, 254.5]])
    path = tmp_path / "d.pgm"
    write_pgm(img, path)
    assert np.array_equal(read_pgm(path), [[128.0, 126.0, 0.0, 255.0, 0.0, 255.0]])


def test_quantize_convention():
    assert quantize(np.array([[0.5]]))[0, 0] == 1
    assert quantize(np.array([[1.5]]))[0, 0] == 2
    assert quantize(np.array([[255.4]]))[0, 0] == 255


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
    assert np.array_equal(read_pgm(path), [[1.0, 2.0], [3.0, 4.0]])


def test_small_maxval_accepted_large_rejected(tmp_path):
    ok = tmp_path / "g.pgm"
    ok.write_text("P2\n2 1\n15\n0 15\n")
    assert np.array_equal(read_pgm(ok), [[0.0, 255.0]])
    bad = tmp_path / "h.pgm"
    bad.write_text("P2\n2 1\n65535\n0 15\n")
    with pytest.raises(ImageFormatError, match="unsupported maxval"):
        read_pgm(bad)


@pytest.mark.parametrize("maxval", [1, 7, 15, 100, 254])
def test_small_maxval_rescaled_onto_0_255(tmp_path, maxval):
    samples = list(range(maxval + 1))
    path = tmp_path / "s.pgm"
    path.write_text(f"P2\n{maxval + 1} 1\n{maxval}\n" + " ".join(map(str, samples)) + "\n")
    img = read_pgm(path)
    assert img[0, 0] == 0.0 and img[0, -1] == 255.0
    assert np.array_equal(img, [[s * 255.0 / maxval for s in samples]])
    assert np.all(np.diff(img) > 0)


def test_sample_above_maxval_rejected(tmp_path):
    path = tmp_path / "i.pgm"
    path.write_text("P2\n2 1\n100\n0 101\n")
    with pytest.raises(ImageFormatError, match=r"outside \[0, 100\]"):
        read_pgm(path)


def test_negative_sample_rejected(tmp_path):
    path = tmp_path / "j.pgm"
    path.write_text("P2\n2 1\n255\n-1 0\n")
    with pytest.raises(ImageFormatError, match="outside"):
        read_pgm(path)


def test_truncated_binary_rejected(tmp_path):
    path = tmp_path / "k.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(ImageFormatError, match="truncated"):
        read_pgm(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "l.pgm"
    path.write_bytes(b"P6\n1 1\n255\nx")
    with pytest.raises(ImageFormatError, match="bad magic"):
        read_pgm(path)


def test_non_integer_dimension_rejected(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_text("P2\ntwo 2\n255\n0 0\n")
    with pytest.raises(ImageFormatError, match="non-integer dimension"):
        read_pgm(path)


def test_header_eof_rejected(tmp_path):
    path = tmp_path / "n.pgm"
    path.write_text("P5\n3 3\n")
    with pytest.raises(ImageFormatError, match="unexpected end"):
        read_pgm(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_pgm(tmp_path / "absent.pgm")


def test_labelmap_round_trip(tmp_path, rng):
    labels = rng.integers(0, 2, size=(13, 7), dtype=np.int64)
    path = tmp_path / "a.labels"
    write_labelmap(labels, path)
    back = read_labelmap(path)
    assert back.dtype == np.int64
    assert np.array_equal(back, labels)


def test_labelmap_rejects_labels_other_than_region_bits(tmp_path):
    # a label of 2 would alias the next block's bit 0 under block scoping
    for bad in (2, -1, 4096):
        path = tmp_path / f"b{bad}.labels"
        write_labelmap(np.array([[0, 1], [1, bad]], dtype=np.int64), path)
        with pytest.raises(ImageFormatError, match="region bits 0 or 1"):
            read_labelmap(path)


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


def test_raw_round_trip_is_lossless(tmp_path, rng):
    img = rng.random((9, 11)) * 255.0
    img[0, 0] = 1.0 / 3.0
    img[0, 1] = np.nextafter(200.0, 201.0)
    path = tmp_path / "a.rawimg"
    write_raw(img, path)
    back = read_raw(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, img)


def test_text_writers_match_per_sample_repr_and_str(tmp_path, rng):
    img = rng.random((3, 6)) * 255.0
    img[0, :5] = [-0.0, 5e-324, 1e16, 1.0000000000000002, 255.0]
    write_raw(img, tmp_path / "a.rawimg")
    rows = [" ".join(repr(float(v)) for v in row) for row in img]
    assert (tmp_path / "a.rawimg").read_text() == "rawgray 6 3\n" + "\n".join(rows) + "\n"
    assert "-0.0 5e-324 1e+16 1.0000000000000002 255.0 " in rows[0] + " "
    assert np.array_equal(np.signbit(read_raw(tmp_path / "a.rawimg")), np.signbit(img))
    labels = rng.integers(0, 2, size=(4, 5))
    for given in (labels, labels.astype(np.uint8), labels.astype(bool)):
        write_labelmap(given, tmp_path / "a.labels")
        rows = [" ".join(str(int(v)) for v in row) for row in labels]
        assert (tmp_path / "a.labels").read_text() == "labels 5 4\n" + "\n".join(rows) + "\n"


def test_raw_bad_header_rejected(tmp_path):
    path = tmp_path / "b.rawimg"
    path.write_text("rawgrey 1 1\n0.0\n")
    with pytest.raises(ImageFormatError, match="malformed raw dump header"):
        read_raw(path)


def test_raw_count_mismatch_rejected(tmp_path):
    path = tmp_path / "c.rawimg"
    path.write_text("rawgray 2 2\n0.0 1.0 2.0\n")
    with pytest.raises(ImageFormatError, match="4 samples.*3 samples"):
        read_raw(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "infinity"])
def test_raw_non_finite_sample_rejected(tmp_path, token):
    path = tmp_path / "d.rawimg"
    path.write_text(f"rawgray 2 1\n1.0 {token}\n")
    with pytest.raises(ImageFormatError, match="non-finite"):
        read_raw(path)
    with pytest.raises(ImageFormatError, match="non-finite"):
        read_image(path)


@pytest.mark.parametrize(
    "text, reader, message",
    [
        ("labels 2 1\n0 x\n", read_labelmap, "non-integer label"),
        ("labels 2 1\n0 1.0\n", read_labelmap, "non-integer label"),
        ("labels 2 1\n0 99999999999999999999\n", read_labelmap, "non-integer label"),
        ("rawgray 2 1\n0.5 0x1p3\n", read_raw, "non-numeric sample"),
        ("rawgray 2 1\n0.5 1,5\n", read_raw, "non-numeric sample"),
        ("P2\n2 1\n255\n0 1.5\n", read_pgm, "non-integer sample"),
        ("P2\n2 1\n255\n0 99999999999999999999\n", read_pgm, "non-integer sample"),
    ],
)
def test_text_readers_reject_bad_tokens(tmp_path, text, reader, message):
    # an integer too large for int64 is malformed content, not a crash
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ImageFormatError, match=message):
        reader(path)


def test_text_readers_parse_tokens_as_int_and_float_do(tmp_path):
    # the readers parse all tokens in one numpy call; int() and float() are the reference
    floats = [".5", "5.", "+1.5", "1E5", "-0", "-0.0", "1_0.5", "4.9e-324", "1e-400", "0.1", "1.7976931348623157e308"]
    path = tmp_path / "a.rawimg"
    path.write_text(f"rawgray {len(floats)} 1\n" + " ".join(floats) + "\n")
    assert read_raw(path).tobytes() == np.array([[float(t) for t in floats]]).tobytes()
    labels = ["+1", "-0", "01", "0", "0_1"]
    path.write_text(f"labels {len(labels)} 1\n" + " ".join(labels) + "\n")
    assert read_labelmap(path).tolist() == [[int(t) for t in labels]]
    samples = ["+1", "-0", "01", "255", "1_0"]  # P2 tokens are bytes
    path.write_text(f"P2\n{len(samples)} 1\n255\n" + " ".join(samples) + "\n")
    assert read_pgm(path).tolist() == [[float(int(t.encode())) for t in samples]]


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


ENTRY_POINTS = {
    "box_filter": lambda img: box_filter(img, 3),
    "adaptive_filter": lambda img: adaptive_filter(img, np.zeros(img.shape, dtype=np.int64), 3),
    "add_salt_pepper": lambda img: add_salt_pepper(img, 0.05, seed=1),
    "add_gaussian": lambda img: add_gaussian(img, 25.5, seed=1),
    "add_speckle": lambda img: add_speckle(img, 0.04, seed=1),
    "mse": lambda img: mse(np.zeros(img.shape), img),
    "psnr": lambda img: psnr(np.zeros(img.shape), img),
}


@pytest.mark.parametrize(
    "img, message",
    [
        (np.array([[1.0, np.nan], [2.0, 3.0]]), "non-finite"),
        (np.array([[1.0, 2.0], [-np.inf, 3.0]]), "non-finite"),
        (np.zeros((2, 2, 2)), "2-D"),
    ],
)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_library_entry_points_reject_bad_images(entry, img, message):
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](img)


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
    assert np.array_equal(read_pgm(path), data.astype(np.float64))


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
    assert np.array_equal(read_raw(path), data)
