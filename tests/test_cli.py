"""CLI subcommands: stage chaining, exit codes, and CSV output."""

from __future__ import annotations

import dataclasses
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from varipix import (
    NoiseSpec,
    PipelineConfig,
    adaptive_filter,
    apply_noise,
    box_filter,
    builtin_masks,
    load_masks,
    read_image,
    run_pipeline,
    scan_parallel_fused,
    scan_square,
    write_pgm,
    write_raw,
)
from varipix.cli import main
from varipix.filters import (
    ADAPTIVE_MODES,
    DEFAULT_ADAPTIVE_MODE,
    DEFAULT_FILTER_MODE,
    DEFAULT_KERNEL,
    DEFAULT_STATISTIC,
    FILTER_MODES,
    STATISTICS,
)
from varipix.noise import NOISE_KINDS
from varipix.pipeline import CSV_HEADER
from varipix.scan import DEFAULT_CRITERION
from varipix.synth import disks


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


def write_fixture(path):
    write_pgm(disks(36), path)


def experiment_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_experiment.py"
    spec = importlib.util.spec_from_file_location("run_experiment", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_masks_stdout_parses(runner, tmp_path, masks):
    result = invoke(runner, "masks")
    assert result.exit_code == 0
    path = tmp_path / "dumped.txt"
    path.write_text(result.output)
    loaded = load_masks(path)
    assert len(loaded) == 8
    for a, b in zip(loaded, masks):
        assert np.array_equal(a.cells, b.cells)
        assert (a.id, a.shape_kind, a.orientation) == (b.id, b.shape_kind, b.orientation)


def test_masks_out_file(runner, tmp_path):
    path = tmp_path / "m.txt"
    result = invoke(runner, "masks", "--out", path)
    assert result.exit_code == 0
    assert len(load_masks(path)) == 8


def test_psnr_identical_prints_inf(runner, tmp_path):
    img = tmp_path / "x.pgm"
    write_fixture(img)
    result = invoke(runner, "psnr", img, img)
    assert result.exit_code == 0
    assert result.output.strip() == "inf"


def test_scan_square_writes_means(runner, tmp_path):
    img = tmp_path / "x.pgm"
    write_pgm(np.full((12, 12), 50.0), img)
    out = tmp_path / "s.rawimg"
    result = invoke(runner, "scan", img, "--out", out, "--layout", "square", "--raw")
    assert result.exit_code == 0
    assert np.all(read_image(out) == 50.0)


def test_scan_pads_and_crops_odd_sizes(runner, tmp_path):
    img = tmp_path / "x.pgm"
    write_pgm(disks(36)[:20, :26], img)
    out = tmp_path / "s.rawimg"
    result = invoke(runner, "scan", img, "--out", out, "--raw")
    assert result.exit_code == 0
    assert read_image(out).shape == (20, 26)


def test_scan_runs_only_the_scan_of_its_layout(runner, tmp_path, monkeypatch):
    img = tmp_path / "x.pgm"
    write_pgm(disks(36)[:20, :26], img)
    for layout, scan, other in (
        ("square", scan_square, "scan_parallel_fused"),
        ("variable", lambda a: scan_parallel_fused(a, builtin_masks()).image, "scan_square"),
    ):
        with monkeypatch.context() as m:
            m.setattr(f"varipix.cli.{other}", None)  # calling it would fail the command
            out = tmp_path / f"{layout}.rawimg"
            assert invoke(runner, "scan", img, "--out", out, "--layout", layout, "--raw").exit_code == 0
        assert np.array_equal(read_image(out), scan(read_image(img)))


def test_staged_chain_matches_run_csv(runner, tmp_path):
    # raw intermediates keep every stage lossless, so the stage-by-stage
    # chain must land on exactly the values the one-shot run reports
    img = tmp_path / "disks.pgm"
    write_fixture(img)
    out_dir = tmp_path / "out"
    result = invoke(
        runner, "run", img, "--out-dir", out_dir,
        "--noise", "gaussian", "--kernel", 3, "--statistic", "mean",
    )
    assert result.exit_code == 0
    assert "wrote 3 rows" in result.output
    csv_rows = (out_dir / "psnr.csv").read_text().splitlines()
    assert csv_rows[0] == CSV_HEADER
    by_pipe = {line.split(",")[2]: line.split(",")[5] for line in csv_rows[1:]}

    scan_sq = tmp_path / "sq.rawimg"
    scan_var = tmp_path / "var.rawimg"
    labels = tmp_path / "labels.txt"
    assert invoke(runner, "scan", img, "--out", scan_sq, "--layout", "square", "--raw").exit_code == 0
    assert invoke(
        runner, "scan", img, "--out", scan_var, "--labels", labels, "--raw"
    ).exit_code == 0

    for pipe, scanned in (("square", scan_sq), ("variable", scan_var)):
        noisy = tmp_path / f"{pipe}_noisy.rawimg"
        assert invoke(
            runner, "noise", scanned, "--out", noisy, "--kind", "gaussian", "--raw"
        ).exit_code == 0
        filtered = tmp_path / f"{pipe}_filt.rawimg"
        assert invoke(
            runner, "filter", noisy, "--out", filtered, "--kernel", 3,
            "--statistic", "mean", "--raw",
        ).exit_code == 0
        got = invoke(runner, "psnr", img, filtered)
        assert got.output.strip() == by_pipe[pipe]

    noisy = tmp_path / "var_noisy2.rawimg"
    invoke(runner, "noise", scan_var, "--out", noisy, "--kind", "gaussian", "--raw")
    filtered = tmp_path / "adaptive_filt.rawimg"
    assert invoke(
        runner, "filter", noisy, "--out", filtered, "--kernel", 3, "--statistic", "mean",
        "--mode", "adaptive-literal", "--labels", labels, "--raw",
    ).exit_code == 0
    got = invoke(runner, "psnr", img, filtered)
    assert got.output.strip() == by_pipe["adaptive"]


def test_run_csv_row_count_and_determinism(runner, tmp_path):
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    write_fixture(a)
    write_pgm(255.0 - disks(36), b)
    outs = []
    for sub in ("o1", "o2"):
        out_dir = tmp_path / sub
        result = invoke(
            runner, "run", a, b, "--out-dir", out_dir,
            "--noise", "salt_pepper", "--noise", "gaussian",
            "--kernel", 3, "--kernel", 5,
        )
        assert result.exit_code == 0
        outs.append((out_dir / "psnr.csv").read_bytes())
    # 2 images x 2 noises x 3 pipelines x 2 statistics x 2 kernels
    assert outs[0].decode().count("\n") == 1 + 48
    assert outs[0] == outs[1]


def test_repeated_run_values_give_one_row_each(runner, tmp_path):
    img = tmp_path / "d.pgm"
    write_fixture(img)
    once = ("--noise", "gaussian", "--kernel", 3, "--kernel", 5, "--statistic", "mean")
    twice = (
        "--noise", "gaussian", "--noise", "gaussian", "--kernel", 5, "--kernel", 3,
        "--kernel", 5, "--statistic", "mean", "--statistic", "mean",
    )
    outs = []
    for sub, flags in (("once", once), ("twice", twice)):
        result = invoke(runner, "run", img, "--out-dir", tmp_path / sub, *flags)
        assert result.exit_code == 0, result.output
        outs.append((tmp_path / sub / "psnr.csv").read_bytes())
    assert outs[0].decode().count("\n") == 1 + 3 * 2
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--density", 2), "density must be in [0, 1], got 2.0"),
        (("--seed", -1), "seed must be an integer >= 0, got -1"),
    ],
    ids=["density", "seed"],
)
def test_bad_run_settings_exit_4_before_anything_is_written(runner, tmp_path, flags, message):
    img = tmp_path / "d.pgm"
    write_fixture(img)
    out_dir = tmp_path / "out"
    result = invoke(runner, "run", img, "--out-dir", out_dir, "--dump-intermediates", *flags)
    assert result.exit_code == 4
    assert message in result.output
    assert not out_dir.exists()


def test_run_expands_directories(runner, tmp_path):
    src = tmp_path / "imgs"
    src.mkdir()
    write_fixture(src / "a.pgm")
    write_fixture(src / "b.pgm")
    (src / "notes.txt").write_text("not an image\n")
    (src / "sub.pgm").mkdir()  # only regular files are inputs
    out_dir = tmp_path / "out"
    result = invoke(
        runner, "run", src, "--out-dir", out_dir,
        "--noise", "speckle", "--kernel", 3, "--statistic", "median",
    )
    assert result.exit_code == 0
    assert "wrote 6 rows" in result.output


def test_psnr_of_finite_images_whose_squared_error_overflows_is_minus_inf(runner, tmp_path):
    big, zero = tmp_path / "big.rawimg", tmp_path / "zero.rawimg"
    write_raw(np.full((2, 2), 1e200), big)
    write_raw(np.zeros((2, 2)), zero)
    result = invoke(runner, "psnr", big, zero)
    assert result.exit_code == 0, result.output
    assert result.output == "-inf\n"


def test_run_rejects_empty_directory(runner, tmp_path):
    src = tmp_path / "imgs"
    src.mkdir()
    result = invoke(runner, "run", src, "--out-dir", tmp_path / "out")
    assert result.exit_code == 2
    assert "no input images" in result.output


def test_exit_code_2_for_bad_flags(runner, tmp_path):
    img = tmp_path / "x.pgm"
    write_fixture(img)
    # even kernel
    result = invoke(runner, "filter", img, "--out", tmp_path / "y.pgm", "--kernel", 4)
    assert result.exit_code == 2
    # unknown noise kind
    result = invoke(runner, "noise", img, "--out", tmp_path / "y.pgm", "--kind", "shot")
    assert result.exit_code == 2
    # unknown criterion
    result = invoke(runner, "scan", img, "--out", tmp_path / "y.pgm", "--criterion", "psnr")
    assert result.exit_code == 2


def test_exit_code_2_for_inconsistent_flags(runner, tmp_path):
    img = tmp_path / "x.pgm"
    write_fixture(img)
    result = invoke(
        runner, "scan", img, "--out", tmp_path / "s.pgm",
        "--layout", "square", "--labels", tmp_path / "l.txt",
    )
    assert result.exit_code == 2
    assert not (tmp_path / "s.pgm").exists()
    assert not (tmp_path / "l.txt").exists()
    result = invoke(
        runner, "filter", img, "--out", tmp_path / "f.pgm", "--mode", "adaptive-literal"
    )
    assert result.exit_code == 2
    assert "--labels" in result.output
    # square filtering reads no label map, so --labels is rejected before any read
    result = invoke(
        runner, "filter", img, "--out", tmp_path / "f.pgm", "--mode", "square",
        "--labels", tmp_path / "absent.txt",
    )
    assert result.exit_code == 2
    assert "--labels" in result.output
    assert not (tmp_path / "f.pgm").exists()
    # --raw-intermediates alone would dump nothing
    result = invoke(runner, "run", img, "--out-dir", tmp_path / "out", "--raw-intermediates")
    assert result.exit_code == 2
    assert "--dump-intermediates" in result.output
    assert not (tmp_path / "out").exists()


def test_exit_code_3_for_missing_input(runner, tmp_path):
    result = invoke(
        runner, "noise", tmp_path / "absent.pgm", "--out", tmp_path / "y.pgm",
        "--kind", "gaussian",
    )
    assert result.exit_code == 3


def test_exit_code_3_for_missing_later_run_input_before_anything_is_written(runner, tmp_path):
    img = tmp_path / "a.pgm"
    write_fixture(img)
    out_dir = tmp_path / "o"
    result = invoke(
        runner, "run", img, tmp_path / "z_missing.pgm", "--out-dir", out_dir,
        "--dump-intermediates", "--kernel", "3",
    )
    assert result.exit_code == 3
    assert "error:" in result.output and "z_missing.pgm" in result.output
    assert not out_dir.exists()


def test_exit_code_4_for_malformed_later_run_input_before_anything_is_written(runner, tmp_path):
    img = tmp_path / "a.pgm"
    write_fixture(img)
    bad = tmp_path / "z_bad.pgm"
    bad.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    out_dir = tmp_path / "o"
    result = invoke(runner, "run", img, bad, "--out-dir", out_dir, "--dump-intermediates", "--kernel", "3")
    assert result.exit_code == 4
    assert "error:" in result.output and "z_bad.pgm" in result.output
    assert not out_dir.exists()


def test_exit_code_4_for_malformed_image(runner, tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    result = invoke(runner, "scan", bad, "--out", tmp_path / "s.pgm")
    assert result.exit_code == 4


def test_exit_code_4_for_malformed_masks(runner, tmp_path):
    img = tmp_path / "x.pgm"
    write_fixture(img)
    bad = tmp_path / "masks.txt"
    bad.write_text("mask solid custom 0\n" + "111111\n" * 6)
    result = invoke(runner, "scan", img, "--out", tmp_path / "s.pgm", "--masks", bad)
    assert result.exit_code == 4
    result = invoke(runner, "run", img, "--out-dir", tmp_path / "out", "--masks", bad)
    assert result.exit_code == 4


def test_exit_code_4_for_wrong_shape_labels(runner, tmp_path):
    img = tmp_path / "x.pgm"
    write_fixture(img)
    labels = tmp_path / "l.txt"
    labels.write_text("labels 2 2\n0 1\n1 0\n")
    result = invoke(
        runner, "filter", img, "--out", tmp_path / "f.pgm",
        "--mode", "adaptive-literal", "--labels", labels,
    )
    assert result.exit_code == 4


@pytest.mark.parametrize("mode", ["adaptive-literal", "adaptive-block"])
def test_exit_code_4_for_labels_other_than_region_bits(runner, tmp_path, mode):
    img = tmp_path / "x.pgm"
    write_pgm(np.zeros((6, 12)), img)
    labels = tmp_path / "l.txt"
    labels.write_text("labels 12 6\n" + "2 0 0 0 0 0 0 0 0 0 0 0\n" + "0 " * 60 + "\n")
    result = invoke(
        runner, "filter", img, "--out", tmp_path / "f.pgm", "--mode", mode, "--labels", labels,
    )
    assert result.exit_code == 4
    assert "region bits" in result.output


def test_exit_code_4_for_non_finite_raw_sample(runner, tmp_path):
    good = tmp_path / "a.rawimg"
    good.write_text("rawgray 2 1\n1.0 2.0\n")
    bad = tmp_path / "b.rawimg"
    bad.write_text("rawgray 2 1\n1.0 nan\n")
    result = invoke(runner, "psnr", good, bad)
    assert result.exit_code == 4
    assert "non-finite" in result.output
    assert "nan" not in result.output.splitlines()


def test_exit_code_4_for_non_utf8_raw_sample(runner, tmp_path):
    good = tmp_path / "a.rawimg"
    good.write_text("rawgray 2 1\n1.0 2.0\n")
    bad = tmp_path / "b.rawimg"
    bad.write_bytes(b"rawgray 2 1\n1.0 \xff\n")
    result = invoke(runner, "psnr", good, bad)
    assert result.exit_code == 4
    assert "error: malformed raw dump: non-numeric sample" in result.output


@pytest.mark.parametrize("header", ["rawgray 0 0\n", "rawgray -2 -3\n1 2 3 4 5 6\n"])
def test_exit_code_4_for_raw_dump_with_no_samples(runner, tmp_path, header):
    empty = tmp_path / "e.rawimg"
    empty.write_text(header)
    for args in (
        ("psnr", empty, empty),
        ("filter", empty, "--out", tmp_path / "f.pgm"),
        ("run", empty, "--out-dir", tmp_path / "out"),
    ):
        result = invoke(runner, *args)
        assert result.exit_code == 4, args
        assert "bad dimensions" in result.output
    assert not (tmp_path / "f.pgm").exists()


def test_exit_code_4_for_inputs_that_share_a_stem(runner, tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        write_fixture(tmp_path / sub / "x.pgm")
    result = invoke(runner, "run", tmp_path / "a", tmp_path / "b", "--out-dir", tmp_path / "out")
    assert result.exit_code == 4
    assert "stem 'x'" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stem", ["a,b", 'a"b', "a\rb", "a\nb"])
def test_exit_code_4_for_an_input_stem_that_breaks_psnr_csv(runner, tmp_path, stem):
    # psnr.csv writes the stem unquoted as its first field
    (tmp_path / "in").mkdir()
    write_fixture(tmp_path / "in" / f"{stem}.pgm")
    result = invoke(runner, "run", tmp_path / "in", "--out-dir", tmp_path / "out")
    assert result.exit_code == 4
    assert f"stem {stem!r}" in result.output
    assert not (tmp_path / "out").exists()


def test_noise_and_run_defaults_match_library_defaults(runner, tmp_path):
    img = tmp_path / "x.pgm"
    write_fixture(img)
    for kind in NOISE_KINDS:
        out = tmp_path / f"{kind}.pgm"
        assert invoke(runner, "noise", img, "--out", out, "--kind", kind).exit_code == 0
        want = tmp_path / f"{kind}_lib.pgm"
        write_pgm(apply_noise(read_image(img), NoiseSpec(kind)), want)
        assert out.read_bytes() == want.read_bytes()
    assert invoke(runner, "run", img, "--out-dir", tmp_path / "cli").exit_code == 0
    rows = run_pipeline(PipelineConfig(inputs=(img,), out_dir=tmp_path / "lib"))
    assert (tmp_path / "cli" / "psnr.csv").read_bytes() == (tmp_path / "lib" / "psnr.csv").read_bytes()
    assert {r.kernel for r in rows} == {DEFAULT_KERNEL}
    out = tmp_path / "filtered.pgm"
    assert invoke(runner, "filter", img, "--out", out).exit_code == 0
    write_pgm(box_filter(read_image(img), DEFAULT_KERNEL), tmp_path / "filtered_lib.pgm")
    assert out.read_bytes() == (tmp_path / "filtered_lib.pgm").read_bytes()


def test_retyped_defaults_read_one_constant(monkeypatch, tmp_path):
    option = {(name, p.name): p.default for name, cmd in main.commands.items() for p in cmd.params}
    assert option["filter", "kernel"] == DEFAULT_KERNEL
    assert (option["filter", "statistic"], option["filter", "mode"]) == (DEFAULT_STATISTIC, DEFAULT_FILTER_MODE)
    assert option["run", "kernels"] == (DEFAULT_KERNEL,)
    assert (option["run", "noise_kinds"], option["run", "statistics"]) == (NOISE_KINDS, STATISTICS)
    assert PipelineConfig.kernels == (DEFAULT_KERNEL,)
    assert option["scan", "criterion"] == option["run", "criterion"] == DEFAULT_CRITERION
    assert option["run", "adaptive_mode"] == DEFAULT_ADAPTIVE_MODE
    assert FILTER_MODES == ("square", *(f"adaptive-{m}" for m in ADAPTIVE_MODES))
    assert (PipelineConfig.criterion, PipelineConfig.adaptive_mode) == (DEFAULT_CRITERION, DEFAULT_ADAPTIVE_MODE)
    assert inspect.signature(scan_parallel_fused).parameters["criterion"].default == DEFAULT_CRITERION
    assert inspect.signature(adaptive_filter).parameters["mode"].default == DEFAULT_ADAPTIVE_MODE
    for fn in (box_filter, adaptive_filter):
        assert inspect.signature(fn).parameters["statistic"].default == DEFAULT_STATISTIC
    monkeypatch.setattr("sys.argv", ["run_experiment.py", "--out-dir", str(tmp_path)])
    args = experiment_script().parse_args()
    assert (args.criterion, args.adaptive_mode) == (DEFAULT_CRITERION, DEFAULT_ADAPTIVE_MODE)


def test_experiment_tables_use_the_middle_kernel_size_whatever_the_flag_order(monkeypatch, capsys, tmp_path):
    images = tmp_path / "images"
    images.mkdir()
    write_fixture(images / "a.pgm")
    write_pgm(255.0 - disks(36), images / "b.pgm")
    (images / "sub.pgm").mkdir()  # only regular files are inputs
    argv = ["run_experiment.py", "--out-dir", str(tmp_path / "out"), "--images", str(images), "--kernels", "7", "3", "5"]
    monkeypatch.setattr("sys.argv", argv)
    experiment_script().main()
    out = capsys.readouterr().out
    assert "PSNR (dB) at k=5, mean statistic" in out
    assert f"{'k=3':>9} {'k=7':>9}" in out


def test_run_options_are_the_pipeline_config_fields():
    # `run` hands its options to PipelineConfig by name, so the two lists
    # and their defaults must agree
    params = {p.name: p for p in main.commands["run"].params if p.name != "inputs"}
    fields = {f.name: f for f in dataclasses.fields(PipelineConfig) if f.name != "inputs"}
    assert sorted(params) == sorted(fields)
    for name, field in fields.items():
        if name == "out_dir":
            assert params[name].required
        else:
            assert params[name].default == field.default, name


def test_pgm_output_is_quantized(runner, tmp_path):
    img = tmp_path / "x.pgm"
    write_fixture(img)
    out = tmp_path / "n.pgm"
    result = invoke(runner, "noise", img, "--out", out, "--kind", "gaussian")
    assert result.exit_code == 0
    values = read_image(out)
    assert np.array_equal(values, np.floor(values))
    assert values.min() >= 0.0
    assert values.max() <= 255.0
