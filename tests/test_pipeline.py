"""Benchmark plumbing: row ordering, CSV shape, stage composition."""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from varipix import (
    NoiseSpec,
    PipelineConfig,
    PsnrRow,
    adaptive_filter,
    apply_noise,
    box_filter,
    builtin_masks,
    evaluate_image,
    pipeline,
    psnr,
    read_image,
    run_pipeline,
    scan_parallel_fused,
    scan_square,
    write_pgm,
)
from varipix.cli import main
from varipix.filters import ADAPTIVE_MODES, STATISTICS
from varipix.imgio import ImageFormatError
from varipix.noise import NOISE_KINDS
from varipix.pipeline import CSV_HEADER, PIPELINES, format_db, rows_to_csv
from varipix.scan import ScanResult
from varipix.synth import disks, fixture_images

from .conftest import random_image


def small_fixture():
    return disks(36)


def test_format_db():
    assert format_db(math.inf) == "inf"
    assert format_db(-math.inf) == "-inf"
    assert format_db(24.66) == "24.660000"
    assert format_db(48.130803) == "48.130803"


def test_rows_to_csv_header_and_layout():
    rows = [PsnrRow("img", "gaussian", "square", "mean", 5, 24.66)]
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "img,gaussian,square,mean,5,24.660000"
    assert text.endswith("\n")


def test_run_pipeline_produces_rows_in_canonical_order(tmp_path):
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(small_fixture(), a)
    write_pgm(255.0 - small_fixture(), b)
    rows = run_pipeline(PipelineConfig(
        inputs=(b, a),
        noise_kinds=("speckle", "salt_pepper", "gaussian"),
        kernels=(7, 3, 5, 3),
        statistics=("median", "mean"),
        out_dir=tmp_path / "shuffled",
    ))
    assert [(r.image, r.noise, r.pipeline, r.statistic, r.kernel) for r in rows] == list(
        itertools.product(("a", "b"), NOISE_KINDS, PIPELINES, STATISTICS, (3, 5, 7))
    )
    run_pipeline(PipelineConfig(
        inputs=(a, b),
        noise_kinds=NOISE_KINDS,
        kernels=(3, 5, 7),
        statistics=STATISTICS,
        out_dir=tmp_path / "canonical",
    ))
    shuffled = (tmp_path / "shuffled" / "psnr.csv").read_bytes()
    assert shuffled == (tmp_path / "canonical" / "psnr.csv").read_bytes()


def test_pipeline_config_is_frozen_and_stores_row_order(tmp_path):
    cfg = PipelineConfig(
        inputs=(str(tmp_path / "a" / "z.pgm"), tmp_path / "b" / "a.pgm"),
        noise_kinds=("speckle", "gaussian", "speckle"),
        kernels=(5, 1, 5, 3),
        statistics=("median", "mean"),
    )
    assert cfg.inputs == (tmp_path / "b" / "a.pgm", tmp_path / "a" / "z.pgm")
    assert cfg.noise_kinds == ("gaussian", "speckle")
    assert cfg.kernels == (1, 3, 5)
    assert cfg.statistics == ("mean", "median")
    for field in dataclasses.fields(PipelineConfig):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field.name, getattr(cfg, field.name))


def test_both_scans_crop_back_to_the_input_shape(masks, rng):
    img = random_image(rng, 20, 26)
    fused = scan_parallel_fused(img, masks)
    assert scan_square(img).shape == (20, 26)
    assert fused.image.shape == (20, 26)
    assert fused.labels.shape == (20, 26)
    assert fused.labels.dtype == np.uint8


def test_variable_scan_differs_from_the_square_scan_and_is_closer(masks):
    img = small_fixture()
    square, variable = scan_square(img), scan_parallel_fused(img, masks).image
    assert not np.array_equal(square, variable)
    # variable recon must be at least as close to the original overall
    assert psnr(img, variable) >= psnr(img, square)


def test_evaluate_image_row_count_and_names(masks):
    cfg = PipelineConfig(
        inputs=(),
        noise_kinds=("gaussian", "speckle"),
        kernels=(3, 5),
        statistics=("mean",),
    )
    rows = evaluate_image("disks", small_fixture(), cfg, masks)
    assert len(rows) == 2 * 2 * 1 * 3
    assert {r.image for r in rows} == {"disks"}
    assert {r.noise for r in rows} == {"gaussian", "speckle"}
    assert {r.pipeline for r in rows} == {"square", "variable", "adaptive"}
    assert all(r.statistic == "mean" for r in rows)
    assert all(math.isfinite(r.psnr_db) and r.psnr_db > 0 for r in rows)


def test_evaluate_image_matches_direct_stage_composition(masks):
    img = small_fixture()
    cfg = PipelineConfig(
        inputs=(), noise_kinds=("salt_pepper",), kernels=(3,), statistics=("mean", "median")
    )
    rows = {(r.pipeline, r.statistic): r.psnr_db for r in evaluate_image("d", img, cfg, masks)}

    square = scan_square(img)
    fused = scan_parallel_fused(img, masks, cfg.criterion)
    variable, labels = fused.image, fused.labels
    spec = NoiseSpec("salt_pepper", density=cfg.density, sigma=cfg.sigma,
                     variance=cfg.variance, seed=cfg.seed)
    noisy_square = apply_noise(square, spec)
    noisy_variable = apply_noise(variable, spec)
    for stat in ("mean", "median"):
        assert rows[("square", stat)] == psnr(img, box_filter(noisy_square, 3, stat))
        assert rows[("variable", stat)] == psnr(img, box_filter(noisy_variable, 3, stat))
        want = adaptive_filter(noisy_variable, labels, 3, stat, "literal")
        assert rows[("adaptive", stat)] == psnr(img, want)


def test_evaluate_image_draws_each_noise_once_for_both_scans(masks, monkeypatch):
    # per kind, one draw_noise, then one apply_noise on each (h, w) scan with that
    # very draw; the first kind is drawn beside the scans, in pipeline's namespace,
    # and a draw made inside apply_noise would be logged through noise's
    from varipix import noise

    calls = []  # (name, kind, shape, draw), in call order
    draw_noise = noise.draw_noise

    def drawn(shape, spec):
        draw = draw_noise(shape, spec)
        calls.append(("draw_noise", spec.kind, tuple(shape), draw))
        return draw

    def applied(img, spec, draw=None):
        calls.append(("apply_noise", spec.kind, img.shape, draw))
        return apply_noise(img, spec, draw)

    monkeypatch.setattr(pipeline, "draw_noise", drawn)
    monkeypatch.setattr(noise, "draw_noise", drawn)
    monkeypatch.setattr(pipeline, "apply_noise", applied)
    img = small_fixture()
    cfg = PipelineConfig(inputs=(), kernels=(3,), statistics=("mean",))
    rows = {(r.noise, r.pipeline): r.psnr_db for r in evaluate_image("d", img, cfg, masks)}
    names = ("draw_noise", "apply_noise", "apply_noise")
    assert [call[:3] for call in calls] == [(name, kind, img.shape) for kind in NOISE_KINDS for name in names]
    for draw, square, variable in zip(*[iter(calls)] * 3):
        assert square[3] is draw[3] and variable[3] is draw[3]
    square, variable = scan_square(img), scan_parallel_fused(img, masks).image
    for kind in NOISE_KINDS:
        spec = cfg.noise_spec(kind)
        assert rows[(kind, "square")] == psnr(img, box_filter(apply_noise(square, spec), 3))
        assert rows[(kind, "variable")] == psnr(img, box_filter(apply_noise(variable, spec), 3))


@pytest.mark.parametrize("mode", ["literal", "block"])
def test_evaluate_image_writes_no_array_a_stage_was_given_or_returned(masks, monkeypatch, tmp_path, mode):
    # Wrapped as bench/tracing.py wraps them; a benchmark probe keeps stage inputs and
    # outputs for its oracle check, so a reused buffer must not overwrite any of them.
    from varipix import pipeline

    seen = []  # (name, array, its bytes when the stage was given it or returned it)

    def keep(name, value):
        arrays = (value.image, value.labels, value.chosen_masks) if isinstance(value, ScanResult) else (value,)
        seen.extend((name, a, a.tobytes()) for a in arrays if isinstance(a, np.ndarray))

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            for value in (*args, *kwargs.values()):
                keep(name, value)
            result = fn(*args, **kwargs)
            keep(name, result)
            return result

        return wrapper

    names = ("scan_square", "scan_parallel_fused", "apply_noise", "box_filter", "adaptive_filter", "psnr")
    for name in (*names, "write_raw", "write_labelmap"):
        monkeypatch.setattr(pipeline, name, wrap(name, getattr(pipeline, name)))
    img = disks(40)  # partial blocks at the right and bottom
    clean = img.copy()
    cfg = PipelineConfig(
        inputs=(), kernels=(3, 5), adaptive_mode=mode, out_dir=tmp_path, dump_intermediates=True, raw_intermediates=True
    )
    rows = evaluate_image("d", img, cfg, masks)
    assert len(rows) == len(NOISE_KINDS) * len(PIPELINES) * 2 * 2
    assert {name for name, _, _ in seen} >= {*names, "write_raw", "write_labelmap"}
    assert [name for name, a, before in seen if a.tobytes() != before] == []
    assert img.tobytes() == clean.tobytes()


def test_run_pipeline_writes_sorted_csv(masks, tmp_path):
    a = tmp_path / "aaa.pgm"
    b = tmp_path / "bbb.pgm"
    write_pgm(small_fixture(), a)
    write_pgm(255.0 - small_fixture(), b)
    out_dir = tmp_path / "out"
    cfg = PipelineConfig(
        inputs=(b, a),
        noise_kinds=("gaussian",),
        kernels=(3,),
        statistics=("mean",),
        out_dir=out_dir,
    )
    rows = run_pipeline(cfg)
    assert [(r.image, r.pipeline) for r in rows] == [
        ("aaa", "square"), ("aaa", "variable"), ("aaa", "adaptive"),
        ("bbb", "square"), ("bbb", "variable"), ("bbb", "adaptive"),
    ]
    csv_path = out_dir / "psnr.csv"
    assert csv_path.read_text() == rows_to_csv(rows)


def test_run_pipeline_is_deterministic(tmp_path):
    path = tmp_path / "d.pgm"
    write_pgm(small_fixture(), path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    rows_a = run_pipeline(PipelineConfig(inputs=(path,), kernels=(3,), out_dir=out_a))
    rows_b = run_pipeline(PipelineConfig(inputs=(path,), kernels=(3,), out_dir=out_b))
    assert rows_a == rows_b
    assert (out_a / "psnr.csv").read_bytes() == (out_b / "psnr.csv").read_bytes()


def test_run_pipeline_zero_noise_constant_image_is_lossless(tmp_path):
    path = tmp_path / "flat.pgm"
    write_pgm(np.full((24, 24), 77.0), path)
    cfg = PipelineConfig(
        inputs=(path,),
        density=0.0,
        sigma=0.0,
        variance=0.0,
        kernels=(3, 5),
    )
    rows = run_pipeline(cfg)
    assert len(rows) == 3 * 3 * 2 * 2
    assert all(r.psnr_db == math.inf for r in rows)


def test_run_pipeline_rejects_empty_inputs():
    with pytest.raises(ValueError, match="at least one input"):
        run_pipeline(PipelineConfig(inputs=()))


def test_run_pipeline_rejects_inputs_that_share_a_stem(tmp_path):
    paths = (tmp_path / "a" / "x.pgm", tmp_path / "a" / "x.rawimg", tmp_path / "b" / "x.pgm")
    for path in paths:
        path.parent.mkdir(exist_ok=True)
        write_pgm(small_fixture(), path)
    out_dir = tmp_path / "out"
    with pytest.raises(ValueError, match="stem 'x'") as err:
        run_pipeline(PipelineConfig(inputs=paths, out_dir=out_dir))
    assert all(str(path) in str(err.value) for path in paths)
    assert not out_dir.exists()


def test_run_pipeline_rejects_unknown_noise(tmp_path):
    path = tmp_path / "d.pgm"
    write_pgm(small_fixture(), path)
    with pytest.raises(ValueError, match="unknown noise kind"):
        run_pipeline(PipelineConfig(inputs=(path,), noise_kinds=("shot",)))


@pytest.mark.parametrize(
    "setting, match",
    [
        ({"density": 2.0}, "density"),
        ({"sigma": -1.0}, "sigma"),
        ({"variance": math.nan}, "variance"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
        ({"seed": True}, "seed must be an integer >= 0, got True"),
        ({"kernels": (3, 4)}, "kernel size"),
        ({"kernels": (True,)}, "kernel size must be an odd integer >= 1, got True"),
        ({"statistics": ("mean", "mode")}, "unknown statistic 'mode'"),
        ({"adaptive_mode": "blob"}, "unknown adaptive mode 'blob'"),
        ({"criterion": "best"}, "unknown selection criterion 'best'"),
        ({"out_dir": None}, "dump_intermediates requires out_dir"),
        ({"out_dir": None, "raw_intermediates": True}, "dump_intermediates requires out_dir"),
        ({"dump_intermediates": False, "raw_intermediates": True}, "raw_intermediates requires dump_intermediates"),
        ({"noise_kinds": ()}, "noise_kinds must not be empty"),
        ({"kernels": ()}, "kernels must not be empty"),
        ({"statistics": ()}, "statistics must not be empty"),
    ],
    ids=[
        "density", "sigma", "variance", "negative-seed", "float-seed", "bool-seed",
        "kernel", "bool-kernel", "statistic", "adaptive-mode", "criterion",
        "dump-without-out-dir", "raw-dump-without-out-dir", "raw-without-dump",
        "no-noise-kinds", "no-kernels", "no-statistics",
    ],
)
def test_bad_settings_are_rejected_before_anything_is_written(tmp_path, setting, match):
    path = tmp_path / "d.pgm"
    write_pgm(small_fixture(), path)
    out_dir = tmp_path / "out"
    with pytest.raises(ValueError, match=match):
        cfg = PipelineConfig(**{"inputs": (path,), "out_dir": out_dir, "dump_intermediates": True, **setting})
        run_pipeline(cfg)
    assert not out_dir.exists()


def test_missing_later_input_is_found_before_anything_is_written(tmp_path):
    path = tmp_path / "a.pgm"
    write_pgm(small_fixture(), path)
    out_dir = tmp_path / "o"
    cfg = PipelineConfig(
        inputs=(path, tmp_path / "z_missing.pgm"), kernels=(3,), out_dir=out_dir, dump_intermediates=True
    )
    with pytest.raises(FileNotFoundError):
        run_pipeline(cfg)
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "content, match",
    [
        (b"P6\n2 2\n255\n" + bytes(12), "unrecognized image format"),
        (b"P5\n2 0\n255\n", "bad dimensions"),
        (b"P2\n2 2\n65535\n0 1 2 3\n", "unsupported maxval"),
        (b"rawgray 2 x\n0.0 1.0\n", "non-integer dimension"),
    ],
)
def test_malformed_later_input_header_is_found_before_anything_is_written(tmp_path, content, match):
    # each header is checked before out_dir is made, without reading any input's samples
    path = tmp_path / "a.pgm"
    write_pgm(small_fixture(), path)
    bad = tmp_path / "z_bad.pgm"
    bad.write_bytes(content)
    out_dir = tmp_path / "o"
    cfg = PipelineConfig(inputs=(path, bad), kernels=(3,), out_dir=out_dir, dump_intermediates=True)
    with pytest.raises(ImageFormatError, match=match):
        run_pipeline(cfg)
    assert not out_dir.exists()


def test_dumped_raw_intermediates_match_stage_values(masks, tmp_path):
    img = small_fixture()
    path = tmp_path / "disks.pgm"
    write_pgm(img, path)
    out_dir = tmp_path / "out"
    cfg = PipelineConfig(
        inputs=(path,),
        noise_kinds=("gaussian",),
        kernels=(3,),
        statistics=("mean",),
        out_dir=out_dir,
        dump_intermediates=True,
        raw_intermediates=True,
    )
    run_pipeline(cfg)

    clean = np.asarray(img, dtype=np.float64)
    square = scan_square(clean)
    fused = scan_parallel_fused(clean, masks)
    variable, labels = fused.image, fused.labels
    assert np.array_equal(read_image(out_dir / "disks_square.rawimg"), square)
    assert np.array_equal(read_image(out_dir / "disks_variable.rawimg"), variable)
    spec = NoiseSpec("gaussian", seed=42)
    noisy = apply_noise(variable, spec)
    assert np.array_equal(read_image(out_dir / "disks_gaussian_variable_noisy.rawimg"), noisy)
    filtered = adaptive_filter(noisy, labels, 3, "mean", "literal")
    assert np.array_equal(read_image(out_dir / "disks_gaussian_adaptive_mean_k3.rawimg"), filtered)


def _fixture_crops(tmp_path):
    """40x46 crops of the five fixtures: partial 6x6 blocks at the right and bottom."""
    paths = []
    for name, img in fixture_images().items():
        paths.append(tmp_path / f"{name}.pgm")
        write_pgm(img[50:90, 60:106], paths[-1])
    return tuple(paths)


@pytest.mark.parametrize("mode", ADAPTIVE_MODES)
def test_worker_count_never_changes_a_byte_of_psnr_csv_or_the_dumps(monkeypatch, tmp_path, mode):
    inputs = _fixture_crops(tmp_path)
    for statistics in (STATISTICS, ("mean",)):  # mean-only lists get the helper too
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(pipeline, "_worker_count", lambda workers=workers: workers)
            out_dir = tmp_path / f"{len(statistics)}-workers{workers}"
            run_pipeline(PipelineConfig(
                inputs=inputs, kernels=(3, 5), statistics=statistics, adaptive_mode=mode, out_dir=out_dir,
                dump_intermediates=True, raw_intermediates=True,
            ))
            outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
        # per image: two scans and the labels, then per noise kind two noisy scans and 6 filtered images per statistic
        assert len(outputs[0]) == 1 + 5 * (3 + len(NOISE_KINDS) * (2 + 6 * len(statistics)))
        assert sum(name.endswith("_noisy.rawimg") for name in outputs[0]) == 5 * len(NOISE_KINDS) * 2
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


def test_dumps_are_written_one_at_a_time_whatever_the_worker_count(monkeypatch, tmp_path):
    # A wrapper on the writer names, as a benchmark probe that counts each
    # dump's bytes after the call puts there, never sees two writes at once.
    inputs = _fixture_crops(tmp_path)[:2]
    running, most, writers = [], [0], set()

    def counted(fn):
        def wrapper(img, path):
            running.append(path)
            most[0] = max(most[0], len(running))
            writers.add(threading.current_thread().name)
            time.sleep(1e-3)  # time for another worker to start a write
            try:
                return fn(img, path)
            finally:
                running.remove(path)

        return wrapper

    monkeypatch.setattr(pipeline, "_worker_count", lambda: 3)
    for name in ("write_raw", "write_pgm"):
        monkeypatch.setattr(pipeline, name, counted(getattr(pipeline, name)))
    for raw in (False, True):
        run_pipeline(PipelineConfig(
            inputs=inputs, kernels=(3, 5), statistics=("mean",), out_dir=tmp_path / f"raw{int(raw)}",
            dump_intermediates=True, raw_intermediates=raw,
        ))
    assert most == [1]
    assert any(name.startswith("varipix-task") for name in writers), writers  # helpers wrote dumps too


def test_tasks_under_frequent_thread_switches(monkeypatch, masks):
    # More workers than cores and a short switch interval: a row lost, scored
    # twice or sent back to the wrong index shows here.
    img = fixture_images()["pinwheel"][:64, :40]
    cfg = PipelineConfig(inputs=(), kernels=(1, 3, 5))
    monkeypatch.setattr(pipeline, "_worker_count", lambda: 1)
    want = evaluate_image("p", img, cfg, masks)
    monkeypatch.setattr(pipeline, "_worker_count", lambda: 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            assert evaluate_image("p", img, cfg, masks) == want
    finally:
        sys.setswitchinterval(interval)


def test_the_first_failure_stops_the_tasks_and_is_raised_once():
    calls = []

    def task(i):
        calls.append(i)
        if i >= 3:
            raise ValueError(i)
        return i

    with pytest.raises(ValueError, match="^3$"):
        pipeline._run_tasks(task, list(range(8)), 1)
    assert calls == [0, 1, 2, 3]
    calls.clear()

    def failing(i):
        calls.append(i)
        raise ValueError(i)

    with pytest.raises(ValueError) as err:
        pipeline._run_tasks(failing, list(range(8)), 2)
    # each worker stops at its own failure, and none takes a task after the first
    assert 1 <= len(calls) <= 2 and err.value.args[0] in calls


def test_a_dump_that_fails_on_a_helper_thread_exits_3_and_leaves_no_task_running(monkeypatch, tmp_path):
    path = tmp_path / "d.pgm"
    write_pgm(small_fixture(), path)
    monkeypatch.setattr(pipeline, "_worker_count", lambda: 2)
    write = pipeline.write_image
    failed_on, running = [], []

    def write_image(img, out, raw):
        # The caller holds its first filtered dump until a helper's dump has
        # failed, so the failing dump, a later task on the list, runs on the helper.
        if threading.current_thread() is threading.main_thread() and "_k3" in out.name:
            assert helper_failed.wait(30)
        try:
            write(img, out, raw)
        except OSError:
            failed_on.append(threading.current_thread().name)
            helper_failed.set()
            raise

    def counted(fn):
        def wrapper(*args, **kwargs):
            running.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                running.remove(fn)

        return wrapper

    monkeypatch.setattr(pipeline, "write_image", write_image)
    for name in ("box_filter", "adaptive_filter", "psnr"):
        monkeypatch.setattr(pipeline, name, counted(getattr(pipeline, name)))
    # the last filter task, and the last noisy-plane dump, a task after the filter tasks
    for via_cli, failing in itertools.product((False, True), ("adaptive_mean_k3", "variable_noisy")):
        helper_failed = threading.Event()
        failed_on.clear()
        out_dir = tmp_path / f"out{int(via_cli)}-{failing}"
        (out_dir / f"d_gaussian_{failing}.pgm").mkdir(parents=True)
        if via_cli:
            result = CliRunner().invoke(main, ["run", str(path), "--out-dir", str(out_dir), "--noise", "gaussian",
                                               "--kernel", "3", "--dump-intermediates"])
            assert result.exit_code == 3, result.output
        else:
            with pytest.raises(OSError):
                run_pipeline(PipelineConfig(
                    inputs=(path,), noise_kinds=("gaussian",), kernels=(3,), out_dir=out_dir, dump_intermediates=True
                ))
        assert len(failed_on) == 1 and failed_on[0].startswith("varipix-task"), failed_on
        assert running == []  # every helper was done before the error reached the caller
        assert not (out_dir / "psnr.csv").exists()


@pytest.mark.parametrize("failing", ["scan_parallel_fused", "draw_noise"])
def test_a_scan_stage_failure_on_the_helper_is_raised_once_and_leaves_no_task_running(monkeypatch, masks, failing):
    # The stage list is [fused scan, square scan then the first draw]. The
    # helper is held so that it takes the failing task: the first, when the
    # fused scan fails, by holding the caller until the helper has begun;
    # the second, when the draw fails, by holding the helper until the caller
    # has begun. The caller's task then waits for the helper's.
    real_pool = pipeline._pool
    main_in, helper_in = threading.Event(), threading.Event()
    failed_on, running = [], []

    class Gate:
        def __init__(self, pool):
            self.pool = pool

        def submit(self, fn):
            if failing == "draw_noise":
                return self.pool.submit(lambda: (main_in.wait(30), fn())[1])
            future = self.pool.submit(fn)
            assert helper_in.wait(30)
            return future

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            on_helper = threading.current_thread() is not threading.main_thread()
            running.append(name)
            try:
                if name != "draw_noise":  # the first call of each stage task
                    (helper_in if on_helper else main_in).set()
                    if not on_helper:
                        assert helper_in.wait(30)
                if name == failing and on_helper:
                    failed_on.append(threading.current_thread().name)
                    raise RuntimeError(name)
                return fn(*args, **kwargs)
            finally:
                running.remove(name)

        return wrapper

    monkeypatch.setattr(pipeline, "_worker_count", lambda: 2)
    monkeypatch.setattr(pipeline, "_pool", lambda *args: Gate(real_pool(*args)))
    for name in ("scan_parallel_fused", "scan_square", "draw_noise"):
        monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
    with pytest.raises(RuntimeError, match=f"^{failing}$"):
        evaluate_image("d", small_fixture(), PipelineConfig(inputs=(), noise_kinds=("gaussian",)), masks)
    assert len(failed_on) == 1 and failed_on[0].startswith("varipix-task"), failed_on
    assert running == []  # the caller's task was done before the error reached it


def test_one_worker_starts_no_pool_thread(monkeypatch, masks):
    def no_pool(*args):
        raise AssertionError("a pool was asked for")

    monkeypatch.setattr(pipeline, "_worker_count", lambda: 1)
    monkeypatch.setattr(pipeline, "_pool", no_pool)
    before = set(threading.enumerate())
    rows = evaluate_image("d", small_fixture(), PipelineConfig(inputs=(), kernels=(3, 5)), masks)
    assert len(rows) == len(NOISE_KINDS) * len(PIPELINES) * len(STATISTICS) * 2
    assert set(threading.enumerate()) == before


def test_one_worker_runs_medians_then_larger_k_then_the_adaptive_filter_first(monkeypatch, masks):
    # the filter tasks of a noise kind, as one worker pulls them: longest first
    calls = []

    def record(name, filt):
        def wrapped(img, *args):
            k, statistic = (args[1], args[2]) if name == "adaptive" else (args[0], args[1])
            calls.append((name, statistic, k))
            return filt(img, *args)

        return wrapped

    monkeypatch.setattr(pipeline, "_worker_count", lambda: 1)
    monkeypatch.setattr(pipeline, "adaptive_filter", record("adaptive", pipeline.adaptive_filter))
    monkeypatch.setattr(pipeline, "box_filter", record("box", pipeline.box_filter))
    cfg = PipelineConfig(inputs=(), noise_kinds=("gaussian",), kernels=(3, 5))
    evaluate_image("d", small_fixture(), cfg, masks)
    # the box filters run for the square and the variable pipeline, in that order
    assert calls == [
        (name, statistic, k)
        for statistic in ("median", "mean")
        for k in (5, 3)
        for name in ("adaptive", "box", "box")
    ]


@pytest.mark.parametrize(
    "workers, noise_kinds, bound",
    [(1, NOISE_KINDS, 5.5), (2, NOISE_KINDS, 6.8), (2, ("gaussian",), 5.2)],
    ids=["one-worker", "two-workers", "two-workers-one-noise"],
)
def test_evaluate_image_memory_is_one_filtered_image_and_filter_scratch_per_worker(
    monkeypatch, masks, workers, noise_kinds, bound
):
    # In image sizes above the clean image: the two scans (2) until the last
    # noise kind is applied, two noisy planes (2), the labels (0.125), and per
    # worker one filtered image together with its filter's band scratch (at
    # most 1.29 here, the k = 3 adaptive median), so 5.41 on one worker and
    # 6.66 on two. PSNR holds one node of its pairwise sum (0.06), not a
    # difference image. For one noise kind on two workers the scans are gone
    # before its tasks, and the peak, 5.13, is where the noise is applied: the
    # two scans, the two noisy planes and the noise plane. What the call
    # leaves traced is the interpreter's own bookkeeping, not counted: about
    # 0.12 for each block of obmalloc's arena map, allocated when a new arena
    # lands in an unmapped address range. A first call on a crop makes the
    # lazy imports and the pool before tracing starts.
    monkeypatch.setattr(pipeline, "_worker_count", lambda: workers)
    img = disks(1024)[:, :1022].copy()
    cfg = PipelineConfig(inputs=(), noise_kinds=noise_kinds, kernels=(3, 7))
    evaluate_image("d", img[:64, :64].copy(), cfg, masks)
    tracemalloc.start()
    try:
        evaluate_image("d", img, cfg, masks)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert left < 0.5 * img.nbytes, left / img.nbytes  # no image outlives the call
    assert peak - left < bound * img.nbytes, (peak - left) / img.nbytes
