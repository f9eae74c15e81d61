"""Acceptance gate: the eight build criteria, one test and one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each criterion also stands alone as a named test. Criterion 5 prefers real
photographs: drop 512x512 PGMs into an `images/` directory at the repo
root (or point VARIPIX_IMAGE_DIR at one) and it benchmarks those instead
of the synthetic fixtures, passing when the PSNR ordering holds on at
least 80 percent of them per noise type.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np
import pytest

from varipix import (
    NoiseSpec,
    PipelineConfig,
    adaptive_filter,
    apply_noise,
    box_filter,
    builtin_masks,
    evaluate_image,
    mse,
    psnr,
    rotate90,
    scan_parallel_fused,
    scan_square,
)
from varipix.noise import NOISE_KINDS
from varipix.synth import fixture_images

from .reference import (
    loop_select_apply,
    naive_adaptive_filter,
    naive_region_apply,
    naive_select_mask,
    naive_square_error,
    region_connected,
)

BLOCK = 6


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --- criterion 1: mask suite ------------------------------------------------

def test_criterion_1_mask_suite():
    masks = builtin_masks()
    ok = len(masks) == 8
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            ok = ok and not np.array_equal(masks[i].cells, masks[j].cells)
    for m in masks:
        ok = ok and m.region_sizes() == (15, 21)
        ok = ok and region_connected(m.cells, 0) and region_connected(m.cells, 1)
        rot = m
        for _ in range(4):
            rot = rotate90(rot)
        ok = ok and np.array_equal(rot.cells, m.cells) and rot.orientation == m.orientation
    verdict(1, ok, "8 pairwise-distinct masks, 15+21 connected cells, rotate90^4 identity")


# --- criterion 2: scanner oracle --------------------------------------------

def test_criterion_2_scanner_oracle():
    masks = builtin_masks()
    rng = np.random.default_rng(60601)
    images = [rng.random((60, 60)) * 255.0 for _ in range(10)]

    fused_exact = True
    naive_agrees = True
    square_exact = True
    blocks_total = 0
    blocks_never_worse = 0
    worst_mean_drift = 0.0
    for img in images:
        fused = scan_parallel_fused(img, masks)
        square = scan_square(img)
        for br in range(10):
            for bc in range(10):
                rows = slice(br * BLOCK, (br + 1) * BLOCK)
                cols = slice(bc * BLOCK, (bc + 1) * BLOCK)
                block = img[rows, cols]

                index, direct = loop_select_apply(block, masks)
                got = fused.image[rows, cols]
                fused_exact = (
                    fused_exact
                    and np.array_equal(got, direct)
                    and fused.chosen_masks[br, bc] == index
                    and np.array_equal(
                        fused.labels[rows, cols], masks[index].cells.astype(np.int64)
                    )
                )
                # the naive oracle sums in another order: its pick may differ only on a rounding tie
                naive_index, naive_best = naive_select_mask(block, masks)
                if naive_index != index:
                    _, chosen = naive_region_apply(block, masks[index].cells)
                    naive_agrees = naive_agrees and 0 < naive_best and abs(chosen - naive_best) <= 1e-9 * naive_best

                # square baseline and its error from the brute-force oracle
                naive_mean, naive_err = naive_square_error(block)
                square_exact = square_exact and abs(square[rows, cols][0, 0] - naive_mean) <= 1e-9
                variable_err = float(((block - got) ** 2).sum())
                blocks_total += 1
                blocks_never_worse += variable_err <= naive_err

                worst_mean_drift = max(worst_mean_drift, abs(got.mean() - block.mean()))

    ok = (
        fused_exact
        and naive_agrees
        and square_exact
        and blocks_never_worse == blocks_total
        and worst_mean_drift <= 1e-9
    )
    verdict(
        2,
        ok,
        f"fused==loop reference exact, naive picks up to rounding ties on 10 images; recon_error never worse than square on "
        f"{blocks_never_worse}/{blocks_total} blocks; max block-mean drift {worst_mean_drift:.2e} <= 1e-9",
    )


# --- criterion 3: naive reference for the adaptive filter -------------------

def test_criterion_3_adaptive_filter_matches_naive_reference():
    rng = np.random.default_rng(64641)
    mismatches = []
    checked = 0
    for pair in range(10):
        img = rng.random((64, 64)) * 255.0
        labels = rng.integers(0, 2, size=(64, 64), dtype=np.int64)
        for k in (1, 3, 5, 7):
            for statistic in ("mean", "median"):
                for mode in ("literal", "block"):
                    got = adaptive_filter(img, labels, k, statistic, mode)
                    want = naive_adaptive_filter(img, labels, k, statistic, mode)
                    checked += 1
                    if not np.array_equal(got, want):
                        mismatches.append((pair, k, statistic, mode))
    ok = not mismatches and checked == 160
    verdict(
        3,
        ok,
        f"optimized == naive bit-exact on {checked}/160 cases "
        f"(10 pairs x k in {{1,3,5,7}} x both statistics x both modes)"
        + (f"; first mismatch {mismatches[0]}" if mismatches else ""),
    )


# --- criterion 4: degenerate equivalences ------------------------------------

def test_criterion_4_degenerate_equivalences():
    rng = np.random.default_rng(40404)
    ok = True

    img = rng.random((30, 24)) * 255.0
    uniform = np.zeros(img.shape, dtype=np.int64)
    for k in (1, 3, 5, 7):
        for statistic in ("mean", "median"):
            a = adaptive_filter(img, uniform, k, statistic, "literal")
            b = box_filter(img, k, statistic)
            ok = ok and np.array_equal(a, b)

    labels = rng.integers(0, 2, size=img.shape, dtype=np.int64)
    for statistic in ("mean", "median"):
        for mode in ("literal", "block"):
            ok = ok and np.array_equal(adaptive_filter(img, labels, 1, statistic, mode), img)
    ok = ok and np.array_equal(box_filter(img, 1, "mean"), img)

    flat = np.full((24, 24), 77.0)
    masks = builtin_masks()
    square = scan_square(flat)
    fused = scan_parallel_fused(flat, masks)
    ok = ok and np.array_equal(square, flat) and np.array_equal(fused.image, flat)
    zero_specs = (
        NoiseSpec("salt_pepper", density=0.0, seed=42),
        NoiseSpec("gaussian", sigma=0.0, seed=42),
        NoiseSpec("speckle", variance=0.0, seed=42),
    )
    from varipix import apply_noise

    for spec in zero_specs:
        noisy = apply_noise(fused.image, spec)
        ok = ok and np.array_equal(noisy, flat)
        for statistic in ("mean", "median"):
            filtered = adaptive_filter(noisy, fused.labels, 5, statistic, "literal")
            ok = ok and np.array_equal(filtered, flat)
            ok = ok and mse(flat, filtered) == 0.0 and psnr(flat, filtered) == math.inf
            boxed = box_filter(apply_noise(square, spec), 5, statistic)
            ok = ok and psnr(flat, boxed) == math.inf
    verdict(
        4,
        ok,
        "uniform labels == box filter (exact); k=1 identity; constant image survives "
        "scan/zero-noise/filter unchanged with infinite PSNR",
    )


# --- criteria 5 and 6: benchmark orderings -----------------------------------

def _benchmark_images() -> dict[str, np.ndarray]:
    root = os.environ.get("VARIPIX_IMAGE_DIR") or Path(__file__).resolve().parents[1] / "images"
    root = Path(root)
    if root.is_dir():
        from varipix import read_image

        found = {p.stem: read_image(p) for p in sorted(root.glob("*.pgm"))}
        if found:
            return found
    return fixture_images()


@pytest.fixture(scope="module")
def benchmark_psnr():
    """PSNR keyed by (image, noise, pipeline, kernel), mean statistic, defaults."""
    cfg = PipelineConfig(inputs=(), kernels=(3, 5, 7), statistics=("mean",))
    masks = builtin_masks()
    table = {}
    names = []
    for name, img in _benchmark_images().items():
        names.append(name)
        for row in evaluate_image(name, img, cfg, masks):
            table[(row.image, row.noise, row.pipeline, row.kernel)] = row.psnr_db
    return names, table


def test_criterion_5_psnr_ordering(benchmark_psnr):
    names, table = benchmark_psnr
    threshold = math.ceil(0.8 * len(names))
    counts = {}
    for kind in NOISE_KINDS:
        good = 0
        for name in names:
            sq = table[(name, kind, "square", 5)]
            var = table[(name, kind, "variable", 5)]
            ada = table[(name, kind, "adaptive", 5)]
            good += ada > var > sq
        counts[kind] = good
    ok = all(good >= threshold for good in counts.values())
    detail = ", ".join(f"{kind} {good}/{len(names)}" for kind, good in counts.items())
    verdict(
        5,
        ok,
        f"PSNR(adaptive) > PSNR(variable) > PSNR(square) at k=5 mean on {detail} "
        f"(need >= {threshold} per noise type)",
    )


def test_criterion_6_gap_grows_with_kernel(benchmark_psnr):
    names, table = benchmark_psnr
    majority = len(names) // 2 + 1
    counts = {}
    for kind in NOISE_KINDS:
        grew = 0
        for name in names:
            gap3 = table[(name, kind, "adaptive", 3)] - table[(name, kind, "variable", 3)]
            gap7 = table[(name, kind, "adaptive", 7)] - table[(name, kind, "variable", 7)]
            grew += gap7 > gap3
        counts[kind] = grew
    ok = all(grew >= majority for grew in counts.values())
    detail = ", ".join(f"{kind} {grew}/{len(names)}" for kind, grew in counts.items())
    verdict(
        6,
        ok,
        f"adaptive-vs-variable PSNR gap at k=7 exceeds k=3 on {detail} "
        f"(need >= {majority} per noise type)",
    )


# --- criterion 7: noise statistics -------------------------------------------

def test_criterion_7_noise_statistics():
    ok = True

    img = np.full((512, 512), 128.0)
    out = apply_noise(img, NoiseSpec("salt_pepper", density=0.05, seed=42))
    changed = int(np.count_nonzero(out != 128.0))
    n = img.size
    expected = 0.05 * n
    sigma = math.sqrt(n * 0.05 * 0.95)
    sp_ok = abs(changed - expected) <= 4.0 * sigma
    ok = ok and sp_ok

    gout = apply_noise(img, NoiseSpec("gaussian", sigma=10.0, seed=42))
    mean_bound = 4.0 * 10.0 / math.sqrt(n)
    gauss_ok = abs(gout.mean() - 128.0) <= mean_bound
    ok = ok and gauss_ok

    sout = apply_noise(np.full((512, 512), 100.0), NoiseSpec("speckle", variance=0.04, seed=42))
    sample_std = float((sout - 100.0).std())
    speckle_ok = abs(sample_std - 20.0) <= 0.05 * 20.0
    ok = ok and speckle_ok

    rng = np.random.default_rng(777)
    noisy_src = rng.random((64, 64)) * 255.0
    det_ok = True
    for kind in NOISE_KINDS:
        spec = NoiseSpec(kind, seed=42)
        det_ok = det_ok and apply_noise(noisy_src, spec).tobytes() == apply_noise(noisy_src, spec).tobytes()
    ok = ok and det_ok

    verdict(
        7,
        ok,
        f"S&P count {changed} within 4 sigma of {expected:.0f} (sigma {sigma:.1f}); "
        f"gaussian mean off by {abs(gout.mean() - 128.0):.4f} <= {mean_bound:.4f}; "
        f"speckle std {sample_std:.3f} within 5% of 20; same-seed outputs byte-exact",
    )


# --- criterion 8: metrics -----------------------------------------------------

def test_criterion_8_metrics():
    zeros, ones = np.zeros((8, 8)), np.ones((8, 8))
    unit = psnr(zeros, ones)
    value_ok = mse(zeros, ones) == 1.0 and abs(unit - 48.1308) <= 1e-3

    rng = np.random.default_rng(888)
    sym_ok = True
    zero_ok = True
    for _ in range(5):
        a = rng.random((16, 16)) * 255.0
        b = rng.random((16, 16)) * 255.0
        sym_ok = sym_ok and psnr(a, b) == psnr(b, a)
        zero_ok = zero_ok and mse(a, a) == 0.0 and psnr(a, a) == math.inf

    ok = value_ok and sym_ok and zero_ok
    verdict(
        8,
        ok,
        f"psnr(mse=1, peak=255) = {unit:.6f} dB (48.1308 +- 1e-3); symmetric; mse(a,a)=0",
    )
