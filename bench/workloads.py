"""The benchmark's workloads: inputs made from a seed, one job, its checks.

A job is one whole `run_pipeline` call or one `varipix run` CLI invocation,
from input files on disk to `psnr.csv` written. The seed picks the noise
seed the job is run with, the synthetic image of `scan_heavy`, and the
oracle crop; it never changes how much work a job does.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NOISES = ("salt_pepper", "gaussian", "speckle")
CROP_BLOCKS = 4  # oracle crop side, in 6x6 blocks
BLOCK = 6


@dataclass(frozen=True)
class Workload:
    name: str
    noises: tuple[str, ...]
    kernels: tuple[int, ...]
    statistics: tuple[str, ...]
    via_cli: bool  # `varipix run` in-process instead of run_pipeline
    # share of a job's time whose speed follows the calibration's Python
    # part; the rest follows its median part (see "Host speed" in README.md)
    python_share: float
    dumps: bool = False  # .rawimg inputs, raw intermediates dumped, block-mode adaptive filter


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fixtures_sweep", NOISES, (3, 5, 7), ("mean", "median"), via_cli=False, python_share=0.0),
        Workload("scan_heavy", ("gaussian",), (3,), ("mean",), via_cli=True, python_share=1.0),
        Workload("dump_roundtrip", NOISES, (3, 5, 7), ("mean",), via_cli=True, python_share=0.25, dumps=True),
    )
}


# ---- inputs -----------------------------------------------------------------------
# The benchmark writes its own input files so that they do not depend on the
# program's writer.


def _write_pgm(img, path: Path) -> None:
    h, w = img.shape
    samples = np.floor(np.clip(img, 0.0, 255.0) + 0.5).astype(np.uint8)
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + samples.tobytes())


def _write_raw(img, path: Path) -> None:
    h, w = img.shape
    rows = (" ".join(repr(float(v)) for v in row) for row in img)
    path.write_text(f"rawgray {w} {h}\n" + "".join(r + "\n" for r in rows))


def _read_raw(path: Path) -> np.ndarray:
    header, body = path.read_text().split("\n", 1)
    _, w, h = header.split()
    return np.array(body.split(), dtype=np.float64).reshape(int(h), int(w))


def photo_like(rng: np.random.Generator, width: int = 509, height: int = 512) -> np.ndarray:
    """Piecewise-smooth discs over a ramp plus mild texture, values in [0, 255].

    Draws only uniform variates, whose stream numpy keeps stable.
    """
    y, x = np.indices((height, width), dtype=np.float64)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    t = x * np.cos(angle) + y * np.sin(angle)
    img = 40.0 + 160.0 * (t - t.min()) / (t.max() - t.min())
    for _ in range(14):
        cy, cx = rng.uniform(0, height), rng.uniform(0, width)
        radius = rng.uniform(20.0, 90.0)
        level = rng.uniform(20.0, 235.0)
        gy, gx = rng.uniform(-0.3, 0.3, size=2)
        inside = (y - cy) ** 2 + (x - cx) ** 2 <= radius * radius
        img = np.where(inside, level + gy * (y - cy) + gx * (x - cx), img)
    img += rng.uniform(-4.0, 4.0, size=img.shape)
    return np.clip(img, 0.0, 255.0)


def make_inputs(workload: Workload, seed: int, in_dir: Path) -> tuple[list[Path], float]:
    """Write the workload's input files for this seed; return their paths
    and their total megapixels."""
    from varipix.synth import fixture_images

    in_dir.mkdir(parents=True, exist_ok=True)
    if workload.name == "fixtures_sweep":
        images = fixture_images()
    elif workload.name == "dump_roundtrip":
        # integer-valued, so the oracle checks are exact
        images = {"disks": fixture_images()["disks"]}
    else:
        images = {"photo": photo_like(np.random.default_rng(seed))}
    paths = []
    for name, img in images.items():
        if workload.dumps:
            paths.append(in_dir / f"{name}.rawimg")
            _write_raw(img, paths[-1])
        else:
            paths.append(in_dir / f"{name}.pgm")
            _write_pgm(img, paths[-1])
    return paths, sum(img.size for img in images.values()) / 1e6


def expected_rows(workload: Workload, n_images: int) -> int:
    return n_images * len(workload.noises) * 3 * len(workload.kernels) * len(workload.statistics)


def expected_dumps(workload: Workload, n_images: int) -> int:
    """Raw images dumped by a job: the two scans, then per noise the two noisy
    images and one per pipeline, kernel and statistic."""
    per_noise = 2 + 3 * len(workload.kernels) * len(workload.statistics)
    return n_images * (2 + len(workload.noises) * per_noise)


# ---- one job ------------------------------------------------------------------------


def run_job(workload: Workload, inputs: list[Path], seed: int, out_dir: Path, varipix):
    """Run one job; return (psnr.csv bytes, rows reported). Raises on failure."""
    if not workload.via_cli:
        cfg = varipix.pipeline.PipelineConfig(
            inputs=tuple(inputs),
            noise_kinds=workload.noises,
            seed=seed,
            kernels=workload.kernels,
            statistics=workload.statistics,
            out_dir=out_dir,
        )
        rows = varipix.pipeline.run_pipeline(cfg)
        return (out_dir / "psnr.csv").read_bytes(), len(rows)

    args = ["run", *map(str, inputs), "--out-dir", str(out_dir), "--seed", str(seed)]
    args += [a for n in workload.noises for a in ("--noise", n)]
    args += [a for k in workload.kernels for a in ("--kernel", str(k))]
    args += [a for s in workload.statistics for a in ("--statistic", s)]
    if workload.dumps:
        args += ["--dump-intermediates", "--raw-intermediates", "--adaptive-mode", "block"]
    echoed = io.StringIO()
    with contextlib.redirect_stdout(echoed):
        try:
            varipix.cli.main.main(args=args, prog_name="varipix", standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                raise RuntimeError(f"varipix run exited with {exc.code}") from None
    words = echoed.getvalue().split()
    return (out_dir / "psnr.csv").read_bytes(), int(words[1]) if len(words) > 1 else -1


def check_dumps(workload: Workload, out_dir: Path, n_images: int, first_image: str, scan) -> list[str]:
    """The dumped files are all there, and the first image's variable scan
    and labels read back exactly as the scan produced them."""
    raws = sorted(out_dir.glob("*.rawimg"))
    labels = sorted(out_dir.glob("*_labels.txt"))
    want = expected_dumps(workload, n_images)
    if len(raws) != want or len(labels) != n_images:
        return [f"expected {want} raw dumps and {n_images} label maps, found {len(raws)} and {len(labels)}"]
    errors = []
    result = scan[3]
    variable = _read_raw(out_dir / f"{first_image}_variable.rawimg")
    h, w = variable.shape
    if not np.array_equal(variable, result.image[:h, :w]):
        errors.append(f"{first_image}_variable.rawimg does not read back as the fused scan image")
    lines = (out_dir / f"{first_image}_labels.txt").read_text().split("\n", 1)
    dumped = np.array(lines[1].split(), dtype=np.int64)
    if lines[0] != f"labels {w} {h}" or not np.array_equal(dumped, result.labels[:h, :w].ravel()):
        errors.append(f"{first_image}_labels.txt does not read back as the fused scan labels")
    return errors


# ---- oracle spot-check -----------------------------------------------------------


def crop_origin(rng: np.random.Generator, shape) -> tuple[int, int]:
    """A block-aligned (row, col) for a CROP_BLOCKS-square crop inside shape."""
    by, bx = shape[0] // BLOCK, shape[1] // BLOCK
    return (
        BLOCK * int(rng.integers(0, by - CROP_BLOCKS + 1)),
        BLOCK * int(rng.integers(0, bx - CROP_BLOCKS + 1)),
    )


def check_scan(reference, scan, origin) -> list[str]:
    """Fused scan crop against the naive per-block oracle.

    Image and labels must match bit for bit: region means of integer-valued
    inputs are exact in any summation order. The chosen mask must be the
    naive selection, except where both masks have a nonzero naive recon error
    and the two errors differ only by rounding: the program sums in another
    order, so the lowest-index tie-break may fall either way. A zero error
    is exact in any order, so ties at zero must go to the lowest index.
    """
    padded, maskset, criterion, result = scan
    if criterion != "recon-error":
        return [f"oracle check supports recon-error only, got {criterion}"]
    r0, c0 = origin
    errors = []
    for r in range(r0, r0 + CROP_BLOCKS * BLOCK, BLOCK):
        for c in range(c0, c0 + CROP_BLOCKS * BLOCK, BLOCK):
            block = padded[r : r + BLOCK, c : c + BLOCK]
            chosen = int(result.chosen_masks[r // BLOCK, c // BLOCK])
            naive, naive_err = reference.naive_select_mask(block, maskset, criterion)
            want, chosen_err = reference.naive_region_apply(block, maskset[chosen].cells)
            rounding_tie = naive_err > 0 and abs(chosen_err - naive_err) <= 1e-9 * naive_err
            if chosen != naive and not rounding_tie:
                errors.append(f"scan block ({r},{c}): mask {chosen}, naive oracle picks {naive}")
            if not np.array_equal(result.image[r : r + BLOCK, c : c + BLOCK], want):
                errors.append(f"scan block ({r},{c}): image differs from naive region means")
            if not np.array_equal(result.labels[r : r + BLOCK, c : c + BLOCK], maskset[chosen].cells):
                errors.append(f"scan block ({r},{c}): labels differ from mask {chosen}")
    return errors


def check_adaptive(reference, adaptive, origin) -> list[str]:
    """Adaptive filter crop against naive_adaptive_filter, bit for bit.

    The oracle runs on the crop grown by one block on each side (clipped to
    the image): that covers every window of k <= 13, and keeps the block
    grid aligned for block mode.
    """
    a, out, _ = adaptive
    img, labels, k = a["img"], a["labels"], a["k"]
    h, w = img.shape
    r0, c0 = origin
    side = CROP_BLOCKS * BLOCK
    top, left = max(r0 - BLOCK, 0), max(c0 - BLOCK, 0)
    bottom, right = min(r0 + side + BLOCK, h), min(c0 + side + BLOCK, w)
    want = reference.naive_adaptive_filter(
        img[top:bottom, left:right], labels[top:bottom, left:right], k, a["statistic"], a["mode"]
    )
    got = out[r0 : r0 + side, c0 : c0 + side]
    want = want[r0 - top : r0 - top + side, c0 - left : c0 - left + side]
    if not np.array_equal(got, want):
        return [f"adaptive {a['statistic']} k={k} {a['mode']}: crop at ({r0},{c0}) differs from naive oracle"]
    return []

