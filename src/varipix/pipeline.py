"""End-to-end benchmark: scan, corrupt, filter, score.

For every input image and requested noise kind the pipeline produces PSNR
rows for three variants, each with the requested kernels and statistics:

* square:   6x6 block-mean scan, plain box filter
* variable: fused variable-pixel scan, plain box filter
* adaptive: fused variable-pixel scan, shape-adaptive filter on its labels

PSNR is always measured against the original clean image over the original
pixel area (inputs are padded to a block multiple for scanning and the
scans cropped back). Rows come out sorted by image, noise, pipeline
(square, variable, adaptive), statistic, kernel. Flagged intermediates
are dumped through `write_image`, the writer the stage commands use too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .filters import DEFAULT_ADAPTIVE_MODE, DEFAULT_KERNEL, STATISTICS, adaptive_filter, box_filter
from .imgio import read_image, write_labelmap, write_pgm, write_raw
from .masks import MaskSet, builtin_masks, load_masks
from .metrics import psnr
from .noise import (
    DEFAULT_DENSITY,
    DEFAULT_SEED,
    DEFAULT_SIGMA,
    DEFAULT_VARIANCE,
    NOISE_KINDS,
    NoiseSpec,
    apply_noise,
)
from .scan import DEFAULT_CRITERION, pad_to_block_multiple, scan_parallel_fused, scan_square

CSV_HEADER = "image,noise,pipeline,statistic,kernel,psnr_db"
PIPELINES = ("square", "variable", "adaptive")


@dataclass
class PipelineConfig:
    inputs: tuple[Path, ...]
    mask_path: Path | None = None  # None selects the builtin eight-mask set
    criterion: str = DEFAULT_CRITERION
    noise_kinds: tuple[str, ...] = NOISE_KINDS
    density: float = DEFAULT_DENSITY
    sigma: float = DEFAULT_SIGMA
    variance: float = DEFAULT_VARIANCE
    seed: int = DEFAULT_SEED
    kernels: tuple[int, ...] = (DEFAULT_KERNEL,)
    statistics: tuple[str, ...] = STATISTICS
    adaptive_mode: str = DEFAULT_ADAPTIVE_MODE
    out_dir: Path | None = None
    dump_intermediates: bool = False
    raw_intermediates: bool = False


@dataclass(frozen=True)
class PsnrRow:
    image: str
    noise: str
    pipeline: str
    statistic: str
    kernel: int
    psnr_db: float

    def key(self):
        return (
            self.image,
            NOISE_KINDS.index(self.noise),
            PIPELINES.index(self.pipeline),
            STATISTICS.index(self.statistic),
            self.kernel,
        )


def format_db(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.6f}"


def rows_to_csv(rows: list[PsnrRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.image},{r.noise},{r.pipeline},{r.statistic},{r.kernel},{format_db(r.psnr_db)}"
        )
    return "\n".join(lines) + "\n"


def scan_variants(img, maskset: MaskSet, criterion: str = DEFAULT_CRITERION):
    """Pad, run both scans, crop back to the original pixel area.

    Returns (square image, variable image, variable label map).
    """
    h, w = img.shape
    padded = pad_to_block_multiple(img)
    square = scan_square(padded).image[:h, :w]
    fused = scan_parallel_fused(padded, maskset, criterion)
    return square, fused.image[:h, :w], fused.labels[:h, :w]


def write_image(img, path, raw: bool) -> None:
    """Write img as a lossless raw dump, or as an 8-bit PGM."""
    # looked up here, not in imgio, so that bench/tracing.py sees every write
    (write_raw if raw else write_pgm)(img, path)


def evaluate_image(name: str, img, cfg: PipelineConfig, maskset: MaskSet) -> list[PsnrRow]:
    """All PSNR rows for one clean image under one configuration."""
    dump_dir = Path(cfg.out_dir) if cfg.dump_intermediates and cfg.out_dir is not None else None
    suffix = ".rawimg" if cfg.raw_intermediates else ".pgm"

    def dump(stem: str, image) -> None:
        if dump_dir is not None:
            write_image(image, dump_dir / f"{name}_{stem}{suffix}", cfg.raw_intermediates)

    square, variable, labels = scan_variants(img, maskset, cfg.criterion)
    dump("square", square)
    dump("variable", variable)
    if dump_dir is not None:
        write_labelmap(labels, dump_dir / f"{name}_labels.txt")

    rows = []
    for kind in cfg.noise_kinds:
        spec = NoiseSpec(
            kind, density=cfg.density, sigma=cfg.sigma, variance=cfg.variance, seed=cfg.seed
        )
        noisy = {
            "square": apply_noise(square, spec),
            "variable": apply_noise(variable, spec),
        }
        dump(f"{kind}_square_noisy", noisy["square"])
        dump(f"{kind}_variable_noisy", noisy["variable"])
        for k in cfg.kernels:
            for stat in cfg.statistics:
                filtered = {
                    "square": box_filter(noisy["square"], k, stat),
                    "variable": box_filter(noisy["variable"], k, stat),
                    "adaptive": adaptive_filter(noisy["variable"], labels, k, stat, cfg.adaptive_mode),
                }
                for pipe in PIPELINES:
                    dump(f"{kind}_{pipe}_{stat}_k{k}", filtered[pipe])
                    rows.append(PsnrRow(name, kind, pipe, stat, k, psnr(img, filtered[pipe]).psnr_db))
    return rows


def load_mask_source(mask_path) -> MaskSet:
    return builtin_masks() if mask_path is None else load_masks(mask_path)


def run_pipeline(cfg: PipelineConfig) -> list[PsnrRow]:
    """Run the benchmark over all configured inputs; returns sorted rows.

    Writes `psnr.csv` (plus flagged intermediates) into cfg.out_dir when set.
    """
    if not cfg.inputs:
        raise ValueError("at least one input image is required")
    for kind in cfg.noise_kinds:
        if kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {kind!r}")
    maskset = load_mask_source(cfg.mask_path)

    if cfg.out_dir is not None:
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)

    rows = []
    for path in sorted(Path(p) for p in cfg.inputs):
        img = read_image(path)
        rows.extend(evaluate_image(path.stem, img, cfg, maskset))
    rows.sort(key=PsnrRow.key)

    if cfg.out_dir is not None:
        (Path(cfg.out_dir) / "psnr.csv").write_text(rows_to_csv(rows))
    return rows
