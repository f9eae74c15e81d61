"""End-to-end benchmark: scan, corrupt, filter, score.

For every input image and requested noise kind the pipeline produces PSNR
rows for three variants, each with the requested kernels and statistics:

* square:   6x6 block-mean scan, plain box filter
* variable: fused variable-pixel scan, plain box filter
* adaptive: fused variable-pixel scan, shape-adaptive filter on its labels

PSNR is always measured against the original clean image; the scans return
images of the input's shape whatever its size. Rows are produced in
`psnr.csv` order, image, noise, pipeline (square, variable, adaptive),
statistic, kernel, the order `PipelineConfig` stores its values in; they
are not sorted afterwards. Flagged intermediates are dumped through
`write_image`, the writer the stage commands use too.

Ownership: `evaluate_image` allocates the (2, h, w) scan stack and the
scans write into its halves through `out=`; every other array is
allocated by the stage that returns it. No array a stage was given or
returned is written afterwards, so a caller that keeps one (a probe
wrapping the stage names in this module) sees its bytes unchanged. Each
filtered image is dropped once it is dumped and scored, and each noisy
stack once its noise kind is done, so that only one of each is alive.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .filters import ADAPTIVE_MODES, DEFAULT_ADAPTIVE_MODE, DEFAULT_KERNEL, STATISTICS, check_kernel
from .filters import adaptive_filter, box_filter
from .imgio import read_image, read_image_header, write_labelmap, write_pgm, write_raw
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
from .scan import CRITERIA, DEFAULT_CRITERION, scan_parallel_fused, scan_square

CSV_HEADER = "image,noise,pipeline,statistic,kernel,psnr_db"
PIPELINES = ("square", "variable", "adaptive")


@dataclass(frozen=True)
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

    def __post_init__(self):
        """Reject bad settings before any I/O, then store each value once, in row order."""
        for name in ("noise_kinds", "kernels", "statistics"):
            if not getattr(self, name):  # it would give a psnr.csv of the header alone
                raise ValueError(f"{name} must not be empty")
        for kind in self.noise_kinds:
            self.noise_spec(kind)
        for k in self.kernels:
            check_kernel(k)
        for stat in self.statistics:
            if stat not in STATISTICS:
                raise ValueError(f"unknown statistic {stat!r}")
        if self.adaptive_mode not in ADAPTIVE_MODES:
            raise ValueError(f"unknown adaptive mode {self.adaptive_mode!r}")
        if self.criterion not in CRITERIA:
            raise ValueError(f"unknown selection criterion {self.criterion!r}")
        if self.raw_intermediates and not self.dump_intermediates:
            raise ValueError("raw_intermediates requires dump_intermediates")
        if self.dump_intermediates and self.out_dir is None:
            raise ValueError("dump_intermediates requires out_dir")
        inputs = sorted(map(Path, self.inputs), key=lambda p: (p.stem, p))
        for path in inputs:  # rows and dumps are named by stem, so stems must be unique
            same = [str(q) for q in inputs if q.stem == path.stem]
            if len(same) > 1:
                raise ValueError(f"inputs share the file stem {path.stem!r}: {', '.join(same)}")
        object.__setattr__(self, "inputs", tuple(inputs))
        object.__setattr__(self, "noise_kinds", tuple(n for n in NOISE_KINDS if n in self.noise_kinds))
        object.__setattr__(self, "statistics", tuple(s for s in STATISTICS if s in self.statistics))
        object.__setattr__(self, "kernels", tuple(sorted(set(self.kernels))))

    def noise_spec(self, kind: str) -> NoiseSpec:
        return NoiseSpec(kind, density=self.density, sigma=self.sigma, variance=self.variance, seed=self.seed)


@dataclass(frozen=True)
class PsnrRow:
    image: str
    noise: str
    pipeline: str
    statistic: str
    kernel: int
    psnr_db: float


def format_db(value: float) -> str:
    return f"{value:.6f}"  # "inf" and "-inf" for the infinite ones


def rows_to_csv(rows: list[PsnrRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.image},{r.noise},{r.pipeline},{r.statistic},{r.kernel},{format_db(r.psnr_db)}"
        )
    return "\n".join(lines) + "\n"


def write_image(img, path, raw: bool) -> None:
    """Write img as a lossless raw dump, or as an 8-bit PGM."""
    # looked up here, not in imgio, so that bench/tracing.py sees every write
    (write_raw if raw else write_pgm)(img, path)


def evaluate_image(name: str, img, cfg: PipelineConfig, maskset: MaskSet) -> list[PsnrRow]:
    """All PSNR rows for one clean image under one configuration, in `psnr.csv` order."""
    dump_dir = Path(cfg.out_dir) if cfg.dump_intermediates else None
    suffix = ".rawimg" if cfg.raw_intermediates else ".pgm"

    def dump(stem: str, image) -> None:
        if dump_dir is not None:
            write_image(image, dump_dir / f"{name}_{stem}{suffix}", cfg.raw_intermediates)

    # both scans in one stack, so that each noise kind is drawn once for the two
    scans = np.empty((2, *np.shape(img)))
    scan_square(img, out=scans[0])
    labels = scan_parallel_fused(img, maskset, cfg.criterion, out=scans[1]).labels
    dump("square", scans[0])
    dump("variable", scans[1])
    if dump_dir is not None:
        write_labelmap(labels, dump_dir / f"{name}_labels.txt")

    rows = []
    for kind in cfg.noise_kinds:
        noisy = apply_noise(scans, cfg.noise_spec(kind))
        dump(f"{kind}_square_noisy", noisy[0])
        dump(f"{kind}_variable_noisy", noisy[1])
        for pipe in PIPELINES:
            plane = noisy[0] if pipe == "square" else noisy[1]
            for stat in cfg.statistics:
                for k in cfg.kernels:
                    if pipe == "adaptive":
                        filtered = adaptive_filter(plane, labels, k, stat, cfg.adaptive_mode)
                    else:
                        filtered = box_filter(plane, k, stat)
                    dump(f"{kind}_{pipe}_{stat}_k{k}", filtered)
                    rows.append(PsnrRow(name, kind, pipe, stat, k, psnr(img, filtered)))
                    del filtered  # freed before the next filter allocates its output
        del noisy, plane  # freed before the next kind's stack is drawn
    return rows


def load_mask_source(mask_path) -> MaskSet:
    return builtin_masks() if mask_path is None else load_masks(mask_path)


def run_pipeline(cfg: PipelineConfig) -> list[PsnrRow]:
    """Run the benchmark over all configured inputs; returns the rows in `psnr.csv` order.

    Writes `psnr.csv` (plus flagged intermediates) into cfg.out_dir when set.
    """
    if not cfg.inputs:
        raise ValueError("at least one input image is required")
    for path in cfg.inputs:  # a missing, unreadable or malformed input fails before out_dir is made
        read_image_header(path)
    maskset = load_mask_source(cfg.mask_path)

    if cfg.out_dir is not None:
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)

    rows = []
    for path in cfg.inputs:
        rows.extend(evaluate_image(path.stem, read_image(path), cfg, maskset))

    if cfg.out_dir is not None:
        (Path(cfg.out_dir) / "psnr.csv").write_text(rows_to_csv(rows))
    return rows
