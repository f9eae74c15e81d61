"""Variable-pixel imaging: two-region 6x6 mask scans, sensor-noise
simulation, shape-adaptive filtering and PSNR benchmarking."""

from .masks import Mask, builtin_masks, load_masks, rotate90, save_masks
from .imgio import read_image, read_labelmap, read_pgm, read_raw, write_labelmap, write_pgm, write_raw
from .scan import (
    BLOCK,
    ScanResult,
    apply_mask_to_block,
    block_labels,
    pad_to_block_multiple,
    scan_parallel_fused,
    scan_square,
    scan_uniform,
    select_mask,
)
from .noise import NoiseSpec, add_gaussian, add_salt_pepper, add_speckle, apply_noise
from .filters import adaptive_filter, box_filter
from .metrics import QualityReport, mse, psnr
from .pipeline import PipelineConfig, PsnrRow, evaluate_image, run_pipeline, scan_variants

__version__ = "0.1.0"

__all__ = [
    "Mask",
    "builtin_masks",
    "load_masks",
    "rotate90",
    "save_masks",
    "read_image",
    "read_labelmap",
    "read_pgm",
    "read_raw",
    "write_labelmap",
    "write_pgm",
    "write_raw",
    "BLOCK",
    "ScanResult",
    "apply_mask_to_block",
    "block_labels",
    "pad_to_block_multiple",
    "scan_parallel_fused",
    "scan_square",
    "scan_uniform",
    "select_mask",
    "NoiseSpec",
    "add_gaussian",
    "add_salt_pepper",
    "add_speckle",
    "apply_noise",
    "adaptive_filter",
    "box_filter",
    "QualityReport",
    "mse",
    "psnr",
    "PipelineConfig",
    "PsnrRow",
    "evaluate_image",
    "run_pipeline",
    "scan_variants",
]
