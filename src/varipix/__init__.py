"""Variable-pixel imaging: two-region 6x6 mask scans, sensor-noise
simulation, shape-adaptive filtering and PSNR benchmarking."""

from .masks import Mask, builtin_masks, load_masks, rotate90, save_masks
from .imgio import read_image, read_labelmap, write_labelmap, write_pgm, write_raw
from .scan import BLOCK, ScanResult, block_labels, scan_parallel_fused, scan_square
from .noise import NoiseSpec, apply_noise
from .filters import adaptive_filter, box_filter
from .metrics import mse, psnr
from .pipeline import PipelineConfig, PsnrRow, evaluate_image, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "Mask",
    "builtin_masks",
    "load_masks",
    "rotate90",
    "save_masks",
    "read_image",
    "read_labelmap",
    "write_labelmap",
    "write_pgm",
    "write_raw",
    "BLOCK",
    "ScanResult",
    "block_labels",
    "scan_parallel_fused",
    "scan_square",
    "NoiseSpec",
    "apply_noise",
    "adaptive_filter",
    "box_filter",
    "mse",
    "psnr",
    "PipelineConfig",
    "PsnrRow",
    "evaluate_image",
    "run_pipeline",
]
