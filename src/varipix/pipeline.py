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

Tasks: first, a stage list of two tasks: the fused scan, and the square
scan followed by the first noise kind's draw (a draw needs only the
image's shape, so it runs beside the fused scan). Then, for each noise
kind, the filter-and-score calls, one per (pipeline, statistic, kernel),
are tasks on one shared list, longest first (medians, then larger
kernels, then the adaptive filter before the two box filters of the same
statistic and kernel); with dumps on, the kind's two noisy-plane dumps
follow them as tasks that return no row. The calling thread and one pooled helper per
further CPU pull them; each filter task filters, dumps its filtered
image and scores it, and its row goes back to its index, so the bytes of
`psnr.csv` and of every dump do not depend on the thread count. The
filters' long numpy calls release the GIL, so a filter overlaps the
other threads' filters and dumps. Dumps are written one at a time, under
a lock in `write_image`, so a wrapper on the writer names (the
benchmark's tracer counts each dump's bytes after its call) never sees
two writes at once. The scan dumps and the label map are written on the
calling thread, between the stage list and the first kind's list. This
is the one layer of threads: a filter runs its bands, and a scan or a
draw its work, on the thread that called it.

Ownership: every array is allocated by the stage that returns it. Each
noise kind is drawn once, and the draw is applied to each scan, so both
scans get the same noise; the first kind's draw is made beside the scans.
No array a stage was given or returned is written afterwards, so a
caller that keeps one (a probe wrapping the stage names in this module)
sees its bytes unchanged. Each filtered image is dropped once it is
dumped and scored, each kind's two noisy planes once the kind is done,
and the two scans once the last kind's noise is applied, so that two
noisy planes are alive, and one filtered image per worker; PSNR holds no
difference image.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass
from pathlib import Path

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
    draw_noise,
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
        for path in inputs:  # rows and dumps are named by stem, so stems must be unique and fit a psnr.csv field
            same = [str(q) for q in inputs if q.stem == path.stem]
            if len(same) > 1:
                raise ValueError(f"inputs share the file stem {path.stem!r}: {', '.join(same)}")
            if any(c in path.stem for c in ',"\r\n'):
                raise ValueError(f"the file stem {path.stem!r} of {path} holds a comma, quote or line break")
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


_WRITE_LOCK = threading.Lock()


def write_image(img, path, raw: bool) -> None:
    """Write img as a lossless raw dump, or as an 8-bit PGM; one write at a time per process."""
    # looked up here, not in imgio, so that bench/tracing.py sees every write; under the
    # lock, so that a wrapper on these names never has two calls running at once
    with _WRITE_LOCK:
        (write_raw if raw else write_pgm)(img, path)


def _worker_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _pool(workers: int, pid: int):
    """A thread pool kept for the process; a forked child gets its own (pid)."""
    from concurrent.futures import ThreadPoolExecutor  # lazily: it adds ~6 ms to import time

    return ThreadPoolExecutor(workers, thread_name_prefix="varipix-task")


def _run_tasks(task, order: list[int], workers: int) -> list:
    """task(i) for every i in order, pulled by the calling thread and workers - 1 pooled helpers.

    Returns the results by index. After the first failure no further task
    is handed out; once every helper is done, that first failure is raised.
    """
    results = [None] * len(order)
    todo = iter(order)
    failed = []
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = None if failed else next(todo, None)
            if i is None:
                return
            try:
                results[i] = task(i)
            except BaseException as exc:  # raised below, on the calling thread
                with lock:
                    failed.append(exc)
                return

    helpers = [_pool(workers - 1, os.getpid()).submit(work) for _ in range(workers - 1)]
    work()
    for helper in helpers:
        helper.result()
    if failed:
        raise failed[0]
    return results


def evaluate_image(name: str, img, cfg: PipelineConfig, maskset: MaskSet) -> list[PsnrRow]:
    """All PSNR rows for one clean image under one configuration, in `psnr.csv` order."""
    dump_dir = Path(cfg.out_dir) if cfg.dump_intermediates else None
    suffix = ".rawimg" if cfg.raw_intermediates else ".pgm"

    def dump(stem: str, image) -> None:
        if dump_dir is not None:
            write_image(image, dump_dir / f"{name}_{stem}{suffix}", cfg.raw_intermediates)

    def stage(i: int):
        """The fused scan; or the square scan, then the first noise kind's draw."""
        if i == 0:
            return scan_parallel_fused(img, maskset, cfg.criterion)
        square = scan_square(img)
        return square, draw_noise(square.shape, cfg.noise_spec(cfg.noise_kinds[0]))

    fused, (square, draw) = _run_tasks(stage, [0, 1], min(_worker_count(), 2))
    scans, labels = (square, fused.image), fused.labels
    del fused, square
    dump("square", scans[0])
    dump("variable", scans[1])
    if dump_dir is not None:
        write_labelmap(labels, dump_dir / f"{name}_labels.txt")

    tasks = [(pipe, stat, k) for pipe in PIPELINES for stat in cfg.statistics for k in cfg.kernels]
    # longest first: medians, then larger k, then adaptive before box; the sort is stable, so ties stay in row order
    order = sorted(range(len(tasks)), key=lambda i: (tasks[i][1] != "median", -tasks[i][2], tasks[i][0] != "adaptive"))
    if dump_dir is not None:  # the two noisy-plane dumps, after the longer filter tasks
        order += [len(tasks), len(tasks) + 1]
    workers = min(_worker_count(), len(order))
    rows = []
    for kind in cfg.noise_kinds:
        spec = cfg.noise_spec(kind)
        if draw is None:
            draw = draw_noise(scans[0].shape, spec)
        noisy = [apply_noise(scan, spec, draw) for scan in scans]
        draw = None  # each later kind draws its own
        if kind == cfg.noise_kinds[-1]:
            del scans  # dead once the last kind's noise is applied

        def run(i: int) -> PsnrRow | None:
            if i >= len(tasks):  # a noisy-plane dump, with no row
                dump(f"{kind}_{PIPELINES[i - len(tasks)]}_noisy", noisy[i - len(tasks)])
                return None
            pipe, stat, k = tasks[i]
            plane = noisy[0] if pipe == "square" else noisy[1]
            if pipe == "adaptive":
                filtered = adaptive_filter(plane, labels, k, stat, cfg.adaptive_mode)
            else:
                filtered = box_filter(plane, k, stat)
            dump(f"{kind}_{pipe}_{stat}_k{k}", filtered)
            return PsnrRow(name, kind, pipe, stat, k, psnr(img, filtered))

        rows += _run_tasks(run, order, workers)[: len(tasks)]
        del noisy  # freed before the next kind is drawn
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
