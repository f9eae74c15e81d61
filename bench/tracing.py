"""Probes and span tracing for benchmark jobs, installed from outside the package.

Nothing under src/ is edited. Both classes rebind names in the
`varipix.pipeline` and `varipix.cli` namespaces (the functions each layer
exposes to its caller) for the duration of one job, then restore them.

* `JobProbe` runs on every job, traced or not. It times each
  `evaluate_image` call and keeps the first image's fused scan and one
  adaptive filter call for the oracle spot-check. Its cost is one extra
  Python call per probed call, microseconds against a job of seconds.
* `Tracer` runs on traced jobs only. It records one span per call at each
  layer boundary (name, start, end, parent span, image id), keeps the spans
  in memory, and counts the work each call was given, computed from array
  and file sizes.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("masks", "scan", "noise", "filters", "metrics", "imgio", "pipeline", "cli")

# function name -> layer, for every name rebound in either namespace
TRACED = {
    "run_pipeline": "pipeline",
    "evaluate_image": "pipeline",
    "builtin_masks": "masks",
    "load_masks": "masks",
    "pad_to_block_multiple": "scan",
    "scan_square": "scan",
    "scan_parallel_fused": "scan",
    "apply_noise": "noise",
    "box_filter": "filters",
    "adaptive_filter": "filters",
    "psnr": "metrics",
    "read_image": "imgio",
    "write_raw": "imgio",
    "write_pgm": "imgio",
    "write_labelmap": "imgio",
}

FILTER_KEYS = tuple(
    f"{kind}_{stat}.k{k}" for kind in ("box", "adaptive") for stat in ("mean", "median") for k in (3, 5, 7)
)

# counts computed from array and file sizes; they must repeat exactly
COUNTS = (
    "scan.blocks",
    "scan.mask_evals",
    "filters.window_samples",
    "filters.median_stack_mb",
    "noise.pixels",
    "metrics.psnr_calls",
    "imgio.bytes_read",
    "imgio.bytes_written",
    "pipeline.rows",
)

# layer -> span name -> metric, for the layers reported by function
BREAKDOWN = {
    "scan": {
        "scan_parallel_fused": "scan.fused_s",
        "scan_square": "scan.square_s",
        "pad_to_block_multiple": "scan.pad_s",
    },
    "filters": {key: f"filters.{key}_s" for key in FILTER_KEYS},
    "imgio": {
        "read_image": "imgio.read_s",
        "write_raw": "imgio.write_raw_s",
        "write_pgm": "imgio.write_pgm_s",
        "write_labelmap": "imgio.write_labelmap_s",
    },
}

# per-layer self times; they partition the traced wall time of a job
SELF_TIMES = (
    "masks.load_s", "noise.apply_s", "metrics.psnr_s", "cli.self_s", "pipeline.self_s",
    *(metric for names in BREAKDOWN.values() for metric in names.values()),
)


@contextmanager
def rebound(bindings):
    """Set each (module, name) to its wrapper; restore the originals on exit."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in bindings]
    try:
        for module, name, fn in bindings:
            setattr(module, name, fn)
        yield
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


def _arguments(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


class JobProbe:
    """Per-image wall times and the first image's oracle inputs for one job."""

    def __init__(self):
        self.image_s = []
        self.first_image = None
        self.scan = None  # (padded input, maskset, criterion, ScanResult)
        self.adaptive = None  # (args, output, rank): medians first, then the largest k
        self._current = None

    def bindings(self, pipeline):
        evaluate = pipeline.evaluate_image
        fused = pipeline.scan_parallel_fused
        adaptive = pipeline.adaptive_filter
        bind_fused = _arguments(fused)
        bind_adaptive = _arguments(adaptive)

        @functools.wraps(evaluate)
        def evaluate_image(name, *args, **kwargs):
            self._current = name
            if self.first_image is None:
                self.first_image = name
            start = time.perf_counter()
            rows = evaluate(name, *args, **kwargs)
            self.image_s.append(time.perf_counter() - start)
            return rows

        @functools.wraps(fused)
        def scan_parallel_fused(*args, **kwargs):
            result = fused(*args, **kwargs)
            if self._current == self.first_image and self.scan is None:
                a = bind_fused(args, kwargs)
                self.scan = (a["img"], a["maskset"], a["criterion"], result)
            return result

        @functools.wraps(adaptive)
        def adaptive_filter(*args, **kwargs):
            result = adaptive(*args, **kwargs)
            if self._current == self.first_image:
                a = bind_adaptive(args, kwargs)
                rank = (a["statistic"] == "median", a["k"])
                if self.adaptive is None or rank >= self.adaptive[2]:
                    self.adaptive = (a, result, rank)
            return result

        return [
            (pipeline, "evaluate_image", evaluate_image),
            (pipeline, "scan_parallel_fused", scan_parallel_fused),
            (pipeline, "adaptive_filter", adaptive_filter),
        ]


class Tracer:
    """Spans and computed counts for one traced job."""

    def __init__(self):
        # span: [name, layer, start, end, parent index or None, image id]
        self.spans = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []
        self._image = None

    def bindings(self, *modules):
        out = []
        for module in modules:
            for name, layer in TRACED.items():
                if hasattr(module, name):
                    out.append((module, name, self.wrap(layer, name, getattr(module, name))))
        return out

    @contextmanager
    def span(self, layer, name, image=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        outer_image = self._image
        if image is not None:
            self._image = image
        record = [name, layer, 0.0, 0.0, parent, self._image]
        self.spans.append(record)
        self._stack.append(index)
        record[2] = time.perf_counter()
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()
            self._image = outer_image

    def wrap(self, layer, name, fn):
        bind = _arguments(fn)
        count = getattr(self, f"_count_{name}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            a = bind(args, kwargs)
            image = a.get("name")
            if name == "read_image":
                image = Path(a["path"]).stem
            span_name = name
            if layer == "filters":
                kind = "box" if name == "box_filter" else "adaptive"
                span_name = f"{kind}_{a['statistic']}.k{a['k']}"
            with self.span(layer, span_name, image):
                result = fn(*args, **kwargs)
            if count is not None:
                count(a, result)
            return result

        return wrapper

    # ---- counts computed from array and file sizes --------------------------

    def _count_scan_parallel_fused(self, a, result):
        blocks = result.chosen_masks.size
        self.counts["scan.blocks"] += blocks
        self.counts["scan.mask_evals"] += blocks * len(a["maskset"])

    def _count_filter(self, a, result):
        h, w = a["img"].shape
        samples = h * w * a["k"] * a["k"]
        self.counts["filters.window_samples"] += samples
        if a["statistic"] == "median":
            mb = samples * 8 / 1e6
            self.counts["filters.median_stack_mb"] = max(self.counts["filters.median_stack_mb"], mb)

    _count_box_filter = _count_filter
    _count_adaptive_filter = _count_filter

    def _count_apply_noise(self, a, result):
        self.counts["noise.pixels"] += a["img"].size

    def _count_psnr(self, a, result):
        self.counts["metrics.psnr_calls"] += 1

    def _count_read_image(self, a, result):
        self.counts["imgio.bytes_read"] += os.path.getsize(a["path"])

    def _count_write(self, a, result):
        self.counts["imgio.bytes_written"] += os.path.getsize(a["path"])

    _count_write_raw = _count_write
    _count_write_pgm = _count_write
    _count_write_labelmap = _count_write

    def _count_run_pipeline(self, a, result):
        self.counts["pipeline.rows"] += len(result)

    # ---- per-layer metrics ------------------------------------------------------

    def layer_metrics(self, run_s):
        """Busy seconds per layer and sub-key from span self times, plus counts.

        A span's self time is its duration minus its children's. Every layer
        but `pipeline` gets the self time of its spans; `pipeline.self_s` is
        the traced wall time `run_s` minus all of those, so the layers' self
        times sum to `run_s` by construction.
        """
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, image in self.spans:
            if parent is not None:
                child[parent] += end - start
        busy = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, (name, layer, start, end, parent, image) in enumerate(self.spans):
            own = (end - start) - child[i]
            layer_self[layer] += own
            busy[name] = busy.get(name, 0.0) + own

        m = {
            "masks.load_s": layer_self["masks"],
            "noise.apply_s": layer_self["noise"],
            "metrics.psnr_s": layer_self["metrics"],
            "cli.self_s": layer_self["cli"],
        }
        for layer, names in BREAKDOWN.items():
            for name, metric in names.items():
                m[metric] = busy.get(name, 0.0)
            if abs(sum(m[metric] for metric in names.values()) - layer_self[layer]) > 1e-9:
                raise RuntimeError(f"{layer} spans outside its named metrics: {sorted(busy)}")
        m["pipeline.self_s"] = run_s - sum(v for layer, v in layer_self.items() if layer != "pipeline")
        m.update(self.counts)
        m["scan.blocks_per_s"] = self.counts["scan.blocks"] / m["scan.fused_s"] if m["scan.fused_s"] else 0.0
        write_s = m["imgio.write_raw_s"] + m["imgio.write_pgm_s"] + m["imgio.write_labelmap_s"]
        m["imgio.write_mb_per_s"] = self.counts["imgio.bytes_written"] / 1e6 / write_s if write_s else 0.0
        return m

    def records(self, job):
        return [
            {"job": job, "name": n, "layer": layer, "start": s, "end": e, "parent": p, "image": img}
            for n, layer, s, e, p, img in self.spans
        ]
