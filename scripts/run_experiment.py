#!/usr/bin/env python3
"""Full benchmark over the synthetic fixture set (or a directory of PGMs).

Generates the five fixture images, runs the square / variable / adaptive
pipelines under all three noise models at several kernel sizes, writes
psnr.csv plus the fixture PGMs into the output directory, and prints two
summaries: the PSNR ordering at the middle kernel size and the growth of the
adaptive-vs-variable gap with kernel size.

    python3 scripts/run_experiment.py --out-dir results
    python3 scripts/run_experiment.py --out-dir results --images path/to/pgms
"""

from __future__ import annotations

import argparse
from pathlib import Path

from varipix import PipelineConfig, run_pipeline, write_pgm
from varipix.filters import ADAPTIVE_MODES, DEFAULT_ADAPTIVE_MODE
from varipix.noise import DEFAULT_SEED, NOISE_KINDS
from varipix.pipeline import PIPELINES
from varipix.scan import CRITERIA, DEFAULT_CRITERION
from varipix.synth import fixture_images


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out-dir", type=Path, required=True, help="results directory")
    p.add_argument("--images", type=Path, default=None,
                   help="directory of input PGMs (default: generate the fixtures)")
    p.add_argument("--kernels", type=int, nargs="+", default=[3, 5, 7])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--criterion", default=DEFAULT_CRITERION, choices=CRITERIA)
    p.add_argument("--adaptive-mode", default=DEFAULT_ADAPTIVE_MODE, choices=ADAPTIVE_MODES)
    return p.parse_args()


def collect_inputs(args: argparse.Namespace) -> list[Path]:
    if args.images is not None:
        inputs = sorted(p for p in args.images.glob("*.pgm") if p.is_file())
        if not inputs:
            raise SystemExit(f"no .pgm files in {args.images}")
        return inputs
    fixture_dir = args.out_dir / "fixtures"
    fixture_dir.mkdir(parents=True, exist_ok=True)
    inputs = []
    for name, img in fixture_images().items():
        path = fixture_dir / f"{name}.pgm"
        write_pgm(img, path)
        inputs.append(path)
    return inputs


def main() -> None:
    args = parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    inputs = collect_inputs(args)

    cfg = PipelineConfig(
        inputs=tuple(inputs),
        criterion=args.criterion,
        seed=args.seed,
        kernels=tuple(args.kernels),
        adaptive_mode=args.adaptive_mode,
        out_dir=args.out_dir,
    )
    rows = run_pipeline(cfg)
    print(f"wrote {len(rows)} rows to {args.out_dir / 'psnr.csv'}\n")

    table = {(r.image, r.noise, r.pipeline, r.statistic, r.kernel): r.psnr_db for r in rows}
    images = [path.stem for path in cfg.inputs]
    mid_k = cfg.kernels[len(cfg.kernels) // 2]

    print(f"PSNR (dB) at k={mid_k}, mean statistic")
    print(f"{'image':<14} {'noise':<12} {'square':>9} {'variable':>9} {'adaptive':>9}")
    for name in images:
        for kind in NOISE_KINDS:
            vals = [table[(name, kind, pipe, 'mean', mid_k)] for pipe in PIPELINES]
            marker = "" if vals[2] > vals[1] > vals[0] else "  (ordering broken)"
            print(f"{name:<14} {kind:<12} " + " ".join(f"{v:9.2f}" for v in vals) + marker)

    lo_k, hi_k = cfg.kernels[0], cfg.kernels[-1]
    if lo_k != hi_k:
        print(f"\nadaptive - variable PSNR gap (dB), mean statistic")
        print(f"{'image':<14} {'noise':<12} {'k=' + str(lo_k):>9} {'k=' + str(hi_k):>9}")
        for name in images:
            for kind in NOISE_KINDS:
                gaps = [
                    table[(name, kind, "adaptive", "mean", k)]
                    - table[(name, kind, "variable", "mean", k)]
                    for k in (lo_k, hi_k)
                ]
                trend = "grows" if gaps[1] > gaps[0] else "shrinks"
                print(f"{name:<14} {kind:<12} {gaps[0]:9.2f} {gaps[1]:9.2f}  {trend}")


if __name__ == "__main__":
    main()
