"""Command line interface.

One subcommand per pipeline stage (scan, noise, filter, psnr, masks) plus
`run` for the whole benchmark, so any stage can be reproduced in
isolation. Stage commands read PGM or raw dumps (sniffed from the file
header) and write PGM by default or the lossless raw dump with --raw.

Exit codes: 0 success, 2 bad flags/config, 3 I/O failure, 4 file content
failed validation.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click

from .filters import (
    ADAPTIVE_MODES,
    DEFAULT_ADAPTIVE_MODE,
    DEFAULT_FILTER_MODE,
    DEFAULT_KERNEL,
    DEFAULT_STATISTIC,
    FILTER_MODES,
    STATISTICS,
    adaptive_filter,
    box_filter,
    check_kernel,
)
from .imgio import ImageFormatError, read_image, read_labelmap, write_labelmap
from .masks import MaskError, builtin_masks, format_masks, save_masks
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
from .pipeline import PipelineConfig, format_db, load_mask_source, run_pipeline, scan_variants, write_image
from .scan import CRITERIA, DEFAULT_CRITERION, pad_to_block_multiple, scan_square


def cli_errors(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except click.ClickException:
            raise
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except (MaskError, ImageFormatError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(4)

    return wrapper


def _odd_kernel(ctx, param, value):
    values = value if isinstance(value, tuple) else (value,)
    for k in values:
        try:
            check_kernel(k)
        except ValueError as exc:
            raise click.BadParameter(str(exc)) from None
    return value


@click.group()
def main():
    """Variable-pixel image scanning, noising, filtering and PSNR tables."""


@main.command("masks")
@click.option("--out", type=click.Path(path_type=Path), default=None, help="Write to a file instead of stdout.")
@cli_errors
def masks_cmd(out):
    """Dump the built-in eight-mask set in the mask text format."""
    masks = builtin_masks()
    if out is None:
        click.echo(format_masks(masks), nl=False)
    else:
        save_masks(masks, out)


@main.command("scan")
@click.argument("input", type=click.Path(exists=False, path_type=Path))
@click.option("--out", required=True, type=click.Path(path_type=Path), help="Scanned image output.")
@click.option("--labels", type=click.Path(path_type=Path), default=None, help="Also write the label map here.")
@click.option("--layout", type=click.Choice(["square", "variable"]), default="variable", show_default=True)
@click.option("--masks", "mask_path", type=click.Path(path_type=Path), default=None, help="Mask set file (default: builtin).")
@click.option("--criterion", type=click.Choice(CRITERIA), default=DEFAULT_CRITERION, show_default=True)
@click.option("--raw", is_flag=True, help="Write the lossless raw dump instead of PGM.")
@cli_errors
def scan_cmd(input, out, labels, layout, mask_path, criterion, raw):
    """Form the square or variable-pixel representation of an image."""
    if labels is not None and layout == "square":
        raise click.UsageError("--labels requires --layout variable")
    img = read_image(input)
    if layout == "square":
        h, w = img.shape
        scanned = scan_square(pad_to_block_multiple(img)).image[:h, :w]
    else:
        _, scanned, lab = scan_variants(img, load_mask_source(mask_path), criterion)
    write_image(scanned, out, raw)
    if labels is not None:
        write_labelmap(lab, labels)


@main.command("noise")
@click.argument("input", type=click.Path(path_type=Path))
@click.option("--out", required=True, type=click.Path(path_type=Path))
@click.option("--kind", type=click.Choice(NOISE_KINDS), required=True)
@click.option("--density", type=float, default=DEFAULT_DENSITY, show_default=True, help="salt_pepper corruption probability.")
@click.option("--sigma", type=float, default=DEFAULT_SIGMA, show_default=True, help="gaussian std-dev on [0,255].")
@click.option("--variance", type=float, default=DEFAULT_VARIANCE, show_default=True, help="speckle multiplicative variance.")
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--raw", is_flag=True)
@cli_errors
def noise_cmd(input, out, kind, density, sigma, variance, seed, raw):
    """Inject a seeded noise model into an image."""
    img = read_image(input)
    spec = NoiseSpec(kind, density=density, sigma=sigma, variance=variance, seed=seed)
    write_image(apply_noise(img, spec), out, raw)


@main.command("filter")
@click.argument("input", type=click.Path(path_type=Path))
@click.option("--out", required=True, type=click.Path(path_type=Path))
@click.option("--kernel", type=int, default=DEFAULT_KERNEL, show_default=True, callback=_odd_kernel)
@click.option("--statistic", type=click.Choice(STATISTICS), default=DEFAULT_STATISTIC, show_default=True)
@click.option("--mode", type=click.Choice(FILTER_MODES), default=DEFAULT_FILTER_MODE, show_default=True)
@click.option("--labels", type=click.Path(path_type=Path), default=None, help="Label map (adaptive modes).")
@click.option("--raw", is_flag=True)
@cli_errors
def filter_cmd(input, out, kernel, statistic, mode, labels, raw):
    """Box-filter an image, or adaptively filter it along its label map."""
    img = read_image(input)
    if mode == "square":
        filtered = box_filter(img, kernel, statistic)
    else:
        if labels is None:
            raise click.UsageError(f"--mode {mode} requires --labels")
        lab = read_labelmap(labels)
        filtered = adaptive_filter(img, lab, kernel, statistic, mode.removeprefix("adaptive-"))
    write_image(filtered, out, raw)


@main.command("psnr")
@click.argument("reference", type=click.Path(path_type=Path))
@click.argument("test", type=click.Path(path_type=Path))
@cli_errors
def psnr_cmd(reference, test):
    """Print the PSNR (dB) between two images; 'inf' for identical images."""
    report = psnr(read_image(reference), read_image(test))
    click.echo(format_db(report.psnr_db))


@main.command("run")
@click.argument("inputs", nargs=-1, required=True, type=click.Path(path_type=Path))
@click.option("--out-dir", required=True, type=click.Path(path_type=Path))
@click.option("--noise", "noise_kinds", multiple=True, type=click.Choice(NOISE_KINDS), default=NOISE_KINDS, show_default=True)
@click.option("--density", type=float, default=DEFAULT_DENSITY, show_default=True)
@click.option("--sigma", type=float, default=DEFAULT_SIGMA, show_default=True)
@click.option("--variance", type=float, default=DEFAULT_VARIANCE, show_default=True)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--kernel", "kernels", multiple=True, type=int, default=(DEFAULT_KERNEL,), show_default=True, callback=_odd_kernel)
@click.option("--statistic", "statistics", multiple=True, type=click.Choice(STATISTICS), default=STATISTICS, show_default=True)
@click.option("--masks", "mask_path", type=click.Path(path_type=Path), default=None)
@click.option("--criterion", type=click.Choice(CRITERIA), default=DEFAULT_CRITERION, show_default=True)
@click.option("--adaptive-mode", type=click.Choice(ADAPTIVE_MODES), default=DEFAULT_ADAPTIVE_MODE, show_default=True)
@click.option("--dump-intermediates", is_flag=True, help="Write scanned/noisy/filtered images and label maps.")
@click.option("--raw-intermediates", is_flag=True, help="Dump intermediates as lossless raw dumps.")
@cli_errors
def run_cmd(inputs, **options):
    """Run the full benchmark and write psnr.csv into the output directory."""
    # every option is the PipelineConfig field of the same name
    if options["raw_intermediates"] and not options["dump_intermediates"]:
        raise click.UsageError("--raw-intermediates requires --dump-intermediates")
    expanded = []
    for p in inputs:
        if p.is_dir():
            expanded.extend(sorted(q for q in p.iterdir() if q.suffix in (".pgm", ".rawimg")))
        else:
            expanded.append(p)
    if not expanded:
        raise click.UsageError("no input images found")
    rows = run_pipeline(PipelineConfig(inputs=tuple(expanded), **options))
    click.echo(f"wrote {len(rows)} rows to {options['out_dir'] / 'psnr.csv'}")


if __name__ == "__main__":
    main()
