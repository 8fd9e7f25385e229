"""Command-line entry points for the detection pipeline.

One verb per stage plus `synth` (dataset generation) and `all` (the whole
graph in one run). Failures exit nonzero with a single-line diagnostic.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import pipeline
from .config import PipelineConfig, load_config, parse_setting
from .evaluation import mean_ap, read_report
from .modelio import fmt_float, parse_count, parse_real
from .parallel import single_thread_blas
from .synth import SynthSpec, generate_dataset

# The stage verbs in chain order, with their help lines. Each of them, and
# `all`, runs the pipeline function stage_<verb> ('-' read as '_'), which
# takes every option but --config and --seed as the keyword argument that
# the option's dest names.
STAGE_VERBS = {
    "propose": "selective-search boxes for every image",
    "extract": "CNN, HOG and IFV rows for every proposal",
    "train-svm": "one linear SVM bank per channel",
    "train-fusion": "per-category combination of the channel scores",
    "train-regressor": "box regressor on the regression channel",
    "train-prior": "whole-image presence prior and its gate",
    "detect": "score, fuse, refine, suppress, gate, dump",
    "eval": "match detections and write the AP report",
    "render": "draw detection overlays as PPM images",
}


# the numeric options but --seed, by dest: their names and the parsers of
# their text (modelio's). argparse keeps the text and _run reads it, so a bad
# value fails in one line that names its option
_NUMBERS = {
    "images": ("--images", parse_count),
    "train_images": ("--train-images", parse_count),
    "test_images": ("--test-images", parse_count),
    "classes": ("--classes", parse_count),
    "max_shapes": ("--max-shapes", parse_count),
    "image_size": ("--size", parse_count),
    "noise": ("--noise", parse_real),
    "min_score": ("--min-score", parse_real),
}


def _add_common(p, manifest=True):
    p.add_argument("--out-dir", required=True, help="artifact directory")
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--seed", help="override the configured base seed")
    if manifest:
        p.add_argument(
            "--manifest", required=True, dest="manifest_path", metavar="MANIFEST", help="dataset manifest file"
        )
        p.add_argument("--tag", help="artifact tag (default: manifest directory name)")


def _add_dataset(p):
    """The synthetic-dataset options of `synth` and `all`."""
    p.add_argument("--classes", default=str(SynthSpec.n_classes))
    p.add_argument("--max-shapes", default=str(SynthSpec.max_shapes))
    p.add_argument("--noise", default=str(SynthSpec.noise))
    p.add_argument("--size", default=str(SynthSpec.image_size), dest="image_size", metavar="SIZE")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fusedet", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("synth", help="generate a synthetic shape dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--images", default=str(SynthSpec.n_images))
    _add_dataset(p)
    p.add_argument("--seed", default="0")
    p.add_argument("--prefix", default="img")

    stages = {verb: sub.add_parser(verb, help=text) for verb, text in STAGE_VERBS.items()}
    for verb, p in stages.items():
        _add_common(p)
        if verb in ("detect", "eval", "render"):
            p.add_argument("--channel", choices=("fused",) + pipeline.CHANNELS, default="fused")
    p = stages["eval"]
    p.add_argument(
        "--detections",
        dest="detections_file",
        metavar="DETECTIONS",
        help="detection dump to evaluate (default: detect's output)",
    )
    p.add_argument(
        "--report", dest="report_file", metavar="REPORT", help="report file to write (default: report_<tag>.txt)"
    )
    stages["render"].add_argument("--min-score", default="0.0")

    p = sub.add_parser("compare", help="count per-category AP wins across reports")
    p.add_argument("reports", nargs="+", metavar="NAME=PATH")
    p.add_argument("--out", required=True)

    p = sub.add_parser("all", help="run the full pipeline on a synthetic dataset")
    _add_common(p, manifest=False)
    p.add_argument("--train-manifest")
    p.add_argument("--test-manifest")
    p.add_argument("--train-images", default=str(pipeline.ALL_TRAIN_IMAGES))
    p.add_argument("--test-images", default=str(pipeline.ALL_TEST_IMAGES))
    _add_dataset(p)

    return ap


def _run(args) -> int:
    # every numeric option's text becomes its value here; --seed is read as
    # the config key it overrides
    for dest, (option, parse) in _NUMBERS.items():
        if dest in args:
            try:
                setattr(args, dest, parse(getattr(args, dest)))
            except ValueError as exc:
                raise ValueError(f"bad value for {option}: {exc}") from None
    if getattr(args, "seed", None) is not None:
        args.seed = parse_setting("seed", args.seed, "--seed")
    if args.verb == "synth":
        spec = SynthSpec(
            n_classes=args.classes,
            n_images=args.images,
            max_shapes=args.max_shapes,
            noise=args.noise,
            image_size=args.image_size,
        )
        manifest = generate_dataset(args.out_dir, spec, args.seed, prefix=args.prefix)
        print(f"wrote {len(manifest.images)} images under {args.out_dir}")
        return 0

    if args.verb == "compare":
        named = {}
        for item in args.reports:
            if "=" not in item:
                raise ValueError(f"expected NAME=PATH, got {item!r}")
            name, _, path = item.partition("=")
            named[name] = Path(path)
        wins = pipeline.stage_compare(named, args.out)
        for name in sorted(wins):
            print(f"{name} {wins[name]}")
        return 0

    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    # looked up per call, so a stage replaced on the module (as the
    # benchmark's tracer does) is the one that runs
    stage = getattr(pipeline, "stage_" + args.verb.replace("-", "_"))
    written = stage(cfg, **{key: value for key, value in vars(args).items() if key not in ("verb", "config", "seed")})
    if args.verb == "all":
        print(f"report {written}")
    else:
        for path in written if isinstance(written, list) else [written]:
            print(f"wrote {path}")
    if args.verb in ("eval", "all"):
        print(f"mAP {fmt_float(mean_ap(read_report(written)))}")
    return 0


class _StderrHandler(logging.Handler):
    """Writes each record to the sys.stderr of the moment it is emitted. A
    logging.StreamHandler keeps the stream it was made with, so a verb run
    later in the same process under contextlib.redirect_stderr would log
    into the first verb's stream."""

    def emit(self, record: logging.LogRecord) -> None:
        try:
            sys.stderr.write(self.format(record) + "\n")
        except Exception:
            self.handleError(record)


def main(argv=None) -> int:
    single_thread_blas()  # the same bytes whatever the CPU count
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s", handlers=[_StderrHandler()])
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:
        print(f"fusedet: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
