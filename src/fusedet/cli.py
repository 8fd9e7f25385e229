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
from .config import PipelineConfig, load_config
from .evaluation import mean_ap, read_report
from .modelio import fmt_float
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


def _config_from(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _add_common(p, manifest=True):
    p.add_argument("--out-dir", required=True, help="artifact directory")
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--seed", type=int, help="override the configured base seed")
    if manifest:
        p.add_argument(
            "--manifest", required=True, dest="manifest_path", metavar="MANIFEST", help="dataset manifest file"
        )
        p.add_argument("--tag", help="artifact tag (default: manifest directory name)")


def _add_dataset(p):
    """The synthetic-dataset options of `synth` and `all`."""
    p.add_argument("--classes", type=int, default=SynthSpec.n_classes)
    p.add_argument("--max-shapes", type=int, default=SynthSpec.max_shapes)
    p.add_argument("--noise", type=float, default=SynthSpec.noise)
    p.add_argument("--size", type=int, default=SynthSpec.image_size, dest="image_size", metavar="SIZE")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fusedet", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("synth", help="generate a synthetic shape dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--images", type=int, default=SynthSpec.n_images)
    _add_dataset(p)
    p.add_argument("--seed", type=int, default=0)
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
    stages["render"].add_argument("--min-score", type=float, default=0.0)

    p = sub.add_parser("compare", help="count per-category AP wins across reports")
    p.add_argument("reports", nargs="+", metavar="NAME=PATH")
    p.add_argument("--out", required=True)

    p = sub.add_parser("all", help="run the full pipeline on a synthetic dataset")
    _add_common(p, manifest=False)
    p.add_argument("--train-manifest")
    p.add_argument("--test-manifest")
    p.add_argument("--train-images", type=int, default=200)
    p.add_argument("--test-images", type=int, default=50)
    _add_dataset(p)

    return ap


def _run(args) -> int:
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

    cfg = _config_from(args)
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


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:
        print(f"fusedet: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
