"""fusedet benchmark: one workload, timed for a fixed time, checked, one JSON line.

Run from the root of a fusedet checkout:

    python3 perfbench/run.py --workload standard --seed 1 --seconds 30 --trace 0

`--trace 0` times whole passes over the workload's stage chain with nothing
patched and prints the end-to-end metrics; `--trace 1` records spans around
every layer's public functions over set-up plus one pass and prints the
per-layer metrics. Either way the outputs are checked, a human-readable
summary goes to stdout, and the last stdout line is one JSON object
`{"correct", "attempted", "failed", "metrics"}`. Details, including the
spans of a traced run, are written under perfbench/_results/.
"""

from __future__ import annotations

import sys
import time

_STARTED = time.perf_counter()  # import cost counts toward set-up
sys.dont_write_bytecode = True  # no .pyc in the checkout, so every run imports alike

import os

# One BLAS thread, fixed before numpy loads. The pipeline is Python-bound;
# on a shared 2-core box a second OpenBLAS thread mostly spin-waits, which
# burns CPU and adds timing noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter

import checks
import numpy
import scipy
from tracer import Tracer, inclusive_times, self_times
from workloads import FRONT_CHAIN, IMAGE_SIZE, WORKLOADS, VerbRunner, run_chain, stage_chain, synth, write_embeddings

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "_results"

SETUP_REPEATS = 3  # data generation is repeated and its median reported
MIN_PASSES = 2  # byte-identical reruns need two
MAX_PASSES = 50
AP_TOLERANCE = 1e-9  # the report rounds exact rational APs to floats

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_s": "s",
    "test_images_per_s": "1/s",
    "map": "ratio",
    "proposal_recall": "ratio",
    "peak_rss_mb": "MB",
}

# per-layer metrics: span names whose self time and call count are reported
SELF_TIMED = (
    "proposals.segment_graph", "proposals.hierarchical_grouping", "proposals.region_descriptors",
    "proposals.region_adjacency", "images.sample_window_rgb", "features.hog.hog",
    "features.ifv.dense_descriptors", "features.ifv.pca_apply", "features.ifv.fisher_encode",
    "features.ifv.gmm_fit", "features.ifv.pca_fit", "features.cnn.load_cnn_features",
    "features.cnn.write_cnn_features", "classify.train_svm", "classify.train_fusion",
    "regress.train_bbox_regressor", "regress.refine", "core.nms", "context.train_presence_prior",
    "cache.load_arrays", "cache.save_arrays", "modelio.read_model", "modelio.write_model",
    "evaluation.per_class_report",
)
CALL_COUNTED = (
    "proposals.segment_graph", "images.sample_window_rgb", "features.hog.hog",
    "features.ifv.dense_descriptors", "features.ifv.pca_apply", "features.ifv.fisher_encode",
    "features.cnn.load_cnn_features", "classify.train_svm", "regress.refine", "core.nms",
    "images.read_pnm", "manifest.read_manifest", "pipeline.read_proposals",
    "cache.load_arrays", "cache.save_arrays",
)
EXACT_COUNTS = (
    "features.ifv.gmm_fit.iterations", "features.cnn.load_cnn_features.bytes",
    "classify.train_svm.rows", "core.nms.in", "core.nms.out",
    "context.filter_detections.in", "context.filter_detections.out",
)
STAGES = (
    "propose.train", "propose.test", "extract.train", "extract.test", "train_svm.train",
    "train_fusion.train", "train_regressor.train", "train_prior.train", "detect.test", "eval.test",
)
# the layers of the per-layer rollup, by span-name prefix
LAYERS = (
    "synth", "images", "manifest", "proposals", "features.hog", "features.ifv", "features.cnn",
    "cache", "classify", "regress", "context", "core", "evaluation", "modelio", "pipeline",
    "config", "cli",
)


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Bench:
    """One run of one workload: set-up, passes, checks."""

    def __init__(self, wl, seed: int, seconds: int, trace: bool, work: Path):
        import fusedet.cli

        self.wl, self.seed, self.seconds, self.trace = wl, seed, seconds, trace
        self.work = work
        self.drive = VerbRunner(lambda argv: fusedet.cli.main(argv))  # looked up per call, so patches apply
        self.tracer = Tracer()
        self.problems = []
        self.config = None
        self.prep = None
        self.quality = {}

    def setup(self) -> dict:
        if self.wl.config:
            self.config = self.work / "config.txt"
            self.config.write_text("\n".join(self.wl.config) + "\n")
        times, digests, manifests = [], [], []
        for k in range(1 if self.trace else SETUP_REPEATS):
            start = perf_counter()
            manifests.append(synth(self.drive, self.wl, self.seed, self.work / f"data{k}"))
            times.append(perf_counter() - start)
            digests.append(checks.file_digests(self.work / f"data{k}"))
        if any(d != digests[0] for d in digests):
            self.problems.append("synth wrote different bytes for the same seed")
        self.manifests = dict(zip(("train", "test"), manifests[0]))
        prep_s = 0.0
        if self.wl.embed_dim:
            start = perf_counter()
            self._prepare_embeddings()
            prep_s = perf_counter() - start
        return {"synth_s": times, "prep_s": prep_s}

    def _prepare_embeddings(self) -> None:
        """Propose, extract, then overwrite the CNN channel with our own vectors."""
        import fusedet.pipeline

        self.prep = self.work / "prep"
        run_chain(self.drive, FRONT_CHAIN, self.manifests, self.prep, self.config)
        if self.drive.failed:
            return
        with self.tracer.span("bench.embed"):
            for split in ("train", "test"):
                proposals = checks.read_proposals(self.prep / f"proposals_{split}.txt")
                write_embeddings(
                    self.wl, self.manifests[split], proposals, self.prep, split,
                    fusedet.pipeline.write_cnn_features,
                )

    def one_pass(self, k: int) -> dict:
        out = self.work / f"pass{k}"
        if self.prep is not None:
            shutil.copytree(self.prep, out)
        else:
            out.mkdir()
        start = perf_counter()
        seconds, eval_out = run_chain(self.drive, stage_chain(self.wl), self.manifests, out, self.config)
        wall = perf_counter() - start
        record = {"wall": wall, "seconds": seconds, "digests": checks.file_digests(out)}
        if k == 0 and not self.drive.failed:
            self._check_outputs(out, eval_out)
        shutil.rmtree(out)
        return record

    def _check_outputs(self, out: Path, eval_out: str) -> None:
        n_cat, gts = checks.read_ground_truth(self.manifests["test"])
        detections = out / "detections_test.txt"
        aps, report_map = checks.read_report(out / "report_test.txt")
        printed = [ln.split()[1] for ln in eval_out.splitlines() if ln.startswith("mAP ")]
        if not printed or float(printed[0]) != report_map:
            self.problems.append(f"eval printed mAP {printed} but its report says {report_map!r}")
        ours = checks.average_precisions(detections, gts)
        if set(ours) != set(aps) or any(abs(ours[c] - aps[c]) > AP_TOLERANCE for c in aps):
            self.problems.append(f"report APs {aps} disagree with the independent evaluation {ours}")
        if abs(statistics.fmean(aps.values()) - report_map) > AP_TOLERANCE:
            self.problems.append("report mAP is not the mean of its per-category APs")
        self.problems.extend(checks.check_detections(detections, n_cat, gts, IMAGE_SIZE)[:5])
        self.quality = {
            "map": report_map,
            "proposal_recall": checks.proposal_recall(checks.read_proposals(out / "proposals_test.txt"), gts),
            "detections": len(detections.read_text().splitlines()),
        }

    def measure(self, passes: list, budget_start: float, min_passes: int) -> None:
        """Untraced passes until the next one would overrun the time budget."""
        while not self.drive.failed and len(passes) < MAX_PASSES:
            passes.append(self.one_pass(len(passes)))
            elapsed = perf_counter() - budget_start
            if len(passes) >= min_passes and elapsed + passes[-1]["wall"] > self.seconds:
                break

    def check_repeats(self, passes: list) -> None:
        first = passes[0]["digests"]
        for k, p in enumerate(passes[1:], start=1):
            changed = sorted(n for n in set(p["digests"]) | set(first) if p["digests"].get(n) != first.get(n))
            if changed:
                self.problems.append(f"pass {k} wrote different bytes than pass 0: {changed[:5]}")

    def run_untraced(self, import_s: float) -> tuple:
        setup = self.setup()
        passes = []
        self.measure(passes, perf_counter(), MIN_PASSES)
        self.check_repeats(passes)
        metrics = {"setup_s": import_s + statistics.median(setup["synth_s"]) + setup["prep_s"]}
        if not self.drive.failed:
            train_keys = [k for k in passes[0]["seconds"] if k.endswith(".train")]
            test_keys = [k for k in passes[0]["seconds"] if k.endswith(".test")]
            metrics.update(
                wall_s=statistics.median(p["wall"] for p in passes),
                train_s=statistics.median(sum(p["seconds"][k] for k in train_keys) for p in passes),
                test_images_per_s=statistics.median(
                    self.wl.test_images / sum(p["seconds"][k] for k in test_keys) for p in passes
                ),
                map=self.quality["map"],
                proposal_recall=self.quality["proposal_recall"],
                peak_rss_mb=peak_rss_mb(),
            )
        return setup, passes, {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}, []

    def run_traced(self) -> tuple:
        """Spans come from the traced set-up plus pass A. Pass B, also traced,
        must repeat pass A's counts exactly. The untraced passes after them
        must write the same bytes; the traced passes' mean wall time minus
        the untraced passes' median is the tracing overhead."""
        budget_start = perf_counter()
        self.tracer.install()
        try:
            setup = self.setup()
            after_setup = Counter(self.tracer.counts)
            passes = [self.one_pass(0)]
            end_a, after_a = len(self.tracer.spans), Counter(self.tracer.counts)
            passes.append(self.one_pass(1))
        finally:
            self.tracer.remove()
        pass_a, pass_b = after_a - after_setup, Counter(self.tracer.counts) - after_a
        if pass_a != pass_b:
            diff = sorted(k for k in pass_a | pass_b if pass_a[k] != pass_b[k])
            self.problems.append(f"exact counts differ between two traced passes: {diff[:5]}")
        self.measure(passes, budget_start, len(passes) + 1)
        self.check_repeats(passes)
        if self.drive.failed:
            return setup, passes, {}, []
        spans = self.tracer.spans[:end_a]
        # the traced intervals hold only verb calls and the benchmark's own embedding span
        traced_wall = sum(setup["synth_s"]) + setup["prep_s"] + passes[0]["wall"]
        overhead = statistics.fmean(p["wall"] for p in passes[:2]) - statistics.median(p["wall"] for p in passes[2:])
        return setup, passes, per_layer(spans, after_a, traced_wall, overhead), spans


def per_layer(spans: list, counts, traced_wall: float, overhead: float) -> dict:
    """Per-layer metrics of one traced set-up plus pass, as (value, unit)."""
    own = self_times(spans)
    out = {}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (own.get(name, 0.0), "s")
    for name in CALL_COUNTED:
        out[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
    for name in EXACT_COUNTS:
        out[name] = (counts[name], "bytes" if name.endswith(".bytes") else "count")
    images = max(counts["proposals.selective_search.calls"], 1)
    out["proposals.regions_per_image"] = (counts["proposals.regions"] / images, "count")
    out["proposals.boxes_per_image"] = (counts["proposals.boxes"] / images, "count")
    for name in ("core.nms", "context.filter_detections"):
        out[f"{name}.kept_ratio"] = (counts[f"{name}.out"] / max(counts[f"{name}.in"], 1), "ratio")
    inclusive = inclusive_times(spans)
    for stage in STAGES:
        out[f"pipeline.stage_{stage}.s"] = (inclusive.get(f"pipeline.stage_{stage}", 0.0), "s")
    program = 0.0
    for layer in LAYERS:
        total = sum(v for k, v in own.items() if k.startswith(layer + "."))
        out[f"layer.{layer}.self_s"] = (total, "s")
        program += total
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.unaccounted_s"] = (traced_wall - program, "s")
    out["trace.overhead_s"] = (overhead, "s")
    return out


def summary_lines(wl, args, env, setup, passes, metrics, problems) -> list:
    lines = [
        f"fusedet benchmark: workload {wl.name}, seed {args.seed}, {args.seconds} s, trace {args.trace}",
        "env: " + ", ".join(f"{k} {v}" for k, v in env.items()),
        f"workload: {wl.train_images} train / {wl.test_images} test images, config {list(wl.config) or 'default'}"
        + (f", {wl.embed_dim}-d embeddings" if wl.embed_dim else ""),
        "set-up: synth " + " ".join(f"{s:.3f}" for s in setup["synth_s"]) + f" s, prep {setup['prep_s']:.3f} s",
    ]
    if passes:
        walls = sorted(p["wall"] for p in passes)
        lines.append(
            f"passes: {len(walls)} samples, wall median {statistics.median(walls):.3f} s, "
            f"min {walls[0]:.3f} s, max {walls[-1]:.3f} s (too few samples for a tail percentile)"
        )
        lines.append("stage medians (s): " + ", ".join(
            f"{k} {statistics.median(p['seconds'][k] for p in passes):.3f}" for k in passes[0]["seconds"]
        ))
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<48} {value:>14.6g} {unit}")
    lines.append("checks: " + ("all passed" if not problems else "; ".join(problems)))
    return lines


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="non-negative workload seed")
    ap.add_argument("--seconds", type=int, required=True, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fusedet" / "cli.py").is_file():
        print(f"perfbench: no fusedet sources at {SRC}; run from a fusedet checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fusedet.cli

    import_s = perf_counter() - _STARTED
    wl = WORKLOADS[args.workload]
    env = {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS, "commit": git_commit(ROOT),
    }

    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(wl, args.seed, args.seconds, bool(args.trace), work)
    try:
        setup, passes, metrics, spans = bench.run_traced() if args.trace else bench.run_untraced(import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = bench.problems + bench.drive.errors

    for line in summary_lines(wl, args, env, setup, passes, metrics, problems):
        print(line)
    result = {
        "correct": not problems,
        "attempted": bench.drive.attempted,
        "failed": bench.drive.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    detail = {
        "env": env, "workload": wl.__dict__, "args": vars(args), "setup": setup,
        "passes": [{"wall": p["wall"], "seconds": p["seconds"]} for p in passes],
        "quality": bench.quality, "problems": problems, "result": result,
    }
    Path(f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if spans:
        Path(f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
