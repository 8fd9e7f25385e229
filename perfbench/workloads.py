"""The benchmark's workloads and the stage chain each one times.

Every workload is generated from the benchmark's own seed by the program's
`synth` verb; the program only ever sees the generated files. Stages are
driven through the public CLI entry point, one `fusedet.cli.main([...])`
call per verb, so a verb that exits nonzero counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import re
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np
from checks import read_ground_truth

IMAGE_SIZE = 96  # the synth default every workload keeps

FRONT_CHAIN = [("propose", "train"), ("propose", "test"), ("extract", "train"), ("extract", "test")]
TRAIN_VERBS = ("train-svm", "train-fusion", "train-regressor", "train-prior")
TEST_VERBS = ("detect", "eval")
MAX_SYNTH_ATTEMPTS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    train_images: int
    test_images: int
    config: Tuple[str, ...]  # `key = value` lines over the defaults
    embed_dim: int = 0  # > 0: per-proposal vectors of this width replace the stand-in


# At this scale (tens of training images) the auto-calibrated presence gate
# rests on a held-out split of a few images and removes whole true categories
# on some seeds, which makes mAP swing between about 0.5 and 0.9 from seed to
# seed; with the gate open it stays at 0.97-1.0. So every workload runs the
# gate open: presence scores and filtering still run and are timed.
OPEN_GATE = ("prior.tau = -inf",)

# Fine segmentation, with the proposal cap below every image's natural count
# (110-240 on this generator), so per-image work, and with it the timing,
# hardly varies with the seed.
DENSE = ("seg.k = 20", "seg.min_size = 5", "proposals.max_per_image = 100")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="standard",
            why="default config, gate open, on the synthetic yardstick: per-pixel segmentation and per-proposal extraction carry the load",
            train_images=24,
            test_images=24,
            config=OPEN_GATE,
        ),
        Workload(
            name="dense",
            why="fine segmentation yields 110-240 proposals per image, capped at 100: per-proposal features, SVM rows, refine and NMS dominate",
            train_images=8,
            test_images=10,
            config=OPEN_GATE + DENSE + ("svm.negative_cap = 500",),
        ),
        Workload(
            name="embed",
            why="user-supplied 2048-d embeddings for 100 proposals per image: text ingest and wide linear training dominate; propose and extract are set-up only",
            train_images=8,
            test_images=8,
            config=OPEN_GATE + DENSE,
            embed_dim=2048,
        ),
    )
}


class VerbRunner:
    """Runs CLI verbs in-process, timing each and counting failures."""

    def __init__(self, main: Callable[[List[str]], int]):
        self._main = main
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def __call__(self, argv: List[str]) -> str:
        """Runs one verb; returns what it printed to stdout."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self._main(argv)
            except Exception as exc:  # a verb that raises past main() is a failed op too
                code, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
        if code != 0:
            self.failed += 1
            self.errors.append(f"{argv[0]}: {err.getvalue().strip()}")
        return out.getvalue()


def synth(drive: VerbRunner, wl: Workload, seed: int, data_dir: Path) -> Tuple[Path, Path]:
    """Generates the train and test splits; returns their manifests.

    The program cannot train a category with no examples, so the train split
    is regenerated from the next derived seed until it holds every category:
    still a pure function of `seed`.
    """
    manifests = []
    for split, count, prefix, offset in (("train", wl.train_images, "tr", 0), ("test", wl.test_images, "te", 1)):
        out = data_dir / split
        for attempt in range(MAX_SYNTH_ATTEMPTS):
            drive([
                "synth", "--out-dir", str(out), "--images", str(count), "--size", str(IMAGE_SIZE),
                "--seed", str(1000 * seed + 2 * attempt + offset), "--prefix", prefix,
            ])
            n_categories, gts = read_ground_truth(out / "manifest.txt")
            present = {cid for objects in gts.values() for cid, _ in objects}
            if split == "test" or len(present) == n_categories:
                break
        manifests.append(out / "manifest.txt")
    return manifests[0], manifests[1]


def common_args(manifest: Path, out_dir: Path, config: Path | None) -> List[str]:
    args = ["--manifest", str(manifest), "--out-dir", str(out_dir)]
    return args + (["--config", str(config)] if config else [])


def stage_chain(wl: Workload) -> List[Tuple[str, str]]:
    """(verb, split) in run order: the timed part of one pass."""
    back = [(v, "train") for v in TRAIN_VERBS] + [(v, "test") for v in TEST_VERBS]
    return back if wl.embed_dim else FRONT_CHAIN + back


def run_chain(drive: VerbRunner, chain, manifests, out_dir: Path, config) -> Tuple[Dict[str, float], str]:
    """Runs verbs in order; returns per-(verb, split) seconds and eval's stdout."""
    seconds: Dict[str, float] = {}
    eval_out = ""
    for verb, split in chain:
        start = perf_counter()
        printed = drive([verb] + common_args(manifests[split], out_dir, config))
        seconds[f"{verb}.{split}"] = perf_counter() - start
        if verb == "eval":
            eval_out = printed
    return seconds, eval_out


EMBED_SIDE = 8  # crops are pooled to EMBED_SIDE x EMBED_SIDE RGB cells
EMBED_SUPERSAMPLE = 4  # samples per cell and axis, averaged
EMBED_SEED = 20140922  # fixed, so embedding quality does not vary with the workload seed


def embedding_projection(dim: int) -> np.ndarray:
    """Seeded Gaussian map from a pooled RGB crop to `dim` features."""
    rng = np.random.default_rng([EMBED_SEED, dim])
    inputs = EMBED_SIDE * EMBED_SIDE * 3
    return rng.standard_normal((inputs, dim)) / np.sqrt(inputs)


def _pooled_crop(pixels: np.ndarray, box) -> np.ndarray:
    """Mean colour of each EMBED_SIDE x EMBED_SIDE cell of box, scaled to [-0.5, 0.5]."""
    h, w = pixels.shape[:2]
    n = EMBED_SIDE * EMBED_SUPERSAMPLE
    steps = (np.arange(n) + 0.5) / n
    xs = np.clip((box[0] + steps * (box[2] - box[0])).astype(int), 0, w - 1)
    ys = np.clip((box[1] + steps * (box[3] - box[1])).astype(int), 0, h - 1)
    samples = pixels[np.ix_(ys, xs)].reshape(EMBED_SIDE, EMBED_SUPERSAMPLE, EMBED_SIDE, EMBED_SUPERSAMPLE, 3)
    return samples.mean(axis=(1, 3)).reshape(-1) / 255.0 - 0.5


def _read_ppm(path: Path) -> np.ndarray:
    """Binary P6 as written by synth: magic, width, height, maxval, one space, raster."""
    data = path.read_bytes()
    header = re.match(rb"P6\s+(\d+)\s+(\d+)\s+255\s", data)
    if header is None:
        raise ValueError(f"{path}: expected an 8-bit binary PPM")
    w, h = int(header.group(1)), int(header.group(2))
    return np.frombuffer(data, dtype=np.uint8, count=w * h * 3, offset=header.end()).reshape(h, w, 3)


def write_embeddings(wl: Workload, manifest: Path, proposals, out_dir: Path, tag: str, write) -> None:
    """Replaces extract's stand-in vectors with the benchmark's own embedding.

    ReLU of a fixed random projection of each proposal's pooled crop, L2-normalized:
    a wide, non-negative vector like a CNN's penultimate layer. Written with
    `write(path, records)` in the documented `image_id index v1 ... vD` format.
    """
    proj = embedding_projection(wl.embed_dim)
    per_box, per_image = [], []
    for line in manifest.read_text().splitlines()[1:]:
        parts = line.split()
        if len(parts) != 3:
            continue  # ground-truth rows
        image_id, rel, _ = parts
        pixels = _read_ppm(manifest.parent / rel)
        full = (0.0, 0.0, float(pixels.shape[1]), float(pixels.shape[0]))
        boxes = proposals[image_id]
        crops = np.stack([_pooled_crop(pixels, b) for b in [full] + boxes])
        vecs = np.maximum(crops @ proj, 0.0)
        vecs /= np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12)
        per_image.append((image_id, 0, vecs[0]))
        per_box.extend((image_id, p, v) for p, v in enumerate(vecs[1:]))
    write(out_dir / f"cnn_{tag}.txt", per_box)
    write(out_dir / f"cnn_images_{tag}.txt", per_image)
