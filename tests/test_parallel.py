"""Per-image work over forked workers: the worker count, and outputs and
errors that do not depend on it.

One worker is forced by giving the process one CPU (`os.sched_getaffinity`
as `fusedet.parallel` reads it), two workers by giving it two.
"""

import multiprocessing
import os
import shutil
import subprocess
import sys

import pytest

from fusedet import cli, parallel
from fusedet.config import PipelineConfig
from fusedet.images import Image, read_pnm, write_pnm
from fusedet.manifest import read_manifest, write_manifest
from fusedet.parallel import map_images, shared_empty, worker_count
from fusedet.pipeline import stage_extract, stage_propose
from fusedet.synth import SynthSpec, generate_dataset


def _cfg():
    return PipelineConfig(ifv_codebook_samples=1000, ifv_pca_dim=8, ifv_gmm_k=2, ifv_gmm_iters=5)


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _split(root, images, gray=False):
    """A synthetic split of that many 48 px images; its manifest path."""
    spec = SynthSpec(n_classes=2, n_images=images, max_shapes=1, noise=0.2, image_size=48)
    generate_dataset(root, spec, seed=images)
    manifest = root / "manifest.txt"
    if gray:
        man = read_manifest(manifest)
        for im in man.images:
            img = read_pnm(man.resolved_path(im))
            im.path = f"{im.image_id}.pgm"
            write_pnm(Image.from_array(img.pixels[:, :, :1]), root / im.path)
        write_manifest(manifest, man)
    return manifest


def _front(manifest, out):
    """Runs propose then extract; every file they wrote, by name."""
    stage_propose(_cfg(), manifest, out)
    stage_extract(_cfg(), manifest, out)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


# ---------------------------------------------------------------- the count


@pytest.mark.parametrize(
    "cpus, images, workers",
    [(1, 0, 1), (1, 1, 1), (1, 5, 1), (2, 0, 1), (2, 1, 1), (2, 5, 2), (4096, 0, 1), (4096, 1, 1), (4096, 5, 4)],
)
def test_worker_count_is_one_per_cpu_within_the_images_and_a_small_ceiling(monkeypatch, cpus, images, workers):
    _cpus(monkeypatch, cpus)
    assert worker_count(parallel._usable_cpus(), images) == workers


@pytest.mark.parametrize("images", [0, 1])
def test_zero_or_one_image_runs_in_process(monkeypatch, images):
    _cpus(monkeypatch, 4096)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(parallel.multiprocessing, "get_context", no_pool)
    assert map_images(lambda i: i * 10, images) == [0][:images]


def test_shared_empty_has_the_shape_and_dtype_asked_for():
    rows = shared_empty((3, 5), "float32")
    assert rows.shape == (3, 5) and rows.dtype == "float32" and rows.flags.writeable
    assert shared_empty((0, 0), "float64").shape == (0, 0)


def test_workers_write_rows_the_caller_reads(monkeypatch):
    _cpus(monkeypatch, 2)
    rows = shared_empty((5, 2), "float64")

    def fill(i):
        rows[i] = (i, os.getpid())
        return i * i

    assert map_images(fill, 5) == [0, 1, 4, 9, 16]
    assert rows[:, 0].tolist() == [0, 1, 2, 3, 4]
    assert set(rows[:, 1].tolist()) - {os.getpid()}  # some rows came from another process
    assert multiprocessing.active_children() == []


_DYING_WORKER = """
import multiprocessing, os
from concurrent.futures.process import BrokenProcessPool
from fusedet import parallel
os.sched_getaffinity = lambda pid: {0, 1}

def work(i):
    if i == 1:
        os._exit(3)  # as a worker the system kills
    return i

try:
    parallel.map_images(work, 4)
except BrokenProcessPool:
    print("raised", multiprocessing.active_children())
"""


def test_a_worker_that_dies_fails_the_call_instead_of_hanging():
    # in a child interpreter, so that a hang fails this test instead of the suite
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", _DYING_WORKER], env=env, capture_output=True, text=True, timeout=60)
    assert done.stdout == "raised []\n", done.stderr


# ---------------------------------------------------- outputs do not change


@pytest.mark.parametrize("images, gray", [(1, False), (5, False), (4, True)], ids=["one-image", "odd", "gray"])
def test_propose_and_extract_write_the_same_bytes_under_one_worker_and_two(tmp_path, monkeypatch, images, gray):
    manifest = _split(tmp_path / "data", images, gray)
    written = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        written[cpus] = _front(manifest, tmp_path / f"out{cpus}")
    assert written[1] == written[2]
    assert {"proposals_data.txt", "features_data.npz", "cnn_data.txt", "cnn_images_data.txt",
            "runlog_propose_data.txt", "runlog_extract_data.txt"} <= set(written[1])
    assert multiprocessing.active_children() == []


# ----------------------------------------------------- errors do not change


def _failures(tmp_path, monkeypatch, verb, manifest, out):
    """The message verb raises on manifest under one worker and under two,
    each run on a fresh copy of out; no worker may be left running."""
    messages = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        run = tmp_path / f"run{cpus}"
        shutil.copytree(out, run)
        with pytest.raises(ValueError) as err:
            verb(_cfg(), manifest, run)
        assert multiprocessing.active_children() == []
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    return messages[0]


def test_the_first_malformed_image_in_order_fails_the_same_under_one_worker_and_two(tmp_path, monkeypatch):
    manifest = _split(tmp_path / "data", 7)
    out = tmp_path / "out"
    _cpus(monkeypatch, 1)
    _front(manifest, out)  # proposals and a codebook, from the good images
    man = read_manifest(manifest)
    third, sixth = (man.resolved_path(man.images[i]) for i in (2, 5))
    third.write_bytes(third.read_bytes()[:-10])
    sixth.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    expected = f"{third}: raster has {48 * 48 * 3 - 10} bytes, expected {48 * 48 * 3}"
    assert _failures(tmp_path / "propose", monkeypatch, stage_propose, manifest, out) == expected
    assert _failures(tmp_path / "extract", monkeypatch, stage_extract, manifest, out) == expected


def test_a_split_of_mixed_channel_counts_fails_the_same_under_one_worker_and_two(tmp_path, monkeypatch):
    manifest = _split(tmp_path / "data", 5)
    out = tmp_path / "out"
    _cpus(monkeypatch, 1)
    _front(manifest, out)
    man = read_manifest(manifest)
    gray = man.images[3]
    img = read_pnm(man.resolved_path(gray))
    write_pnm(Image.from_array(img.pixels[:, :, :1]), tmp_path / "data" / "gray.pgm")
    gray.path = "gray.pgm"
    write_manifest(manifest, man)
    assert _failures(tmp_path, monkeypatch, stage_extract, manifest, out) == (
        f"{manifest}: image {man.images[0].image_id} has 3 channels but image {gray.image_id} has 1; "
        "the images of one split must share a channel count"
    )


def test_a_failing_verb_prints_one_error_line_and_leaves_no_worker(tmp_path, monkeypatch, capsys):
    manifest = _split(tmp_path / "data", 5)
    man = read_manifest(manifest)
    missing = man.resolved_path(man.images[1])
    missing.unlink()
    _cpus(monkeypatch, 2)
    assert cli.main(["propose", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"fusedet: error: [Errno 2] No such file or directory: '{missing}'\n"
    assert multiprocessing.active_children() == []
