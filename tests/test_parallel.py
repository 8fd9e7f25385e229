"""Work over forked workers (propose and extract over images, train-svm over
its fits, the CNN text parse over blocks of lines): the worker count,
outputs and errors that do not depend on it, and workers that end with the
process that started them.

One worker is forced by giving the process one CPU (`os.sched_getaffinity`
as `fusedet.parallel` reads it), two workers by giving it two.
"""

import dataclasses
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from fusedet import cli, parallel
from fusedet.config import PipelineConfig
from fusedet.features import cnn
from fusedet.features.cnn import load_cnn_features, write_cnn_features
from fusedet.images import Image, read_pnm, write_pnm
from fusedet.manifest import read_manifest, write_manifest
from fusedet.parallel import map_indices, shared_empty, worker_count
from fusedet.pipeline import stage_extract, stage_propose, stage_train_svm
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
    assert worker_count(parallel.usable_cpus(), images) == workers


@pytest.mark.parametrize("images", [0, 1])
def test_zero_or_one_image_runs_in_process(monkeypatch, images):
    _cpus(monkeypatch, 4096)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(parallel.multiprocessing, "get_context", no_pool)
    assert map_indices(lambda i: i * 10, images) == [0][:images]


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

    assert map_indices(fill, 5) == [0, 1, 4, 9, 16]
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
    parallel.map_indices(work, 4)
except BrokenProcessPool:
    print("raised", multiprocessing.active_children())
"""


def test_a_worker_that_dies_fails_the_call_instead_of_hanging():
    # in a child interpreter, so that a hang fails this test instead of the suite
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", _DYING_WORKER], env=env, capture_output=True, text=True, timeout=60)
    assert done.stdout == "raised []\n", done.stderr


_KILLED_VERB = """
import os, signal, threading, time
from fusedet import parallel
os.sched_getaffinity = lambda pid: {0, 1}
signal.alarm(60)  # a call that never starts its tasks still ends
pids = parallel.shared_empty((2,), "int64")

def work(i):
    pids[i] = os.getpid()
    time.sleep(60)

def report():
    while not pids.all():
        time.sleep(0.01)
    print(*pids.tolist(), flush=True)

threading.Thread(target=report, daemon=True).start()
parallel.map_indices(work, 2)
"""


def _running(pid):
    """Whether pid is a process that has not yet exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the workers' parent-death signal is Linux's")
def test_a_killed_verb_takes_its_workers_with_it():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    verb = subprocess.Popen([sys.executable, "-c", _KILLED_VERB], env=env, stdout=subprocess.PIPE, text=True)
    pids = []
    try:
        pids = [int(tok) for tok in verb.stdout.readline().split()]
        assert len(set(pids)) == 2 and verb.pid not in pids
        verb.send_signal(signal.SIGTERM)
        verb.wait(timeout=30)
        deadline = time.monotonic() + 5
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in pids if _running(pid)] == []
    finally:
        verb.kill()
        verb.wait()
        verb.stdout.close()
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


# ---------------------------------------------------- outputs do not change


@pytest.mark.parametrize("images, gray", [(1, False), (5, False), (4, True)], ids=["one-image", "odd", "gray"])
def test_propose_and_extract_write_the_same_bytes_under_one_worker_and_two(tmp_path, monkeypatch, images, gray):
    manifest = _split(tmp_path / "data", images, gray)
    written = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        written[cpus] = _front(manifest, tmp_path / f"out{cpus}")
    assert written[1] == written[2]
    assert set(written[1]) == {
        "proposals_data.txt", "codebook_pca.model", "codebook_gmm.model", "features_data.npz",
        "runlog_propose_data.txt", "runlog_extract_data.txt",
    }
    assert multiprocessing.active_children() == []


def test_train_svm_writes_the_same_banks_under_one_worker_and_two(tmp_path, monkeypatch):
    manifest = _split(tmp_path / "data", 8)
    out = tmp_path / "out"
    _cpus(monkeypatch, 1)
    _front(manifest, out)
    # the negative subsample and the hard-negative round run in the workers too
    cfg = dataclasses.replace(
        _cfg(), svm_epochs=3, svm_negative_cap=40, svm_hard_negatives=True, svm_hard_negative_count=10
    )
    written = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        run = tmp_path / f"run{cpus}"
        shutil.copytree(out, run)
        paths = stage_train_svm(cfg, manifest, run)
        assert [p.name for p in paths] == ["svm_cnn.model", "svm_hog.model", "svm_ifv.model"]
        written[cpus] = {p.name: p.read_bytes() for p in sorted(run.iterdir())}
        assert multiprocessing.active_children() == []
    assert written[1] == written[2]


def _blocks(monkeypatch, block_bytes):
    """Sets the text a CNN parse block holds; the block counts that
    load_cnn_features asks parallel.map_indices for."""
    monkeypatch.setattr(cnn, "BLOCK_BYTES", block_bytes)
    asked = []

    def counted(work, n):
        asked.append(n)
        return map_indices(work, n)

    monkeypatch.setattr(cnn, "map_indices", counted)
    return asked


def test_a_cnn_text_parses_to_the_same_index_and_bits_under_one_worker_and_two(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    p = tmp_path / "feat.txt"
    write_cnn_features(p, [(f"im{r % 3}", r, rng.normal(size=7) * 10.0 ** rng.integers(-8, 8)) for r in range(40)])
    p.write_text("\n" + p.read_text().replace("\n", "\n\n", 4))  # blank lines shift the line numbers
    asked = _blocks(monkeypatch, 1024)
    parsed = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        parsed[cpus] = load_cnn_features(p)
        assert multiprocessing.active_children() == []
    # the block count follows the text's size alone, not the CPUs
    assert asked == [p.stat().st_size // 1024] * 2 and asked[0] > 2
    assert parsed[1][0] == parsed[2][0]
    assert parsed[1][1].shape == (40, 7) and parsed[1][1].tobytes() == parsed[2][1].tobytes()


@pytest.mark.parametrize(
    "dup_line, bad_line, expected",
    [(5, 6, "5: duplicate key ('im0', 0)"), (5, 2, "2: malformed feature value"), (6, 5, "5: malformed feature value")],
    ids=["duplicate-first", "first-block-error-first", "malformed-first"],
)
def test_the_first_bad_line_of_a_cnn_text_fails_the_same_under_one_worker_and_two(
    tmp_path, monkeypatch, dup_line, bad_line, expected
):
    # six records, each its own block
    lines = [f"im{r} 0 {r}.5 1.0" for r in range(6)]
    lines[dup_line - 1] = "im0 0 7.0 8.0"
    lines[bad_line - 1] = f"im{bad_line - 1} 0 1_0 8.0"
    p = tmp_path / "feat.txt"
    p.write_text("\n".join(lines) + "\n")
    asked = _blocks(monkeypatch, 1)
    messages = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        with pytest.raises(ValueError) as err:
            load_cnn_features(p)
        assert multiprocessing.active_children() == []
        messages.append(str(err.value))
    assert asked == [6, 6]
    assert messages == [f"{p}:{expected}"] * 2


def test_the_cli_writes_the_same_bytes_under_one_blas_thread_and_two(tmp_path):
    # the codebook fit and train-fusion's scores run OpenBLAS products in the
    # calling process, whose sums split over its threads; on a machine with
    # one CPU, OpenBLAS runs one thread under both settings
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS=threads)
        argv = ["all", "--out-dir", str(out), "--train-images", "24", "--test-images", "8"]
        done = subprocess.run(
            [sys.executable, "-m", "fusedet.cli", *argv], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        runs[threads] = done.stdout.replace(str(out), "<out>"), files
    (stdout1, files1), (stdout2, files2) = runs["1"], runs["2"]
    assert stdout1 == stdout2
    assert sorted(files1) == sorted(files2)
    assert [name for name in files1 if files1[name] != files2[name]] == []


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


def test_train_svm_refuses_a_category_without_positives_before_any_worker_starts(tmp_path, monkeypatch):
    manifest = _split(tmp_path / "data", 8)
    out = tmp_path / "out"
    _cpus(monkeypatch, 1)
    _front(manifest, out)
    man = read_manifest(manifest)
    for im in man.images:
        im.ground_truths = [dataclasses.replace(gt, category_id=0) for gt in im.ground_truths]
    write_manifest(manifest, man)
    expected = f"category 1 ({man.categories[1]}) has no positive proposals; cannot train its classifier"
    assert _failures(tmp_path, monkeypatch, stage_train_svm, manifest, out) == expected

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(parallel.multiprocessing, "get_context", no_pool)
    with pytest.raises(ValueError, match="category 1 .* has no positive proposals"):
        stage_train_svm(_cfg(), manifest, out)
    assert not (out / "svm_cnn.model").exists()
