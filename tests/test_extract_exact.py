"""Extract's kernels against frozen copies of their earlier forms, bit for
bit: the separable window sampler against the four-neighbour gather, and
the descriptors written straight into their gradient pairs against
np.gradient and a stacked copy. Then the worker runner's answers that
cannot be pickled, and a worker killed once it is idle.
"""

import os
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from fusedet.features import dense_descriptors
from fusedet.images import sample_window


def _gather_sample_window(raster, corners, out_w, out_h):
    """sample_window as it was: four gathers of whole output grids, then
    the x blends and the y blend."""
    h, w = raster.shape[:2]
    x_min, y_min = corners[:, 0:1], corners[:, 1:2]
    widths = corners[:, 2:3] - x_min
    heights = corners[:, 3:4] - y_min
    xs = np.clip(x_min + (np.arange(out_w) + 0.5) * (widths / out_w) - 0.5, 0.0, w - 1.0)
    ys = np.clip(y_min + (np.arange(out_h) + 0.5) * (heights / out_h) - 0.5, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    pixels = raster.reshape(h * w, -1)
    fx = np.repeat((xs - x0)[:, None, :, None], pixels.shape[1], axis=3)
    fy = (ys - y0)[:, :, None, None]
    x1 = np.minimum(x0 + 1, w - 1)[:, None, :]
    row0 = (y0 * w)[:, :, None]
    row1 = (np.minimum(y0 + 1, h - 1) * w)[:, :, None]
    x0 = x0[:, None, :]

    def blend(index_a, index_b, weight_b):
        a = pixels.take(index_a, axis=0)
        a *= 1 - weight_b
        b = pixels.take(index_b, axis=0)
        b *= weight_b
        a += b
        return a

    top = blend(row0 + x0, row0 + x1, fx)
    bot = blend(row1 + x0, row1 + x1, fx)
    top *= 1 - fy
    bot *= fy
    top += bot
    return top if raster.ndim == 3 else top[..., 0]


def _stacked_dense_descriptors(planes, stride, patch):
    """dense_descriptors as it was: np.gradient, a stacked copy of its
    pairs, and a normalized copy of the patches."""
    single = planes.ndim == 2
    stack = planes[None] if single else planes
    n, h, w = stack.shape
    length = patch * patch * 2
    if w < patch or h < patch:
        out = np.zeros((n, 0, length))
    else:
        gy, gx = np.gradient(stack, axis=(1, 2))
        grads = np.stack([gx, gy], axis=-1)
        squares = sliding_window_view(grads, (patch, patch, 2), axis=(1, 2, 3))
        out = squares[:, ::stride, ::stride, 0].reshape(n, -1, length)
        norms = np.sqrt(np.vecdot(out, out))
        out = out / np.where(norms > 1e-12, norms, 1.0)[..., None]
    return out[0] if single else out


def _same(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def _windows(draw, h, w):
    """Windows inside the raster, touching its edges or crossing them, from
    under a pixel to several rasters wide, so that outputs both up- and
    downsample."""
    count = draw(st.integers(0, 3))
    rows = []
    for _ in range(count):
        corner = []
        for size in (w, h):
            lo = draw(st.one_of(st.just(0.0), st.floats(-0.75 * size, size - 0.25)))
            span = draw(st.one_of(st.just(size - lo), st.floats(0.1, 3.0 * size)))
            corner.append((lo, lo + span))
        (x0, x1), (y0, y1) = corner
        rows.append((x0, y0, x1, y1))
    return np.array(rows, dtype=np.float64).reshape(count, 4)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), h=st.integers(1, 40), w=st.integers(1, 40), rgb=st.booleans(),
       out_w=st.integers(1, 70), out_h=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
def test_sample_window_has_the_bits_of_the_four_neighbour_gather(data, h, w, rgb, out_w, out_h, seed):
    raster = np.random.default_rng(seed).integers(0, 256, size=(h, w, 3) if rgb else (h, w)).astype(np.float64)
    corners = data.draw(_windows(h, w))
    assert _same(sample_window(raster, corners, out_w, out_h), _gather_sample_window(raster, corners, out_w, out_h))


def test_sample_window_keeps_the_bits_at_the_extract_sizes():
    # the 64-pixel Fisher window, the 32-pixel HOG grid and the 6-pixel
    # thumbnail, from windows tiny, whole-image and larger than the image
    rng = np.random.default_rng(7)
    raster = rng.integers(0, 256, size=(96, 80, 3)).astype(np.float64)
    corners = np.array(
        [[3.5, 7.25, 5.0, 9.0], [0.0, 0.0, 80.0, 96.0], [-20.0, 50.0, 130.0, 200.0], [79.0, 95.0, 80.0, 96.0]]
    )
    for side in (64, 32, 6):
        assert _same(sample_window(raster, corners, side, side), _gather_sample_window(raster, corners, side, side))
        gray = raster[..., 1]
        assert _same(sample_window(gray, corners, side, side), _gather_sample_window(gray, corners, side, side))


def _planes(draw, count, h, w):
    kind = draw(st.sampled_from(["random", "8-bit", "constant"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "constant":
        return np.full((count, h, w), draw(st.sampled_from([0.0, 7.0, 255.0])))
    planes = rng.uniform(0, 255, size=(count, h, w))
    return np.rint(planes) if kind == "8-bit" else planes


@settings(max_examples=300, deadline=None)
@given(data=st.data(), patch=st.integers(2, 12), stride=st.integers(1, 14), count=st.integers(1, 3))
def test_dense_descriptors_have_the_bits_of_np_gradient_and_a_stacked_copy(data, patch, stride, count):
    # planes one patch wide (where the patches' reshape keeps a view) and
    # strides at or past the patch are drawn often
    h = data.draw(st.one_of(st.just(patch), st.integers(1, 40)))
    w = data.draw(st.one_of(st.just(patch), st.integers(1, 40)))
    planes = _planes(data.draw, count, h, w)
    assert _same(dense_descriptors(planes, stride, patch), _stacked_dense_descriptors(planes, stride, patch))
    assert _same(dense_descriptors(planes[0], stride, patch), _stacked_dense_descriptors(planes[0], stride, patch))


def test_dense_descriptors_on_overlapping_patches_of_a_plane_one_patch_wide():
    # the reshape keeps a view whose rows overlap: each row must still be
    # normalized once
    plane = np.random.default_rng(3).uniform(0, 255, size=(2, 30, 8))
    for stride in (1, 3, 8, 9):
        assert _same(dense_descriptors(plane, stride, 8), _stacked_dense_descriptors(plane, stride, 8))


_UNPICKLABLE = """
import os, threading
from fusedet import parallel
os.sched_getaffinity = lambda pid: {0, 1}

class Odd(Exception):
    def __init__(self, a, b):  # pickles as Odd(message), which cannot be rebuilt
        super().__init__(f"{a} {b}")

def lock_result(i):
    return threading.Lock() if i == 2 else i

def lock_error(i):
    if i == 1:
        error = ValueError("bad index 1")
        error.lock = threading.Lock()
        raise error
    return i

def odd_error(i):
    if i == 3:
        raise Odd("bad", i)
    return i

for work in (lock_result, lock_error, odd_error):
    try:
        parallel.map_indices(work, 5)
    except RuntimeError as exc:
        print(exc)
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child")
"""


def test_an_answer_that_cannot_be_pickled_fails_the_call_with_one_error_and_no_child():
    # in a child interpreter, so that a hang fails this test instead of the suite
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", _UNPICKLABLE], env=env, capture_output=True, text=True, timeout=60)
    assert done.stdout.splitlines() == [
        "the worker for index 2 cannot send back its result (TypeError: cannot pickle '_thread.lock' object)",
        "no child",
        "the worker for index 1 cannot send back its ValueError: bad index 1 "
        "(TypeError: cannot pickle '_thread.lock' object)",
        "no child",
        "the answer for index 3 cannot be unpickled "
        "(TypeError: Odd.__init__() missing 1 required positional argument: 'b')",
        "no child",
    ], done.stderr


_IDLE_KILLED = """
import os, signal, sys, time
from fusedet import parallel
os.sched_getaffinity = lambda pid: {0, 1}
mark = sys.argv[1]

def state(pid):
    with open(f"/proc/{pid}/stat") as fh:
        return fh.read().rsplit(")", 1)[1].split()[0]

def work(i):
    if i == 0:  # the first worker answers at once, and then has no index left
        with open(mark, "w") as fh:
            fh.write(str(os.getpid()))
        return "first"
    while not os.path.exists(mark) or not open(mark).read():
        time.sleep(0.01)
    idle = int(open(mark).read())
    while state(idle) != "S":  # asleep: waiting for an index that never comes
        time.sleep(0.01)
    os.kill(idle, signal.SIGKILL)
    time.sleep(0.3)  # the caller sees the idle worker's pipe close first
    return "second"

print(parallel.map_indices(work, 2))
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child")
"""


def test_a_worker_killed_once_idle_leaves_the_call_its_results(tmp_path):
    # the killed worker had answered its last index; the call still returns
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", _IDLE_KILLED, str(tmp_path / "pid")],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.stdout.splitlines() == ["['first', 'second']", "no child"], done.stderr
