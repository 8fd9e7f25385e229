"""Per-image work spread over forked worker processes.

Every image of a split is independent of the others in propose and extract,
so `map_images` runs a stage's per-image function over forked workers, one
per CPU the process may use, and returns the results in image order. A
worker is a fork of the stage's process: it sees the stage's data as it was
at the fork, and writes its rows into arrays from `shared_empty`, which the
stage then reads. Outputs do not depend on the worker count, and there is no
setting for it.
"""

from __future__ import annotations

import ctypes
import mmap
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

# workers never exceed this, however many CPUs the process may use: each
# holds its own copy of the per-image temporaries
MAX_WORKERS = 4

# the thread-count setters of the OpenBLAS builds numpy and scipy ship
_BLAS_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def worker_count(cpus: int, images: int) -> int:
    """How many processes share a split's per-image work: one per CPU the
    process may use, at most one per image and at most MAX_WORKERS. One
    means the work runs in the calling process."""
    return max(1, min(cpus, images, MAX_WORKERS))


def shared_empty(shape: Tuple[int, ...], dtype) -> np.ndarray:
    """An array in anonymous shared memory: what forked workers write into
    it, the process that made it reads."""
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(count * dtype.itemsize, 1))
    return np.frombuffer(buf, dtype, count).reshape(shape)


def _single_thread_blas() -> None:
    """Runs every OpenBLAS this process has loaded on the calling thread
    alone. OpenBLAS starts one thread per CPU, and its idle threads spin; in
    one worker per CPU they take the CPUs from the other workers. On a
    2-vCPU VM, extracting 40 images took 4.5-9.9 s that way, against 1.6 s
    in one process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[5].strip() for line in fh if "openblas" in line}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for name in _BLAS_SETTERS:
            if hasattr(lib, name):
                getattr(lib, name)(1)
                break


def _release_free_heap() -> None:
    """Hands the heap memory this process has freed back to the system
    (glibc's malloc_trim; elsewhere nothing happens). Rows in shared memory
    take fresh pages, not the freed heap a stage would otherwise reuse for
    them, so without this they would come on top of it."""
    if sys.platform.startswith("linux"):
        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
        if trim is not None:
            trim(0)


def _usable_cpus() -> int:
    """CPUs this process may run on, where the system says (Linux); else 1,
    and the work stays in this process."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


_work: Optional[Callable[[int], object]] = None  # set in each worker


def _start_worker(work: Callable[[int], object]) -> None:
    global _work
    _work = work
    _single_thread_blas()


def _run(i: int):
    return _work(i)


def map_images(work: Callable[[int], T], n: int) -> List[T]:
    """[work(0), ..., work(n - 1)], spread over forked worker processes when
    this process may use more than one CPU, else computed in this process.

    The workers are forks, so work may close over anything, including
    shared_empty arrays that it fills in; only an image's index and work's
    result are pickled between processes. Results come back in index order,
    so the first image that fails raises its exception here, as a plain loop
    would; the images not yet started are then dropped. No worker outlives
    the call.
    """
    _release_free_heap()
    workers = worker_count(_usable_cpus(), n)
    if workers == 1:
        return [work(i) for i in range(n)]
    # unlike multiprocessing.Pool, which waits forever for the result of a
    # worker that was killed, the executor then raises BrokenProcessPool
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, fork, _start_worker, (work,)) as pool:
        return list(pool.map(_run, range(n)))
