"""Independent pieces of a stage's work spread over forked worker processes.

`map_indices` runs a function of an index over forked workers, one per CPU
the process may use, and returns the results in index order. A worker is a
fork of the calling process: it sees the caller's data as it was at the
fork, and writes its rows into arrays from `shared_empty`, which the caller
then reads. This module alone decides how many workers share a job, and
outputs do not depend on that count; there is no setting for it. A worker
ends with the call, or with the calling process if that is killed. Four
places use it:

- propose and extract, over the images of a split, each independent of the
  others;
- train-svm, over its (channel, category) fits, each with its own seed;
- `features.cnn.load_cnn_features`, over blocks of a CNN text's lines cut
  by size alone, whose vectors go into one shared matrix.

train-fusion and train-prior stay in one process: each fits one small model
per category, and all of its fits together cost about as much as starting
the workers does.

This module also owns the OpenBLAS thread count: `single_thread_blas` runs
OpenBLAS on one thread in every worker and, called from `cli.main`, in the
calling process, so the CLI's outputs do not depend on the CPU count either.
"""

from __future__ import annotations

import ctypes
import mmap
import multiprocessing
import os
import signal
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


def worker_count(cpus: int, indices: int) -> int:
    """How many processes share the work on that many indices: one per CPU
    the process may use, at most one per index and at most MAX_WORKERS. One
    means the work runs in the calling process."""
    return max(1, min(cpus, indices, MAX_WORKERS))


def shared_empty(shape: Tuple[int, ...], dtype) -> np.ndarray:
    """An array in anonymous shared memory: what forked workers write into
    it, the process that made it reads."""
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(count * dtype.itemsize, 1))
    return np.frombuffer(buf, dtype, count).reshape(shape)


def single_thread_blas() -> None:
    """Runs every OpenBLAS this process has loaded on the calling thread
    alone. `cli.main` calls it on entry and every worker on start.

    OpenBLAS splits a matrix product's sums over one thread per CPU, so
    products run on more threads can differ in the last bits: a codebook fit
    or a train-fusion on another machine would write other bytes. And its
    idle threads spin; in one worker per CPU they take the CPUs from the
    other workers. On a 2-vCPU VM, extracting 40 images took 4.5-9.9 s that
    way, against 1.6 s in one process."""
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


def usable_cpus() -> int:
    """CPUs this process may run on, where the system says (Linux); else 1,
    and the work stays in this process."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


_work: Optional[Callable[[int], object]] = None  # set in each worker

_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _start_worker(work: Callable[[int], object], parent: int) -> None:
    """Sets up a worker forked from the process parent, which Linux kills
    when parent dies; if parent is already gone, the worker exits at once."""
    global _work
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)
    _work = work
    single_thread_blas()


def _run(i: int):
    return _work(i)


def map_indices(work: Callable[[int], T], n: int) -> List[T]:
    """[work(0), ..., work(n - 1)], spread over forked worker processes when
    this process may use more than one CPU, else computed in this process.

    The workers are forks, so work may close over anything, including
    shared_empty arrays that it fills in; only an index and work's result
    are pickled between processes. Results come back in index order, so the
    first index that fails raises its exception here, as a plain loop would;
    the indices not yet started are then dropped. No worker outlives the
    call, nor this process if it is killed.
    """
    _release_free_heap()
    workers = worker_count(usable_cpus(), n)
    if workers == 1:
        return [work(i) for i in range(n)]
    # unlike multiprocessing.Pool, which waits forever for the result of a
    # worker that was killed, the executor then raises BrokenProcessPool
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, fork, _start_worker, (work, os.getpid())) as pool:
        return list(pool.map(_run, range(n)))
