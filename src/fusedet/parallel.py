"""Independent pieces of a stage's work spread over forked worker processes.

`map_indices` runs a function of an index over forked workers, one per CPU
the process may use, and returns the results in index order. A worker is a
fork of the calling process: it sees the caller's data as it was at the
fork, and writes its rows into arrays from `shared_empty`, which the caller
then reads. The caller hands the indices out in order, one at a time, to
whichever worker is free, over one pipe per worker; each worker sends back
the pickled result or exception of each index over another. This module
alone decides how many workers share a job, and outputs do not depend on
that count; there is no setting for it. A worker ends with the call, or with
the calling process if that is killed. Four places use it:

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
import pickle
import selectors
import signal
import struct
import sys
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Tuple, TypeVar

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


_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>

_INDEX = struct.Struct("q")  # an index, as the caller sends it to a worker
_SIZE = struct.Struct("Q")  # the length of the pickled answer that follows


def _read(fd: int, size: int) -> bytes:
    """size bytes from fd; EOFError if its writer closes it first."""
    parts = []
    while size:
        part = os.read(fd, min(size, 1 << 20))
        if not part:
            raise EOFError
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _answer(work: Callable[[int], object], i: int) -> bytes:
    """The framed, pickled answer for index i: (True, work(i)), or (False,
    the exception work raised). An answer that cannot be pickled becomes a
    RuntimeError naming the index and what it could not send."""
    try:
        answer = (True, work(i))
    except Exception as exc:
        answer = (False, exc)
    try:
        data = pickle.dumps(answer, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        what = "its result" if answer[0] else f"its {type(answer[1]).__name__}: {answer[1]}"
        error = RuntimeError(f"the worker for index {i} cannot send back {what} ({type(exc).__name__}: {exc})")
        data = pickle.dumps((False, error), pickle.HIGHEST_PROTOCOL)
    return _SIZE.pack(len(data)) + data


def _serve(work: Callable[[int], object], tasks: int, answers: int, parent: int, inherited: List[int]) -> None:
    """The life of a worker forked from the process parent: it answers each
    index read from tasks on answers, and returns when the caller closes
    tasks. Linux kills it when parent dies; if parent is already gone, it
    exits at once. inherited are the caller's pipe ends, which it closes so
    that it and the other workers see their pipes close with the caller."""
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)
    for fd in inherited:
        os.close(fd)
    single_thread_blas()
    while True:
        index = os.read(tasks, _INDEX.size)  # whole or empty: the caller writes each index at once
        if not index:
            return
        _write(answers, _answer(work, _INDEX.unpack(index)[0]))


def _map_forked(work: Callable[[int], T], n: int, workers: int) -> List[T]:
    """map_indices over that many forked workers (2 <= workers <= n)."""
    for stream in (sys.stdout, sys.stderr):
        stream.flush()  # what the caller has buffered is written once, not once more per worker
    fork = multiprocessing.get_context("fork")
    procs, tasks, answers = [], [], []  # per worker: its process, the ends indices go in and answers come out
    ended = False
    try:
        for _ in range(workers):
            task_out, task_in = os.pipe()
            answer_out, answer_in = os.pipe()
            inherited = tasks + answers + [task_in, answer_out]
            proc = fork.Process(target=_serve, args=(work, task_out, answer_in, os.getpid(), inherited))
            proc.start()
            os.close(task_out)
            os.close(answer_in)
            procs.append(proc)
            tasks.append(task_in)
            answers.append(answer_out)
        results: List[T] = [None] * n
        failure = None  # (index, exception) of the lowest index that failed so far
        running = {}  # worker -> the index it is working on

        def broken(k: int) -> BrokenProcessPool:
            procs[k].join()
            return BrokenProcessPool(
                f"a worker process ended (exit code {procs[k].exitcode}) before answering for index {running[k]}"
            )

        def hand_out(k: int, i: int) -> None:
            running[k] = i
            try:
                _write(tasks[k], _INDEX.pack(i))
            except BrokenPipeError:
                raise broken(k) from None

        for k in range(workers):
            hand_out(k, k)
        following = workers  # the next index to hand out
        with selectors.DefaultSelector() as waiting:
            for k, fd in enumerate(answers):
                waiting.register(fd, selectors.EVENT_READ, k)
            while running:
                for key, _ in waiting.select():
                    k = key.data
                    try:
                        data = _read(answers[k], _SIZE.unpack(_read(answers[k], _SIZE.size))[0])
                    except EOFError:
                        raise broken(k) from None
                    i = running.pop(k)
                    try:
                        ok, value = pickle.loads(data)
                    except Exception as exc:
                        ok, value = False, RuntimeError(
                            f"the answer for index {i} cannot be unpickled ({type(exc).__name__}: {exc})"
                        )
                    if ok:
                        results[i] = value
                    elif failure is None or i < failure[0]:
                        failure = (i, value)
                    # every index below a failed one is already handed out,
                    # and the ones above it are not needed
                    if following < n and failure is None:
                        hand_out(k, following)
                        following += 1
                    else:
                        # idle from now on: its pipe closing (it is killed,
                        # say) loses no answer
                        waiting.unregister(answers[k])
        ended = True
        if failure is not None:
            raise failure[1]
        return results
    finally:
        for fd in tasks + answers:
            os.close(fd)  # an idle worker reads the end of its tasks and returns
        for proc in procs:
            if not ended:
                proc.kill()
            proc.join()


def map_indices(work: Callable[[int], T], n: int) -> List[T]:
    """[work(0), ..., work(n - 1)], spread over forked worker processes when
    this process may use more than one CPU, else computed in this process.

    The workers are forks, so work may close over anything, including
    shared_empty arrays that it fills in; only an index and work's result
    are pickled between processes. A free worker takes the next index, so
    long and short tasks balance over the workers. If an index fails, no
    further index is handed out; once the running ones have answered, the
    exception of the lowest failed index is raised here, as in a plain loop.
    A result or exception that cannot be pickled fails its index with a
    RuntimeError saying so. A worker that dies without answering (killed
    from outside, say) raises BrokenProcessPool; one that dies idle, with no
    index left for it, changes nothing. No worker outlives the
    call, nor this process if it is killed.
    """
    _release_free_heap()
    workers = worker_count(usable_cpus(), n)
    if workers == 1:
        return [work(i) for i in range(n)]
    return _map_forked(work, n, workers)
