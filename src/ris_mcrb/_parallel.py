"""How a sweep uses the CPUs: one BLAS thread, forked worker processes,
and helper threads for ``build_B``'s chunks on the CPUs no task occupies.

A sweep runs every loaded OpenBLAS runtime at one thread
(``single_threaded_blas``): its BLAS calls are small and its workers and
helpers already keep every usable CPU busy, so more BLAS threads would
only contend for cores, and a threaded reduction may sum in another order.
A setter runs only when a count is not already the target: after a fork,
a setter call rebuilds OpenBLAS's thread server, whose thread then spins
(about 0.25 s of CPU time per call on a 2-vCPU host, even at one thread).
So the sweep runners pin before they fork the pool, and neither its
workers nor a sweep nested in a pinned caller call a setter.

``parallel_map`` runs a sweep's tasks on forked workers, one per usable
CPU up to the task count, or inline on one CPU or without ``fork``. A CPU
no task runs on is spare: those beyond the worker count from the start,
and, once fewer tasks are left than workers, one more per task that ends,
since no task is left for that worker. The parent process releases a
semaphore unit for each; workers never count themselves. ``run_chunks``
starts a helper thread for ``build_B``'s chunks on each unit it can take
(scipy's LAPACK wrappers release the GIL), so helpers and tasks together
never exceed the usable CPUs; outside a sweep worker the chunks run in
order on the calling thread. Every task and chunk is deterministic and
its result its own, so the bytes do not depend on which process or
thread ran it, and where several fail, the earliest raises, as the
serial loop would.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import os
import threading

# (prefix, suffix) of the thread-count functions, in lookup order: upstream
# OpenBLAS, and the LP64 and ILP64 builds that scipy and numpy wheels ship
_OPENBLAS_NAMES = (("openblas_", ""), ("scipy_openblas_", ""),
                   ("scipy_openblas_", "64_"))


def openblas_thread_controls():
    """``(get, set)`` thread-count functions of each loaded OpenBLAS runtime.

    The runtimes are the shared objects named like OpenBLAS in
    ``/proc/self/maps``; where that file cannot be read, there are none.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8",
                  errors="surrogateescape") as fh:
            # the pathname, where a line has one, is its sixth field
            mapped = {line.split(maxsplit=5)[-1].rstrip("\n") for line in fh}
    except OSError:
        return []
    controls = []
    for path in sorted(p for p in mapped if "openblas" in os.path.basename(p).lower()):
        try:
            # NOLOAD: only ever attach to an object that is already mapped
            lib = ctypes.CDLL(path, mode=os.RTLD_NOW | os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_NAMES:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                controls.append((get, set_))
                break
    return controls


@contextlib.contextmanager
def single_threaded_blas():
    """Set every loaded OpenBLAS runtime to one thread, then restore each
    runtime's previous count; a runtime already at the count it is to be
    set to is left alone, on entry and on restore."""
    controls = openblas_thread_controls()
    saved = [get() for get, _ in controls]
    try:
        for (_, set_), count in zip(controls, saved):
            if count != 1:
                set_(1)
        yield
    finally:
        for (get, set_), count in zip(controls, saved):
            if get() != count:
                set_(count)


# (task, spare) of the sweep this process works for, set in each sweep
# worker by _start_worker: its task and the semaphore of spare CPUs;
# (None, None) elsewhere
_worker = (None, None)


def run_chunks(run, count: int) -> None:
    """``run(k)`` for every chunk ``k < count``, claimed in increasing order.
    Before each chunk it claims, the calling thread starts a helper thread
    if another chunk is unclaimed and it can take a unit of the worker's
    spare CPUs. A helper gives its unit back after each chunk and goes on
    only if it can take one again. After a failure no later chunk is
    claimed; once every helper has stopped, the earliest chunk's failure
    is raised."""
    _, spare = _worker
    lock = threading.Lock()
    claimed, end = 0, count
    failures = {}

    def claim():
        nonlocal claimed
        with lock:
            if claimed >= end:
                return None
            claimed += 1
            return claimed - 1

    def attempt(k):
        nonlocal end
        try:
            run(k)
        except BaseException as exc:  # raised by the calling thread below
            with lock:
                failures[k] = exc
                end = min(end, k)

    def helper():
        while (k := claim()) is not None:
            attempt(k)
            spare.release()
            if not spare.acquire(False):
                return
        spare.release()

    helpers = []
    try:
        while (k := claim()) is not None:
            if spare is not None and claimed < end and spare.acquire(False):
                thread = threading.Thread(target=helper, name="build_B helper")
                try:
                    thread.start()
                except BaseException:
                    spare.release()
                    raise
                helpers.append(thread)
            attempt(k)
    finally:
        with lock:
            end = 0
        for thread in helpers:
            thread.join()
    if failures:
        raise failures[min(failures)]


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _start_worker(task, spare) -> None:
    global _worker
    _worker = (task, spare)


def _run_in_worker(i: int):
    return _worker[0](i)


def parallel_map(task, n: int) -> list:
    """``[task(i) for i in range(n)]`` on forked workers, one per usable CPU
    up to ``n``; inline where that is one process or ``fork`` is missing.
    The caller has pinned BLAS (``single_threaded_blas``), so the workers
    fork at one thread. They share a semaphore of the spare CPUs, which
    only this process releases, as tasks end. The results come back in
    index order, so the earliest failing index raises, with its type,
    message and payload; the tasks not yet started are then cancelled.
    Every worker is reaped before this returns."""
    import multiprocessing  # not with the package: experiments loads it
    from concurrent.futures import ProcessPoolExecutor

    cpus = _usable_cpus()
    workers = min(n, cpus)
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [task(i) for i in range(n)]
    # fork, not spawn: a forked worker starts with this process's imports
    # and pair memo, and inherits its initializer arguments, so ``task``
    # may be a closure; it is never pickled
    context = multiprocessing.get_context("fork")
    spare = context.Semaphore(cpus - workers)
    ended = itertools.count(1)  # next() is atomic: callbacks run on two threads

    def release(future):
        # after the k-th task ends, n - k are left; below the worker count,
        # the worker that ran it has none to take
        if not future.cancelled() and n - next(ended) < workers:
            spare.release()

    pool = ProcessPoolExecutor(workers, context, initializer=_start_worker,
                               initargs=(task, spare))
    try:
        futures = [pool.submit(_run_in_worker, i) for i in range(n)]
        for future in futures:
            future.add_done_callback(release)
        return [future.result() for future in futures]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
