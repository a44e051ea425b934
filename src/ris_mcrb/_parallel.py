"""How a sweep uses the CPUs: one BLAS thread, forked worker processes,
and helper threads for ``build_B``'s chunks, inside one CPU budget.

A sweep runs every loaded OpenBLAS runtime at one thread
(``single_threaded_blas``): its BLAS calls are small and its workers and
helpers already keep every usable CPU busy, so more BLAS threads would
only contend for cores, and a threaded reduction may sum in another order.
A setter runs only when a count is not already the target: after a fork,
a setter call rebuilds OpenBLAS's thread server, whose thread then spins
(about 0.25 s of CPU time per call on a 2-vCPU host, even at one thread).
So the pool is forked at one thread, and neither its workers nor a sweep
nested in a pinned caller call a setter.

``parallel_map`` runs a sweep's tasks on forked workers, one per usable
CPU up to the task count, or inline on one CPU or without ``fork``. The
workers share a ``CpuBudget`` of a unit per usable CPU and count in it
while they run a task. While a unit is free, ``run_chunks`` hands
``build_B``'s chunks to helper threads too (scipy's LAPACK wrappers release
the GIL); outside a sweep worker the chunks run in order on the calling
thread. Every task and chunk is deterministic and its result its own, so
the bytes do not depend on which process or thread ran it, and where
several fail, the earliest raises, as the serial loop would.
"""

from __future__ import annotations

import contextlib
import ctypes
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


class CpuBudget:
    """The number of threads a sweep's processes run at once, one counter
    shared by every process forked after it is made.

    A sweep worker counts itself for as long as it runs a task (``hold``) and
    is counted at once, even past ``units``, so no worker ever waits. A
    helper thread runs only while it holds a unit taken by ``try_take``,
    which succeeds while fewer than ``units`` threads run; it gives the unit
    back (``give``) after each chunk of work, so a worker that starts a task
    leaves the helpers no unit to go on with.
    """

    def __init__(self, units: int, context):
        self.units = units
        self._running = context.Value("i", 0)

    def _add(self, count: int) -> None:
        with self._running.get_lock():
            self._running.value += count

    @contextlib.contextmanager
    def hold(self):
        """Count the calling thread while the block runs."""
        self._add(1)
        try:
            yield
        finally:
            self._add(-1)

    def try_take(self) -> bool:
        """Take a unit if fewer than ``units`` threads run."""
        with self._running.get_lock():
            if self._running.value >= self.units:
                return False
            self._running.value += 1
            return True

    def give(self) -> None:
        """Give back a unit taken by ``try_take``."""
        self._add(-1)


# (task, budget) of the sweep this process works for, set in each sweep
# worker by _start_worker; (None, None) elsewhere
_worker = (None, None)


def run_chunks(run, count: int) -> None:
    """``run(k)`` for every chunk ``k < count``, claimed in increasing order.
    Before each chunk it claims, the calling thread starts a helper thread
    if another chunk is unclaimed and the worker's budget has a free unit.
    A helper gives its unit back after each chunk and goes on only if it
    can take one again. After a failure no later chunk is claimed; once
    every helper has stopped, the earliest chunk's failure is raised."""
    _, budget = _worker
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
            budget.give()
            if not budget.try_take():
                return
        budget.give()

    helpers = []
    try:
        while (k := claim()) is not None:
            if budget is not None and claimed < end and budget.try_take():
                thread = threading.Thread(target=helper, name="build_B helper")
                try:
                    thread.start()
                except BaseException:
                    budget.give()
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


def _start_worker(task, budget) -> None:
    global _worker
    _worker = (task, budget)


def _run_in_worker(i: int):
    """``task(i)``, counted in the sweep's CPU budget while it runs."""
    task, budget = _worker
    with budget.hold():
        return task(i)


def parallel_map(task, n: int) -> list:
    """``[task(i) for i in range(n)]`` on forked workers, one per usable CPU
    up to ``n``; inline where that is one process or ``fork`` is missing.
    The pool is forked inside ``single_threaded_blas`` and its workers share
    one ``CpuBudget``. The results come back in index order, so the
    earliest failing index raises, with its type, message and payload; the
    tasks not yet started are then cancelled. Every worker is reaped
    before this returns."""
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
    budget = CpuBudget(cpus, context)
    with single_threaded_blas():
        pool = ProcessPoolExecutor(workers, context, initializer=_start_worker,
                                   initargs=(task, budget))
        try:
            return list(pool.map(_run_in_worker, range(n)))
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
