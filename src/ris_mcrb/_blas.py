"""OpenBLAS thread control for the sweeps.

The BLAS calls of a sweep are small, and the sweep's worker processes
and their ``build_B`` helper threads already keep one thread per usable
CPU busy (``channel.CpuBudget``), so extra BLAS threads would only contend
with them for cores; a threaded reduction may also sum in another order.
Each sweep runner therefore runs every loaded OpenBLAS runtime at one
thread and restores its count when it returns.

A runtime's setter runs only when its count is not already the target.
OpenBLAS's fork handler shuts its thread server down, and a setter call
after a fork rebuilds it: the rebuilt server's thread spins, about 0.25 s
of CPU time per call on a 2-vCPU host, even at a count of 1. A process
forked while the count is 1 inherits that count, so a worker needs no
setter call and a sweep nested in a pinned caller makes none.
"""

from __future__ import annotations

import contextlib
import ctypes
import os

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
