"""The package's contact with BLAS: OpenBLAS thread control for the
sweeps, and the LAPACK and BLAS routines the package calls.

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

The double-complex routines (``getrf``, ``gecon``, ``getrs``, ``trcon``,
``trtrs``, ``gemm`` and, inside ``qr``, ``geqrf`` and ``ungqr``) come
straight from scipy's two compiled wrapper modules,
``scipy.linalg._flapack`` and ``scipy.linalg._fblas``. They are loaded
from their files; the ``scipy.linalg`` package is never imported, since
its ``__init__`` also loads scipy's array-API layer and with it
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``, which no run uses.
Each module is registered in ``sys.modules`` under its canonical name, so
a later ``import scipy.linalg`` reuses the same extension object (its
``lapack`` and ``blas`` modules find it; the attribute
``scipy.linalg._flapack`` itself stays unset), and a module that is
already imported is reused here. ``get_lapack_funcs`` and
``get_blas_funcs`` return these same routine objects for complex128
arrays, and ``qr`` makes the LAPACK calls of
``scipy.linalg.qr(a, mode="economic", check_finite=False)``.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

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


def _scipy_linalg_extension(name):
    """scipy's compiled module ``scipy.linalg.<name>``, loaded from its file
    and registered under that name, or the one already imported."""
    qualified = f"scipy.linalg.{name}"
    module = sys.modules.get(qualified)
    if module is not None:
        return module
    # find_spec of a top-level name locates the package without importing it
    scipy_spec = importlib.util.find_spec("scipy")
    scipy_dirs = scipy_spec.submodule_search_locations if scipy_spec else None
    spec = importlib.machinery.PathFinder.find_spec(
        qualified, [os.path.join(d, "linalg") for d in scipy_dirs or ()])
    if spec is None:
        raise ImportError(
            "ris_mcrb needs scipy's compiled LAPACK and BLAS wrappers "
            f"scipy.linalg._flapack and scipy.linalg._fblas; {qualified} "
            "was not found", name=qualified)
    module = importlib.util.module_from_spec(spec)
    sys.modules[qualified] = module
    spec.loader.exec_module(module)
    return module


_flapack = _scipy_linalg_extension("_flapack")
_fblas = _scipy_linalg_extension("_fblas")

getrf, gecon, getrs = _flapack.zgetrf, _flapack.zgecon, _flapack.zgetrs
trcon, trtrs = _flapack.ztrcon, _flapack.ztrtrs
gemm = _fblas.zgemm


def _lapack_call(name, *args, **kwargs):
    """LAPACK routine ``name`` after a ``lwork=-1`` workspace query, without
    its work array and ``info``; ``ValueError`` on an illegal argument."""
    routine = getattr(_flapack, name)
    query = routine(*args, lwork=-1, **kwargs)
    out = routine(*args, lwork=query[-2][0].real.astype(np.int_), **kwargs)
    if out[-1] < 0:
        raise ValueError(f"illegal value in {-out[-1]}th argument of "
                         f"internal {name}")
    return out[:-2]


def qr(a):
    """Economy QR ``(Q, R)`` of a complex128 matrix ``a`` with at least as
    many rows as columns, left unchanged: ``zgeqrf`` then ``zungqr``, each
    after a workspace query, so Q and R are bit for bit those of
    ``scipy.linalg.qr(a, mode="economic", check_finite=False)``, R in the
    same (C) order."""
    factored, tau = _lapack_call("zgeqrf", a)
    r = np.triu(factored[:a.shape[1]])
    q, = _lapack_call("zungqr", factored, tau, overwrite_a=1)
    return q, r
