"""The LAPACK and BLAS routines the package calls; the OpenBLAS thread
count a sweep runs them at is set in ``_parallel``.

The double-complex routines (``getrf``, ``gecon``, ``getrs``, ``trcon``,
``trtrs``, ``gemm`` and, inside ``qr``, ``geqrf`` and ``ungqr``) and the
real symmetric eigensolver ``syevr`` (``dsyevr``) come straight from
scipy's two compiled wrapper modules,
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
arrays (float64 for ``syevr``), and ``qr`` makes the LAPACK calls of
``scipy.linalg.qr(a, mode="economic", check_finite=False)``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np


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
syevr = _flapack.dsyevr
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
