"""The package's LAPACK and BLAS routines, checked against scipy.linalg.

The import checks run in fresh interpreters, since this process has
already imported ``scipy.linalg`` for the oracles.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg

import ris_mcrb
from ris_mcrb import bounds

from conftest import crandn

# the directory that holds the ris_mcrb package under test
SRC = os.path.dirname(os.path.dirname(os.path.abspath(ris_mcrb.__file__)))


def python(code, *args, path=(SRC,)):
    """Run ``code`` in a fresh interpreter with ``path`` as PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this ris_mcrb;
    return its standard output, parsed as JSON."""
    proc = python(code, *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_start_leaves_scipy_linalg_unimported():
    loaded = run_python("""
        import json, sys
        import ris_mcrb, ris_mcrb.cli
        ris_mcrb.default_scenario()
        heavy = ("scipy.linalg", "numpy.ma", "numpy.f2py", "numpy.testing", "yaml")
        print(json.dumps([name for name in heavy if name in sys.modules]))
    """)
    assert loaded == []


def test_pool_modules_load_with_the_cli_not_the_package():
    # the package imports _parallel, whose pool needs both; the CLI loads
    # them at start-up, so no sweep spends its run time importing them
    loaded = run_python("""
        import json, sys
        pool = ("multiprocessing", "concurrent.futures", "concurrent.futures.process")
        import ris_mcrb
        package = [name for name in pool if name in sys.modules]
        import ris_mcrb.cli
        print(json.dumps([package, [name for name in pool if name in sys.modules]]))
    """)
    assert loaded == [[], ["multiprocessing", "concurrent.futures",
                           "concurrent.futures.process"]]


@pytest.mark.parametrize("scipy_first", [False, True],
                         ids=["scipy-after", "scipy-before"])
def test_routines_are_scipys_complex128_routines(scipy_first):
    # every routine a production path calls, by the name its module uses
    mismatched = run_python("""
        import json, sys
        if sys.argv[1] == "True":
            import scipy.linalg
        import numpy as np
        from ris_mcrb import bounds, channel
        import scipy.linalg

        z = np.zeros((2, 2), dtype=complex)
        ours = {"getrf": channel.getrf, "gecon": channel.gecon,
                "getrs": channel.getrs, "trcon": bounds.trcon,
                "trtrs": bounds.trtrs, "gemm": bounds.gemm,
                "syevr": channel.syevr}
        scipys = {name: scipy.linalg.get_lapack_funcs((name,), (z,))[0]
                  for name in ("getrf", "gecon", "getrs", "trcon", "trtrs")}
        scipys["gemm"] = scipy.linalg.get_blas_funcs(("gemm",), (z,))[0]
        # the one real routine: the symmetric eigensolver, for float64
        scipys["syevr"] = scipy.linalg.get_lapack_funcs(("syevr",), (z.real,))[0]
        print(json.dumps([name for name in ours if ours[name] is not scipys[name]]))
    """, str(scipy_first))
    assert mismatched == []


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(20, 5), (256, 144), (512, 256)])
def test_qr_is_scipys_economic_qr(shape, order):
    a = np.asarray(crandn(np.random.default_rng(shape[1]), shape), order=order)
    before = a.copy()
    q, r = bounds.qr(a)
    want_q, want_r = scipy.linalg.qr(a, mode="economic", check_finite=False)
    assert np.array_equal(q, want_q)
    assert np.array_equal(r, want_r)
    assert r.flags.c_contiguous == want_r.flags.c_contiguous
    assert r.flags.f_contiguous == want_r.flags.f_contiguous
    assert np.array_equal(a, before)


def test_missing_wrappers_fail_the_import_by_name(tmp_path):
    # a scipy package whose linalg directory holds no compiled modules
    (tmp_path / "scipy" / "linalg").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    proc = python("import ris_mcrb", path=(str(tmp_path), SRC))
    assert proc.returncode == 1
    assert "ImportError" in proc.stderr
    assert "scipy.linalg._flapack" in proc.stderr
