"""One benchmark child: set up ris_mcrb, run one CLI invocation, report.

    python3 perfbench/child.py --spawned T [--trace NAME] [--host] -- ARGV...

``T`` is the parent's ``time.monotonic()`` just before it spawned this
process (the clock is shared by all processes on the host), so ``setup_s``
covers interpreter start, ``import ris_mcrb`` and ``default_scenario()``.
With no ARGV the child only sets up. Otherwise it times
``ris_mcrb.cli.main(ARGV)``: wall time, user+sys CPU of every thread and
waited-for child, and peak resident memory. With ``--trace`` the calls
into each layer are wrapped in spans (see spans.py), which are returned
with the record. The record is the last line of standard output, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record() -> dict:
    """The host facts that change the timings or the CSV bytes."""
    import numpy
    import scipy

    def blas(module):
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError, ValueError):
            return "unknown"
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS
                            if k in os.environ},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", metavar="NAME")
    parser.add_argument("--host", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import ris_mcrb
    import ris_mcrb.cli
    from ris_mcrb.scenario import default_scenario
    default_scenario()
    setup_s = time.monotonic() - args.spawned

    src = os.path.join(os.getcwd(), "src") + os.sep
    if not os.path.abspath(ris_mcrb.__file__).startswith(src):
        print(f"child: ris_mcrb imported from {ris_mcrb.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    record = {"setup_s": setup_s}
    if args.host:
        record["host"] = host_record()
    if argv:
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer(args.trace)
            tracer.install()
        cpu0 = _cpu_s()
        wall0 = time.perf_counter()
        code = ris_mcrb.cli.main(argv)
        record["wall_s"] = time.perf_counter() - wall0
        record["cpu_s"] = _cpu_s() - cpu0
        record["exit_code"] = code
        if tracer is not None:
            record["spans"] = tracer.spans
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write("\n" + json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
