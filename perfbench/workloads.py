"""Workload definitions: the CLI invocations each workload runs.

A workload is a list of invocations; each invocation is one
``ris_mcrb.cli.main(argv)`` call in a fresh child process. The ``full``
grid is what the benchmark measures; the ``tiny`` grid is the same
invocations shrunk to 4x4 and two spacings, for the smoke test.

The benchmark seed picks one of ``REFERENCE_SEEDS`` scenario seeds, for
which reference CSVs were recorded from the unmodified program.
"""

from __future__ import annotations

import os

REFERENCE_SEEDS = 10
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
LARGE_RIS_CONFIG = os.path.join("perfbench", "large_ris.yaml")

_TINY = ["--sizes", "4x4", "--spacings-over-lambda", "0.02,0.5"]

WORKLOADS = {
    "spacing-sweep": {
        "full": [
            ("bias", ["bias-vs-spacing"]),
            ("crlb", ["crlb-vs-spacing"]),
        ],
        "tiny": [
            ("bias", ["bias-vs-spacing"] + _TINY),
            ("crlb", ["crlb-vs-spacing"] + _TINY),
        ],
    },
    "power-mc": {
        "full": [("mc", ["mc-rmse", "--trials", "2000"])],
        "tiny": [("mc", ["mc-rmse", "--trials", "5",
                         "--spacings-over-lambda", "0.02,0.5"])],
    },
    "large-ris": {
        "full": [("bias", ["bias-vs-spacing", "--config", LARGE_RIS_CONFIG,
                           "--sizes", "16x16",
                           "--spacings-over-lambda", "0.02,0.1,0.5"])],
        "tiny": [("bias", ["bias-vs-spacing", "--config", LARGE_RIS_CONFIG]
                  + _TINY)],
    },
}

GRIDS = ("full", "tiny")


def scenario_seed(seed: int) -> int:
    """Scenario seed passed to ``--seed`` for a benchmark seed."""
    return seed % REFERENCE_SEEDS


def invocations(workload: str, grid: str, seed: int, out_dir: str):
    """(name, argv, csv path) for each invocation of a workload run."""
    out = []
    for name, argv in WORKLOADS[workload][grid]:
        path = os.path.join(out_dir, f"{name}.csv")
        out.append((name, argv + ["--seed", str(scenario_seed(seed)),
                                  "--out", path], path))
    return out


def reference_dir(workload: str, grid: str, seed: int) -> str:
    """Directory holding the reference CSVs of one workload run."""
    return os.path.join(REFERENCE_DIR, grid, workload,
                        f"seed{scenario_seed(seed)}")
