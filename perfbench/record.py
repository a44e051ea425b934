"""Record the reference CSVs the benchmark checks its outputs against.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/record.py --grid full --seeds 0-9
    python3 perfbench/record.py --grid tiny --seeds 0

Each invocation runs the plain CLI (no tracing) and its CSV is stored
under ``perfbench/reference/<grid>/<workload>/seed<k>/``. Existing files
are never overwritten: delete a reference on purpose before re-recording.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

from workloads import GRIDS, WORKLOADS, invocations, reference_dir


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", choices=GRIDS, default="full")
    parser.add_argument("--seeds", type=_seed_range, default=[0],
                        help="seed or inclusive range, e.g. 0-9")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args()

    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    for workload in args.workload or sorted(WORKLOADS):
        for seed in args.seeds:
            ref = reference_dir(workload, args.grid, seed)
            os.makedirs(ref, exist_ok=True)
            for name, argv, path in invocations(workload, args.grid, seed, ref):
                if os.path.exists(path):
                    print(f"keep {path}")
                    continue
                subprocess.run([sys.executable, "-m", "ris_mcrb.cli", *argv],
                               env=env, check=True)
                print(f"wrote {path}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
