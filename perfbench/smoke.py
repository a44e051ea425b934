"""Smoke test of the benchmark itself, on the tiny grid of every workload.

    python3 perfbench/smoke.py [--workload NAME]

Run from the repository root. For each workload it checks that

- an untraced run prints every end-to-end metric of BENCHMARK.json with
  its unit, finds no failed row, and a traced run prints every per-layer
  metric with its unit;
- the self times of the traced run's spans sum to no more than its
  traced wall time;
- a reference value perturbed by 1e-9 relative is counted as one failed
  row, and one perturbed by 1e-14 relative (inside the 1e-12 tolerance)
  is not;

and, once, that the benchmark exits non-zero without printing a result
in a directory that holds only BENCHMARK.json and the benchmark.
Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import subprocess
import sys

from spans import self_times
from workloads import WORKLOADS, reference_dir

HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH = os.path.join(".bench_out", "smoke")


def _run(workload, *extra, cwd=None):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "0", "--seconds", "0",
           "--grid", "tiny", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=170)


def _result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _perturbed_reference(workload, rel):
    """Copy of the tiny reference with one value scaled by (1 + rel)."""
    src = reference_dir(workload, "tiny", 0)
    dst = os.path.join(SCRATCH, f"{workload}-{rel:g}")
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    path = os.path.join(dst, sorted(os.listdir(dst))[0])
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][-1] = repr(float(rows[1][-1]) * (1.0 + rel))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return dst


def check_workload(workload, bench):
    def names(result):
        return [(k, v["unit"]) for k, v in result["metrics"].items()]

    plain = _result(_run(workload, "--trace", "0"))
    want = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    assert names(plain) == want, f"end-to-end metrics {names(plain)} != {want}"
    assert plain["correct"] and plain["failed"] == 0, plain
    assert plain["attempted"] >= 1, plain

    traced = _result(_run(workload, "--trace", "1"))
    want = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert names(traced) == want, f"per-layer metrics {names(traced)} != {want}"
    assert traced["correct"], traced
    with open(os.path.join(".bench_out", f"{workload}-tiny-seed0-trace1.json"),
              encoding="utf-8") as fh:
        record = json.load(fh)
    with open(record["spans_file"], encoding="utf-8") as fh:
        spans = json.load(fh)
    traced_wall = sum(p["wall_s"] for p in record["passes"] if p["traced"])
    selfs = self_times(spans)
    total_self = sum(selfs)
    assert 0.0 < total_self <= traced_wall, (total_self, traced_wall)
    assert min(selfs) > -1e-9, "a span's children outlast it: ids collide"

    bad = _result(_run(workload, "--trace", "0", "--reference",
                       _perturbed_reference(workload, 1e-9)))
    assert bad["failed"] == 1 and not bad["correct"], bad
    close = _result(_run(workload, "--trace", "0", "--reference",
                         _perturbed_reference(workload, 1e-14)))
    assert close["failed"] == 0 and close["correct"], close
    print(f"ok {workload}: {len(plain['metrics'])} end-to-end and "
          f"{len(traced['metrics'])} per-layer metrics, span self time "
          f"{total_self:.3f} s <= traced wall {traced_wall:.3f} s, "
          f"perturbed reference value counted as failed")


def check_bare_directory():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("power-mc", "--trace", "0", cwd=bare)
    assert proc.returncode != 0, "benchmark succeeded without the program"
    assert '"metrics"' not in proc.stdout, proc.stdout
    print("ok bare directory: exit code", proc.returncode)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    os.makedirs(SCRATCH, exist_ok=True)
    check_bare_directory()
    for workload in args.workload or sorted(WORKLOADS):
        check_workload(workload, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
