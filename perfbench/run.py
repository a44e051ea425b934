"""Benchmark of the ris-mcrb command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spacing-sweep --seed 0 --seconds 20 --trace 0

Each pass runs the workload's CLI invocations one at a time, each in a
fresh child process (child.py), and checks every output row against the
reference CSVs recorded from the unmodified program (relative 1e-12).
Passes repeat while the next one is expected to end within ``--seconds``;
at least one pass runs.
Before the passes, ``SETUP_SPAWNS`` children only set up, so ``setup_s``
is a median over those and every invocation child.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` alternates an untraced and a traced pass and reports the
per-layer metrics, derived from the spans of the traced passes.
``trace.coverage`` is the share of traced wall time spent inside a span
of a layer that does the work (scenario, impedance, channel, bounds, CSV
output), rather than in the cli and sweep-runner code around them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (rows checked), ``failed`` (rows that were
missing, came from a failed invocation, or differed from the reference)
and ``metrics``. The full run record (host, passes, per-point self times)
and the span dump are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from spans import LAYER_METRICS, layer_metrics, merge, point_breakdown
from workloads import GRIDS, WORKLOADS, invocations, reference_dir, scenario_seed

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
SETUP_SPAWNS = 5
CHILD_TIMEOUT_S = 150
REL_TOL = 1e-12

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB")]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _spawn(extra: list[str], argv: list[str]) -> dict:
    """Run one child; returns its record, or one with ``exit_code`` != 0."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--spawned", repr(spawned), *extra, "--", *argv]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit_code": "timeout"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"exit_code": proc.returncode}
    record = json.loads(lines[-1])
    record.setdefault("exit_code", 0)
    if record["exit_code"] != 0:
        sys.stderr.write(proc.stderr)
    return record


def _same(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def _read_csv(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def compare_csv(out_path: str, ref_path: str) -> dict:
    """Rows checked, rows failed, and whether the bytes matched exactly."""
    ref = _read_csv(ref_path)
    ref_rows = ref[1:]
    if not os.path.exists(out_path):
        return {"rows": len(ref_rows), "failed": len(ref_rows), "bytes_match": False}
    out = _read_csv(out_path)
    out_rows = out[1:] if out and out[0] == ref[0] else []
    total = max(len(ref_rows), len(out_rows))
    failed = total - len(ref_rows)  # extra rows
    for i, want in enumerate(ref_rows):
        got = out_rows[i] if i < len(out_rows) else None
        if got is None or len(got) != len(want) or \
                not all(_same(g, w) for g, w in zip(got, want)):
            failed += 1
    with open(out_path, "rb") as a, open(ref_path, "rb") as b:
        bytes_match = a.read() == b.read()
    return {"rows": total, "failed": failed, "bytes_match": bytes_match}


def run_pass(workload: str, grid: str, seed: int, ref_dir: str,
             trace: bool) -> dict:
    """Every invocation of the workload once, checked against the reference."""
    out_dir = os.path.join(OUT_DIR, workload)
    os.makedirs(out_dir, exist_ok=True)
    result = {"traced": trace, "invocations": []}
    for name, argv, path in invocations(workload, grid, seed, out_dir):
        if os.path.exists(path):
            os.remove(path)
        record = _spawn(["--trace", name] if trace else [], argv)
        check = compare_csv(path, os.path.join(ref_dir, f"{name}.csv"))
        if record["exit_code"] != 0:
            check["failed"] = check["rows"]
        record.update(name=name, argv=argv, **check)
        result["invocations"].append(record)
    invs = result["invocations"]
    ok = [r for r in invs if r["exit_code"] == 0]
    result["wall_s"] = sum(r["wall_s"] for r in ok)
    result["cpu_s"] = sum(r["cpu_s"] for r in ok)
    result["peak_rss_mb"] = max((r["peak_rss_mb"] for r in ok), default=0.0)
    result["rows"] = sum(r["rows"] for r in invs)
    result["rows_failed"] = sum(r["failed"] for r in invs)
    result["complete"] = len(ok) == len(invs)
    if trace:
        result["spans"] = merge(r.pop("spans") for r in ok)
    return result


def _git_commit() -> str:
    """Commit of a git checkout in the working directory, read without git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    """SHA-256 over the package sources, to identify a non-git checkout."""
    digest = hashlib.sha256()
    root = os.path.join("src", "ris_mcrb")
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(root, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _check_checkout(workload: str, grid: str, seed: int, ref_dir: str) -> None:
    if not os.path.isfile(os.path.join("src", "ris_mcrb", "cli.py")):
        raise BenchError("run from the root of a ris-mcrb checkout "
                         "(src/ris_mcrb/cli.py not found)")
    for name, _ in WORKLOADS[workload][grid]:
        path = os.path.join(ref_dir, f"{name}.csv")
        if not os.path.isfile(path):
            raise BenchError(f"no reference {path} for seed {seed}")


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(setups: list[float], passes: list[dict]) -> dict:
    done = [p for p in passes if p["complete"]] or passes
    return {
        "setup_s": _median(setups),
        "wall_s": _median([p["wall_s"] for p in done]),
        "cpu_s": _median([p["cpu_s"] for p in done]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in done]),
    }


def per_layer_metrics(passes: list[dict]) -> dict:
    """Medians over traced passes; overhead and coverage per pass pair."""
    traced = [p for p in passes if p["traced"]]
    per_pass = [layer_metrics(p["spans"]) for p in traced]
    out = {name: _median([m[name] for m in per_pass]) for name in per_pass[0]}
    overheads, coverages = [], []
    for plain, tr, m in zip(passes[::2], passes[1::2], per_pass):
        overheads.append(tr["wall_s"] - plain["wall_s"])
        glue = m["cli.self_s"] + m["experiments.self_s"]
        coverages.append(1.0 - glue / tr["wall_s"] if tr["wall_s"] > 0 else 0.0)
    out["trace.overhead_s"] = _median(overheads)
    out["trace.coverage"] = _median(coverages)
    return out


def _summary(metrics: dict, units: dict) -> list[str]:
    return [f"  {name:32s} {value:14.6g} {units[name]}"
            for name, value in metrics.items()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--grid", choices=GRIDS, default="full",
                        help="'tiny' shrinks every invocation (smoke test)")
    parser.add_argument("--reference", metavar="DIR",
                        help="reference CSV directory (default: recorded one)")
    args = parser.parse_args()
    ref_dir = args.reference or reference_dir(args.workload, args.grid, args.seed)

    try:
        _check_checkout(args.workload, args.grid, args.seed, ref_dir)
        os.makedirs(OUT_DIR, exist_ok=True)
        setups = []
        host = None
        for i in range(SETUP_SPAWNS):
            record = _spawn(["--host"] if i == 0 else [], [])
            if record["exit_code"] != 0:
                raise BenchError("a set-up child failed; see the error above")
            setups.append(record["setup_s"])
            host = host or record["host"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    host.update(seed=args.seed, scenario_seed=scenario_seed(args.seed),
                git_commit=_git_commit(), source_sha256=_source_digest())
    passes = []
    rounds = []
    started = time.monotonic()
    # Start another round only if it is expected to end within --seconds.
    while not rounds or (time.monotonic() - started
                         + statistics.median(rounds) <= args.seconds):
        round_start = time.monotonic()
        if args.trace:
            passes.append(run_pass(args.workload, args.grid, args.seed, ref_dir, False))
        passes.append(run_pass(args.workload, args.grid, args.seed, ref_dir,
                               bool(args.trace)))
        rounds.append(time.monotonic() - round_start)
    setups += [r["setup_s"] for p in passes for r in p["invocations"]
               if r["exit_code"] == 0]

    attempted = sum(p["rows"] for p in passes)
    failed = sum(p["rows_failed"] for p in passes)
    correct = failed == 0 and all(p["complete"] for p in passes)
    if args.trace:
        metrics = per_layer_metrics(passes)
        units = {name: unit for name, unit, _, _ in LAYER_METRICS}
    else:
        metrics = end_to_end_metrics(setups, passes)
        units = dict(END_TO_END)

    tag = f"{args.workload}-{args.grid}-seed{args.seed}-trace{args.trace}"
    record_path = os.path.join(OUT_DIR, f"{tag}.json")
    spans = merge(p.pop("spans") for p in passes if p["traced"])
    record = {
        "workload": args.workload, "grid": args.grid, "seconds": args.seconds,
        "host": host, "setups_s": setups, "passes": passes,
        "rows_total": attempted, "rows_failed": failed, "metrics": metrics,
    }
    if spans:
        record["point_self_s"] = point_breakdown(spans)
        spans_path = os.path.join(OUT_DIR, f"{tag}-spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
        record["spans_file"] = spans_path
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed} (scenario seed "
          f"{host['scenario_seed']}), {len(passes)} passes, host nproc "
          f"{host['nproc']}, {host['numpy_blas']}, threads "
          f"{host['blas_thread_env'] or 'default'}")
    print(f"rows {attempted}, failed {failed}, bytes identical: "
          f"{all(r['bytes_match'] for p in passes for r in p['invocations'])}")
    print("\n".join(_summary(metrics, units)))
    print(f"run record: {record_path}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
