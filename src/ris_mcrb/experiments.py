"""Seeded sweep runners for the three experiment families, plus CSV output.

Each runner takes a SweepRequest and returns a SweepResult whose rows are
ordered by the sweep grids. One grid loop (``_grid``) serves every kind: a
point's models come from ``_build_point`` (``model_pair``'s complex
``(d_true, d_est, x_true)`` at the default quadrature; the runners take no
quadrature option) and live only in that point's lazy
``bounds.FactoredPair``, from which all of the point's rows are read, so
each trace is computed once and only if a column needs it. The RIS load
sequence always comes from the dedicated load substream of the master
seed, so every spacing and size sees the same draw order. Noise streams
are keyed by the transmit-power value; each power's trials draw their
noise once (``bounds.mc_rmse_pairs``) and every spacing at that power sees
the same draws, so dropping a grid point never changes the remaining rows.

The runners run BLAS single-threaded, and both kinds of sweep spread
their work over forked worker processes (``_parallel_map``) that inherit
that single thread, so no worker calls a BLAS setter (``_blas``). A
spacing sweep runs one task per spacing covering every size at it. The
workers share a ``channel.CpuBudget`` of one unit per usable CPU, and
each counts in it while it runs a task; a CPU that no task occupies, such
as one whose worker has run out of tasks, runs ``build_B`` chunks of a
running task on a helper thread, so the heaviest spacing does not finish
on one thread alone. A chunk's rows are the same bits on any thread, so
the rows are the same bits as the serial loop's, whichever path runs.

A power sweep builds and reads its pairs in the calling process, since
every power reads all of its spacings' pairs, then runs one task per power
of Monte-Carlo trials (``bounds.mc_rmse_pairs``, in blocks of
``bounds.TRIAL_BLOCK``) on the workers, which inherit the pairs through
the fork; its rows are assembled in grid order. Noiseless trials (one
solve per pair) and ``trials == 0`` run inline. Each power's trials are
computed as in the serial loop, so the rows are the same bits.
"""

from __future__ import annotations

import csv
import io
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import channel
from ._blas import single_threaded_blas
from .bounds import BoundReport, FactoredPair, mc_rmse_pairs, snr
from .channel import model_pair, noise_seed, sample_loads
from .errors import ComputationError, ConfigError, annotate
from .impedance import build_impedance_set, mutual_impedance
from .scenario import Radiator, Scenario, dbm_to_watts

SWEEP_KINDS = ("lb_vs_power", "bias_vs_spacing", "crlb_vs_spacing", "mc_rmse")

# Default grids for the standard experiment setups.
DEFAULT_POWER_GRID_DBM = [float(p) for p in range(-10, 81, 10)]
DEFAULT_LB_SPACINGS = [0.02, 0.1, 0.5]
DEFAULT_SPACING_GRID = [0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.5]
DEFAULT_SIZES = [(4, 4), (8, 8), (12, 12)]
DEFAULT_CRLB_POWER_DBM = 40.0


@dataclass(frozen=True)
class SweepRequest:
    """One experiment family instance, checked whole before any point is
    built: grids must be finite and strictly increasing, sizes at least 1x1
    and distinct, trials fewer than ``channel.TRIAL_LIMIT``, and a
    ``crlb_vs_spacing`` sweep has exactly one power."""

    kind: str
    scenario: Scenario
    power_grid: list[float] = field(default_factory=list)
    spacing_grid: list[float] = field(default_factory=list)
    sizes: list[tuple[int, int]] = field(default_factory=list)
    trials: int = 0
    matched: bool = False
    noiseless: bool = False

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        for name, grid in (("power_grid", self.power_grid),
                           ("spacing_grid", self.spacing_grid)):
            if not all(math.isfinite(v) for v in grid):
                raise ValueError(f"{name} values must be finite")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        if self.kind in ("lb_vs_power", "mc_rmse"):
            if not self.power_grid:
                raise ValueError("power_grid must not be empty")
        if not self.spacing_grid:
            raise ValueError("spacing_grid must not be empty")
        if self.kind in ("bias_vs_spacing", "crlb_vs_spacing") and not self.sizes:
            raise ValueError("sizes must not be empty")
        if self.kind == "crlb_vs_spacing" and len(self.power_grid) != 1:
            raise ValueError("crlb_vs_spacing uses exactly one transmit power")
        if len({tuple(s) for s in self.sizes}) != len(self.sizes):
            raise ValueError("sizes must not repeat")
        for n1, n2 in self.sizes:
            if n1 < 1 or n2 < 1:
                raise ValueError(f"sizes must be at least 1x1, got {n1}x{n2}")
        if self.kind == "mc_rmse" and self.trials < 1:
            raise ValueError("mc_rmse sweeps need trials >= 1")
        if not 0 <= self.trials < channel.TRIAL_LIMIT:
            raise ValueError(f"trials must be >= 0 and < 2**32, got {self.trials}")


@dataclass
class SweepResult:
    """Rows of (independent variables, bound report) in grid order."""

    kind: str
    rows: list[tuple[dict, BoundReport | None]]


def _build_point(sc: Scenario):
    impedances = build_impedance_set(sc.tx, sc.rx, sc.ris_radiators(),
                                     sc.constants)
    return model_pair(impedances, sample_loads(sc))


def _point_pair(request: SweepRequest, sc, d, n1, n2, model_sink) -> FactoredPair:
    """Grid point (d, n1, n2)'s pair, from its scenario ``sc``; the pair is
    the only holder of its models."""
    d_true, d_est, x_true = _build_point(sc)
    d_est = d_true if request.matched else d_est
    if model_sink is not None:
        model_sink(d, n1, n2, d_true, d_est)
    return FactoredPair(d_est, d_true, x_true)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


# the task a forked worker runs; set in the worker only, by _start_worker
_worker_task = None


def _start_worker(task, budget) -> None:
    global _worker_task
    _worker_task = task
    channel.cpu_budget = budget


def _run_in_worker(i: int):
    """``task(i)``, counted in the sweep's CPU budget while it runs."""
    with channel.cpu_budget.hold():
        return _worker_task(i)


def _parallel_map(task, n: int) -> list:
    """``[task(i) for i in range(n)]``, spread over forked worker processes,
    one per usable CPU up to ``n``; inline where that is one process or
    ``fork`` is missing. The pool is forked inside ``single_threaded_blas``,
    so every worker inherits one BLAS thread per runtime and never calls a
    setter: a setter call after a fork restarts OpenBLAS's thread server,
    whose thread then spins (``_blas``). The workers share one
    ``channel.CpuBudget`` of a unit per usable CPU, so the CPUs that no
    worker's task occupies run ``build_B`` chunks on helper threads. The
    results come back in index order, so the earliest failing index raises,
    with its type, message and payload; the tasks not yet started are then
    cancelled. Every worker is reaped before this returns."""
    cpus = _usable_cpus()
    workers = min(n, cpus)
    if workers < 2:
        return [task(i) for i in range(n)]
    if "fork" not in multiprocessing.get_all_start_methods():
        return [task(i) for i in range(n)]
    # fork, not spawn: a forked worker starts with this process's imports
    # and pair memo, and inherits its initializer arguments, so ``task``
    # may be a closure; it is never pickled
    context = multiprocessing.get_context("fork")
    budget = channel.CpuBudget(cpus, context)
    with single_threaded_blas():
        pool = ProcessPoolExecutor(workers, context, initializer=_start_worker,
                                   initargs=(task, budget))
        try:
            return list(pool.map(_run_in_worker, range(n)))
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


def _grid(request: SweepRequest, read, model_sink=None) -> list[tuple]:
    """``(variables, read(pair))`` per point, spacing-major: each (spacing,
    size) of a spacing sweep, each spacing at the scenario's size for a
    power sweep. Every point's scenario is built, and so checked, in this
    process before any point's models, so a point the config cannot hold
    fails at once, named. A pair is built and read inside its point's
    annotation, and only what ``read`` returns outlives the point. A
    spacing sweep runs one worker task per spacing, its sizes in order, so
    the pair memo's hits across sizes stay in one process; a power sweep
    keeps its pairs, so it builds them, and calls ``model_sink``, in this
    process."""
    power = request.kind in ("lb_vs_power", "mc_rmse")
    sizes = [(request.scenario.ris.n1, request.scenario.ris.n2)] if power else request.sizes

    def where(d, n1, n2):
        return f"spacing {d} lambda" if power else f"spacing {d} lambda, size {n1}x{n2}"

    def scenario_at(d, n1, n2):
        try:
            return request.scenario.with_overrides(
                ris_spacing_over_lambda=float(d), ris_n1=int(n1), ris_n2=int(n2))
        except ConfigError as exc:
            raise annotate(exc, where(d, n1, n2))

    scenarios = [[scenario_at(d, n1, n2) for n1, n2 in sizes]
                 for d in request.spacing_grid]

    def points_at(i):
        d = request.spacing_grid[i]
        out = []
        for (n1, n2), sc in zip(sizes, scenarios[i]):
            try:
                out.append(({"d_over_lambda": d, "n1": n1, "n2": n2},
                            read(_point_pair(request, sc, d, n1, n2, model_sink))))
            except ComputationError as exc:
                raise annotate(exc, where(d, n1, n2))
        return out

    n = len(request.spacing_grid)
    per_spacing = [points_at(i) for i in range(n)] if power else _parallel_map(points_at, n)
    return [point for points in per_spacing for point in points]


def _power_sweep(request: SweepRequest, model_sink) -> SweepResult:
    scenario = request.scenario
    # convert first, so an unusable power fails before any model is built
    powers = []
    for p_dbm in request.power_grid:
        p_t = dbm_to_watts(p_dbm)
        powers.append((p_dbm, p_t, snr(p_t, scenario.noise.sigma2)))

    def read(pair):
        return pair, [replace(pair.report(p_t, gamma), crlb=pair.crlb(gamma))
                      for _, p_t, gamma in powers]

    with single_threaded_blas():
        pairs, per_pair = zip(*(point for _, point in _grid(request, read, model_sink)))

        def trials_at(i):
            p_dbm, p_t, _ = powers[i]
            return mc_rmse_pairs(scenario, pairs, p_t, request.trials,
                                 noise_seed(scenario.rng_seed, p_dbm),
                                 noiseless=request.noiseless)

        if request.trials == 0:
            per_power = [None] * len(powers)
        elif request.noiseless:  # one solve per pair: not worth a fork
            per_power = [trials_at(i) for i in range(len(powers))]
        else:
            per_power = _parallel_map(trials_at, len(powers))
        rows = []
        for (p_dbm, _, _), reports, rmses in zip(powers, zip(*per_pair), per_power):
            if rmses is not None:
                reports = [replace(rep, rmse=rmse) for rep, rmse in zip(reports, rmses)]
            rows += [({"p_t_dbm": p_dbm, "d_over_lambda": d}, rep)
                     for d, rep in zip(request.spacing_grid, reports)]
    return SweepResult(kind=request.kind, rows=rows)


def run_lb_vs_power(request: SweepRequest, model_sink=None) -> SweepResult:
    """Bounds (and optionally estimator RMSE) over a transmit-power grid,
    one curve per RIS element spacing."""
    if request.kind != "lb_vs_power":
        raise ValueError(f"expected kind 'lb_vs_power', got {request.kind!r}")
    return _power_sweep(request, model_sink)


def run_mc_rmse(request: SweepRequest, model_sink=None) -> SweepResult:
    """Monte-Carlo estimator RMSE alongside the bounds over a power grid."""
    if request.kind != "mc_rmse":
        raise ValueError(f"expected kind 'mc_rmse', got {request.kind!r}")
    return _power_sweep(request, model_sink)


def _spacing_sweep(request: SweepRequest, read) -> SweepResult:
    """One ``read(pair)`` report per (spacing, size) point, spacing-major."""
    with single_threaded_blas():
        return SweepResult(kind=request.kind, rows=_grid(request, read))


def run_bias_vs_spacing(request: SweepRequest) -> SweepResult:
    """SNR-independent error floor versus element spacing, per RIS size."""
    if request.kind != "bias_vs_spacing":
        raise ValueError(f"expected kind 'bias_vs_spacing', got {request.kind!r}")
    return _spacing_sweep(request, lambda pair: BoundReport(
        p_t=None, gamma=None, tr_mcrb=None, tr_bias=pair.tr_bias))


def run_crlb_vs_spacing(request: SweepRequest) -> SweepResult:
    """Matched-model bound versus element spacing at one fixed power."""
    if request.kind != "crlb_vs_spacing":
        raise ValueError(f"expected kind 'crlb_vs_spacing', got {request.kind!r}")
    p_t = dbm_to_watts(request.power_grid[0])
    gamma = snr(p_t, request.scenario.noise.sigma2)
    return _spacing_sweep(request, lambda pair: BoundReport(
        p_t=p_t, gamma=gamma, tr_mcrb=None, tr_bias=None, crlb=pair.crlb(gamma)))


def run_impedance_sweep(scenario: Scenario,
                        distances_over_lambda: list[float]) -> SweepResult:
    """Mutual impedance of two side-by-side elements versus separation."""
    if not distances_over_lambda:
        raise ValueError("distance grid must not be empty")
    if not all(0.0 < d < math.inf for d in distances_over_lambda):
        raise ValueError("distance grid values must be positive and finite")
    if any(b <= a for a, b in zip(distances_over_lambda, distances_over_lambda[1:])):
        raise ValueError("distance grid must be strictly increasing")
    h = scenario.element_half_length
    r = scenario.element_wire_radius
    lam = scenario.constants.wavelength
    first = Radiator(np.zeros(3), h, r)
    rows = []
    with single_threaded_blas():
        for d in distances_over_lambda:
            second = Radiator(np.array([d * lam, 0.0, 0.0]), h, r)
            z = mutual_impedance(first, second, scenario.constants)
            rows.append((
                {"d_over_lambda": d, "re_z_ohm": z.real, "im_z_ohm": z.imag,
                 "abs_z_ohm": abs(z)},
                None,
            ))
    return SweepResult(kind="impedance_sweep", rows=rows)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _csv_columns(result: SweepResult) -> list[str]:
    if result.kind in ("lb_vs_power", "mc_rmse"):
        cols = ["p_t_dbm", "d_over_lambda", "tr_mcrb", "tr_bias", "lb", "crlb"]
        if any(rep is not None and rep.rmse is not None for _, rep in result.rows) \
                or result.kind == "mc_rmse":
            cols.append("rmse")
        return cols
    if result.kind == "bias_vs_spacing":
        return ["d_over_lambda", "n1", "n2", "sqrt_tr_bias"]
    if result.kind == "crlb_vs_spacing":
        return ["d_over_lambda", "n1", "n2", "crlb"]
    if result.kind == "impedance_sweep":
        return ["d_over_lambda", "re_z_ohm", "im_z_ohm", "abs_z_ohm"]
    raise ValueError(f"unknown sweep kind {result.kind!r}")


def _row_value(column: str, variables: dict, report: BoundReport | None):
    if column in variables:
        return variables[column]
    if report is None:
        return None
    if column == "sqrt_tr_bias":
        return float(np.sqrt(report.tr_bias))
    return getattr(report, column)


def csv_text(result: SweepResult) -> str:
    """Render a sweep result as CSV with round-trip-exact float formatting."""
    columns = _csv_columns(result)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for variables, report in result.rows:
        writer.writerow([_fmt(_row_value(c, variables, report)) for c in columns])
    return buf.getvalue()


def emit_csv(result: SweepResult, path) -> None:
    """Write the sweep CSV; byte output is a pure function of the rows."""
    text = csv_text(result)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def dump_model_csv(b: np.ndarray, path) -> None:
    """Serialize a complex model matrix row-major as re,im column pairs."""
    b = np.asarray(b, dtype=complex)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = []
        for j in range(b.shape[1]):
            header += [f"re_{j}", f"im_{j}"]
        writer.writerow(header)
        for row in b:
            out = []
            for v in row:
                out += [repr(float(v.real)), repr(float(v.imag))]
            writer.writerow(out)
