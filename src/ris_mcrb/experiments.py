"""Seeded sweep runners for the three experiment families, plus CSV output.

Each runner takes a SweepRequest, evaluates one bound report per grid
point, and returns a SweepResult whose rows are ordered by the sweep
grids. Every grid point is built by ``_build_point``, which returns
``model_pair``'s ``(d_true, d_est, x_true)`` at the default quadrature (the
runners take no quadrature option). The spacing runners share one
(spacing x size) loop; the power runners build and factor each spacing
once, at the scenario's size, as a ``bounds.FactoredPair``, and compose
every row from it (``FactoredPair.report`` divides its traces by the row's
2 gamma). The RIS load sequence always comes from the dedicated load
substream of the master seed, so every spacing and size sees the same
draw order. Noise streams are keyed by the transmit-power value; each
power's trials draw their noise once (``bounds.mc_rmse_pairs``) and every
spacing at that power sees the same draws, so dropping a grid point
never changes the remaining rows.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .bounds import BoundReport, FactoredPair, bias_trace, crlb, mc_rmse_pairs, snr
from .channel import model_pair, noise_seed, sample_loads
from .errors import ComputationError, annotate
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
    """One experiment family instance; grids must be finite and strictly
    increasing."""

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
        if self.kind == "mc_rmse" and self.trials < 1:
            raise ValueError("mc_rmse sweeps need trials >= 1")
        if self.trials < 0:
            raise ValueError("trials must be >= 0")


@dataclass
class SweepResult:
    """Rows of (independent variables, bound report) in grid order."""

    kind: str
    rows: list[tuple[dict, BoundReport | None]]
    metadata: dict


def _build_point(scenario: Scenario, d_over_lambda: float, n1: int, n2: int):
    sc = scenario.with_overrides(ris_spacing_over_lambda=float(d_over_lambda),
                                 ris_n1=int(n1), ris_n2=int(n2))
    impedances = build_impedance_set(sc.tx, sc.rx, sc.ris_radiators(),
                                     sc.constants)
    return model_pair(impedances, sample_loads(sc))


def _power_sweep(request: SweepRequest, model_sink) -> SweepResult:
    scenario = request.scenario
    started = time.perf_counter()
    # convert first, so an unusable power fails before any model is built
    powers = []
    for p_dbm in request.power_grid:
        p_t = dbm_to_watts(p_dbm)
        powers.append((p_dbm, p_t, snr(p_t, scenario.noise.sigma2)))

    n1, n2 = scenario.ris.n1, scenario.ris.n2
    pairs = []
    for d in request.spacing_grid:
        try:
            d_true, d_est, x_true = _build_point(scenario, d, n1, n2)
            if request.matched:
                d_est = d_true
            if model_sink is not None:
                model_sink(d, n1, n2, d_true, d_est)
            pairs.append(FactoredPair(d_est, d_true, x_true))
        except ComputationError as exc:
            raise annotate(exc, f"spacing {d} lambda") from exc

    rows = []
    for p_dbm, p_t, gamma in powers:
        reports = [pair.report(p_t, gamma) for pair in pairs]
        if request.trials > 0:
            rmses = mc_rmse_pairs(scenario, pairs, p_t, request.trials,
                                  noise_seed(scenario.rng_seed, p_dbm),
                                  noiseless=request.noiseless)
            reports = [replace(rep, rmse=rmse) for rep, rmse in zip(reports, rmses)]
        rows += [({"p_t_dbm": p_dbm, "d_over_lambda": d}, rep)
                 for d, rep in zip(request.spacing_grid, reports)]
    return SweepResult(kind=request.kind, rows=rows,
                       metadata=_metadata(scenario, started))


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


def _spacing_sweep(request: SweepRequest, evaluate) -> SweepResult:
    """One report per (spacing, size) point, spacing-major; ``evaluate``
    maps a point's ``(d_true, d_est, x_true)`` to its report."""
    scenario = request.scenario
    started = time.perf_counter()
    rows = []
    for d in request.spacing_grid:
        for n1, n2 in request.sizes:
            try:
                report = evaluate(*_build_point(scenario, d, n1, n2))
            except ComputationError as exc:
                raise annotate(exc, f"spacing {d} lambda, size {n1}x{n2}") from exc
            rows.append(({"d_over_lambda": d, "n1": n1, "n2": n2}, report))
    return SweepResult(kind=request.kind, rows=rows,
                       metadata=_metadata(scenario, started))


def run_bias_vs_spacing(request: SweepRequest) -> SweepResult:
    """SNR-independent error floor versus element spacing, per RIS size."""
    if request.kind != "bias_vs_spacing":
        raise ValueError(f"expected kind 'bias_vs_spacing', got {request.kind!r}")

    def evaluate(d_true, d_est, x_true):
        return BoundReport(p_t=None, gamma=None, tr_mcrb=None,
                           tr_bias=bias_trace(d_est, d_true, x_true))

    return _spacing_sweep(request, evaluate)


def run_crlb_vs_spacing(request: SweepRequest) -> SweepResult:
    """Matched-model bound versus element spacing at one fixed power."""
    if request.kind != "crlb_vs_spacing":
        raise ValueError(f"expected kind 'crlb_vs_spacing', got {request.kind!r}")
    if len(request.power_grid) != 1:
        raise ValueError("crlb_vs_spacing uses exactly one transmit power")
    p_t = dbm_to_watts(request.power_grid[0])
    gamma = snr(p_t, request.scenario.noise.sigma2)

    def evaluate(d_true, d_est, x_true):
        return BoundReport(p_t=p_t, gamma=gamma, tr_mcrb=None, tr_bias=None,
                           crlb=crlb(d_true, gamma))

    return _spacing_sweep(request, evaluate)


def run_impedance_sweep(scenario: Scenario,
                        distances_over_lambda: list[float]) -> SweepResult:
    """Mutual impedance of two side-by-side elements versus separation."""
    if not distances_over_lambda:
        raise ValueError("distance grid must not be empty")
    if not all(math.isfinite(d) for d in distances_over_lambda):
        raise ValueError("distance grid values must be finite")
    if any(b <= a for a, b in zip(distances_over_lambda, distances_over_lambda[1:])):
        raise ValueError("distance grid must be strictly increasing")
    started = time.perf_counter()
    h = scenario.element_half_length
    r = scenario.element_wire_radius
    lam = scenario.constants.wavelength
    first = Radiator(np.zeros(3), h, r)
    rows = []
    for d in distances_over_lambda:
        second = Radiator(np.array([d * lam, 0.0, 0.0]), h, r)
        z = mutual_impedance(first, second, scenario.constants)
        rows.append((
            {"d_over_lambda": d, "re_z_ohm": z.real, "im_z_ohm": z.imag,
             "abs_z_ohm": abs(z)},
            None,
        ))
    return SweepResult(kind="impedance_sweep", rows=rows,
                       metadata=_metadata(scenario, started))


def _metadata(scenario: Scenario, started: float) -> dict:
    return {
        "scenario": dict(scenario.config),
        "master_seed": scenario.rng_seed,
        "version": __version__,
        "wall_clock_s": time.perf_counter() - started,
    }


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
