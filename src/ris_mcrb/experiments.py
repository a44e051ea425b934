"""Seeded sweep runners for the paper's figures, plus CSV output.

``SWEEP_KINDS`` says what each sweep kind is: its grid (power x spacing at
the scenario's RIS size, or spacing x size), the ``SweepRequest`` fields
it reads, which are the only ones a request may set, and its CSV columns,
which are also the only bound parts its rows compute (``_report``). Each
runner checks that its request is of its own kind; its rows follow the
grids' order.

One grid loop (``_grid``) serves every kind. A point's models come from
``_build_point`` (``model_pair``'s complex ``(d_true, d_est, x_true)``)
and live only in its lazy ``bounds.FactoredPair``, so each trace is
computed once and only if a column needs it. A point builds only what its
kind's columns read (``_Kind.mismatched``): ``crlb-vs-spacing`` reads the
coupling-aware model alone, so it builds neither the Tx coupling vector
z_st nor the coupling-unaware model, and a matched power sweep builds no
coupling-unaware model. The RIS loads come from the load substream of the
master seed, so every spacing and size sees the same draws. Noise streams
are keyed by the power value, and each power's trials draw once for all
its spacings (``bounds.mc_rmse_pairs``), so dropping a grid point never
changes the remaining rows.

The runners run BLAS single-threaded and spread their work over forked
worker processes (``_parallel``). A spacing x size sweep runs one task
per spacing, every size at it. A power sweep factors its pairs in the
calling process, since every power reads all of them, then runs one task
per power of Monte-Carlo trials on workers that inherit the pairs through
the fork; a kind that prints no ``rmse`` runs none. Every path gives the
serial loop's bits.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields
# the pool's modules, loaded here since the package's _parallel defers them
import multiprocessing  # noqa: F401
from concurrent.futures import ProcessPoolExecutor  # noqa: F401

import numpy as np

from . import channel
from ._parallel import parallel_map, single_threaded_blas
from .bounds import BoundReport, FactoredPair, mc_rmse_pairs, snr
from .channel import build_B, noise_seed, sample_loads
from .errors import ComputationError, ConfigError, annotate
from .impedance import coupling_vector, impedance_matrix, mutual_impedance
from .scenario import Radiator, Scenario, dbm_to_watts


# The bound columns that read a point's estimation model and its true
# channel z_st; crlb reads the true model alone.
_MISMATCH_COLUMNS = frozenset({"tr_mcrb", "tr_bias", "lb", "sqrt_tr_bias", "rmse"})


@dataclass(frozen=True)
class _Kind:
    power_rows: bool          # power x spacing at the scenario's size, else spacing x size
    reads: tuple[str, ...]    # the SweepRequest fields it reads
    columns: tuple[str, ...]  # its CSV columns

    @property
    def mismatched(self) -> bool:
        """Whether its points build z_st and, unless matched, the
        estimation model: some column reads them."""
        return not _MISMATCH_COLUMNS.isdisjoint(self.columns)


# What each sweep kind is. A spacing x size sweep runs at its one power, if
# it reads one; the one kind that prints rmse is the one that runs trials.
_POWER_COLUMNS = ("p_t_dbm", "d_over_lambda", "tr_mcrb", "tr_bias", "lb", "crlb")
SWEEP_KINDS = {
    "lb_vs_power": _Kind(True, ("power_grid", "spacing_grid", "matched"), _POWER_COLUMNS),
    "mc_rmse": _Kind(True, ("power_grid", "spacing_grid", "trials", "matched"),
                     _POWER_COLUMNS + ("rmse",)),
    "bias_vs_spacing": _Kind(False, ("spacing_grid", "sizes"),
                             ("d_over_lambda", "n1", "n2", "sqrt_tr_bias")),
    "crlb_vs_spacing": _Kind(False, ("power_grid", "spacing_grid", "sizes"),
                             ("d_over_lambda", "n1", "n2", "crlb")),
}
_CSV_COLUMNS = {"impedance_sweep": ("d_over_lambda", "re_z_ohm", "im_z_ohm", "abs_z_ohm"),
                **{name: entry.columns for name, entry in SWEEP_KINDS.items()}}

# Default grids for the standard experiment setups.
DEFAULT_POWER_GRID_DBM = [float(p) for p in range(-10, 81, 10)]
DEFAULT_LB_SPACINGS = [0.02, 0.1, 0.5]
DEFAULT_SPACING_GRID = [0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.5]
DEFAULT_SIZES = [(4, 4), (8, 8), (12, 12)]
DEFAULT_CRLB_POWER_DBM = 40.0


@dataclass(frozen=True)
class SweepRequest:
    """One experiment family instance, checked whole before any point is
    built: it sets only the fields its kind reads, each read grid is
    non-empty, grids are finite and strictly increasing, no two powers
    share a noise stream, sizes are at least 1x1 and distinct, and trials
    are fewer than ``channel.TRIAL_LIMIT``."""

    kind: str
    scenario: Scenario
    power_grid: list[float] = field(default_factory=list)
    spacing_grid: list[float] = field(default_factory=list)
    sizes: list[tuple[int, int]] = field(default_factory=list)
    trials: int = 0
    matched: bool = False

    def __post_init__(self):
        kind = SWEEP_KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        for f in fields(self)[2:]:  # those after kind and scenario default to falsy values
            if f.name not in kind.reads and getattr(self, f.name):
                raise ValueError(f"{self.kind} sweeps do not read {f.name}")
        for name in ("power_grid", "spacing_grid", "sizes"):
            if name in kind.reads and not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for name, grid in (("power_grid", self.power_grid),
                           ("spacing_grid", self.spacing_grid)):
            if not all(math.isfinite(v) for v in grid):
                raise ValueError(f"{name} values must be finite")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        for a, b in zip(self.power_grid, self.power_grid[1:]):
            if noise_seed(0, a).spawn_key == noise_seed(0, b).spawn_key:
                raise ValueError(f"powers {a} and {b} dBm share one noise stream")
        if not kind.power_rows and len(self.power_grid) > 1:
            raise ValueError(f"{self.kind} uses exactly one transmit power")
        if len({tuple(s) for s in self.sizes}) != len(self.sizes):
            raise ValueError("sizes must not repeat")
        for n1, n2 in self.sizes:
            if n1 < 1 or n2 < 1:
                raise ValueError(f"sizes must be at least 1x1, got {n1}x{n2}")
        if "rmse" in kind.columns and self.trials < 1:
            raise ValueError(f"{self.kind} sweeps need trials >= 1")
        if not 0 <= self.trials < channel.TRIAL_LIMIT:
            raise ValueError(f"trials must be >= 0 and < 2**32, got {self.trials}")


@dataclass
class SweepResult:
    """Rows of (independent variables, bound report) in grid order."""

    kind: str
    rows: list[tuple[dict, BoundReport | None]]


def _build_point(sc: Scenario, z_st: bool, estimation: bool):
    """``(d_true, d_est, x_true)`` of one point, as ``model_pair`` builds
    them, except that the coupling-unaware ``d_est`` is built only if
    ``estimation`` and the true channel (the Tx coupling vector z_st) only
    if ``z_st``; each one not built is None. The impedances are evaluated
    in ``build_impedance_set``'s order, so the first that fails is the same."""
    elements = sc.ris_radiators()
    z_self, z_mutual = impedance_matrix(elements, sc.constants)
    x_true = coupling_vector(sc.tx, elements, sc.constants) if z_st else None
    z_rs = coupling_vector(sc.rx, elements, sc.constants)
    loads = sample_loads(sc)
    d_true = build_B(z_rs, z_self, z_mutual, loads)
    d_est = build_B(z_rs, z_self, None, loads) if estimation else None
    return d_true, d_est, x_true


def _report(pair: FactoredPair, columns, p_t=None, gamma=None, rmse=None) -> BoundReport:
    """A point's report at one power, holding the bound parts ``columns``
    print, so the pair factors only the models those parts need."""
    lb = "lb" in columns
    return BoundReport(
        p_t, gamma, rmse=rmse,
        tr_mcrb=pair.report(p_t, gamma).tr_mcrb if lb else None,
        tr_bias=pair.tr_bias if lb or "sqrt_tr_bias" in columns else None,
        crlb=pair.crlb(gamma) if "crlb" in columns else None)


def _grid(request: SweepRequest, read, model_sink=None) -> list[tuple]:
    """``(variables, read(pair))`` per point of the kind's grid,
    spacing-major. Every point's scenario is built, and so checked, here
    before any point's models, so a point the config cannot hold fails at
    once, named. A pair is built and read inside its point's annotation,
    and only what ``read`` returns outlives the point. A spacing x size
    sweep runs one task per spacing, so the pair memo's hits across sizes
    stay in one process; a power sweep keeps its pairs, so it builds them,
    and calls ``model_sink``, here."""
    power = SWEEP_KINDS[request.kind].power_rows
    mismatched = SWEEP_KINDS[request.kind].mismatched
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

    def pair_at(sc, d, n1, n2) -> FactoredPair:
        """The point's pair, the only holder of its models."""
        d_true, d_est, x_true = _build_point(sc, mismatched,
                                             mismatched and not request.matched)
        d_est = d_true if request.matched else d_est
        if model_sink is not None:
            model_sink(d, n1, n2, d_true, d_est)
        return FactoredPair(d_est, d_true, x_true)

    def points_at(i):
        d = request.spacing_grid[i]
        out = []
        for (n1, n2), sc in zip(sizes, scenarios[i]):
            try:
                out.append(({"d_over_lambda": d, "n1": n1, "n2": n2},
                            read(pair_at(sc, d, n1, n2))))
            except ComputationError as exc:
                raise annotate(exc, where(d, n1, n2))
        return out

    n = len(request.spacing_grid)
    per_spacing = [points_at(i) for i in range(n)] if power else parallel_map(points_at, n)
    return [point for points in per_spacing for point in points]


def _sweep(request: SweepRequest, kind: str, model_sink=None) -> SweepResult:
    """The rows of ``request``, which must be of ``kind``. Its powers are
    converted first, so an unusable one fails before any model is built. A
    power sweep factors its pairs inside their points' annotations, runs
    each power's trials, then builds each row's report once."""
    if request.kind != kind:
        raise ValueError(f"expected kind {kind!r}, got {request.kind!r}")
    scenario, columns = request.scenario, SWEEP_KINDS[kind].columns
    powers = []
    for p_dbm in request.power_grid:
        p_t = dbm_to_watts(p_dbm)
        powers.append((p_dbm, p_t, snr(p_t, scenario.noise.sigma2)))

    with single_threaded_blas():
        if not SWEEP_KINDS[kind].power_rows:
            at = powers[0][1:] if powers else ()
            return SweepResult(kind, _grid(request, lambda p: _report(p, columns, *at)))

        def factored(pair):  # reading a report factors every model the rows read
            _report(pair, columns, *powers[0][1:])
            return pair

        pairs = [pair for _, pair in _grid(request, factored, model_sink)]

        def trials_at(i):
            p_dbm, p_t, _ = powers[i]
            return mc_rmse_pairs(scenario, pairs, p_t, request.trials,
                                 noise_seed(scenario.rng_seed, p_dbm))

        per_power = (parallel_map(trials_at, len(powers)) if "rmse" in columns
                     else [[None] * len(pairs)] * len(powers))
        rows = [({"p_t_dbm": p_dbm, "d_over_lambda": d},
                 _report(pair, columns, p_t, gamma, rmse))
                for (p_dbm, p_t, gamma), rmses in zip(powers, per_power)
                for d, pair, rmse in zip(request.spacing_grid, pairs, rmses)]
    return SweepResult(kind, rows)


def run_lb_vs_power(request: SweepRequest, model_sink=None) -> SweepResult:
    """Bounds over a transmit-power grid, one curve per RIS element spacing."""
    return _sweep(request, "lb_vs_power", model_sink)


def run_mc_rmse(request: SweepRequest, model_sink=None) -> SweepResult:
    """Monte-Carlo estimator RMSE alongside the bounds over a power grid."""
    return _sweep(request, "mc_rmse", model_sink)


def run_bias_vs_spacing(request: SweepRequest) -> SweepResult:
    """SNR-independent error floor versus element spacing, per RIS size."""
    return _sweep(request, "bias_vs_spacing")


def run_crlb_vs_spacing(request: SweepRequest) -> SweepResult:
    """Matched-model bound versus element spacing at one fixed power."""
    return _sweep(request, "crlb_vs_spacing")


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


def _row_value(column: str, variables: dict, report: BoundReport | None):
    if column in variables:
        return variables[column]
    if report is None:
        return None
    if column == "sqrt_tr_bias":
        return float(np.sqrt(report.tr_bias))
    return getattr(report, column)


def csv_text(result: SweepResult) -> str:
    """Render a sweep result as CSV with round-trip-exact float formatting,
    in the kind's columns."""
    columns = _CSV_COLUMNS[result.kind]
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
