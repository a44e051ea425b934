"""Physical constants, radiator geometry, RIS grid, and scenario config.

A scenario is described by a flat key/value YAML mapping (all keys optional;
omitted keys fall back to the defaults below). Distances that scale with the
carrier are given in wavelengths and converted to meters on load, so one
config describes the same electrical setup at any frequency.

Every RIS element, as well as the transmit and receive antennas, is a
z-oriented cylindrical thin-wire dipole. Grid elements sit side by side in
the x-y plane, which keeps parallel wires from overlapping at any spacing.
All constructed objects are immutable and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

SPEED_OF_LIGHT = 299792458.0  # m/s
MU_0 = 1.25663706212e-6       # H/m
EPS_0 = 8.8541878128e-12      # F/m

#: Reference setup: 28 GHz, lambda/64 half-length, lambda/500 wire
#: radius, Tx at (5,-5,3) m and Rx at (5,5,1) m around a 4x4 RIS at the
#: origin, 256 pilot transmissions, loads uniform in [0.1, 10.1] ohm and
#: [0.1, 10.1] nH, -173.855 dBm/Hz noise PSD with a 10 dB noise figure.
DEFAULT_CONFIG = {
    "frequency_ghz": 28.0,
    "half_length_over_lambda": 1.0 / 64.0,
    "radius_over_lambda": 1.0 / 500.0,
    "tx_position_m": [5.0, -5.0, 3.0],
    "rx_position_m": [5.0, 5.0, 1.0],
    "ris_center_m": [0.0, 0.0, 0.0],
    "ris_n1": 4,
    "ris_n2": 4,
    "ris_spacing_over_lambda": 0.5,
    "num_transmissions": 256,
    "load_r_min_ohm": 0.1,
    "load_r_max_ohm": 10.1,
    "load_l_min_nh": 0.1,
    "load_l_max_nh": 10.1,
    "noise_psd_dbm_hz": -173.855,
    "noise_figure_db": 10.0,
    "noise_bandwidth_hz": 1.0,
    "seed": 0,
}


def _readonly(a):
    # freeze a copy so later writes to the caller's array cannot reach it
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PhysicalConstants:
    """Carrier-derived free-space quantities."""

    frequency: float   # Hz
    wavelength: float  # m
    wavenumber: float  # rad/m
    eta0: float        # ohm, intrinsic impedance of free space

    @property
    def omega(self) -> float:
        """Angular frequency in rad/s."""
        return 2.0 * math.pi * self.frequency


def derive_constants(frequency: float) -> PhysicalConstants:
    """Derive wavelength, wavenumber and free-space impedance for a carrier.

    Pure function of the frequency; raises ValueError if it is not positive.
    """
    if not frequency > 0.0:
        raise ValueError(f"frequency must be positive, got {frequency!r}")
    wavelength = SPEED_OF_LIGHT / frequency
    return PhysicalConstants(
        frequency=float(frequency),
        wavelength=wavelength,
        wavenumber=2.0 * math.pi / wavelength,
        eta0=math.sqrt(MU_0 / EPS_0),
    )


@dataclass(frozen=True)
class Radiator:
    """A z-oriented cylindrical thin-wire dipole.

    ``position`` is the wire center; the wire spans position.z +- half_length
    along the global z axis. The wire radius must be small against the half
    length for the thin-wire current model to make sense.
    """

    position: np.ndarray  # (3,) m
    half_length: float    # m
    wire_radius: float    # m

    def __post_init__(self):
        pos = _readonly(self.position)
        if pos.shape != (3,):
            raise ValueError(f"position must be a 3-vector, got shape {pos.shape}")
        object.__setattr__(self, "position", pos)
        if not self.half_length > 0.0:
            raise ValueError("half_length must be positive")
        if not self.wire_radius > 0.0:
            raise ValueError("wire_radius must be positive")
        if not self.wire_radius < self.half_length:
            raise ValueError(
                "wire_radius must be smaller than half_length "
                f"(got r={self.wire_radius}, h={self.half_length})"
            )


@dataclass(frozen=True)
class RisGrid:
    """Regular n1 x n2 element grid in the x-y plane, row-major order."""

    n1: int
    n2: int
    spacing: float        # m
    center: np.ndarray    # (3,) m
    element_positions: np.ndarray  # (n1*n2, 3) m

    def __post_init__(self):
        object.__setattr__(self, "center", _readonly(self.center))
        positions = _readonly(self.element_positions)
        if positions.shape != (self.n1 * self.n2, 3):
            raise ValueError(
                f"expected {self.n1 * self.n2} element positions, "
                f"got shape {positions.shape}"
            )
        # sorted rows put equal rows (every coordinate ==) next to each other
        ordered = positions[np.lexsort(positions.T)]
        if (ordered[1:] == ordered[:-1]).all(axis=1).any():
            raise ValueError("element positions must be pairwise distinct")
        object.__setattr__(self, "element_positions", positions)

    @property
    def num_elements(self) -> int:
        return self.n1 * self.n2


def build_ris_grid(n1: int, n2: int, spacing: float, center) -> RisGrid:
    """Place n1*n2 elements on a regular grid with pitch ``spacing``.

    Element (i, j) (0-indexed, row-major in i then j) sits at
    center + ((i - (n1-1)/2) * spacing, (j - (n2-1)/2) * spacing, 0),
    so the grid centroid is the requested center.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError(f"grid counts must be >= 1, got {n1} x {n2}")
    if not spacing > 0.0:
        raise ValueError(f"spacing must be positive, got {spacing!r}")
    center = np.asarray(center, dtype=float)
    if center.shape != (3,):
        raise ValueError(f"center must be a 3-vector, got shape {center.shape}")
    i = np.arange(n1, dtype=float) - (n1 - 1) / 2.0
    j = np.arange(n2, dtype=float) - (n2 - 1) / 2.0
    positions = np.empty((n1 * n2, 3))
    positions[:, 0] = center[0] + spacing * np.repeat(i, n2)
    positions[:, 1] = center[1] + spacing * np.tile(j, n1)
    positions[:, 2] = center[2]
    return RisGrid(n1=int(n1), n2=int(n2), spacing=float(spacing),
                   center=center, element_positions=positions)


@dataclass(frozen=True)
class NoiseModel:
    """Receiver thermal noise: PSD in dBm/Hz, noise figure in dB, and the
    effective noise bandwidth in Hz. ``sigma2`` is the resulting complex
    noise variance in watts, which must be positive and finite (so a
    non-positive bandwidth is rejected too)."""

    psd_dbm_hz: float
    noise_figure_db: float
    bandwidth_hz: float

    def __post_init__(self):
        try:
            sigma2 = self.sigma2
        except OverflowError:
            sigma2 = math.inf
        if not 0.0 < sigma2 < math.inf:
            raise ValueError(
                f"noise variance must be positive and finite, got {sigma2!r} W")

    @property
    def sigma2(self) -> float:
        psd_w = 10.0 ** ((self.psd_dbm_hz - 30.0) / 10.0)
        return psd_w * 10.0 ** (self.noise_figure_db / 10.0) * self.bandwidth_hz


def dbm_to_watts(dbm: float) -> float:
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        raise ValueError(f"power {dbm} dBm overflows in watts") from None


@dataclass(frozen=True)
class Scenario:
    """Validated physical setup plus the config mapping it was built from.

    ``config`` is the fully-defaulted flat mapping; dumping it and loading
    the dump reproduces the scenario (including element positions)
    bit for bit.
    """

    constants: PhysicalConstants
    tx: Radiator
    rx: Radiator
    ris: RisGrid
    element_half_length: float  # m, shared by RIS elements and Tx/Rx
    element_wire_radius: float  # m
    noise: NoiseModel
    num_transmissions: int
    load_resistance_range: tuple[float, float]  # ohm
    load_inductance_range: tuple[float, float]  # H
    rng_seed: int
    config: dict = field(repr=False)

    def ris_radiators(self) -> list[Radiator]:
        """One thin-wire dipole per grid element, in grid order."""
        return [
            Radiator(position=p, half_length=self.element_half_length,
                     wire_radius=self.element_wire_radius)
            for p in self.ris.element_positions
        ]

    def with_overrides(self, **updates) -> "Scenario":
        """Rebuild the scenario with some config keys replaced."""
        cfg = dict(self.config)
        cfg.update(updates)
        return scenario_from_config(cfg)


_INT_KEYS = {"ris_n1", "ris_n2", "num_transmissions", "seed"}
_VEC_KEYS = {"tx_position_m", "rx_position_m", "ris_center_m"}


def _as_number(key, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return number


def _as_int(key, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return int(value)


def _as_vec3(key, value):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{key}: expected a list of 3 numbers, got {value!r}")
    return [_as_number(key, v) for v in value]


def scenario_from_config(mapping: dict | None) -> Scenario:
    """Build and validate a Scenario from a flat config mapping."""
    cfg = dict(DEFAULT_CONFIG)
    for key, value in (mapping or {}).items():
        if key not in DEFAULT_CONFIG:
            raise ConfigError(f"unknown config key {key!r}")
        if key in _INT_KEYS:
            cfg[key] = _as_int(key, value)
        elif key in _VEC_KEYS:
            cfg[key] = _as_vec3(key, value)
        else:
            cfg[key] = _as_number(key, value)

    freq = cfg["frequency_ghz"]
    if not freq > 0.0:
        raise ConfigError(f"frequency_ghz must be positive, got {freq}")
    constants = derive_constants(freq * 1e9)
    lam = constants.wavelength

    h = cfg["half_length_over_lambda"] * lam
    r = cfg["radius_over_lambda"] * lam
    if not h > 0.0:
        raise ConfigError("half_length_over_lambda must be positive")
    if not 0.0 < r < h:
        raise ConfigError(
            "radius_over_lambda must be positive and smaller than "
            "half_length_over_lambda"
        )

    n1, n2 = cfg["ris_n1"], cfg["ris_n2"]
    if n1 < 1 or n2 < 1:
        raise ConfigError(f"ris_n1/ris_n2 must be >= 1, got {n1} x {n2}")
    spacing = cfg["ris_spacing_over_lambda"] * lam
    if not spacing > 0.0:
        raise ConfigError("ris_spacing_over_lambda must be positive")
    # checked before the grid is built, which an oversized RIS cannot afford
    g = cfg["num_transmissions"]
    if g < n1 * n2:
        raise ConfigError(
            f"num_transmissions: {g} transmissions cannot identify "
            f"{n1 * n2} complex channel entries (the model "
            "matrix would be rank deficient)"
        )
    grid = build_ris_grid(n1, n2, spacing, cfg["ris_center_m"])

    tx = Radiator(np.asarray(cfg["tx_position_m"]), h, r)
    rx = Radiator(np.asarray(cfg["rx_position_m"]), h, r)
    for key, antenna in (("tx_position_m", tx), ("rx_position_m", rx)):
        if _inside_grid_box(antenna.position, grid, h, r):
            raise ConfigError(f"{key}: antenna wire reaches the RIS grid box")

    r_min, r_max = cfg["load_r_min_ohm"], cfg["load_r_max_ohm"]
    l_min, l_max = cfg["load_l_min_nh"], cfg["load_l_max_nh"]
    if r_min < 0.0 or r_max < r_min:
        raise ConfigError("load_r_min_ohm/load_r_max_ohm: need 0 <= min <= max")
    if l_min <= 0.0 or l_max < l_min:
        raise ConfigError("load_l_min_nh/load_l_max_nh: need 0 < min <= max")

    try:
        noise = NoiseModel(cfg["noise_psd_dbm_hz"], cfg["noise_figure_db"],
                           cfg["noise_bandwidth_hz"])
    except ValueError as exc:
        raise ConfigError(
            f"noise_psd_dbm_hz/noise_figure_db/noise_bandwidth_hz: {exc}") from exc

    seed = cfg["seed"]
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed must be a non-negative 64-bit integer, got {seed}")

    return Scenario(
        constants=constants,
        tx=tx,
        rx=rx,
        ris=grid,
        element_half_length=h,
        element_wire_radius=r,
        noise=noise,
        num_transmissions=g,
        load_resistance_range=(r_min, r_max),
        load_inductance_range=(l_min * 1e-9, l_max * 1e-9),
        rng_seed=seed,
        config=cfg,
    )


def _inside_grid_box(centre, grid: RisGrid, half_length: float, radius: float) -> bool:
    # The element wires' hull spans +-radius across and +-half_length along
    # z; an antenna wire of the same size can touch an element only if its
    # centre lies inside that hull padded by the antenna's own extents.
    pad = np.array([2.0 * radius, 2.0 * radius, 2.0 * half_length])
    lo = grid.element_positions.min(axis=0) - pad
    hi = grid.element_positions.max(axis=0) + pad
    return bool(np.all(centre >= lo) and np.all(centre <= hi))


def load_scenario(config_text: str) -> Scenario:
    """Parse flat YAML config text into a validated Scenario.

    Empty text yields the default scenario. Malformed YAML raises
    ConfigError with the offending line; constraint violations raise
    ConfigError naming the field.
    """
    import yaml  # deferred: only a config file is parsed or written as YAML

    try:
        mapping = yaml.safe_load(config_text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"malformed config{where}: {exc}") from exc
    if mapping is None:
        mapping = {}
    if not isinstance(mapping, dict):
        raise ConfigError("config must be a flat key/value mapping")
    return scenario_from_config(mapping)


def load_scenario_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


def dump_scenario(scenario: Scenario) -> str:
    """Serialize the fully-defaulted config of a scenario as YAML text."""
    import yaml

    return yaml.safe_dump(scenario.config, sort_keys=True)


def default_scenario() -> Scenario:
    return scenario_from_config({})
