"""Thin-wire dipole self/mutual impedance via adaptive tensor quadrature.

The impedance between two parallel z-oriented thin wires is a double
integral over both wire axes of an oscillatory near-field kernel weighted
by the sinusoidal current profile of each dipole. The |xi| and |z| factors
in the current profile put a derivative kink at the wire centers, so each
axis is split at 0 into two panels (4 panels in the tensor product) where
the integrand is smooth. The rule is fixed: each panel is integrated with
``BASE_ORDER`` Gauss-Legendre nodes per axis, and the order doubles up to
``MAX_REFINEMENTS`` times until two successive estimates agree to
``REL_TOLERANCE`` relative; otherwise ``QuadratureConvergenceError``
carries the last two estimates. A non-finite estimate can never converge,
so it raises ``ComputationError`` at once.

The self-impedance case evaluates the same kernel with the source point
displaced to the wire surface (radial offset = wire radius, no axial
offset), which is the standard surface-current approximation for thin
wires. The kernel then peaks sharply along the diagonal of the
integration square, but the peak width is the wire radius, a fixed
fraction of the half length at the geometries of interest, so moderate
orders converge.

Every self, mutual and coupling impedance goes through one pair
evaluation, memoized per process within a fixed bound on the exact
geometry (wavenumber, eta0, half lengths, offsets): a geometry seen
before, in this call or an earlier one, reuses its quadrature bit for
bit. The memo is a plain dict that drops its oldest entries first, so a
sweep that integrates in worker processes can merge their new entries
back into the caller's memo. Failures are never memoized; they raise each
time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    ComputationError,
    DegenerateGeometryError,
    QuadratureConvergenceError,
    ResonanceError,
    annotate,
)
from .scenario import PhysicalConstants, Radiator

# |sin(k0*h)| below this means the current normalization is effectively
# dividing by zero (half-wavelength resonance of the profile).
RESONANCE_TOL = 1e-9

# The quadrature rule: Gauss-Legendre nodes per axis per panel at the first
# estimate, the relative agreement two successive estimates must reach, and
# how many times the order may double. The pair memo does not key on
# them: clear it after changing one.
BASE_ORDER = 16
REL_TOLERANCE = 1e-9
MAX_REFINEMENTS = 6

# Distinct pair geometries the memo keeps; the default spacing sweeps
# need 2405.
_PAIR_MEMO_SIZE = 4096


@lru_cache(maxsize=32)
def _gauss_nodes(order: int):
    nodes, weights = leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _split_axis(h: float, order: int):
    # Map the reference rule onto [-h, 0] and [0, h]; concatenating the two
    # panels gives one composite rule for the whole axis with the kink at 0
    # on a panel boundary.
    x, w = _gauss_nodes(order)
    half = 0.5 * h
    nodes = np.concatenate((half * (x - 1.0), half * (x + 1.0)))
    weights = np.concatenate((half * w, half * w))
    return nodes, weights


# the finiteness check replaces the warnings of the overflow or division
# that spoils an estimate
@np.errstate(all="ignore")
def _tensor_estimate(k0, hp, hq, rho1, rho2, sin_p, sin_q, order):
    xi, w_xi = _split_axis(hp, order)
    z, w_z = _split_axis(hq, order)

    u = z[None, :] - xi[:, None] + rho2
    u2 = u * u
    r = np.sqrt(rho1 * rho1 + u2)
    r2 = r * r

    poly = (
        k0 * k0
        - 1j * k0 / r
        - (k0 * k0 * u2 + 1.0) / r2
        + 3j * k0 * u2 / (r2 * r)
        + 3.0 * u2 / (r2 * r2)
    )
    profile = (
        np.sin(k0 * (hp - np.abs(xi)))[:, None]
        * np.sin(k0 * (hq - np.abs(z)))[None, :]
    ) / (sin_p * sin_q)
    kernel = np.exp(-1j * k0 * r) / r * profile * poly
    value = w_xi @ kernel @ w_z
    if not np.isfinite(value):
        raise ComputationError(
            f"impedance quadrature estimate {complex(value)} at order {order} "
            f"is not finite at (rho1, rho2) = ({rho1:g}, {rho2:g})")
    return value


def _integrate(k0, hp, hq, rho1, rho2):
    sin_p = math.sin(k0 * hp)
    sin_q = math.sin(k0 * hq)
    if abs(sin_p) < RESONANCE_TOL or abs(sin_q) < RESONANCE_TOL:
        raise ResonanceError(
            "sin(k0*h) is numerically zero; the sinusoidal current "
            f"normalization is singular (k0*h = {k0 * hp:.6g}, {k0 * hq:.6g})"
        )

    order = BASE_ORDER
    previous = latest = _tensor_estimate(k0, hp, hq, rho1, rho2, sin_p, sin_q, order)
    for _ in range(MAX_REFINEMENTS):
        previous = latest
        order *= 2
        latest = _tensor_estimate(k0, hp, hq, rho1, rho2, sin_p, sin_q, order)
        err = abs(latest - previous)
        if err <= REL_TOLERANCE * max(abs(latest), abs(previous)):
            return latest, err, order
    raise QuadratureConvergenceError(
        f"impedance quadrature did not converge to rel_tolerance="
        f"{REL_TOLERANCE:g} within {MAX_REFINEMENTS} refinements "
        f"(last estimates {complex(previous)} and {complex(latest)})",
        previous=previous,
        latest=latest,
    )


def _pair_offsets(p: Radiator, q: Radiator):
    """(rho1, rho2) for a radiator pair; the self branch (same object)
    uses the wire radius as radial offset and no axial offset."""
    if p is q:
        return p.wire_radius, 0.0
    dx = p.position[0] - q.position[0]
    dy = p.position[1] - q.position[1]
    rho1 = math.hypot(dx, dy)
    rho2 = p.position[2] - q.position[2]
    if rho1 == 0.0 and abs(rho2) <= p.half_length + q.half_length:
        raise DegenerateGeometryError(
            "coaxial radiators overlap along z; the distance kernel "
            "would vanish"
        )
    return rho1, rho2


# pair geometry (k0, eta0, hp, hq, rho1, rho2) -> _pair_impedance's result,
# in insertion order; a sweep's worker processes send back what they add
_PAIR_MEMO: dict = {}


def _remember_pairs(entries) -> None:
    """Add ``(geometry, result)`` entries to the pair memo, dropping the
    oldest entries beyond ``_PAIR_MEMO_SIZE``."""
    for key, value in entries:
        _PAIR_MEMO[key] = value
    while len(_PAIR_MEMO) > _PAIR_MEMO_SIZE:
        del _PAIR_MEMO[next(iter(_PAIR_MEMO))]


def _pair_impedance(k0, eta0, hp, hq, rho1, rho2):
    """(impedance in ohm, absolute error estimate, final order) of one pair
    geometry."""
    key = (k0, eta0, hp, hq, rho1, rho2)
    hit = _PAIR_MEMO.get(key)
    if hit is not None:
        return hit
    value, err, order = _integrate(k0, hp, hq, rho1, rho2)
    value = value * (1j * eta0 / (4.0 * math.pi * k0))
    err = err * (eta0 / (4.0 * math.pi * k0))
    if not np.isfinite(value):
        raise ComputationError(f"impedance evaluated to a non-finite value {complex(value)}")
    _remember_pairs([(key, (value, err, order))])
    return value, err, order


def mutual_impedance(p: Radiator, q: Radiator, constants: PhysicalConstants):
    """Impedance (ohm) coupling two parallel thin-wire dipoles.

    Passing the same ``Radiator`` object for ``p`` and ``q`` yields the
    self impedance; two distinct radiators at the same position overlap
    and raise ``DegenerateGeometryError``.
    """
    return _pair_impedance(constants.wavenumber, constants.eta0,
                           p.half_length, q.half_length, *_pair_offsets(p, q))[0]


@dataclass(frozen=True)
class ImpedanceSet:
    """All impedances the channel model needs: Tx->RIS and RIS->Rx coupling
    vectors, the (identical) element self impedances, and the dense
    inter-element mutual matrix with zero diagonal."""

    z_st: np.ndarray        # (N,) complex, transmitter to each element
    z_rs: np.ndarray        # (N,) complex, each element to receiver
    z_ss_self: np.ndarray   # (N,) complex, diagonal of the scatter matrix
    z_ss_mutual: np.ndarray  # (N, N) complex, zero diagonal, symmetric

    def __post_init__(self):
        for name in ("z_st", "z_rs", "z_ss_self", "z_ss_mutual"):
            # freeze a copy so later writes to the caller's array cannot reach it
            arr = np.array(getattr(self, name), dtype=complex)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n = self.z_st.shape[0]
        if self.z_rs.shape != (n,) or self.z_ss_self.shape != (n,):
            raise ValueError("impedance vectors disagree on element count")
        if self.z_ss_mutual.shape != (n, n):
            raise ValueError("mutual matrix shape does not match element count")
        if np.any(np.diagonal(self.z_ss_mutual) != 0.0):
            raise ValueError("mutual matrix must have a zero diagonal")
        if not np.array_equal(self.z_ss_mutual, self.z_ss_mutual.T):
            raise ValueError("mutual matrix must be symmetric (reciprocity)")

    @property
    def num_elements(self) -> int:
        return self.z_st.shape[0]

    @property
    def z_ss(self) -> np.ndarray:
        """Full scatter matrix: self diagonal plus mutual part."""
        return np.diag(self.z_ss_self) + self.z_ss_mutual


def impedance_matrix(elements: list[Radiator], constants: PhysicalConstants):
    """Self and mutual impedances among a set of parallel radiators.

    Returns ``(z_self, z_mutual)`` with the self impedances as an (N,)
    vector and the mutual part as an (N, N) matrix with zero diagonal.
    Each unordered pair is looked up once and mirrored; the process-wide
    pair memo integrates each distinct geometry once, which collapses the
    cost on regular grids (and across calls) without changing any entry.
    """
    n = len(elements)
    if n < 1:
        raise ValueError("need at least one element")

    z_self = np.empty(n, dtype=complex)
    z_mutual = np.zeros((n, n), dtype=complex)
    j = -1
    try:
        for i, elem in enumerate(elements):
            z_self[i] = mutual_impedance(elem, elem, constants)
        for i, j in itertools.combinations(range(n), 2):
            z_mutual[i, j] = z_mutual[j, i] = mutual_impedance(
                elements[i], elements[j], constants)
    except ComputationError as exc:
        # j stays -1 while the self terms run
        raise annotate(exc, f"element {i} self term" if j < 0
                       else f"element pair ({i},{j})")
    return z_self, z_mutual


def coupling_vector(
    antenna: Radiator,
    elements: list[Radiator],
    constants: PhysicalConstants,
) -> np.ndarray:
    """Mutual impedance of every element toward a single antenna."""
    out = np.empty(len(elements), dtype=complex)
    try:
        for i, elem in enumerate(elements):
            out[i] = mutual_impedance(elem, antenna, constants)
    except ComputationError as exc:
        raise annotate(exc, f"element {i} to antenna")
    return out


def build_impedance_set(
    tx: Radiator,
    rx: Radiator,
    elements: list[Radiator],
    constants: PhysicalConstants,
) -> ImpedanceSet:
    """Evaluate every impedance the end-to-end channel model needs."""
    z_self, z_mutual = impedance_matrix(elements, constants)
    return ImpedanceSet(
        z_st=coupling_vector(tx, elements, constants),
        z_rs=coupling_vector(rx, elements, constants),
        z_ss_self=z_self,
        z_ss_mutual=z_mutual,
    )
