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

An estimate evaluates the integrand once per symmetry orbit of the
tensor grid of nodes and expands the values to the full tensor, whose
contraction with the weights is unchanged. ``leggauss`` returns nodes
and weights that are symmetric bit for bit, so each split axis is
antisymmetric. When both half lengths are equal, both axes share that
node set, and the node differences z - xi and the current-profile tensor
are anti-transpose symmetric bit for bit: cell (i, j) of the n x n grid
equals cell (n-1-j, n-1-i). An in-plane pair (rho2 == 0, every RIS-RIS
pair and every self term) is also transpose symmetric: transposition
only negates z - xi, and u^2 = (z - xi)^2. Every cell of an orbit thus
has the inputs of its representative, and every cell and the summation
are those of the full tensor, so the estimate keeps its bits. The kernel
is evaluated on (n^2+n)/2 cells for a staggered pair (the Tx and Rx
couplings), (n^2+2n)/4 for an in-plane pair and all n^2 when the half
lengths differ. The representatives' node differences and profile
values, the weights and the map from every cell to its representative
depend only on the wavenumber, both half lengths, the order and whether
the pair is in plane. They are built together and cached as one entry
for orders up to ``2 * BASE_ORDER``, which nearly every estimate stops
at; higher orders build them per estimate, so no large tensor outlives
its estimate. The kernel is evaluated in real arithmetic on the real and
imaginary parts, with the roundings numpy's complex loops apply to the
same formula, so every estimate equals the plain complex expression bit
for bit.

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
bit. ``impedance_matrix`` looks up each distinct element offset once.
Failures are never memoized; they raise each time.
"""

from __future__ import annotations

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


def _build_orbits(order, antitranspose, transpose):
    """The symmetry orbits of the cells (i, j) of the n x n node grid,
    n = 2 order. Anti-transposition maps a cell to (n-1-j, n-1-i) and
    transposition to (j, i). Each orbit is represented by its one cell
    with i + j < n (under anti-transposition) and i <= j (under
    transposition). Returns the mask of the representatives and the map
    from every cell to its representative's position among them in
    row-major order; the map is of numpy's index type, which a gather
    would otherwise convert it to on every estimate."""
    cells = np.arange(2 * order)
    represents = np.ones((2 * order, 2 * order), dtype=bool)
    if transpose:
        represents &= cells[:, None] <= cells[None, :]
    if antitranspose:
        represents &= cells[:, None] + cells[None, :] < 2 * order
    # 1-based positions on the representatives and 0 elsewhere; each
    # symmetry in turn fills the cells whose image is filled, which
    # reaches every cell, since each orbit holds one representative
    cell_map = np.cumsum(represents, dtype=np.int32).reshape(represents.shape)
    cell_map *= represents
    if transpose:
        cell_map = np.maximum(cell_map, cell_map.T)
    if antitranspose:
        cell_map = np.maximum(cell_map, cell_map[::-1, ::-1].T)
    cell_map -= 1
    cell_map = cell_map.astype(np.intp)
    for arr in (represents, cell_map):
        arr.flags.writeable = False
    return represents, cell_map


def _build_node_grid(k0, hp, hq, order, transpose):
    """The parts of a tensor estimate that do not depend on the offsets:
    the node differences z - xi and the current profile
    s(xi) s(z) / (sin(k0 hp) sin(k0 hq)) on the representatives of the
    grid's symmetry orbits, the weights of both axes and the map from
    every cell to its representative. Equal half lengths give both axes
    one antisymmetric node set, so both tensors are anti-transpose
    symmetric; ``transpose`` also folds the transposed cells together."""
    xi, w_xi = _split_axis(hp, order)
    z, w_z = _split_axis(hq, order)
    represents, cell_map = _build_orbits(order, hp == hq, transpose)
    grid = (z[None, :] - xi[:, None])[represents]
    profile = (np.sin(k0 * (hp - np.abs(xi)))[:, None]
               * np.sin(k0 * (hq - np.abs(z)))[None, :])[represents]
    profile /= math.sin(k0 * hp) * math.sin(k0 * hq)
    for arr in (grid, w_xi, w_z, profile):
        arr.flags.writeable = False
    return grid, w_xi, w_z, profile, cell_map


# Orders up to 2 * BASE_ORDER cover nearly every estimate (most pairs
# converge at the first refinement); an entry at order 1024 would hold
# a 34 MB cell map and two vectors of up to 34 MB, so higher orders
# build their grid per estimate.
_cached_node_grid = lru_cache(maxsize=16)(_build_node_grid)


def _node_grid(k0, hp, hq, order, in_plane):
    # an in-plane pair (rho2 == 0) of equal half lengths makes u^2
    # transpose symmetric too
    transpose = in_plane and hp == hq
    if order <= 2 * BASE_ORDER:
        return _cached_node_grid(k0, hp, hq, order, transpose)
    return _build_node_grid(k0, hp, hq, order, transpose)


# the finiteness check replaces the warnings of the overflow or division
# that spoils an estimate
@np.errstate(all="ignore")
def _tensor_estimate(k0, hp, hq, rho1, rho2, order):
    # The integrand is e^{-j k0 r} / r * s(xi) s(z) * P(u, r) with
    # u = z - xi + rho2, r = sqrt(rho1^2 + u^2) and the near-field
    # polynomial P = k0^2 - j k0/r - (k0^2 u^2 + 1)/r^2 + 3j k0 u^2/r^3
    # + 3 u^2/r^4. It is evaluated on one cell per symmetry orbit of the
    # node grid, where every cell of the orbit has the same inputs, and
    # expanded to the full tensor for the contraction, so each cell's
    # value and the summation are those of the whole tensor. Only
    # e^{-j k0 r} and the final product with P are complex; every real
    # term is computed in real arithmetic with the roundings numpy's
    # complex loops give the same formula (a complex divided by a real r
    # is multiplied by 1/r), so the estimate keeps its bits. At most four
    # real and two complex vectors over the representatives are alive at
    # once, and only the kernel's when it is expanded.
    grid, w_xi, w_z, profile, cell_map = _node_grid(k0, hp, hq, order, rho2 == 0.0)
    u2 = grid + rho2
    del grid
    u2 *= u2
    r = u2 + rho1 * rho1
    np.sqrt(r, out=r)
    kernel = np.exp(-1j * k0 * r)
    inv_r = np.divide(1.0, r)
    kernel *= inv_r                            # scales both parts
    kernel *= profile
    del profile

    poly = np.empty_like(kernel)
    inv_r *= -k0                               # imaginary: -k0/r
    r2 = r * r
    r *= r2
    np.divide(1.0, r, out=r)
    np.multiply(u2, 3.0 * k0, out=poly.real)
    r *= poly.real
    np.add(inv_r, r, out=poly.imag)            # + 3 k0 u^2/r^3
    k0_sq = k0 * k0
    np.multiply(u2, k0_sq, out=r)
    r += 1.0
    r /= r2
    np.subtract(k0_sq, r, out=r)               # real: k0^2 - (k0^2 u^2 + 1)/r^2
    r2 *= r2
    u2 *= 3.0
    u2 /= r2
    np.add(r, u2, out=poly.real)               # + 3 u^2/r^4
    kernel *= poly
    del poly, u2, r, r2, inv_r
    value = w_xi @ kernel[cell_map] @ w_z
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
    previous = latest = _tensor_estimate(k0, hp, hq, rho1, rho2, order)
    for _ in range(MAX_REFINEMENTS):
        previous = latest
        order *= 2
        latest = _tensor_estimate(k0, hp, hq, rho1, rho2, order)
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


# the pair memo keeps the 4096 most recently used geometries; the default
# spacing sweeps need 2405
@lru_cache(maxsize=4096)
def _pair_impedance(k0, eta0, hp, hq, rho1, rho2):
    """(impedance in ohm, absolute error estimate, final order) of one pair
    geometry."""
    value, err, order = _integrate(k0, hp, hq, rho1, rho2)
    value = value * (1j * eta0 / (4.0 * math.pi * k0))
    err = err * (eta0 / (4.0 * math.pi * k0))
    if not np.isfinite(value):
        raise ComputationError(f"impedance evaluated to a non-finite value {complex(value)}")
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


def _distinct_rows(rows: np.ndarray):
    """Group the equal rows of a 2-D float array (``==`` on every column,
    so -0.0 and 0.0 match). Returns ``(first, group)``: the index of each
    group's first row and the group of every row."""
    order = np.lexsort(rows.T)
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    group = np.empty(len(rows), dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    # lexsort is stable, so a group's first sorted row is its first row
    return order[starts], group


def impedance_matrix(elements: list[Radiator], constants: PhysicalConstants):
    """Self and mutual impedances among a set of parallel radiators.

    Returns ``(z_self, z_mutual)`` with the self impedances as an (N,)
    vector and the mutual part as an (N, N) matrix with zero diagonal.
    Each distinct offset (position difference and both half lengths) is
    looked up once, for its first pair in ``itertools.combinations``
    order, and its value fills every pair with that offset, mirrored. The
    process-wide pair memo integrates each distinct geometry once, which
    collapses the cost on regular grids (and across calls) without
    changing any entry.
    """
    n = len(elements)
    if n < 1:
        raise ValueError("need at least one element")

    z_self = np.empty(n, dtype=complex)
    z_mutual = np.zeros((n, n), dtype=complex)
    try:
        for i, elem in enumerate(elements):
            z_self[i] = mutual_impedance(elem, elem, constants)
    except ComputationError as exc:
        raise annotate(exc, f"element {i} self term")

    # np.triu_indices lists the pairs in itertools.combinations order
    rows_i, cols_j = np.triu_indices(n, 1)
    positions = np.array([elem.position for elem in elements])
    half_lengths = np.array([elem.half_length for elem in elements])
    offsets = np.column_stack((positions[rows_i] - positions[cols_j],
                               half_lengths[rows_i], half_lengths[cols_j]))
    first, group = _distinct_rows(offsets)
    values = np.empty(len(first), dtype=complex)
    for g in np.argsort(first):
        i, j = int(rows_i[first[g]]), int(cols_j[first[g]])
        try:
            values[g] = mutual_impedance(elements[i], elements[j], constants)
        except ComputationError as exc:
            raise annotate(exc, f"element pair ({i},{j})")
    z_mutual[rows_i, cols_j] = z_mutual[cols_j, rows_i] = values[group]
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
