import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from ris_mcrb import _parallel, experiments, impedance
from ris_mcrb.errors import (
    DegenerateGeometryError,
    QuadratureConvergenceError,
    ResonanceError,
)
from ris_mcrb.impedance import (
    ImpedanceSet,
    build_impedance_set,
    coupling_vector,
    impedance_matrix,
    mutual_impedance,
)
from ris_mcrb.experiments import (
    DEFAULT_SPACING_GRID,
    SweepRequest,
    csv_text,
    run_bias_vs_spacing,
)
from ris_mcrb.scenario import Radiator, derive_constants, scenario_from_config

C28 = derive_constants(28e9)
LAM = C28.wavelength
H, R = LAM / 64.0, LAM / 500.0

# |Z| reference values for the two-radiator coupling curve
# (h = lambda/64, r = lambda/500, 28 GHz, side-by-side wires).
CURVE = {
    0.01: 286.51210061345,
    0.02: 79.1291177214507,
    0.05: 7.74798094422523,
    0.1: 0.977518169863381,
    0.2: 0.200867432578507,
    0.5: 0.087849504032253,
    1.0: 0.0455164537678996,
    2.5: 0.018400205890376,
}

# Tx and Rx coupling of the default scenario's corner element, RIS element
# (0, 0) of the 4x4 grid at 0.5 lambda: element at (-0.75, -0.75, 0) lambda,
# antenna at the position given (m), about 660 lambda away and staggered in
# z. Each value is the engine's integral for the same float geometry,
# Z = j eta/(4 pi k) * int int e^{-jkr}/r * P(u, r) * s(xi) s(z) dxi dz with
# u = z - xi + rho2, r = sqrt(rho1^2 + u^2),
# P = k^2 - jk/r - (k^2 u^2 + 1)/r^2 + 3jk u^2/r^3 + 3u^2/r^4 and
# s(t) = sin(k(h - |t|))/sin(kh), evaluated to 30 digits with mpmath
# (Gauss-Legendre at 40 digits and tanh-sinh at 50 agree to 2e-41).
CORNER = -1.5 * (0.5 * LAM)
FAR_FIELD = {
    "tx": ((5.0, -5.0, 3.0),
           3.0845185034806951114416841423491e-05
           - 4.4808102011547041359477991586218e-05j),
    "rx": ((5.0, 5.0, 1.0),
           1.8865677831944419588896549725423e-05
           + 6.4914099380230266792910794707435e-05j),
}


def element(x=0.0, y=0.0, z=0.0, h=H, r=R):
    return Radiator(np.array([x, y, z]), h, r)


def closed_form_impedance(rho, dz=0.0):
    """Impedance (ohm) of two of the test dipoles, parallel at radial
    distance rho with their centres dz apart along the axis.

    Schelkunoff's closed-form near field of a sinusoidal filament
    (Balanis, Antenna Theory, ch. 8; Carter 1932),
    E_z = -j eta/(4 pi) [e^{-jkR1}/R1 + e^{-jkR2}/R2 - 2 cos(kh) e^{-jkR0}/R0],
    observed at axial position dz + t on the other dipole, integrated
    once against that dipole's current sin(k(h - |t|)) by scipy's adaptive
    quadrature and referred to the terminal currents. It shares no code
    with the engine.
    """
    k, eta, h = C28.wavenumber, C28.eta0, H

    def e_z(t):
        z = dz + t
        r0, r1, r2 = math.hypot(rho, z), math.hypot(rho, z - h), math.hypot(rho, z + h)
        field = (np.exp(-1j * k * r1) / r1 + np.exp(-1j * k * r2) / r2
                 - 2.0 * math.cos(k * h) * np.exp(-1j * k * r0) / r0)
        return -1j * eta / (4.0 * math.pi) * field * math.sin(k * (h - abs(t)))

    def over_wire(f):
        # split at the current profile's kink
        return sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                   for a, b in ((-h, 0.0), (0.0, h)))

    total = over_wire(lambda z: e_z(z).real) + 1j * over_wire(lambda z: e_z(z).imag)
    return -total / math.sin(k * h) ** 2


class TestMutualImpedance:
    @pytest.mark.parametrize("d,want,rel", [(0.1, 0.978, 0.05), (0.5, 0.0878, 0.05)])
    def test_reference_curve_points(self, d, want, rel):
        z = mutual_impedance(element(), element(x=d * LAM), C28)
        assert abs(z) == pytest.approx(want, rel=rel)

    @pytest.mark.parametrize(
        "dx,dy,dz",
        [(0.1, 0.0, 0.0), (0.03, -0.07, 0.0), (0.2, 0.1, 0.35), (0.0, 0.05, -0.4)],
    )
    def test_reciprocity(self, dx, dy, dz):
        p = element()
        q = element(x=dx * LAM, y=dy * LAM, z=dz * LAM)
        z_pq = mutual_impedance(p, q, C28)
        z_qp = mutual_impedance(q, p, C28)
        assert abs(z_pq - z_qp) <= 1e-10 * abs(z_pq)

    def test_translation_invariance(self):
        shift = np.array([0.37, -1.2, 5.0])
        p, q = element(), element(x=0.08 * LAM, z=0.3 * LAM)
        p2 = Radiator(p.position + shift, H, R)
        q2 = Radiator(q.position + shift, H, R)
        z1 = mutual_impedance(p, q, C28)
        z2 = mutual_impedance(p2, q2, C28)
        assert abs(z1 - z2) <= 1e-12 * abs(z1)

    def test_closed_form_field_oracle(self):
        # every spacing of the default grid, and the self term, which is the
        # same kernel at a radial offset of one wire radius
        e = element()
        cases = [(d * LAM, element(x=d * LAM)) for d in DEFAULT_SPACING_GRID]
        for rho, other in cases + [(R, e)]:
            want = closed_form_impedance(rho)
            assert abs(mutual_impedance(e, other, C28) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("rho,dz", [
        (0.0, 0.035), (0.0, 0.04), (0.0, 0.05), (0.0, 0.1),
        (0.02, 0.04), (0.04, 0.04), (0.05, 0.05), (0.1, 0.1),
    ], ids=["collinear-0.035", "collinear-0.04", "collinear-0.05", "collinear-0.1",
            "echelon-0.02-0.04", "echelon-0.04-0.04", "echelon-0.05-0.05",
            "echelon-0.1-0.1"])
    def test_closed_form_staggered_oracle(self, rho, dz):
        # offsets in lambda; collinear end gaps go down to 0.0035 lambda
        e, other = element(), element(x=rho * LAM, z=dz * LAM)
        want = closed_form_impedance(rho * LAM, dz * LAM)
        for p, q in ((e, other), (other, e)):
            assert abs(mutual_impedance(p, q, C28) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("antenna", sorted(FAR_FIELD))
    def test_stored_far_field_oracle(self, antenna):
        position, want = FAR_FIELD[antenna]
        scenario = scenario_from_config({})
        assert np.array_equal(scenario.ris_radiators()[0].position,
                              [CORNER, CORNER, 0.0])
        assert np.array_equal(getattr(scenario, antenna).position, position)
        got = mutual_impedance(element(x=CORNER, y=CORNER), element(*position), C28)
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_error_estimate_bounds_refinement_change(self):
        # at 0.002 lambda the rule needs three refinements, so the estimate
        # measures quadrature error rather than rounding
        rho = 0.002 * LAM
        value, err, _ = impedance._pair_impedance(
            C28.wavenumber, C28.eta0, H, H, rho, 0.0)
        assert abs(value - closed_form_impedance(rho)) <= err

    def test_monotone_decay(self):
        mags = [abs(mutual_impedance(element(), element(x=d * LAM), C28))
                for d in (0.05, 0.1, 0.2, 0.5, 1.0, 2.5)]
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_convergence_error_carries_estimates(self, monkeypatch):
        # 0.002 lambda converges at the third refinement; stop after two
        impedance._pair_impedance.cache_clear()
        monkeypatch.setattr(impedance, "MAX_REFINEMENTS", 2)
        with pytest.raises(QuadratureConvergenceError) as exc_info:
            mutual_impedance(element(), element(x=0.002 * LAM), C28)
        previous, latest = exc_info.value.previous, exc_info.value.latest
        assert previous != latest
        assert (abs(latest - previous)
                > impedance.REL_TOLERANCE * max(abs(latest), abs(previous)))
        # the message prints plain complex numbers, not numpy reprs
        message = str(exc_info.value)
        assert "np.complex128" not in message
        assert f"last estimates {complex(previous)} and {complex(latest)}" in message

    def test_half_wavelength_resonance_rejected(self):
        half_wave = element(h=LAM / 2.0, r=R)
        other = element(x=0.5 * LAM, h=LAM / 2.0, r=R)
        with pytest.raises(ResonanceError):
            mutual_impedance(half_wave, other, C28)

    def test_overlapping_coaxial_wires_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            mutual_impedance(element(), element(z=H), C28)

    def test_coaxial_but_separated_is_fine(self):
        z = mutual_impedance(element(), element(z=5 * H), C28)
        assert np.isfinite(z)

    def test_self_impedance_matches_radius_offset_mutual(self):
        # the self branch equals a side-by-side pair at one wire radius
        e = element()
        z_self = mutual_impedance(e, e, C28)
        z_near = mutual_impedance(element(), element(x=R), C28)
        assert z_self == pytest.approx(z_near, rel=1e-12)
        assert z_self.real > 0.0  # radiation resistance

    def test_short_dipole_radiation_resistance(self):
        # closed form for an electrically short dipole, independent of the
        # quadrature: R = 20 pi^2 (2h / lambda)^2
        e = element()
        want = 20.0 * np.pi ** 2 * (2.0 * H / LAM) ** 2
        assert mutual_impedance(e, e, C28).real == pytest.approx(want, rel=1e-3)

    def test_distinct_coincident_radiators_raise(self):
        # the self term needs the same object; an equal copy overlaps
        with pytest.raises(DegenerateGeometryError):
            mutual_impedance(element(), element(), C28)


@np.errstate(all="ignore")
def complex_tensor_estimate(k0, hp, hq, rho1, rho2, order):
    """The tensor estimate as one complex numpy expression, as the engine
    computed it before its kernel was split into real and imaginary
    parts; the reference the kernel must reproduce bit for bit."""
    sin_p, sin_q = math.sin(k0 * hp), math.sin(k0 * hq)
    xi, w_xi = impedance._split_axis(hp, order)
    z, w_z = impedance._split_axis(hq, order)

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
    return w_xi @ kernel @ w_z


def kernel_geometries():
    """(rho1, rho2) of the self term, side-by-side pairs at every default
    spacing, staggered near-field pairs and the corner element against
    the Tx and the Rx."""
    cases = [(R, 0.0)]
    cases += [(d * LAM, 0.0) for d in DEFAULT_SPACING_GRID]
    cases += [(d * LAM, s * LAM) for d in (0.002, 0.01, 0.05)
              for s in (-0.05, 0.003, 0.04)]
    for position, _ in FAR_FIELD.values():
        cases.append((math.hypot(CORNER - position[0], CORNER - position[1]),
                      0.0 - position[2]))
    return cases


class TestTensorKernel:
    @pytest.mark.parametrize("order", [16, 32, 64, 128])
    def test_bit_identical_to_complex_expression(self, order):
        k0 = C28.wavenumber
        for rho1, rho2 in kernel_geometries():
            want = complex_tensor_estimate(k0, H, H, rho1, rho2, order)
            assert impedance._tensor_estimate(k0, H, H, rho1, rho2, order) == want

    # in-plane pairs (rho2 = +-0) take the four-fold orbits, staggered
    # ones the two-fold, and unequal half lengths every cell
    @settings(deadline=None, max_examples=60)
    @given(rho1=st.floats(0.002 * LAM, 40.0 * LAM),
           rho2=st.one_of(st.sampled_from([0.0, -0.0]),
                          st.floats(-40.0 * LAM, 40.0 * LAM)),
           order=st.sampled_from([16, 32, 64]),
           hq=st.sampled_from([H, 0.75 * H]))
    def test_bit_identical_property(self, rho1, rho2, order, hq):
        k0 = C28.wavenumber
        want = complex_tensor_estimate(k0, H, hq, rho1, rho2, order)
        assert impedance._tensor_estimate(k0, H, hq, rho1, rho2, order) == want

    @pytest.mark.parametrize("order", [16, 32])
    @pytest.mark.parametrize("hq,rho2,folds", [
        (H, 3e-4, 2), (H, 0.0, 4), (H, -0.0, 4), (0.75 * H, 3e-4, 1), (0.75 * H, 0.0, 1)])
    def test_orbit_map(self, order, hq, rho2, folds):
        # every cell's kernel inputs, u^2 = (z - xi + rho2)^2 and the
        # profile tensor built on the full grid, equal its representative's
        k0 = C28.wavenumber
        grid, w_xi, w_z, profile, cell_map = impedance._node_grid(
            k0, H, hq, order, rho2 == 0.0)
        n = 2 * order
        count = {1: n * n, 2: (n * n + n) // 2, 4: (n * n + 2 * n) // 4}[folds]
        assert len(grid) == len(profile) == count
        assert cell_map.shape == (n, n)
        xi, want_w_xi = impedance._split_axis(H, order)
        z, want_w_z = impedance._split_axis(hq, order)
        assert np.array_equal(w_xi, want_w_xi) and np.array_equal(w_z, want_w_z)
        full_grid = z[None, :] - xi[:, None]
        full_profile = (np.sin(k0 * (H - np.abs(xi)))[:, None]
                        * np.sin(k0 * (hq - np.abs(z)))[None, :])
        full_profile /= math.sin(k0 * H) * math.sin(k0 * hq)
        assert np.array_equal(((grid + rho2) ** 2)[cell_map], (full_grid + rho2) ** 2)
        assert np.array_equal(profile[cell_map], full_profile)
        if folds < 4:
            # without the transposition, z - xi itself agrees too
            assert np.array_equal(grid[cell_map], full_grid)

    def test_high_orders_bypass_grid_cache(self):
        k0 = C28.wavenumber
        impedance._tensor_estimate(k0, H, H, R, 0.0, 2 * impedance.BASE_ORDER)
        size = impedance._cached_node_grid.cache_info().currsize
        assert size > 0
        impedance._tensor_estimate(k0, H, H, R, 0.0, 1024)
        assert impedance._cached_node_grid.cache_info().currsize == size

    def test_peak_memory_at_order_256(self):
        # The complex expression peaked at 23_086_496 bytes here: tracemalloc
        # around the second of two order-256 estimates (rho1 = 1e-4 m,
        # rho2 = 3e-5 m, the test dipoles at 28 GHz), numpy 2.4, Python
        # 3.11. The real-arithmetic kernel holds at most four real and two
        # complex 512 x 512 tensors (about 16.8 MB).
        k0 = C28.wavenumber
        impedance._tensor_estimate(k0, H, H, 1e-4, 3e-5, 256)
        tracemalloc.start()
        try:
            impedance._tensor_estimate(k0, H, H, 1e-4, 3e-5, 256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 23_086_496


class TestImpedanceMatrix:
    def test_single_element(self):
        elems = [element()]
        z_self, z_mut = impedance_matrix(elems, C28)
        assert np.array_equal(z_mut, [[0.0]])
        assert z_self[0] == mutual_impedance(elems[0], elems[0], C28)

    def test_pair_spacing_curve_value(self):
        elems = [element(), element(x=0.1 * LAM)]
        _, z_mut = impedance_matrix(elems, C28)
        assert abs(z_mut[0, 1]) == pytest.approx(0.978, rel=0.05)
        assert z_mut[0, 1] == z_mut[1, 0]

    def test_full_matrix_against_entrywise_oracle(self):
        d = 0.5 * LAM
        elems = [element(x=i * d, y=j * d) for i in range(4) for j in range(4)]
        z_self, z_mut = impedance_matrix(elems, C28)
        # brute force: every ordered entry evaluated directly, no mirroring
        for i in range(16):
            assert z_self[i] == pytest.approx(
                mutual_impedance(elems[i], elems[i], C28), rel=1e-12)
            for j in range(16):
                if i == j:
                    continue
                want = mutual_impedance(elems[i], elems[j], C28)
                assert z_mut[i, j] == pytest.approx(want, rel=1e-10)

    def test_dedupe_matches_direct_evaluation(self):
        d = 0.2 * LAM
        elems = [element(x=i * d, y=j * d) for i in range(3) for j in range(3)]
        z_self, z_mut = impedance_matrix(elems, C28)
        # shared geometry keys are exact: every entry equals its own
        # per-pair evaluation bit for bit
        for i, p in enumerate(elems):
            assert z_self[i] == mutual_impedance(p, p, C28)
            for j, q in enumerate(elems):
                if i != j:
                    assert z_mut[i, j] == mutual_impedance(p, q, C28)

    def test_irregular_layout_matches_pair_loop(self):
        # dyadic positions, so equal offsets are equal floats: two shifted
        # copies of a jittered block repeat every in-block offset; a first
        # column at x = 0.0 or -0.0 and heights of 0.0 or -0.0 (flipped in
        # the copy) give zero offsets of both signs, which share a lookup;
        # and the half lengths differ
        unit = 2.0 ** -10
        rng = np.random.default_rng(7)
        block = [(i * 3 * unit + rng.integers(-2, 3) * unit / 8 if i else (-0.0 if j % 2 else 0.0),
                  j * 3 * unit + rng.integers(-2, 3) * unit / 8)
                 for i in range(3) for j in range(3)]
        elems = [element(x=x + 16 * unit * c if c else x, y=y,
                         z=-0.0 if (k + c) % 2 else 0.0, h=H if k % 3 else 0.75 * H)
                 for c in range(2) for k, (x, y) in enumerate(block)]
        z_self, z_mut = impedance_matrix(elems, C28)
        impedance._pair_impedance.cache_clear()
        for i, p in enumerate(elems):
            assert z_self[i] == mutual_impedance(p, p, C28)
            for j in range(i + 1, len(elems)):
                want = mutual_impedance(p, elems[j], C28)
                assert z_mut[i, j] == want
                assert z_mut[j, i] == want

    def test_first_failing_pair_in_combinations_order_is_named(self):
        # pairs (0,3) and (1,2) overlap coaxially at different z offsets;
        # (1,2)'s offset sorts first, (0,3) comes first in combinations order
        elems = [element(), element(x=LAM), element(x=LAM, z=H),
                 element(z=0.5 * H)]
        with pytest.raises(DegenerateGeometryError, match=r"^element pair \(0,3\): "):
            impedance_matrix(elems, C28)

    @pytest.mark.parametrize("n,calls", [(4, 40), (8, 264), (12, 684)])
    def test_one_lookup_per_distinct_offset(self, monkeypatch, n, calls):
        sc = scenario_from_config({"ris_n1": n, "ris_n2": n})
        lookups = []
        lookup = impedance.mutual_impedance

        def counting(p, q, constants):
            if p is not q:
                lookups.append((p, q))
            return lookup(p, q, constants)

        monkeypatch.setattr(impedance, "mutual_impedance", counting)
        impedance_matrix(sc.ris_radiators(), sc.constants)
        assert len(lookups) == calls

    def test_error_annotated_with_pair(self):
        elems = [element(), element(z=H)]  # coaxial overlap
        with pytest.raises(DegenerateGeometryError, match=r"\(0,1\)"):
            impedance_matrix(elems, C28)


    def test_error_annotated_with_self_term(self):
        # half-wavelength elements are resonant, so the first self term fails
        elems = [element(h=LAM / 2.0), element(x=0.5 * LAM, h=LAM / 2.0)]
        with pytest.raises(ResonanceError, match=r"^element 0 self term: sin"):
            impedance_matrix(elems, C28)

    def test_annotation_keeps_convergence_estimates(self, monkeypatch):
        # the self term, at one wire radius (lambda/500), converges at the
        # third refinement; stop after two
        impedance._pair_impedance.cache_clear()
        monkeypatch.setattr(impedance, "MAX_REFINEMENTS", 2)
        with pytest.raises(QuadratureConvergenceError,
                           match=r"^element 0 self term: ") as exc_info:
            impedance_matrix([element()], C28)
        previous, latest = exc_info.value.previous, exc_info.value.latest
        assert previous != latest
        assert f"last estimates {complex(previous)} and {complex(latest)}" in str(exc_info.value)

    @pytest.mark.parametrize("n1, n2", [(2, 1), (4, 4), (12, 12)])
    def test_real_part_is_positive_semidefinite(self, n1, n2):
        # a passive multiport radiates power for every current vector, so
        # Re Z_ss is positive semidefinite up to the quadrature tolerance;
        # channel.build_B's certificate rests on this
        for d in DEFAULT_SPACING_GRID:
            sc = scenario_from_config({"ris_n1": n1, "ris_n2": n2,
                                       "ris_spacing_over_lambda": d})
            z_self, z_mut = impedance_matrix(sc.ris_radiators(), sc.constants)
            z = z_mut + np.diag(z_self)
            floor = -n1 * n2 * impedance.REL_TOLERANCE * np.abs(z).max()
            assert np.linalg.eigvalsh(z.real).min() >= floor, d


class TestCouplingVector:
    def grid_elements(self, d):
        return [element(x=(i - 1.5) * d, y=(j - 1.5) * d)
                for i in range(4) for j in range(4)]

    def test_entries_match_standalone_calls(self):
        elems = self.grid_elements(0.5 * LAM)
        tx = element(x=5.0, y=-5.0, z=3.0)
        vec = coupling_vector(tx, elems, C28)
        for n in (0, 5, 15):
            assert vec[n] == pytest.approx(
                mutual_impedance(elems[n], tx, C28), rel=1e-12)

    def test_far_field_decay(self):
        # receding line of elements: coupling magnitude drops with distance
        antenna = element()
        line = [element(x=(1.0 + k) * LAM) for k in range(5)]
        mags = np.abs(coupling_vector(antenna, line, C28))
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_error_annotated_with_element(self):
        # the antenna sits on element 1's axis, overlapping it
        elems = [element(), element(x=LAM)]
        with pytest.raises(DegenerateGeometryError, match=r"^element 1 to antenna: "):
            coupling_vector(element(x=LAM, z=H), elems, C28)

    def test_mirrored_antenna_permutes_vector(self):
        elems = self.grid_elements(0.3 * LAM)
        antenna = element(x=2.0, y=0.5, z=1.0)
        mirrored = element(x=-2.0, y=0.5, z=1.0)  # reflect through x=0 plane
        vec = coupling_vector(antenna, elems, C28)
        vec_mirror = coupling_vector(mirrored, elems, C28)
        # x-mirroring reverses the row order of the 4x4 grid
        perm = vec.reshape(4, 4)[::-1].ravel()
        assert np.allclose(vec_mirror, perm, rtol=1e-12, atol=0)


class TestImpedanceSet:
    def test_build_and_invariants(self):
        sc_elems = [element(x=i * 0.5 * LAM) for i in range(3)]
        tx = element(x=1.0, z=2.0)
        rx = element(x=-1.0, z=1.0)
        imp = build_impedance_set(tx, rx, sc_elems, C28)
        assert imp.num_elements == 3
        assert np.array_equal(imp.z_ss_mutual, imp.z_ss_mutual.T)
        assert np.all(np.diagonal(imp.z_ss_mutual) == 0.0)
        # identical elements share one self impedance
        assert np.all(imp.z_ss_self == imp.z_ss_self[0])
        assert np.all(np.isfinite(imp.z_ss))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            ImpedanceSet(
                z_st=np.ones(2), z_rs=np.ones(2), z_ss_self=np.ones(2),
                z_ss_mutual=np.eye(2),
            )

    def test_rejects_asymmetric_mutual(self):
        with pytest.raises(ValueError, match="symmetric"):
            ImpedanceSet(
                z_st=np.ones(2), z_rs=np.ones(2), z_ss_self=np.ones(2),
                z_ss_mutual=np.array([[0.0, 1.0], [2.0, 0.0]]),
            )

    def test_leaves_caller_arrays_writeable(self):
        arrays = dict(z_st=np.ones(2, dtype=complex), z_rs=np.ones(2, dtype=complex),
                      z_ss_self=np.ones(2, dtype=complex),
                      z_ss_mutual=np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        imp = ImpedanceSet(**arrays)
        for name, arr in arrays.items():
            assert arr.flags.writeable
            assert not getattr(imp, name).flags.writeable

    def test_holds_copies(self):
        arrays = dict(z_st=np.ones(2, dtype=complex), z_rs=np.ones(2, dtype=complex),
                      z_ss_self=np.ones(2, dtype=complex),
                      z_ss_mutual=np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        imp = ImpedanceSet(**arrays)
        for arr in arrays.values():
            arr[1] = 7.0
        assert np.array_equal(imp.z_st, [1.0, 1.0])
        assert np.array_equal(imp.z_ss_self, [1.0, 1.0])
        assert np.array_equal(imp.z_ss_mutual, [[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture
def integrations(monkeypatch):
    """Empty the pair memo and record every quadrature run from here on."""
    calls = []
    integrate = impedance._integrate

    def counting(*args):
        calls.append(args)
        return integrate(*args)

    impedance._pair_impedance.cache_clear()
    monkeypatch.setattr(impedance, "_integrate", counting)
    return calls


class TestPairMemo:
    def test_repeated_build_runs_no_quadrature(self, integrations):
        elems = [element(x=i * 0.3 * LAM, y=j * 0.3 * LAM)
                 for i in range(3) for j in range(3)]
        tx, rx = element(x=1.0, z=2.0), element(x=-1.0, z=1.0)
        first = build_impedance_set(tx, rx, elems, C28)
        cold = len(integrations)
        second = build_impedance_set(tx, rx, elems, C28)
        assert cold > 0
        assert len(integrations) == cold
        for name in ("z_st", "z_rs", "z_ss_self", "z_ss_mutual"):
            assert np.array_equal(getattr(first, name), getattr(second, name))

    def test_mirror_symmetric_antenna_shares_quadratures(self, integrations):
        d = 0.3 * LAM
        elems = [element(x=(i - 1.5) * d, y=(j - 1.5) * d)
                 for i in range(4) for j in range(4)]
        antenna = element(y=0.5, z=1.0)  # on the grid's x = 0 mirror line
        vec = coupling_vector(antenna, elems, C28)
        # element (i, j) and its mirror image (3 - i, j) share one geometry
        assert len(integrations) == 8
        for n, elem in enumerate(elems):
            impedance._pair_impedance.cache_clear()
            assert vec[n] == mutual_impedance(elem, antenna, C28)

    def test_sweep_csv_independent_of_memo_state(self, integrations, monkeypatch):
        # every point in this process, where its quadratures are counted
        monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 1)
        sc = scenario_from_config({"ris_n1": 2, "ris_n2": 2,
                                   "num_transmissions": 16})

        def bias_csv(spacings, sizes):
            request = SweepRequest(kind="bias_vs_spacing", scenario=sc,
                                   spacing_grid=spacings, sizes=sizes)
            return csv_text(run_bias_vs_spacing(request))

        cold = bias_csv([0.1, 0.5], [(2, 2)])
        cold_count = len(integrations)
        assert cold_count > 0
        impedance._pair_impedance.cache_clear()
        # a different sweep that shares the 0.1 lambda pair geometries
        bias_csv([0.05, 0.1], [(2, 2), (3, 3)])
        warmed_at = len(integrations)
        assert bias_csv([0.1, 0.5], [(2, 2)]) == cold
        assert len(integrations) - warmed_at < cold_count

    def test_memo_keeps_its_bound(self, monkeypatch):
        # a counting fake quadrature, on a wavenumber no scenario uses
        calls = []

        def fake(k0, hp, hq, rho1, rho2):
            calls.append(rho1)
            return complex(rho1), 0.0, 32

        monkeypatch.setattr(impedance, "_integrate", fake)
        memo = impedance._pair_impedance
        size = memo.cache_info().maxsize
        try:
            for i in range(1, size + 2):
                memo(-1.0, 1.0, 1.0, 1.0, float(i), 0.0)
            assert memo.cache_info().currsize == size
            assert len(calls) == size + 1
            memo(-1.0, 1.0, 1.0, 1.0, float(size + 1), 0.0)
            assert len(calls) == size + 1
            # the least recently used geometry was dropped
            memo(-1.0, 1.0, 1.0, 1.0, 1.0, 0.0)
            assert calls[-1] == 1.0 and len(calls) == size + 2
        finally:
            memo.cache_clear()

    def test_failures_raise_on_every_call(self, integrations):
        elems = [element(h=LAM / 2.0), element(x=0.5 * LAM, h=LAM / 2.0)]
        for _ in range(2):
            with pytest.raises(ResonanceError, match="element 0 self term"):
                impedance_matrix(elems, C28)
        assert len(integrations) == 2
