import numpy as np
import pytest

from ris_mcrb import scenario
from ris_mcrb.cli import main
from ris_mcrb.errors import ConfigError
from ris_mcrb.scenario import (
    DEFAULT_CONFIG,
    NoiseModel,
    Radiator,
    RisGrid,
    build_ris_grid,
    derive_constants,
    dump_scenario,
    load_scenario,
    scenario_from_config,
)


class TestDeriveConstants:
    def test_28ghz_wavelength_and_wavenumber(self):
        c = derive_constants(28e9)
        # hand values: lambda = 299792458 / 28e9, k0 = 2*pi/lambda
        assert c.wavelength == pytest.approx(0.0107068735, rel=1e-12)
        assert c.wavenumber == pytest.approx(586.8366, rel=1e-6)

    def test_free_space_impedance(self):
        c = derive_constants(28e9)
        assert c.eta0 == pytest.approx(376.730, abs=5e-4)

    def test_wavelength_inverse_in_frequency(self):
        assert derive_constants(14e9).wavelength == 2.0 * derive_constants(28e9).wavelength

    def test_pure_function(self):
        assert derive_constants(6.5e9) == derive_constants(6.5e9)

    @pytest.mark.parametrize("freq", [0.0, -1e9])
    def test_rejects_nonpositive_frequency(self, freq):
        with pytest.raises(ValueError):
            derive_constants(freq)


class TestRisGrid:
    def test_single_element_at_center(self):
        grid = build_ris_grid(1, 1, 0.123, np.zeros(3))
        assert np.array_equal(grid.element_positions, np.zeros((1, 3)))

    def test_two_by_two_symmetry(self):
        grid = build_ris_grid(2, 2, 1.0, np.zeros(3))
        got = {tuple(p) for p in grid.element_positions}
        assert got == {(-0.5, -0.5, 0.0), (-0.5, 0.5, 0.0),
                       (0.5, -0.5, 0.0), (0.5, 0.5, 0.0)}

    def test_row_major_ordering(self):
        grid = build_ris_grid(2, 3, 2.0, np.zeros(3))
        expected = np.array([
            [-1.0, -2.0, 0.0], [-1.0, 0.0, 0.0], [-1.0, 2.0, 0.0],
            [1.0, -2.0, 0.0], [1.0, 0.0, 0.0], [1.0, 2.0, 0.0],
        ])
        assert np.array_equal(grid.element_positions, expected)

    def test_max_pairwise_distance_4x4(self):
        d = 0.5 * derive_constants(28e9).wavelength
        grid = build_ris_grid(4, 4, d, np.zeros(3))
        assert grid.num_elements == 16
        # exhaustive pairwise check over the 16 points
        pos = grid.element_positions
        dists = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        assert dists.max() == pytest.approx(3.0 * d * np.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("n1,n2,d", [(1, 5, 0.3), (4, 4, 0.01), (7, 2, 1.7)])
    def test_centroid_matches_center(self, n1, n2, d):
        center = np.array([1.5, -2.25, 4.0])
        grid = build_ris_grid(n1, n2, d, center)
        assert np.allclose(grid.element_positions.mean(axis=0), center, atol=1e-12)

    @pytest.mark.parametrize("args", [(0, 4, 0.1), (4, 0, 0.1), (4, 4, 0.0), (4, 4, -1.0)])
    def test_rejects_bad_grid(self, args):
        with pytest.raises(ValueError):
            build_ris_grid(*args, np.zeros(3))

    def test_rejects_duplicate_positions(self):
        from ris_mcrb.scenario import RisGrid
        with pytest.raises(ValueError, match="distinct"):
            RisGrid(n1=1, n2=2, spacing=0.1, center=np.zeros(3),
                    element_positions=np.zeros((2, 3)))

    @pytest.mark.parametrize("duplicate", [
        [0.1, 0.2, 0.0],    # the same bits as row 0, two rows away
        [0.1, 0.2, -0.0],   # equal under ==, though the sign bit differs
    ], ids=["same-bits", "signed-zero"])
    def test_rejects_duplicate_rows_anywhere(self, duplicate):
        rows = [[0.1, 0.2, 0.0], [0.1, -0.2, 0.0], [-0.1, 0.2, 0.0], duplicate]
        with pytest.raises(ValueError, match="pairwise distinct"):
            RisGrid(n1=2, n2=2, spacing=0.1, center=np.zeros(3),
                    element_positions=np.array(rows))

    def test_accepts_rows_one_ulp_apart(self):
        rows = np.array([[0.1, 0.2, 0.0], [0.1, np.nextafter(0.2, 1.0), 0.0]])
        grid = RisGrid(n1=1, n2=2, spacing=0.1, center=np.zeros(3),
                       element_positions=rows)
        assert grid.num_elements == 2

    def test_holds_copies_of_positions(self):
        center = np.zeros(3)
        positions = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
        grid = RisGrid(n1=1, n2=2, spacing=0.1, center=center,
                       element_positions=positions)
        center[0] = 5.0
        positions[1, 0] = 0.0  # would duplicate element 0
        assert grid.center[0] == 0.0
        assert grid.element_positions[1, 0] == 0.1


class TestRadiator:
    def test_rejects_radius_not_below_half_length(self):
        with pytest.raises(ValueError):
            Radiator(np.zeros(3), half_length=1e-4, wire_radius=1e-4)

    def test_positions_read_only(self):
        rad = Radiator(np.zeros(3), 1e-3, 1e-5)
        with pytest.raises(ValueError):
            rad.position[0] = 1.0

    def test_caller_position_stays_writeable(self):
        position = np.zeros(3)
        rad = Radiator(position, 1e-3, 1e-5)
        assert position.flags.writeable
        assert not rad.position.flags.writeable

    def test_holds_a_copy_of_position(self):
        position = np.zeros(3)
        rad = Radiator(position, 1e-3, 1e-5)
        position[0] = 1.0
        assert rad.position[0] == 0.0


class TestLoadScenario:
    def test_empty_config_gives_reference_defaults(self):
        sc = load_scenario("")
        assert sc.constants.frequency == 28e9
        lam = sc.constants.wavelength
        assert sc.element_half_length == pytest.approx(lam / 64.0, rel=1e-15)
        assert sc.element_wire_radius == pytest.approx(lam / 500.0, rel=1e-15)
        assert np.array_equal(sc.tx.position, [5.0, -5.0, 3.0])
        assert np.array_equal(sc.rx.position, [5.0, 5.0, 1.0])
        assert np.array_equal(sc.ris.center, [0.0, 0.0, 0.0])
        assert (sc.ris.n1, sc.ris.n2) == (4, 4)
        assert sc.num_transmissions == 256
        assert sc.load_resistance_range == (0.1, 10.1)
        assert sc.load_inductance_range == pytest.approx((0.1e-9, 10.1e-9), rel=1e-15)
        assert sc.noise.psd_dbm_hz == -173.855
        assert sc.noise.noise_figure_db == 10.0

    def test_grid_size_override_keeps_other_defaults(self):
        sc = load_scenario("ris_n1: 12\nris_n2: 12\n")
        assert sc.ris.num_elements == 144
        assert sc.num_transmissions == 256
        assert sc.constants.frequency == 28e9

    def test_too_few_transmissions_rejected(self):
        with pytest.raises(ConfigError, match="num_transmissions"):
            load_scenario("num_transmissions: 8\n")

    @staticmethod
    def refuse_large_grids(monkeypatch):
        """Fail by assertion where a config would build an oversized grid:
        the 100000 x 100000 one below would allocate 224 GiB."""
        build = scenario.build_ris_grid

        def small_only(n1, n2, *args):
            assert n1 * n2 <= 256, f"a {n1}x{n2} grid was built"
            return build(n1, n2, *args)

        monkeypatch.setattr(scenario, "build_ris_grid", small_only)

    def test_too_few_transmissions_rejected_before_the_grid(self, monkeypatch):
        self.refuse_large_grids(monkeypatch)
        with pytest.raises(ConfigError, match=r"^num_transmissions: 256 transmissions "
                                              r"cannot identify 2250000 complex"):
            scenario_from_config({"ris_n1": 1500, "ris_n2": 1500})

    def test_oversized_ris_exits_2(self, monkeypatch, capsys):
        self.refuse_large_grids(monkeypatch)
        assert main(["bias-vs-spacing", "--sizes", "100000x100000",
                     "--spacings-over-lambda", "0.5"]) == 2
        assert capsys.readouterr().err == (
            "ris-mcrb: config error: spacing 0.5 lambda, size 100000x100000: "
            "num_transmissions: 256 transmissions cannot identify 10000000000 "
            "complex channel entries (the model matrix would be rank deficient)\n")

    def test_malformed_yaml_reports_line(self):
        with pytest.raises(ConfigError, match="line"):
            load_scenario("frequency_ghz: 28\nris_n1: [1, 2\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="frequenzy"):
            load_scenario("frequenzy: 3\n")

    def test_validation_names_field(self):
        with pytest.raises(ConfigError, match="frequency_ghz"):
            load_scenario("frequency_ghz: -2\n")

    @pytest.mark.parametrize("text,key", [
        ("half_length_over_lambda: 0\n", "half_length_over_lambda"),
        ("radius_over_lambda: 0.015625\n", "radius_over_lambda"),  # 1/64, the half length
        ("ris_n1: 0\n", "ris_n1"),
        ("load_r_min_ohm: 11.0\n", "load_r_min_ohm"),
        ("load_l_min_nh: 0\n", "load_l_min_nh"),
        ("noise_figure_db: loud\n", "noise_figure_db"),
    ], ids=["half-length-zero", "radius-at-half-length", "n1-zero",
            "resistance-min-above-max", "inductance-min-zero", "string-number"])
    def test_rejection_names_its_key(self, text, key):
        with pytest.raises(ConfigError, match=f"^{key}"):
            load_scenario(text)

    def test_list_config_rejected(self):
        with pytest.raises(ConfigError, match="mapping"):
            load_scenario("- ris_n1: 2\n- ris_n2: 2\n")

    def test_antenna_inside_grid_rejected(self):
        with pytest.raises(ConfigError, match="tx_position_m"):
            load_scenario("tx_position_m: [0.0, 0.0, 0.0]\n")

    @pytest.mark.parametrize("text,key", [
        # 1.49 h above a lone element: the coaxial wires overlap
        ("ris_n1: 1\nris_n2: 1\ntx_position_m: [0.0, 0.0, 0.00025]\n",
         "tx_position_m"),
        # centre 0.3 um outside the 2x2 hull at 0.5 lambda, wire 0.4 um
        # from element 3's axis
        ("ris_n1: 2\nris_n2: 2\ntx_position_m: [0.002677, 0.002677, 0.00025]\n",
         "tx_position_m"),
        ("ris_n1: 2\nris_n2: 2\nrx_position_m: [-0.002677, 0.002677, -0.00025]\n",
         "rx_position_m"),
    ], ids=["coaxial-1x1", "corner-2x2-tx", "corner-2x2-rx"])
    def test_antenna_wire_reaching_an_element_rejected(self, text, key):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            load_scenario(text)

    def test_antenna_wire_clear_of_the_elements_accepted(self):
        sc = load_scenario("ris_n1: 1\nris_n2: 1\n")
        h, r = sc.element_half_length, sc.element_wire_radius
        for position in ([0.0, 0.0, 2.01 * h], [2.01 * r, 0.0, 0.0]):
            moved = scenario_from_config({"ris_n1": 1, "ris_n2": 1,
                                          "tx_position_m": position})
            assert np.array_equal(moved.tx.position, position)

    def test_bad_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            load_scenario("seed: -3\n")

    def test_type_errors_are_config_errors(self):
        with pytest.raises(ConfigError, match="ris_n1"):
            load_scenario("ris_n1: 2.5\n")
        with pytest.raises(ConfigError, match="tx_position_m"):
            load_scenario("tx_position_m: [1, 2]\n")

    @pytest.mark.parametrize("text,key", [
        ("tx_position_m: [.inf, 0, 0]\n", "tx_position_m"),
        ("frequency_ghz: .nan\n", "frequency_ghz"),
        ("noise_figure_db: -.inf\n", "noise_figure_db"),
        ("load_r_max_ohm: " + "9" * 400 + "\n", "load_r_max_ohm"),
    ])
    def test_non_finite_numbers_rejected(self, text, key):
        with pytest.raises(ConfigError, match=key):
            load_scenario(text)

    def test_roundtrip_reproduces_positions_bit_for_bit(self):
        sc = load_scenario("ris_spacing_over_lambda: 0.037\nris_n1: 5\nseed: 99\n")
        again = load_scenario(dump_scenario(sc))
        assert np.array_equal(sc.ris.element_positions, again.ris.element_positions)
        assert sc.config == again.config

    def test_defaults_mapping_complete(self):
        sc = scenario_from_config({})
        assert set(sc.config) == set(DEFAULT_CONFIG)


class TestNoiseModel:
    def test_reference_sigma2(self):
        noise = NoiseModel(-173.855, 10.0, 1.0)
        assert noise.sigma2 == pytest.approx(10.0 ** (-19.3855), rel=1e-12)
        assert noise.sigma2 == pytest.approx(4.117e-20, rel=1e-3)

    def test_noise_figure_removes_one_decade(self):
        assert NoiseModel(-173.855, 0.0, 1.0).sigma2 == pytest.approx(
            10.0 ** (-20.3855), rel=1e-12)

    def test_linear_in_bandwidth(self):
        assert NoiseModel(-173.855, 10.0, 10.0).sigma2 == pytest.approx(
            10.0 * NoiseModel(-173.855, 10.0, 1.0).sigma2, rel=1e-15)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            NoiseModel(-173.855, 10.0, 0.0)

    @pytest.mark.parametrize("key,value", [
        ("noise_psd_dbm_hz", 4000.0),     # 10 ** 397 overflows
        ("noise_figure_db", 4000.0),
        ("noise_psd_dbm_hz", -4000.0),    # underflows to sigma2 == 0
        ("noise_bandwidth_hz", 1.0e-320),
    ], ids=["psd-overflow", "figure-overflow", "psd-underflow",
            "bandwidth-underflow"])
    def test_out_of_range_variance_is_config_error(self, key, value):
        with pytest.raises(ConfigError, match="noise_psd_dbm_hz/noise_figure_db/"
                                              "noise_bandwidth_hz: noise variance"):
            scenario_from_config({key: value})
