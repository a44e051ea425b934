import csv
import io

import numpy as np
import pytest

from ris_mcrb import bounds, experiments
from ris_mcrb.bounds import bias_trace, crlb, lower_bound, mc_rmse
from ris_mcrb.channel import model_pair, noise_seed, sample_loads
from ris_mcrb.cli import main
from ris_mcrb.errors import ComputationError
from ris_mcrb.experiments import (
    SweepRequest,
    SweepResult,
    csv_text,
    emit_csv,
    run_bias_vs_spacing,
    run_crlb_vs_spacing,
    run_impedance_sweep,
    run_lb_vs_power,
    run_mc_rmse,
)
from ris_mcrb.impedance import build_impedance_set
from ris_mcrb.scenario import dbm_to_watts, scenario_from_config


@pytest.fixture(scope="module")
def small_scenario():
    # 2x2 grid keeps the sweeps fast
    return scenario_from_config({"ris_n1": 2, "ris_n2": 2, "num_transmissions": 16})


def rows_by_key(result, *keys):
    return {tuple(v[k] for k in keys): rep for v, rep in result.rows}


class TestSweepRequest:
    def test_rejects_unknown_kind(self, small_scenario):
        with pytest.raises(ValueError, match="kind"):
            SweepRequest(kind="nope", scenario=small_scenario, spacing_grid=[0.5])

    def test_rejects_non_increasing_grid(self, small_scenario):
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepRequest(kind="lb_vs_power", scenario=small_scenario,
                         power_grid=[10.0, 10.0], spacing_grid=[0.5])

    def test_rejects_empty_grids(self, small_scenario):
        with pytest.raises(ValueError, match="power_grid"):
            SweepRequest(kind="lb_vs_power", scenario=small_scenario,
                         spacing_grid=[0.5])
        with pytest.raises(ValueError, match="spacing_grid"):
            SweepRequest(kind="bias_vs_spacing", scenario=small_scenario,
                         sizes=[(2, 2)])

    def test_mc_rmse_needs_trials(self, small_scenario):
        with pytest.raises(ValueError, match="trials"):
            SweepRequest(kind="mc_rmse", scenario=small_scenario,
                         power_grid=[0.0], spacing_grid=[0.5])


class TestLbVsPower:
    def test_matched_flag_makes_lb_equal_crlb(self, small_scenario):
        request = SweepRequest(kind="lb_vs_power", scenario=small_scenario,
                               power_grid=[20.0], spacing_grid=[0.5], matched=True)
        result = run_lb_vs_power(request)
        ((_, report),) = result.rows
        assert report.lb == pytest.approx(report.crlb, rel=1e-12)
        assert report.tr_bias == 0.0

    def test_row_order_is_power_major(self, small_scenario):
        request = SweepRequest(kind="lb_vs_power", scenario=small_scenario,
                               power_grid=[0.0, 10.0], spacing_grid=[0.1, 0.5])
        result = run_lb_vs_power(request)
        got = [(v["p_t_dbm"], v["d_over_lambda"]) for v, _ in result.rows]
        assert got == [(0.0, 0.1), (0.0, 0.5), (10.0, 0.1), (10.0, 0.5)]

    def test_grid_point_independence(self, small_scenario):
        full = SweepRequest(kind="lb_vs_power", scenario=small_scenario,
                            power_grid=[0.0, 10.0, 20.0], spacing_grid=[0.1, 0.5],
                            trials=10)
        sparse = SweepRequest(kind="lb_vs_power", scenario=small_scenario,
                              power_grid=[0.0, 20.0], spacing_grid=[0.5],
                              trials=10)
        full_rows = rows_by_key(run_lb_vs_power(full), "p_t_dbm", "d_over_lambda")
        sparse_rows = rows_by_key(run_lb_vs_power(sparse), "p_t_dbm", "d_over_lambda")
        for key, report in sparse_rows.items():
            other = full_rows[key]
            assert report.lb == other.lb
            assert report.crlb == other.crlb
            assert report.rmse == other.rmse

    def test_matches_direct_bound_computation(self, small_scenario):
        d = 0.25
        request = SweepRequest(kind="lb_vs_power", scenario=small_scenario,
                               power_grid=[40.0], spacing_grid=[d])
        ((_, report),) = run_lb_vs_power(request).rows
        sc = small_scenario.with_overrides(ris_spacing_over_lambda=d)
        imp = build_impedance_set(sc.tx, sc.rx, sc.ris_radiators(), sc.constants)
        d_true, d_est, x_true = model_pair(imp, sample_loads(sc))
        gamma = dbm_to_watts(40.0) / sc.noise.sigma2
        assert report.tr_bias == pytest.approx(
            bias_trace(d_est, d_true, x_true), rel=1e-12)
        assert report.crlb == pytest.approx(crlb(d_true, gamma), rel=1e-12)

    @pytest.mark.parametrize("matched", [False, True])
    def test_row_is_lower_bound_plus_crlb_exactly(self, small_scenario, matched):
        d = 0.25
        request = SweepRequest(kind="lb_vs_power", scenario=small_scenario,
                               power_grid=[40.0], spacing_grid=[d],
                               matched=matched)
        ((_, report),) = run_lb_vs_power(request).rows
        sc = small_scenario.with_overrides(ris_spacing_over_lambda=d)
        imp = build_impedance_set(sc.tx, sc.rx, sc.ris_radiators(), sc.constants)
        d_true, d_est, x_true = model_pair(imp, sample_loads(sc))
        p_t = dbm_to_watts(40.0)
        gamma = p_t / sc.noise.sigma2
        want = lower_bound(d_true if matched else d_est, d_true, x_true,
                           gamma, p_t=p_t)
        for name in ("p_t", "gamma", "tr_mcrb", "tr_bias", "lb"):
            assert getattr(report, name) == getattr(want, name)
        assert report.crlb == crlb(d_true, gamma)
        assert report.rmse is None

    def test_kind_mismatch_rejected(self, small_scenario):
        request = SweepRequest(kind="mc_rmse", scenario=small_scenario,
                               power_grid=[0.0], spacing_grid=[0.5], trials=1)
        with pytest.raises(ValueError, match="kind"):
            run_lb_vs_power(request)

    def test_unusable_power_fails_before_any_build(self, small_scenario,
                                                   monkeypatch):
        built = []
        monkeypatch.setattr(experiments, "_build_point",
                            lambda *args: built.append(args))
        request = SweepRequest(kind="lb_vs_power", scenario=small_scenario,
                               power_grid=[0.0, 4000.0], spacing_grid=[0.5])
        with pytest.raises(ValueError, match="4000"):
            run_lb_vs_power(request)
        assert built == []

    def test_saturation_pattern_across_spacings(self):
        # tight spacing: the bound flattens onto the coupling floor just
        # above 10 dBm; half-wavelength spacing: still tracking the matched
        # bound at 60 dBm, clearly saturated by 80 dBm
        scenario = scenario_from_config({})
        request = SweepRequest(kind="lb_vs_power", scenario=scenario,
                               power_grid=[10.0, 60.0, 80.0],
                               spacing_grid=[0.02, 0.5])
        rows = rows_by_key(run_lb_vs_power(request), "p_t_dbm", "d_over_lambda")
        floor_tight = np.sqrt(rows[(10.0, 0.02)].tr_bias)
        assert rows[(10.0, 0.02)].lb <= 3.0 * floor_tight
        assert rows[(80.0, 0.02)].lb <= 1.01 * floor_tight
        assert rows[(60.0, 0.5)].lb <= 1.10 * rows[(60.0, 0.5)].crlb
        assert rows[(80.0, 0.5)].lb >= 1.5 * rows[(80.0, 0.5)].crlb


class TestSpacingSweeps:
    def test_bias_rows_match_direct(self, small_scenario):
        request = SweepRequest(kind="bias_vs_spacing", scenario=small_scenario,
                               spacing_grid=[0.1, 0.5], sizes=[(2, 2)])
        result = run_bias_vs_spacing(request)
        assert [v["d_over_lambda"] for v, _ in result.rows] == [0.1, 0.5]
        for variables, report in result.rows:
            sc = small_scenario.with_overrides(
                ris_spacing_over_lambda=variables["d_over_lambda"])
            imp = build_impedance_set(sc.tx, sc.rx, sc.ris_radiators(), sc.constants)
            d_true, d_est, x_true = model_pair(imp, sample_loads(sc))
            assert report.tr_bias == pytest.approx(
                bias_trace(d_est, d_true, x_true), rel=1e-12)

    def test_crlb_rows_match_direct(self, small_scenario):
        request = SweepRequest(kind="crlb_vs_spacing", scenario=small_scenario,
                               power_grid=[40.0], spacing_grid=[0.5], sizes=[(2, 2)])
        ((variables, report),) = run_crlb_vs_spacing(request).rows
        sc = small_scenario.with_overrides(ris_spacing_over_lambda=0.5)
        imp = build_impedance_set(sc.tx, sc.rx, sc.ris_radiators(), sc.constants)
        d_true, _, _ = model_pair(imp, sample_loads(sc))
        gamma = dbm_to_watts(40.0) / sc.noise.sigma2
        assert report.crlb == pytest.approx(crlb(d_true, gamma), rel=1e-12)
        assert variables["n1"] == 2 and variables["n2"] == 2

    def test_crlb_rows_carry_only_crlb(self, small_scenario):
        request = SweepRequest(kind="crlb_vs_spacing", scenario=small_scenario,
                               power_grid=[40.0], spacing_grid=[0.5], sizes=[(2, 2)])
        ((_, report),) = run_crlb_vs_spacing(request).rows
        assert report.tr_mcrb is None and report.tr_bias is None
        assert report.lb is None and report.rmse is None
        sc = small_scenario.with_overrides(ris_spacing_over_lambda=0.5)
        imp = build_impedance_set(sc.tx, sc.rx, sc.ris_radiators(), sc.constants)
        d_true, _, _ = model_pair(imp, sample_loads(sc))
        gamma = dbm_to_watts(40.0) / sc.noise.sigma2
        assert report.gamma == gamma
        assert report.crlb == crlb(d_true, gamma)

    def test_crlb_needs_single_power(self, small_scenario):
        request = SweepRequest(kind="crlb_vs_spacing", scenario=small_scenario,
                               power_grid=[20.0, 40.0], spacing_grid=[0.5],
                               sizes=[(2, 2)])
        with pytest.raises(ValueError, match="one transmit power"):
            run_crlb_vs_spacing(request)

    def test_errors_annotated_with_grid_point(self):
        # half-wavelength elements are resonant, so the impedance
        # evaluation fails; the error must name the offending grid point
        resonant = scenario_from_config({"half_length_over_lambda": 0.5,
                                         "ris_n1": 2, "ris_n2": 2,
                                         "num_transmissions": 8})
        request = SweepRequest(kind="bias_vs_spacing", scenario=resonant,
                               spacing_grid=[1.5], sizes=[(2, 2)])
        with pytest.raises(ComputationError, match="spacing 1.5 lambda"):
            run_bias_vs_spacing(request)

    def test_crlb_errors_annotated_with_grid_point(self):
        resonant = scenario_from_config({"half_length_over_lambda": 0.5,
                                         "ris_n1": 2, "ris_n2": 2,
                                         "num_transmissions": 8})
        request = SweepRequest(kind="crlb_vs_spacing", scenario=resonant,
                               power_grid=[40.0], spacing_grid=[1.5],
                               sizes=[(2, 2)])
        with pytest.raises(ComputationError,
                           match=r"spacing 1\.5 lambda, size 2x2"):
            run_crlb_vs_spacing(request)


class TestMcRmseSweep:
    def test_single_noiseless_trial_equals_bias_norm(self, small_scenario):
        request = SweepRequest(kind="mc_rmse", scenario=small_scenario,
                               power_grid=[30.0], spacing_grid=[0.1],
                               trials=1, noiseless=True)
        ((_, report),) = run_mc_rmse(request).rows
        assert report.rmse == pytest.approx(np.sqrt(report.tr_bias), rel=1e-12)

    def test_rmse_always_reported(self, small_scenario):
        request = SweepRequest(kind="mc_rmse", scenario=small_scenario,
                               power_grid=[0.0], spacing_grid=[0.5], trials=5)
        ((_, report),) = run_mc_rmse(request).rows
        assert report.rmse is not None


def build_pair(scenario, d):
    sc = scenario.with_overrides(ris_spacing_over_lambda=d)
    imp = build_impedance_set(sc.tx, sc.rx, sc.ris_radiators(), sc.constants)
    return model_pair(imp, sample_loads(sc))


def power_request(scenario, runner, **kwargs):
    kind = "mc_rmse" if runner is run_mc_rmse else "lb_vs_power"
    return SweepRequest(kind=kind, scenario=scenario, **kwargs)


def counting_wrapper(monkeypatch, module, name):
    """Replace module.name by a wrapper that records one entry per call,
    or per item for a generator function; return the record list."""
    real = getattr(module, name)
    record = []
    if name == "trial_generators":
        def wrapper(*args, **kwargs):
            for item in real(*args, **kwargs):
                record.append(item)
                yield item
    else:
        def wrapper(*args, **kwargs):
            record.append(args)
            return real(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return record


class TestPowerSweepSharing:
    """Each spacing is factored once and each power's noise drawn once,
    without changing a bit of any row."""

    SPACINGS = [0.05, 0.2, 0.5]
    POWERS = [0.0, 20.0, 40.0, 60.0]

    @pytest.mark.parametrize("runner", [run_mc_rmse, run_lb_vs_power])
    @pytest.mark.parametrize("matched", [False, True])
    def test_rmse_equals_separate_mc_rmse(self, small_scenario, runner, matched):
        request = power_request(small_scenario, runner, power_grid=[0.0, 40.0],
                                spacing_grid=self.SPACINGS, trials=6,
                                matched=matched)
        rows = runner(request).rows
        models = {d: build_pair(small_scenario, d) for d in self.SPACINGS}
        for variables, report in rows:
            d_true, d_est, x_true = models[variables["d_over_lambda"]]
            p_dbm = variables["p_t_dbm"]
            want = mc_rmse(small_scenario, d_true if matched else d_est, d_true,
                           x_true, dbm_to_watts(p_dbm), 6,
                           noise_seed(small_scenario.rng_seed, p_dbm))
            assert report.rmse == want

    @pytest.mark.parametrize("matched", [False, True])
    def test_dropping_a_spacing_keeps_other_rows(self, small_scenario, matched):
        def lines(spacings):
            request = power_request(small_scenario, run_mc_rmse,
                                    power_grid=[0.0, 40.0],
                                    spacing_grid=spacings, trials=5,
                                    matched=matched)
            return csv_text(run_mc_rmse(request)).splitlines()

        full = lines(self.SPACINGS)
        kept = lines([self.SPACINGS[0], self.SPACINGS[2]])
        assert kept == [line for line in full if ",0.2," not in line]
        assert len(kept) == 1 + 2 * 2

    @pytest.mark.parametrize("matched", [False, True])
    def test_one_factorization_per_spacing(self, small_scenario, monkeypatch,
                                           matched):
        qrs = counting_wrapper(monkeypatch, bounds, "qr")
        streams = counting_wrapper(monkeypatch, bounds, "trial_generators")
        request = power_request(small_scenario, run_mc_rmse,
                                power_grid=self.POWERS,
                                spacing_grid=self.SPACINGS, trials=3,
                                matched=matched)
        assert len(run_mc_rmse(request).rows) == 12
        assert len(qrs) <= (1 if matched else 2) * len(self.SPACINGS)
        assert len(streams) == 3 * len(self.POWERS)

    def test_noiseless_builds_no_streams(self, small_scenario, monkeypatch):
        streams = counting_wrapper(monkeypatch, bounds, "trial_generators")
        request = power_request(small_scenario, run_mc_rmse, power_grid=[30.0],
                                spacing_grid=[0.1, 0.5], trials=3,
                                noiseless=True)
        rows = run_mc_rmse(request).rows
        assert streams == []
        # the rmse the sweep printed before noiseless trials skipped their
        # streams; the 0.5-lambda value is roundoff-sized, so only 0.1
        assert rows[0][1].rmse == 1.4247475973629437e-06


class TestImpedanceSweep:
    def test_rows_and_columns(self, small_scenario):
        result = run_impedance_sweep(small_scenario, [0.1, 0.5])
        assert result.kind == "impedance_sweep"
        for variables, report in result.rows:
            assert report is None
            z = complex(variables["re_z_ohm"], variables["im_z_ohm"])
            assert variables["abs_z_ohm"] == pytest.approx(abs(z), rel=1e-15)

    def test_rejects_bad_grid(self, small_scenario):
        with pytest.raises(ValueError):
            run_impedance_sweep(small_scenario, [])
        with pytest.raises(ValueError):
            run_impedance_sweep(small_scenario, [0.5, 0.1])


class TestCsvOutput:
    def test_empty_rows_give_header_only(self, tmp_path):
        result = SweepResult(kind="bias_vs_spacing", rows=[], metadata={})
        path = tmp_path / "empty.csv"
        emit_csv(result, path)
        assert path.read_text() == "d_over_lambda,n1,n2,sqrt_tr_bias\n"

    def test_roundtrip_full_precision(self, small_scenario, tmp_path):
        request = SweepRequest(kind="lb_vs_power", scenario=small_scenario,
                               power_grid=[0.0, 40.0], spacing_grid=[0.5])
        result = run_lb_vs_power(request)
        path = tmp_path / "out.csv"
        emit_csv(result, path)
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        for row_text, (variables, report) in zip(parsed, result.rows):
            assert float(row_text["p_t_dbm"]) == variables["p_t_dbm"]
            assert float(row_text["lb"]) == report.lb
            assert float(row_text["tr_mcrb"]) == report.tr_mcrb
            assert float(row_text["crlb"]) == report.crlb

    def test_byte_determinism(self, small_scenario):
        request = SweepRequest(kind="lb_vs_power", scenario=small_scenario,
                               power_grid=[0.0], spacing_grid=[0.5], trials=4)
        a = csv_text(run_lb_vs_power(request))
        b = csv_text(run_lb_vs_power(request))
        assert a == b

    def test_rmse_column_only_when_sampled(self, small_scenario):
        request = SweepRequest(kind="lb_vs_power", scenario=small_scenario,
                               power_grid=[0.0], spacing_grid=[0.5])
        text = csv_text(run_lb_vs_power(request))
        header = text.splitlines()[0].split(",")
        assert header == ["p_t_dbm", "d_over_lambda", "tr_mcrb", "tr_bias", "lb", "crlb"]


class TestCli:
    CONFIG = "ris_n1: 2\nris_n2: 2\nnum_transmissions: 16\n"

    def write_config(self, tmp_path, text=None):
        path = tmp_path / "scenario.yaml"
        path.write_text(text if text is not None else self.CONFIG)
        return str(path)

    def test_impedance_sweep_to_file(self, tmp_path):
        out = tmp_path / "z.csv"
        code = main(["impedance-sweep", "--distances-over-lambda", "0.1,0.5",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "d_over_lambda,re_z_ohm,im_z_ohm,abs_z_ohm"
        assert len(lines) == 3

    def test_lb_vs_power_stdout(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        code = main(["lb-vs-power", "--config", cfg, "--powers-dbm", "0,20",
                     "--spacings-over-lambda", "0.5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "p_t_dbm,d_over_lambda,tr_mcrb,tr_bias,lb,crlb"
        assert len(lines) == 3

    def test_negative_power_list_accepted(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        code = main(["lb-vs-power", "--config", cfg, "--powers-dbm", "-10,0",
                     "--spacings-over-lambda", "0.5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("-10.0,")
        assert len(lines) == 3

    def test_seed_override_changes_loads(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out_a, out_b, out_c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        base = ["lb-vs-power", "--config", cfg, "--powers-dbm", "0",
                "--spacings-over-lambda", "0.5"]
        assert main(base + ["--seed", "1", "--out", str(out_a)]) == 0
        assert main(base + ["--seed", "2", "--out", str(out_b)]) == 0
        assert main(base + ["--seed", "1", "--out", str(out_c)]) == 0
        assert out_a.read_bytes() == out_c.read_bytes()
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_bias_and_crlb_subcommands(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["bias-vs-spacing", "--config", cfg,
                     "--spacings-over-lambda", "0.2,0.5", "--sizes", "2x2"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "d_over_lambda,n1,n2,sqrt_tr_bias"
        assert main(["crlb-vs-spacing", "--config", cfg, "--power-dbm", "40",
                     "--spacings-over-lambda", "0.5", "--sizes", "2x2"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "d_over_lambda,n1,n2,crlb"

    def test_mc_rmse_noiseless(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        code = main(["mc-rmse", "--config", cfg, "--powers-dbm", "30",
                     "--spacings-over-lambda", "0.1", "--trials", "1",
                     "--noiseless"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert float(rows[0]["rmse"]) == pytest.approx(
            float(rows[0]["tr_bias"]) ** 0.5, rel=1e-12)

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "num_transmissions: 2\n")
        assert main(["lb-vs-power", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "ris_n1: [1, 2\n")
        assert main(["impedance-sweep", "--config", cfg]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv,config", [
        (["lb-vs-power", "--powers-dbm", "4000", "--spacings-over-lambda", "0.5"], None),
        (["lb-vs-power", "--powers-dbm", "nan", "--spacings-over-lambda", "0.5"], None),
        (["crlb-vs-spacing", "--power-dbm", "4000", "--sizes", "2x2"], None),
        (["crlb-vs-spacing", "--power-dbm", "inf", "--sizes", "2x2"], None),
        (["mc-rmse", "--powers-dbm", "inf", "--trials", "1",
          "--spacings-over-lambda", "0.5"], None),
        (["bias-vs-spacing", "--spacings-over-lambda", "inf", "--sizes", "2x2"], None),
        (["impedance-sweep", "--distances-over-lambda", "inf"], None),
        (["impedance-sweep", "--distances-over-lambda", "0.5"],
         "tx_position_m: [.inf, 0, 0]\n"),
        (["lb-vs-power", "--powers-dbm", "0", "--spacings-over-lambda", "0.5"],
         CONFIG + "noise_psd_dbm_hz: 4000\n"),
        (["lb-vs-power", "--powers-dbm", "0", "--spacings-over-lambda", "0.5"],
         CONFIG + "noise_figure_db: 4000\n"),
        (["lb-vs-power", "--powers-dbm", "0", "--spacings-over-lambda", "0.5"],
         CONFIG + "noise_psd_dbm_hz: -4000\n"),
        (["lb-vs-power", "--powers-dbm", "0", "--spacings-over-lambda", "0.5"],
         CONFIG + "noise_bandwidth_hz: 1.0e-320\n"),
        # a subnormal noise variance: P_T / sigma2 overflows to inf
        (["lb-vs-power", "--powers-dbm", "0", "--spacings-over-lambda", "0.5"],
         CONFIG + "noise_bandwidth_hz: 1.0e-300\n"),
        (["mc-rmse", "--powers-dbm", "0", "--trials", "1",
          "--spacings-over-lambda", "0.5"],
         CONFIG + "noise_bandwidth_hz: 1.0e-300\n"),
        (["crlb-vs-spacing", "--power-dbm", "0", "--sizes", "2x2",
          "--spacings-over-lambda", "0.5"],
         CONFIG + "noise_bandwidth_hz: 1.0e-300\n"),
    ], ids=["power-overflow", "power-nan", "crlb-power-overflow", "crlb-power-inf",
            "mc-power-inf", "spacing-inf", "distance-inf", "config-inf",
            "noise-psd-overflow", "noise-figure-overflow", "noise-psd-underflow",
            "noise-bandwidth-underflow", "lb-snr-overflow", "mc-snr-overflow",
            "crlb-snr-overflow"])
    def test_out_of_range_values_exit_code(self, tmp_path, capsys, argv, config):
        cfg = self.write_config(tmp_path, config)
        assert main(argv + ["--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # half-wavelength dipoles put the current normalization at resonance
        cfg = self.write_config(tmp_path, "half_length_over_lambda: 0.5\n")
        assert main(["impedance-sweep", "--config", cfg,
                     "--distances-over-lambda", "2.0"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_io_failure_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["impedance-sweep", "--config", cfg,
                     "--distances-over-lambda", "0.5",
                     "--out", str(missing)]) == 4
        assert "I/O error" in capsys.readouterr().err

    def test_dump_model_writes_parseable_matrices(self, tmp_path):
        cfg = self.write_config(tmp_path)
        dump_dir = tmp_path / "models"
        out = tmp_path / "lb.csv"
        assert main(["lb-vs-power", "--config", cfg, "--powers-dbm", "0",
                     "--spacings-over-lambda", "0.5",
                     "--dump-model", str(dump_dir), "--out", str(out)]) == 0
        files = sorted(p.name for p in dump_dir.iterdir())
        assert files == ["b_est_d0.5_2x2.csv", "b_true_d0.5_2x2.csv"]
        with open(dump_dir / "b_true_d0.5_2x2.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["re_0", "im_0", "re_1", "im_1", "re_2", "im_2", "re_3", "im_3"]
        assert len(rows) == 1 + 16  # header + one row per transmission
        float(rows[1][0])  # parseable

    def test_dump_model_keeps_close_spacings_apart(self, tmp_path):
        # spacings equal to 6 significant digits still get their own files
        cfg = self.write_config(tmp_path)
        dump_dir = tmp_path / "models"
        assert main(["lb-vs-power", "--config", cfg, "--powers-dbm", "0",
                     "--spacings-over-lambda", "0.1234567,0.1234568",
                     "--dump-model", str(dump_dir),
                     "--out", str(tmp_path / "lb.csv")]) == 0
        files = sorted(p.name for p in dump_dir.iterdir())
        assert files == ["b_est_d0.1234567_2x2.csv", "b_est_d0.1234568_2x2.csv",
                         "b_true_d0.1234567_2x2.csv", "b_true_d0.1234568_2x2.csv"]
