import argparse
import csv
import ctypes
import dataclasses
import errno
import io
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from ris_mcrb import _parallel, bounds, channel, cli, experiments, impedance
from ris_mcrb._parallel import single_threaded_blas
from ris_mcrb.bounds import bias_trace, crlb, lower_bound, mc_rmse
from ris_mcrb.channel import model_pair, noise_seed, sample_loads
from ris_mcrb.cli import main
from ris_mcrb.errors import (
    ComputationError,
    DegenerateDesignError,
    DegenerateGeometryError,
    QuadratureConvergenceError,
    ResonanceError,
    SingularModelError,
    annotate,
)
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
from ris_mcrb.scenario import dbm_to_watts, derive_constants, scenario_from_config


@pytest.fixture(scope="module")
def small_scenario():
    # 2x2 grid keeps the sweeps fast
    return scenario_from_config({"ris_n1": 2, "ris_n2": 2, "num_transmissions": 16})


def rows_by_key(result, *keys):
    return {tuple(v[k] for k in keys): rep for v, rep in result.rows}


def openblas_runtimes():
    """``(get, set)`` thread-count functions of every OpenBLAS runtime mapped
    into this process, looked up without the CLI's own code."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:
        return []
    runtimes = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("openblas_{}_num_threads", "scipy_openblas_{}_num_threads",
                     "scipy_openblas_{}_num_threads64_"):
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                runtimes.append((get, set_))
                break
    return runtimes


@pytest.fixture
def blas_runtimes():
    runtimes = openblas_runtimes()
    if not runtimes:
        pytest.skip("no OpenBLAS runtime is loaded")
    saved = [get() for get, _ in runtimes]
    yield runtimes
    for (_, set_), count in zip(runtimes, saved):
        set_(count)


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

    def test_rejects_repeated_sizes(self, small_scenario):
        with pytest.raises(ValueError, match="sizes must not repeat"):
            SweepRequest(kind="bias_vs_spacing", scenario=small_scenario,
                         spacing_grid=[0.5], sizes=[(2, 2), (3, 3), (2, 2)])

    def test_mc_rmse_needs_trials(self, small_scenario):
        with pytest.raises(ValueError, match="trials"):
            SweepRequest(kind="mc_rmse", scenario=small_scenario,
                         power_grid=[0.0], spacing_grid=[0.5])

    @pytest.mark.parametrize("fields,match", [
        (dict(kind="bias_vs_spacing", sizes=[(4, 4), (0, 4)]), "0x4"),
        (dict(kind="crlb_vs_spacing", power_grid=[40.0], sizes=[(2, -1)]), "2x-1"),
        (dict(kind="mc_rmse", power_grid=[0.0], trials=2**32), "2\\*\\*32"),
        (dict(kind="crlb_vs_spacing", power_grid=[0.0, 40.0], sizes=[(2, 2)]),
         "one transmit power"),
    ], ids=["empty-size", "negative-size", "mc-trials", "crlb-two-powers"])
    def test_rejects_request_before_any_point(self, small_scenario, fields, match):
        with pytest.raises(ValueError, match=match):
            SweepRequest(scenario=small_scenario, spacing_grid=[0.5], **fields)

    @pytest.mark.parametrize("fields,unread", [
        (dict(kind="bias_vs_spacing", sizes=[(4, 4)], matched=True), "matched"),
        (dict(kind="bias_vs_spacing", sizes=[(4, 4)], power_grid=[40.0]), "power_grid"),
        (dict(kind="crlb_vs_spacing", sizes=[(4, 4)], power_grid=[40.0], matched=True),
         "matched"),
        (dict(kind="crlb_vs_spacing", sizes=[(4, 4)], power_grid=[40.0], trials=3),
         "trials"),
        (dict(kind="lb_vs_power", power_grid=[0.0], sizes=[(8, 8)]), "sizes"),
        (dict(kind="lb_vs_power", power_grid=[0.0], trials=3), "trials"),
        (dict(kind="mc_rmse", power_grid=[0.0], trials=2, sizes=[(4, 4)]), "sizes"),
    ], ids=["bias-matched", "bias-power", "crlb-matched", "crlb-trials", "lb-sizes",
            "lb-trials", "mc-sizes"])
    def test_rejects_fields_its_kind_never_reads(self, small_scenario, fields, unread):
        # such a field would silently change the rows (a matched bias floor
        # is zero) or be ignored (a power sweep runs at the scenario's size,
        # and only mc_rmse runs trials)
        with pytest.raises(ValueError, match=f"^{fields['kind']} .*{unread}"):
            SweepRequest(scenario=small_scenario, spacing_grid=[0.5], **fields)

    def test_unread_fields_may_keep_their_defaults(self, small_scenario):
        request = SweepRequest(kind="bias_vs_spacing", scenario=small_scenario,
                               power_grid=[], spacing_grid=[0.5], sizes=[(2, 2)],
                               trials=0, matched=False)
        assert request.sizes == [(2, 2)]

    def test_rejects_powers_that_share_a_noise_stream(self, small_scenario):
        # noise streams are keyed at 0.1 mdBm, so these two powers would
        # draw the same noise although the grid is strictly increasing
        assert noise_seed(0, -80.0).spawn_key == noise_seed(0, -79.99996).spawn_key
        fields = dict(kind="mc_rmse", scenario=small_scenario, spacing_grid=[0.5],
                      trials=2)
        with pytest.raises(ValueError, match=r"-80\.0 and -79\.99996 dBm"):
            SweepRequest(power_grid=[-80.0, -79.99996], **fields)
        with pytest.raises(ValueError, match=r"10\.0 and 10\.00004 dBm"):
            SweepRequest(power_grid=[0.0, 10.0, 10.00004], **fields)
        # one key step apart: two streams
        assert SweepRequest(power_grid=[-80.0, -79.9999], **fields).trials == 2

    def test_trial_bound_is_the_streams_bound(self, small_scenario, monkeypatch):
        monkeypatch.setattr(channel, "TRIAL_LIMIT", 8)
        fields = dict(kind="mc_rmse", scenario=small_scenario, power_grid=[0.0],
                      spacing_grid=[0.5])
        assert SweepRequest(trials=7, **fields).trials == 7
        with pytest.raises(ValueError, match="trials"):
            SweepRequest(trials=8, **fields)
        with pytest.raises(ValueError, match="trials"):
            channel.trial_generators(noise_seed(0, 0.0), 8)


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

    def test_one_element_has_no_bias(self, monkeypatch, capsys):
        # one element has no mutual coupling: both models are one column
        inline_sweeps(monkeypatch)
        assert main(["bias-vs-spacing", "--sizes", "1x1",
                     "--spacings-over-lambda", "0.002,0.5"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["sqrt_tr_bias"] for row in rows] == ["0.0", "0.0"]

    def test_one_element_crlb_is_the_closed_form(self, monkeypatch, capsys):
        # Tr((D^T D)^{-1}) = 2 / ||b||^2 for one column b
        inline_sweeps(monkeypatch)
        assert main(["crlb-vs-spacing", "--sizes", "1x1",
                     "--spacings-over-lambda", "0.5", "--power-dbm", "40"]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        sc = scenario_from_config({"ris_n1": 1, "ris_n2": 1,
                                   "ris_spacing_over_lambda": 0.5})
        imp = build_impedance_set(sc.tx, sc.rx, sc.ris_radiators(), sc.constants)
        b_true, _, _ = model_pair(imp, sample_loads(sc))
        gamma = dbm_to_watts(40.0) / sc.noise.sigma2
        want = 1.0 / (np.linalg.norm(b_true) * np.sqrt(gamma))
        assert float(row["crlb"]) == pytest.approx(want, rel=1e-12)

    def test_crlb_needs_single_power(self, small_scenario):
        with pytest.raises(ValueError, match="one transmit power"):
            SweepRequest(kind="crlb_vs_spacing", scenario=small_scenario,
                         power_grid=[20.0, 40.0], spacing_grid=[0.5],
                         sizes=[(2, 2)])

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
    def test_bias_norm_pinned(self, small_scenario):
        # sqrt(tr_bias) is the zero-noise error of the row's estimator
        # (test_bounds' noiseless tests); pinned at the 1e-12 output contract
        request = SweepRequest(kind="mc_rmse", scenario=small_scenario,
                               power_grid=[30.0], spacing_grid=[0.1], trials=1)
        ((_, report),) = run_mc_rmse(request).rows
        assert np.sqrt(report.tr_bias) == pytest.approx(1.4247475973629437e-06,
                                                        rel=1e-12)

    def test_grid_point_independence(self, small_scenario):
        full = SweepRequest(kind="mc_rmse", scenario=small_scenario,
                            power_grid=[0.0, 10.0, 20.0], spacing_grid=[0.1, 0.5],
                            trials=10)
        sparse = SweepRequest(kind="mc_rmse", scenario=small_scenario,
                              power_grid=[0.0, 20.0], spacing_grid=[0.5],
                              trials=10)
        full_rows = rows_by_key(run_mc_rmse(full), "p_t_dbm", "d_over_lambda")
        sparse_rows = rows_by_key(run_mc_rmse(sparse), "p_t_dbm", "d_over_lambda")
        for key, report in sparse_rows.items():
            other = full_rows[key]
            assert report.lb == other.lb
            assert report.crlb == other.crlb
            assert report.rmse == other.rmse

    def test_rmse_always_reported(self, small_scenario):
        request = SweepRequest(kind="mc_rmse", scenario=small_scenario,
                               power_grid=[0.0], spacing_grid=[0.5], trials=5)
        ((_, report),) = run_mc_rmse(request).rows
        assert report.rmse is not None

    # rows of the noisy estimator, recorded when every trial stream was
    # numpy's own default_rng of its child SeedSequence and every trial was
    # solved on its own
    PER_TRIAL_ROWS = {
        False: [(0.0, 0.05, 0.0075862782271745414),
                (0.0, 0.5, 0.007583199666607451),
                (40.0, 0.05, 5.7631359965470765e-05),
                (40.0, 0.5, 5.897689097055313e-05)],
        True: [(0.0, 0.05, 0.007627555328966842),
               (0.0, 0.5, 0.007583320882018192),
               (40.0, 0.05, 5.884269432032651e-05),
               (40.0, 0.5, 5.897212448465791e-05)],
    }
    # the same rows with the trials solved as one block: the block's Q^H
    # product and triangular solve round differently in the last bit
    PINNED_ROWS = {
        False: [(0.0, 0.05, 0.007586278227174542),
                (0.0, 0.5, 0.007583199666607451),
                (40.0, 0.05, 5.7631359965470765e-05),
                (40.0, 0.5, 5.897689097055314e-05)],
        True: [(0.0, 0.05, 0.007627555328966841),
               (0.0, 0.5, 0.007583320882018192),
               (40.0, 0.05, 5.884269432032651e-05),
               (40.0, 0.5, 5.897212448465792e-05)],
    }

    @pytest.mark.parametrize("matched", [False, True])
    def test_noisy_rows_pinned(self, small_scenario, matched):
        request = SweepRequest(kind="mc_rmse", scenario=small_scenario,
                               power_grid=[0.0, 40.0], spacing_grid=[0.05, 0.5],
                               trials=7, matched=matched)
        rows = [(v["p_t_dbm"], v["d_over_lambda"], report.rmse)
                for v, report in run_mc_rmse(request).rows]
        assert rows == self.PINNED_ROWS[matched]
        for (*key, new), (*old_key, old) in zip(rows, self.PER_TRIAL_ROWS[matched]):
            assert key == old_key
            assert new == pytest.approx(old, rel=1e-14, abs=0.0)


def build_pair(scenario, d):
    sc = scenario.with_overrides(ris_spacing_over_lambda=d)
    imp = build_impedance_set(sc.tx, sc.rx, sc.ris_radiators(), sc.constants)
    return model_pair(imp, sample_loads(sc))


def power_request(scenario, runner, **kwargs):
    kind = "mc_rmse" if runner is run_mc_rmse else "lb_vs_power"
    return SweepRequest(kind=kind, scenario=scenario, **kwargs)


def inline_sweeps(monkeypatch):
    """Run every sweep task in this process, where a test can count its
    calls: ``parallel_map`` then sees a single usable CPU."""
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 1)


def pooled_sweeps(monkeypatch):
    """Spread every sweep over two forked workers, even on one CPU."""
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 2)


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

    @pytest.mark.parametrize("matched", [False, True])
    def test_rmse_equals_separate_mc_rmse(self, small_scenario, matched):
        request = power_request(small_scenario, run_mc_rmse, power_grid=[0.0, 40.0],
                                spacing_grid=self.SPACINGS, trials=6,
                                matched=matched)
        rows = run_mc_rmse(request).rows
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
        inline_sweeps(monkeypatch)
        qrs = counting_wrapper(monkeypatch, bounds, "qr")
        streams = counting_wrapper(monkeypatch, bounds, "trial_generators")
        request = power_request(small_scenario, run_mc_rmse,
                                power_grid=self.POWERS,
                                spacing_grid=self.SPACINGS, trials=3,
                                matched=matched)
        assert len(run_mc_rmse(request).rows) == 12
        assert 0 < len(qrs) <= (1 if matched else 2) * len(self.SPACINGS)
        assert len(streams) == 3 * len(self.POWERS)


def spoiled_builder(monkeypatch, index):
    """Make ``_build_point`` build every model, whatever the sweep reads,
    and return model ``index`` (0 true, 1 estimation) rank deficient, by
    repeating its first column."""
    build = experiments._build_point

    def spoiled(sc, *_):
        models = list(build(sc, True, True))
        models[index] = models[index].copy()
        models[index][:, 1] = models[index][:, 0]
        return tuple(models)

    monkeypatch.setattr(experiments, "_build_point", spoiled)


class TestOnePairPerPoint:
    """Every grid point reads one lazy FactoredPair: a sweep factors only
    the models its columns need, inside the point's error annotation, and
    a point's models are freed before the next point is built."""

    SPACINGS = [0.05, 0.5]
    SIZES = [(2, 2), (3, 2)]

    def spacing_request(self, scenario, runner):
        if runner is run_bias_vs_spacing:
            return SweepRequest(kind="bias_vs_spacing", scenario=scenario,
                                spacing_grid=self.SPACINGS, sizes=self.SIZES)
        return SweepRequest(kind="crlb_vs_spacing", scenario=scenario,
                            power_grid=[40.0], spacing_grid=self.SPACINGS,
                            sizes=self.SIZES)

    @pytest.mark.parametrize("runner", [run_bias_vs_spacing, run_crlb_vs_spacing])
    def test_one_factorization_per_point(self, small_scenario, monkeypatch,
                                         runner):
        inline_sweeps(monkeypatch)
        qrs = counting_wrapper(monkeypatch, bounds, "qr")
        rows = runner(self.spacing_request(small_scenario, runner)).rows
        assert len(rows) == len(self.SPACINGS) * len(self.SIZES)
        assert len(qrs) == len(rows) > 0

    @pytest.mark.parametrize("runner,unread", [(run_bias_vs_spacing, 0),
                                               (run_crlb_vs_spacing, 1)])
    def test_unread_model_is_never_factored(self, small_scenario, monkeypatch,
                                            runner, unread):
        # the bias never factors the true model and the matched bound never
        # factors the estimation model, so a rank-deficient one cannot fail
        # the sweep that does not print it
        request = self.spacing_request(small_scenario, runner)
        clean = runner(request).rows
        spoiled_builder(monkeypatch, unread)
        rows = runner(request).rows
        assert [v for v, _ in rows] == [v for v, _ in clean]
        if runner is run_crlb_vs_spacing:
            assert rows == clean
        with pytest.raises(DegenerateDesignError, match="rank deficient"):
            bounds.inverse_gram_trace(experiments._build_point(
                small_scenario.with_overrides(ris_spacing_over_lambda=0.5),
                True, True)[unread])

    @pytest.mark.parametrize("runner,unread,where", [
        (run_bias_vs_spacing, 1, r"spacing 0\.05 lambda, size 2x2: estimation model"),
        (run_crlb_vs_spacing, 0, r"spacing 0\.05 lambda, size 2x2: model matrix"),
        (run_lb_vs_power, 0, r"^spacing 0\.05 lambda: model matrix"),
        (run_mc_rmse, 1, r"^spacing 0\.05 lambda: estimation model"),
    ], ids=["bias", "crlb", "lb", "mc"])
    def test_factorization_errors_annotated(self, small_scenario, monkeypatch,
                                            runner, unread, where):
        # the pair computes on first read, and the first read happens
        # inside the grid point's annotation
        if runner in (run_bias_vs_spacing, run_crlb_vs_spacing):
            request = self.spacing_request(small_scenario, runner)
        else:
            trials = {"trials": 2} if runner is run_mc_rmse else {}
            request = power_request(small_scenario, runner, power_grid=[0.0],
                                    spacing_grid=self.SPACINGS, **trials)
        spoiled_builder(monkeypatch, unread)
        with pytest.raises(DegenerateDesignError, match=where):
            runner(request)

    def test_annotation_keeps_rcond(self, small_scenario, monkeypatch):
        request = self.spacing_request(small_scenario, run_bias_vs_spacing)
        spoiled_builder(monkeypatch, 1)
        with pytest.raises(DegenerateDesignError,
                           match=r"^spacing 0\.05 lambda, size 2x2: ") as exc_info:
            run_bias_vs_spacing(request)
        assert exc_info.value.rcond < channel.RCOND_FLOOR

    @pytest.mark.parametrize("runner", [run_bias_vs_spacing, run_crlb_vs_spacing])
    def test_models_freed_before_next_point(self, small_scenario, monkeypatch,
                                            runner):
        inline_sweeps(monkeypatch)
        build = experiments._build_point
        refs = []

        def tracking(*args):
            assert all(ref() is None for ref in refs), "a previous point's model is alive"
            d_true, d_est, x_true = build(*args)
            # crlb-vs-spacing builds no estimation model
            refs.extend(weakref.ref(m) for m in (d_true, d_est) if m is not None)
            return d_true, d_est, x_true

        monkeypatch.setattr(experiments, "_build_point", tracking)
        rows = runner(self.spacing_request(small_scenario, runner)).rows
        models = 2 if runner is run_bias_vs_spacing else 1
        assert len(refs) == models * len(rows) > 0


class TestBuildsOnlyWhatItReads:
    """A point builds the Tx coupling vector z_st and the coupling-unaware
    model only for a sweep whose columns read them."""

    SPACINGS = [0.05, 0.5]
    SIZES = [(2, 2), (3, 2)]

    def request(self, scenario, runner, matched):
        if runner is run_bias_vs_spacing:
            return SweepRequest(kind="bias_vs_spacing", scenario=scenario,
                                spacing_grid=self.SPACINGS, sizes=self.SIZES)
        if runner is run_crlb_vs_spacing:
            return SweepRequest(kind="crlb_vs_spacing", scenario=scenario,
                                power_grid=[40.0], spacing_grid=self.SPACINGS,
                                sizes=self.SIZES)
        trials = {"trials": 2} if runner is run_mc_rmse else {}
        return power_request(scenario, runner, power_grid=[0.0, 40.0],
                             spacing_grid=self.SPACINGS, matched=matched, **trials)

    @pytest.mark.parametrize("runner,matched,tx,unaware", [
        (run_crlb_vs_spacing, False, False, False),
        (run_bias_vs_spacing, False, True, True),
        (run_lb_vs_power, False, True, True),
        (run_lb_vs_power, True, True, False),
        (run_mc_rmse, False, True, True),
        (run_mc_rmse, True, True, False),
    ], ids=["crlb", "bias", "lb", "lb-matched", "mc", "mc-matched"])
    def test_builds(self, small_scenario, monkeypatch, runner, matched, tx, unaware):
        inline_sweeps(monkeypatch)
        couplings = counting_wrapper(monkeypatch, experiments, "coupling_vector")
        builds = counting_wrapper(monkeypatch, experiments, "build_B")
        rows = runner(self.request(small_scenario, runner, matched)).rows
        points = (len(rows) if runner in (run_bias_vs_spacing, run_crlb_vs_spacing)
                  else len(self.SPACINGS))
        tx_calls = [args for args in couplings
                    if np.array_equal(args[0].position, small_scenario.tx.position)]
        unaware_calls = [args for args in builds if args[2] is None]
        assert len(couplings) == (2 if tx else 1) * points
        assert len(tx_calls) == (points if tx else 0)
        assert len(unaware_calls) == (points if unaware else 0)
        assert len(builds) - len(unaware_calls) == points


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
    HEADERS = {
        "lb_vs_power": "p_t_dbm,d_over_lambda,tr_mcrb,tr_bias,lb,crlb",
        "mc_rmse": "p_t_dbm,d_over_lambda,tr_mcrb,tr_bias,lb,crlb,rmse",
        "bias_vs_spacing": "d_over_lambda,n1,n2,sqrt_tr_bias",
        "crlb_vs_spacing": "d_over_lambda,n1,n2,crlb",
        "impedance_sweep": "d_over_lambda,re_z_ohm,im_z_ohm,abs_z_ohm",
    }

    @pytest.mark.parametrize("kind", sorted(HEADERS))
    def test_empty_rows_give_header_only(self, tmp_path, kind):
        assert set(self.HEADERS) == set(experiments.SWEEP_KINDS) | {"impedance_sweep"}
        path = tmp_path / "empty.csv"
        emit_csv(SweepResult(kind=kind, rows=[]), path)
        assert path.read_text() == self.HEADERS[kind] + "\n"

    @pytest.mark.parametrize("kind", sorted(HEADERS))
    def test_rows_never_change_the_header(self, kind):
        # a row that carries every variable and bound part, rmse too,
        # prints only its kind's columns
        variables = {"p_t_dbm": 0.0, "d_over_lambda": 0.5, "n1": 2, "n2": 2,
                     "re_z_ohm": 1.0, "im_z_ohm": 2.0, "abs_z_ohm": 3.0}
        report = bounds.BoundReport(1.0, 2.0, tr_mcrb=3.0, tr_bias=4.0, crlb=5.0,
                                    rmse=6.0)
        header, _ = csv_text(SweepResult(kind=kind, rows=[(variables, report)])).splitlines()
        assert header == self.HEADERS[kind]
        if kind in experiments.SWEEP_KINDS:
            assert header == ",".join(experiments.SWEEP_KINDS[kind].columns)

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
        request = SweepRequest(kind="mc_rmse", scenario=small_scenario,
                               power_grid=[0.0], spacing_grid=[0.5], trials=4)
        a = csv_text(run_mc_rmse(request))
        b = csv_text(run_mc_rmse(request))
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

    def test_mc_rmse_has_no_noiseless_flag(self, capsys):
        # the zero-noise error is the sqrt(tr_bias) every row prints
        with pytest.raises(SystemExit) as exit_info:
            main(["mc-rmse", "--noiseless"])
        assert exit_info.value.code == 2
        assert "--noiseless" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["lb-vs-power", "--powers-dbm", "1,x"], "expected comma-separated numbers"),
        (["bias-vs-spacing", "--sizes", "4x"], "expected sizes like 4x4"),
        (["bias-vs-spacing", "--sizes", "4xa"], "expected sizes like 4x4"),
        (["bias-vs-spacing", "--sizes", "4"], "expected sizes like 4x4"),
        (["crlb-vs-spacing", "--sizes", ","], "size list is empty"),
    ], ids=["power-word", "size-no-width", "size-word", "size-no-x", "sizes-empty"])
    def test_unparsable_list_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

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
        (["bias-vs-spacing", "--spacings-over-lambda", "0.5", "--sizes", "2x2,2x2"],
         None),
        (["impedance-sweep", "--distances-over-lambda", "-0.5,0.5"], None),
        (["impedance-sweep", "--distances-over-lambda", "0"], None),
    ], ids=["power-overflow", "power-nan", "crlb-power-overflow", "crlb-power-inf",
            "mc-power-inf", "spacing-inf", "distance-inf", "config-inf",
            "noise-psd-overflow", "noise-figure-overflow", "noise-psd-underflow",
            "noise-bandwidth-underflow", "lb-snr-overflow", "mc-snr-overflow",
            "crlb-snr-overflow", "repeated-size", "impedance-negative",
            "impedance-zero"])
    def test_out_of_range_values_exit_code(self, tmp_path, capsys, argv, config):
        cfg = self.write_config(tmp_path, config)
        assert main(argv + ["--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bias-vs-spacing", "--sizes", "4x4", "--spacings-over-lambda", "0.02,0.5"],
        ["lb-vs-power", "--spacings-over-lambda", "0.02,0.5", "--powers-dbm", "0,40"],
    ], ids=["bias-vs-spacing", "lb-vs-power"])
    def test_csv_bytes_independent_of_blas_threads(self, tmp_path, blas_runtimes, argv):
        outputs = []
        for threads in (1, 2):
            for _, set_ in blas_runtimes:
                set_(threads)
            # recompute every impedance under this thread count
            impedance._pair_impedance.cache_clear()
            out = tmp_path / f"threads{threads}.csv"
            assert main(argv + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv,spied", [
        (["impedance-sweep", "--distances-over-lambda", "0.5"], "mutual_impedance"),
        (["lb-vs-power", "--powers-dbm", "0", "--spacings-over-lambda", "0.5"],
         "_build_point"),
        (["bias-vs-spacing", "--spacings-over-lambda", "0.5", "--sizes", "2x2"],
         "_build_point"),
        (["crlb-vs-spacing", "--spacings-over-lambda", "0.5", "--sizes", "2x2"],
         "_build_point"),
        (["mc-rmse", "--powers-dbm", "0", "--spacings-over-lambda", "0.5",
          "--trials", "2"], "_build_point"),
    ], ids=["impedance-sweep", "lb-vs-power", "bias-vs-spacing", "crlb-vs-spacing",
            "mc-rmse"])
    def test_blas_single_threaded_inside_main(self, tmp_path, monkeypatch,
                                              blas_runtimes, argv, spied):
        # the runner pins BLAS around its own work; main sets no count
        inline_sweeps(monkeypatch)
        seen = []
        real = getattr(experiments, spied)

        def spy(*args):
            seen.append([get() for get, _ in blas_runtimes])
            return real(*args)

        monkeypatch.setattr(experiments, spied, spy)
        for _, set_ in blas_runtimes:
            set_(2)
        impedance._pair_impedance.cache_clear()
        cfg = self.write_config(tmp_path)
        assert main(argv + ["--config", cfg, "--out", os.devnull]) == 0
        assert seen == [[1] * len(blas_runtimes)]

    @pytest.mark.parametrize("argv,config,code", [
        (["impedance-sweep", "--distances-over-lambda", "0.5"], CONFIG, 0),
        (["lb-vs-power"], "num_transmissions: 2\n", 2),
        (["impedance-sweep", "--distances-over-lambda", "2.0"],
         "half_length_over_lambda: 0.5\n", 3),
    ], ids=["exit-0", "exit-2", "exit-3"])
    def test_main_restores_blas_threads(self, tmp_path, capsys, blas_runtimes,
                                        argv, config, code):
        cfg = self.write_config(tmp_path, config)
        # 3 differs from the single-threaded pin and from a 2-core default
        for _, set_ in blas_runtimes:
            set_(3)
        assert main(argv + ["--config", cfg, "--out", os.devnull]) == code
        assert [get() for get, _ in blas_runtimes] == [3] * len(blas_runtimes)
        capsys.readouterr()

    @staticmethod
    def refuse_points(monkeypatch):
        """Fail at the first grid point built; return the list of those."""
        # inline, so a point built by a spacing sweep would be seen here;
        # a built point fails the test at once rather than running its trials
        inline_sweeps(monkeypatch)
        built = []

        def refuse(*args):
            built.append(args)
            raise AssertionError("a grid point was built")

        monkeypatch.setattr(experiments, "_build_point", refuse)
        return built

    # Tx inside the 2x2 grid's box at 2.5 lambda spacing, outside it at 0.5
    TX_NEAR = CONFIG + "tx_position_m: [0.005, 0.005, 0.0]\n"
    # Tx 1.5 h above the corner element of the 2x2 grid at 2.5 lambda
    # (x = y = 1.25 lambda): clear of the element hull, but its wire
    # overlaps that element's wire
    _LAM = derive_constants(28e9).wavelength
    TX_ABOVE = CONFIG + "tx_position_m: [{0!r}, {0!r}, {1!r}]\n".format(
        1.25 * _LAM, 1.5 * _LAM / 64.0)

    @pytest.mark.parametrize("argv,config,where", [
        (["bias-vs-spacing", "--sizes", "4x4,0x4", "--spacings-over-lambda", "0.5"],
         None, None),
        (["crlb-vs-spacing", "--sizes", "2x2,2x0", "--spacings-over-lambda", "0.5"],
         None, None),
        (["mc-rmse", "--trials", "4294967296", "--spacings-over-lambda", "0.5"],
         None, None),
        # 20 elements need more than the config's 16 pilots
        (["bias-vs-spacing", "--sizes", "2x2,5x4"], None,
         "spacing 0.002 lambda, size 5x4: num_transmissions"),
        (["bias-vs-spacing", "--sizes", "2x2", "--spacings-over-lambda", "0.5,2.5"],
         TX_NEAR, "spacing 2.5 lambda, size 2x2: tx_position_m"),
        (["lb-vs-power", "--spacings-over-lambda", "0.5,2.5"], TX_NEAR,
         "spacing 2.5 lambda: tx_position_m"),
        (["bias-vs-spacing", "--sizes", "2x2", "--spacings-over-lambda", "0.5,2.5"],
         TX_ABOVE, "spacing 2.5 lambda, size 2x2: tx_position_m"),
    ], ids=["empty-size", "crlb-empty-size", "mc-trials", "pilots-at-a-size",
            "tx-inside-at-a-spacing", "power-tx-inside-at-a-spacing",
            "tx-wire-above-an-element"])
    def test_bad_request_exits_before_any_point(self, tmp_path, capsys, monkeypatch,
                                                argv, config, where):
        built = self.refuse_points(monkeypatch)
        cfg = self.write_config(tmp_path, config)
        assert main(argv + ["--config", cfg, "--out", os.devnull]) == 2
        assert built == []
        assert f"config error: {where or ''}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bias-vs-spacing", "--sizes", "2x2", "--spacings-over-lambda", "0.5"],
        ["mc-rmse", "--trials", "2", "--spacings-over-lambda", "0.5"],
    ], ids=["spacing", "power"])
    @pytest.mark.parametrize("out,code", [
        ("missing/x.csv", errno.ENOENT),
        ("", errno.EISDIR),  # the temporary directory itself
    ], ids=["missing-parent", "directory"])
    def test_bad_out_exits_before_any_point(self, tmp_path, capsys, monkeypatch,
                                            argv, out, code):
        built = self.refuse_points(monkeypatch)
        cfg = self.write_config(tmp_path)
        path = os.path.join(tmp_path, out)
        assert main(argv + ["--config", cfg, "--out", path]) == 4
        assert built == []
        assert capsys.readouterr().err == (
            f"ris-mcrb: I/O error: [Errno {code}] {os.strerror(code)}: {path!r}\n")

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # half-wavelength dipoles put the current normalization at resonance
        cfg = self.write_config(tmp_path, "half_length_over_lambda: 0.5\n")
        assert main(["impedance-sweep", "--config", cfg,
                     "--distances-over-lambda", "2.0"]) == 3
        assert "numerical failure" in capsys.readouterr().err
        # side-by-side wires 1e-4 lambda apart exhaust the quadrature rule;
        # fewer refinements reach the same failure sooner
        impedance._pair_impedance.cache_clear()
        monkeypatch.setattr(impedance, "MAX_REFINEMENTS", 3)
        assert main(["impedance-sweep", "--distances-over-lambda", "1e-4"]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "did not converge" in err

    def test_io_failure_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["impedance-sweep", "--config", cfg,
                     "--distances-over-lambda", "0.5",
                     "--out", str(missing)]) == 4
        assert "I/O error" in capsys.readouterr().err

    @pytest.mark.parametrize("spread", [inline_sweeps, pooled_sweeps],
                             ids=["inline", "pooled"])
    def test_out_of_memory_exit_code(self, tmp_path, capsys, monkeypatch, spread):
        # pooled, each spacing's point is built on a worker, whose
        # MemoryError comes back through the pool
        def no_memory(scenario):
            raise MemoryError("Unable to allocate 119. GiB")

        spread(monkeypatch)
        monkeypatch.setattr(experiments, "sample_loads", no_memory)
        cfg = self.write_config(tmp_path)
        assert main(["bias-vs-spacing", "--config", cfg, "--sizes", "2x2",
                     "--spacings-over-lambda", "0.2,0.5"]) == 3
        assert capsys.readouterr().err == (
            "ris-mcrb: out of memory: Unable to allocate 119. GiB\n")

    def test_load_draw_too_large_for_memory_exits_3(self, tmp_path):
        # 10**9 pilots' loads take 119 GiB; an address-space limit set in
        # the child alone makes that allocation fail at once on any host
        cfg = self.write_config(tmp_path, "num_transmissions: 1000000000\n")
        code = ("import resource, sys\n"
                "from ris_mcrb.cli import main\n"
                "resource.setrlimit(resource.RLIMIT_AS, (4 * 10**9, 4 * 10**9))\n"
                "sys.exit(main(sys.argv[1:]))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", code, "lb-vs-power", "--config", cfg,
             "--powers-dbm", "0", "--spacings-over-lambda", "0.5"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("ris-mcrb: out of memory: Unable to allocate")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["impedance-sweep", "--distances-over-lambda", "0.5"],
        ["lb-vs-power", "--powers-dbm", "0", "--spacings-over-lambda", "0.5",
         "--dump-model", "models"],
        ["bias-vs-spacing", "--spacings-over-lambda", "0.5", "--sizes", "2x2"],
        ["crlb-vs-spacing", "--spacings-over-lambda", "0.5", "--sizes", "2x2"],
        ["mc-rmse", "--powers-dbm", "0", "--spacings-over-lambda", "0.5",
         "--trials", "2", "--dump-model", "models"],
    ], ids=lambda argv: argv[0])
    def test_subcommands_never_build_the_real_form(self, tmp_path, monkeypatch,
                                                   argv):
        def refuse(*args, **kwargs):
            raise RuntimeError("the real block form was built")

        monkeypatch.setattr(channel, "realify", refuse)
        monkeypatch.chdir(tmp_path)
        cfg = self.write_config(tmp_path)
        assert main(argv + ["--config", cfg, "--out", os.devnull]) == 0

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


    @pytest.mark.parametrize("grid", [
        ["--powers-dbm", "0,4000"],
        ["--spacings-over-lambda", "-0.5"],
    ], ids=["unusable-power", "unusable-spacing"])
    def test_bad_request_leaves_no_dump_directory(self, tmp_path, capsys,
                                                  monkeypatch, grid):
        built = self.refuse_points(monkeypatch)
        cfg = self.write_config(tmp_path)
        dump_dir = tmp_path / "models"
        assert main(["lb-vs-power", *grid, "--config", cfg,
                     "--dump-model", str(dump_dir),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert built == []
        assert not dump_dir.exists()
        assert capsys.readouterr().err.startswith("ris-mcrb: config error: ")

    def test_dump_model_onto_a_file_exits_4(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        dump = tmp_path / "models"
        dump.write_text("")
        out = tmp_path / "x.csv"
        assert main(["lb-vs-power", "--config", cfg, "--powers-dbm", "0",
                     "--spacings-over-lambda", "0.5", "--dump-model", str(dump),
                     "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"ris-mcrb: I/O error: [Errno {errno.EEXIST}] "
            f"{os.strerror(errno.EEXIST)}: {str(dump)!r}\n")
        assert dump.read_text() == "" and not out.exists()

    def test_dump_model_onto_a_file_exits_before_any_point(self, tmp_path, capsys,
                                                           monkeypatch):
        built = self.refuse_points(monkeypatch)
        cfg = self.write_config(tmp_path)
        dump = tmp_path / "models"
        dump.write_text("")
        assert main(["lb-vs-power", "--config", cfg, "--dump-model", str(dump),
                     "--out", str(tmp_path / "x.csv")]) == 4
        assert built == []
        assert capsys.readouterr().err.startswith("ris-mcrb: I/O error: ")
        assert dump.read_text() == ""

# the runner each sweep subcommand declares, by its name in ``cli``
CLI_RUNNERS = {"lb-vs-power": "run_lb_vs_power", "mc-rmse": "run_mc_rmse",
               "bias-vs-spacing": "run_bias_vs_spacing",
               "crlb-vs-spacing": "run_crlb_vs_spacing"}
POWER_DEFAULTS = {"power_grid": [float(p) for p in range(-10, 81, 10)],
                  "spacing_grid": [0.02, 0.1, 0.5], "sizes": []}
SPACING_DEFAULTS = {"spacing_grid": [0.002, 0.005, 0.01, 0.02, 0.05, 0.1,
                                     0.2, 0.5, 1.0, 2.5],
                    "sizes": [(4, 4), (8, 8), (12, 12)]}


def captured_requests(monkeypatch, command):
    """Replace the runner of ``command`` in ``cli``, before ``main`` builds
    its parser, by one that records ``(request, keyword arguments)`` and
    returns no rows; return the record list."""
    record = []

    def runner(request, **kwargs):
        record.append((request, kwargs))
        return SweepResult(kind=request.kind, rows=[])

    monkeypatch.setattr(cli, CLI_RUNNERS[command], runner)
    return record


class TestCliRequests:
    """Every sweep subcommand builds its SweepRequest on one path, from the
    flags it shares with the other subcommands."""

    @pytest.mark.parametrize("command,want", [
        ("lb-vs-power", dict(POWER_DEFAULTS, kind="lb_vs_power", trials=0)),
        ("mc-rmse", dict(POWER_DEFAULTS, kind="mc_rmse", trials=500)),
        ("bias-vs-spacing", dict(SPACING_DEFAULTS, kind="bias_vs_spacing",
                                 power_grid=[], trials=0)),
        ("crlb-vs-spacing", dict(SPACING_DEFAULTS, kind="crlb_vs_spacing",
                                 power_grid=[40.0], trials=0)),
    ], ids=["lb-vs-power", "mc-rmse", "bias-vs-spacing", "crlb-vs-spacing"])
    def test_defaults(self, monkeypatch, capsys, command, want):
        record = captured_requests(monkeypatch, command)
        assert main([command]) == 0
        [(request, kwargs)] = record
        assert kwargs == {}
        want = dict(want, matched=False)
        assert {name: getattr(request, name) for name in want} == want
        assert request.scenario.config == scenario_from_config({}).config
        capsys.readouterr()

    @pytest.mark.parametrize("argv,want", [
        (["lb-vs-power", "--powers-dbm", "-10,5", "--spacings-over-lambda", "0.3",
          "--matched"],
         dict(power_grid=[-10.0, 5.0], spacing_grid=[0.3], matched=True)),
        (["mc-rmse", "--powers-dbm", "20", "--spacings-over-lambda", "0.1,0.4",
          "--trials", "3", "--matched"],
         dict(power_grid=[20.0], spacing_grid=[0.1, 0.4], trials=3, matched=True)),
        (["bias-vs-spacing", "--spacings-over-lambda", "0.2,0.5", "--sizes", "2x2,3x2"],
         dict(spacing_grid=[0.2, 0.5], sizes=[(2, 2), (3, 2)])),
        (["crlb-vs-spacing", "--power-dbm", "-4e1", "--spacings-over-lambda", "0.5",
          "--sizes", "2x3"],
         dict(power_grid=[-40.0], spacing_grid=[0.5], sizes=[(2, 3)])),
    ], ids=["lb-vs-power", "mc-rmse", "bias-vs-spacing", "crlb-vs-spacing"])
    def test_flags_fill_their_fields(self, tmp_path, monkeypatch, capsys, argv, want):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(TestCli.CONFIG)
        record = captured_requests(monkeypatch, argv[0])
        assert main(argv + ["--config", str(cfg), "--seed", "7"]) == 0
        [(request, _)] = record
        assert {name: getattr(request, name) for name in want} == want
        scenario = request.scenario
        assert (scenario.ris.n1, scenario.ris.n2, scenario.rng_seed) == (2, 2, 7)
        capsys.readouterr()

    def test_sweep_subcommands_are_the_table_kinds(self):
        # every subcommand but impedance-sweep builds a SweepRequest of the
        # kind it is named after, and every kind has its subcommand
        [subcommands] = [action for action in cli.build_parser()._actions
                         if isinstance(action, argparse._SubParsersAction)]
        kinds = {name: parser.get_default("kind")
                 for name, parser in subcommands.choices.items()}
        assert kinds.pop("impedance-sweep") is None
        assert kinds == {kind.replace("_", "-"): kind for kind in experiments.SWEEP_KINDS}

    def test_sweep_subcommands_offer_the_fields_their_kind_reads(self):
        # a flag for a field the kind does not read would only ever be
        # rejected; a read field without a flag could not be set
        [subcommands] = [action for action in cli.build_parser()._actions
                         if isinstance(action, argparse._SubParsersAction)]
        request_fields = {f.name for f in dataclasses.fields(SweepRequest)}
        for kind, entry in experiments.SWEEP_KINDS.items():
            parser = subcommands.choices[kind.replace("_", "-")]
            dests = {action.dest for action in parser._actions}
            assert dests & request_fields == set(entry.reads), kind

    @pytest.mark.parametrize("command", ["lb-vs-power", "mc-rmse"])
    def test_dump_model_hands_runner_a_sink(self, tmp_path, monkeypatch, capsys,
                                            command):
        record = captured_requests(monkeypatch, command)
        assert main([command, "--dump-model", str(tmp_path / "models")]) == 0
        [(_, kwargs)] = record
        assert set(kwargs) == {"model_sink"} and callable(kwargs["model_sink"])
        assert (tmp_path / "models").is_dir()
        capsys.readouterr()


class TestNonFiniteQuadrature:
    """An integrand that overflows or divides by zero gives a non-finite
    estimate, which fails at once, silently (Tier-1 turns warnings into
    errors), with exit code 3."""

    @pytest.mark.parametrize("d", ["1e-300", "1e300"])
    def test_fails_at_first_estimate(self, monkeypatch, capsys, d):
        estimates = counting_wrapper(monkeypatch, impedance, "_tensor_estimate")
        assert main(["impedance-sweep", "--distances-over-lambda", d]) == 3
        assert len(estimates) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "at order 16 is not finite at (rho1, rho2)" in err

    def test_sweep_names_grid_point_and_pair(self, capsys):
        assert main(["bias-vs-spacing", "--spacings-over-lambda", "1e-300",
                     "--sizes", "2x2"]) == 3
        assert capsys.readouterr().err.startswith(
            "ris-mcrb: numerical failure: spacing 1e-300 lambda, size 2x2: "
            "element pair (0,1): ")


class TestParallelSweeps:
    """Grid points spread over forked workers give the serial loop's rows,
    failures, pair memo and BLAS thread counts."""

    CONFIG = TestCli.CONFIG

    def requests(self, scenario):
        power = dict(scenario=scenario, power_grid=[0.0, 40.0],
                     spacing_grid=[0.05, 0.2, 0.5])
        spacing = dict(scenario=scenario, spacing_grid=[0.05, 0.2, 0.5],
                       sizes=[(2, 2), (3, 2)])
        return [
            (run_lb_vs_power, SweepRequest(kind="lb_vs_power", **power)),
            (run_mc_rmse, SweepRequest(kind="mc_rmse", trials=4, **power)),
            (run_mc_rmse, SweepRequest(kind="mc_rmse", trials=4, matched=True,
                                       **power)),
            (run_bias_vs_spacing, SweepRequest(kind="bias_vs_spacing", **spacing)),
            (run_crlb_vs_spacing, SweepRequest(kind="crlb_vs_spacing",
                                               power_grid=[40.0], **spacing)),
        ]

    def test_pooled_rows_equal_inline_rows(self, small_scenario, monkeypatch):
        for runner, request in self.requests(small_scenario):
            inline_sweeps(monkeypatch)
            inline = runner(request).rows
            pooled_sweeps(monkeypatch)
            impedance._pair_impedance.cache_clear()
            pooled = runner(request).rows
            assert pooled == inline, request
            assert pooled

    def test_workers_run_blas_single_threaded(self, small_scenario, monkeypatch,
                                              blas_runtimes):
        # every pooled runner pins BLAS before it forks, so each task runs
        # at one thread although this process starts at two
        pooled_sweeps(monkeypatch)
        for _, set_ in blas_runtimes:
            set_(2)
        tasks = multiprocessing.get_context("fork").Value("i", 0)

        def pinned_map(task, n):
            def checked(i):
                assert [get() for get, _ in blas_runtimes] == [1] * len(blas_runtimes)
                with tasks.get_lock():
                    tasks.value += 1
                return task(i)
            return _parallel.parallel_map(checked, n)

        monkeypatch.setattr(experiments, "parallel_map", pinned_map)
        for runner, request in self.requests(small_scenario):
            runner(request)
        # three spacings for each of two spacing sweeps, two powers for each
        # of two mc-rmse sweeps; lb-vs-power runs no task
        assert tasks.value == 2 * 3 + 2 * 2
        assert [get() for get, _ in blas_runtimes] == [2] * len(blas_runtimes)

    def test_idle_workers_burn_no_cpu(self, monkeypatch, blas_runtimes):
        # a BLAS setter call after the fork restarts OpenBLAS's thread
        # server, whose thread spins: 0.1-0.25 s of CPU time over this
        # sleep on a 2-vCPU host. Start from two threads, so the pool's
        # pin to one is a real change whatever count this process began with
        pooled_sweeps(monkeypatch)
        for _, set_ in blas_runtimes:
            set_(2)

        def sleeper(i):
            started = time.process_time()
            time.sleep(0.3)
            return time.process_time() - started

        with single_threaded_blas():  # as a sweep runner forks the pool
            assert max(_parallel.parallel_map(sleeper, 2)) < 0.05

    def test_without_fork_runs_inline(self, small_scenario, monkeypatch):
        # a platform without fork runs every task in this process, with no
        # semaphore of spare CPUs, so build_B starts no helper threads
        request = SweepRequest(kind="bias_vs_spacing", scenario=small_scenario,
                               spacing_grid=[0.05, 0.5], sizes=[(2, 2)])
        inline_sweeps(monkeypatch)
        inline = run_bias_vs_spacing(request).rows
        pooled_sweeps(monkeypatch)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert _parallel._worker[1] is None
        impedance._pair_impedance.cache_clear()
        assert run_bias_vs_spacing(request).rows == inline
        seen = _parallel.parallel_map(lambda i: (os.getpid(), _parallel._worker[1]), 3)
        assert seen == [(os.getpid(), None)] * 3
        assert multiprocessing.active_children() == []

    def test_no_unit_is_spare_while_tasks_fill_the_workers(self, monkeypatch):
        # five tasks on two CPUs: until fewer tasks are left than workers,
        # every CPU runs one. The fourth task waits until the last has
        # begun, so the last begins before four tasks have ended
        pooled_sweeps(monkeypatch)
        last_began = multiprocessing.get_context("fork").Event()

        def task(i):
            spare = _parallel._worker[1].get_value()
            if i == 4:
                last_began.set()
            elif i == 3:
                assert last_began.wait(10.0)
            return spare

        assert _parallel.parallel_map(task, 5) == [0] * 5

    def test_cpus_beyond_the_workers_are_spare_from_the_start(self, monkeypatch):
        monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 3)
        seen = _parallel.parallel_map(lambda i: _parallel._worker[1].get_value(), 2)
        assert min(seen) >= 1

    def test_first_failing_spacing_raises(self, small_scenario, monkeypatch):
        # every point fails, the first spacing last in time; the error must
        # still name it, as the serial loop would
        request = SweepRequest(kind="bias_vs_spacing", scenario=small_scenario,
                               spacing_grid=[0.05, 0.2, 0.5], sizes=[(2, 2)])
        spoiled_builder(monkeypatch, 1)
        spoiled = experiments._build_point

        def slow_first(sc, *args):
            if sc.config["ris_spacing_over_lambda"] == 0.05:
                time.sleep(0.2)
            return spoiled(sc, *args)

        monkeypatch.setattr(experiments, "_build_point", slow_first)
        pooled_sweeps(monkeypatch)
        for _ in range(5):
            with pytest.raises(DegenerateDesignError,
                               match=r"^spacing 0\.05 lambda, size 2x2: ") as exc_info:
                run_bias_vs_spacing(request)
            assert exc_info.value.rcond < channel.RCOND_FLOOR
            assert multiprocessing.active_children() == []

    def test_helpers_finish_the_heaviest_spacing(self, small_scenario, monkeypatch):
        # four spacing tasks on two workers: the first spacing's build_B
        # calls have 16 chunks each, and its chunks on the worker's own
        # thread wait until a CPU is spare (the other worker has run out of
        # tasks), so a helper thread must run some of them; the rows are
        # the inline rows. The wait ends 10 s after the point's build
        # starts, so a pool that never frees a CPU fails the test quickly
        scenario = small_scenario.with_overrides(
            num_transmissions=16 * channel.JACOBI_CHUNK)
        request = SweepRequest(kind="bias_vs_spacing", scenario=scenario,
                               spacing_grid=[0.02, 0.2, 0.5, 1.0], sizes=[(3, 2)])
        inline_sweeps(monkeypatch)
        inline = run_bias_vs_spacing(request).rows

        helper_chunks = multiprocessing.get_context("fork").Value("i", 0)
        point = {}
        build, contraction = experiments._build_point, channel._contraction

        def build_point(sc, *args):
            point["d"] = sc.config["ris_spacing_over_lambda"]
            point["deadline"] = time.monotonic() + 10.0
            return build(sc, *args)

        def chunk(mag, coupling):
            if threading.current_thread() is not threading.main_thread():
                with helper_chunks.get_lock():
                    helper_chunks.value += 1
            elif point["d"] == 0.02:
                spare = _parallel._worker[1]
                while (spare.get_value() == 0 and helper_chunks.value == 0
                       and time.monotonic() < point["deadline"]):
                    time.sleep(0.001)
            return contraction(mag, coupling)

        monkeypatch.setattr(experiments, "_build_point", build_point)
        monkeypatch.setattr(channel, "_contraction", chunk)
        pooled_sweeps(monkeypatch)
        impedance._pair_impedance.cache_clear()
        assert run_bias_vs_spacing(request).rows == inline
        assert helper_chunks.value > 0
        assert multiprocessing.active_children() == []
        assert _parallel._worker[1] is None
        assert [t for t in threading.enumerate() if t.name == "build_B helper"] == []

    def test_no_worker_outlives_a_sweep(self, small_scenario, monkeypatch):
        pooled_sweeps(monkeypatch)
        for runner, request in self.requests(small_scenario):
            runner(request)
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("argv,code", [
        (["bias-vs-spacing", "--spacings-over-lambda", "0.2,0.5", "--sizes", "2x2"], 0),
        (["bias-vs-spacing", "--spacings-over-lambda", "0.5,0.2"], 2),
        (["crlb-vs-spacing", "--spacings-over-lambda", "1e-300,0.5", "--sizes", "2x2"], 3),
        (["bias-vs-spacing", "--spacings-over-lambda", "0.2,0.5", "--sizes", "2x2",
          "--out", "no/such/dir/out.csv"], 4),
    ], ids=["exit-0", "exit-2", "exit-3", "exit-4"])
    def test_no_process_outlives_the_cli(self, tmp_path, monkeypatch, capsys,
                                         argv, code):
        pooled_sweeps(monkeypatch)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "scenario.yaml").write_text(self.CONFIG)
        if "--out" not in argv:
            argv = argv + ["--out", os.devnull]
        assert main(argv + ["--config", "scenario.yaml"]) == code
        assert multiprocessing.active_children() == []
        capsys.readouterr()

    def test_quadrature_failure_crosses_the_pool(self, monkeypatch, capsys):
        # side-by-side wires 1e-4 lambda apart exhaust a three-refinement
        # rule in a worker; the failure reaches the CLI's exit code 3
        pooled_sweeps(monkeypatch)
        monkeypatch.setattr(impedance, "MAX_REFINEMENTS", 3)
        impedance._pair_impedance.cache_clear()
        assert main(["bias-vs-spacing", "--spacings-over-lambda", "1e-4,0.5",
                     "--sizes", "2x2", "--out", os.devnull]) == 3
        err = capsys.readouterr().err
        assert err.startswith("ris-mcrb: numerical failure: spacing 0.0001 lambda")
        assert "did not converge" in err

    def test_runner_outside_cli_pins_and_restores_blas(self, tmp_path, monkeypatch,
                                                       blas_runtimes):
        pooled_sweeps(monkeypatch)
        argv = ["bias-vs-spacing", "--spacings-over-lambda", "0.02,0.5",
                "--sizes", "4x4"]
        out = tmp_path / "cli.csv"
        assert main(argv + ["--out", str(out)]) == 0
        seen = []
        build = experiments._build_point

        def spy(*args):
            seen.append([get() for get, _ in blas_runtimes])
            return build(*args)

        monkeypatch.setattr(experiments, "_build_point", spy)
        inline_sweeps(monkeypatch)
        # 3 differs from the single-threaded pin and from a 2-core default
        for _, set_ in blas_runtimes:
            set_(3)
        impedance._pair_impedance.cache_clear()
        request = SweepRequest(kind="bias_vs_spacing",
                               scenario=scenario_from_config({}),
                               spacing_grid=[0.02, 0.5], sizes=[(4, 4)])
        text = csv_text(run_bias_vs_spacing(request))
        assert [get() for get, _ in blas_runtimes] == [3] * len(blas_runtimes)
        assert seen == [[1] * len(blas_runtimes)] * 2
        assert text == out.read_text()


class TestPooledPowerSweeps:
    """A power sweep's Monte-Carlo powers run as one worker task each,
    and fail as the inline loop fails."""

    POWERS = [0.0, 20.0, 40.0, 60.0]

    def request(self, scenario, **kwargs):
        return SweepRequest(kind="mc_rmse", scenario=scenario,
                            power_grid=self.POWERS, spacing_grid=[0.05, 0.5],
                            **kwargs)

    def test_no_power_runs_its_trials_in_the_caller(self, small_scenario,
                                                     monkeypatch, tmp_path):
        log = tmp_path / "pids"
        real = experiments.mc_rmse_pairs

        def logged(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "mc_rmse_pairs", logged)
        pooled_sweeps(monkeypatch)
        run_mc_rmse(self.request(small_scenario, trials=4))
        pids = [int(line) for line in log.read_text().split()]
        assert len(pids) == len(self.POWERS)
        assert os.getpid() not in pids

    def test_failing_power_raises_as_inline(self, small_scenario, monkeypatch):
        # the second of four powers fails; its error crosses the pool with
        # its message and payload
        real = experiments.mc_rmse_pairs
        failing = dbm_to_watts(self.POWERS[1])

        def fail_second(scenario, pairs, p_t, *args, **kwargs):
            if p_t == failing:
                raise DegenerateDesignError("estimation model: rank deficient",
                                            rcond=2e-17)
            return real(scenario, pairs, p_t, *args, **kwargs)

        monkeypatch.setattr(experiments, "mc_rmse_pairs", fail_second)
        request = self.request(small_scenario, trials=4)
        raised = []
        for spread in (inline_sweeps, pooled_sweeps):
            spread(monkeypatch)
            with pytest.raises(DegenerateDesignError) as exc_info:
                run_mc_rmse(request)
            raised.append((str(exc_info.value), exc_info.value.rcond))
            assert multiprocessing.active_children() == []
        assert raised[1] == raised[0] == ("estimation model: rank deficient", 2e-17)

    def test_lb_vs_power_forks_no_pool(self, small_scenario, monkeypatch):
        def refuse(task, n):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(experiments, "parallel_map", refuse)
        pooled_sweeps(monkeypatch)
        request = power_request(small_scenario, run_lb_vs_power,
                                power_grid=self.POWERS, spacing_grid=[0.05, 0.5])
        assert len(run_lb_vs_power(request).rows) == 2 * len(self.POWERS)


class FakeBlas:
    """Thread-count controls of fake runtimes, recording every setter call."""

    def __init__(self, *counts):
        self.counts = list(counts)
        self.calls = []

    def controls(self):
        def control(k):
            def set_(count):
                self.calls.append((k, count))
                self.counts[k] = count
            return (lambda: self.counts[k]), set_
        return [control(k) for k in range(len(self.counts))]


class TestSingleThreadedBlas:
    def test_no_setter_runs_at_one_thread(self, monkeypatch):
        blas = FakeBlas(1, 1)
        monkeypatch.setattr(_parallel, "openblas_thread_controls", blas.controls)
        with single_threaded_blas():
            assert blas.counts == [1, 1]
        assert blas.calls == []

    def test_restores_only_changed_counts(self, monkeypatch):
        blas = FakeBlas(1, 4, 1)
        monkeypatch.setattr(_parallel, "openblas_thread_controls", blas.controls)
        with single_threaded_blas():
            assert blas.calls == [(1, 1)]
            blas.counts[2] = 3  # changed by a callee, not through a setter
        assert blas.calls == [(1, 1), (1, 4), (2, 1)]
        assert blas.counts == [1, 4, 1]


def computation_errors():
    """One annotated instance of every ComputationError class, with payload."""
    return [
        annotate(ComputationError("estimate is not finite"), "element 0 self term"),
        annotate(DegenerateGeometryError("wires overlap"), "element pair (0,1)"),
        annotate(ResonanceError("sin(k0*h) is zero"), "spacing 1.5 lambda"),
        annotate(QuadratureConvergenceError("did not converge",
                                            previous=np.complex128(1 + 2j),
                                            latest=np.complex128(1 + 2.5j)),
                 "spacing 0.0001 lambda, size 2x2"),
        annotate(SingularModelError("singular", rcond=1e-18), "spacing 0.002 lambda"),
        annotate(DegenerateDesignError("rank deficient", rcond=2e-17),
                 "spacing 0.05 lambda"),
    ]


@pytest.mark.parametrize("exc", computation_errors(),
                         ids=lambda exc: type(exc).__name__)
def test_computation_errors_pickle(exc):
    # a worker's failure reaches the caller through pickle
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc) and back.args == exc.args
    assert vars(back) == vars(exc)


def test_computation_error_classes_all_checked():
    def subclasses(cls):
        return {cls} | {sub for direct in cls.__subclasses__()
                        for sub in subclasses(direct)}

    assert {type(exc) for exc in computation_errors()} == subclasses(ComputationError)


@pytest.mark.parametrize("command,defaults", [
    ("impedance-sweep", ["--distances-over-lambda", "(default: "
                         "0.002,0.005,0.01,0.02,0.05,0.1,0.2,0.5,1,2.5)"]),
    ("lb-vs-power", ["(default: -10,0,10,20,30,40,50,60,70,80)",
                     "(default: 0.02,0.1,0.5)"]),
    ("mc-rmse", ["(default: -10,0,10,20,30,40,50,60,70,80)",
                 "(default: 0.02,0.1,0.5)", "(default: 500)"]),
    ("bias-vs-spacing", ["(default: 0.002,0.005,0.01,0.02,0.05,0.1,0.2,0.5,1,2.5)",
                         "(default: 4x4,8x8,12x12)"]),
    ("crlb-vs-spacing", ["(default: 0.002,0.005,0.01,0.02,0.05,0.1,0.2,0.5,1,2.5)",
                         "(default: 4x4,8x8,12x12)", "(default: 40)"]),
])
def test_help_names_grid_defaults(capsys, command, defaults):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for default in defaults:
        assert default in text
