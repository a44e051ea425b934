import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.optimize import minimize

from ris_mcrb import bounds
from ris_mcrb.bounds import (
    bias_trace,
    crlb,
    inverse_gram_trace,
    lower_bound,
    mc_rmse,
    mcrb_trace,
    ml_estimate,
    pseudo_true,
)
from ris_mcrb.channel import as_model_matrix, realify
from ris_mcrb.errors import DegenerateDesignError
from ris_mcrb.scenario import NoiseModel, scenario_from_config


def iterative_pseudo_true(d_est, d_true, x_true):
    """Independent oracle: minimize ||D_true x_true - D_est x||^2 numerically."""
    a = as_model_matrix(d_est)
    b = as_model_matrix(d_true) @ np.asarray(x_true, dtype=float)

    def objective(x):
        res = a @ x - b
        return res @ res

    def gradient(x):
        return 2.0 * a.T @ (a @ x - b)

    out = minimize(objective, np.zeros(a.shape[1]), jac=gradient,
                   method="L-BFGS-B",
                   options={"gtol": 1e-14, "ftol": 1e-16, "maxiter": 5000})
    return out.x


class TestNoiseVariance:
    def test_reference_values(self):
        got = NoiseModel(-173.855, 10.0, 1.0).sigma2
        assert got == pytest.approx(10.0 ** (-19.3855), rel=1e-12)

    def test_zero_noise_figure(self):
        got = NoiseModel(-173.855, 0.0, 1.0).sigma2
        assert got == pytest.approx(10.0 ** (-20.3855), rel=1e-12)

    def test_bandwidth_linearity(self):
        one = NoiseModel(-173.855, 10.0, 1.0).sigma2
        ten = NoiseModel(-173.855, 10.0, 10.0).sigma2
        assert ten == pytest.approx(10.0 * one, rel=1e-15)


class TestMlEstimate:
    def test_noiseless_consistency(self, model_factory):
        d_est, _, x = model_factory(seed=1)
        r = 3.0 * (as_model_matrix(d_est) @ x)  # sqrt(P_T) = 3
        got = ml_estimate(d_est, r, 9.0)
        assert np.allclose(got, x, rtol=1e-10, atol=1e-12)

    def test_zero_observation(self, model_factory):
        d_est, _, _ = model_factory(seed=2)
        got = ml_estimate(d_est, np.zeros(as_model_matrix(d_est).shape[0]), 1.0)
        assert np.array_equal(got, np.zeros_like(got))

    def test_normal_equation_oracle(self, model_factory):
        rng = np.random.default_rng(5)
        d_est, _, _ = model_factory(seed=3, g=15, n=4)
        d = as_model_matrix(d_est)
        r = rng.standard_normal(d.shape[0])
        p_t = 2.5
        want = np.linalg.inv(d.T @ d) @ d.T @ r / np.sqrt(p_t)
        got = ml_estimate(d_est, r, p_t)
        assert np.allclose(got, want, rtol=1e-8)

    def test_rank_deficient_raises(self):
        b = np.ones((6, 2), dtype=complex)  # duplicate columns
        d = realify(b, includes_mutual_coupling=False)
        with pytest.raises(DegenerateDesignError) as exc_info:
            ml_estimate(d, np.zeros(12), 1.0)
        assert exc_info.value.rcond is not None

    def test_underdetermined_raises(self):
        with pytest.raises(DegenerateDesignError):
            ml_estimate(np.ones((2, 4)), np.zeros(2), 1.0)


class TestPseudoTrue:
    def test_matched_model_returns_truth(self, model_factory):
        _, d_true, x = model_factory(seed=4)
        assert np.array_equal(pseudo_true(d_true, d_true, x), x)

    def test_zero_truth(self, model_factory):
        d_est, d_true, x = model_factory(seed=5)
        got = pseudo_true(d_est, d_true, np.zeros_like(x))
        assert np.allclose(got, 0.0, atol=1e-15)

    def test_iterative_minimizer_oracle(self, model_factory):
        for seed in (6, 7, 8):
            d_est, d_true, x = model_factory(seed=seed, g=10, n=3)
            closed = pseudo_true(d_est, d_true, x)
            iterative = iterative_pseudo_true(d_est, d_true, x)
            assert np.allclose(closed, iterative, atol=1e-8, rtol=1e-8)


class TestMcrbTrace:
    def test_doubling_snr_halves_exactly(self, model_factory):
        d_est, _, _ = model_factory(seed=9)
        assert mcrb_trace(d_est, 1.7) == 2.0 * mcrb_trace(d_est, 3.4)

    def test_identity_design_closed_form(self):
        d = realify(np.eye(4), includes_mutual_coupling=False)
        assert mcrb_trace(d, 0.5) == pytest.approx(8.0, rel=1e-14)

    def test_explicit_inverse_oracle(self, model_factory):
        d_est, _, _ = model_factory(seed=10, g=20, n=5)
        d = as_model_matrix(d_est)
        want = np.trace(np.linalg.inv(d.T @ d)) / (2.0 * 0.37)
        assert mcrb_trace(d_est, 0.37) == pytest.approx(want, rel=1e-9)

    def test_rejects_nonpositive_gamma(self, model_factory):
        d_est, _, _ = model_factory(seed=11)
        with pytest.raises(ValueError):
            mcrb_trace(d_est, 0.0)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_rejects_non_finite_gamma(self, model_factory, gamma):
        # an infinite SNR would report a zero covariance floor
        d_est, d_true, x = model_factory(seed=11)
        with pytest.raises(ValueError, match="finite"):
            mcrb_trace(d_est, gamma)
        with pytest.raises(ValueError, match="finite"):
            lower_bound(d_est, d_true, x, gamma)
        with pytest.raises(ValueError, match="finite"):
            bounds.FactoredPair(d_est, d_true, x).report(1.0, gamma)

    def test_snr_overflow_rejected(self):
        assert bounds.snr(2.0, 0.5) == 4.0
        with pytest.raises(ValueError, match="finite"):
            bounds.snr(1e-3, 4e-320)


class TestBiasTrace:
    def test_matched_model_exactly_zero(self, model_factory):
        _, d_true, x = model_factory(seed=12)
        assert bias_trace(d_true, d_true, x) == 0.0

    def test_quadratic_homogeneity(self, model_factory):
        d_est, d_true, x = model_factory(seed=13)
        base = bias_trace(d_est, d_true, x)
        assert bias_trace(d_est, d_true, 3.0 * x) == pytest.approx(9.0 * base, rel=1e-12)

    def test_consistent_with_pseudo_true(self, model_factory):
        d_est, d_true, x = model_factory(seed=14)
        x0 = pseudo_true(d_est, d_true, x)
        want = float((x - x0) @ (x - x0))
        assert bias_trace(d_est, d_true, x) == pytest.approx(want, rel=1e-10)


class TestLowerBound:
    def test_matched_equals_crlb(self, model_factory):
        _, d_true, x = model_factory(seed=15)
        report = lower_bound(d_true, d_true, x, gamma=0.8)
        assert report.lb == pytest.approx(crlb(d_true, 0.8), rel=1e-12)
        assert report.tr_bias == 0.0

    def test_high_snr_saturates_to_bias(self, model_factory):
        d_est, d_true, x = model_factory(seed=16)
        report = lower_bound(d_est, d_true, x, gamma=1e30)
        assert report.lb == pytest.approx(np.sqrt(report.tr_bias), rel=1e-9)

    def test_report_is_self_consistent(self, model_factory):
        d_est, d_true, x = model_factory(seed=17)
        report = lower_bound(d_est, d_true, x, gamma=2.0, p_t=4.0)
        assert report.lb ** 2 == pytest.approx(report.tr_mcrb + report.tr_bias, rel=1e-14)
        assert report.p_t == 4.0
        assert report.tr_mcrb == pytest.approx(mcrb_trace(d_est, 2.0), rel=1e-14)
        assert report.tr_bias == pytest.approx(bias_trace(d_est, d_true, x), rel=1e-12)

    def test_monotone_and_floored(self, model_factory):
        d_est, d_true, x = model_factory(seed=18)
        floor = np.sqrt(bias_trace(d_est, d_true, x))
        lbs = [lower_bound(d_est, d_true, x, g).lb for g in (0.1, 1.0, 10.0, 1e4)]
        assert all(a >= b for a, b in zip(lbs, lbs[1:]))
        assert all(lb >= floor for lb in lbs)

    def test_report_validates_consistency(self):
        from ris_mcrb.bounds import BoundReport
        with pytest.raises(ValueError, match="non-negative"):
            BoundReport(p_t=1.0, gamma=1.0, tr_mcrb=-1.0, tr_bias=0.0)

    def test_lb_is_derived_from_its_parts(self, model_factory):
        # replacing a part cannot leave a stale bound behind
        d_est, d_true, x = model_factory(seed=21)
        report = lower_bound(d_est, d_true, x, gamma=2.0)
        for t in (0.0, 0.5, 3.0 * report.tr_bias):
            assert replace(report, tr_bias=t).lb == math.sqrt(report.tr_mcrb + t)

    def test_lb_needs_both_parts(self):
        from ris_mcrb.bounds import BoundReport
        assert BoundReport(p_t=None, gamma=None, tr_mcrb=None, tr_bias=1.0).lb is None
        assert BoundReport(p_t=1.0, gamma=1.0, tr_mcrb=1.0, tr_bias=None).lb is None


class TestCrlb:
    def test_20db_is_factor_10(self, model_factory):
        _, d_true, _ = model_factory(seed=19)
        assert crlb(d_true, 1.0) == pytest.approx(10.0 * crlb(d_true, 100.0), rel=1e-14)

    def test_identity_design_closed_form(self):
        d = realify(np.eye(3), includes_mutual_coupling=True)
        assert crlb(d, 0.5) == pytest.approx(np.sqrt(6.0), rel=1e-14)

    def test_inverse_gram_trace_oracle(self, model_factory):
        _, d_true, _ = model_factory(seed=20, g=18, n=4)
        d = as_model_matrix(d_true)
        want = np.trace(np.linalg.inv(d.T @ d))
        assert inverse_gram_trace(d_true) == pytest.approx(want, rel=1e-9)


class TestLsqFactor:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_solve_is_solve_triangular_bit_for_bit(self, model_factory,
                                                  monkeypatch, order):
        real_qr = bounds.qr

        def qr_in_order(*args, **kwargs):
            q, r = real_qr(*args, **kwargs)
            return q, np.asarray(r, order=order)

        monkeypatch.setattr(bounds, "qr", qr_in_order)
        d_est, _, _ = model_factory(seed=27, g=20, n=5)
        factor = bounds._LsqFactor(d_est)
        assert factor.r.flags[f"{order}_CONTIGUOUS"]
        rng = np.random.default_rng(27)
        for rhs in (rng.standard_normal(40), rng.standard_normal((40, 3))):
            want = solve_triangular(factor.r, factor.q.T @ rhs, check_finite=False)
            assert np.array_equal(factor.solve(rhs), want)


@pytest.fixture(scope="module")
def scenario():
    return scenario_from_config({})


class TestMcRmse:
    def test_noiseless_mismatched_equals_bias_norm(self, scenario, model_factory):
        d_est, d_true, x = model_factory(seed=21)
        got = mc_rmse(scenario, d_est, d_true, x, 1.0, 3, 0, noiseless=True)
        want = np.sqrt(bias_trace(d_est, d_true, x))
        assert got == pytest.approx(want, rel=1e-12)

    def test_noiseless_matched_is_zero(self, scenario, model_factory):
        _, d_true, x = model_factory(seed=22)
        got = mc_rmse(scenario, d_true, d_true, x, 1.0, 2, 0, noiseless=True)
        assert got < 1e-13 * np.linalg.norm(x)

    def test_matched_efficiency(self, scenario, model_factory):
        # least squares is efficient in this linear-Gaussian model, so the
        # Monte-Carlo RMSE must sit on the matched bound
        _, d_true, x = model_factory(seed=23, g=24, n=4)
        sigma2 = scenario.noise.sigma2
        p_t = sigma2  # gamma = 1: noise clearly visible
        ratio = mc_rmse(scenario, d_true, d_true, x, p_t, 600, 42) / crlb(d_true, 1.0)
        assert 0.95 <= ratio <= 1.10

    def test_mismatched_high_snr_saturates(self, scenario, model_factory):
        d_est, d_true, x = model_factory(seed=24)
        p_t = scenario.noise.sigma2 * 1e12  # gamma = 1e12
        got = mc_rmse(scenario, d_est, d_true, x, p_t, 400, 43)
        assert got == pytest.approx(np.sqrt(bias_trace(d_est, d_true, x)), rel=0.02)

    def test_deterministic_given_stream(self, scenario, model_factory):
        d_est, d_true, x = model_factory(seed=25)
        seq = np.random.SeedSequence(7, spawn_key=(1, 99))
        a = mc_rmse(scenario, d_est, d_true, x, 1.0, 25, seq)
        b = mc_rmse(scenario, d_est, d_true, x, 1.0, 25, seq)
        assert a == b

    def test_rejects_bad_trials(self, scenario, model_factory):
        d_est, d_true, x = model_factory(seed=26)
        with pytest.raises(ValueError):
            mc_rmse(scenario, d_est, d_true, x, 1.0, 0, 0)

    @pytest.mark.parametrize("noiseless", [False, True])
    def test_pairs_equal_separate_calls(self, scenario, model_factory, noiseless):
        # shared noise draws must not couple the pairs' results
        models = [model_factory(seed=s) for s in (30, 31, 32)]
        models[1] = (models[1][1],) + models[1][1:]  # a matched pair
        pairs = [bounds.FactoredPair(*m) for m in models]
        seq = np.random.SeedSequence(3, spawn_key=(1, 5))
        got = bounds.mc_rmse_pairs(scenario, pairs, 2.0, 7, seq,
                                   noiseless=noiseless)
        want = [mc_rmse(scenario, *m, 2.0, 7, seq, noiseless=noiseless)
                for m in models]
        assert got == want

    def test_noiseless_builds_no_streams(self, scenario, model_factory, monkeypatch):
        made = []
        real = bounds.trial_generators

        def counting(seq, trials):
            for rng in real(seq, trials):
                made.append(rng)
                yield rng

        monkeypatch.setattr(bounds, "trial_generators", counting)
        d_est, d_true, x = model_factory(seed=34)
        mc_rmse(scenario, d_est, d_true, x, 1.0, 4, 0, noiseless=True)
        assert made == []
        mc_rmse(scenario, d_est, d_true, x, 1.0, 4, 0)
        assert len(made) == 4

    def test_tracks_bound_across_power_grid(self, point_002):
        # the least-squares estimator attains the mismatched bound, so the
        # Monte-Carlo RMSE must stay within statistical tolerance of it
        from ris_mcrb.channel import noise_seed
        from ris_mcrb.scenario import dbm_to_watts

        sc = point_002.scenario
        sigma2 = sc.noise.sigma2
        for p_dbm in range(-10, 81, 10):
            p_t = dbm_to_watts(float(p_dbm))
            bound = lower_bound(point_002.d_est, point_002.d_true,
                                point_002.x_true, p_t / sigma2).lb
            got = mc_rmse(sc, point_002.d_est, point_002.d_true,
                          point_002.x_true, p_t, 500,
                          noise_seed(sc.rng_seed, float(p_dbm)))
            assert abs(got - bound) <= 0.10 * bound
