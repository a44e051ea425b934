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
from ris_mcrb.channel import (
    as_model_matrix,
    model_pair,
    noise_seed,
    realify,
    realify_vec,
    sample_loads,
    trial_generators,
)
from ris_mcrb.errors import DegenerateDesignError
from ris_mcrb.experiments import DEFAULT_LB_SPACINGS, DEFAULT_POWER_GRID_DBM
from ris_mcrb.impedance import build_impedance_set
from ris_mcrb.scenario import NoiseModel, dbm_to_watts, scenario_from_config

from conftest import build_point, crandn


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

    @pytest.mark.parametrize("p_t", [0.0, -1.0, math.inf, math.nan],
                             ids=["zero", "negative", "inf", "nan"])
    def test_rejects_unusable_power(self, model_factory, p_t):
        # an infinite power would return the zero vector
        d_est, _, _ = model_factory(seed=5)
        r = np.ones(as_model_matrix(d_est).shape[0])
        with pytest.raises(ValueError, match="positive and finite"):
            ml_estimate(d_est, r, p_t)


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

    @pytest.mark.parametrize("size", [4, 8])
    @pytest.mark.parametrize("spacing", [0.2, 0.5, 2.5])
    def test_first_order_coupling_oracle(self, size, spacing):
        # weak coupling, with plain numpy and no build_B: the first-order
        # model b_true ~ b_est - (b_est M) / D_g gives the bias within 2%.
        # Its error is first order in the coupling strength, relative to
        # the bias; at 0.1 lambda it reaches 5-10% for most seeds
        sc = scenario_from_config({"ris_n1": size, "ris_n2": size,
                                   "ris_spacing_over_lambda": spacing})
        imp = build_impedance_set(sc.tx, sc.rx, sc.ris_radiators(), sc.constants)
        loads = sample_loads(sc)
        d = imp.z_ss_self + loads
        m = imp.z_ss_mutual
        rho = max(np.linalg.norm(m / np.sqrt(np.outer(np.abs(dg), np.abs(dg))), 2)
                  for dg in d)
        assert rho <= 0.15
        b_est = imp.z_rs / d
        b_first = b_est - (b_est @ m) / d
        x0 = np.linalg.lstsq(b_est, b_first @ imp.z_st, rcond=None)[0]
        want = np.linalg.norm(imp.z_st - x0)
        b_true, b_est_lib, z = model_pair(imp, loads)
        assert math.sqrt(bias_trace(b_est_lib, b_true, z)) == pytest.approx(want, rel=0.02)


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
        assert BoundReport(tr_bias=1.0).lb is None
        assert BoundReport(p_t=1.0, gamma=1.0, tr_mcrb=1.0).lb is None


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
        for rhs in (crandn(rng, 20), crandn(rng, (20, 3))):
            want = solve_triangular(factor.r, factor.q.conj().T @ rhs,
                                    check_finite=False)
            assert np.array_equal(factor.solve(rhs), want)

    def test_one_column_model_matches_hand_solution(self):
        # N = 1: R is 1x1, the one shape that is also Fortran-ordered;
        # both estimates are a projection onto one column b
        rng = np.random.default_rng(31)
        b_est, b_true, r = crandn(rng, (6, 1)), crandn(rng, (6, 1)), crandn(rng, 6)
        z = crandn(rng, 1)
        col, p_t = b_est[:, 0], 4.0
        gram = np.vdot(col, col).real
        want_x0 = np.vdot(col, b_true[:, 0]) * z / gram
        want_ml = np.array([np.vdot(col, r) / (gram * math.sqrt(p_t))])
        tight = dict(rel=1e-13, abs=0.0)
        assert pseudo_true(b_est, b_true, z) == pytest.approx(want_x0, **tight)
        assert ml_estimate(b_est, r, p_t) == pytest.approx(want_ml, **tight)
        # the same through the real block forms
        d_est = realify(b_est, includes_mutual_coupling=False)
        d_true = realify(b_true, includes_mutual_coupling=True)
        assert pseudo_true(d_est, d_true, realify_vec(z)) == pytest.approx(
            realify_vec(want_x0), **tight)
        assert ml_estimate(d_est, realify_vec(r), p_t) == pytest.approx(
            realify_vec(want_ml), **tight)


@pytest.fixture(scope="module")
def scenario():
    return scenario_from_config({})


def noiseless_error(d_est, d_true, x, p_t=4.0):
    """||estimate - x|| of the least-squares estimator on noise-free
    observations: the zero-noise limit of the Monte-Carlo RMSE."""
    r = math.sqrt(p_t) * (as_model_matrix(d_true) @ x)
    return float(np.linalg.norm(ml_estimate(d_est, r, p_t) - x))


class TestMcRmse:
    def test_noiseless_mismatched_equals_bias_norm(self, model_factory):
        # without noise the estimate is the pseudo-true parameter, so the
        # error is the bias norm that every mc_rmse row prints
        d_est, d_true, x = model_factory(seed=21)
        want = math.sqrt(bias_trace(d_est, d_true, x))
        assert noiseless_error(d_est, d_true, x) == pytest.approx(want, rel=1e-12)

    def test_noiseless_matched_is_zero(self, model_factory):
        _, d_true, x = model_factory(seed=22)
        assert bias_trace(d_true, d_true, x) == 0.0
        assert noiseless_error(d_true, d_true, x) < 1e-13 * np.linalg.norm(x)

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

    @pytest.mark.parametrize("p_t", [0.0, math.inf, math.nan],
                             ids=["zero", "inf", "nan"])
    def test_rejects_unusable_power(self, scenario, model_factory, p_t):
        # an infinite power would return NaN after a numpy warning
        d_est, d_true, x = model_factory(seed=27)
        with pytest.raises(ValueError, match="positive and finite"):
            mc_rmse(scenario, d_est, d_true, x, p_t, 3, 0)
        with pytest.raises(ValueError, match="positive and finite"):
            bounds.mc_rmse_pairs(scenario, [bounds.FactoredPair(d_est, d_true, x)],
                                 p_t, 3, 0)

    def test_pairs_equal_separate_calls(self, scenario, model_factory):
        # shared noise draws must not couple the pairs' results
        models = [model_factory(seed=s) for s in (30, 31, 32)]
        models[1] = (models[1][1],) + models[1][1:]  # a matched pair
        pairs = [bounds.FactoredPair(*m) for m in models]
        seq = np.random.SeedSequence(3, spawn_key=(1, 5))
        got = bounds.mc_rmse_pairs(scenario, pairs, 2.0, 7, seq)
        want = [mc_rmse(scenario, *m, 2.0, 7, seq) for m in models]
        assert got == want

    def test_rejects_empty_pairs(self, scenario, monkeypatch):
        def no_streams(seq, trials):
            raise AssertionError("noise drawn before the pairs were checked")

        monkeypatch.setattr(bounds, "trial_generators", no_streams)
        with pytest.raises(ValueError, match="pairs must not be empty"):
            bounds.mc_rmse_pairs(scenario, [], 1.0, 3, 0)

    def test_pairs_must_share_observations(self, scenario, model_factory,
                                            monkeypatch):
        # the check comes before any noise is drawn
        def no_streams(seq, trials):
            raise AssertionError("noise drawn before the pairs were checked")

        monkeypatch.setattr(bounds, "trial_generators", no_streams)
        pairs = [bounds.FactoredPair(*model_factory(seed=36, g=g)) for g in (12, 9)]
        with pytest.raises(ValueError, match="pair 0 has 12, pair 1 has 9"):
            bounds.mc_rmse_pairs(scenario, pairs, 1.0, 3, 0)

    def test_noise_layout_oracle(self, scenario, model_factory):
        # real-form reference: each trial's 2G standard normal draws are the
        # stacked [Re; Im] noise of the real block model
        d_est, d_true, x = model_factory(seed=35)
        a, b = as_model_matrix(d_est), as_model_matrix(d_true)
        p_t = scenario.noise.sigma2  # gamma = 1: the noise dominates
        sigma = math.sqrt(scenario.noise.sigma2 / 2.0)
        seq = np.random.SeedSequence(11, spawn_key=(1, 7))
        total = 0.0
        for rng in trial_generators(seq, 20):
            r = math.sqrt(p_t) * (b @ x) + sigma * rng.standard_normal(a.shape[0])
            err = np.linalg.lstsq(a, r, rcond=None)[0] / math.sqrt(p_t) - x
            total += float(err @ err)
        got = mc_rmse(scenario, d_est, d_true, x, p_t, 20, seq)
        assert got == pytest.approx(math.sqrt(total / 20), rel=1e-12)

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


def per_trial_oracle(sigma2, b_est, b_true, z, p_t, trials, seq):
    """Monte-Carlo RMSE one trial at a time in plain numpy: trial t's noise
    is [Re; Im] of 2G standard normals from numpy's own generator of the
    t-th child of ``seq``, and the estimate is ``lstsq`` on B_est."""
    g = b_est.shape[0]
    total = 0.0
    for t in range(trials):
        r = math.sqrt(p_t) * (b_true @ z)
        child = np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key + (t,))
        draws = np.random.default_rng(child).standard_normal(2 * g)
        r = r + math.sqrt(sigma2 / 2.0) * (draws[:g] + 1j * draws[g:])
        err = np.linalg.lstsq(b_est, r, rcond=None)[0] / math.sqrt(p_t) - z
        total += float(np.vdot(err, err).real)
    return math.sqrt(total / trials)


BLOCK = bounds.TRIAL_BLOCK
BLOCK_EDGE_TRIALS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]


class TestTrialBlocks:
    """Trial counts on both sides of the block boundaries, with three pairs:
    two mismatched and one matched (``d_est is d_true``)."""

    @pytest.fixture(scope="class")
    def models(self):
        rng = np.random.default_rng(60)
        out = []
        for mismatch in (0.3, None, 0.05):
            b_true = crandn(rng, (20, 4))
            b_est = b_true if mismatch is None else b_true + mismatch * crandn(rng, (20, 4))
            out.append((b_est, b_true, crandn(rng, 4)))
        return out

    @pytest.mark.parametrize("trials", BLOCK_EDGE_TRIALS)
    def test_pairs_equal_separate_calls(self, scenario, models, trials):
        seq = np.random.SeedSequence(8, spawn_key=(1, 3))
        p_t = 4.0 * scenario.noise.sigma2
        got = bounds.mc_rmse_pairs(scenario, [bounds.FactoredPair(*m) for m in models],
                                   p_t, trials, seq)
        want = [mc_rmse(scenario, *m, p_t, trials, seq) for m in models]
        assert got == want

    @pytest.mark.parametrize("trials", BLOCK_EDGE_TRIALS)
    def test_per_trial_oracle(self, scenario, models, trials):
        seq = np.random.SeedSequence(9, spawn_key=(2, 4))
        p_t = 4.0 * scenario.noise.sigma2
        got = bounds.mc_rmse_pairs(scenario, [bounds.FactoredPair(*m) for m in models],
                                   p_t, trials, seq)
        for rmse, (b_est, b_true, z) in zip(got, models):
            want = per_trial_oracle(scenario.noise.sigma2, b_est, b_true, z, p_t,
                                    trials, seq)
            assert rmse == pytest.approx(want, rel=1e-12)


def error_moments(b_est, b_true, z, sigma2, p_t):
    """Mean and variance of ||e||^2 for the least-squares error
    e = bias + (B_est^H B_est)^-1 B_est^H n / sqrt(P_T) ~ CN(bias, C), with
    C = (sigma2 / P_T) (B_est^H B_est)^-1: the mean is Tr(C) + ||bias||^2,
    the variance Tr(C^2) + 2 bias^H C bias."""
    bias = np.linalg.lstsq(b_est, b_true @ z, rcond=None)[0] - z
    c = (sigma2 / p_t) * np.linalg.inv(b_est.conj().T @ b_est)
    mean = np.trace(c).real + np.vdot(bias, bias).real
    variance = np.trace(c @ c).real + 2.0 * np.vdot(bias, c @ bias).real
    return mean, variance


class TestSamplingLaw:
    """The Monte-Carlo column against its exact sampling law. The mean of T
    independent ||e||^2 has mean lb^2 (least squares attains the
    misspecified bound) and variance Var/T, so z = (rmse^2 - lb^2) /
    sqrt(Var/T) is standard normal up to a skewness below 0.01 at T = 4000.

    Each seed covers the default mc-rmse grid, 10 powers by 3 spacings,
    mismatched and matched: 60 rows, 120 for both seeds. |z| <= 4 has a
    two-sided tail of 6.3e-5 per row, so by the union bound a correct
    estimator fails the test with probability below 0.8%, however the rows
    are correlated (rows at one power share their noise). A noise variance
    off by 2% moves every noise-dominated row by 0.02 Tr(C) / sqrt(Var/T),
    3.6 to 4.5 sigma here, in one direction at 20 independent (seed, power)
    draws; the noise's [Re; Im] split without its 1/2 moves them by ~200."""

    TRIALS = 4000
    Z_LIMIT = 4.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_default_mc_rmse_grid(self, seed):
        base = scenario_from_config({"seed": seed})
        points = [build_point(base.with_overrides(ris_spacing_over_lambda=d))
                  for d in DEFAULT_LB_SPACINGS]
        models = ([(p.d_est, p.d_true, p.x_true) for p in points]
                  + [(p.d_true, p.d_true, p.x_true) for p in points])
        pairs = [bounds.FactoredPair(*m) for m in models]
        sigma2 = base.noise.sigma2
        outliers = []
        for p_dbm in DEFAULT_POWER_GRID_DBM:
            p_t = dbm_to_watts(p_dbm)
            rmses = bounds.mc_rmse_pairs(base, pairs, p_t, self.TRIALS,
                                         noise_seed(base.rng_seed, p_dbm))
            for k, (model, rmse) in enumerate(zip(models, rmses)):
                mean, variance = error_moments(*model, sigma2, p_t)
                z = (rmse ** 2 - mean) / math.sqrt(variance / self.TRIALS)
                if not abs(z) <= self.Z_LIMIT:
                    outliers.append((p_dbm, k, z))
        assert outliers == []


class TestFormIndependence:
    """A complex model and its real 2G x 2N block matrix give equal
    results; vectors come back in the form they were given."""

    def test_every_entry_point_agrees(self, scenario):
        rng = np.random.default_rng(40)
        b_true = crandn(rng, (12, 3))
        b_est = b_true + 0.3 * crandn(rng, (12, 3))
        z, r = crandn(rng, 3), crandn(rng, 12)
        d_true = realify(b_true, includes_mutual_coupling=True)
        d_est = realify(b_est, includes_mutual_coupling=False)
        p_t = scenario.noise.sigma2

        def results(d_est, d_true, x):
            seq = np.random.SeedSequence(5, spawn_key=(1, 2))
            pair = bounds.FactoredPair(d_est, d_true, x)
            return [lower_bound(d_est, d_true, x, 2.0),
                    bias_trace(d_est, d_true, x),
                    mcrb_trace(d_est, 2.0),
                    crlb(d_true, 2.0),
                    mc_rmse(scenario, d_est, d_true, x, p_t, 5, seq),
                    pair.report(p_t, 2.0),
                    bounds.mc_rmse_pairs(scenario, [pair], p_t, 5, seq)]

        assert results(d_est, d_true, realify_vec(z)) == results(b_est, b_true, z)
        assert np.array_equal(pseudo_true(d_est, d_true, realify_vec(z)),
                              realify_vec(pseudo_true(b_est, b_true, z)))
        assert np.array_equal(ml_estimate(d_est, realify_vec(r), 2.0),
                              realify_vec(ml_estimate(b_est, r, 2.0)))
