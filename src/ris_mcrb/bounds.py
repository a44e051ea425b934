"""Estimator and error bounds for the (possibly mismatched) linear model.

Observations follow ``r = sqrt(P_T) * D_true x + noise`` while estimation
uses ``D_est``. For this Gaussian pair the pseudo-true parameter is the
least-squares projection ``x0 = (D_est^T D_est)^{-1} D_est^T D_true x``,
and the mean-square error of any estimator built on the wrong model is
floored by two terms: a covariance part ``Tr((D_est^T D_est)^{-1}) / (2
gamma)`` that vanishes with SNR, plus the SNR-independent squared offset
``||x - x0||^2``. With matched models the offset is zero and the floor is
the classical matched bound.

Everything routes through one economy QR factorization of the estimation
matrix; explicit inverses appear only in the test suite as oracles. A
reciprocal condition estimate of the triangular factor below
``channel.RCOND_FLOOR`` (the floor the impedance solves use as well)
raises DegenerateDesignError, since traces computed past that point would
be numerical noise. The SNR enters only through ``_covariance_floor``, and
every entry point that takes one requires ``0 < gamma < inf``.

A power sweep factors each model pair once (``FactoredPair``) and then
composes every row from the pair's power-independent traces; its
Monte-Carlo columns come from ``mc_rmse_pairs``, which draws each trial's
noise once and reuses it for every pair at that power.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs, qr

from .channel import RCOND_FLOOR, as_model_matrix, trial_generators
from .errors import DegenerateDesignError
from .scenario import Scenario


class _LsqFactor:
    """Economy QR of a stacked model matrix with a condition guard.

    LAPACK ``trtrs`` and ``q.T`` are fetched once, so a solve is one
    matrix-vector product and one ``trtrs`` call: the call
    ``scipy.linalg.solve_triangular`` makes for the memory layout of R
    (``qr`` returns it C-ordered, which is solved as the lower system
    R^T), without that wrapper's per-call checks.
    """

    def __init__(self, d, context="model matrix"):
        d = as_model_matrix(d)
        if d.shape[0] < d.shape[1]:
            raise DegenerateDesignError(
                f"{context}: {d.shape[0]} rows cannot identify {d.shape[1]} unknowns"
            )
        self.d = d
        self.q, self.r = qr(d, mode="economic", check_finite=False)
        trcon = get_lapack_funcs("trcon", (self.r,))
        rcond, info = trcon(self.r)
        if info != 0 or not np.isfinite(rcond) or rcond < RCOND_FLOOR:
            raise DegenerateDesignError(
                f"{context}: rank deficient (reciprocal condition estimate "
                f"of the triangular factor {rcond:.3e})",
                rcond=float(rcond),
            )
        self.rcond = float(rcond)
        self._qt = self.q.T
        self._trtrs = get_lapack_funcs("trtrs", (self.r,))
        # trtrs expects Fortran order; a C-ordered R is passed transposed
        if self.r.flags.f_contiguous:
            self._triangle = (self.r, False, 0)
        else:
            self._triangle = (self.r.T, True, 1)

    def _solve_r(self, b):
        """Solve R @ x = b, for a vector or a matrix b."""
        a, lower, trans = self._triangle
        x, info = self._trtrs(a, b, lower=lower, trans=trans)
        if info != 0:
            raise DegenerateDesignError(
                f"triangular solve failed (LAPACK trtrs info {info})")
        return x

    def solve(self, rhs):
        """Least-squares solution argmin ||d @ x - rhs||."""
        return self._solve_r(self._qt @ rhs)

    def project(self, d_true, x_true) -> np.ndarray:
        """Least-squares projection of d_true @ x_true onto the columns of
        the factored matrix; exactly x_true when the models match."""
        d_true = as_model_matrix(d_true)
        x = np.asarray(x_true, dtype=float)
        if self.d is d_true or np.array_equal(self.d, d_true):
            return x.copy()
        return self.solve(d_true @ x)

    def bias_trace(self, d_true, x_true) -> float:
        """Squared distance between x_true and its projection."""
        diff = np.asarray(x_true, dtype=float) - self.project(d_true, x_true)
        return float(diff @ diff)

    def inverse_gram_trace(self) -> float:
        """Tr((d^T d)^{-1}) via the triangular factor."""
        r_inv = self._solve_r(np.eye(self.r.shape[0]))
        return float(np.sum(r_inv * r_inv))


def inverse_gram_trace(d) -> float:
    """Tr((D^T D)^{-1}) computed from an orthogonal factorization of D."""
    return _LsqFactor(d).inverse_gram_trace()


def ml_estimate(d_est, r, p_t: float) -> np.ndarray:
    """Maximum-likelihood channel estimate under the estimation model:
    the least-squares fit of r/sqrt(P_T) against D_est."""
    if not p_t > 0.0:
        raise ValueError("transmit power must be positive")
    factor = _LsqFactor(d_est, "estimation model")
    return factor.solve(np.asarray(r, dtype=float)) / math.sqrt(p_t)


def pseudo_true(d_est, d_true, x_true) -> np.ndarray:
    """Parameter of the estimation model closest (in expected
    log-likelihood) to the true data distribution: the least-squares
    projection of D_true x onto the column space of D_est."""
    return _LsqFactor(d_est, "estimation model").project(d_true, x_true)


def _check_snr(gamma: float) -> float:
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"SNR gamma must be positive and finite, got {gamma!r}")
    return gamma


def snr(p_t: float, sigma2: float) -> float:
    """SNR gamma = P_T / sigma2 of one transmit power. A subnormal noise
    variance can overflow it to inf, which would print zero bounds, so
    it must be positive and finite."""
    return _check_snr(p_t / sigma2)


def _covariance_floor(inverse_gram: float, gamma: float) -> float:
    """Tr((D^T D)^{-1}) / (2 gamma), given the trace; gamma is checked by
    the caller."""
    return inverse_gram / (2.0 * gamma)


def mcrb_trace(d_est, gamma: float) -> float:
    """SNR-dependent covariance floor around the pseudo-true parameter:
    Tr((D_est^T D_est)^{-1}) / (2 gamma)."""
    _check_snr(gamma)
    return _covariance_floor(inverse_gram_trace(d_est), gamma)


def bias_trace(d_est, d_true, x_true) -> float:
    """Squared distance between the true parameter and the pseudo-true
    parameter; independent of transmit power and noise level."""
    return _LsqFactor(d_est, "estimation model").bias_trace(d_true, x_true)


@dataclass(frozen=True)
class BoundReport:
    """Bound components at one operating point; fields a given sweep does
    not evaluate are None. ``lb`` is derived, never stored."""

    p_t: float | None
    gamma: float | None
    tr_mcrb: float | None
    tr_bias: float | None
    crlb: float | None = None
    rmse: float | None = None

    def __post_init__(self):
        for name in ("tr_mcrb", "tr_bias"):
            value = getattr(self, name)
            if value is not None and value < 0.0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    @property
    def lb(self) -> float | None:
        """sqrt(tr_mcrb + tr_bias), or None unless both are set."""
        if self.tr_mcrb is None or self.tr_bias is None:
            return None
        return math.sqrt(self.tr_mcrb + self.tr_bias)


def lower_bound(d_est, d_true, x_true, gamma: float, *, p_t: float | None = None) -> BoundReport:
    """RMSE floor of estimation through ``d_est`` when data follow
    ``d_true``: sqrt of covariance floor plus squared parameter offset."""
    _check_snr(gamma)
    factor = _LsqFactor(d_est, "estimation model")
    return BoundReport(
        p_t=p_t,
        gamma=gamma,
        tr_mcrb=_covariance_floor(factor.inverse_gram_trace(), gamma),
        tr_bias=factor.bias_trace(d_true, x_true),
    )


def crlb(d_true, gamma: float) -> float:
    """Matched-model RMSE bound: sqrt(Tr((D^T D)^{-1}) / (2 gamma)).

    This is the matched specialization of the mismatched bound (zero
    offset term), with the inverse of the normal matrix inside the trace.
    """
    return math.sqrt(mcrb_trace(d_true, gamma))


class FactoredPair:
    """One model pair with both matrices factored once and every
    power-independent quantity computed once: Tr((D_est^T D_est)^{-1}),
    the bias trace, Tr((D_true^T D_true)^{-1}) and D_true x. ``report``
    and ``mc_rmse_pairs`` then only scale them by the power. A matched
    pair (``d_est is d_true``) shares one factorization."""

    def __init__(self, d_est, d_true, x_true):
        est = _LsqFactor(d_est, "estimation model")
        true = est if d_true is d_est else _LsqFactor(d_true)
        x = np.asarray(x_true, dtype=float)
        self.inverse_gram_est = est.inverse_gram_trace()
        self.inverse_gram_true = (self.inverse_gram_est if true is est
                                  else true.inverse_gram_trace())
        self.tr_bias = est.bias_trace(d_true, x)
        self._trial_model = (est, true.d @ x, x)

    def report(self, p_t: float, gamma: float) -> BoundReport:
        """Mismatched bound parts and the matched bound at one SNR."""
        _check_snr(gamma)
        return BoundReport(
            p_t=p_t,
            gamma=gamma,
            tr_mcrb=_covariance_floor(self.inverse_gram_est, gamma),
            tr_bias=self.tr_bias,
            crlb=math.sqrt(_covariance_floor(self.inverse_gram_true, gamma)),
        )


def _mc_rmse(scenario, models, p_t, trials, noise_seed, noiseless) -> list[float]:
    """Monte-Carlo RMSE of each ``(estimation factor, D_true x, x)`` model,
    trials outside and models inside, so each trial's noise is drawn once
    and added to every model's mean. Each model keeps its own running
    total in trial order, so its result does not depend on the others."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not p_t > 0.0:
        raise ValueError("transmit power must be positive")
    if isinstance(noise_seed, (int, np.integer)):
        noise_seed = np.random.SeedSequence(int(noise_seed))

    means = [np.sqrt(p_t) * signal for _, signal, _ in models]
    sqrt_pt = math.sqrt(p_t)
    if noiseless:
        noises = itertools.repeat(None, trials)
    else:
        sigma = math.sqrt(scenario.noise.sigma2 / 2.0)
        size = means[0].shape[0]
        noises = (sigma * rng.standard_normal(size)
                  for rng in trial_generators(noise_seed, trials))

    totals = [0.0] * len(models)
    for noise in noises:
        for k, ((factor, _, x), mean) in enumerate(zip(models, means)):
            r = mean if noise is None else mean + noise
            err = factor.solve(r) / sqrt_pt - x
            totals[k] += float(err @ err)
    return [math.sqrt(total / trials) for total in totals]


def mc_rmse(
    scenario: Scenario,
    d_est,
    d_true,
    x_true,
    p_t: float,
    trials: int,
    noise_seed: np.random.SeedSequence | int,
    *,
    noiseless: bool = False,
) -> float:
    """Monte-Carlo RMSE of the least-squares estimator.

    Each trial draws fresh observation noise from its own child stream of
    ``noise_seed`` (trials are therefore order-independent and could be
    evaluated in parallel), estimates through ``d_est``, and accumulates
    the squared error against the true parameter. ``noiseless`` trials
    draw nothing and build no streams. This is the one-pair case of
    ``mc_rmse_pairs``, with the same bits.
    """
    x = np.asarray(x_true, dtype=float)
    model = (_LsqFactor(d_est, "estimation model"), as_model_matrix(d_true) @ x, x)
    (rmse,) = _mc_rmse(scenario, [model], p_t, trials, noise_seed, noiseless)
    return rmse


def mc_rmse_pairs(
    scenario: Scenario,
    pairs: list[FactoredPair],
    p_t: float,
    trials: int,
    noise_seed: np.random.SeedSequence | int,
    *,
    noiseless: bool = False,
) -> list[float]:
    """``mc_rmse`` of every pair at one power, all pairs seeing the same
    per-trial noise draws; each result equals (``==``) the separate
    ``mc_rmse`` call on that pair. The pairs must share the number of
    observations."""
    return _mc_rmse(scenario, [pair._trial_model for pair in pairs], p_t,
                    trials, noise_seed, noiseless)
