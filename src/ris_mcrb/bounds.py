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
be numerical noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs, qr, solve_triangular

from .channel import RCOND_FLOOR, as_model_matrix, trial_generators
from .errors import DegenerateDesignError
from .scenario import Scenario


class _LsqFactor:
    """Economy QR of a stacked model matrix with a condition guard."""

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

    def solve(self, rhs):
        """Least-squares solution argmin ||d @ x - rhs||."""
        return solve_triangular(self.r, self.q.T @ rhs, check_finite=False)

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
        r_inv = solve_triangular(self.r, np.eye(self.r.shape[0]), check_finite=False)
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


def mcrb_trace(d_est, gamma: float) -> float:
    """SNR-dependent covariance floor around the pseudo-true parameter:
    Tr((D_est^T D_est)^{-1}) / (2 gamma)."""
    if not gamma > 0.0:
        raise ValueError("SNR gamma must be positive")
    return inverse_gram_trace(d_est) / (2.0 * gamma)


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
    if not gamma > 0.0:
        raise ValueError("SNR gamma must be positive")
    factor = _LsqFactor(d_est, "estimation model")
    return BoundReport(
        p_t=p_t,
        gamma=gamma,
        tr_mcrb=factor.inverse_gram_trace() / (2.0 * gamma),
        tr_bias=factor.bias_trace(d_true, x_true),
    )


def crlb(d_true, gamma: float) -> float:
    """Matched-model RMSE bound: sqrt(Tr((D^T D)^{-1}) / (2 gamma)).

    This is the matched specialization of the mismatched bound (zero
    offset term), with the inverse of the normal matrix inside the trace.
    """
    return math.sqrt(mcrb_trace(d_true, gamma))


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
    the squared error against the true parameter.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not p_t > 0.0:
        raise ValueError("transmit power must be positive")
    if isinstance(noise_seed, (int, np.integer)):
        noise_seed = np.random.SeedSequence(int(noise_seed))

    factor = _LsqFactor(d_est, "estimation model")
    d_true_m = as_model_matrix(d_true)
    x = np.asarray(x_true, dtype=float)
    mean = np.sqrt(p_t) * (d_true_m @ x)
    sigma = math.sqrt(scenario.noise.sigma2 / 2.0)
    sqrt_pt = math.sqrt(p_t)

    total = 0.0
    for rng in trial_generators(noise_seed, trials):
        r = mean if noiseless else mean + sigma * rng.standard_normal(mean.shape[0])
        err = factor.solve(r) / sqrt_pt - x
        total += float(err @ err)
    return math.sqrt(total / trials)
