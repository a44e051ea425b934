"""Estimator and error bounds for the (possibly mismatched) linear model.

Observations follow ``r = sqrt(P_T) * D_true x + noise`` while estimation
uses ``D_est``. For this Gaussian pair the pseudo-true parameter is the
least-squares projection ``x0 = (D_est^T D_est)^{-1} D_est^T D_true x``,
and the mean-square error of any estimator built on the wrong model is
floored by two terms: a covariance part ``Tr((D_est^T D_est)^{-1}) / (2
gamma)`` that vanishes with SNR, plus the SNR-independent squared offset
``||x - x0||^2``. With matched models the offset is zero and the floor is
the classical matched bound.

D is the real block form of a complex G x N model B, and x stacks [Re; Im]
of a complex z. Entry points take either form and compute on B and z
through one complex economy QR of B, with ``Tr((D^T D)^{-1}) = 2
||R^{-1}||_F^2``; explicit inverses appear only in the test suite as oracles. A
reciprocal condition estimate of the triangular factor below
``channel.RCOND_FLOOR`` (the floor the impedance solves use as well)
raises DegenerateDesignError, since traces computed past that point would
be numerical noise. The SNR enters only through ``_covariance_floor``, and
every entry point that takes one requires ``0 < gamma < inf``.

Every bound quantity of a model pair is read from a lazy ``FactoredPair``:
``bias_trace``, ``lower_bound`` and ``mc_rmse`` read a fresh one, a sweep
one per grid point. ``mc_rmse_pairs`` draws each trial's noise once and
reuses it for every pair at that power, estimating ``TRIAL_BLOCK`` trials
per matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._blas import gemm, qr, trcon, trtrs
from .channel import RCOND_FLOOR, _complex_form, realify_vec, trial_generators
from .errors import DegenerateDesignError
from .scenario import Scenario

# Monte-Carlo trials estimated together: at 256 observations the block's
# draws and right-hand sides take 0.5 MB, so they stay in cache.
TRIAL_BLOCK = 64


class _LsqFactor:
    """Economy QR of a complex model matrix with a condition guard.

    A solve is one matrix product and one LAPACK ``trtrs`` call: the call
    ``scipy.linalg.solve_triangular`` makes for a C-ordered R, without that
    wrapper's per-call checks.
    """

    def __init__(self, d, context="model matrix"):
        self.b = _complex_form(d)
        self.q, self.r = qr(self.b)
        rcond, info = trcon(self.r)
        if info != 0 or not np.isfinite(rcond) or rcond < RCOND_FLOOR:
            raise DegenerateDesignError(
                f"{context}: rank deficient (reciprocal condition estimate "
                f"of the triangular factor {rcond:.3e})",
                rcond=float(rcond),
            )

    def _solve_r(self, b):
        """Solve R @ x = b, for a vector or a matrix b. ``qr`` returns R
        C-ordered, so its Fortran-ordered view is R^T: the lower system
        solved transposed."""
        x, info = trtrs(self.r.T, b, lower=True, trans=1)
        if info != 0:
            raise DegenerateDesignError(
                f"triangular solve failed (LAPACK trtrs info {info})")
        return x

    def solve(self, rhs):
        """Least-squares solution argmin ||d @ x - rhs||."""
        return self._solve_r(self.q.conj().T @ rhs)

    def solve_rows(self, rows):
        """Least-squares solution of every row of ``rows``, as the columns
        of the result. The Q^H product runs in the BLAS that ``trtrs`` is
        linked to: numpy's matmul would run in a second OpenBLAS, and two
        threaded runtimes taking turns stall each other: 7x slower per
        power on a 2-vCPU host."""
        return self._solve_r(gemm(1.0, self.q, rows.T, trans_a=2))

    def project(self, d_true, x_true) -> np.ndarray:
        """Complex least-squares projection of d_true @ x_true onto the
        columns of the factored matrix; exactly x_true when models match."""
        b_true, z = _complex_form(d_true), _complex_form(x_true)
        if self.b is b_true or np.array_equal(self.b, b_true):
            return z.copy()
        return self.solve(b_true @ z)

    def inverse_gram_trace(self) -> float:
        """Tr((D^T D)^{-1}) = 2 ||R^{-1}||_F^2 via the triangular factor."""
        r_inv = self._solve_r(np.eye(self.r.shape[0]))
        return 2.0 * float(np.vdot(r_inv, r_inv).real)


def inverse_gram_trace(d) -> float:
    """Tr((D^T D)^{-1}) computed from an orthogonal factorization of D."""
    return _LsqFactor(d).inverse_gram_trace()


def _check_power(p_t: float) -> None:
    """An infinite power would divide every noise term away: the estimate
    would be the zero vector, and the Monte-Carlo error NaN."""
    if not 0.0 < p_t < math.inf:
        raise ValueError(f"transmit power must be positive and finite, got {p_t!r}")


def ml_estimate(d_est, r, p_t: float) -> np.ndarray:
    """Maximum-likelihood channel estimate under the estimation model:
    the least-squares fit of r/sqrt(P_T) against D_est, in the form ``r``
    was given."""
    _check_power(p_t)
    factor = _LsqFactor(d_est, "estimation model")
    z = factor.solve(_complex_form(r)) / math.sqrt(p_t)
    return z if np.iscomplexobj(r) else realify_vec(z)


def pseudo_true(d_est, d_true, x_true) -> np.ndarray:
    """Parameter of the estimation model closest (in expected
    log-likelihood) to the true data distribution: the least-squares
    projection of D_true x onto the column space of D_est, in the form
    ``x_true`` was given."""
    z0 = _LsqFactor(d_est, "estimation model").project(d_true, x_true)
    return z0 if np.iscomplexobj(x_true) else realify_vec(z0)


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
    return FactoredPair(d_est, d_true, x_true).tr_bias


@dataclass(frozen=True)
class BoundReport:
    """Bound components at one operating point; fields a given sweep does
    not evaluate are None. ``lb`` is derived, never stored."""

    p_t: float | None = None
    gamma: float | None = None
    tr_mcrb: float | None = None
    tr_bias: float | None = None
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
    return FactoredPair(d_est, d_true, x_true).report(p_t, gamma)


def crlb(d_true, gamma: float) -> float:
    """Matched-model RMSE bound: sqrt(Tr((D^T D)^{-1}) / (2 gamma)).

    This is the matched specialization of the mismatched bound (zero
    offset term), with the inverse of the normal matrix inside the trace.
    """
    return math.sqrt(mcrb_trace(d_true, gamma))


class FactoredPair:
    """A model pair's power-independent quantities, each computed on first
    read and kept: Tr((D_est^T D_est)^{-1}), the bias trace,
    Tr((D_true^T D_true)^{-1}) and the trial model. The bias never factors
    D_true; a matched pair (``d_est is d_true``) is factored once."""

    def __init__(self, d_est, d_true, x_true):
        self._d_est, self._d_true, self._x_true = d_est, d_true, x_true

    @cached_property
    def _est(self) -> _LsqFactor:
        return _LsqFactor(self._d_est, "estimation model")

    @cached_property
    def inverse_gram_est(self) -> float:
        return self._est.inverse_gram_trace()

    @cached_property
    def inverse_gram_true(self) -> float:
        if self._d_true is self._d_est:
            return self.inverse_gram_est
        return inverse_gram_trace(self._d_true)

    @cached_property
    def tr_bias(self) -> float:
        diff = _complex_form(self._x_true) - self._est.project(self._d_true, self._x_true)
        return float(np.vdot(diff, diff).real)

    @cached_property
    def _trial_model(self):
        """(estimation factor, B_true z, z) of the Monte-Carlo trials."""
        z = _complex_form(self._x_true)
        return self._est, _complex_form(self._d_true) @ z, z

    def crlb(self, gamma: float) -> float:
        """Matched-model RMSE bound of D_true at SNR gamma."""
        _check_snr(gamma)
        return math.sqrt(_covariance_floor(self.inverse_gram_true, gamma))

    def report(self, p_t: float | None, gamma: float) -> BoundReport:
        """The mismatched bound's parts at one SNR."""
        _check_snr(gamma)
        return BoundReport(
            p_t=p_t,
            gamma=gamma,
            tr_mcrb=_covariance_floor(self.inverse_gram_est, gamma),
            tr_bias=self.tr_bias,
        )


def mc_rmse(
    scenario: Scenario,
    d_est,
    d_true,
    x_true,
    p_t: float,
    trials: int,
    noise_seed: np.random.SeedSequence | int,
) -> float:
    """Monte-Carlo RMSE of the least-squares estimator.

    Each trial draws fresh observation noise from its own child stream of
    ``noise_seed``, estimates through ``d_est``, and accumulates the squared
    error against the true parameter. The trials are estimated
    ``TRIAL_BLOCK`` at a time, with one matrix product and one triangular
    solve per block (``mc_rmse_pairs``); a trial's draws come from its
    own stream wherever its block starts, and the errors are summed in
    trial order.
    """
    return mc_rmse_pairs(scenario, [FactoredPair(d_est, d_true, x_true)], p_t,
                         trials, noise_seed)[0]


def mc_rmse_pairs(
    scenario: Scenario,
    pairs: list[FactoredPair],
    p_t: float,
    trials: int,
    noise_seed: np.random.SeedSequence | int,
) -> list[float]:
    """``mc_rmse`` of every pair at one power. Trials run in blocks of
    ``TRIAL_BLOCK``: each trial's noise is drawn once, from its own stream,
    into its row of the block, and every pair estimates the whole block
    with one ``Q^H`` product and one triangular solve. Each pair is
    projected on its own and keeps its own running total in trial order,
    so its result equals (``==``) the separate ``mc_rmse`` call on that
    pair. ``pairs`` must be non-empty and share the number of observations; a
    ``ValueError`` is raised before any draw otherwise, naming both counts
    in the second case."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_power(p_t)
    if not pairs:
        raise ValueError("pairs must not be empty")
    if isinstance(noise_seed, (int, np.integer)):
        noise_seed = np.random.SeedSequence(int(noise_seed))

    models = [pair._trial_model for pair in pairs]
    counts = [signal.shape[0] for _, signal, _ in models]
    for k, count in enumerate(counts):
        if count != counts[0]:
            raise ValueError(f"pairs must share the number of observations: "
                             f"pair 0 has {counts[0]}, pair {k} has {count}")
    means = [np.sqrt(p_t) * signal for _, signal, _ in models]
    sqrt_pt = math.sqrt(p_t)

    # one row per trial: 2G standard normals in the stacked [Re; Im] order
    # of the real form, scaled in place, then each pair's mean plus noise
    observations = counts[0]
    sigma = math.sqrt(scenario.noise.sigma2 / 2.0)
    block = min(TRIAL_BLOCK, trials)
    totals = [0.0] * len(models)
    draws = np.empty((block, 2 * observations))
    rhs = np.empty((block, observations), dtype=complex)
    rngs = trial_generators(noise_seed, trials)
    for start in range(0, trials, block):
        noise, r = draws[:trials - start], rhs[:trials - start]
        for row, rng in zip(noise, rngs):
            rng.standard_normal(out=row)
        noise *= sigma
        for k, ((factor, _, z), mean) in enumerate(zip(models, means)):
            np.add(mean.real, noise[:, :observations], out=r.real)
            np.add(mean.imag, noise[:, observations:], out=r.imag)
            err = factor.solve_rows(r)
            err /= sqrt_pt
            err -= z[:, None]
            err_re, err_im = err.real, err.imag
            squares = np.einsum("ij,ij->j", err_re, err_re)
            squares += np.einsum("ij,ij->j", err_im, err_im)
            for square in squares.tolist():
                totals[k] += square
    return [math.sqrt(total / trials) for total in totals]
