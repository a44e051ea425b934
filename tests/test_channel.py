import dataclasses
import multiprocessing
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from ris_mcrb import _parallel, bounds, channel
from ris_mcrb._parallel import single_threaded_blas
from ris_mcrb.channel import (
    CONTRACTION_LIMIT,
    RCOND_FLOOR,
    build_B,
    complexify_vec,
    model_pair,
    noise_seed,
    realify,
    realify_vec,
    sample_loads,
    substream,
    trial_generators,
)
from ris_mcrb.errors import SingularModelError
from ris_mcrb.impedance import ImpedanceSet, build_impedance_set
from ris_mcrb.scenario import scenario_from_config

from conftest import crandn


def symmetric_system(rng, n, diag_boost=4.0):
    m = crandn(rng, (n, n))
    m = m + m.T  # complex-symmetric like a reciprocal impedance matrix
    m[np.arange(n), np.arange(n)] += diag_boost
    return m


class TestSampleLoads:
    def test_degenerate_ranges_give_point_loads(self):
        sc = scenario_from_config({
            "load_r_min_ohm": 3.0, "load_r_max_ohm": 3.0,
            "load_l_min_nh": 2.0, "load_l_max_nh": 2.0,
        })
        want = 3.0 + 1j * sc.constants.omega * 2.0e-9
        assert np.allclose(sample_loads(sc), want, rtol=1e-12)

    def test_samples_inside_box_and_uniform(self):
        # 640 transmissions x 16 elements -> 10240 samples per component
        sc = scenario_from_config({"num_transmissions": 640})
        loads = sample_loads(sc)
        resistance = loads.real
        inductance_nh = loads.imag / sc.constants.omega * 1e9
        assert resistance.min() >= 0.1 and resistance.max() <= 10.1
        assert inductance_nh.min() >= 0.1 and inductance_nh.max() <= 10.1
        for samples in (resistance.ravel(), inductance_nh.ravel()):
            assert samples.size >= 10_000
            p = stats.kstest(samples, "uniform", args=(0.1, 10.0)).pvalue
            assert p > 0.01

    def test_same_seed_bit_identical(self):
        sc = scenario_from_config({})
        assert np.array_equal(sample_loads(sc), sample_loads(sc))

    def test_independent_of_other_streams(self):
        sc = scenario_from_config({})
        a = sample_loads(sc)
        # drawing noise elsewhere must not disturb the load substream
        substream(sc.rng_seed, 1, 12345).standard_normal(10_000)
        assert np.array_equal(a, sample_loads(sc))

    def test_empty_range_rejected(self):
        sc = scenario_from_config({})
        broken = dataclasses.replace(sc, load_resistance_range=(5.0, 1.0))
        with pytest.raises(ValueError):
            sample_loads(broken)

    def test_loads_strictly_inductive(self):
        sc = scenario_from_config({})
        assert np.all(sample_loads(sc).imag > 0.0)

    def test_result_is_read_only(self):
        sc = scenario_from_config({})
        loads = sample_loads(sc)
        assert loads.shape == (sc.num_transmissions, sc.ris.num_elements)
        assert loads.dtype == complex
        assert not loads.flags.writeable
        with pytest.raises(ValueError):
            loads[0, 0] = -5j

    def test_calls_return_equal_distinct_arrays(self):
        sc = scenario_from_config({})
        a, b = sample_loads(sc), sample_loads(sc)
        assert np.array_equal(a, b)
        assert not np.shares_memory(a, b)


def assert_numpy_children(seq, trials):
    """Every stream ``trial_generators`` yields has the state and the first
    draws of numpy's own ``default_rng`` of the per-trial child sequence."""
    count = 0
    for t, rng in enumerate(trial_generators(seq, trials)):
        child = np.random.SeedSequence(seq.entropy, spawn_key=tuple(seq.spawn_key) + (t,))
        want = np.random.default_rng(child)
        assert rng.bit_generator.state == want.bit_generator.state, t
        assert np.array_equal(rng.standard_normal(512), want.standard_normal(512)), t
        count += 1
    assert count == trials


class TestTrialGenerators:
    """The bulk derivation reproduces numpy's SeedSequence children."""

    @settings(deadline=None, max_examples=60)
    @given(entropy=st.one_of(st.integers(0, 2**160),
                             st.lists(st.integers(0, 2**70), max_size=6)),
           spawn_key=st.lists(st.integers(0, 2**70), max_size=3),
           pool_size=st.sampled_from([4, 8]),
           trials=st.integers(0, 9),
           chunk=st.integers(1, 4))
    def test_numpy_oracle(self, entropy, spawn_key, pool_size, trials, chunk):
        seq = np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size)
        with mock.patch.object(channel, "TRIAL_CHUNK", chunk):
            assert_numpy_children(seq, trials)

    @pytest.mark.parametrize("seq", [
        np.random.SeedSequence(42),  # an int seed: mc_rmse(..., 42)
        np.random.SeedSequence(2**32 + 5, spawn_key=(1,)),
        np.random.SeedSequence([7, 2**40, 0]),
        noise_seed(3, 1e6),  # a spawn key word past 2**32
        np.random.SeedSequence(9, spawn_key=(1, 2), pool_size=8),
    ], ids=["int", "entropy-2**32", "sequence", "power-1e6", "pool-8"])
    def test_named_seeds(self, seq):
        assert_numpy_children(seq, 6)

    def test_across_a_chunk_boundary(self):
        assert_numpy_children(noise_seed(0, 30.0), channel.TRIAL_CHUNK + 3)

    def test_trial_index_must_fit_one_word(self):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            trial_generators(noise_seed(0, 30.0), 2**32)

    def test_power_below_the_keyable_range_rejected(self):
        # the key is the power in 0.1 mdBm, offset by 2**31
        assert noise_seed(0, -214748.3648).spawn_key == (channel.NOISE_STREAM, 0)
        with pytest.raises(ValueError, match="keyable range"):
            noise_seed(0, -214748.3649)


def e2e_channel(z_rs, z_ss_total, z_ris_g, z_st) -> complex:
    """Scalar end-to-end channel ``z_rs^T (Z_ss + diag(z_ris_g))^{-1} z_st``
    for one configuration, through numpy's dense solve: an oracle that
    shares no code with ``build_B``."""
    z = np.asarray(z_ss_total, dtype=complex) + np.diag(z_ris_g)
    return complex(np.asarray(z_rs) @ np.linalg.solve(z, z_st))


class TestE2EChannel:
    def test_scalar_closed_form(self):
        z_rs, z_st = np.array([2.0 + 1j]), np.array([3.0 - 2j])
        z_ss = np.array([[5.0 + 0.5j]])
        z_ris = np.array([1.0 + 2j])
        got = e2e_channel(z_rs, z_ss, z_ris, z_st)
        assert got == pytest.approx(z_rs[0] * z_st[0] / (z_ss[0, 0] + z_ris[0]), rel=1e-14)

    def test_linearity_zero_channel(self):
        rng = np.random.default_rng(3)
        z = symmetric_system(rng, 3)
        got = e2e_channel(crandn(rng, (3,)), z, crandn(rng, (3,)) + 5j, np.zeros(3))
        assert got == 0.0

    def test_matches_explicit_inverse_oracle(self):
        rng = np.random.default_rng(7)
        n = 4
        z_ss = symmetric_system(rng, n)
        z_ris = crandn(rng, (n,)) + 3j
        z_rs, z_st = crandn(rng, (n,)), crandn(rng, (n,))
        want = z_rs @ np.linalg.inv(z_ss + np.diag(z_ris)) @ z_st
        got = e2e_channel(z_rs, z_ss, z_ris, z_st)
        assert got == pytest.approx(want, rel=1e-10)


class TestBuildB:
    def test_rows_reproduce_e2e_channel(self):
        rng = np.random.default_rng(11)
        n, g = 3, 5
        z_self = crandn(rng, (n,)) + 4.0
        z_mut = symmetric_system(rng, n, diag_boost=0.0)
        z_mut[np.arange(n), np.arange(n)] = 0.0
        loads = crandn(rng, (g, n)) + 5j
        z_rs, z_st = crandn(rng, (n,)), crandn(rng, (n,))
        b = build_B(z_rs, z_self, z_mut, loads)
        z_ss = np.diag(z_self) + z_mut
        for row in range(g):
            want = e2e_channel(z_rs, z_ss, loads[row], z_st)
            assert b[row] @ z_st == pytest.approx(want, rel=1e-12)

    def test_scalar_mismatched_model(self):
        z_rs = np.array([1.5 - 0.5j])
        z_self = np.array([2.0 + 1j])
        loads = np.array([[0.5 + 2j], [1.0 + 1j], [0.1 + 3j]])
        b = build_B(z_rs, z_self, None, loads)
        want = z_rs[0] / (z_self[0] + loads[:, 0])
        assert np.allclose(b[:, 0], want, rtol=1e-14)

    def test_matches_per_row_inverse_oracle(self):
        rng = np.random.default_rng(13)
        g, n = 3, 2
        z_self = crandn(rng, (n,)) + 4.0
        z_mut = np.array([[0.0, 0.3 + 0.1j], [0.3 + 0.1j, 0.0]])
        loads = crandn(rng, (g, n)) + 4j
        z_rs = crandn(rng, (n,))
        b = build_B(z_rs, z_self, z_mut, loads)
        for row in range(g):
            z = np.diag(z_self) + z_mut + np.diag(loads[row])
            want = z_rs @ np.linalg.inv(z)
            assert np.allclose(b[row], want, rtol=1e-10)

    @pytest.mark.parametrize("mutual", [None, np.zeros((2, 2))], ids=["unaware", "aware"])
    @pytest.mark.parametrize("shape", [(2,), (3, 3)], ids=["vector", "n-plus-one"])
    def test_loads_must_be_g_by_n(self, mutual, shape):
        # the one check that loads get: a (G, N) array for N elements
        with pytest.raises(ValueError, match=r"^loads must be \(G, 2\)"):
            build_B(np.ones(2), np.ones(2), mutual, np.full(shape, 1.0 + 1.0j))

    @pytest.mark.parametrize("case", ["non-symmetric", "nonzero-diagonal", "wrong-shape"])
    def test_mutual_part_must_be_reciprocal(self, case):
        # the coupling-aware branch takes only the mutual part of a
        # reciprocal multiport, checked as ImpedanceSet checks it; the
        # non-symmetric part is strong enough to send every row to LU
        n = 4
        mutual = 2.0 * (np.ones((n, n)) - np.eye(n)) + 0j
        if case == "non-symmetric":
            mutual[0, 1] += 0.5
        elif case == "nonzero-diagonal":
            mutual[2, 2] = 1e-3
        else:
            mutual = mutual[:, :3]
        ones = np.ones(n, dtype=complex)
        with pytest.raises(ValueError) as rejected:
            ImpedanceSet(z_st=ones, z_rs=ones, z_ss_self=ones, z_ss_mutual=mutual)
        with pytest.raises(ValueError) as exc_info:
            build_B(ones, np.full(n, 5.0 + 1.0j), mutual, np.full((2, n), 1.0 + 0j))
        assert str(exc_info.value) == str(rejected.value)

    def test_singular_system_reports_condition(self):
        z_self = np.ones(2, dtype=complex)
        z_mut = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(SingularModelError) as exc_info:
            build_B(np.ones(2, dtype=complex), z_self, z_mut, np.zeros((1, 2)))
        assert exc_info.value.rcond is not None

    def test_singular_row_reports_index(self):
        z_rs = np.ones(2, dtype=complex)
        z_self = np.array([1.0, 1.0], dtype=complex)
        z_mut = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        loads = np.array([[1j, 1j], [0.0, 0.0]])  # second row singular
        with pytest.raises(SingularModelError, match="configuration 1"):
            build_B(z_rs, z_self, z_mut, loads)

    def test_mutual_coupling_continuity(self):
        rng = np.random.default_rng(17)
        n, g = 4, 6
        z_self = crandn(rng, (n,)) + 5.0
        z_mut = symmetric_system(rng, n, diag_boost=0.0)
        z_mut[np.arange(n), np.arange(n)] = 0.0
        loads = crandn(rng, (g, n)) + 5j
        z_rs = crandn(rng, (n,))
        b_mismatched = build_B(z_rs, z_self, None, loads)
        gaps = []
        for eps in (1e-2, 1e-6, 1e-10):
            b_eps = build_B(z_rs, z_self, eps * z_mut, loads)
            gaps.append(np.abs(b_eps - b_mismatched).max())
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-9 * np.abs(b_mismatched).max()


def gecon_rcond(z):
    """LAPACK's 1-norm reciprocal condition estimate of ``z``."""
    getrf, gecon = get_lapack_funcs(("getrf", "gecon"), (z,))
    lu, _, _ = getrf(z)
    return gecon(lu, np.linalg.norm(z, 1))[0]


def lu_rows(z_rs, z_self, z_mut, loads):
    """Reference model rows through scipy's lu_factor/lu_solve wrappers."""
    n = len(z_rs)
    rows = []
    for load in loads:
        z = np.array(z_mut, dtype=complex)
        z[np.arange(n), np.arange(n)] += z_self
        z[np.arange(n), np.arange(n)] += load
        rows.append(lu_solve(lu_factor(z), z_rs))
    return np.array(rows, dtype=complex).reshape(len(loads), n)


def iterated_rows(z_self, z_mut, loads):
    """Rows the contraction bound sends to the iteration, from its
    definition with dense numpy: ``q_g = ||D_g^{-1/2} M D_g^{-1/2}||_F`` below
    ``CONTRACTION_LIMIT`` and ``rcond(D_g) (1 - q_g) / ((1 + q_g) N)`` at
    least ``RCOND_FLOOR``, for a zero-diagonal ``z_mut``."""
    n = len(z_self)
    mask = []
    for load in loads:
        mag = np.abs(z_self + load)
        q = np.linalg.norm(np.abs(z_mut) / np.sqrt(np.outer(mag, mag)))
        rcond = mag.min() / mag.max() * (1.0 - q) / ((1.0 + q) * n)
        mask.append(bool(q < CONTRACTION_LIMIT and rcond >= RCOND_FLOOR))
    return np.array(mask)


def assert_rows_near_solve(b, z_rs, z_self, z_mut, loads, ulps):
    """Each row of ``b`` is within ``ulps`` of ``z_rs^T (Z_ss +
    diag(load))^{-1}`` through numpy's dense solve."""
    for row, load in enumerate(loads):
        want = np.linalg.solve((np.diag(z_self + load) + z_mut).T, z_rs)
        err = np.linalg.norm(b[row] - want)
        assert err <= ulps * np.finfo(float).eps * np.linalg.norm(want), row


def factor_contexts(monkeypatch):
    """Record the context of every LU factorization build_B runs."""
    real = channel._factor
    contexts = []

    def wrapper(z, anorm, context, certified):
        contexts.append(context)
        return real(z, anorm, context, certified)

    monkeypatch.setattr(channel, "_factor", wrapper)
    return contexts


def mixed_system(seed, g, n):
    """Weak mutual coupling with loads that alternate between rows the
    contraction bound accepts (large diagonal) and rows it rejects
    (diagonal near 1 + 1j)."""
    rng = np.random.default_rng(seed)
    z_self = crandn(rng, (n,)) + 5.0
    z_mut = 0.1 * symmetric_system(rng, n, diag_boost=0.0)
    z_mut[np.arange(n), np.arange(n)] = 0.0
    loads = crandn(rng, (g, n)) + 20j
    loads[1::2] = 0.1 * crandn(rng, (g // 2, n)) + (1.0 + 1j) - z_self
    return crandn(rng, (n,)), z_self, z_mut, loads


class TestBuildBPaths:
    def test_unaware_rows_match_solve_oracle(self):
        rng = np.random.default_rng(41)
        g, n = 40, 9
        z_self = crandn(rng, (n,)) + 3.0
        loads = crandn(rng, (g, n)) + 4j
        z_rs = crandn(rng, (n,))
        b = build_B(z_rs, z_self, None, loads)
        for row in range(g):
            z = np.diag(z_self + loads[row])
            want = np.linalg.solve(z.T, z_rs)
            assert np.linalg.norm(b[row] - want) <= 1e-15 * np.linalg.norm(want)

    @pytest.mark.parametrize("seed", range(5))
    def test_unaware_guard_is_exact_diagonal_rcond(self, seed):
        # rows whose diagonal spans more than 1/RCOND_FLOOR in magnitude are
        # rejected, and the rcond they carry is what gecon reports
        rng = np.random.default_rng(seed)
        n = 6
        z_self = crandn(rng, (n,))
        d = crandn(rng, (n,))
        d[rng.integers(n)] *= 10.0 ** rng.uniform(-17.0, -14.0)
        loads = np.stack([z_self + 1.0 + 1j, d - z_self])
        with pytest.raises(SingularModelError, match="configuration 1") as exc_info:
            build_B(np.ones(n, dtype=complex), z_self, None, loads)
        want = gecon_rcond(np.diag(z_self + loads[1]))
        assert want < RCOND_FLOOR
        assert exc_info.value.rcond == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_diagonal_rcond_matches_gecon(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            d = crandn(rng, (8,)) * 10.0 ** rng.uniform(-6.0, 6.0, 8)
            mag = np.abs(d)
            assert mag.min() / mag.max() == pytest.approx(
                gecon_rcond(np.diag(d)), rel=1e-14)

    @pytest.mark.parametrize("zero_row", [
        [-(1.0 + 1.0j), 1j],      # one diagonal entry exactly zero
        [-(1.0 + 1.0j), -2.0],    # whole diagonal zero: rcond is not finite
    ])
    def test_singular_unaware_row_reports_index_and_rcond(self, zero_row):
        z_self = np.array([1.0 + 1.0j, 2.0])
        loads = np.array([[1j, 1j], [1j, 2j], zero_row])
        with pytest.raises(SingularModelError, match="configuration 2") as exc_info:
            build_B(np.ones(2, dtype=complex), z_self, None, loads)
        rcond = exc_info.value.rcond
        assert rcond is not None
        assert not rcond >= RCOND_FLOOR

    @pytest.mark.parametrize("g, n", [(1, 1), (7, 4), (12, 16), (3, 33)])
    def test_aware_rows_bit_identical_to_lu_wrappers(self, g, n):
        # rows the contraction bound routes to LU are bit-identical to
        # scipy's wrappers; iterated rows (n = 1, where M = 0) are within a
        # few ulps of a dense solve
        rng = np.random.default_rng(100 * g + n)
        z_self = crandn(rng, (n,)) + 5.0
        z_mut = symmetric_system(rng, n, diag_boost=0.0)
        z_mut[np.arange(n), np.arange(n)] = 0.0
        loads = crandn(rng, (g, n)) + 5j
        z_rs = crandn(rng, (n,))
        b = build_B(z_rs, z_self, z_mut, loads)
        iterated = iterated_rows(z_self, z_mut, loads)
        lu = ~iterated
        assert np.array_equal(b[lu], lu_rows(z_rs, z_self, z_mut, loads[lu]))
        assert_rows_near_solve(b[iterated], z_rs, z_self, z_mut, loads[iterated], 4)

    def test_mixed_rows_match_solve_oracle(self, monkeypatch):
        # one loads array with rows on both paths, across two row chunks
        g, n = 2 * channel.JACOBI_CHUNK + 6, 12
        z_rs, z_self, z_mut, loads = mixed_system(51, g, n)
        iterated = iterated_rows(z_self, z_mut, loads)
        assert iterated[::2].all() and not iterated[1::2].any()
        contexts = factor_contexts(monkeypatch)
        b = build_B(z_rs, z_self, z_mut, loads)
        assert contexts == [f"configuration {row}" for row in range(1, g, 2)]
        assert_rows_near_solve(b, z_rs, z_self, z_mut, loads, 8)
        lu = ~iterated
        assert np.array_equal(b[lu], lu_rows(z_rs, z_self, z_mut, loads[lu]))

    def test_ill_conditioned_diagonal_reaches_lu(self, monkeypatch):
        # a tiny mutual part keeps q far below the limit, but a diagonal
        # spread of about 4.5e12 leaves the guaranteed rcond (divided by
        # N = 4) under RCOND_FLOOR, so the row is LU-factored, and its own
        # estimate (about 2.2e-13) passes
        n = 4
        z_self = np.full(n, 1.0 + 1.0j)
        z_mut = 1e-9 * (np.ones((n, n)) - np.eye(n))
        loads = np.array([[1j] * n, [1e13j, 1j, 1j, 1j]])
        iterated = iterated_rows(z_self, z_mut, loads)
        assert iterated.tolist() == [True, False]
        assert gecon_rcond(np.diag(z_self + loads[1]) + z_mut) >= RCOND_FLOOR
        contexts = factor_contexts(monkeypatch)
        z_rs = np.arange(1.0, n + 1.0) + 0j
        b = build_B(z_rs, z_self, z_mut, loads)
        assert contexts == ["configuration 1"]
        assert np.array_equal(b[1:], lu_rows(z_rs, z_self, z_mut, loads[1:]))

    def test_weak_row_with_singular_diagonal_raises(self):
        # weakly coupled rows whose diagonal rcond is below RCOND_FLOOR are
        # not iterated: the LU guard rejects the one that is singular
        n = 4
        z_self = np.array([0.0, 1.0 + 1.0j, 1.0 + 1.0j, 1.0 + 1.0j])
        z_mut = 1e-20 * (np.ones((n, n)) - np.eye(n))
        z_mut[0, :] = z_mut[:, 0] = 0.0  # element 0 decoupled
        loads = np.array([[1j] * n, [1j] * n, [1e-17j, 1j, 1j, 1j]])
        assert iterated_rows(z_self, z_mut, loads).tolist() == [True, True, False]
        with pytest.raises(SingularModelError, match="configuration 2") as exc_info:
            build_B(np.ones(n, dtype=complex), z_self, z_mut, loads)
        assert exc_info.value.rcond < RCOND_FLOOR
        want = gecon_rcond(np.diag(z_self + loads[2]) + z_mut)
        assert exc_info.value.rcond == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("sweeps", [1, 2])
    def test_rows_at_sweep_cap_are_lu_solved(self, monkeypatch, sweeps):
        g, n = 10, 12
        z_rs, z_self, z_mut, loads = mixed_system(53, g, n)
        assert iterated_rows(z_self, z_mut, loads)[::2].all()
        monkeypatch.setattr(channel, "JACOBI_MAX_SWEEPS", sweeps)
        contexts = factor_contexts(monkeypatch)
        b = build_B(z_rs, z_self, z_mut, loads)
        # no row meets the stopping rule within the cap, so every row,
        # iterated or not, comes from the LU factorization
        assert contexts == [f"configuration {row}" for row in range(g)]
        assert np.array_equal(b, lu_rows(z_rs, z_self, z_mut, loads))

    def test_aware_scenario_rows_bit_identical_to_lu_wrappers(self, point_002):
        imp = point_002.impedances
        loads = point_002.loads[:8]
        b = build_B(imp.z_rs, imp.z_ss_self, imp.z_ss_mutual, loads)
        want = lu_rows(imp.z_rs, imp.z_ss_self, imp.z_ss_mutual, loads)
        assert np.array_equal(b, want)


@pytest.fixture
def spare(monkeypatch):
    """Two spare CPUs for this process's build_B calls."""
    spare = multiprocessing.get_context().Semaphore(2)
    monkeypatch.setattr(_parallel, "_worker", (None, spare))
    return spare


def chunk_threads(monkeypatch, slow=None):
    """Record, per build_B chunk, whether the calling (main) thread ran it.

    With ``slow="main"`` the calling thread sleeps 5 ms before each of its
    chunks, so helper threads get some of them. With ``slow="helper"`` its
    first chunk waits until a helper has begun one, and each helper sleeps
    before each of its chunks, so they end after the calling thread's."""
    real = channel._contraction
    on_main = []
    helper_began = threading.Event()

    def wrapper(mag, coupling):
        main = threading.current_thread() is threading.main_thread()
        on_main.append(main)
        if slow == "main" and main:
            time.sleep(0.005)
        elif slow == "helper" and main and on_main.count(True) == 1:
            assert helper_began.wait(10.0)
        elif slow == "helper" and not main:
            helper_began.set()
            time.sleep(0.02)
        return real(mag, coupling)

    monkeypatch.setattr(channel, "_contraction", wrapper)
    return on_main


def assert_helpers_done(spare, units):
    assert [t for t in threading.enumerate() if t.name == "build_B helper"] == []
    assert spare.get_value() == units


def helper_system(kind, g, n=12):
    """A system whose coupling-aware rows all take the LU path, all take
    the iteration, or alternate between them."""
    if kind == "mixed":
        return mixed_system(57, g, n)
    rng = np.random.default_rng(59)
    z_self = crandn(rng, (n,)) + 5.0
    z_mut = symmetric_system(rng, n, diag_boost=0.0)
    z_mut[np.arange(n), np.arange(n)] = 0.0
    loads = crandn(rng, (g, n)) + 5j
    if kind == "jacobi":
        z_mut *= 0.01
        loads += 20j
    return crandn(rng, (n,)), z_self, z_mut, loads


class TestBuildBHelpers:
    """build_B chunks on helper threads, one per spare CPU, give the
    serial rows and failures, and leave no thread and every unit behind."""

    CHUNK = channel.JACOBI_CHUNK

    @pytest.mark.parametrize("slow", ["main", "helper"])
    @pytest.mark.parametrize("kind, g", [
        ("lu", 3 * CHUNK + 5),
        ("jacobi", 4 * CHUNK),
        ("mixed", 2 * CHUNK + 6),
        ("mixed", 5 * CHUNK + 1),
    ])
    def test_rows_equal_serial_rows(self, monkeypatch, spare, kind, g, slow):
        z_rs, z_self, z_mut, loads = helper_system(kind, g)
        iterated = iterated_rows(z_self, z_mut, loads)
        assert {"lu": not iterated.any(), "jacobi": iterated.all(),
                "mixed": 0 < iterated.sum() < g}[kind]
        with single_threaded_blas():
            monkeypatch.setattr(_parallel, "_worker", (None, None))
            serial = build_B(z_rs, z_self, z_mut, loads)
            monkeypatch.setattr(_parallel, "_worker", (None, spare))
            on_main = chunk_threads(monkeypatch, slow)
            helped = build_B(z_rs, z_self, z_mut, loads)
        assert len(on_main) == -(-g // self.CHUNK)
        assert not all(on_main)
        assert np.array_equal(helped, serial)
        assert_helpers_done(spare, 2)

    def test_outside_a_worker_chunks_run_in_order_on_the_caller(self, monkeypatch):
        # this process is no sweep worker, so it has no spare CPUs: every chunk
        # runs on the calling thread, in increasing order, and no thread starts
        assert _parallel._worker == (None, None)
        z_rs, z_self, z_mut, loads = helper_system("lu", 3 * self.CHUNK + 5)
        real = channel._contraction
        seen = []

        def record(mag, coupling):
            seen.append((threading.current_thread() is threading.main_thread(),
                         mag.copy()))
            return real(mag, coupling)

        def refuse(thread):
            raise AssertionError(f"thread {thread.name!r} was started")

        monkeypatch.setattr(channel, "_contraction", record)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        b = build_B(z_rs, z_self, z_mut, loads)
        chunks = [np.abs(z_self + loads[k:k + self.CHUNK])
                  for k in range(0, len(loads), self.CHUNK)]
        assert [main for main, _ in seen] == [True] * len(chunks) == [True] * 4
        for (_, mag), want in zip(seen, chunks):
            assert np.array_equal(mag, want)
        assert np.array_equal(b, lu_rows(z_rs, z_self, z_mut, loads))

    def test_many_helpers_with_a_short_switch_interval(self, monkeypatch):
        # more units than cores, and thread switches every microsecond: the
        # chunks, the semaphore count and the failure record must stay exact
        spare = multiprocessing.get_context().Semaphore(8)
        z_rs, z_self, z_mut, loads = helper_system("mixed", 12 * self.CHUNK + 3)
        with single_threaded_blas():
            serial = build_B(z_rs, z_self, z_mut, loads)
            monkeypatch.setattr(_parallel, "_worker", (None, spare))
            on_main = chunk_threads(monkeypatch, "main")
            floors = counting(monkeypatch, "_resistance_floor")
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                helped = [build_B(z_rs, z_self, z_mut, loads) for _ in range(3)]
            finally:
                sys.setswitchinterval(interval)
        assert not all(on_main)
        for b in helped:
            assert np.array_equal(b, serial)
        # the LU rows' shared certificate is computed once per call
        assert len(floors) == 3
        assert_helpers_done(spare, 8)

    def test_workers_holding_every_unit_leave_no_helper(self, monkeypatch):
        # every CPU runs a sweep task, so none is spare
        spare = multiprocessing.get_context().Semaphore(0)
        monkeypatch.setattr(_parallel, "_worker", (None, spare))
        z_rs, z_self, z_mut, loads = helper_system("mixed", 3 * self.CHUNK)
        contexts = factor_contexts(monkeypatch)
        on_main = chunk_threads(monkeypatch)
        build_B(z_rs, z_self, z_mut, loads)
        assert all(on_main) and len(on_main) == 3
        # the serial loop's order of factorizations
        assert contexts == sorted(contexts, key=lambda c: int(c.split()[1]))
        assert_helpers_done(spare, 0)

    def test_earliest_singular_configuration_raised(self, monkeypatch, spare):
        # configurations 5 (chunk 0, on the calling thread) and 40 (chunk 1,
        # on a helper) are nearly singular; chunk 0 waits until chunk 1 has
        # failed, yet the error names configuration 5, with its own rcond,
        # and chunk 2 is never begun
        g, n = 3 * self.CHUNK, 2
        z_self = np.ones(n, dtype=complex)
        z_mut = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        loads = np.full((g, n), 1j)
        loads[5], loads[40] = 1e-15, 4e-15
        real = channel._factor
        failed, begun = [], []
        late_failed = threading.Event()

        def wrapper(z, anorm, context, certified):
            begun.append(int(context.split()[1]))
            if context == "configuration 5":
                assert late_failed.wait(10.0)
            try:
                return real(z, anorm, context, certified)
            except SingularModelError:
                failed.append(context)
                raise
            finally:
                if context == "configuration 40":
                    late_failed.set()

        monkeypatch.setattr(channel, "_factor", wrapper)
        with pytest.raises(SingularModelError, match="^configuration 5: ") as exc_info:
            build_B(np.ones(n, dtype=complex), z_self, z_mut, loads)
        assert failed == ["configuration 40", "configuration 5"]
        assert max(begun) == 40
        rconds = [gecon_rcond(np.diag(z_self + loads[row]) + z_mut) for row in (5, 40)]
        assert max(rconds) < RCOND_FLOOR
        assert rconds[1] > 2.0 * rconds[0]
        assert exc_info.value.rcond == pytest.approx(rconds[0], rel=1e-12, abs=0.0)
        assert_helpers_done(spare, 2)


def certificate_off():
    """Certify no row, so every LU row runs gecon (a test hook)."""
    return mock.patch.object(channel, "_resistance_floor", lambda *_: -np.inf)


def recorded_factors():
    """Record ``(certified, system)`` of every LU factorization, the system
    copied before it is factored in place."""
    real = channel._factor
    record = []

    def wrapper(z, anorm, context, certified):
        record.append((certified, z.copy()))
        return real(z, anorm, context, certified)

    return mock.patch.object(channel, "_factor", wrapper), record


def build_or_error(*args):
    """build_B's rows, or its error as (type, message, rcond)."""
    try:
        return build_B(*args)
    except SingularModelError as exc:
        return type(exc), str(exc), repr(exc.rcond)


@st.composite
def certificate_systems(draw):
    """Complex-symmetric systems ``diag(z_self + loads_g) + M`` whose real
    part ``R0`` is definite, semidefinite or indefinite, with rows of
    positive, zero, negative and near-singular load resistance, some with
    one reactance large enough to bring rcond near ``RCOND_FLOOR``."""
    n = draw(st.integers(1, 12))
    g = draw(st.integers(1, 3 * channel.JACOBI_CHUNK))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shift = draw(st.sampled_from([-1.0, -1e-9, 0.0, 1e-9, 1.0]))
    z_mut = draw(st.sampled_from([0.1, 1.0, 10.0])) * crandn(rng, (n, n))
    z_mut = z_mut + z_mut.T
    z_mut[np.arange(n), np.arange(n)] = 0.0
    # equal self resistances put the smallest eigenvalue of R0 at shift
    r_self = shift - (np.linalg.eigvalsh(z_mut.real).min() if n > 1 else 0.0)
    z_self = r_self + 1j * rng.uniform(-5.0, 5.0, n)
    resistance = rng.uniform(0.1, 10.0, (g, n))
    kinds = rng.integers(0, 4, g)
    resistance[kinds == 1] = 0.0
    resistance[kinds == 2] *= -0.1
    resistance[kinds == 3] = 1e-15
    reactance = rng.uniform(-5.0, 5.0, (g, n))
    large = rng.random(g) < 0.5
    reactance[large, rng.integers(0, n, large.sum())] = 10.0 ** rng.uniform(6.0, 14.0, large.sum())
    return crandn(rng, (n,)), z_self, z_mut, resistance + 1j * reactance


class TestPassivityCertificate:
    """An LU row whose loads' resistance certifies its condition skips
    gecon, and build_B's rows and errors stay those of the gecon guard."""

    @settings(deadline=None, max_examples=60)
    @given(certificate_systems())
    def test_certified_rows_pass_gecon_and_nothing_changes(self, system):
        spare = multiprocessing.get_context().Semaphore(2)
        recording, record = recorded_factors()
        with mock.patch.object(_parallel, "_worker", (None, spare)):
            with recording:
                got = build_or_error(*system)
            with certificate_off():
                want = build_or_error(*system)
        for certified, z in record:
            if certified:
                assert gecon_rcond(z) >= RCOND_FLOOR
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got, want)

    def test_default_point_runs_no_gecon(self, point_002, monkeypatch):
        # every row of the 4x4 0.02 lambda point takes the LU path, and the
        # loads' 0.1 ohm minimum resistance certifies each one
        imp = point_002.impedances
        getrfs = counting(monkeypatch, "getrf")
        gecons = counting(monkeypatch, "gecon")
        b = build_B(imp.z_rs, imp.z_ss_self, imp.z_ss_mutual, point_002.loads)
        assert len(gecons) == 0
        assert len(getrfs) == len(point_002.loads) == 256
        want = lu_rows(imp.z_rs, imp.z_ss_self, imp.z_ss_mutual, point_002.loads)
        assert np.array_equal(b, want)

    def test_row_without_positive_bound_runs_gecon(self, monkeypatch):
        # R0 = 2 (J - I) + 2 I = 2 J has smallest eigenvalue 0, and the
        # coupling is too strong to iterate: the rows with zero and negative
        # load resistance have delta_g <= 0 and run gecon, the row with 1 ohm
        # is certified
        n = 3
        z_self = np.full(n, 2.0 + 3.0j)
        z_mut = 2.0 * (np.ones((n, n)) - np.eye(n)) + 0j
        loads = np.array([[0.0] * n, [1.0] * n, [-0.5] * n]) + 0j
        assert not iterated_rows(z_self, z_mut, loads).any()
        recording, record = recorded_factors()
        gecons = counting(monkeypatch, "gecon")
        z_rs = np.arange(1.0, n + 1.0) + 0j
        with recording:
            b = build_B(z_rs, z_self, z_mut, loads)
        assert [certified for certified, _ in record] == [False, True, False]
        assert len(gecons) == 2
        assert np.array_equal(b, lu_rows(z_rs, z_self, z_mut, loads))


def counting(monkeypatch, name):
    """Replace channel.name by a wrapper that records each call's args."""
    real = getattr(channel, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(channel, name, wrapper)
    return calls


class TestFrozenFields:
    def test_realified_model_leaves_caller_array_writeable(self):
        b = np.array([[1.0 + 2.0j]])
        d = realify(b, includes_mutual_coupling=False)
        assert b.flags.writeable
        assert not d.flags.writeable
        with pytest.raises(ValueError):
            d[0, 0] = 0.0

    def test_realified_model_holds_a_copy(self):
        b = np.array([[1.0 + 2.0j]])
        d = realify(b, includes_mutual_coupling=False)
        b[0, 0] = 5.0
        assert np.array_equal(d, [[1.0, -2.0], [2.0, 1.0]])


class TestRealify:
    def test_hand_example(self):
        d = realify(np.array([[1.0 + 2.0j]]), includes_mutual_coupling=False)
        assert np.array_equal(d, [[1.0, -2.0], [2.0, 1.0]])
        got = d @ realify_vec(np.array([3.0 + 4.0j]))
        assert np.array_equal(got, realify_vec(np.array([-5.0 + 10.0j])))

    def test_real_matrix_block_diagonal(self):
        d = realify(np.eye(2) * 3.0, includes_mutual_coupling=False)
        assert np.array_equal(d, 3.0 * np.eye(4))

    def test_multiply_both_paths_oracle(self):
        rng = np.random.default_rng(23)
        b = crandn(rng, (5, 3))
        v = crandn(rng, (3,))
        d = realify(b, includes_mutual_coupling=True)
        lhs = realify_vec(b @ v)
        rhs = d @ realify_vec(v)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), g=st.integers(1, 6), n=st.integers(1, 5))
    def test_complex_real_equivalence_property(self, seed, g, n):
        rng = np.random.default_rng(seed)
        b = crandn(rng, (g, n))
        v = crandn(rng, (n,))
        d = realify(b, includes_mutual_coupling=False)
        lhs = realify_vec(b @ v)
        rhs = d @ realify_vec(v)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1e-300)

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
    def test_vector_round_trip(self, seed, n):
        rng = np.random.default_rng(seed)
        v = crandn(rng, (n,))
        assert np.array_equal(complexify_vec(realify_vec(v)), v)

    def test_complexify_maps_a_stack_row_by_row(self):
        rows = np.random.default_rng(5).standard_normal((3, 8))
        stacked = complexify_vec(rows)
        assert stacked.shape == (3, 4)
        for row, got in zip(rows, stacked):
            assert np.array_equal(got, complexify_vec(row))
            assert np.array_equal(realify_vec(got), row)

    @pytest.mark.parametrize("stacked", [False, True], ids=["vector", "stack"])
    def test_complexify_inverts_realify_bit_for_bit(self, stacked):
        # infinite and -0.0 parts keep their value and sign both ways, and
        # raise no floating-point warning (the suite runs with -W error)
        x = np.array([-0.0, np.inf, -np.inf, 1.0, -0.0, -0.0, np.inf, -np.inf])
        if stacked:
            x = np.stack([x, x[::-1], -x])
        z = complexify_vec(x)
        for part, want in ((z.real, x[..., :4]), (z.imag, x[..., 4:])):
            assert np.array_equal(part, want)
            assert np.array_equal(np.signbit(part), np.signbit(want))
        for row, v in zip(np.atleast_2d(x), np.atleast_2d(z)):
            back = realify_vec(v)
            assert np.array_equal(back, row)
            assert np.array_equal(np.signbit(back), np.signbit(row))

    @pytest.mark.parametrize("shape", [(5,), (2, 3)], ids=["vector", "stack"])
    def test_complexify_rejects_odd_length(self, shape):
        with pytest.raises(ValueError, match="even length"):
            complexify_vec(np.ones(shape))

    def test_block_structure_validated(self):
        # a bound checks a real matrix's layout: even dimensions, then blocks
        with pytest.raises(ValueError, match="block structure"):
            bounds.mcrb_trace(np.arange(16.0).reshape(4, 4), 1.0)
        with pytest.raises(ValueError, match=r"^realified matrix must be 2G x 2N$"):
            bounds.mcrb_trace(np.ones((5, 2)), 1.0)

    def test_complex_model_recovery(self):
        rng = np.random.default_rng(29)
        b = crandn(rng, (4, 2))
        d = realify(b, includes_mutual_coupling=True)
        assert d.shape == (8, 4)
        assert np.array_equal(channel._complex_form(d), b)


class TestScenarioModels:
    def test_tight_spacing_mismatch_is_nontrivial(self, point_002):
        b_true, b_est = point_002.d_true, point_002.d_est
        assert b_true.dtype == b_est.dtype == complex
        assert b_true.shape == b_est.shape == (256, 16)
        assert np.linalg.norm(b_true - b_est) > 0.0

    def test_true_channel_realification_round_trips(self, point_002):
        # the model pair's true channel is z_st itself, not a copy
        assert point_002.x_true is point_002.impedances.z_st

    def test_all_default_configurations_solve(self):
        # conditioning guard: default-setup spacings build without a
        # singular-model error
        for d in (0.002, 0.02, 0.5, 2.5):
            sc = scenario_from_config({"ris_spacing_over_lambda": d,
                                       "num_transmissions": 16})
            imp = build_impedance_set(sc.tx, sc.rx, sc.ris_radiators(), sc.constants)
            model_pair(imp, sample_loads(sc))
