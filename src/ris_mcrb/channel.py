"""End-to-end impedance channel, stacked pilot model, and realification.

The scalar channel for one RIS configuration is
``z_rs^T (Z_ss + diag(loads_g))^{-1} z_st``. Stacking the row vectors
``z_rs^T (Z_ss + diag(loads_g))^{-1}`` over G configurations gives the
complex model matrix B, on which every bound is computed; its real block
form ``[[Re B, -Im B], [Im B, Re B]]`` presents the same problem as an
ordinary real linear-Gaussian one. Building B with the off-diagonal
part of the scatter matrix zeroed out yields the coupling-unaware model
used as the (mis)estimation model.

The coupling-unaware system is diagonal, so its rows are the closed form
``z_rs / (z_ss_self + loads_g)``; its singularity guard is the exact 1-norm
reciprocal condition number of a diagonal matrix, ``min|d| / max|d|``. A
coupling-aware system ``D_g + M`` (diagonal plus mutual part) is solved by
the iteration ``y <- (z_rs - y M) / D_g`` when its contraction bound proves
it well conditioned, for a chunk of configurations per matrix product, and
otherwise through an LAPACK LU factorization, guarded by a 1-norm
reciprocal condition estimate unless the passivity of the impedances and
the loads' resistance certify the row. Every guard rejects a configuration
below ``RCOND_FLOOR``; nothing in production paths forms an explicit inverse.
Sweep workers also run ``build_B``'s chunks on helper threads (``_parallel``).
RNG streams are derived from a master seed with fixed spawn keys so that
load sampling and noise generation never share or reorder draws. Trial t
of a power draws from numpy's ``SeedSequence(entropy, spawn_key + (t,))``
child of that power's noise sequence; ``trial_generators`` derives the
children's PCG64 states in bulk and reuses one generator per call.
"""

from __future__ import annotations

import math
import threading

import numpy as np
# imported with the package: numpy 2 would import it on first use, inside
# the first sweep that draws loads or noise
import numpy.random  # noqa: F401

from ._blas import gecon, getrf, getrs, syevr
from ._parallel import run_chunks
from .errors import DegenerateDesignError, SingularModelError
from .impedance import ImpedanceSet
from .scenario import Scenario

# Substream identifiers under the scenario master seed.
LOADS_STREAM = 0
NOISE_STREAM = 1

# Offset that keeps value-derived spawn keys non-negative.
_KEY_OFFSET = 2 ** 31

# numpy's SeedSequence hash and mix constants, its default pool size, and
# PCG64's 128-bit LCG multiplier: the seeding that NEP 19 keeps stable and
# trial_generators reproduces in bulk.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = 2 ** 128 - 1
# Trials per batch of stream states that trial_generators derives at once,
# so its memory does not grow with the trial count.
TRIAL_CHUNK = 4096
# A power's trial count stays below this: a trial's index is one uint32 word
# of its stream's spawn key.
TRIAL_LIMIT = 2 ** 32

# Reciprocal condition estimate below which a system is treated as singular.
RCOND_FLOOR = 1e-13

# Coupling-aware rows whose contraction bound is below this limit are
# iterated instead of LU-factored, JACOBI_CHUNK rows at a time; a row still
# short of the stopping rule after JACOBI_MAX_SWEEPS sweeps is LU-factored.
CONTRACTION_LIMIT = 0.6
JACOBI_CHUNK = 32
JACOBI_MAX_SWEEPS = 100
# Machine epsilon (2^-52), which is also the relative accuracy the
# iteration's error bound must reach.
_EPS = float(np.finfo(float).eps)
_STOP_REL = _EPS
# A coupling-aware LU row skips gecon when its passivity certificate proves
# a 1-norm reciprocal condition number of at least this multiple of
# RCOND_FLOOR; the factor covers the rounding in the LU factors, which alone
# can put gecon's estimate below the true value.
CERTIFICATE_MARGIN = 100.0


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for a named position under the master seed."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=path))


def noise_seed(master_seed: int, power_dbm: float) -> np.random.SeedSequence:
    """Seed sequence for the noise draws of one transmit-power point.

    Keyed by the power value (0.1 mdBm resolution), not its position in a
    sweep grid, so adding or removing grid points leaves the noise of the
    remaining points untouched. Per-trial child sequences are derived by
    appending the trial index.
    """
    key = int(round(power_dbm * 1e4)) + _KEY_OFFSET
    if key < 0:
        raise ValueError(f"power {power_dbm} dBm is out of the keyable range")
    return np.random.SeedSequence(master_seed, spawn_key=(NOISE_STREAM, key))


def _uint32_words(value) -> int:
    """Number of uint32 words ``SeedSequence`` makes of an entropy or
    spawn-key value: an int, or a sequence of them."""
    if isinstance(value, (int, np.integer)):
        return max(1, (int(value).bit_length() + 31) // 32)
    return sum(_uint32_words(v) for v in value)


def _hash(words: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of the uint32 ``words`` under the hash constant
    ``const``, which advances by ``mult``; returns the hashed words and the
    advanced constant."""
    value = words ^ np.uint32(const)
    const = const * mult % 2 ** 32
    value *= np.uint32(const)
    return value ^ (value >> _XSHIFT), const


def _trial_states(seq: np.random.SeedSequence, start: int, stop: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of the children ``SeedSequence(seq.entropy,
    spawn_key=seq.spawn_key + (t,))`` for ``start <= t < stop``.

    Every child mixes the same entropy words as the parent built from
    ``seq.entropy`` and ``seq.spawn_key`` at the default pool size (which
    the children have too), then the trial word ``t``. So the parent's
    pool is each child's pool before ``t``, and the hash constant there has
    advanced once per hash call: mixing ``n >= 4`` words (the entropy is
    zero-padded to the pool size) takes ``4 + 12 + 4 (n - 4) = 4 n`` calls.
    The rest, mixing ``t`` into the four pool words and ``generate_state(4,
    uint64)``, runs on uint32 vectors over the trials; PCG64's ``srandom``
    step then runs on Python ints.
    """
    parent = np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key)
    words = max(_uint32_words(seq.entropy), _POOL_SIZE) + _uint32_words(seq.spawn_key)
    hash_a = _INIT_A * pow(_MULT_A, _POOL_SIZE * words, 2 ** 32) % 2 ** 32
    t = np.arange(start, stop, dtype=np.uint32)
    pool = []
    for word in parent.pool.tolist():
        value, hash_a = _hash(t, hash_a, _MULT_A)
        mixed = np.uint32(_MIX_MULT_L * word % 2 ** 32) - value * np.uint32(_MIX_MULT_R)
        pool.append(mixed ^ (mixed >> _XSHIFT))
    state = np.empty((stop - start, 2 * _POOL_SIZE), dtype="<u4")
    hash_b = _INIT_B
    for i in range(2 * _POOL_SIZE):
        state[:, i], hash_b = _hash(pool[i % _POOL_SIZE], hash_b, _MULT_B)
    # srandom(initstate, initseq): inc = 2 initseq + 1 and
    # state = (inc + initstate) MULT + inc, both modulo 2**128
    out = []
    for s_hi, s_lo, i_hi, i_lo in state.view("<u8").tolist():
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
        out.append(((((s_hi << 64) | s_lo) + inc) * _PCG_MULT + inc & _MASK128, inc))
    return out


def trial_generators(seq: np.random.SeedSequence, trials: int):
    """Per-trial generators derived from ``seq`` without mutating it.

    Trial ``t`` draws the stream of numpy's ``default_rng(SeedSequence(
    seq.entropy, spawn_key=seq.spawn_key + (t,)))``, bit for bit, but the
    streams' states are derived in bulk, ``TRIAL_CHUNK`` trials at a time
    (``_trial_states``). One PCG64 generator is reused for every trial: each
    yielded generator is valid only until the next one is requested.
    Raises ``ValueError`` unless ``trials < TRIAL_LIMIT`` (2**32).
    """
    if trials >= TRIAL_LIMIT:
        raise ValueError(f"trials must be < 2**32, got {trials}")
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}

    def streams():
        for start in range(0, trials, TRIAL_CHUNK):
            for pcg_state, inc in _trial_states(seq, start, min(start + TRIAL_CHUNK, trials)):
                state["state"] = {"state": pcg_state, "inc": inc}
                bit_generator.state = state
                yield rng

    return streams()


def sample_loads(scenario: Scenario) -> np.ndarray:
    """Draw the G x N complex loads R + j*omega*L as a fresh read-only
    array, i.i.d. uniform in the scenario's resistance and inductance boxes.

    The draws come from the dedicated load substream of the scenario seed,
    and only from it, so the sampled configurations do not depend on how
    much noise is drawn elsewhere. Resistance values are drawn first, then
    inductances, both row-major over (transmission, element).
    """
    r_min, r_max = scenario.load_resistance_range
    l_min, l_max = scenario.load_inductance_range
    if r_max < r_min or l_max < l_min:
        raise ValueError("load ranges must satisfy min <= max")
    rng = substream(scenario.rng_seed, LOADS_STREAM)
    shape = (scenario.num_transmissions, scenario.ris.num_elements)
    resistance = rng.uniform(r_min, r_max, shape)
    inductance = rng.uniform(l_min, l_max, shape)
    loads = resistance + 1j * scenario.constants.omega * inductance
    loads.flags.writeable = False
    return loads


def _singular(context: str, rcond) -> SingularModelError:
    return SingularModelError(
        f"{context}: impedance system is singular or numerically rank "
        f"deficient (reciprocal condition estimate {rcond:.3e})",
        rcond=float(rcond),
    )


def _factor(z: np.ndarray, anorm: float, context: str, certified: bool):
    """LU-factor the Fortran-ordered ``z`` in place and guard it.

    ``anorm`` is the 1-norm of ``z`` before factoring; the 1-norm
    reciprocal condition estimate must reach ``RCOND_FLOOR``. A
    ``certified`` system is proven to reach it (``build_B``), so only
    getrf's ``info`` is checked; should that fail, gecon's estimate is
    reported as for any other system.
    """
    lu, piv, info = getrf(z, overwrite_a=True)
    if certified and info == 0:
        return lu, piv
    rcond, con_info = gecon(lu, anorm)
    if info != 0 or con_info != 0 or not np.isfinite(rcond) or rcond < RCOND_FLOOR:
        raise _singular(context, rcond)
    return lu, piv


def _resistance_floor(mutual: np.ndarray, base_diag: np.ndarray) -> float:
    """A lower bound on the smallest eigenvalue of ``R0``, the real
    symmetric matrix ``Re(mutual)`` (zero diagonal) with ``Re(base_diag)``
    on its diagonal, or ``-inf`` when ``mutual`` is not exactly
    complex-symmetric or ``R0`` is not finite.

    LAPACK's ``syevr`` gives the smallest eigenvalue of a matrix within
    ``p(N) eps ||R0||_2`` of ``R0``; the bound subtracts ``N^2 eps
    ||R0||_F``, which exceeds that backward error for any modest ``p``.
    """
    n = mutual.shape[0]
    r0 = np.array(mutual.real, order="F")
    r0[np.arange(n), np.arange(n)] = base_diag.real
    if not np.isfinite(r0).all() or not np.array_equal(mutual, mutual.T):
        return -math.inf
    margin = n * n * _EPS * np.linalg.norm(r0)
    w, _, _, _, info = syevr(r0, compute_v=0, range="I", il=1, iu=1, overwrite_a=1)
    return float(w[0]) - margin if info == 0 else -math.inf


def _certified(r0: float, load_re: np.ndarray, mag: np.ndarray,
               anorm: np.ndarray) -> np.ndarray:
    """Mask of the systems ``diag(d_g) + M`` whose 1-norm reciprocal
    condition number provably reaches ``CERTIFICATE_MARGIN * RCOND_FLOOR``,
    given ``r0`` from ``_resistance_floor``, the loads' resistances
    ``load_re``, ``mag = |d|`` and the systems' 1-norms ``anorm``.

    ``delta_g = r0 + min_j Re(loads_gj) - eps max_j |d_gj|`` bounds the
    smallest eigenvalue of the Hermitian part below: Weyl's inequality
    covers the diagonal shift, and ``eps |d|`` the rounding of each sum
    ``Re(base_diag) + Re(loads)``. Then ``sigma_min >= delta_g``, so
    ``||A^{-1}||_1 <= sqrt(N) / delta_g`` and ``rcond >= delta_g / (sqrt(N)
    anorm_g)``. A NaN or infinite entry never certifies.
    """
    n = load_re.shape[1]
    with np.errstate(invalid="ignore"):
        delta = r0 + load_re.min(axis=1) - _EPS * mag.max(axis=1)
        return (delta > 0.0) & (
            delta >= CERTIFICATE_MARGIN * RCOND_FLOOR * math.sqrt(n) * anorm)


def _weighted_norms2(y: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Row-wise squared norms ``sum_j |y_gj|^2 weight_gj``."""
    v = y.view(float).reshape(*y.shape, 2)
    return np.einsum("ijk,ijk,ij->i", v, v, weight)


def _contraction(mag: np.ndarray, coupling: np.ndarray):
    """Contraction bound ``q_g = ||D_g^{-1/2} M D_g^{-1/2}||_F`` of each row
    of ``mag = |d|``, given ``coupling = |M|^2``, and the mask of rows that
    may iterate: ``q_g < CONTRACTION_LIMIT`` and a guaranteed 1-norm
    reciprocal condition number ``rcond(D_g) (1 - q_g) / ((1 + q_g) N)`` of
    ``D_g + M`` that reaches ``RCOND_FLOOR``. A zero, infinite or NaN
    diagonal entry makes the row's bound NaN or its rcond zero, so it never
    iterates."""
    n = mag.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / mag
        q = np.sqrt(np.einsum("ij,ij->i", inv @ coupling, inv))
        guaranteed = mag.min(axis=1) / mag.max(axis=1) * (1.0 - q) / ((1.0 + q) * n)
    return q, (q < CONTRACTION_LIMIT) & (guaranteed >= RCOND_FLOOR)


def _jacobi_rows(z_rs, mutual, d, q):
    """Rows ``z_rs^T (diag(d_g) + mutual)^{-1}`` for every row ``d_g`` of ``d``
    at once, by the iteration ``y <- (z_rs - y @ mutual) / d`` from the
    coupling-unaware row ``z_rs / d``.

    ``q`` bounds each row's contraction factor in the norm ``||y |D|^{1/2}||_2``,
    so a row whose last change satisfies ``q/(1-q) ||dy |D|^{1/2}|| <= 2^-52
    ||y |D|^{1/2}||`` is within that distance of its solution. The sweeps stop
    when every row satisfies it, or after ``JACOBI_MAX_SWEEPS``; returns the
    iterates and the mask of rows that satisfied it on the last sweep.
    """
    weight = np.abs(d)
    q2, tol2 = np.square(q), np.square(_STOP_REL * (1.0 - q))
    y = z_rs / d
    nxt = np.empty_like(y)
    for _ in range(JACOBI_MAX_SWEEPS):
        np.matmul(y, mutual, out=nxt)
        np.subtract(z_rs, nxt, out=nxt)
        np.divide(nxt, d, out=nxt)
        np.subtract(nxt, y, out=y)  # y now holds the change of this sweep
        done = q2 * _weighted_norms2(y, weight) <= tol2 * _weighted_norms2(nxt, weight)
        y, nxt = nxt, y
        if done.all():
            break
    return y, done


def build_B(z_rs, z_ss_self, z_ss_mutual, loads) -> np.ndarray:
    """Stack the per-configuration row vectors into the G x N model matrix.

    Row g is ``z_rs^T (D_g + M)^{-1}``, where ``D_g = diag(z_ss_self +
    loads_g)`` (plus any diagonal of ``z_ss_mutual``) and ``M`` is the
    off-diagonal part of ``z_ss_mutual``. Passing ``None`` for
    ``z_ss_mutual`` produces the coupling-unaware model: the system is
    diagonal, row g is ``z_rs / (z_ss_self + loads_g)`` and its guard is the
    exact reciprocal condition number ``rcond(D_g) = min|d| / max|d|``.

    Otherwise each row is solved on one of two paths. A row whose
    contraction bound ``q_g = ||D_g^{-1/2} M D_g^{-1/2}||_F`` is below
    ``CONTRACTION_LIMIT`` and whose guaranteed 1-norm reciprocal condition
    number ``rcond(D_g) (1 - q_g) / ((1 + q_g) N)`` reaches ``RCOND_FLOOR``
    is iterated, ``JACOBI_CHUNK`` rows at a time (``_jacobi_rows``). Every
    other row, and every iterated row that misses the stopping rule within
    ``JACOBI_MAX_SWEEPS``, is LU-factored; the system is complex-symmetric,
    so the transposed solve that a row requires coincides with the plain
    solve of the factored system. An LU row is guarded by its 1-norm
    reciprocal condition estimate (LAPACK's ``gecon``) unless passivity
    certifies it. With ``M`` complex-symmetric, the Hermitian part of
    ``D_g + M`` is ``R0 + diag(Re loads_g)``, where ``R0`` is ``Re(M)`` with
    the real part of the loads-free diagonal on its diagonal. The
    impedances of a passive multiport make ``R0`` positive semidefinite:
    the engine's smallest eigenvalue of ``Re Z_ss`` stays above ``-N
    impedance.REL_TOLERANCE max|Z_ij|``, -6.1e-6 ohm on the default
    surfaces at d <= 0.1 lambda, far below the scenario's minimum load
    resistance (0.1 ohm). So ``delta_g = lambda_min(R0) + min_j
    Re(loads_gj)``, less the rounding of the eigenvalue (``_resistance_floor``)
    and of the diagonal sums, bounds ``sigma_min(D_g + M)``, and the row's
    1-norm reciprocal condition number is at least ``delta_g / (sqrt(N)
    ||D_g + M||_1)``; gecon's estimate is never below the true value but
    for rounding. A row whose bound reaches ``CERTIFICATE_MARGIN *
    RCOND_FLOOR`` skips gecon and keeps the check of getrf's ``info``
    (``_certified``); every other row, as when ``M`` is not symmetric or a
    value is not finite, runs gecon. ``lambda_min(R0)`` is computed once,
    and only if some row is LU-factored. Either singularity guard raises
    ``SingularModelError`` naming the configuration when the value is below
    ``RCOND_FLOOR`` or not finite; where several are, it names the
    earliest, as a serial loop would.

    The ``JACOBI_CHUNK``-row chunks run through ``_parallel.run_chunks``,
    also on helper threads in a sweep worker. A chunk's rows depend only on
    that chunk, since the stopping rule is per chunk and each LU is per row,
    so they are the same bits whichever thread runs it.
    """
    z_rs = np.asarray(z_rs, dtype=complex)
    n = z_rs.shape[0]
    loads = np.asarray(loads)
    if loads.ndim != 2 or loads.shape[1] != n:
        raise ValueError(f"loads must be (G, {n}), got {loads.shape}")

    if z_ss_mutual is None:
        d = np.asarray(z_ss_self, dtype=complex) + loads
        mag = np.abs(d)
        with np.errstate(divide="ignore", invalid="ignore"):
            rcond = mag.min(axis=1) / mag.max(axis=1)
        bad = ~np.isfinite(rcond) | (rcond < RCOND_FLOOR)
        if bad.any():
            g = int(np.argmax(bad))
            raise _singular(f"configuration {g}", rcond[g])
        return np.divide(z_rs, d, out=d)

    mutual = np.array(z_ss_mutual, dtype=complex, order="F")
    diag = np.arange(n)
    base_diag = mutual[diag, diag] + np.asarray(z_ss_self, dtype=complex)
    mutual[diag, diag] = 0.0
    # 1-norm of a configuration: max over columns of these off-diagonal
    # sums plus the magnitude of the column's diagonal entry
    off_abs = np.abs(mutual)
    off_sums = off_abs.sum(axis=0)
    coupling = np.square(off_abs, out=off_abs)
    b = np.empty((loads.shape[0], n), dtype=complex)
    floor, floor_lock = [], threading.Lock()

    def resistance_floor():
        # computed once, by the first chunk that LU-factors a row
        with floor_lock:
            if not floor:
                floor.append(_resistance_floor(mutual, base_diag))
            return floor[0]

    def solve_chunk(k):
        # writes rows [start, start + JACOBI_CHUNK) of b and reads nothing
        # another chunk writes, so chunks may run on any thread in any order
        start = k * JACOBI_CHUNK
        chunk_loads = loads[start:start + JACOBI_CHUNK]
        d = base_diag + chunk_loads
        mag = np.abs(d)
        q, iterate = _contraction(mag, coupling)
        to_lu = ~iterate
        if iterate.any():
            idx = np.flatnonzero(iterate)
            rows, done = _jacobi_rows(z_rs, mutual, d[idx], q[idx])
            b[start + idx[done]] = rows[done]
            to_lu[idx] = ~done
        idx = np.flatnonzero(to_lu)
        if not idx.size:
            return
        anorms = (off_sums + mag[idx]).max(axis=1)
        certified = _certified(resistance_floor(), chunk_loads[idx].real,
                               mag[idx], anorms)
        z = np.empty_like(mutual)
        for i, anorm, sure in zip(idx.tolist(), anorms, certified.tolist()):
            np.copyto(z, mutual)
            z[diag, diag] = d[i]
            lu, piv = _factor(z, anorm, f"configuration {start + i}", sure)
            b[start + i], _ = getrs(lu, piv, z_rs)

    run_chunks(solve_chunk, -(-loads.shape[0] // JACOBI_CHUNK))
    return b


def realify(b: np.ndarray, *, includes_mutual_coupling: bool) -> np.ndarray:
    """Map complex G x N to the real [[Re,-Im],[Im,Re]] block matrix, a
    fresh read-only 2G x 2N array. ``includes_mutual_coupling`` labels the
    call (which model of the pair it realifies) and is not stored."""
    b = np.asarray(b, dtype=complex)
    re, im = b.real, b.imag
    d = np.block([[re, -im], [im, re]])
    d.flags.writeable = False
    return d


def realify_vec(v) -> np.ndarray:
    """Stack [Re(v); Im(v)] of a complex vector."""
    v = np.asarray(v, dtype=complex)
    return np.concatenate((v.real, v.imag))


def complexify_vec(x) -> np.ndarray:
    """Inverse of realify_vec along the last axis: a stack of realified
    rows, such as a trial block's noise draws, is one complex noise block."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2:
        raise ValueError("realified vector must have even length")
    n = x.shape[-1] // 2
    return x[..., :n] + 1j * x[..., n:]


def as_model_matrix(d) -> np.ndarray:
    """A real 2G x 2N model matrix as a float array; its layout is checked
    where a bound takes it (``_complex_form``)."""
    return np.asarray(d, dtype=float)


def _complex_form(a) -> np.ndarray:
    """Complex form of a model matrix or vector: a complex array as it is, a
    real vector as stacked [Re; Im], a real matrix from its top block row,
    once it has passed the rows-versus-unknowns check and the layout check
    of ``realify``'s 2G x 2N [[Re,-Im],[Im,Re]] blocks."""
    d = np.asarray(a)
    if d.ndim == 2 and d.shape[0] < d.shape[1]:
        raise DegenerateDesignError(f"{d.shape[0]} rows cannot identify {d.shape[1]} unknowns")
    if np.iscomplexobj(d):
        return d
    if d.ndim == 1:
        return complexify_vec(d)
    d = as_model_matrix(d)
    if d.ndim != 2 or d.shape[0] % 2 or d.shape[1] % 2:
        raise ValueError("realified matrix must be 2G x 2N")
    g, n = d.shape[0] // 2, d.shape[1] // 2
    tol = 1e-12 * np.linalg.norm(d)
    if np.linalg.norm(d[:g, :n] - d[g:, n:]) > tol or \
       np.linalg.norm(d[:g, n:] + d[g:, :n]) > tol:
        raise ValueError("matrix does not have the [[Re,-Im],[Im,Re]] block structure")
    return d[:g, :n] + 1j * d[g:, :n]


def model_pair(impedances: ImpedanceSet, loads) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build the coupling-aware and coupling-unaware G x N model matrices
    for the (G, N) loads plus the true channel vector ``z_st``."""
    b_true = build_B(impedances.z_rs, impedances.z_ss_self,
                     impedances.z_ss_mutual, loads)
    b_est = build_B(impedances.z_rs, impedances.z_ss_self, None, loads)
    return b_true, b_est, impedances.z_st
