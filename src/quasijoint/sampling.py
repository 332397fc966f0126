"""Finite-statistics simulation of the joint measurement.

Shots are drawn from operational (measured) distributions only; quasi
joints have negative weights and are rejected.  All randomness flows from
numpy's PCG64 generator seeded by the caller, so runs are reproducible
bit-for-bit.  The phase sampler (``sample_phase``) draws each slice
exactly, with no retry loop, and its bits do not depend on which SIMD paths
numpy picks.  They do depend on the C library's ``cos`` and ``atan2``:
glibc picks FMA variants of ``sin``/``cos`` on CPUs that have FMA, and
those move last bits, so the pinned digests are glibc's FMA path.

Empirical frequencies pushed through the discrete inversion give an
estimate of the quasi joint; standard errors are first-order (delta
method), i.e. the multinomial covariance of the frequencies propagated
through the fixed tensor-product kernel.  Phase shots give moment
estimates of each slice's Fourier triple, as one (2, 3) table laid out
like ``PhaseJoint.table``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from quasijoint._table import SIGNS, Coded, Table
from quasijoint.inversion import (
    invert_joint_discrete,
    mu_x_matrix,
    mu_z_matrix,
)
from quasijoint.marking import (
    OPERATIONAL,
    DiscreteJoint,
    MarkerConfig,
    PhaseJoint,
)
from quasijoint.states import OUTCOMES, TWO_PI, _outcome_index, _read_only_table

#: shots per chunk of _phase_blocks, drawn into a few buffers of this length allocated
#: once; a chunk's U1 draws come before its U2 draws on the phi stream, so this length
#: fixes every phase shot's bits (and the pinned digests) and, through the per-chunk
#: sums, the estimates' last bits
_SAMPLE_CHUNK = 1 << 14
#: fdlibm's arcsin on |y| <= 0.5: y + y * P(y*y) / Q(y*y), P and Q in ascending
#: powers (P without its zero constant term, Q without its leading 1)
_ASIN_P = (
    1.66666666666666657415e-01, -3.25565818622400915405e-01, 2.01212532134862925881e-01,
    -4.00555345006794114027e-02, 7.91534994289814532176e-04, 3.47933107596021167570e-05,
)
_ASIN_Q = (
    -2.40339491173441421878e00, 2.02094576023350569471e00, -6.88283971605453293030e-01,
    7.70381505559019352791e-02,
)


def _shot_table(phi: np.ndarray, z: np.ndarray) -> Table:
    """The ``phi,z`` table of the shots: phi as ``%.16e``, z as ``%d``."""
    return Table(("phi", "z"), (phi, Coded(SIGNS, z)))


def _check_records(phi: np.ndarray, z: np.ndarray) -> None:
    """Raise ``ValueError`` unless every phase lies in [0, 2*pi) and every int64 z is +-1."""
    if phi.size and not (phi.min() >= 0.0 and phi.max() < TWO_PI):  # NaN fails both
        raise ValueError("phases must lie in [0, 2*pi)")
    # the range and a nonzero count leave only +-1 without a temporary the size of z
    if z.size and not (z.min() >= -1 and z.max() <= 1 and np.count_nonzero(z) == z.size):
        raise ValueError("z records must be +1 or -1")


@dataclass(frozen=True, eq=False)
class ShotCounts:
    """Multinomial counts over the four (x, z) outcomes, laid out like ``DiscreteJoint.table``."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        try:
            with np.errstate(invalid="raise"):
                counts = _read_only_table(self.counts, np.int64, (2, 2))
        except (OverflowError, FloatingPointError):  # beyond int64, or a non-finite float
            raise ValueError("counts must be nonnegative integers") from None
        if (counts < 0).any() or not np.array_equal(counts, self.counts):  # the cast truncates 1.5
            raise ValueError("counts must be nonnegative integers")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def count(self, x: int, z: int) -> int:
        return self.counts.item(_outcome_index(x, z))

    def frequencies(self) -> DiscreteJoint:
        total = self.total
        if not total:
            raise ValueError("cannot estimate frequencies from an empty count record (total=0)")
        return DiscreteJoint(self.counts / total, kind=OPERATIONAL)


@dataclass(frozen=True, eq=False)
class PhaseShots:
    """Per-shot records (phi, z), phi in [0, 2*pi), in draw order."""

    phi: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        phi = np.asarray(self.phi, dtype=float)
        try:
            with np.errstate(invalid="raise"):
                z = np.asarray(self.z, dtype=np.int64)
        except (TypeError, ValueError, OverflowError, FloatingPointError):  # not a number, or beyond int64
            raise ValueError("z records must be +1 or -1") from None
        if phi.ndim != 1 or phi.shape != z.shape:
            raise ValueError("phi and z must be 1-D and of equal length")
        _check_records(phi, z)
        if not (z is self.z or np.array_equal(z, self.z)):  # the cast truncated a z like 1.5
            raise ValueError("z records must be +1 or -1")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "z", z)

    @property
    def total(self) -> int:
        return self.phi.size

    def to_csv(self) -> str:
        """One ``phi,z`` line per shot in draw order, phi as ``%.16e``, z as ``%d``."""
        return b"".join(_shot_table(self.phi, self.z).csv_blocks()).decode("ascii")


@dataclass(frozen=True, eq=False)
class EstimatedQuasiJoint:
    """Inverted empirical frequencies with one standard error per entry, laid out like ``joint.table``."""

    joint: DiscreteJoint
    stderrs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "stderrs", _read_only_table(self.stderrs, float, (2, 2)))

    def stderr(self, x: int, z: int) -> float:
        return self.stderrs.item(_outcome_index(x, z))


def _check_draw(joint: DiscreteJoint | PhaseJoint, n: int) -> None:
    if joint.kind != OPERATIONAL:
        raise ValueError("cannot sample a quasi joint: weights may be negative")
    if n < 1:
        raise ValueError("n must be >= 1")


def sample_discrete(joint: DiscreteJoint, n: int, seed: int) -> ShotCounts:
    """Draw n shots from a measured joint; deterministic for a fixed seed."""
    _check_draw(joint, n)
    rng = np.random.default_rng(seed)
    weights = np.clip(joint.table.ravel(), 0.0, None)
    counts = rng.multinomial(n, weights / weights.sum())
    return ShotCounts(counts.reshape(2, 2))


def _asin(y: np.ndarray, work: Iterable[np.ndarray] | None = None) -> np.ndarray:
    """arcsin of each y in [-1, 1], written over y, from + - * / and sqrt only.

    numpy's ``arcsin`` (like ``arctan2``, ``exp``, ``log`` and ``power``)
    changes last bits with the SIMD paths numpy picks for the CPU; the
    operations here are correctly rounded on every path.  Two half-angle
    steps y -> y / sqrt(2 (1 + sqrt(1 - y**2))) bring |y| to at most
    sin(pi/8), fdlibm's rational evaluates arcsin there, and the result is
    four times that.  Within 3 ulps of ``math.asin`` (1 ulp below it at
    +-1, so |result| < pi/2) and exact at 0; a subnormal y loses the bits
    that y/4 drops.  ``work``, three rows of y's length, holds the temporaries.
    """
    scratch, p, q = np.empty((3, y.size)) if work is None else work
    for _ in range(2):
        np.subtract(1.0, y, out=scratch)
        scratch *= np.add(1.0, y, out=p)  # 1 - y*y would lose the low bits near |y| = 1
        np.sqrt(scratch, out=scratch)
        scratch += 1.0
        scratch *= 2.0
        np.sqrt(scratch, out=scratch)
        y /= scratch
    t = np.multiply(y, y, out=scratch)
    np.multiply(_ASIN_P[-1], t, out=p)
    for coefficient in _ASIN_P[-2::-1]:
        p += coefficient
        p *= t
    np.multiply(_ASIN_Q[-1], t, out=q)
    for coefficient in _ASIN_Q[-2::-1]:
        q += coefficient
        q *= t
    q += 1.0
    p /= q
    p *= y
    y += p
    y *= 4.0
    return y


def _wrap_phase(phi: np.ndarray) -> np.ndarray:
    """Reduce phases in [-2*pi, 2*pi] into [0, 2*pi), in place.

    A sum that rounds to 2*pi becomes 0, and -0.0 becomes 0.0.
    """
    # adding or subtracting 0.0 leaves every other phase as it is
    phi += TWO_PI * (phi <= 0.0)
    phi -= TWO_PI * (phi >= TWO_PI)
    return phi


def sample_phase(joint: PhaseJoint, n: int, seed: int) -> PhaseShots:
    """Draw n (phi, z) records from a measured phase joint, exactly and without retries.

    A slice c0 + A cos(phi - phi0) with A <= c0 is a mixture: with
    probability A/c0 the cardioid (1 + cos u)/(2 pi) shifted by
    phi0 = atan2(c_sin, c_cos), otherwise uniform.  The seed spawns two
    PCG64 streams.  The z stream gives one uniform v per shot, which picks
    both the outcome and the mixture part: [0, 1) is cut into +1 uniform,
    +1 cardioid, -1 cardioid and -1 uniform, in that order.  Shots are
    drawn in chunks of ``_SAMPLE_CHUNK``, so memory beyond the output stays
    bounded.  For each chunk the phi stream gives one uniform U1 per shot,
    phi = 2 pi U1 for a uniform shot, and then one uniform U2 per cardioid
    shot, phi = phi0 + 2 asin(sqrt(U1) cos(2 pi U2)) reduced into
    [0, 2 pi): the abscissa of a uniform point of the unit disk is
    semicircle distributed, and twice its arcsine is the cardioid.  phi0 is
    one ``math.atan2`` per slice and the per-shot arcsine is ``_asin``, so
    the bits depend on the C library (see the module docstring) but not on
    which SIMD paths numpy picks.
    """
    _check_draw(joint, n)
    phi, z = np.empty(n), np.empty(n, dtype=np.int64)
    for start, (chunk_phi, chunk_z) in zip(range(0, n, _SAMPLE_CHUNK), _phase_blocks(joint, n, seed)):
        phi[start : start + _SAMPLE_CHUNK], z[start : start + _SAMPLE_CHUNK] = chunk_phi, chunk_z
    return PhaseShots(phi, z)


def _phase_blocks(joint: PhaseJoint, n: int, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The shots of ``sample_phase``, each (phi, z) chunk checked like a record and valid until the next.

    Every chunk is drawn into the same buffers; the caller checks joint and n first (``_check_draw``).
    """
    z_seq, phi_seq = np.random.SeedSequence(seed).spawn(2)
    z_rng, phi_rng = np.random.default_rng(z_seq), np.random.default_rng(phi_seq)
    rows = joint.table.tolist()  # slices z = (+1, -1), each (c0, c_cos, c_sin)
    w_plus = min(max(TWO_PI * rows[0][0], 0.0), 1.0)
    # each slice's cardioid weight A/c0, clipped to [0, 1]
    share = [min(math.hypot(c_cos, c_sin) / c0, 1.0) if c0 > 0.0 else 0.0 for c0, c_cos, c_sin in rows]
    cardioid_low = w_plus * (1.0 - share[0])
    cardioid_high = w_plus + (1.0 - w_plus) * share[1]
    phase0 = np.array([math.atan2(c_sin, c_cos) for _, c_cos, c_sin in rows])
    # one chunk's draws, and a row that serves the cardioid shots' temporaries before it holds z
    v_buf, u1_buf, u2_buf, phi_buf, z_buf = np.empty((5, min(n, _SAMPLE_CHUNK)))
    minus_buf, cardioid_buf, mask_buf = np.empty((3, phi_buf.size), dtype=bool)
    for start in range(0, n, _SAMPLE_CHUNK):
        k = min(_SAMPLE_CHUNK, n - start)
        v, u1, phi, minus, cardioid = v_buf[:k], u1_buf[:k], phi_buf[:k], minus_buf[:k], cardioid_buf[:k]
        z_rng.random(out=v)
        phi_rng.random(out=u1)
        np.greater_equal(v, w_plus, out=minus)
        np.multiply(u1, TWO_PI, out=phi)
        np.greater_equal(v, cardioid_low, out=cardioid)
        cardioid &= np.less(v, cardioid_high, out=mask_buf[:k])
        m = np.count_nonzero(cardioid)
        if m:  # v is spent, and u1 once its cardioid shots' roots are taken
            x = phi_rng.random(out=u2_buf[:m])
            x *= TWO_PI
            np.cos(x, out=x)
            x *= np.sqrt(np.compress(cardioid, u1, out=v_buf[:m]), out=v_buf[:m])
            u = _asin(x, (v_buf[:m], u1_buf[:m], z_buf[:m]))
            u *= 2.0
            u += phase0.take(np.compress(cardioid, minus, out=mask_buf[:m]).view(np.int8), out=v_buf[:m])
            phi[cardioid] = _wrap_phase(u)
        z = np.multiply(minus, -2, out=z_buf[:k].view(np.int64))
        z += 1
        _check_records(phi, z)
        yield phi, z


def _phase_pass(
    chunks: Iterable[tuple[np.ndarray, np.ndarray]], file: BinaryIO | None = None
) -> tuple[tuple[int, int], np.ndarray]:
    """Slice counts and ``harmonic_estimates`` of (phi, z) chunks, each summed and then written to ``file`` if given.

    Per slice, ``math.fsum`` adds the chunks' ``np.sum`` of cos(phi) and sin(phi), so past one chunk
    (``_SAMPLE_CHUNK`` shots) the last bits depend on the chunking.
    """
    counts, sums = [0, 0], ([], [])  # per slice z = (+1, -1): shots, and each chunk's (cos, sin) sums
    for i, (phi, z) in enumerate(chunks):
        for k, outcome in enumerate(OUTCOMES):
            phis = phi[z == outcome]
            counts[k] += phis.size
            sums[k].append((float(np.sum(np.cos(phis))), float(np.sum(np.sin(phis)))))
        if file is not None:
            file.writelines(_shot_table(phi, z).csv_blocks(header=not i))
    n = sum(counts)
    if not n:
        raise ValueError("cannot estimate harmonics from an empty shot record (total=0)")
    estimates = [
        (count / (TWO_PI * n), *(math.fsum(column) / (math.pi * n) for column in zip(*chunk_sums)))
        for count, chunk_sums in zip(counts, sums)
    ]
    return tuple(counts), _read_only_table(estimates, float, (2, 3))


def estimate_quasi_joint(counts: ShotCounts, config: MarkerConfig) -> EstimatedQuasiJoint:
    """Invert empirical frequencies and attach delta-method standard errors.

    The estimate is exactly the discrete inversion applied to counts/N, so
    it inherits normalization; the errors are the multinomial covariance of
    the frequencies pushed through the fixed kernel kron(mu_X, mu_Z), built
    as one broadcast product: entry (2i + k, 2j + l) is mu_X[i, j] * mu_Z[k, l].
    """
    freq = counts.frequencies()
    quasi = invert_joint_discrete(freq, config)
    mx, mz = mu_x_matrix(config.theta), mu_z_matrix(config)
    kernel = (mx[:, None, :, None] * mz[None, :, None, :]).reshape(4, 4)
    p = freq.table.ravel()
    cov = (np.diag(p) - np.outer(p, p)) / counts.total
    variances = np.einsum("ai,ij,aj->a", kernel, cov, kernel)
    se = np.sqrt(np.clip(variances, 0.0, None))
    return EstimatedQuasiJoint(quasi, se.reshape(2, 2))


def harmonic_estimates(shots: PhaseShots) -> np.ndarray:
    """Moment estimators of each slice's Fourier triple from phase shots, laid out like ``PhaseJoint.table``.

    Returns a read-only (2, 3) float64 array, rows z = (+1, -1) and columns
    (c0, c_cos, c_sin): c0(z) ~ n_z/(2*pi*N), c_cos(z) ~ sum(cos phi_i)/(pi*N)
    over shots with outcome z, and likewise for sin.  The sums run over the
    sampler's chunks, as ``sample --mode phase`` sums them (``_phase_pass``).
    An empty record (total 0) has no estimate and raises ``ValueError``.
    """
    starts = range(0, shots.total, _SAMPLE_CHUNK)
    return _phase_pass((shots.phi[i : i + _SAMPLE_CHUNK], shots.z[i : i + _SAMPLE_CHUNK]) for i in starts)[1]
