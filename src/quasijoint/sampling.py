"""Finite-statistics simulation of the joint measurement.

Shots are drawn from operational (measured) distributions only; quasi
joints have negative weights and are rejected.  All randomness flows from
numpy's PCG64 generator seeded by the caller, so runs are reproducible
bit-for-bit.  The phase sampler draws each slice exactly, as a mixture of
a uniform and a shifted cardioid part, with no retry loop: the seed spawns
one stream for the analyzer outcome and mixture part and one for the
phase, shots are drawn in fixed blocks, and the arcsine is built from
correctly rounded operations, so the bits do not depend on the CPU.

Empirical frequencies pushed through the discrete inversion give an
estimate of the quasi joint; standard errors are first-order (delta
method), i.e. the multinomial covariance of the frequencies propagated
through the fixed tensor-product kernel.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from quasijoint.inversion import (
    SINGULARITY_EPS,
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
from quasijoint.states import TWO_PI, PhaseDensity, _outcome_index, _read_only_table

_PHASE_HEADER = b"phi,z\n"

#: rows formatted per block by the PhaseShots and ScanGrid CSV writers; the row
#: buffer and the formatter's temporaries (about 100 B a row) scale with it,
#: so it is kept well below the size of a typical scan or shot file
_CSV_BLOCK = 1 << 12


def _words(text: str) -> np.ndarray:
    """ASCII text as 4-byte words (uint32 in native order), so that words written in
    a row buffer come out of ``tobytes`` as the text."""
    return np.frombuffer(text.encode("ascii"), np.uint32)


#: words of one ``%.16e`` field: [separator|sign|lead|"."], the 16 digits after
#: the point as four words of four, and the exponent "e+dd"; the widest text
#: that fits after the separator is 23 characters
_E16_WORDS = 6
#: byte 0 of a field's first word, the separator the caller sets
_SEPARATOR_MASK = np.frombuffer(b"\xff\0\0\0", np.uint32)[0]
#: exact doubles 1e0 .. 1e22, each with its Dekker split by 2**27 + 1
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
#: bytes 1..3 of a field's first word, "d." for d = 0 .. 9, then "-d." for the same
_LEAD_WORDS = _words("".join(f"\0\0{d}." for d in range(10)) + "".join(f"\0-{d}." for d in range(10)))
#: ASCII "0000" .. "9999" as one 4-byte word per value, built from uint8
#: digits so that import allocates no large temporaries
_DIGITS4 = (
    np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1)
    .reshape(-1, 4)
    .view(np.uint32)
    .ravel()
)
#: "e+16" .. "e-06" as one word per power 10**k, k = 0 .. 22, scaling the
#: decimal exponent 16 - k into 17 integer digits
_EXPONENTS = _words("".join(f"e{16 - k:+03d}" for k in range(23)))
#: the end of a shot row, ",1\n" or ",-1\n", by whether z is negative
_Z_TAILS = _words(",\x001\n,-1\n")

#: shots drawn per block by _phase_blocks, into a few buffers of this length
#: allocated once, so they stay small whatever the shot count
_SAMPLE_BLOCK = 1 << 15
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


def _times_pow10(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact product a * 10**k as p + err (Dekker's TwoProduct, no FMA)."""
    c = a * 134217729.0
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    p = a * _POW10.take(k)
    err = a_hi * b_hi
    err -= p
    err += a_hi * b_lo
    err += a_lo * b_hi
    err += a_lo * b_lo
    return p, err


def _format_e16(values: np.ndarray, out: np.ndarray) -> list[int]:
    """Write ``f"{v:.16e}"`` of each float64 value as the ``_E16_WORDS`` words of its column of ``out``.

    ``out`` is a uint32 array of shape (_E16_WORDS, len(values)) whose rows
    are contiguous, typically rows of a word-major row buffer.  Byte 0 of
    each column's first word, the separator, is left as the caller set it;
    every other byte of the column is written, NUL where the text is
    shorter (no sign, or a short Python-formatted field).  The 17
    significant digits are the exact product |v| * 10**(16 - E) rounded half
    to even, which needs 10**(16 - E) to be an exact double: so
    1e-6 < |v| < 1e17 and zeros are written here, and every other value
    (NaN and inf included) is formatted by Python.

    Returns the indices of the values whose text has 24 characters, a
    negative value with a three-digit exponent such as -1e-100: it does not
    fit after the separator, so their columns hold only the separator and
    NULs, and the caller writes those rows some other way.
    """
    a = np.abs(values)
    fast = (a > 1e-6) & (a < 1e17)  # decimal exponents -6 .. 16; False for NaN
    slow = ~fast
    np.copyto(a, 1.0, where=slow)
    # log10 is off by at most a few ulps, so the floor of log10(a) - 1e-12 is
    # the decimal exponent E or one less (never 17); an exact product
    # p + err >= 1e17 marks the ones that are one less
    e = np.log10(a)
    e -= 1e-12
    np.floor(e, out=e)
    k = e.astype(np.intp)
    np.subtract(16, k, out=k)
    np.minimum(k, 22, out=k)  # E >= -6
    p, err = _times_pow10(a, k)
    big = np.flatnonzero(p >= 1e17)
    if big.size:
        short = big[(p[big] > 1e17) | (err[big] >= 0)]
        k[short] -= 1
        p[short], err[short] = _times_pow10(a[short], k[short])
    # p is an even integer >= 1e16, so adding rint(err) rounds half to even.
    # n stays below 10**17: no double in (1e-6, 1e17) lies within half a
    # 17th digit below a power of ten (the tests cover every such neighbour)
    n = p.astype(np.int64)
    n += np.rint(err).astype(np.int64)
    np.copyto(n, 0, where=slow)  # zeros come out right (a = 1 gives E = 0); the rest is overwritten below
    high = n // 10**8
    low = (n - high * 10**8).astype(np.int32)
    high = high.astype(np.int32)  # below 10**9
    lead = high // 10**8
    high -= lead * 10**8
    lead += np.signbit(values) * np.int32(10)
    first = out[0]
    first &= _SEPARATOR_MASK
    first |= _LEAD_WORDS.take(lead)
    for row, group in ((1, high), (3, low)):
        quotient = group // 10_000
        _DIGITS4.take(quotient, out=out[row], mode="clip")
        group -= quotient * 10_000
        _DIGITS4.take(group, out=out[row + 1], mode="clip")
    _EXPONENTS.take(k, out=out[5], mode="clip")
    wide = []
    for i in np.flatnonzero(slow & (values != 0.0)).tolist():
        text = f"{values[i]:.16e}".encode("ascii")
        if len(text) >= 4 * _E16_WORDS:
            wide.append(i)
            text = b""
        field = out[:1, i].tobytes()[:1] + text.ljust(4 * _E16_WORDS - 1, b"\0")
        out[:, i] = np.frombuffer(field, np.uint32)
    return wide


def _join_rows(
    words: np.ndarray, wide: list[int], row_text: Callable[[int], str], *, sparse: bool = False
) -> bytes:
    """The rows of a word-major buffer, ``words[:, r]`` being row r, as ASCII with the NULs dropped.

    Each row r in ``wide`` holds a field that ``_format_e16`` could not fit
    and is replaced by ``row_text(r)``.  ``bytes.translate`` drops the NULs
    at a table lookup per byte, ``bytes.replace`` (``sparse``) at about a
    memchr and a memcpy per NUL: the latter is faster for rows with less
    than about one NUL in 15 bytes, such as the scan's.
    """
    pieces, start = [], 0
    for r in sorted(set(wide)):
        pieces += [words[:, start:r].T.tobytes(), row_text(r).encode("ascii")]
        start = r + 1
    pieces.append(words[:, start:].T.tobytes())
    text = b"".join(pieces)
    return text.replace(b"\0", b"") if sparse else text.translate(None, b"\0")


def _shot_rows(phis: np.ndarray, zs: np.ndarray) -> Iterator[bytes]:
    """The ``phi,z`` rows of the shots, one ``bytes`` per slice of ``_CSV_BLOCK`` shots.

    Each slice is written into one word-major row buffer, 7 words a row:
    the phase by ``_format_e16`` and the ``,z\\n`` tail from ``_Z_TAILS``;
    the NULs are dropped, so the text is byte-identical to formatting each
    shot with ``f"{phi:.16e},{z}"``.
    """
    words = np.zeros((_E16_WORDS + 1, min(phis.size, _CSV_BLOCK)), np.uint32)
    for start in range(0, phis.size, _CSV_BLOCK):
        phi = phis[start : start + _CSV_BLOCK]
        z = zs[start : start + _CSV_BLOCK]
        block = words[:, : phi.size]
        wide = _format_e16(phi, block[:_E16_WORDS])
        _Z_TAILS.take(z < 0, out=block[-1], mode="clip")
        yield _join_rows(block, wide, lambda r: f"{phi[r]:.16e},{z[r]}\n")


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
    seed: int

    def __post_init__(self) -> None:
        try:
            with np.errstate(invalid="raise"):
                counts = _read_only_table(self.counts, np.int64)
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
        return DiscreteJoint(self.counts / self.total, kind=OPERATIONAL)


@dataclass(frozen=True, eq=False)
class PhaseShots:
    """Per-shot records (phi, z), phi in [0, 2*pi), in draw order."""

    phi: np.ndarray
    z: np.ndarray
    total: int
    seed: int

    def __post_init__(self) -> None:
        phi = np.asarray(self.phi, dtype=float)
        try:
            with np.errstate(invalid="raise"):
                z = np.asarray(self.z, dtype=np.int64)
        except (TypeError, ValueError, OverflowError, FloatingPointError):  # not a number, or beyond int64
            raise ValueError("z records must be +1 or -1") from None
        if phi.shape != (self.total,) or z.shape != (self.total,):
            raise ValueError("phi and z must both have length total")
        _check_records(phi, z)
        if not (z is self.z or np.array_equal(z, self.z)):  # the cast truncated a z like 1.5
            raise ValueError("z records must be +1 or -1")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "z", z)

    def csv_blocks(self) -> Iterator[bytes]:
        """The ASCII bytes of ``to_csv()``: the header line, then one block per ``_CSV_BLOCK`` shots.

        Beyond the shots themselves, memory stays at one block's buffers
        whatever the shot count, so writing each block as it comes streams the file.
        """
        yield _PHASE_HEADER
        yield from _shot_rows(self.phi, self.z)

    def to_csv(self) -> str:
        """One ``phi,z`` line per shot in draw order, phi as ``%.16e``, z as ``%d``."""
        return b"".join(self.csv_blocks()).decode("ascii")


@dataclass(frozen=True, eq=False)
class EstimatedQuasiJoint:
    """Inverted empirical frequencies with one standard error per entry, laid out like ``joint.table``."""

    joint: DiscreteJoint
    stderrs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "stderrs", _read_only_table(self.stderrs, float))

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
    return ShotCounts(counts.reshape(2, 2), seed=seed)


def _asin(y: np.ndarray) -> np.ndarray:
    """arcsin of each y in [-1, 1], written over y, from + - * / and sqrt only.

    numpy's ``arcsin`` (like ``arctan2``, ``exp``, ``log`` and ``power``)
    changes last bits with the SIMD paths numpy picks for the CPU; the
    operations here are correctly rounded on every path.  Two half-angle
    steps y -> y / sqrt(2 (1 + sqrt(1 - y**2))) bring |y| to at most
    sin(pi/8), fdlibm's rational evaluates arcsin there, and the result is
    four times that.  Within 3 ulps of ``math.asin`` (1 ulp below it at
    +-1, so |result| < pi/2) and exact at 0; a subnormal y loses the bits
    that y/4 drops.
    """
    scratch = np.empty_like(y)
    for _ in range(2):
        np.subtract(1.0, y, out=scratch)
        scratch *= 1.0 + y  # 1 - y*y would lose the low bits near |y| = 1
        np.sqrt(scratch, out=scratch)
        scratch += 1.0
        scratch *= 2.0
        np.sqrt(scratch, out=scratch)
        y /= scratch
    t = np.multiply(y, y, out=scratch)
    p = _ASIN_P[-1] * t
    for coefficient in _ASIN_P[-2::-1]:
        p += coefficient
        p *= t
    q = _ASIN_Q[-1] * t
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


def _cardioid_share(density: PhaseDensity) -> float:
    """Weight A/c0 of the cardioid part of c0 + A cos(phi - phi0), clipped to [0, 1]."""
    return min(density.amplitude / density.c0, 1.0) if density.c0 > 0.0 else 0.0


def sample_phase(joint: PhaseJoint, n: int, seed: int) -> PhaseShots:
    """Draw n (phi, z) records from a measured phase joint, exactly and without retries.

    A slice c0 + A cos(phi - phi0) with A <= c0 is a mixture: with
    probability A/c0 the cardioid (1 + cos u)/(2 pi) shifted by
    phi0 = atan2(c_sin, c_cos), otherwise uniform.  The seed spawns two
    PCG64 streams.  The z stream gives one uniform v per shot, which picks
    both the outcome and the mixture part: [0, 1) is cut into +1 uniform,
    +1 cardioid, -1 cardioid and -1 uniform, in that order.  Shots are
    drawn in blocks of ``_SAMPLE_BLOCK``, so memory beyond the output stays
    bounded.  For each block the phi stream gives one uniform U1 per shot,
    phi = 2 pi U1 for a uniform shot, and then one uniform U2 per cardioid
    shot, phi = phi0 + 2 asin(sqrt(U1) cos(2 pi U2)) reduced into
    [0, 2 pi): the abscissa of a uniform point of the unit disk is
    semicircle distributed, and twice its arcsine is the cardioid.  phi0
    is one ``math.atan2`` per slice, and the per-shot arcsine is ``_asin``,
    so the bits do not depend on which SIMD paths numpy picks.
    """
    _check_draw(joint, n)
    phi, z = np.empty(n), np.empty(n, dtype=np.int64)
    for start, (block_phi, block_z) in zip(range(0, n, _SAMPLE_BLOCK), _phase_blocks(joint, n, seed)):
        phi[start : start + _SAMPLE_BLOCK], z[start : start + _SAMPLE_BLOCK] = block_phi, block_z
    return PhaseShots(phi=phi, z=z, total=n, seed=seed)


def _phase_blocks(joint: PhaseJoint, n: int, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The shots of ``sample_phase``, each (phi, z) block checked like a record and valid until the next.

    Every block is drawn into the same buffers; the caller checks joint and n first (``_check_draw``).
    """
    z_seq, phi_seq = np.random.SeedSequence(seed).spawn(2)
    z_rng = np.random.default_rng(z_seq)
    phi_rng = np.random.default_rng(phi_seq)
    w_plus = min(max(joint.plus.integral, 0.0), 1.0)
    cardioid_low = w_plus * (1.0 - _cardioid_share(joint.plus))
    cardioid_high = w_plus + (1.0 - w_plus) * _cardioid_share(joint.minus)
    phase0 = np.array([math.atan2(d.c_sin, d.c_cos) for d in (joint.plus, joint.minus)])
    v_buf, u1_buf, u2_buf, phi_buf = (np.empty(min(n, _SAMPLE_BLOCK)) for _ in range(4))
    z_buf = np.empty(phi_buf.size, dtype=np.int64)
    for start in range(0, n, _SAMPLE_BLOCK):
        k = min(_SAMPLE_BLOCK, n - start)
        v, u1, phi, z = v_buf[:k], u1_buf[:k], phi_buf[:k], z_buf[:k]
        z_rng.random(out=v)
        phi_rng.random(out=u1)
        minus = v >= w_plus
        np.multiply(minus, -2, out=z)
        z += 1
        np.multiply(u1, TWO_PI, out=phi)
        cardioid = np.flatnonzero((v >= cardioid_low) & (v < cardioid_high))
        if cardioid.size:
            x = phi_rng.random(out=u2_buf[: cardioid.size])
            x *= TWO_PI
            np.cos(x, out=x)
            x *= np.sqrt(u1[cardioid])
            u = _asin(x)
            u *= 2.0
            u += phase0.take(minus[cardioid].view(np.int8))
            phi[cardioid] = _wrap_phase(u)
        _check_records(phi, z)
        yield phi, z


def _phase_pass(blocks: Iterable[tuple[np.ndarray, np.ndarray]], file: BinaryIO | None = None) -> tuple[dict, dict]:
    """Slice counts and ``harmonic_estimates`` of (phi, z) blocks, each summed and then written to ``file`` if given.

    Per slice, ``math.fsum`` adds the blocks' ``np.sum`` of cos(phi) and sin(phi), so past one block
    (``_SAMPLE_BLOCK`` shots) the last bits depend on the blocking.
    """
    counts, cos_sums, sin_sums = {1: 0, -1: 0}, {1: [], -1: []}, {1: [], -1: []}
    if file is not None:
        file.write(_PHASE_HEADER)
    for phi, z in blocks:
        for outcome in (1, -1):
            phis = phi[z == outcome]
            counts[outcome] += phis.size
            cos_sums[outcome].append(float(np.sum(np.cos(phis))))
            sin_sums[outcome].append(float(np.sum(np.sin(phis))))
        for chunk in _shot_rows(phi, z) if file is not None else ():
            file.write(chunk)
    n = counts[1] + counts[-1]
    if not n:
        raise ValueError("cannot estimate harmonics from an empty shot record (total=0)")
    return counts, {
        z: PhaseDensity(counts[z] / (TWO_PI * n), math.fsum(cos_sums[z]) / (math.pi * n), math.fsum(sin_sums[z]) / (math.pi * n))
        for z in (1, -1)
    }


def estimate_quasi_joint(
    counts: ShotCounts, config: MarkerConfig, eps: float = SINGULARITY_EPS
) -> EstimatedQuasiJoint:
    """Invert empirical frequencies and attach delta-method standard errors.

    The estimate is exactly the discrete inversion applied to counts/N, so
    it inherits normalization; the errors are the multinomial covariance of
    the frequencies pushed through the fixed kernel kron(mu_X, mu_Z).
    """
    freq = counts.frequencies()
    quasi = invert_joint_discrete(freq, config, eps)
    kernel = np.kron(mu_x_matrix(config.theta, eps), mu_z_matrix(config, eps))
    p = freq.table.ravel()
    cov = (np.diag(p) - np.outer(p, p)) / counts.total
    variances = np.einsum("ai,ij,aj->a", kernel, cov, kernel)
    se = np.sqrt(np.clip(variances, 0.0, None))
    return EstimatedQuasiJoint(quasi, se.reshape(2, 2))


def harmonic_estimates(shots: PhaseShots) -> dict[int, PhaseDensity]:
    """Moment estimators of each slice's Fourier triple from phase shots.

    c0(z) ~ n_z/(2*pi*N), c_cos(z) ~ sum(cos phi_i)/(pi*N) over shots with
    outcome z, and likewise for sin.  An empty record (total 0) has no
    estimate and raises ``ValueError``.
    """
    starts = range(0, shots.total, _SAMPLE_BLOCK)
    return _phase_pass((shots.phi[i : i + _SAMPLE_BLOCK], shots.z[i : i + _SAMPLE_BLOCK]) for i in starts)[1]
