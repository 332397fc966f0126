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
from collections.abc import Iterator
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

DISCRETE_CSV_HEADER = "x,z,count"
PHASE_CSV_HEADER = "phi,z"

#: rows formatted per block by the PhaseShots and ScanGrid CSV writers; the row
#: buffer and the formatter's temporaries (about 100 B a row) scale with it,
#: so it is kept well below the size of a typical scan or shot file
_CSV_BLOCK = 1 << 12

#: bytes of the widest ``%.16e`` field, "-4.9406564584124654e-324"
_E16_WIDTH = 24
#: exact doubles 1e0 .. 1e22, each with its Dekker split by 2**27 + 1
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
#: ASCII "0000" .. "9999" as one 4-byte word per value, built from uint8
#: digits so that import allocates no large temporaries
_DIGITS4 = (
    np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1)
    .reshape(-1, 4)
    .view(np.uint32)
    .ravel()
)
#: ASCII "e-06" .. "e+16" as one 4-byte word per decimal exponent, from -6
_EXPONENTS = np.frombuffer("".join(f"e{e:+03d}" for e in range(-6, 17)).encode(), np.uint32)

#: shots drawn per block by sample_phase; its per-block temporaries (a few
#: arrays of this length) stay small whatever the shot count
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


def _times_pow10(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact product a * 10**(16 - e) as p + err (Dekker's TwoProduct, no FMA)."""
    k = 16 - e
    c = a * 134217729.0
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p = a * _POW10[k]
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, err


def _format_e16(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``f"{v:.16e}"`` of each float64 value as ASCII into its row of ``out``.

    ``out`` is a uint8 array of shape (len(values), _E16_WIDTH), typically a
    column slice of a CSV row buffer.  Every byte of it is written; the bytes
    a field does not use are NUL.  The 17 significant digits are the exact
    product |v| * 10**(16 - E) rounded half to even, which needs
    10**(16 - E) to be an exact double: so 1e-6 < |v| < 1e17 and zeros are
    written here, and every other value (NaN and inf included) is formatted
    by Python.
    """
    a = np.abs(values)
    fast = (a > 1e-6) & (a < 1e17)  # decimal exponents -6 .. 16; False for NaN
    a = np.where(fast, a, 1.0)
    # log10 is off by at most a few ulps, so the floor of log10(a) - 1e-12 is
    # the decimal exponent or one less (never 17); an exact product
    # p + err >= 1e17 marks the ones that are one less
    e = np.maximum(np.floor(np.log10(a) - 1e-12).astype(np.int64), -6)
    p, err = _times_pow10(a, e)
    short = np.flatnonzero((p > 1e17) | ((p == 1e17) & (err >= 0)))
    e[short] += 1
    p[short], err[short] = _times_pow10(a[short], e[short])
    # p is an even integer >= 1e16, so adding rint(err) rounds half to even.
    # n stays below 10**17: no double in (1e-6, 1e17) lies within half a
    # 17th digit below a power of ten (the tests cover every such neighbour)
    n = p.astype(np.int64) + np.rint(err).astype(np.int64)
    n[~fast] = 0  # zeros come out right; the rest is overwritten below
    e[~fast] = 0
    lead = n // 10**16
    rest = n - lead * 10**16
    high = (rest // 10**8).astype(np.int32)
    low = (rest - high * 10**8).astype(np.int32)
    groups = np.stack([high // 10000, high % 10000, low // 10000, low % 10000], axis=1)
    out[:, 0] = np.signbit(values) * np.uint8(45)  # "-"
    out[:, 1] = lead + 48
    out[:, 2] = 46  # "."
    out[:, 3:19] = _DIGITS4[groups].view(np.uint8)
    out[:, 19:23] = _EXPONENTS[e + 6].view(np.uint8).reshape(-1, 4)
    out[:, 23] = 0
    for i in np.flatnonzero(~fast & (values != 0.0)):
        text = f"{values[i]:.16e}".encode("ascii")
        out[i, : len(text)] = np.frombuffer(text, np.uint8)
        out[i, len(text) :] = 0


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

    def _csv_blocks(self) -> Iterator[bytes]:
        yield DISCRETE_CSV_HEADER.encode("ascii") + b"\n"
        rows = (f"{x},{z},{self.count(x, z)}\n" for x in (1, -1) for z in (1, -1))
        yield "".join(rows).encode("ascii")

    def to_csv(self) -> str:
        """One ``x,z,count`` line per outcome, in table order."""
        return b"".join(self._csv_blocks()).decode("ascii")

    def write_csv(self, file: BinaryIO) -> None:
        """Write the bytes of ``to_csv()`` to a binary file."""
        for block in self._csv_blocks():
            file.write(block)


@dataclass(frozen=True, eq=False)
class PhaseShots:
    """Per-shot records (phi, z), phi in [0, 2*pi), in draw order."""

    phi: np.ndarray
    z: np.ndarray
    total: int
    seed: int

    def __post_init__(self) -> None:
        phi = np.asarray(self.phi, dtype=float)
        z = np.asarray(self.z, dtype=int)
        if phi.shape != (self.total,) or z.shape != (self.total,):
            raise ValueError("phi and z must both have length total")
        if phi.size and not (phi.min() >= 0.0 and phi.max() < TWO_PI):  # NaN fails both
            raise ValueError("phases must lie in [0, 2*pi)")
        if not np.all(np.abs(z) == 1):
            raise ValueError("z records must be +1 or -1")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "z", z)

    def slice_count(self, z: int) -> int:
        _outcome_index(z)  # validates z
        return int(np.sum(self.z == z))

    def _csv_blocks(self) -> Iterator[bytes]:
        """The header line, then the rows of each block of ``_CSV_BLOCK`` shots.

        Each block is written into one NUL-padded byte row buffer by
        ``_format_e16``, and the NULs are dropped; the text is byte-identical
        to formatting each shot with ``f"{phi:.16e},{z}"``.
        """
        yield PHASE_CSV_HEADER.encode("ascii") + b"\n"
        rows = np.empty((min(self.total, _CSV_BLOCK), _E16_WIDTH + 4), np.uint8)
        rows[:, _E16_WIDTH] = 44  # ","
        rows[:, -2] = 49  # "1"
        rows[:, -1] = 10  # "\n"
        for start in range(0, self.total, _CSV_BLOCK):
            phi = self.phi[start : start + _CSV_BLOCK]
            block = rows[: phi.size]
            _format_e16(phi, block[:, :_E16_WIDTH])
            block[:, -3] = np.where(self.z[start : start + _CSV_BLOCK] < 0, 45, 0)
            yield block.tobytes().translate(None, b"\0")

    def to_csv(self) -> str:
        """One ``phi,z`` line per shot in draw order, phi as ``%.16e``, z as ``%d``."""
        return b"".join(self._csv_blocks()).decode("ascii")

    def write_csv(self, file: BinaryIO) -> None:
        """Write the bytes of ``to_csv()`` to a binary file, each block as soon as it is formatted.

        Beyond the shots themselves, memory stays at one block's buffers
        whatever the shot count.
        """
        for block in self._csv_blocks():
            file.write(block)


@dataclass(frozen=True, eq=False)
class EstimatedQuasiJoint:
    """Inverted empirical frequencies with one standard error per entry, laid out like ``joint.table``."""

    joint: DiscreteJoint
    stderrs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "stderrs", _read_only_table(self.stderrs, float))

    def value(self, x: int, z: int) -> float:
        return self.joint.value(x, z)

    def stderr(self, x: int, z: int) -> float:
        return self.stderrs.item(_outcome_index(x, z))


def sample_discrete(joint: DiscreteJoint, n: int, seed: int) -> ShotCounts:
    """Draw n shots from a measured joint; deterministic for a fixed seed."""
    if joint.kind != OPERATIONAL:
        raise ValueError("cannot sample a quasi joint: weights may be negative")
    if n < 1:
        raise ValueError("n must be >= 1")
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
    if joint.kind != OPERATIONAL:
        raise ValueError("cannot sample a quasi joint: weights may be negative")
    if n < 1:
        raise ValueError("n must be >= 1")
    z_seq, phi_seq = np.random.SeedSequence(seed).spawn(2)
    z_rng = np.random.default_rng(z_seq)
    phi_rng = np.random.default_rng(phi_seq)
    w_plus = min(max(joint.plus.integral, 0.0), 1.0)
    cardioid_low = w_plus * (1.0 - _cardioid_share(joint.plus))
    cardioid_high = w_plus + (1.0 - w_plus) * _cardioid_share(joint.minus)
    phase0 = np.array([math.atan2(d.c_sin, d.c_cos) for d in (joint.plus, joint.minus)])
    phi = np.empty(n)
    z = np.empty(n, dtype=np.int64)
    for start in range(0, n, _SAMPLE_BLOCK):
        stop = min(start + _SAMPLE_BLOCK, n)
        v = z_rng.random(stop - start)
        u1 = phi_rng.random(stop - start)
        minus = v >= w_plus
        np.multiply(minus, -2, out=z[start:stop])
        z[start:stop] += 1
        np.multiply(u1, TWO_PI, out=phi[start:stop])
        cardioid = np.flatnonzero((v >= cardioid_low) & (v < cardioid_high))
        if cardioid.size:
            x = np.cos(TWO_PI * phi_rng.random(cardioid.size))
            x *= np.sqrt(u1[cardioid])
            u = _asin(x)
            u *= 2.0
            u += phase0.take(minus[cardioid].view(np.int8))
            phi[start + cardioid] = _wrap_phase(u)
    return PhaseShots(phi=phi, z=z, total=n, seed=seed)


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
    outcome z, and likewise for sin.
    """
    n = shots.total
    out: dict[int, PhaseDensity] = {}
    for z in (1, -1):
        mask = shots.z == z
        phis = shots.phi[mask]
        out[z] = PhaseDensity(
            phis.size / (TWO_PI * n),
            float(np.sum(np.cos(phis))) / (math.pi * n),
            float(np.sum(np.sin(phis))) / (math.pi * n),
        )
    return out
