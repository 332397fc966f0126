"""Finite-statistics simulation of the joint measurement.

Shots are drawn from operational (measured) distributions only; quasi
joints have negative weights and are rejected.  All randomness flows from
numpy's PCG64 generator seeded by the caller, so runs are reproducible
bit-for-bit; the phase sampler splits the seed into independent streams
for the analyzer draw and the phase draw.

Empirical frequencies pushed through the discrete inversion give an
estimate of the quasi joint; standard errors are first-order (delta
method), i.e. the multinomial covariance of the frequencies propagated
through the fixed tensor-product kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from quasijoint.states import TWO_PI, PhaseDensity, _outcome_index, evaluate_phase_density

DISCRETE_CSV_HEADER = "x,z,count"
PHASE_CSV_HEADER = "phi,z"

#: shots formatted per block by PhaseShots.to_csv
_CSV_BLOCK = 1 << 16


@dataclass(frozen=True)
class ShotCounts:
    """Multinomial counts over the four (x, z) outcomes; field naming as in DiscreteJoint."""

    pp: int
    pm: int
    mp: int
    mm: int
    total: int
    seed: int

    def __post_init__(self) -> None:
        counts = (self.pp, self.pm, self.mp, self.mm)
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
        if sum(counts) != self.total:
            raise ValueError(f"counts sum to {sum(counts)}, expected total {self.total}")

    def count(self, x: int, z: int) -> int:
        return (self.pp, self.pm, self.mp, self.mm)[_outcome_index(x, z)]

    def frequencies(self) -> DiscreteJoint:
        n = self.total
        return DiscreteJoint(
            self.pp / n, self.pm / n, self.mp / n, self.mm / n, kind=OPERATIONAL
        )

    def to_csv(self) -> str:
        lines = [DISCRETE_CSV_HEADER]
        for x in (1, -1):
            for z in (1, -1):
                lines.append(f"{x},{z},{self.count(x, z)}")
        return "\n".join(lines) + "\n"


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

    def to_csv(self) -> str:
        """One ``phi,z`` line per shot in draw order, phi as ``%.16e``, z as ``%d``.

        Shots are formatted in blocks of ``_CSV_BLOCK`` from plain Python
        values, one ``%`` operation per block; the text is byte-identical to
        formatting each shot with ``f"{phi:.16e},{z}"``.
        """
        blocks = [PHASE_CSV_HEADER + "\n"]
        for start in range(0, self.total, _CSV_BLOCK):
            phi = self.phi[start : start + _CSV_BLOCK].tolist()
            flat = [None] * (2 * len(phi))
            flat[0::2] = phi
            flat[1::2] = self.z[start : start + _CSV_BLOCK].tolist()
            blocks.append(("%.16e,%d\n" * len(phi)) % tuple(flat))
        return "".join(blocks)


@dataclass(frozen=True)
class EstimatedQuasiJoint:
    """Inverted empirical frequencies with one standard error per entry."""

    joint: DiscreteJoint
    se_pp: float
    se_pm: float
    se_mp: float
    se_mm: float

    def value(self, x: int, z: int) -> float:
        return self.joint.value(x, z)

    def stderr(self, x: int, z: int) -> float:
        return (self.se_pp, self.se_pm, self.se_mp, self.se_mm)[_outcome_index(x, z)]


def sample_discrete(joint: DiscreteJoint, n: int, seed: int) -> ShotCounts:
    """Draw n shots from a measured joint; deterministic for a fixed seed."""
    if joint.kind != OPERATIONAL:
        raise ValueError("cannot sample a quasi joint: weights may be negative")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    weights = np.clip(joint.as_array().ravel(), 0.0, None)
    counts = rng.multinomial(n, weights / weights.sum())
    return ShotCounts(
        int(counts[0]), int(counts[1]), int(counts[2]), int(counts[3]), total=n, seed=seed
    )


def _rejection_sample(rng: np.random.Generator, density: PhaseDensity, count: int) -> np.ndarray:
    """Flat-envelope rejection at height c0 + amplitude; acceptance >= 1/2."""
    cap = density.c0 + density.amplitude
    out = np.empty(count)
    filled = 0
    while filled < count:
        batch = max(2 * (count - filled), 64)
        candidates = rng.uniform(0.0, TWO_PI, batch)
        heights = rng.uniform(0.0, cap, batch)
        kept = candidates[heights <= evaluate_phase_density(density, candidates)]
        take = min(kept.size, count - filled)
        out[filled : filled + take] = kept[:take]
        filled += take
    return out


def sample_phase(joint: PhaseJoint, n: int, seed: int) -> PhaseShots:
    """Draw n (phi, z) records from a measured phase joint.

    The analyzer outcome comes first from the slice weights, then phi is
    rejection-sampled within the slice; the two draws use independent
    streams spawned from the seed.
    """
    if joint.kind != OPERATIONAL:
        raise ValueError("cannot sample a quasi joint: weights may be negative")
    if n < 1:
        raise ValueError("n must be >= 1")
    z_seq, phi_seq = np.random.SeedSequence(seed).spawn(2)
    z_rng = np.random.default_rng(z_seq)
    phi_rng = np.random.default_rng(phi_seq)
    w_plus = min(max(joint.plus.integral, 0.0), 1.0)
    z = np.where(z_rng.random(n) < w_plus, 1, -1)
    phi = np.empty(n)
    for outcome, density in ((1, joint.plus), (-1, joint.minus)):
        mask = z == outcome
        count = int(mask.sum())
        if count:
            phi[mask] = _rejection_sample(phi_rng, density, count)
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
    kernel = np.kron(mu_x_matrix(config.theta, eps).as_array(), mu_z_matrix(config, eps).as_array())
    p = freq.as_array().ravel()
    cov = (np.diag(p) - np.outer(p, p)) / counts.total
    variances = np.einsum("ai,ij,aj->a", kernel, cov, kernel)
    se = np.sqrt(np.clip(variances, 0.0, None))
    return EstimatedQuasiJoint(
        joint=quasi,
        se_pp=float(se[0]),
        se_pm=float(se[1]),
        se_mp=float(se[2]),
        se_mm=float(se[3]),
    )


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
