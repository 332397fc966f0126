"""Exact statistics of a pure two-aperture state: path, fringe, and phase.

The state is a normalized complex pair (alpha, beta) over the apertures,
with (1, 0) the upper and (0, 1) the lower aperture.  Three observables
are exposed:

* path, z = +/-1, with distribution (1 + z <Z>)/2,
* the discrete fringe variable, x = +/-1, measured by projecting on
  (1, x)/sqrt(2),
* continuous phase, the POVM of nonorthogonal states
  (1, exp(i*phi))/sqrt(2*pi), with outcome density
  (1 + cos(phi) <X> + sin(phi) <Y>)/(2*pi).

Every phase density handled by this package is of first-harmonic form, so
densities are carried exactly as Fourier triples (c0, c_cos, c_sin); grids
appear only at output boundaries.  Angles are radians throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

#: the two outcomes of every binary observable in this package
OUTCOMES = (1, -1)

#: post-construction guarantee on |alpha|^2 + |beta|^2
NORM_TOL = 1e-12

#: inputs this close to unit norm are rescaled silently; worse ones rejected
RENORM_TOL = 1e-6


class StateValidationError(ValueError):
    """Amplitudes non-finite or too far from unit norm to renormalize."""


#: the outcomes as floats, for broadcasting against a (+1, -1) axis
_SIGNS = np.array(OUTCOMES, dtype=float)


def _outcome_index(*outcomes: int) -> int:
    """Row-major position of an outcome tuple on (+1, -1) axes: (1, -1) -> 1, (-1, 1) -> 2."""
    index = 0
    for value in outcomes:
        if value not in OUTCOMES:
            raise ValueError(f"outcome must be +1 or -1, got {value!r}")
        index = 2 * index + (value == -1)
    return index


def _read_only_table(values, dtype) -> np.ndarray:
    """A read-only copy of ``values`` as a 2x2 table, one (+1, -1) outcome axis per dimension."""
    table = np.array(values, dtype=dtype)
    if table.shape != (2, 2):
        raise ValueError(f"expected a 2x2 table, got shape {table.shape}")
    table.flags.writeable = False
    return table


def _by_outcome(plus, minus) -> np.ndarray:
    """Stack two equally shaped arrays along a new trailing outcome axis (+1, -1)."""
    out = np.empty(np.shape(plus) + (2,))
    out[..., 0] = plus
    out[..., 1] = minus
    return out


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude pair on the apertures: (1, 0) upper, (0, 1) lower.

    Inputs within ``RENORM_TOL`` of unit norm are rescaled silently (to
    tolerate hand-entered decimals); anything farther off raises
    :class:`StateValidationError`.
    """

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        alpha = complex(self.alpha)
        beta = complex(self.beta)
        try:
            norm_sq = abs(alpha) ** 2 + abs(beta) ** 2
        except OverflowError:
            raise StateValidationError("amplitudes too large to normalize") from None
        if not math.isfinite(norm_sq):
            raise StateValidationError("amplitudes must be finite")
        norm = math.sqrt(norm_sq)
        if abs(norm - 1.0) > RENORM_TOL:
            raise StateValidationError(
                f"|alpha|^2 + |beta|^2 = {norm_sq!r} is more than "
                f"{RENORM_TOL} from unit norm; refusing to renormalize"
            )
        if abs(norm - 1.0) > NORM_TOL:  # skip when already in tolerance: keeps reparsing bit-stable
            alpha /= norm
            beta /= norm
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=np.complex128)


@dataclass(frozen=True)
class BlochExpectations:
    """Expectation triple (<X>, <Y>, <Z>); unit Euclidean length for pure states."""

    ex: float
    ey: float
    ez: float

    def __post_init__(self) -> None:
        for name in ("ex", "ey", "ez"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or abs(value) > 1.0 + NORM_TOL:
                raise ValueError(f"{name} = {value!r} outside [-1, 1]")
            object.__setattr__(self, name, value)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.ex, self.ey, self.ez)


@dataclass(frozen=True)
class BinaryDistribution:
    """Probabilities of the +1 and -1 outcomes of a binary observable."""

    p_plus: float
    p_minus: float

    def __post_init__(self) -> None:
        for name in ("p_plus", "p_minus"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or not -NORM_TOL <= value <= 1.0 + NORM_TOL:
                raise ValueError(f"{name} = {value!r} outside [0, 1]")
            object.__setattr__(self, name, value)
        if abs(self.p_plus + self.p_minus - 1.0) > NORM_TOL:
            raise ValueError(
                f"outcome probabilities sum to {self.p_plus + self.p_minus!r}, not 1"
            )

    @classmethod
    def from_expectation(cls, expectation: float) -> BinaryDistribution:
        return cls(0.5 * (1.0 + expectation), 0.5 * (1.0 - expectation))

    def probability(self, outcome: int) -> float:
        return (self.p_plus, self.p_minus)[_outcome_index(outcome)]

    @property
    def expectation(self) -> float:
        return self.p_plus - self.p_minus


@dataclass(frozen=True)
class PhaseDensity:
    """First-harmonic density c0 + c_cos*cos(phi) + c_sin*sin(phi) on [0, 2*pi).

    The triple is exact; nothing here forces normalization or positivity,
    both live at the call sites (operational slices are nonnegative,
    reconstructed ones need not be).
    """

    c0: float
    c_cos: float
    c_sin: float

    def __post_init__(self) -> None:
        for name in ("c0", "c_cos", "c_sin"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    @property
    def amplitude(self) -> float:
        """Harmonic amplitude sqrt(c_cos^2 + c_sin^2)."""
        return math.hypot(self.c_cos, self.c_sin)

    @property
    def min_value(self) -> float:
        """Minimum over phi, attained where the harmonic points downhill."""
        return self.c0 - self.amplitude

    @property
    def integral(self) -> float:
        """Integral over one period, 2*pi*c0; equals 1 for normalized densities."""
        return TWO_PI * self.c0

    def is_nonnegative(self, tol: float = 0.0) -> bool:
        return self.min_value >= -tol


def bloch_from_state(state: PureState) -> BlochExpectations:
    """Expectations of the three binary observables of the aperture qubit.

    <X> = alpha*conj(beta) + conj(alpha)*beta,
    <Y> = i*(alpha*conj(beta) - conj(alpha)*beta),
    <Z> = |alpha|^2 - |beta|^2.
    """
    cross = state.alpha.conjugate() * state.beta
    return BlochExpectations(
        ex=2.0 * cross.real,
        ey=2.0 * cross.imag,
        ez=abs(state.alpha) ** 2 - abs(state.beta) ** 2,
    )


def exact_path_distribution(state: PureState) -> BinaryDistribution:
    """P(z) = (1 + z <Z>)/2, i.e. (|alpha|^2, |beta|^2)."""
    return BinaryDistribution.from_expectation(bloch_from_state(state).ez)


def exact_interference_distribution(state: PureState) -> BinaryDistribution:
    """P(x) = (1 + x <X>)/2, the Born rule for the (1, x)/sqrt(2) projectors."""
    return BinaryDistribution.from_expectation(bloch_from_state(state).ex)


def exact_phase_distribution(state: PureState) -> PhaseDensity:
    """Phase POVM density (1 + cos(phi) <X> + sin(phi) <Y>)/(2*pi)."""
    e = bloch_from_state(state)
    return PhaseDensity(1.0 / TWO_PI, e.ex / TWO_PI, e.ey / TWO_PI)


def evaluate_phase_density(density: PhaseDensity, phi):
    """Evaluate the density at phi (scalar or array); 2*pi-periodic."""
    phi_arr = np.asarray(phi, dtype=float)
    values = density.c0 + density.c_cos * np.cos(phi_arr) + density.c_sin * np.sin(phi_arr)
    if values.ndim == 0:
        return float(values)
    return values


def phase_grid(num: int) -> np.ndarray:
    """num equally spaced phases covering [0, 2*pi) without the endpoint."""
    if num < 1:
        raise ValueError("grid needs at least one point")
    return np.linspace(0.0, TWO_PI, num, endpoint=False)
