"""Spin marking of the path, analyzer readout, and the measured joint statistics.

The upper-aperture amplitude is tagged by rotating a spin marker from
|right> toward |up> by the marking angle theta (theta = 0: no marking,
theta = pi/2: full which-path tagging); the lower aperture leaves the
marker in |right>.  An analyzer at angle vartheta reads the marker out
jointly with the fringe or phase measurement.

Composite amplitudes form a (2, 2) array indexed [path, spin], row-major
(upper,right), (upper,up), (lower,right), (lower,up): path index 0 is the
upper aperture (z = +1), spin index 0 is |right>.  Every projection uses it.

The measured joints exist twice on purpose: once through the closed-form
analyzer coefficients (`gamma_coefficients`) and once by direct Born-rule
projection of the composite state (`born_joint_discrete`,
`born_joint_phase`).  The projection path knows nothing about the
coefficient algebra and is the reference the closed forms are tested
against; downstream modules reuse it for the same role.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from quasijoint.states import (
    OUTCOMES,
    TWO_PI,
    BinaryDistribution,
    BlochExpectations,
    PhaseDensity,
    PureState,
    _SIGNS,
    _by_outcome,
    _outcome_index,
    _read_only_table,
    bloch_from_state,
)

Kind = Literal["operational", "quasi"]
OPERATIONAL: Kind = "operational"
QUASI: Kind = "quasi"

#: slack on normalization and (for operational tables) nonnegativity
JOINT_TOL = 1e-12

#: each ``MarkerConfig`` angle with the period it is reduced by; a module constant, so no call builds the pairs
_ANGLE_PERIODS = (("theta", TWO_PI), ("vartheta", math.pi))


def _reduce_mod(angle, period: float):
    """A float or an array of angles reduced mod ``period`` into [0, period); ``%`` gives numpy's bits on both."""
    reduced = angle % period
    return reduced * (reduced < period)  # a tiny negative angle rounds up to the period: map it to 0


@dataclass(frozen=True)
class MarkerConfig:
    """Marking angle theta and analyzer angle vartheta, radians.

    At construction theta is reduced mod 2*pi into [0, 2*pi) and vartheta
    mod pi into [0, pi); both reductions are exact, as the marked state
    repeats with period 2*pi and the analyzer projectors with period pi.
    The canonical marking regime is [0, pi/2]; other values are legitimate
    over-rotations and are kept as given.
    """

    theta: float
    vartheta: float

    def __post_init__(self) -> None:
        for name, period in _ANGLE_PERIODS:
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, _reduce_mod(value, period))


def _checked_table(joint: DiscreteJoint | PhaseJoint, shape: tuple[int, int]) -> list[float]:
    """Check ``joint.kind``, store ``joint.table`` as a read-only float64 copy of ``shape``, return its finite entries."""
    if joint.kind not in (OPERATIONAL, QUASI):
        raise ValueError(f"unknown joint kind {joint.kind!r}")
    table = _read_only_table(joint.table, float, shape)
    values = table.ravel().tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError(f"joint entries must be finite, got {values!r}")
    object.__setattr__(joint, "table", table)
    return values


@dataclass(frozen=True, eq=False)
class DiscreteJoint:
    """Real-valued 2x2 table over the fringe outcome x and analyzer outcome z.

    ``table`` is a read-only float64 copy of the input, rows x = (+1, -1)
    and columns z = (+1, -1).  kind="operational" tables are genuinely
    measured and nonnegative; kind="quasi" tables come out of the data
    inversion and may hold negative values.
    """

    table: np.ndarray
    kind: Kind = OPERATIONAL

    def __post_init__(self) -> None:
        values = _checked_table(self, (2, 2))
        total = math.fsum(values)
        if abs(total - 1.0) > JOINT_TOL:
            raise ValueError(f"joint sums to {total!r}, must be 1")
        if self.kind == OPERATIONAL and min(values) < -JOINT_TOL:
            raise ValueError(f"operational joint has negative entry {min(values)!r}")

    def value(self, x: int, z: int) -> float:
        return self.table.item(_outcome_index(x, z))

    def items(self):
        """Fixed-order iteration: ((x, z), value) with x outer, +1 before -1."""
        return zip(itertools.product(OUTCOMES, OUTCOMES), self.table.ravel().tolist())


@dataclass(frozen=True, eq=False)
class PhaseJoint:
    """First-harmonic phase densities, one per analyzer outcome z, as one coefficient table.

    ``table`` is a read-only float64 (2, 3) copy of the input, rows
    z = (+1, -1) and columns (c0, c_cos, c_sin): slice z is
    c0 + c_cos*cos(phi) + c_sin*sin(phi).  Normalization is joint:
    2*pi*(c0(+1) + c0(-1)) = 1.  Operational slices are individually
    nonnegative; quasi slices need not be.
    """

    table: np.ndarray
    kind: Kind = OPERATIONAL

    def __post_init__(self) -> None:
        values = _checked_table(self, (2, 3))
        total = TWO_PI * (values[0] + values[3])  # the c0 column
        if abs(total - 1.0) > JOINT_TOL:
            raise ValueError(f"phase joint integrates to {total!r}, must be 1")
        if self.kind == OPERATIONAL:
            for z, (c0, c_cos, c_sin) in zip(OUTCOMES, (values[:3], values[3:])):
                min_value = c0 - math.hypot(c_cos, c_sin)
                if min_value < -JOINT_TOL:
                    raise ValueError(f"operational z={z} slice dips to {min_value!r}")

    def for_z(self, z: int) -> PhaseDensity:
        return PhaseDensity(*self.table[_outcome_index(z)].tolist())


def entangled_state(state: PureState, theta: float) -> np.ndarray:
    """Composite state after marking, a read-only complex (2, 2) array [path, spin]:
    [[alpha*cos(theta), alpha*sin(theta)], [beta, 0]]."""
    upper = [state.alpha * math.cos(theta), state.alpha * math.sin(theta)]
    return _read_only_table([upper, [state.beta, 0.0]], complex, (2, 2))


def analyzer_states(vartheta: float) -> np.ndarray:
    """Orthonormal analyzer vectors as the rows z = (+1, -1) of one (2, 2) array; unpacks as ``plus, minus``.

    z = +1 reads (cos(vartheta), sin(vartheta)); z = -1 the orthogonal
    (-sin(vartheta), cos(vartheta)).  Real-valued by construction.
    """
    c, s = math.cos(vartheta), math.sin(vartheta)
    return np.array([[c, s], [-s, c]])


def gamma_coefficients(theta, vartheta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analyzer coefficients (gamma_0, gamma_X, gamma_Z) over any broadcast shape of the angles.

    Each coefficient is an array with a trailing analyzer axis z = (+1, -1),
    kept as the literal per-outcome trigonometric forms.  gamma_0 weights
    the constant term, gamma_X the fringe/phase harmonic, gamma_Z the path
    term.  gamma_X may be negative; gamma_Z(+1) equals gamma_Z(-1)
    identically, which is why the fringe marginal carries no path term.
    """
    theta = np.asarray(theta, dtype=float)
    vartheta = np.asarray(vartheta, dtype=float)
    cd, sd = np.cos(vartheta - theta), np.sin(vartheta - theta)
    cv, sv = np.cos(vartheta), np.sin(vartheta)
    return (
        _by_outcome(0.5 * (cd * cd + cv * cv), 0.5 * (sd * sd + sv * sv)),
        _by_outcome(cd * cv, sd * sv),
        _by_outcome(0.5 * (cd * cd - cv * cv), 0.5 * (sv * sv - sd * sd)),
    )


def _discrete_entries(scale, a0, ax, az, e: BlochExpectations):
    """The entries scale*[a0(z) + x*ax(z)<X> + z*az(z)<Z>], one at a time in the (x, z) order of ``DiscreteJoint``.

    Each coefficient ends in an analyzer axis z = (+1, -1); an entry takes their broadcast shape without it.  The
    measured joints take (gamma_0, gamma_X, gamma_Z) and 1/2, the quasi joints (1, delta, 1) and 1/4.
    """
    # [()] makes a scalar of a pair's 0-d slice, so the one-configuration builders skip numpy's array path
    per_z = [(a0[..., k][()], ax[..., k][()], z * az[..., k][()] * e.ez) for k, z in enumerate(OUTCOMES)]
    for x in OUTCOMES:
        for a0_z, ax_z, path in per_z:
            yield scale * (a0_z + x * ax_z * e.ex + path)


def _phase_table(divisor, a0, ax, az, e: BlochExpectations) -> np.ndarray:
    """Phase twin of ``_discrete_entries``: rows z = (+1, -1) of [a0(z) + z*az(z)<Z>, ax(z)<X>, ax(z)<Y>]/divisor."""
    return np.array((a0 + _SIGNS * az * e.ez, ax * e.ex, ax * e.ey)).T / divisor


def operational_joint_discrete(state: PureState, config: MarkerConfig) -> DiscreteJoint:
    """Measured joint P(x, z) = [gamma_0(z) + x*gamma_X(z)<X> + z*gamma_Z(z)<Z>]/2."""
    gamma = gamma_coefficients(config.theta, config.vartheta)
    pp, pm, mp, mm = _discrete_entries(0.5, *gamma, bloch_from_state(state))
    return DiscreteJoint([[pp, pm], [mp, mm]], kind=OPERATIONAL)


def operational_joint_phase(state: PureState, config: MarkerConfig) -> PhaseJoint:
    """Measured phase joint as one Fourier triple per analyzer outcome.

    c0(z) = [gamma_0(z) + z*gamma_Z(z)<Z>]/(2*pi), and the harmonics carry
    gamma_X(z)<X> and gamma_X(z)<Y>.
    """
    gamma = gamma_coefficients(config.theta, config.vartheta)
    return PhaseJoint(_phase_table(TWO_PI, *gamma, bloch_from_state(state)), kind=OPERATIONAL)


def _born_projection(state: PureState, config: MarkerConfig, weights, norm: float) -> np.ndarray:
    """|<analyzer(z)| <bra| composite>|^2 for the path bras (1, w)/norm: a row per weight w, columns z = (+1, -1).

    With ``psi`` the composite [path, spin] array, a bra leaves the spin
    amplitudes (psi[0] + w*psi[1])/norm; the analyzer rows are real, so they
    need no conjugation.
    """
    psi = entangled_state(state, config.theta)
    spin = (psi[0] + np.multiply.outer(weights, psi[1])) / norm
    return np.abs(spin @ analyzer_states(config.vartheta).T) ** 2


def born_joint_discrete(state: PureState, config: MarkerConfig) -> DiscreteJoint:
    """Reference path: the composite state projected on the fringe bras (1, x)/sqrt(2), without gamma coefficients."""
    return DiscreteJoint(_born_projection(state, config, _SIGNS, math.sqrt(2.0)), kind=OPERATIONAL)


def born_joint_phase(state: PureState, config: MarkerConfig, phi) -> np.ndarray:
    """Reference path for the phase joint, evaluated on a phi grid.

    Returns an array of shape (len(phi), 2) holding
    |<analyzer(z)| <phi| composite>|^2 with columns z = (+1, -1), where
    <phi| = (1, exp(-i*phi))/sqrt(2*pi).
    """
    lower_phase = np.exp(-1j * np.atleast_1d(np.asarray(phi, dtype=float)))  # conjugate of the lower-slit factor
    return _born_projection(state, config, lower_phase, math.sqrt(TWO_PI))


def marginal_x(joint: DiscreteJoint) -> BinaryDistribution:
    """Fringe marginal; for operational joints this is (1 + x*cos(theta)<X>)/2."""
    (pp, pm), (mp, mm) = joint.table.tolist()
    return BinaryDistribution(pp + pm, mp + mm)


def marginal_z(joint: DiscreteJoint) -> BinaryDistribution:
    """Analyzer marginal; for operational joints, gamma_0(z) + z*gamma_Z(z)<Z>."""
    (pp, pm), (mp, mm) = joint.table.tolist()
    return BinaryDistribution(pp + mp, pm + mm)


def marginal_phase(joint: PhaseJoint) -> PhaseDensity:
    """Phase marginal: the z slices summed coefficient-wise."""
    return PhaseDensity(*joint.table.sum(axis=0).tolist())


def marginal_z_of_phase(joint: PhaseJoint) -> BinaryDistribution:
    """Analyzer marginal of the phase joint: slice weights 2*pi*c0(z)."""
    return BinaryDistribution(*(TWO_PI * joint.table[:, 0]).tolist())
