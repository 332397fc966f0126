"""Spin marking of the path, analyzer readout, and the measured joint statistics.

The upper-aperture amplitude is tagged by rotating a spin marker from
|right> toward |up> by the marking angle theta (theta = 0: no marking,
theta = pi/2: full which-path tagging); the lower aperture leaves the
marker in |right>.  An analyzer at angle vartheta reads the marker out
jointly with the fringe or phase measurement.

Composite amplitudes are ordered (upper,right), (upper,up), (lower,right),
(lower,up): path index 0 is the upper aperture (z = +1), spin index 0 is
|right>.  Every projection in this module uses that order.

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


def _reduce_mod_pi(angle):
    """Angle(s) reduced mod pi into [0, pi), elementwise; a scalar comes back a scalar."""
    reduced = np.remainder(angle, math.pi)
    return reduced * (reduced < math.pi)  # a tiny negative angle rounds up to pi: map it to 0


@dataclass(frozen=True)
class MarkerConfig:
    """Marking angle theta and analyzer angle vartheta, radians.

    Both angles are reduced mod pi into [0, pi) at construction.  For the
    analyzer this is exact: vartheta and vartheta + pi give the same
    projectors.  For the marking angle the mod-pi representative yields the
    same statistics up to the fringe relabeling x -> -x (phi -> phi + pi).
    The canonical marking regime is [0, pi/2]; values in (pi/2, pi) are
    legitimate over-rotations and are kept as given.
    """

    theta: float
    vartheta: float

    def __post_init__(self) -> None:
        for name in ("theta", "vartheta"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(_reduce_mod_pi(value)))


@dataclass(frozen=True)
class CompositeState:
    """Normalized amplitudes over aperture (x) spin, basis order as in the module docstring."""

    upper_right: complex
    upper_up: complex
    lower_right: complex
    lower_up: complex

    def __post_init__(self) -> None:
        amps = [
            complex(self.upper_right),
            complex(self.upper_up),
            complex(self.lower_right),
            complex(self.lower_up),
        ]
        norm_sq = sum(abs(a) ** 2 for a in amps)
        if not math.isfinite(norm_sq) or abs(norm_sq - 1.0) > JOINT_TOL:
            raise ValueError(f"composite norm^2 = {norm_sq!r}, must be 1")
        for name, amp in zip(("upper_right", "upper_up", "lower_right", "lower_up"), amps):
            object.__setattr__(self, name, amp)

    def as_array(self) -> np.ndarray:
        """2x2 array indexed [path, spin]; path 0 = upper (z=+1), spin 0 = right."""
        return np.array(
            [[self.upper_right, self.upper_up], [self.lower_right, self.lower_up]],
            dtype=np.complex128,
        )


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
            raise ValueError(
                f"operational joint has negative entry {min(values)!r}"
            )

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


def entangled_state(state: PureState, theta: float) -> CompositeState:
    """Composite state after marking: (alpha*cos(theta), alpha*sin(theta), beta, 0)."""
    return CompositeState(
        upper_right=state.alpha * math.cos(theta),
        upper_up=state.alpha * math.sin(theta),
        lower_right=state.beta,
        lower_up=0.0,
    )


def analyzer_states(vartheta: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal analyzer vectors for outcomes z = +1 and z = -1.

    z = +1 reads (cos(vartheta), sin(vartheta)); z = -1 the orthogonal
    (-sin(vartheta), cos(vartheta)).  Real-valued by construction.
    """
    c, s = math.cos(vartheta), math.sin(vartheta)
    return np.array([c, s]), np.array([-s, c])


def gamma_coefficients(theta, vartheta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analyzer coefficients (gamma_0, gamma_X, gamma_Z) over any broadcast shape of the angles.

    Both angles are reduced mod pi as in ``MarkerConfig``.  Each coefficient
    is an array with a trailing analyzer axis z = (+1, -1), kept as the
    literal per-outcome trigonometric forms.  gamma_0 weights the constant
    term, gamma_X the fringe/phase harmonic, gamma_Z the path term.
    gamma_X may be negative; gamma_Z(+1) equals gamma_Z(-1) identically,
    which is why the fringe marginal carries no path term.
    """
    theta, vartheta = _reduce_mod_pi(theta), _reduce_mod_pi(vartheta)
    cd = np.cos(vartheta - theta)
    sd = np.sin(vartheta - theta)
    cv = np.cos(vartheta)
    sv = np.sin(vartheta)
    return (
        _by_outcome(0.5 * (cd * cd + cv * cv), 0.5 * (sd * sd + sv * sv)),
        _by_outcome(cd * cv, sd * sv),
        _by_outcome(0.5 * (cd * cd - cv * cv), 0.5 * (sv * sv - sd * sd)),
    )


def operational_joint_discrete(state: PureState, config: MarkerConfig) -> DiscreteJoint:
    """Measured joint P(x, z) = [gamma_0(z) + x*gamma_X(z)<X> + z*gamma_Z(z)<Z>]/2."""
    g0, gx, gz = gamma_coefficients(config.theta, config.vartheta)
    e = bloch_from_state(state)
    table = 0.5 * (g0 + _SIGNS[:, None] * gx * e.ex + _SIGNS * gz * e.ez)
    return DiscreteJoint(table, kind=OPERATIONAL)


def operational_joint_phase(state: PureState, config: MarkerConfig) -> PhaseJoint:
    """Measured phase joint as one Fourier triple per analyzer outcome.

    c0(z) = [gamma_0(z) + z*gamma_Z(z)<Z>]/(2*pi), and the harmonics carry
    gamma_X(z)<X> and gamma_X(z)<Y>.
    """
    g0, gx, gz = gamma_coefficients(config.theta, config.vartheta)
    e = bloch_from_state(state)
    columns = np.array((g0 + _SIGNS * gz * e.ez, gx * e.ex, gx * e.ey))  # each row ordered z = (+1, -1)
    return PhaseJoint(columns.T / TWO_PI, kind=OPERATIONAL)


def born_joint_discrete(state: PureState, config: MarkerConfig) -> DiscreteJoint:
    """Reference path: project the composite state directly, cell by cell.

    Computes |<analyzer(z)| <x| composite>|^2 with no use of the gamma
    coefficients.
    """
    psi = entangled_state(state, config.theta).as_array()
    vectors = dict(zip(OUTCOMES, analyzer_states(config.vartheta)))
    values = {}
    for x in OUTCOMES:
        spin = (psi[0, :] + x * psi[1, :]) / math.sqrt(2.0)
        for z in OUTCOMES:
            vec = vectors[z]  # real components, no conjugation needed
            amp = vec[0] * spin[0] + vec[1] * spin[1]
            values[(x, z)] = abs(amp) ** 2
    return DiscreteJoint(
        [[values[(1, 1)], values[(1, -1)]], [values[(-1, 1)], values[(-1, -1)]]], kind=OPERATIONAL
    )


def born_joint_phase(state: PureState, config: MarkerConfig, phi) -> np.ndarray:
    """Reference path for the phase joint, evaluated on a phi grid.

    Returns an array of shape (len(phi), 2) holding
    |<analyzer(z)| <phi| composite>|^2 with columns z = (+1, -1).
    """
    psi = entangled_state(state, config.theta).as_array()
    plus_vec, minus_vec = analyzer_states(config.vartheta)
    phi_arr = np.atleast_1d(np.asarray(phi, dtype=float))
    lower_phase = np.exp(-1j * phi_arr)[:, None]  # conjugate of the lower-slit factor
    spin = (psi[0, :][None, :] + lower_phase * psi[1, :][None, :]) / math.sqrt(TWO_PI)
    out = np.empty((phi_arr.size, 2))
    for col, vec in enumerate((plus_vec, minus_vec)):
        out[:, col] = np.abs(spin @ vec.astype(np.complex128)) ** 2
    return out


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
