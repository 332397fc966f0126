"""Linear unblurring of the measured statistics into quasi-probability joints.

The imperfect joint measurement acts linearly and state-independently: it
contracts the fringe harmonic by cos(theta) and mixes the two analyzer
outcomes through the marking.  Known 2x2 kernels (mu_X, mu_Z) and a
first-harmonic phase kernel (mu_Phi) therefore undo it exactly.  The
reconstructed joint keeps the exact single-observable marginals but may go
negative; it is tagged kind="quasi" so no nonnegativity invariant is ever
asserted on it downstream.

Singular configurations are rejected before any NaN or Inf can appear:
cos(theta) ~ 0 raises SingularMarking (full marking, fringes irrecoverable)
and sin(theta)*sin(2*vartheta - theta) ~ 0 raises SingularAnalyzer (the
analyzer outcomes resolve no path information).  theta = 0 is served by the
closed-form limit expressions, where the divergent mu_Z matrix is never
needed; the matrix path rejects it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from quasijoint.marking import (
    OPERATIONAL,
    QUASI,
    DiscreteJoint,
    MarkerConfig,
    PhaseJoint,
    _reduce_mod_pi,
    gamma_coefficients,
)
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
    bloch_from_state,
)

#: denominators at or below this magnitude count as singular
SINGULARITY_EPS = 1e-9


class SingularInversion(ValueError):
    """Base for configurations whose inversion kernel has a vanishing denominator."""


class SingularMarking(SingularInversion):
    """cos(theta) vanished: full which-path marking, interference irrecoverable."""


class SingularAnalyzer(SingularInversion):
    """sin(theta)*sin(2*vartheta - theta) vanished: analyzer outcomes carry no invertible path signal."""


def _check_marking(theta: float, eps: float) -> float:
    c = math.cos(theta)
    if abs(c) <= eps:
        raise SingularMarking(
            f"cos(theta) = {c:.3e} at theta = {theta!r}; "
            f"|cos(theta)| <= {eps:.1e} cannot be inverted"
        )
    return c


@dataclass(frozen=True)
class InversionMatrix:
    """2x2 left inverse of a binary response matrix.

    entry(a, a') maps the measured outcome a' to the exact outcome a; rows
    and fields follow the same (p=+1, m=-1) naming as DiscreteJoint.  Both
    columns sum to 1, so normalization survives the inversion.
    """

    label: str  # "mu_X" or "mu_Z"
    pp: float
    pm: float
    mp: float
    mm: float

    def __post_init__(self) -> None:
        if self.label not in ("mu_X", "mu_Z"):
            raise ValueError(f"unknown kernel label {self.label!r}")
        for name in ("pp", "pm", "mp", "mm"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    def entry(self, a: int, a_prime: int) -> float:
        return (self.pp, self.pm, self.mp, self.mm)[_outcome_index(a, a_prime)]

    def as_array(self) -> np.ndarray:
        return np.array([[self.pp, self.pm], [self.mp, self.mm]], dtype=float)

    def apply(self, pair: tuple[float, float]) -> tuple[float, float]:
        """Matrix-vector product on (value at +1, value at -1)."""
        plus, minus = pair
        return (self.pp * plus + self.pm * minus, self.mp * plus + self.mm * minus)

    @property
    def condition(self) -> float:
        """Max |entry|; grows like the inverse denominator near singular configs."""
        return max(abs(self.pp), abs(self.pm), abs(self.mp), abs(self.mm))


@dataclass(frozen=True)
class PhaseKernel:
    """First-harmonic deconvolution kernel k0 + g*cos(phi - phi').

    Acting on a Fourier triple it leaves the constant term alone and
    multiplies both harmonics by pi*g (equal to 1/cos(theta) for the
    kernel built by ``mu_phi_kernel``).
    """

    k0: float
    g: float

    def evaluate(self, phi, phi_prime):
        return self.k0 + self.g * np.cos(np.asarray(phi, dtype=float) - np.asarray(phi_prime, dtype=float))

    def apply(self, density: PhaseDensity) -> PhaseDensity:
        gain = math.pi * self.g
        return PhaseDensity(
            density.c0 * (TWO_PI * self.k0),
            density.c_cos * gain,
            density.c_sin * gain,
        )

    @property
    def condition(self) -> float:
        """Max |kernel value|."""
        return abs(self.k0) + abs(self.g)


def mu_x_matrix(theta: float, eps: float = SINGULARITY_EPS) -> InversionMatrix:
    """Fringe kernel mu_X(x, x') = (1 + x*x'/cos(theta))/2."""
    c = _check_marking(theta, eps)
    lo = 0.5 * (1.0 - 1.0 / c)
    hi = 0.5 * (1.0 + 1.0 / c)
    return InversionMatrix("mu_X", hi, lo, lo, hi)


def mu_z_matrix(config: MarkerConfig, eps: float = SINGULARITY_EPS) -> InversionMatrix:
    """Analyzer kernel; all four entries share the denominator sin(theta)*sin(2*vartheta - theta)."""
    den = math.sin(config.theta) * math.sin(2.0 * config.vartheta - config.theta)
    if abs(den) <= eps:
        raise SingularAnalyzer(
            f"sin(theta)*sin(2*vartheta - theta) = {den:.3e} at "
            f"theta = {config.theta!r}, vartheta = {config.vartheta!r}; "
            f"magnitude <= {eps:.1e} cannot be inverted"
        )
    sv = math.sin(config.vartheta)
    cv = math.cos(config.vartheta)
    sd = math.sin(config.vartheta - config.theta)
    cd = math.cos(config.vartheta - config.theta)
    return InversionMatrix(
        "mu_Z",
        sv * sv / den,
        -cv * cv / den,
        -sd * sd / den,
        cd * cd / den,
    )


def x_response_matrix(theta: float) -> np.ndarray:
    """Forward fringe response R(x', x) = (1 + x'*x*cos(theta))/2, exact -> measured."""
    c = math.cos(theta)
    return np.array([[0.5 * (1.0 + c), 0.5 * (1.0 - c)], [0.5 * (1.0 - c), 0.5 * (1.0 + c)]])


def z_response_matrix(config: MarkerConfig) -> np.ndarray:
    """Forward analyzer response R(z, z') = gamma_0(z) + z*z'*gamma_Z(z), exact -> measured."""
    g0, _, gz = gamma_coefficients(config.theta, config.vartheta)
    return g0[:, None] + _SIGNS[:, None] * _SIGNS * gz[:, None]


def invert_marginal_x(
    p: BinaryDistribution, theta: float, eps: float = SINGULARITY_EPS
) -> tuple[float, float]:
    """Undo the fringe blurring on a measured fringe marginal.

    Returns a plain (plus, minus) pair summing to 1: when ``p`` is the
    operational fringe marginal of a valid state the result is its exact
    distribution, but for arbitrary input it may leave [0, 1].
    """
    plus, minus = mu_x_matrix(theta, eps).apply((p.p_plus, p.p_minus))
    total = plus + minus
    return (plus / total, minus / total)


def invert_marginal_z(
    p: BinaryDistribution, config: MarkerConfig, eps: float = SINGULARITY_EPS
) -> tuple[float, float]:
    """Undo the analyzer blurring on a measured analyzer marginal; same contract as invert_marginal_x."""
    plus, minus = mu_z_matrix(config, eps).apply((p.p_plus, p.p_minus))
    total = plus + minus
    return (plus / total, minus / total)


def invert_joint_discrete(
    joint: DiscreteJoint, config: MarkerConfig, eps: float = SINGULARITY_EPS
) -> DiscreteJoint:
    """Tensor application of mu_X and mu_Z to a measured joint.

    The result sums to 1 (kernel columns sum to 1; the float sum is pinned
    by a final rescale) but its entries may be negative, hence
    kind="quasi".
    """
    if joint.kind != OPERATIONAL:
        raise ValueError("only measured (operational) joints can be inverted")
    mx = mu_x_matrix(config.theta, eps).as_array()
    mz = mu_z_matrix(config, eps).as_array()
    table = mx @ joint.as_array() @ mz.T
    table /= table.sum()
    return DiscreteJoint.from_array(table, kind=QUASI)


def delta_coefficients(
    theta, vartheta, eps: float = SINGULARITY_EPS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fringe-amplitude factors delta(z) over any broadcast shape of the angles, with singular masks.

    delta(+1) = sin(2*vartheta)/D and delta(-1) = sin(2*vartheta - 2*theta)/D
    with D = cos(theta)*sin(2*vartheta - theta), both angles reduced mod pi
    as in ``MarkerConfig``.  Returns ``(delta, marking, analyzer)``: delta
    has a trailing analyzer axis z = (+1, -1) and sums to 2 along it, which
    is what makes the reconstructed marginals exact.  The boolean masks,
    shaped like the broadcast angles, mark |cos(theta)| <= eps (where the
    scalar callers raise ``SingularMarking``) and
    |sin(2*vartheta - theta)| <= eps (``SingularAnalyzer``); delta is NaN
    under either mask.  theta = 0 returns (1, 1) for every analyzer angle
    and is never masked.
    """
    theta, vartheta = _reduce_mod_pi(theta), _reduce_mod_pi(vartheta)
    c = np.cos(theta)
    s2 = np.sin(2.0 * vartheta - theta)
    limit = theta == 0.0
    marking = np.broadcast_to(np.abs(c) <= eps, np.shape(s2))
    analyzer = (np.abs(s2) <= eps) & ~limit
    den = np.where(limit | marking | analyzer, np.nan, c * s2)
    delta = _by_outcome(np.sin(2.0 * vartheta) / den, np.sin(2.0 * (vartheta - theta)) / den)
    return np.where(limit[..., None], 1.0, delta), marking, analyzer


def _config_delta(config: MarkerConfig, eps: float) -> np.ndarray:
    """delta pair of one configuration; raises where ``delta_coefficients`` masks it."""
    delta, marking, analyzer = delta_coefficients(config.theta, config.vartheta, eps)
    if marking:
        _check_marking(config.theta, eps)  # raises SingularMarking
    if analyzer:
        s2 = math.sin(2.0 * config.vartheta - config.theta)
        raise SingularAnalyzer(
            f"sin(2*vartheta - theta) = {s2:.3e} at theta = {config.theta!r}, "
            f"vartheta = {config.vartheta!r}; magnitude <= {eps:.1e} cannot be inverted"
        )
    return delta


def _quasi_entries(delta: np.ndarray, e: BlochExpectations):
    """The entries [1 + x*delta(z)<X> + z<Z>]/4, one at a time in the (x, z) order of ``DiscreteJoint``.

    Each is shaped like delta without its trailing z axis.
    """
    for x in OUTCOMES:
        for k, z in enumerate(OUTCOMES):
            yield 0.25 * (1.0 + x * delta[..., k] * e.ex + z * e.ez)


def quasi_joint_closed_form(
    state: PureState, config: MarkerConfig, eps: float = SINGULARITY_EPS
) -> DiscreteJoint:
    """Reconstructed joint P(x, z) = [1 + x*delta(z)<X> + z<Z>]/4 straight from the state.

    Identical to inverting the measured joint wherever both kernels exist,
    and additionally defined at theta = 0 through the delta limit, where it
    reduces to [1 + z<Z> + x<X>]/4.
    """
    delta = _config_delta(config, eps)
    return DiscreteJoint(*_quasi_entries(delta, bloch_from_state(state)), kind=QUASI)


def quasi_joint_phase_closed_form(
    state: PureState, config: MarkerConfig, eps: float = SINGULARITY_EPS
) -> PhaseJoint:
    """Reconstructed phase joint [1 + delta(z)(cos(phi)<X> + sin(phi)<Y>) + z<Z>]/(4*pi).

    The phase twin of ``quasi_joint_closed_form``, including the theta = 0
    limit, where delta(z) = 1 for both z.
    """
    delta = _config_delta(config, eps)
    e = bloch_from_state(state)
    four_pi = 2.0 * TWO_PI
    return PhaseJoint.from_arrays(
        (1.0 + _SIGNS * e.ez) / four_pi, delta * e.ex / four_pi, delta * e.ey / four_pi, QUASI
    )


def mu_phi_kernel(theta: float, eps: float = SINGULARITY_EPS) -> PhaseKernel:
    """Phase kernel mu_Phi(phi, phi') = [1 + (2/cos(theta))*cos(phi - phi')]/(2*pi)."""
    c = _check_marking(theta, eps)
    return PhaseKernel(k0=1.0 / TWO_PI, g=2.0 / (TWO_PI * c))


def invert_phase_density(
    density: PhaseDensity, theta: float, eps: float = SINGULARITY_EPS
) -> PhaseDensity:
    """Undo the phase blurring: constant term kept, harmonics gain 1/cos(theta)."""
    return mu_phi_kernel(theta, eps).apply(density)


def invert_joint_phase(
    joint: PhaseJoint, config: MarkerConfig, eps: float = SINGULARITY_EPS
) -> PhaseJoint:
    """Apply mu_Z across the z slices and mu_Phi within each slice.

    This is the data-driven route; it genuinely needs sin(theta) != 0
    because the measured phase joint carries no path signal at theta = 0.
    For the state-side formula with the theta = 0 limit use
    ``quasi_joint_phase_closed_form``.
    """
    if joint.kind != OPERATIONAL:
        raise ValueError("only measured (operational) joints can be inverted")
    mz = mu_z_matrix(config, eps)
    kernel = mu_phi_kernel(config.theta, eps)
    mixed = {}
    for z in (1, -1):
        mixed[z] = PhaseDensity(
            mz.entry(z, 1) * joint.plus.c0 + mz.entry(z, -1) * joint.minus.c0,
            mz.entry(z, 1) * joint.plus.c_cos + mz.entry(z, -1) * joint.minus.c_cos,
            mz.entry(z, 1) * joint.plus.c_sin + mz.entry(z, -1) * joint.minus.c_sin,
        )
    plus = kernel.apply(mixed[1])
    minus = kernel.apply(mixed[-1])
    total = TWO_PI * (plus.c0 + minus.c0)  # analytically 1; pin the float sum
    plus = PhaseDensity(plus.c0 / total, plus.c_cos / total, plus.c_sin / total)
    minus = PhaseDensity(minus.c0 / total, minus.c_cos / total, minus.c_sin / total)
    return PhaseJoint(plus, minus, kind=QUASI)
