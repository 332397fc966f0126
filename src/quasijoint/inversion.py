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
)
from quasijoint.states import (
    OUTCOMES,
    TWO_PI,
    BlochExpectations,
    PhaseDensity,
    PureState,
    _SIGNS,
    _by_outcome,
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


def mu_x_matrix(theta: float, eps: float = SINGULARITY_EPS) -> np.ndarray:
    """Fringe kernel mu_X(x, x') = (1 + x*x'/cos(theta))/2 as a 2x2 array indexed [x, x']."""
    c = _check_marking(theta, eps)
    lo = 0.5 * (1.0 - 1.0 / c)
    hi = 0.5 * (1.0 + 1.0 / c)
    return np.array([[hi, lo], [lo, hi]])


def mu_z_matrix(config: MarkerConfig, eps: float = SINGULARITY_EPS) -> np.ndarray:
    """Analyzer kernel as a 2x2 array indexed [z, z'], denominator sin(theta)*sin(2*vartheta - theta)."""
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
    return np.array([[sv * sv / den, -cv * cv / den], [-sd * sd / den, cd * cd / den]])


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
    mx = mu_x_matrix(config.theta, eps)
    mz = mu_z_matrix(config, eps)
    table = mx @ joint.table @ mz.T
    table /= table.sum()
    return DiscreteJoint(table, kind=QUASI)


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
    pp, pm, mp, mm = _quasi_entries(delta, bloch_from_state(state))
    return DiscreteJoint([[pp, pm], [mp, mm]], kind=QUASI)


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
    gain = 1.0 / _check_marking(config.theta, eps)  # mu_Phi keeps c0, scales both harmonics
    # rows z = (+1, -1), columns (c0, c_cos, c_sin)
    slices = [(d.c0, d.c_cos, d.c_sin) for d in (joint.plus, joint.minus)]
    mixed = mz @ np.array(slices)
    mixed[:, 1:] *= gain
    mixed /= TWO_PI * mixed[:, 0].sum()  # analytically 1; pin the float sum
    return PhaseJoint.from_arrays(*mixed.T, QUASI)
