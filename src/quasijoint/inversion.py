"""Linear unblurring of the measured statistics into quasi-probability joints.

The imperfect joint measurement acts linearly and state-independently: it
contracts the fringe harmonic by cos(theta) and mixes the two analyzer
outcomes through the marking.  Known 2x2 kernels (mu_X, mu_Z) and a
first-harmonic phase kernel (mu_Phi) therefore undo it exactly.  The
reconstructed joint keeps the exact single-observable marginals but may go
negative; it is tagged kind="quasi" so no nonnegativity invariant is ever
asserted on it downstream.

Singular configurations are rejected before any NaN or Inf can appear, by
one helper against the one threshold SINGULARITY_EPS.  cos(theta) ~ 0 raises
SingularMarking on every route (full marking, fringes irrecoverable).
SingularAnalyzer (the analyzer outcomes resolve no path information) has
one condition per route.  The matrix route (mu_Z, both data inversions)
needs sin(theta)*sin(2*vartheta - theta) away from 0.  The closed forms
need only sin(2*vartheta - theta) away from 0, with theta = 0 exempt: it is
served by the closed-form limit expressions, where the divergent mu_Z
matrix is never needed; the matrix route rejects it.
"""

from __future__ import annotations

import math

import numpy as np

from quasijoint.marking import (
    OPERATIONAL,
    QUASI,
    DiscreteJoint,
    MarkerConfig,
    PhaseJoint,
    _discrete_entries,
    _reduce_mod_pi,
    _phase_table,
)
from quasijoint.states import TWO_PI, PureState, _by_outcome, bloch_from_state

#: denominators at or below this magnitude count as singular
SINGULARITY_EPS = 1e-9

#: a0 and az of the quasi joints, whose linear form takes (1, delta, 1) where the measured one takes gamma,
#: and delta at theta = 0; read-only, as every caller shares it
_UNIT = _by_outcome(1.0, 1.0)
_UNIT.flags.writeable = False


class SingularInversion(ValueError):
    """Base for configurations whose inversion kernel has a vanishing denominator."""


class SingularMarking(SingularInversion):
    """cos(theta) vanished: full which-path marking, interference irrecoverable."""


class SingularAnalyzer(SingularInversion):
    """The analyzer denominator vanished: analyzer outcomes carry no invertible path signal."""


def _nonsingular(den: float, error: type[SingularInversion], name: str, theta: float, vartheta: float | None = None):
    """The kernel denominator ``den``, or ``error`` naming it and the angles if |den| <= SINGULARITY_EPS.

    Every singular configuration in the package is raised here.
    """
    if abs(den) <= SINGULARITY_EPS:
        angles = f"theta = {theta!r}" + ("" if vartheta is None else f", vartheta = {vartheta!r}")
        raise error(f"{name} = {den:.3e} at {angles}; magnitude <= {SINGULARITY_EPS:.1e} cannot be inverted")
    return den


def mu_x_matrix(theta: float) -> np.ndarray:
    """Fringe kernel mu_X(x, x') = (1 + x*x'/cos(theta))/2 as a 2x2 array indexed [x, x']."""
    c = _nonsingular(math.cos(theta), SingularMarking, "cos(theta)", theta)
    lo = 0.5 * (1.0 - 1.0 / c)
    hi = 0.5 * (1.0 + 1.0 / c)
    return np.array([[hi, lo], [lo, hi]])


def mu_z_matrix(config: MarkerConfig) -> np.ndarray:
    """Analyzer kernel as a 2x2 array indexed [z, z'], denominator sin(theta)*sin(2*vartheta - theta)."""
    den = _nonsingular(
        math.sin(config.theta) * math.sin(2.0 * config.vartheta - config.theta),
        SingularAnalyzer, "sin(theta)*sin(2*vartheta - theta)", config.theta, config.vartheta,
    )
    sv = math.sin(config.vartheta)
    cv = math.cos(config.vartheta)
    sd = math.sin(config.vartheta - config.theta)
    cd = math.cos(config.vartheta - config.theta)
    return np.array([[sv * sv / den, -cv * cv / den], [-sd * sd / den, cd * cd / den]])


def invert_joint_discrete(joint: DiscreteJoint, config: MarkerConfig) -> DiscreteJoint:
    """Tensor application of mu_X and mu_Z to a measured joint.

    The result sums to 1 (kernel columns sum to 1; the float sum is pinned
    by a final rescale) but its entries may be negative, hence
    kind="quasi".
    """
    if joint.kind != OPERATIONAL:
        raise ValueError("only measured (operational) joints can be inverted")
    mx = mu_x_matrix(config.theta)
    mz = mu_z_matrix(config)
    table = mx @ joint.table @ mz.T
    total = float(table.sum())
    if total == 0.0:  # just off the singular lines the entries reach ~1e17 and can cancel exactly
        raise ValueError(f"inverted joint sums to {total!r}, so it cannot be rescaled to sum to 1")
    table /= total
    return DiscreteJoint(table, kind=QUASI)


def delta_coefficients(theta, vartheta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fringe-amplitude factors delta(z) over any broadcast shape of the angles, with singular masks.

    delta(+1) = sin(2*vartheta)/D and delta(-1) = sin(2*vartheta - 2*theta)/D
    with D = cos(theta)*sin(2*vartheta - theta), both angles reduced mod pi
    as in ``MarkerConfig``.  Returns ``(delta, marking, analyzer)``: delta
    has a trailing analyzer axis z = (+1, -1) and sums to 2 along it, which
    is what makes the reconstructed marginals exact.  The boolean masks,
    shaped like the broadcast angles, mark |cos(theta)| <= SINGULARITY_EPS
    (where the closed forms raise ``SingularMarking``) and
    |sin(2*vartheta - theta)| <= SINGULARITY_EPS (``SingularAnalyzer``);
    delta is NaN under either mask.  theta = 0 returns (1, 1) for every analyzer angle
    and is never masked.
    """
    theta, vartheta = _reduce_mod_pi(theta), _reduce_mod_pi(vartheta)
    c = np.cos(theta)
    s2 = np.sin(2.0 * vartheta - theta)
    limit = theta == 0.0
    marking = np.broadcast_to(np.abs(c) <= SINGULARITY_EPS, np.shape(s2))
    analyzer = (np.abs(s2) <= SINGULARITY_EPS) & ~limit
    den = np.where(limit | marking | analyzer, np.nan, c * s2)
    delta = _by_outcome(np.sin(2.0 * vartheta) / den, np.sin(2.0 * (vartheta - theta)) / den)
    return np.where(limit[..., None], 1.0, delta), marking, analyzer


def _config_delta(config: MarkerConfig) -> np.ndarray:
    """delta pair of one configuration, bit for bit as ``delta_coefficients`` gives it; raises where its masks flag.

    The same numpy ufuncs in the same order, on Python floats rather than
    through the broadcasting grid path.
    """
    theta, vartheta = config.theta, config.vartheta  # reduced mod pi already, as the masks reduce them
    c = _nonsingular(np.cos(theta), SingularMarking, "cos(theta)", theta, vartheta)
    if theta == 0.0:  # the theta = 0 limit needs no analyzer
        return _UNIT
    s2 = _nonsingular(np.sin(2.0 * vartheta - theta), SingularAnalyzer, "sin(2*vartheta - theta)", theta, vartheta)
    den = c * s2
    return _by_outcome(np.sin(2.0 * vartheta) / den, np.sin(2.0 * (vartheta - theta)) / den)


def quasi_joint_closed_form(state: PureState, config: MarkerConfig) -> DiscreteJoint:
    """Reconstructed joint P(x, z) = [1 + x*delta(z)<X> + z<Z>]/4 straight from the state.

    Identical to inverting the measured joint wherever both kernels exist.
    At theta = 0 it takes delta = (1, 1), giving [1 + z<Z> + x<X>]/4: the
    theta -> 0 limit only where sin(2*vartheta) != 0 (else delta -> (0, 2)).
    """
    pp, pm, mp, mm = _discrete_entries(0.25, _UNIT, _config_delta(config), _UNIT, bloch_from_state(state))
    return DiscreteJoint([[pp, pm], [mp, mm]], kind=QUASI)


def quasi_joint_phase_closed_form(state: PureState, config: MarkerConfig) -> PhaseJoint:
    """Reconstructed phase joint [1 + delta(z)(cos(phi)<X> + sin(phi)<Y>) + z<Z>]/(4*pi).

    The phase twin of ``quasi_joint_closed_form``: at theta = 0 delta(z) = 1
    for both z, the theta -> 0 limit only where sin(2*vartheta) != 0.
    """
    delta = _config_delta(config)
    return PhaseJoint(_phase_table(2.0 * TWO_PI, _UNIT, delta, _UNIT, bloch_from_state(state)), kind=QUASI)


def invert_joint_phase(joint: PhaseJoint, config: MarkerConfig) -> PhaseJoint:
    """Apply mu_Z across the z slices and mu_Phi within each slice.

    This is the data-driven route; it genuinely needs sin(theta) != 0
    because the measured phase joint carries no path signal at theta = 0.
    For the state-side formula with the theta = 0 limit use
    ``quasi_joint_phase_closed_form``.
    """
    if joint.kind != OPERATIONAL:
        raise ValueError("only measured (operational) joints can be inverted")
    mz = mu_z_matrix(config)
    c = _nonsingular(math.cos(config.theta), SingularMarking, "cos(theta)", config.theta, config.vartheta)
    gain = 1.0 / c  # mu_Phi keeps c0, scales both harmonics
    mixed = mz @ joint.table  # rows z = (+1, -1), columns (c0, c_cos, c_sin)
    mixed[:, 1:] *= gain
    mixed /= TWO_PI * mixed[:, 0].sum()  # analytically 1; pin the float sum
    return PhaseJoint(mixed, kind=QUASI)
