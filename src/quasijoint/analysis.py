"""Negativity of reconstructed joints: closed-form minima, direct minima, scans.

The reconstructed joint of a pure state is generically negative somewhere.
At zero marking the minimum has closed forms, (1 - |<Z>| - |<X>|)/4 for
the discrete fringe and (1 - |<Z>| - sqrt(<X>^2 + <Y>^2))/(4*pi) for the
phase POVM; both are <= 0 for every pure state (strictly, away from the
boundary cases).  For general angles the direct minimum of the
reconstructed joint is reported instead of extending the formulas.

total_negativity (the summed/integrated magnitude of the negative part) is
a standard nonclassicality quantifier added here for convenience; it is
not part of the closed-form apparatus.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from quasijoint._table import Coded, Table
from quasijoint.inversion import _UNIT, delta_coefficients
from quasijoint.marking import DiscreteJoint, PhaseJoint, _discrete_entries, _reduce_mod
from quasijoint.states import OUTCOMES, TWO_PI, PureState, bloch_from_state

#: below this t = sqrt(A^2 - c0^2) / c0 the negative mass of a phase slice is
#: summed as a series, with this many terms (truncation below 2e-17 relative)
_SERIES_BELOW = 0.1
_SERIES_TERMS = 8


@dataclass(frozen=True)
class NegativityReport:
    """Minimum entry/value, where it occurs, and the total negative mass.

    ``argmin`` is (x, z) for discrete joints and (phi_star, z), phi_star in
    [0, 2*pi), for phase joints.  ``total_negativity`` is the sum (discrete) or integral
    (continuous, in closed form per slice) of the negative part's magnitude.
    """

    min_value: float
    argmin: tuple
    total_negativity: float


@dataclass(frozen=True, eq=False)
class ScanGrid:
    """Minimum reconstructed-joint entry over a (theta, vartheta) grid.

    Singular cells are flagged and carry NaN instead of a value; the CSV
    export leaves their min_value field empty.
    """

    theta_values: np.ndarray
    vartheta_values: np.ndarray
    min_values: np.ndarray  # shape (len(theta), len(vartheta)), NaN where flagged
    singular: np.ndarray  # bool, same shape

    def table(self) -> Table:
        """The ``theta,vartheta,min_value,flag`` rows, one per cell, theta-major.

        The angles are formatted once, each picked per cell by its grid
        index; a flagged cell's NaN minimum leaves its field empty.
        """
        return Table(
            ("theta", "vartheta", "min_value", "flag"),
            (
                Coded(self.theta_values, repeat=self.vartheta_values.size),
                Coded(self.vartheta_values),
                self.min_values.ravel(),
                Coded((0, 1), self.singular.ravel()),
            ),
        )

    def to_csv(self) -> str:
        """One ``theta,vartheta,min_value,flag`` line per cell, theta-major, floats as ``.16e``."""
        return b"".join(self.table().csv_blocks()).decode("ascii")


def p_min_discrete(state: PureState) -> float:
    """Zero-marking minimum of the reconstructed discrete joint: (1 - |<Z>| - |<X>|)/4."""
    e = bloch_from_state(state)
    return 0.25 * (1.0 - abs(e.ez) - abs(e.ex))


def p_min_phase(state: PureState) -> float:
    """Zero-marking minimum of the reconstructed phase joint: (1 - |<Z>| - sqrt(<X>^2 + <Y>^2))/(4*pi)."""
    e = bloch_from_state(state)
    return (1.0 - abs(e.ez) - math.hypot(e.ex, e.ey)) / (2.0 * TWO_PI)


def _negative_mass(c0: float, amplitude: float) -> float:
    """Integral over a period of the negative part of c0 + A cos(phi - phi0), A = ``amplitude``, in closed form.

    Where A > c0 the density is negative on an arc of half-width
    atan2(s, c0), s = sqrt(A^2 - c0^2), and the mass is 2(s - c0 atan2(s, c0)).
    Near tangency, where t = s/c0 is small, that difference cancels, so it is
    summed as 2 c0 (t^3/3 - t^5/5 + ...) instead, which is never negative.
    """
    if amplitude <= c0:
        return 0.0
    if amplitude <= -c0:  # negative everywhere
        return -TWO_PI * c0
    s = math.sqrt((amplitude - c0) * (amplitude + c0))
    if s < _SERIES_BELOW * c0:
        t2 = (s / c0) ** 2
        series = 0.0
        for k in range(_SERIES_TERMS, 0, -1):  # Horner in t^2 of 1/3 - t^2/5 + t^4/7 - ...
            series = 1.0 / (2 * k + 1) - t2 * series
        return 2.0 * s * t2 * series
    return 2.0 * (s - c0 * math.atan2(s, c0))


def negativity_of(joint: DiscreteJoint | PhaseJoint) -> NegativityReport:
    """Locate and quantify the negative part of a joint (quasi or operational).

    For phase joints the per-slice minimum sits at
    phi_star = atan2(-c_sin, -c_cos), reduced into [0, 2*pi), with value
    c0 - sqrt(c_cos^2 + c_sin^2).
    Operational input is allowed; its report is trivially nonnegative-min.
    """
    if isinstance(joint, DiscreteJoint):
        (argmin, min_value) = min(joint.items(), key=lambda item: item[1])
        total = sum(max(0.0, -value) for _, value in joint.items())
        return NegativityReport(min_value=min_value, argmin=argmin, total_negativity=total)
    if isinstance(joint, PhaseJoint):
        rows = joint.table.tolist()  # slices z = (+1, -1), each (c0, c_cos, c_sin)
        amplitudes = [math.hypot(c_cos, c_sin) for _, c_cos, c_sin in rows]
        minima = [row[0] - amplitude for row, amplitude in zip(rows, amplitudes)]
        k = int(minima[1] < minima[0])  # z = +1 on a tie
        phi_star = _reduce_mod(math.atan2(-rows[k][2], -rows[k][1]), TWO_PI)
        total = _negative_mass(rows[0][0], amplitudes[0]) + _negative_mass(rows[1][0], amplitudes[1])
        return NegativityReport(min_value=minima[k], argmin=(phi_star, OUTCOMES[k]), total_negativity=total)
    raise TypeError(f"expected DiscreteJoint or PhaseJoint, got {type(joint).__name__}")


def scan_negativity(
    state: PureState,
    theta_grid,
    vartheta_grid,
) -> ScanGrid:
    """Minimum entry of the reconstructed discrete joint per (theta, vartheta) cell.

    The whole grid is evaluated in one pass: one ``delta_coefficients`` call
    over both axes, reduced as in ``MarkerConfig``, the four entries
    [1 + x*delta(z)<X> + z<Z>]/4 of every cell, then their minimum in the
    joint's (x, z) order, so each value equals
    ``negativity_of(quasi_joint_closed_form(...)).min_value`` bit for bit.
    Singular cells (vanishing kernel denominator) are flagged, never raised,
    so full grids can sweep across the singular lines; a NaN or infinite
    angle on either axis raises ``ValueError``.
    """
    thetas = np.asarray(theta_grid, dtype=float)
    varthetas = np.asarray(vartheta_grid, dtype=float)
    for name, values in (("theta", thetas), ("vartheta", varthetas)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} grid angles must be finite, got {float(values[~np.isfinite(values)][0])!r}")
    delta, marking, analyzer = delta_coefficients(_reduce_mod(thetas, TWO_PI)[:, None], _reduce_mod(varthetas, math.pi)[None, :])
    entries = _discrete_entries(0.25, _UNIT, delta, _UNIT, bloch_from_state(state))
    return ScanGrid(
        theta_values=thetas,
        vartheta_values=varthetas,
        min_values=functools.reduce(np.minimum, entries),  # NaN where flagged
        singular=marking | analyzer,
    )
