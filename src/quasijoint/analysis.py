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

from quasijoint.inversion import _quasi_entries, delta_coefficients
from quasijoint.marking import DiscreteJoint, PhaseJoint
from quasijoint.sampling import _CSV_BLOCK, _E16_WIDTH, _format_e16
from quasijoint.states import TWO_PI, PhaseDensity, PureState, bloch_from_state, evaluate_phase_density

SCAN_CSV_HEADER = "theta,vartheta,min_value,flag"

#: panels of the trapezoid rule used for the negative-part integral
_QUAD_PANELS = 1024


@dataclass(frozen=True)
class NegativityReport:
    """Minimum entry/value, where it occurs, and the total negative mass.

    ``argmin`` is (x, z) for discrete joints and (phi_star, z) for phase
    joints.  ``total_negativity`` is the sum (discrete) or integral
    (continuous, 1024-panel trapezoid) of the negative part's magnitude.
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

    def to_csv(self) -> str:
        """One ``theta,vartheta,min_value,flag`` line per cell, theta-major, floats as ``.16e``.

        The thetas and varthetas are formatted once, in one ``_format_e16``
        call, and copied into the cells' rows; the minima are written block by
        block into one NUL-padded byte row buffer, so the text is
        byte-identical to formatting every cell on its own.
        """
        width = _E16_WIDTH
        angles = np.concatenate([self.theta_values, self.vartheta_values])
        fields = np.empty((angles.size, width), np.uint8)
        _format_e16(angles, fields)
        thetas, varthetas = fields[: self.theta_values.size], fields[self.theta_values.size :]
        values = self.min_values.ravel()
        flags = self.singular.ravel()
        rows = np.empty((min(values.size, _CSV_BLOCK), 3 * width + 5), np.uint8)
        rows[:, [width, 2 * width + 1, 3 * width + 2]] = 44  # ","
        rows[:, -1] = 10  # "\n"
        blocks = [SCAN_CSV_HEADER + "\n"]
        for start in range(0, values.size, _CSV_BLOCK):
            stop = min(start + _CSV_BLOCK, values.size)
            block = rows[: stop - start]
            i, j = np.divmod(np.arange(start, stop), varthetas.shape[0])
            block[:, :width] = thetas[i]
            block[:, width + 1 : 2 * width + 1] = varthetas[j]
            flagged = flags[start:stop]
            minima = block[:, 2 * width + 2 : 3 * width + 2]
            _format_e16(np.where(flagged, 0.0, values[start:stop]), minima)
            minima[flagged] = 0  # flagged cells leave min_value empty
            block[:, -2] = flagged + 48  # "0" or "1"
            blocks.append(block.tobytes().translate(None, b"\0").decode("ascii"))
        return "".join(blocks)


def p_min_discrete(state: PureState) -> float:
    """Zero-marking minimum of the reconstructed discrete joint: (1 - |<Z>| - |<X>|)/4."""
    e = bloch_from_state(state)
    return 0.25 * (1.0 - abs(e.ez) - abs(e.ex))


def p_min_phase(state: PureState) -> float:
    """Zero-marking minimum of the reconstructed phase joint: (1 - |<Z>| - sqrt(<X>^2 + <Y>^2))/(4*pi)."""
    e = bloch_from_state(state)
    return (1.0 - abs(e.ez) - math.hypot(e.ex, e.ey)) / (2.0 * TWO_PI)


def _negative_part_integral(density: PhaseDensity) -> float:
    phi = np.linspace(0.0, TWO_PI, _QUAD_PANELS + 1)
    values = np.clip(-evaluate_phase_density(density, phi), 0.0, None)
    return float(np.sum(0.5 * (values[:-1] + values[1:])) * (TWO_PI / _QUAD_PANELS))


def negativity_of(joint: DiscreteJoint | PhaseJoint) -> NegativityReport:
    """Locate and quantify the negative part of a joint (quasi or operational).

    For phase joints the per-slice minimum sits at
    phi_star = atan2(-c_sin, -c_cos) with value c0 - sqrt(c_cos^2 + c_sin^2).
    Operational input is allowed; its report is trivially nonnegative-min.
    """
    if isinstance(joint, DiscreteJoint):
        (argmin, min_value) = min(joint.items(), key=lambda item: item[1])
        total = sum(max(0.0, -value) for _, value in joint.items())
        return NegativityReport(min_value=min_value, argmin=argmin, total_negativity=total)
    if isinstance(joint, PhaseJoint):
        best_z = 1
        best_value = joint.plus.min_value
        if joint.minus.min_value < best_value:
            best_z = -1
            best_value = joint.minus.min_value
        slice_min = joint.for_z(best_z)
        phi_star = math.atan2(-slice_min.c_sin, -slice_min.c_cos) % TWO_PI
        total = _negative_part_integral(joint.plus) + _negative_part_integral(joint.minus)
        return NegativityReport(
            min_value=best_value, argmin=(phi_star, best_z), total_negativity=total
        )
    raise TypeError(f"expected DiscreteJoint or PhaseJoint, got {type(joint).__name__}")


def scan_negativity(
    state: PureState,
    theta_grid,
    vartheta_grid,
) -> ScanGrid:
    """Minimum entry of the reconstructed discrete joint per (theta, vartheta) cell.

    The whole grid is evaluated in one pass: one ``delta_coefficients`` call
    over the broadcast angles, the four entries [1 + x*delta(z)<X> + z<Z>]/4
    of every cell, then their minimum in the joint's (x, z) order, so each
    value equals ``negativity_of(quasi_joint_closed_form(...)).min_value``
    bit for bit.  Singular cells (vanishing kernel denominator) are flagged,
    never raised, so full grids can sweep across the singular lines.
    """
    thetas = np.asarray(theta_grid, dtype=float)
    varthetas = np.asarray(vartheta_grid, dtype=float)
    delta, marking, analyzer = delta_coefficients(thetas[:, None], varthetas[None, :])
    entries = _quasi_entries(delta, bloch_from_state(state))
    return ScanGrid(
        theta_values=thetas,
        vartheta_values=varthetas,
        min_values=functools.reduce(np.minimum, entries),  # NaN where flagged
        singular=marking | analyzer,
    )
