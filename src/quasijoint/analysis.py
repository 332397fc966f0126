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
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from quasijoint.inversion import _quasi_entries, delta_coefficients
from quasijoint.marking import DiscreteJoint, PhaseJoint
from quasijoint.sampling import _CSV_BLOCK, _E16_WORDS, _format_e16, _join_rows, _words
from quasijoint.states import TWO_PI, PhaseDensity, PureState, bloch_from_state

SCAN_CSV_HEADER = "theta,vartheta,min_value,flag"
#: a field's first word holding only its "," separator
_COMMA = _words(",\0\0\0")[0]
#: the min_value field of a flagged cell: the separator and nothing else
_EMPTY_FIELD = np.array([[_COMMA]] + [[0]] * (_E16_WORDS - 1), np.uint32)
#: the end of a scan row, ",0\n" or ",1\n", by the cell's flag
_FLAG_TAILS = _words(",0\n\0,1\n\0")

#: below this t = sqrt(A^2 - c0^2) / c0 the negative mass of a phase slice is
#: summed as a series, with this many terms (truncation below 2e-17 relative)
_SERIES_BELOW = 0.1
_SERIES_TERMS = 8


@dataclass(frozen=True)
class NegativityReport:
    """Minimum entry/value, where it occurs, and the total negative mass.

    ``argmin`` is (x, z) for discrete joints and (phi_star, z) for phase
    joints.  ``total_negativity`` is the sum (discrete) or integral
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

    def csv_blocks(self) -> Iterator[bytes]:
        """The ASCII bytes of ``to_csv()``: the header line, then one block per ``_CSV_BLOCK`` cells at most.

        A row is 19 words of a word-major buffer: the theta, vartheta and
        min_value fields of ``_format_e16`` (the last two with their ","
        separator) and a ``,flag\\n`` tail word.  The angles are formatted
        once.  A block holds whole theta rows where they fit, so the vartheta
        fields, the same in every theta row, are written into the buffer once;
        a theta row wider than a block is split across blocks.  Each block then
        writes only its theta fields, broadcast along the row, its minima and
        its tails, and the NULs are dropped, so the text is byte-identical to
        formatting every cell on its own.
        """
        yield SCAN_CSV_HEADER.encode("ascii") + b"\n"
        n_theta, n_vartheta = self.theta_values.size, self.vartheta_values.size
        if not n_theta * n_vartheta:
            return
        angles = np.zeros((_E16_WORDS, n_theta + n_vartheta), np.uint32)
        angles[0, n_theta:] = _COMMA  # vartheta follows theta
        wide = np.zeros(angles.shape[1], bool)
        wide[_format_e16(np.concatenate([self.theta_values, self.vartheta_values]), angles)] = True
        thetas, varthetas = angles[:, :n_theta], angles[:, n_theta:]
        wide_theta, wide_vartheta = wide[:n_theta], wide[n_theta:]
        width = min(n_vartheta, _CSV_BLOCK)  # cells of one theta row in a block
        height = min(_CSV_BLOCK // width, n_theta)  # theta rows in a block
        words = np.zeros((3 * _E16_WORDS + 1, height * width), np.uint32)
        angle_words, minima, tails = words[: 2 * _E16_WORDS], words[2 * _E16_WORDS : -1], words[-1]
        minima[0] = _COMMA
        loaded = None  # the vartheta span whose fields the buffer holds

        def cell_text(i: int, j: int) -> str:  # one row by Python, for fields too wide for the words
            theta, vartheta = self.theta_values[i], self.vartheta_values[j]
            if self.singular[i, j]:
                return f"{theta:.16e},{vartheta:.16e},,1\n"
            return f"{theta:.16e},{vartheta:.16e},{self.min_values[i, j]:.16e},0\n"

        for i in range(0, n_theta, height):
            for j in range(0, n_vartheta, width):
                i_end, j_end = min(i + height, n_theta), min(j + width, n_vartheta)
                rows, cols = i_end - i, j_end - j
                if loaded != (j, j_end):
                    grid = angle_words[_E16_WORDS:, : height * cols].reshape(_E16_WORDS, height, cols)
                    grid[...] = varthetas[:, None, j:j_end]
                    loaded = (j, j_end)
                cells = rows * cols
                grid = angle_words[:_E16_WORDS, :cells].reshape(_E16_WORDS, rows, cols)
                grid[...] = thetas[:, i:i_end, None]
                flagged = self.singular[i:i_end, j:j_end].ravel()
                values = self.min_values[i:i_end, j:j_end].ravel()
                wide_rows = _format_e16(np.where(flagged, 0.0, values), minima[:, :cells])
                if flagged.any():  # flagged cells leave min_value empty
                    np.copyto(minima[:, :cells], _EMPTY_FIELD, where=flagged)
                _FLAG_TAILS.take(flagged, out=tails[:cells], mode="clip")
                if wide_theta[i:i_end].any() or wide_vartheta[j:j_end].any():
                    wide_angle = wide_theta[i:i_end, None] | wide_vartheta[None, j:j_end]
                    wide_rows += np.flatnonzero(wide_angle).tolist()
                yield _join_rows(
                    words[:, :cells], wide_rows, lambda r: cell_text(i + r // cols, j + r % cols), sparse=True
                )

    def to_csv(self) -> str:
        """One ``theta,vartheta,min_value,flag`` line per cell, theta-major, floats as ``.16e``."""
        return b"".join(self.csv_blocks()).decode("ascii")


def p_min_discrete(state: PureState) -> float:
    """Zero-marking minimum of the reconstructed discrete joint: (1 - |<Z>| - |<X>|)/4."""
    e = bloch_from_state(state)
    return 0.25 * (1.0 - abs(e.ez) - abs(e.ex))


def p_min_phase(state: PureState) -> float:
    """Zero-marking minimum of the reconstructed phase joint: (1 - |<Z>| - sqrt(<X>^2 + <Y>^2))/(4*pi)."""
    e = bloch_from_state(state)
    return (1.0 - abs(e.ez) - math.hypot(e.ex, e.ey)) / (2.0 * TWO_PI)


def _negative_mass(density: PhaseDensity) -> float:
    """Integral over a period of the negative part of c0 + A cos(phi - phi0), in closed form.

    Where A > c0 the density is negative on an arc of half-width
    atan2(s, c0), s = sqrt(A^2 - c0^2), and the mass is 2(s - c0 atan2(s, c0)).
    Near tangency, where t = s/c0 is small, that difference cancels, so it is
    summed as 2 c0 (t^3/3 - t^5/5 + ...) instead, which is never negative.
    """
    c0, amplitude = density.c0, density.amplitude
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
        total = _negative_mass(joint.plus) + _negative_mass(joint.minus)
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
