"""Shared ensembles, hypothesis strategies and reference oracles for the test suite."""

from __future__ import annotations

import math
from dataclasses import dataclass

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume

from quasijoint import MarkerConfig, PhaseDensity, PhaseShots, PureState, ScanGrid, gamma_coefficients
from quasijoint.analysis import _negative_mass
from quasijoint.marking import JOINT_TOL

TWO_PI = 2.0 * math.pi


def haar_state(rng: np.random.Generator) -> PureState:
    """Uniform pure state from four normal deviates."""
    raw = rng.normal(size=4)
    norm = math.sqrt(float((raw**2).sum()))
    return PureState(complex(raw[0], raw[1]) / norm, complex(raw[2], raw[3]) / norm)


def real_amplitude_state(rng: np.random.Generator) -> PureState:
    """State with <Y> = 0: real amplitudes (cos w, sin w)."""
    w = rng.uniform(0.0, math.pi)
    return PureState(math.cos(w), math.sin(w))


def invertible_config(
    rng: np.random.Generator,
    theta_lo: float = 0.1,
    theta_hi: float = math.pi / 2 - 0.1,
    analyzer_margin: float = 0.05,
) -> MarkerConfig:
    """Random config keeping both kernel denominators well away from zero."""
    theta = rng.uniform(theta_lo, theta_hi)
    while True:
        vartheta = rng.uniform(0.0, math.pi)
        if abs(math.sin(2.0 * vartheta - theta)) > analyzer_margin:
            return MarkerConfig(theta, vartheta)


@st.composite
def pure_states(draw) -> PureState:
    parts = [
        draw(st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)) for _ in range(4)
    ]
    norm_sq = sum(p * p for p in parts)
    assume(norm_sq > 1e-2)
    norm = math.sqrt(norm_sq)
    return PureState(complex(parts[0], parts[1]) / norm, complex(parts[2], parts[3]) / norm)


@st.composite
def any_configs(draw) -> MarkerConfig:
    theta = draw(st.floats(0.0, math.pi, allow_nan=False, exclude_max=True))
    vartheta = draw(st.floats(0.0, math.pi, allow_nan=False, exclude_max=True))
    return MarkerConfig(theta, vartheta)


@st.composite
def invertible_configs(draw) -> MarkerConfig:
    theta = draw(st.floats(0.1, math.pi / 2 - 0.1, allow_nan=False))
    vartheta = draw(st.floats(0.0, math.pi, allow_nan=False, exclude_max=True))
    assume(abs(math.sin(2.0 * vartheta - theta)) > 0.05)
    return MarkerConfig(theta, vartheta)


@st.composite
def phase_tables(draw) -> np.ndarray:
    """A normalized (2, 3) phase table, rows z = (+1, -1), columns (c0, c_cos, c_sin).

    The c0 column may go negative, as a quasi joint's may.  Each slice's
    harmonic is random, or tuned so that the slice minimum c0 - amplitude
    lands within a few JOINT_TOL of 0; optionally the -1 slice repeats the
    +1 slice's c0 and the negated harmonic, so the two minima tie.
    """
    c0 = draw(st.floats(-0.2, 0.4, allow_nan=False))
    rows = [[c0], [1.0 / TWO_PI - c0]]
    for row in rows:
        if draw(st.booleans()):
            row += [draw(st.floats(-0.5, 0.5, allow_nan=False)) for _ in range(2)]
        else:
            # min_value = -offset up to rounding: on either side of the -JOINT_TOL cut
            offset = draw(st.floats(-3.0 * JOINT_TOL, 3.0 * JOINT_TOL, allow_nan=False))
            row += [abs(row[0]) + offset, 0.0][:: draw(st.sampled_from((1, -1)))]
    if draw(st.booleans()):
        rows = [[1.0 / (2.0 * TWO_PI), *rows[0][1:]], [1.0 / (2.0 * TWO_PI), -rows[0][1], -rows[0][2]]]
    return np.array(rows)


def _reference_slices(table) -> list[PhaseDensity]:
    """The rows of a (2, 3) phase table as ``PhaseDensity`` slices, z = +1 first, as ``for_z`` builds them."""
    return [PhaseDensity(*row) for row in np.asarray(table, dtype=float).tolist()]


def phase_negativity_reference(table) -> tuple[float, tuple[float, int], float]:
    """``(min_value, argmin, total_negativity)`` of a phase table, read slice by slice off ``PhaseDensity``.

    The slice oracle for ``negativity_of`` on a ``PhaseJoint``: the +1 slice
    wins a tie, and each slice's negative mass comes from its
    ``PhaseDensity.amplitude``.
    """
    slices = _reference_slices(table)
    best_z, best = min(zip((1, -1), slices), key=lambda item: item[1].min_value)
    phi_star = math.atan2(-best.c_sin, -best.c_cos) % TWO_PI
    total = _negative_mass(slices[0].c0, slices[0].amplitude) + _negative_mass(slices[1].c0, slices[1].amplitude)
    return best.min_value, (phi_star, best_z), total


def operational_phase_table_accepted(table) -> bool:
    """Whether a finite (2, 3) table passes ``PhaseJoint``'s operational rules, read off ``PhaseDensity`` slices.

    The slice oracle for the constructor: 2*pi*(c0(+1) + c0(-1)) within
    JOINT_TOL of 1, and every slice's ``min_value`` at least -JOINT_TOL.
    """
    slices = _reference_slices(table)
    total = TWO_PI * (slices[0].c0 + slices[1].c0)
    return abs(total - 1.0) <= JOINT_TOL and all(d.min_value >= -JOINT_TOL for d in slices)


def x_response_matrix(theta: float) -> np.ndarray:
    """Forward fringe response R(x', x) = (1 + x'*x*cos(theta))/2, exact -> measured."""
    c = math.cos(theta)
    return np.array([[0.5 * (1.0 + c), 0.5 * (1.0 - c)], [0.5 * (1.0 - c), 0.5 * (1.0 + c)]])


def z_response_matrix(config: MarkerConfig) -> np.ndarray:
    """Forward analyzer response R(z, z') = gamma_0(z) + z*z'*gamma_Z(z), exact -> measured."""
    g0, _, gz = gamma_coefficients(config.theta, config.vartheta)
    signs = np.array([1.0, -1.0])
    return g0[:, None] + signs[:, None] * signs * gz[:, None]


@dataclass(frozen=True)
class PhaseKernel:
    """First-harmonic deconvolution kernel k0 + g*cos(phi - phi'): the phase inversion's oracle.

    ``evaluate`` gives the integral kernel for quadrature, independent of the
    triple algebra of ``invert_joint_phase``.  Acting on a Fourier triple,
    ``apply`` leaves the constant term alone and multiplies both harmonics by
    pi*g (equal to 1/cos(theta) for the kernel built by ``mu_phi_kernel``).
    """

    k0: float
    g: float

    def evaluate(self, phi, phi_prime):
        return self.k0 + self.g * np.cos(np.asarray(phi, dtype=float) - np.asarray(phi_prime, dtype=float))

    def apply(self, density: PhaseDensity) -> PhaseDensity:
        gain = math.pi * self.g
        return PhaseDensity(density.c0 * (TWO_PI * self.k0), density.c_cos * gain, density.c_sin * gain)


def mu_phi_kernel(theta: float) -> PhaseKernel:
    """Phase kernel mu_Phi(phi, phi') = [1 + (2/cos(theta))*cos(phi - phi')]/(2*pi)."""
    return PhaseKernel(k0=1.0 / TWO_PI, g=2.0 / (TWO_PI * math.cos(theta)))


def assert_same_text(text: str, expected: str) -> None:
    """String equality; a mismatch names its first differing line.

    pytest's own diff of two long texts that differ on most lines runs for
    minutes, so the comparison reports only the first difference.
    """
    if text == expected:
        return
    got, want = text.split("\n"), expected.split("\n")
    line = next(i for i, (a, b) in enumerate(zip(got + [None], want + [None])) if a != b)
    pytest.fail(f"texts differ at line {line}: {got[line : line + 1]} != {want[line : line + 1]}")


class DiscardingSink:
    """A binary file that drops what is written to it."""

    def write(self, data: bytes) -> int:
        return len(data)

    def writelines(self, blocks) -> None:
        for block in blocks:
            self.write(block)


def written_csv(table) -> bytes:
    """The bytes a file receives from ``table.csv_blocks()``, block by block."""
    return b"".join(table.csv_blocks())


def phase_shots_csv_reference(shots: PhaseShots) -> str:
    """Per-row formatter for PhaseShots.to_csv: one f-string per shot on numpy scalars."""
    lines = ["phi,z"]
    for value, outcome in zip(shots.phi, shots.z):
        lines.append(f"{value:.16e},{outcome}")
    return "\n".join(lines) + "\n"


def scan_csv_reference(grid: ScanGrid) -> str:
    """Per-cell formatter for ScanGrid.to_csv: three float formats per cell on numpy scalars."""
    lines = ["theta,vartheta,min_value,flag"]
    for i, theta in enumerate(grid.theta_values):
        for j, vartheta in enumerate(grid.vartheta_values):
            if grid.singular[i, j]:
                lines.append(f"{theta:.16e},{vartheta:.16e},,1")
            else:
                lines.append(f"{theta:.16e},{vartheta:.16e},{grid.min_values[i, j]:.16e},0")
    return "\n".join(lines) + "\n"
