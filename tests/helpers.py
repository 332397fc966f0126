"""Shared ensembles, hypothesis strategies and reference oracles for the test suite."""

from __future__ import annotations

import io
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume

from quasijoint import MarkerConfig, PhaseShots, PureState, ScanGrid, gamma_coefficients


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


def x_response_matrix(theta: float) -> np.ndarray:
    """Forward fringe response R(x', x) = (1 + x'*x*cos(theta))/2, exact -> measured."""
    c = math.cos(theta)
    return np.array([[0.5 * (1.0 + c), 0.5 * (1.0 - c)], [0.5 * (1.0 - c), 0.5 * (1.0 + c)]])


def z_response_matrix(config: MarkerConfig) -> np.ndarray:
    """Forward analyzer response R(z, z') = gamma_0(z) + z*z'*gamma_Z(z), exact -> measured."""
    g0, _, gz = gamma_coefficients(config.theta, config.vartheta)
    signs = np.array([1.0, -1.0])
    return g0[:, None] + signs[:, None] * signs * gz[:, None]


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


def written_csv(table) -> bytes:
    """The bytes ``table.write_csv`` writes into a binary file."""
    buffer = io.BytesIO()
    table.write_csv(buffer)
    return buffer.getvalue()


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
