"""Shared ensembles, hypothesis strategies and reference oracles for the test suite."""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume

from quasijoint import MarkerConfig, PhaseDensity, PhaseJoint, PhaseShots, PureState, ScanGrid, gamma_coefficients
from quasijoint.analysis import _negative_mass
from quasijoint.marking import JOINT_TOL
from quasijoint.sampling import _asin, _wrap_phase

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
    theta = draw(st.floats(0.0, TWO_PI, allow_nan=False, exclude_max=True))
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
    wins a tie, phi_star lies in [0, 2*pi), a tiny negative angle that rounds
    up to 2*pi reading 0, and each slice's negative mass comes from its
    ``PhaseDensity.amplitude``.
    """
    slices = _reference_slices(table)
    best_z, best = min(zip((1, -1), slices), key=lambda item: item[1].min_value)
    phi_star = math.atan2(-best.c_sin, -best.c_cos) % TWO_PI
    if phi_star == TWO_PI:
        phi_star = 0.0
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


#: the Pauli matrices in the path basis (upper, lower), so that <Z> = |alpha|^2 - |beta|^2
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_IDENTITY = np.eye(2)


def _density_matrix(state: PureState) -> np.ndarray:
    """rho = |psi><psi| of the amplitude pair."""
    psi = np.array([state.alpha, state.beta])
    return np.outer(psi, psi.conj())


def context_parameter(config: MarkerConfig) -> float:
    """t = tan(theta) / tan(2*vartheta - theta): the inferred joint's one departure from Margenau-Hill."""
    return math.tan(config.theta) / math.tan(2.0 * config.vartheta - config.theta)


def margenau_hill_discrete(state: PureState, t: float = 0.0) -> np.ndarray:
    """Re Tr(Pi_x Pi_z rho) + t*x*z*<X>/4 as a (2, 2) array [x, z], both (+1, -1).

    The Margenau-Hill distribution of the fringe projector Pi_x = (1 + x sigma_x)/2
    and the path projector Pi_z = (1 + z sigma_z)/2, built from the density
    matrix by products and traces alone: the oracle shares no delta, gamma or
    kernel code with the package.  With ``t`` from ``context_parameter`` it is
    the inferred quasi joint; with t = 0, Margenau-Hill alone.
    """
    rho = _density_matrix(state)
    ex = np.trace(SIGMA_X @ rho).real
    table = np.empty((2, 2))
    for i, x in enumerate((1, -1)):
        for j, z in enumerate((1, -1)):
            product = (_IDENTITY + x * SIGMA_X) / 2 @ ((_IDENTITY + z * SIGMA_Z) / 2) @ rho
            table[i, j] = np.trace(product).real + t * x * z * ex / 4
    return table


def margenau_hill_phase(state: PureState, phi: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Re Tr(E_phi Pi_z rho) + t*z*(cos(phi)<X> + sin(phi)<Y>)/(4 pi) as a (2, len(phi)) array [z, phi].

    E_phi = (1 + cos(phi) sigma_x + sin(phi) sigma_y)/(2 pi) is the phase POVM;
    otherwise as ``margenau_hill_discrete``.
    """
    rho = _density_matrix(state)
    ex, ey = np.trace(SIGMA_X @ rho).real, np.trace(SIGMA_Y @ rho).real
    cos, sin = np.cos(phi), np.sin(phi)
    povm = (_IDENTITY + cos[:, None, None] * SIGMA_X + sin[:, None, None] * SIGMA_Y) / TWO_PI
    rows = []
    for z in (1, -1):
        mh = np.einsum("nij,ji->n", povm, (_IDENTITY + z * SIGMA_Z) / 2 @ rho).real
        rows.append(mh + t * z * (cos * ex + sin * ey) / (2.0 * TWO_PI))
    return np.array(rows)


#: significant digits of the decimal references, far beyond float64's 17
REFERENCE_DIGITS = 50


def _decimal_sin(x: Decimal) -> Decimal:
    """sin(x) by its Taylor series, the ``sin`` recipe of the ``decimal`` documentation, at the current precision."""
    decimal.getcontext().prec += 2
    i, lasts, s, fact, num, sign = 1, 0, x, 1, x, 1
    while s != lasts:
        lasts = s
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign *= -1
        s += num / fact * sign
    decimal.getcontext().prec -= 2
    return +s


def _decimal_cos(x: Decimal) -> Decimal:
    """cos(x) by its Taylor series, the ``cos`` recipe of the ``decimal`` documentation, at the current precision."""
    decimal.getcontext().prec += 2
    i, lasts, s, fact, num, sign = 0, 0, 1, 1, 1, 1
    while s != lasts:
        lasts = s
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign *= -1
        s += num / fact * sign
    decimal.getcontext().prec -= 2
    return +s


def delta_reference(theta: float, vartheta: float) -> tuple[Decimal, Decimal]:
    """(delta(+1), delta(-1)) to ``REFERENCE_DIGITS`` digits, each float64 angle taken as exact.

    sin(2*vartheta)/D and sin(2*vartheta - 2*theta)/D with
    D = cos(theta)*sin(2*vartheta - theta), every sum and product in
    decimal arithmetic: the oracle of both delta routes, sharing no code
    with inversion.py.  The series need no argument reduction for the
    angles ``MarkerConfig`` holds, |x| < 4*pi, where their largest term
    costs at most 5 of the digits.
    """
    with decimal.localcontext() as context:
        context.prec = REFERENCE_DIGITS + 5
        t, v = Decimal(theta), Decimal(vartheta)
        den = _decimal_cos(t) * _decimal_sin(2 * v - t)
        pair = (_decimal_sin(2 * v) / den, _decimal_sin(2 * v - 2 * t) / den)
        context.prec = REFERENCE_DIGITS
        return +pair[0], +pair[1]


def ulp_error(value: float, reference: Decimal) -> float:
    """|value - reference| in units of ulp(max(1, |reference|)): ulps of the value, or of 1 below 1 in magnitude."""
    unit = math.ulp(max(1.0, abs(float(reference))))
    return float(abs(Decimal(value) - reference) / Decimal(unit))


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


def phase_shots_reference(joint: PhaseJoint, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """sample_phase's (phi, z): each 2^14-shot block's U1 values from the phi stream, then its U2 values.

    The whole record at once, block by block, with no buffers.
    """
    z_seq, phi_seq = np.random.SeedSequence(seed).spawn(2)
    v = np.random.default_rng(z_seq).random(n)
    phi_rng = np.random.default_rng(phi_seq)
    rows = joint.table.tolist()
    w_plus = min(max(TWO_PI * rows[0][0], 0.0), 1.0)
    share = [min(math.hypot(c_cos, c_sin) / c0, 1.0) if c0 > 0.0 else 0.0 for c0, c_cos, c_sin in rows]
    minus = v >= w_plus
    cardioid = (v >= w_plus * (1.0 - share[0])) & (v < w_plus + (1.0 - w_plus) * share[1])
    phase0 = np.array([math.atan2(c_sin, c_cos) for _, c_cos, c_sin in rows])
    phi = np.empty(n)
    for start in range(0, n, 1 << 14):
        block = slice(start, start + (1 << 14))
        u1 = phi_rng.random(v[block].size)
        u2 = phi_rng.random(np.count_nonzero(cardioid[block]))
        drawn = u1 * TWO_PI
        u = 2.0 * _asin(np.cos(u2 * TWO_PI) * np.sqrt(u1[cardioid[block]]))
        drawn[cardioid[block]] = _wrap_phase(u + phase0[minus[block][cardioid[block]].astype(int)])
        phi[block] = drawn
    return phi, np.where(minus, -1, 1)


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
