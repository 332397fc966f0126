"""Exact single-observable statistics, checked against direct projection oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings

from quasijoint import (
    BinaryDistribution,
    BlochExpectations,
    PhaseDensity,
    PureState,
    StateValidationError,
    bloch_from_state,
    evaluate_phase_density,
    exact_interference_distribution,
    exact_path_distribution,
    exact_phase_distribution,
    phase_grid,
)
from helpers import haar_state, pure_states

TWO_PI = 2.0 * math.pi
INV_TWO_PI = 0.15915494309189535  # 1/(2*pi)
COS_PI_8 = 0.9238795325112867
SIN_PI_8 = 0.3826834323650898

# frozen from the oracle evaluations below
BLOCH_PI_8 = 0.7071067811865476  # 2*cos(pi/8)*sin(pi/8) = sin(pi/4)
P_PLUS_PI_8 = 0.8535533905932737  # cos(pi/8)^2


def bloch_oracle(state: PureState) -> tuple[float, float, float]:
    """The three defining expressions, evaluated literally."""
    a, b = state.alpha, state.beta
    ex = (a * b.conjugate() + a.conjugate() * b).real
    ey = (1j * (a * b.conjugate() - a.conjugate() * b)).real
    ez = abs(a) ** 2 - abs(b) ** 2
    return ex, ey, ez


def projection_oracle(state: PureState, x: int) -> float:
    """|<x|psi>|^2 with |x> = (1, x)/sqrt(2), built inline."""
    vec = np.array([1.0, float(x)]) / math.sqrt(2.0)
    amp = vec[0] * state.alpha + vec[1] * state.beta
    return abs(amp) ** 2


def phase_oracle(state: PureState, phi: float) -> float:
    """|<phi|psi>|^2 with |phi> = (1, e^{i phi})/sqrt(2 pi), built inline."""
    amp = (state.alpha + np.exp(-1j * phi) * state.beta) / math.sqrt(TWO_PI)
    return abs(amp) ** 2


class TestPureState:
    def test_slightly_off_norm_is_rescaled(self):
        state = PureState(0.70710678, 0.70710678)
        norm = abs(state.alpha) ** 2 + abs(state.beta) ** 2
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_far_off_norm_is_rejected(self):
        with pytest.raises(StateValidationError):
            PureState(1.0, 1.0)
        with pytest.raises(StateValidationError):
            PureState(0.0, 0.0)
        for alpha, beta in ((1e308, 1e308), (1e200, 0.0), (complex(1e308, 1e308), 0.0)):
            with pytest.raises(StateValidationError):  # |amplitude|^2 overflows a float
                PureState(alpha, beta)

    def test_non_finite_is_rejected(self):
        with pytest.raises(StateValidationError):
            PureState(float("nan"), 1.0)


class TestBloch:
    def test_basis_state(self):
        e = bloch_from_state(PureState(1, 0))
        assert (e.ex, e.ey, e.ez) == (0.0, 0.0, 1.0)

    def test_equal_superposition(self):
        e = bloch_from_state(PureState(1 / math.sqrt(2), 1 / math.sqrt(2)))
        assert e.ex == pytest.approx(1.0, abs=1e-12)
        assert e.ey == 0.0
        assert e.ez == pytest.approx(0.0, abs=1e-12)

    def test_tilted_real_state(self):
        state = PureState(COS_PI_8, SIN_PI_8)
        ex_o, ey_o, ez_o = bloch_oracle(state)
        assert ex_o == pytest.approx(BLOCH_PI_8, abs=1e-15)
        assert ez_o == pytest.approx(BLOCH_PI_8, abs=1e-15)
        e = bloch_from_state(state)
        assert e.ex == pytest.approx(ex_o, abs=1e-12)
        assert e.ey == pytest.approx(ey_o, abs=1e-12)
        assert e.ez == pytest.approx(ez_o, abs=1e-12)

    @given(pure_states())
    def test_purity(self, state):
        e = bloch_from_state(state)
        assert e.ex**2 + e.ey**2 + e.ez**2 == pytest.approx(1.0, abs=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            BlochExpectations(1.5, 0.0, 0.0)


class TestPathDistribution:
    def test_basis_state(self):
        p = exact_path_distribution(PureState(1, 0))
        assert (p.p_plus, p.p_minus) == (1.0, 0.0)

    def test_symmetric_superposition(self):
        p = exact_path_distribution(PureState(1 / math.sqrt(2), 1 / math.sqrt(2)))
        assert p.p_plus == pytest.approx(0.5, abs=1e-12)

    def test_tilted_state(self):
        state = PureState(COS_PI_8, SIN_PI_8)
        assert abs(state.alpha) ** 2 == pytest.approx(P_PLUS_PI_8, abs=1e-15)
        assert exact_path_distribution(state).p_plus == pytest.approx(P_PLUS_PI_8, abs=1e-12)


class TestInterferenceDistribution:
    def test_fringe_eigenstate(self):
        p = exact_interference_distribution(PureState(1 / math.sqrt(2), 1 / math.sqrt(2)))
        assert p.p_plus == pytest.approx(1.0, abs=1e-12)
        assert p.p_minus == pytest.approx(0.0, abs=1e-12)

    def test_basis_state(self):
        p = exact_interference_distribution(PureState(1, 0))
        assert (p.p_plus, p.p_minus) == (0.5, 0.5)

    def test_tilted_state(self):
        state = PureState(COS_PI_8, SIN_PI_8)
        assert projection_oracle(state, 1) == pytest.approx(P_PLUS_PI_8, abs=1e-15)
        p = exact_interference_distribution(state)
        assert p.p_plus == pytest.approx(projection_oracle(state, 1), abs=1e-12)

    def test_matches_projection_on_random_states(self):
        rng = np.random.default_rng(20260810)
        for _ in range(1000):
            state = haar_state(rng)
            p = exact_interference_distribution(state)
            for x, probability in ((1, p.p_plus), (-1, p.p_minus)):
                assert probability == pytest.approx(projection_oracle(state, x), abs=1e-12)


class TestPhaseDistribution:
    def test_no_coherence_is_flat(self):
        d = exact_phase_distribution(PureState(1, 0))
        assert (d.c0, d.c_cos, d.c_sin) == (INV_TWO_PI, 0.0, 0.0)

    def test_real_superposition(self):
        d = exact_phase_distribution(PureState(1 / math.sqrt(2), 1 / math.sqrt(2)))
        assert d.c0 == INV_TWO_PI
        assert d.c_cos == pytest.approx(INV_TWO_PI, abs=1e-12)
        assert d.c_sin == 0.0

    def test_circular_superposition(self):
        state = PureState(1 / math.sqrt(2), 1j / math.sqrt(2))
        assert bloch_oracle(state)[1] == pytest.approx(1.0, abs=1e-15)
        d = exact_phase_distribution(state)
        assert d.c_cos == pytest.approx(0.0, abs=1e-12)
        assert d.c_sin == pytest.approx(INV_TWO_PI, abs=1e-12)

    @given(pure_states())
    @settings(max_examples=60)
    def test_pointwise_projection_identity(self, state):
        d = exact_phase_distribution(state)
        for phi in phase_grid(16):
            assert evaluate_phase_density(d, float(phi)) == pytest.approx(
                phase_oracle(state, float(phi)), abs=1e-12
            )

    @given(pure_states())
    def test_normalized_and_nonnegative(self, state):
        d = exact_phase_distribution(state)
        assert d.integral == pytest.approx(1.0, abs=1e-12)
        assert np.all(evaluate_phase_density(d, phase_grid(256)) >= -1e-15)

    @given(pure_states())
    def test_first_harmonic_recovers_coherences(self, state):
        e = bloch_from_state(state)
        d = exact_phase_distribution(state)
        assert TWO_PI * d.c_cos == pytest.approx(e.ex, abs=1e-12)
        assert TWO_PI * d.c_sin == pytest.approx(e.ey, abs=1e-12)
        # quadrature cross-check of the cosine moment (periodic trapezoid is exact here)
        phi = np.linspace(0.0, TWO_PI, 128, endpoint=False)
        moment = float(np.mean(evaluate_phase_density(d, phi) * np.cos(phi))) * TWO_PI
        assert moment == pytest.approx(e.ex / 2.0, abs=1e-12)


class TestEvaluatePhaseDensity:
    def test_flat(self):
        assert evaluate_phase_density(PhaseDensity(INV_TWO_PI, 0.0, 0.0), 1.3) == INV_TWO_PI

    def test_peak(self):
        d = PhaseDensity(INV_TWO_PI, INV_TWO_PI, 0.0)
        assert evaluate_phase_density(d, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_at_pi_third(self):
        d = PhaseDensity(INV_TWO_PI, INV_TWO_PI, 0.0)
        assert evaluate_phase_density(d, math.pi / 3) == pytest.approx(
            0.238732414637843, abs=1e-12  # (1 + 0.5)/(2*pi), direct evaluation
        )

    def test_periodicity_and_arrays(self):
        d = PhaseDensity(0.2, 0.05, -0.03)
        phi = np.array([0.4, 2.0, 5.0])
        np.testing.assert_allclose(
            evaluate_phase_density(d, phi + TWO_PI), evaluate_phase_density(d, phi), atol=1e-14
        )


class TestBinaryDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            BinaryDistribution(0.7, 0.7)
        with pytest.raises(ValueError):
            BinaryDistribution(1.2, -0.2)

    def test_from_expectation(self):
        p = BinaryDistribution.from_expectation(0.5)
        assert (p.p_plus, p.p_minus) == (0.75, 0.25)
        assert p == BinaryDistribution(0.75, 0.25)
