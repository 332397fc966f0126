"""Marked-interferometer joints: closed forms against the Born-rule projection path."""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings

from quasijoint import (
    DiscreteJoint,
    MarkerConfig,
    PhaseJoint,
    PureState,
    analyzer_states,
    bloch_from_state,
    born_joint_discrete,
    born_joint_phase,
    delta_coefficients,
    entangled_state,
    evaluate_phase_density,
    gamma_coefficients,
    marginal_phase,
    marginal_x,
    marginal_z,
    marginal_z_of_phase,
    operational_joint_discrete,
    operational_joint_phase,
    phase_grid,
)
from quasijoint.marking import _reduce_mod
from helpers import any_configs, haar_state, operational_phase_table_accepted, phase_tables, pure_states

SQRT1_2 = 1.0 / math.sqrt(2.0)
TWO_PI = 2.0 * math.pi


class TestMarkerConfig:
    def test_canonical_range(self):
        cfg = MarkerConfig(-0.3, 4.0)
        assert 0.0 <= cfg.theta < TWO_PI
        assert 0.0 <= cfg.vartheta < math.pi
        assert cfg.theta == TWO_PI - 0.3  # not pi - 0.3: theta + pi is another marked state

    def test_reduction_is_idempotent(self):
        cfg = MarkerConfig(0.7, 2.9)
        again = MarkerConfig(cfg.theta, cfg.vartheta)
        assert (again.theta, again.vartheta) == (cfg.theta, cfg.vartheta)

    def test_analyzer_shift_by_pi_is_exact_equivalence(self):
        state = PureState(0.6, 0.8)
        base = operational_joint_discrete(state, MarkerConfig(0.5, 0.9))
        shifted = operational_joint_discrete(state, MarkerConfig(0.5, 0.9 + math.pi))
        np.testing.assert_allclose(base.table, shifted.table, atol=1e-12)

    def test_marking_shift_by_pi_flips_the_fringe(self):
        # MarkerConfig keeps theta + pi, so gamma_X(+1) is the literal cos(vartheta - theta)*cos(vartheta) there,
        # which the negated marked amplitude makes minus its value at theta
        theta, vartheta = 0.4, 1.1
        cfg = MarkerConfig(theta + math.pi, vartheta)
        assert cfg.theta == theta + math.pi
        _, gx, _ = gamma_coefficients(cfg.theta, cfg.vartheta)
        literal_gx_plus = math.cos(vartheta - (theta + math.pi)) * math.cos(vartheta)
        assert gx[0] == pytest.approx(literal_gx_plus, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            MarkerConfig(float("inf"), 0.0)

    @pytest.mark.parametrize("period", [math.pi, TWO_PI], ids=["pi", "two-pi"])
    def test_reduction_of_a_float_has_numpys_bits(self, period):
        # a tiny negative angle rounds up to the period in both remainders and is mapped to 0
        for angle in (-1e-17, -0.0, 0.0, math.pi, 0.7 + math.pi, 1e300, -1e300, -0.3, 4.0):
            reduced = _reduce_mod(angle, period)
            expected = np.remainder(angle, period)
            assert type(reduced) is float
            assert np.float64(reduced).tobytes() == (expected * (expected < period)).tobytes()
            assert 0.0 <= reduced < period
        cfg = MarkerConfig(-1e-17, 0.7 + math.pi)
        assert (type(cfg.theta), type(cfg.vartheta)) == (float, float)


class TestAnalyzerStates:
    def test_aligned(self):
        rows = analyzer_states(0.0)
        assert rows.shape == (2, 2)
        plus, minus = rows
        np.testing.assert_array_equal(plus, [1.0, 0.0])
        np.testing.assert_array_equal(minus, [0.0, 1.0])

    def test_perpendicular(self):
        plus, minus = analyzer_states(math.pi / 2)
        np.testing.assert_allclose(plus, [0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(minus, [-1.0, 0.0], atol=1e-15)

    def test_diagonal(self):
        plus, minus = analyzer_states(math.pi / 4)
        np.testing.assert_allclose(plus, [SQRT1_2, SQRT1_2], atol=1e-15)
        np.testing.assert_allclose(minus, [-SQRT1_2, SQRT1_2], atol=1e-15)

    @given(any_configs())
    def test_orthonormal(self, cfg):
        plus, minus = analyzer_states(cfg.vartheta)
        assert abs(float(plus @ minus)) <= 1e-15
        assert float(plus @ plus) == pytest.approx(1.0, abs=1e-15)
        assert float(minus @ minus) == pytest.approx(1.0, abs=1e-15)


class TestGammaCoefficients:
    def test_unmarked_aligned(self):
        cfg = MarkerConfig(0.0, 0.0)
        g0, gx, gz = gamma_coefficients(cfg.theta, cfg.vartheta)
        assert tuple(g0) == (1.0, 0.0)
        assert tuple(gx) == (1.0, 0.0)
        assert tuple(gz) == (0.0, 0.0)

    def test_diagonal_marking_and_analyzer(self):
        # direct trigonometric evaluation: gamma_0 = (1 + 1/2)/2, etc.
        cfg = MarkerConfig(math.pi / 4, math.pi / 4)
        g0, gx, gz = gamma_coefficients(cfg.theta, cfg.vartheta)
        assert g0[0] == pytest.approx(0.75, abs=1e-12)
        assert g0[1] == pytest.approx(0.25, abs=1e-12)
        assert gx[0] == pytest.approx(SQRT1_2, abs=1e-12)
        assert gx[1] == pytest.approx(0.0, abs=1e-12)
        assert gz[0] == pytest.approx(0.25, abs=1e-12)
        assert gz[1] == pytest.approx(0.25, abs=1e-12)

    def test_full_marking_gives_signed_fringe_weights(self):
        cfg = MarkerConfig(math.pi / 2, math.pi / 4)
        _, gx, _ = gamma_coefficients(cfg.theta, cfg.vartheta)
        assert gx[0] == pytest.approx(0.5, abs=1e-12)
        assert gx[1] == pytest.approx(-0.5, abs=1e-12)

    def test_array_input_matches_scalar_calls(self):
        rng = np.random.default_rng(11)
        thetas = np.concatenate([[0.0, math.pi / 2, 1e-20, -1e-20, 3.5, -0.7], rng.uniform(-4.0, 8.0, 10)])
        varthetas = np.concatenate([[0.0, math.pi / 4, 1e-20, -1e-20, 4.0, -2.5], rng.uniform(-4.0, 8.0, 10)])
        arrays = gamma_coefficients(thetas[:, None], varthetas[None, :])
        assert [a.shape for a in arrays] == [(16, 16, 2)] * 3
        for i, theta in enumerate(thetas):
            for j, vartheta in enumerate(varthetas):
                for array, scalar in zip(arrays, gamma_coefficients(theta, vartheta)):
                    assert np.array_equal(array[i, j], scalar)

    def test_lists_match_arrays(self):
        thetas, varthetas = [0.0, -0.7, 3.5], [[0.4], [-2.5]]
        for coefficients in (gamma_coefficients, delta_coefficients):
            for from_lists, from_arrays in zip(coefficients(thetas, varthetas),
                                               coefficients(np.array(thetas), np.array(varthetas))):
                assert np.array_equal(from_lists, from_arrays, equal_nan=True)

    @given(any_configs())
    def test_invariants(self, cfg):
        g0, gx, gz = gamma_coefficients(cfg.theta, cfg.vartheta)
        assert g0[0] + g0[1] == pytest.approx(1.0, abs=1e-12)
        assert gx[0] + gx[1] == pytest.approx(math.cos(cfg.theta), abs=1e-12)
        direct = 0.5 * (math.cos(2 * cfg.vartheta - 2 * cfg.theta) - math.cos(2 * cfg.vartheta))
        assert gz[0] + gz[1] == pytest.approx(direct, abs=1e-12)


class TestEntangledState:
    def test_full_marking_of_upper_path(self):
        composite = entangled_state(PureState(1, 0), math.pi / 2)
        np.testing.assert_allclose(composite, [[0.0, 1.0], [0.0, 0.0]], atol=1e-15)
        assert composite.dtype == np.complex128 and not composite.flags.writeable

    def test_lower_path_never_marked(self):
        composite = entangled_state(PureState(0, 1), 1.234)
        assert composite[1, 0] == 1.0
        assert composite[1, 1] == 0.0
        assert composite[0, 0] == 0.0

    def test_balanced_state_half_marking(self):
        composite = entangled_state(PureState(SQRT1_2, SQRT1_2), math.pi / 4)
        assert composite[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert composite[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert abs(composite[1, 0]) == pytest.approx(SQRT1_2, abs=1e-12)

    @given(pure_states(), any_configs())
    def test_unit_norm(self, state, cfg):
        arr = entangled_state(state, cfg.theta)
        assert float(np.sum(np.abs(arr) ** 2)) == pytest.approx(1.0, abs=1e-12)


class TestOperationalJointDiscrete:
    def test_unmarked_aligned_fringe_eigenstate(self):
        state = PureState(SQRT1_2, SQRT1_2)
        joint = operational_joint_discrete(state, MarkerConfig(0.0, 0.0))
        oracle = born_joint_discrete(state, MarkerConfig(0.0, 0.0))
        assert joint.value(1, 1) == pytest.approx(1.0, abs=1e-12)
        for (x, z), value in joint.items():
            assert value == pytest.approx(oracle.value(x, z), abs=1e-12)
            if (x, z) != (1, 1):
                assert value == pytest.approx(0.0, abs=1e-12)

    def test_fully_marked_upper_path(self):
        cfg = MarkerConfig(math.pi / 2, math.pi / 2)
        state = PureState(1, 0)
        joint = operational_joint_discrete(state, cfg)
        oracle = born_joint_discrete(state, cfg)
        # upper path is rotated to |up>, which the analyzer reads as z = +1
        assert joint.value(1, 1) == pytest.approx(0.5, abs=1e-12)
        assert joint.value(-1, 1) == pytest.approx(0.5, abs=1e-12)
        assert joint.value(1, -1) == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(joint.table, oracle.table, atol=1e-12)

    def test_lower_path_with_aligned_analyzer(self):
        joint = operational_joint_discrete(PureState(0, 1), MarkerConfig(0.77, 0.0))
        assert joint.value(1, 1) == pytest.approx(0.5, abs=1e-12)
        assert joint.value(-1, 1) == pytest.approx(0.5, abs=1e-12)
        assert joint.value(1, -1) == pytest.approx(0.0, abs=1e-12)

    @given(pure_states(), any_configs())
    @settings(max_examples=150)
    def test_matches_born_rule(self, state, cfg):
        closed = operational_joint_discrete(state, cfg)
        direct = born_joint_discrete(state, cfg)
        np.testing.assert_allclose(closed.table, direct.table, atol=1e-12)


class TestOperationalJointPhase:
    def test_basis_state_unmarked(self):
        joint = operational_joint_phase(PureState(1, 0), MarkerConfig(0.0, 0.0))
        assert joint.for_z(1).c0 == pytest.approx(1.0 / TWO_PI, abs=1e-12)
        assert joint.for_z(1).c_cos == 0.0
        assert joint.for_z(1).c_sin == 0.0
        assert joint.for_z(-1).c0 == pytest.approx(0.0, abs=1e-12)

    def test_fringe_eigenstate_unmarked(self):
        joint = operational_joint_phase(PureState(SQRT1_2, SQRT1_2), MarkerConfig(0.0, 0.0))
        assert joint.for_z(1).c_cos == pytest.approx(1.0 / TWO_PI, abs=1e-12)
        assert joint.for_z(-1).c0 == pytest.approx(0.0, abs=1e-12)

    def test_circular_state_against_projection(self):
        state = PureState(SQRT1_2, 1j * SQRT1_2)
        cfg = MarkerConfig(math.pi / 3, math.pi / 3)
        joint = operational_joint_phase(state, cfg)
        phi = phase_grid(64)
        direct = born_joint_phase(state, cfg, phi)
        np.testing.assert_allclose(evaluate_phase_density(joint.for_z(1), phi), direct[:, 0], atol=1e-12)
        np.testing.assert_allclose(evaluate_phase_density(joint.for_z(-1), phi), direct[:, 1], atol=1e-12)

    @given(pure_states(), any_configs())
    @settings(max_examples=80)
    def test_matches_born_rule_on_grid(self, state, cfg):
        joint = operational_joint_phase(state, cfg)
        phi = phase_grid(64)
        direct = born_joint_phase(state, cfg, phi)
        np.testing.assert_allclose(evaluate_phase_density(joint.for_z(1), phi), direct[:, 0], atol=1e-12)
        np.testing.assert_allclose(evaluate_phase_density(joint.for_z(-1), phi), direct[:, 1], atol=1e-12)


def literal_oracles(state, theta, vartheta, phi):
    """Both measured joints at the literal angles, from ``entangled_state`` and ``analyzer_states`` without a
    ``MarkerConfig``: the discrete table [x, z] and the phase densities [phi, z]."""
    psi = entangled_state(state, theta)
    analyzer = analyzer_states(vartheta)
    discrete = [[abs(analyzer[k] @ (psi[0] + x * psi[1])) ** 2 / 2.0 for k in range(2)] for x in (1, -1)]
    spin = (psi[0] + np.exp(-1j * phi)[:, None] * psi[1]) / math.sqrt(TWO_PI)
    return np.array(discrete), np.abs(spin @ analyzer.T) ** 2


class TestMarkingShiftByPi:
    """theta + pi negates the marked upper amplitude, which flips the fringe: x -> -x, phi -> phi + pi."""

    @given(pure_states(), any_configs())
    @settings(max_examples=80)
    def test_discrete_rows_swap(self, state, cfg):
        base = operational_joint_discrete(state, cfg).table
        shifted = operational_joint_discrete(state, MarkerConfig(cfg.theta + math.pi, cfg.vartheta)).table
        np.testing.assert_allclose(shifted, base[::-1], atol=1e-12)

    @given(pure_states(), any_configs())
    @settings(max_examples=80)
    def test_phase_harmonics_change_sign(self, state, cfg):
        base = operational_joint_phase(state, cfg).table
        shifted = operational_joint_phase(state, MarkerConfig(cfg.theta + math.pi, cfg.vartheta)).table
        np.testing.assert_allclose(shifted[:, 0], base[:, 0], atol=1e-12)
        np.testing.assert_allclose(shifted[:, 1:], -base[:, 1:], atol=1e-12)

    @pytest.mark.parametrize("theta", [0.4 + math.pi, -0.3, 0.7 + 3 * math.pi])
    def test_joints_match_an_oracle_at_the_literal_angle(self, theta):
        state, vartheta, phi = PureState(0.6, 0.64 + 0.48j), 1.1, phase_grid(64)
        discrete, phase = literal_oracles(state, theta, vartheta, phi)
        cfg = MarkerConfig(theta, vartheta)
        np.testing.assert_allclose(operational_joint_discrete(state, cfg).table, discrete, atol=1e-12)
        joint = operational_joint_phase(state, cfg)
        for k, z in enumerate((1, -1)):
            np.testing.assert_allclose(evaluate_phase_density(joint.for_z(z), phi), phase[:, k], atol=1e-12)

    def test_only_gamma_x_changes_sign(self):
        theta, vartheta = 0.4, 1.1
        (g0, gx, gz), (s0, sx, sz) = gamma_coefficients(theta, vartheta), gamma_coefficients(theta + math.pi, vartheta)
        np.testing.assert_allclose(s0, g0, atol=1e-12)
        np.testing.assert_allclose(sz, gz, atol=1e-12)
        np.testing.assert_allclose(sx, -gx, atol=1e-12)
        assert np.abs(gx).min() > 0.1  # the sign change is visible


class TestMarginals:
    def test_fringe_marginal_of_unmarked_eigenstate(self):
        joint = operational_joint_discrete(PureState(SQRT1_2, SQRT1_2), MarkerConfig(0.0, 0.0))
        assert marginal_x(joint).p_plus == pytest.approx(1.0, abs=1e-12)

    def test_analyzer_marginal_of_fully_marked_upper(self):
        joint = operational_joint_discrete(PureState(1, 0), MarkerConfig(math.pi / 2, math.pi / 2))
        assert marginal_z(joint).p_plus == pytest.approx(1.0, abs=1e-12)

    @given(pure_states(), any_configs())
    def test_fringe_marginal_formula(self, state, cfg):
        e = bloch_from_state(state)
        joint = operational_joint_discrete(state, cfg)
        expected = 0.5 * (1.0 + math.cos(cfg.theta) * e.ex)
        assert marginal_x(joint).p_plus == pytest.approx(expected, abs=1e-12)

    @given(pure_states(), any_configs())
    def test_analyzer_marginal_formula(self, state, cfg):
        e = bloch_from_state(state)
        g0, _, gz = gamma_coefficients(cfg.theta, cfg.vartheta)
        marginal = marginal_z(operational_joint_discrete(state, cfg))
        for k, z in enumerate((1, -1)):
            expected = g0[k] + z * gz[k] * e.ez
            assert (marginal.p_plus, marginal.p_minus)[k] == pytest.approx(expected, abs=1e-12)

    @given(pure_states(), any_configs())
    def test_phase_marginal_normalized_and_first_harmonic(self, state, cfg):
        e = bloch_from_state(state)
        _, gx, _ = gamma_coefficients(cfg.theta, cfg.vartheta)
        joint = operational_joint_phase(state, cfg)
        total = marginal_phase(joint)
        assert total.integral == pytest.approx(1.0, abs=1e-12)
        assert TWO_PI * total.c_cos == pytest.approx(math.cos(cfg.theta) * e.ex, abs=1e-12)
        for k, z in enumerate((1, -1)):
            assert TWO_PI * joint.for_z(z).c_cos == pytest.approx(gx[k] * e.ex, abs=1e-12)

    @given(pure_states(), any_configs())
    def test_phase_z_marginal_equals_discrete_one(self, state, cfg):
        from_phase = marginal_z_of_phase(operational_joint_phase(state, cfg))
        from_discrete = marginal_z(operational_joint_discrete(state, cfg))
        assert from_phase.p_plus == pytest.approx(from_discrete.p_plus, abs=1e-12)

    @given(pure_states())
    def test_full_marking_flattens_the_fringe(self, state):
        joint = operational_joint_discrete(state, MarkerConfig(math.pi / 2, 0.83))
        assert marginal_x(joint).p_plus == pytest.approx(0.5, abs=1e-12)
        assert marginal_x(joint).p_minus == pytest.approx(0.5, abs=1e-12)

    @given(pure_states(), any_configs())
    def test_fringe_visibility_is_cos_theta(self, state, cfg):
        e = bloch_from_state(state)
        joint = operational_joint_discrete(state, cfg)
        amplitude = abs(marginal_x(joint).p_plus - marginal_x(joint).p_minus)
        assert amplitude == pytest.approx(abs(math.cos(cfg.theta) * e.ex), abs=1e-12)


class TestJointValidation:
    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            DiscreteJoint(np.full((2, 2), 0.5))

    def test_table_must_be_finite_and_2x2(self):
        for bad in (
            [0.25, 0.25, 0.25, 0.25],
            np.full((2, 2, 1), 0.25),
            [[0.5, 0.5], [math.nan, 0.0]],
            [[math.inf, 0.0], [0.0, 0.0]],
            [[0.5, 0.5], [-math.inf, math.inf]],
        ):
            with pytest.raises(ValueError):
                DiscreteJoint(bad, kind="quasi")
        # the phase table is (2, 3): rows z = (+1, -1), columns (c0, c_cos, c_sin)
        c0 = 0.5 / TWO_PI
        for bad in (np.full((2, 2), c0), np.full(3, c0), np.full((2, 3, 1), c0)):
            with pytest.raises(ValueError, match=r"expected a table of shape \(2, 3\)"):
                PhaseJoint(bad, kind="quasi")
        for bad in (math.nan, math.inf, -math.inf):
            for cell in ((0, 0), (0, 1), (1, 2)):
                table = np.array([[c0, 0.0, 0.0], [c0, 0.0, 0.0]])
                table[cell] = bad
                with pytest.raises(ValueError, match="joint entries must be finite"):
                    PhaseJoint(table, kind="quasi")

    def test_operational_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            DiscreteJoint([[0.6, 0.6], [-0.1, -0.1]], kind="operational")

    def test_quasi_may_be_negative(self):
        source = np.array([[0.6, 0.6], [-0.1, -0.1]])
        joint = DiscreteJoint(source, kind="quasi")
        source[1, 0] = 0.5  # the joint holds its own copy
        assert joint.value(-1, 1) == -0.1
        with pytest.raises(ValueError):
            joint.table[1, 0] = 0.5
        with pytest.raises(ValueError, match="outcome must be \\+1 or -1, got 0"):
            joint.value(0, 1)
        assert all(type(value) is float for _, value in joint.items())
        source = np.array([[0.5 / TWO_PI, 0.4, 0.0], [0.5 / TWO_PI, 0.0, -0.1]])
        phase = PhaseJoint(source, kind="quasi")
        source[0, 1] = 0.0  # the phase joint holds its own copy too
        assert phase.for_z(1).c_cos == 0.4
        assert phase.table.dtype == np.float64 and phase.table.shape == (2, 3)
        with pytest.raises(ValueError):
            phase.table[0, 1] = 0.0
        for z in (1, -1):
            assert all(type(value) is float for value in astuple(phase.for_z(z)))
        assert phase.for_z(-1).c_sin == -0.1
        with pytest.raises(ValueError, match="outcome must be \\+1 or -1, got 0"):
            phase.for_z(0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DiscreteJoint(np.full((2, 2), 0.25), kind="bogus")
        with pytest.raises(ValueError, match="unknown joint kind"):
            PhaseJoint([[0.5 / TWO_PI, 0.0, 0.0], [0.5 / TWO_PI, 0.0, 0.0]], kind="bogus")

    def test_phase_joint_normalization(self):
        flat = (0.25 / TWO_PI, 0.0, 0.0)
        with pytest.raises(ValueError):
            PhaseJoint([flat, flat])  # integrates to 1/2

    def test_operational_phase_slices_must_be_nonnegative(self):
        dipping = (0.5 / TWO_PI, 0.4, 0.0)
        rest = (0.5 / TWO_PI, 0.0, 0.0)
        with pytest.raises(ValueError):
            PhaseJoint([dipping, rest], kind="operational")
        assert PhaseJoint([dipping, rest], kind="quasi").for_z(1).c_cos == 0.4

    @given(phase_tables(), pure_states(), any_configs())
    def test_operational_phase_tables_accepted_as_by_the_slice_oracle(self, table, state, cfg):
        assert operational_phase_table_accepted(operational_joint_phase(state, cfg).table)
        if operational_phase_table_accepted(table):
            assert np.array_equal(PhaseJoint(table).table, table)
        else:
            with pytest.raises(ValueError, match="operational z=(1|-1) slice dips to"):
                PhaseJoint(table)
