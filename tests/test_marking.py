"""Marked-interferometer joints: closed forms against the Born-rule projection path."""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings

from quasijoint import (
    CompositeState,
    DiscreteJoint,
    MarkerConfig,
    PhaseJoint,
    PureState,
    analyzer_states,
    bloch_from_state,
    born_joint_discrete,
    born_joint_phase,
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
from helpers import any_configs, haar_state, operational_phase_table_accepted, phase_tables, pure_states

SQRT1_2 = 1.0 / math.sqrt(2.0)
TWO_PI = 2.0 * math.pi


class TestMarkerConfig:
    def test_canonical_range(self):
        cfg = MarkerConfig(-0.3, 4.0)
        assert 0.0 <= cfg.theta < math.pi
        assert 0.0 <= cfg.vartheta < math.pi

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
        # the documented caveat: the mod-pi representative of theta + pi
        # reproduces the literal statistics at theta + pi only after x -> -x
        theta, vartheta = 0.4, 1.1
        cfg = MarkerConfig(theta, vartheta)
        _, gx, _ = gamma_coefficients(cfg.theta, cfg.vartheta)
        diff = vartheta - (theta + math.pi)
        literal_gx_plus = math.cos(diff) * math.cos(vartheta)
        assert literal_gx_plus == pytest.approx(-gx[0], abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            MarkerConfig(float("inf"), 0.0)


class TestAnalyzerStates:
    def test_aligned(self):
        plus, minus = analyzer_states(0.0)
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
        np.testing.assert_allclose(
            composite.as_array(), [[0.0, 1.0], [0.0, 0.0]], atol=1e-15
        )

    def test_lower_path_never_marked(self):
        composite = entangled_state(PureState(0, 1), 1.234)
        assert composite.lower_right == 1.0
        assert composite.lower_up == 0.0
        assert composite.upper_right == 0.0

    def test_balanced_state_half_marking(self):
        composite = entangled_state(PureState(SQRT1_2, SQRT1_2), math.pi / 4)
        assert composite.upper_right == pytest.approx(0.5, abs=1e-12)
        assert composite.upper_up == pytest.approx(0.5, abs=1e-12)
        assert abs(composite.lower_right) == pytest.approx(SQRT1_2, abs=1e-12)

    @given(pure_states(), any_configs())
    def test_unit_norm(self, state, cfg):
        arr = entangled_state(state, cfg.theta).as_array()
        assert float(np.sum(np.abs(arr) ** 2)) == pytest.approx(1.0, abs=1e-12)

    def test_composite_validation(self):
        with pytest.raises(ValueError):
            CompositeState(1.0, 1.0, 0.0, 0.0)


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
