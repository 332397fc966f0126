"""Inversion kernels: left-inverse property, closed forms, and singular handling."""

from __future__ import annotations

import math
import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from quasijoint import (
    MarkerConfig,
    PhaseDensity,
    PureState,
    ShotCounts,
    SingularAnalyzer,
    SingularMarking,
    bloch_from_state,
    delta_coefficients,
    estimate_quasi_joint,
    exact_interference_distribution,
    exact_path_distribution,
    exact_phase_distribution,
    evaluate_phase_density,
    invert_joint_discrete,
    invert_joint_phase,
    marginal_phase,
    marginal_x,
    marginal_z,
    marginal_z_of_phase,
    mu_x_matrix,
    mu_z_matrix,
    operational_joint_discrete,
    operational_joint_phase,
    phase_grid,
    quasi_joint_closed_form,
    quasi_joint_phase_closed_form,
)
from quasijoint.inversion import _config_delta
from helpers import (
    any_configs,
    context_parameter,
    delta_reference,
    haar_state,
    invertible_config,
    invertible_configs,
    margenau_hill_discrete,
    margenau_hill_phase,
    mu_phi_kernel,
    pure_states,
    ulp_error,
    x_response_matrix,
    z_response_matrix,
)

TWO_PI = 2.0 * math.pi
SQRT1_2 = 1.0 / math.sqrt(2.0)
COS_PI_8 = 0.9238795325112867
SIN_PI_8 = 0.3826834323650898
P_MIN_PI_8 = -0.10355339059327379  # (1 - sqrt(2))/4, direct evaluation


def quadrature_phase_inversion(density: PhaseDensity, theta: float, phi: np.ndarray) -> np.ndarray:
    """129-point trapezoid of the integral kernel; independent of the triple algebra."""
    kernel = mu_phi_kernel(theta)
    grid = np.linspace(0.0, TWO_PI, 129)
    integrand = kernel.evaluate(phi[:, None], grid[None, :]) * evaluate_phase_density(density, grid)
    weights = np.full(129, TWO_PI / 128)
    weights[0] = weights[-1] = 0.5 * TWO_PI / 128
    return integrand @ weights


class TestMuX:
    def test_no_marking_is_identity(self):
        m = mu_x_matrix(0.0)
        np.testing.assert_array_equal(m, [[1.0, 0.0], [0.0, 1.0]])

    def test_sixty_degree_marking(self):
        m = mu_x_matrix(math.pi / 3)  # 1/cos = 2, entries (1 +/- 2)/2
        assert m[0, 0] == pytest.approx(1.5, abs=1e-12)
        assert m[0, 1] == pytest.approx(-0.5, abs=1e-12)
        assert m[1, 0] == pytest.approx(-0.5, abs=1e-12)
        assert m[1, 1] == pytest.approx(1.5, abs=1e-12)
        product = m @ x_response_matrix(math.pi / 3)
        np.testing.assert_allclose(product, np.eye(2), atol=1e-10)

    def test_full_marking_is_singular(self):
        with pytest.raises(SingularMarking, match="cos"):
            mu_x_matrix(math.pi / 2)

    @given(invertible_configs())
    def test_column_sums_and_left_inverse(self, cfg):
        m = mu_x_matrix(cfg.theta)
        np.testing.assert_allclose(m.sum(axis=0), [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(m @ x_response_matrix(cfg.theta), np.eye(2), atol=1e-10)


class TestMuZ:
    def test_full_marking_aligned_analyzer_is_identity(self):
        m = mu_z_matrix(MarkerConfig(math.pi / 2, math.pi / 2))
        np.testing.assert_allclose(m, np.eye(2), atol=1e-12)

    def test_diagonal_configuration(self):
        # denominator 1/2; entries evaluated directly from the four quotients
        m = mu_z_matrix(MarkerConfig(math.pi / 4, math.pi / 4))
        np.testing.assert_allclose(m, [[1.0, -1.0], [0.0, 2.0]], atol=1e-12)
        rng = np.random.default_rng(7)
        for _ in range(20):
            state = haar_state(rng)
            measured = marginal_z(operational_joint_discrete(state, MarkerConfig(math.pi / 4, math.pi / 4)))
            recovered = m @ (measured.p_plus, measured.p_minus)
            exact = exact_path_distribution(state)
            assert recovered[0] == pytest.approx(exact.p_plus, abs=1e-10)

    def test_no_marking_is_singular(self):
        with pytest.raises(SingularAnalyzer, match="sin"):
            mu_z_matrix(MarkerConfig(0.0, 0.9))

    def test_degenerate_analyzer_line_is_singular(self):
        theta = 0.8
        with pytest.raises(SingularAnalyzer):
            mu_z_matrix(MarkerConfig(theta, theta / 2))

    @given(invertible_configs())
    def test_column_sums_and_left_inverse(self, cfg):
        m = mu_z_matrix(cfg)
        np.testing.assert_allclose(m.sum(axis=0), [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(m @ z_response_matrix(cfg), np.eye(2), atol=1e-10)

    def test_left_inverse_on_config_grid(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 100:
            cfg = invertible_config(rng)
            np.testing.assert_allclose(
                mu_x_matrix(cfg.theta) @ x_response_matrix(cfg.theta),
                np.eye(2),
                atol=1e-10,
            )
            np.testing.assert_allclose(
                mu_z_matrix(cfg) @ z_response_matrix(cfg), np.eye(2), atol=1e-10
            )
            checked += 1

    def test_condition_diagnostic_grows_near_singularity(self):
        mild = np.abs(mu_z_matrix(MarkerConfig(0.8, 1.2))).max()
        harsh = np.abs(mu_z_matrix(MarkerConfig(0.01, 1.2))).max()
        assert harsh > 10 * mild


class TestInvertMarginals:
    def test_restores_full_fringe(self):
        # measured marginal (3/4, 1/4) at theta = pi/3 comes from <X> = 1
        state = PureState(SQRT1_2, SQRT1_2)
        measured = marginal_x(operational_joint_discrete(state, MarkerConfig(math.pi / 3, 0.2)))
        assert measured.p_plus == pytest.approx(0.75, abs=1e-12)
        recovered = mu_x_matrix(math.pi / 3) @ (measured.p_plus, measured.p_minus)
        assert recovered[0] == pytest.approx(1.0, abs=1e-10)
        assert recovered[1] == pytest.approx(0.0, abs=1e-10)

    def test_identity_configuration_for_z(self):
        cfg = MarkerConfig(math.pi / 2, math.pi / 2)
        assert mu_z_matrix(cfg) @ (0.3, 0.7) == pytest.approx((0.3, 0.7), abs=1e-12)

    def test_uniform_is_fixed_point(self):
        for theta in (0.1, 0.7, 1.3):
            assert mu_x_matrix(theta) @ (0.5, 0.5) == pytest.approx((0.5, 0.5), abs=1e-12)

    @given(pure_states(), invertible_configs())
    def test_recovers_exact_marginals(self, state, cfg):
        op = operational_joint_discrete(state, cfg)
        mx = marginal_x(op)
        mz = marginal_z(op)
        rx = mu_x_matrix(cfg.theta) @ (mx.p_plus, mx.p_minus)
        rz = mu_z_matrix(cfg) @ (mz.p_plus, mz.p_minus)
        assert rx[0] == pytest.approx(exact_interference_distribution(state).p_plus, abs=1e-10)
        assert rz[0] == pytest.approx(exact_path_distribution(state).p_plus, abs=1e-10)

    def test_output_may_leave_unit_interval(self):
        recovered = mu_x_matrix(math.pi / 3) @ (1.0, 0.0)
        assert recovered[0] > 1.0
        assert recovered[0] + recovered[1] == pytest.approx(1.0, abs=1e-12)


class TestDelta:
    def test_diagonal_configuration(self):
        cfg = MarkerConfig(math.pi / 4, math.pi / 4)
        (d_plus, d_minus), _, _ = delta_coefficients(cfg.theta, cfg.vartheta)
        assert d_plus == pytest.approx(2.0, abs=1e-12)
        assert d_minus == pytest.approx(0.0, abs=1e-12)

    def test_zero_marking_limit(self):
        # at theta = 0 the formula itself gives exactly (1, 1) wherever sin(2*vartheta) is away from 0
        varthetas = [1.234, *np.linspace(-4.0, 4.0, 50)]
        assert min(abs(math.sin(2.0 * v)) for v in varthetas) > 1e-6
        for vartheta in varthetas:
            cfg = MarkerConfig(0.0, vartheta)
            (d_plus, d_minus), marking, analyzer = delta_coefficients(cfg.theta, cfg.vartheta)
            assert (d_plus, d_minus, marking, analyzer) == (1.0, 1.0, False, False)
            assert _config_delta(cfg).tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("vartheta", [0.0, math.pi / 2], ids=["zero", "half-pi"])
    def test_zero_marking_on_the_analyzer_line_is_singular(self, vartheta):
        # theta = 0 has no exemption: sin(2*vartheta) = 0 is the analyzer line there as at any theta
        delta, marking, analyzer = delta_coefficients(0.0, vartheta)
        assert analyzer and not marking
        assert np.isnan(delta).all()
        cfg = MarkerConfig(0.0, vartheta)
        for closed_form in (quasi_joint_closed_form, quasi_joint_phase_closed_form):
            with pytest.raises(SingularAnalyzer, match=re.escape("sin(2*vartheta - theta)")):
                closed_form(TILTED, cfg)

    def test_thirty_sixty(self):
        cfg = MarkerConfig(math.pi / 6, math.pi / 3)
        (d_plus, d_minus), _, _ = delta_coefficients(cfg.theta, cfg.vartheta)
        assert d_plus == pytest.approx(1.0, abs=1e-12)
        assert d_minus == pytest.approx(1.0, abs=1e-12)

    def test_array_input_matches_scalar_calls(self):
        rng = np.random.default_rng(12)
        thetas = np.concatenate(
            [[0.0, math.pi / 2, 0.8, 1e-20, -1e-20, 3.5, -0.7], rng.uniform(-4.0, 8.0, 10)]
        )
        varthetas = np.concatenate(
            [[0.0, 0.4, math.pi / 2, 1e-20, -1e-20, 4.0, -2.5], rng.uniform(-4.0, 8.0, 10)]
        )
        delta, marking, analyzer = delta_coefficients(thetas[:, None], varthetas[None, :])
        assert delta.shape == (17, 17, 2)
        assert marking.shape == analyzer.shape == (17, 17)
        assert marking.any() and analyzer.any()
        for i, theta in enumerate(thetas):
            for j, vartheta in enumerate(varthetas):
                d, m, a = delta_coefficients(theta, vartheta)
                assert np.array_equal(delta[i, j], d, equal_nan=True)
                assert (marking[i, j], analyzer[i, j]) == (m, a)

    def test_analyzer_mask_raises_in_the_phase_closed_form(self):
        with pytest.raises(SingularAnalyzer, match="sin"):
            quasi_joint_phase_closed_form(PureState(0.6, 0.8), MarkerConfig(0.8, 0.4))

    @given(invertible_configs())
    def test_sum_is_two(self, cfg):
        (d_plus, d_minus), _, _ = delta_coefficients(cfg.theta, cfg.vartheta)
        assert d_plus + d_minus == pytest.approx(2.0, abs=1e-12)

    def test_sum_is_two_on_grid(self):
        # margins keep the shared denominator above ~2.5e-3 so that the
        # absolute 1e-12 tolerance is meaningful (entries scale like 1/den)
        thetas = np.linspace(0.05, math.pi / 2 - 0.05, 100)
        varthetas = np.linspace(0.0, math.pi, 100, endpoint=False)
        checked = 0
        for theta in thetas:
            for vartheta in varthetas:
                if abs(math.sin(2 * vartheta - theta)) < 0.05:
                    continue
                cfg = MarkerConfig(theta, vartheta)
                (d_plus, d_minus), _, _ = delta_coefficients(cfg.theta, cfg.vartheta)
                assert abs(d_plus + d_minus - 2.0) <= 1e-12
                checked += 1
        assert checked > 9000


class TestQuasiClosedForm:
    def test_zero_marking_fringe_eigenstate(self):
        joint = quasi_joint_closed_form(PureState(SQRT1_2, SQRT1_2), MarkerConfig(0.0, 0.4))
        assert joint.value(1, 1) == pytest.approx(0.5, abs=1e-12)
        assert joint.value(1, -1) == pytest.approx(0.5, abs=1e-12)
        assert joint.value(-1, 1) == pytest.approx(0.0, abs=1e-12)
        assert joint.value(-1, -1) == pytest.approx(0.0, abs=1e-12)

    def test_zero_marking_tilted_state_goes_negative(self):
        joint = quasi_joint_closed_form(PureState(COS_PI_8, SIN_PI_8), MarkerConfig(0.0, 0.4))
        assert min(v for _, v in joint.items()) == pytest.approx(P_MIN_PI_8, abs=1e-12)

    def test_singular_marking_still_raises(self):
        with pytest.raises(SingularMarking):
            quasi_joint_closed_form(PureState(1, 0), MarkerConfig(math.pi / 2, math.pi / 2))

    @given(pure_states(), invertible_configs())
    @settings(max_examples=150)
    def test_pipeline_equals_closed_form(self, state, cfg):
        measured = operational_joint_discrete(state, cfg)
        pipeline = invert_joint_discrete(measured, cfg)
        closed = quasi_joint_closed_form(state, cfg)
        np.testing.assert_allclose(pipeline.table, closed.table, atol=1e-10)
        assert pipeline.kind == "quasi"

    @given(pure_states(), invertible_configs())
    def test_reconstruction_has_exact_marginals(self, state, cfg):
        joint = quasi_joint_closed_form(state, cfg)
        assert marginal_x(joint).p_plus == pytest.approx(
            exact_interference_distribution(state).p_plus, abs=1e-10
        )
        assert marginal_z(joint).p_plus == pytest.approx(
            exact_path_distribution(state).p_plus, abs=1e-10
        )

    def test_full_pipeline_with_marked_basis_state(self):
        cfg = MarkerConfig(math.pi / 4, math.pi / 2)
        state = PureState(1, 0)
        pipeline = invert_joint_discrete(operational_joint_discrete(state, cfg), cfg)
        closed = quasi_joint_closed_form(state, cfg)
        np.testing.assert_allclose(pipeline.table, closed.table, atol=1e-10)
        assert marginal_z(pipeline).p_plus == pytest.approx(1.0, abs=1e-10)

    def test_tilted_state_at_diagonal_config(self):
        state = PureState(COS_PI_8, SIN_PI_8)
        cfg = MarkerConfig(math.pi / 4, math.pi / 4)
        closed = quasi_joint_closed_form(state, cfg)
        pipeline = invert_joint_discrete(operational_joint_discrete(state, cfg), cfg)
        np.testing.assert_allclose(pipeline.table, closed.table, atol=1e-10)
        # delta = (2, 0): entries (1 + 2x<X> + z<Z>)/4 at z=+1 and (1 + z<Z>)/4 at z=-1;
        # direct evaluation shows all four are positive at this particular config
        e = bloch_from_state(state)
        assert closed.value(-1, 1) == pytest.approx(0.25 * (1 - 2 * e.ex + e.ez), abs=1e-12)
        assert min(v for _, v in closed.items()) == pytest.approx(
            0.25 * (1 - 2 * e.ex + e.ez), abs=1e-12
        )

    def test_negativity_at_suitable_general_angles(self):
        # over-rotated marking: delta(1) = 1/cos(theta)^2 at vartheta = pi/4
        # pushes an entry negative for the tilted state
        state = PureState(COS_PI_8, SIN_PI_8)
        cfg = MarkerConfig(1.0, math.pi / 4)
        e = bloch_from_state(state)
        expected = 0.25 * (1.0 - e.ex / math.cos(1.0) ** 2 + e.ez)
        closed = quasi_joint_closed_form(state, cfg)
        assert closed.value(-1, 1) == pytest.approx(expected, abs=1e-12)
        assert closed.value(-1, 1) < 0.0
        pipeline = invert_joint_discrete(operational_joint_discrete(state, cfg), cfg)
        np.testing.assert_allclose(pipeline.table, closed.table, atol=1e-10)

    def test_rejects_quasi_input(self):
        cfg = MarkerConfig(0.6, 1.0)
        quasi = quasi_joint_closed_form(PureState(COS_PI_8, SIN_PI_8), cfg)
        with pytest.raises(ValueError, match="operational"):
            invert_joint_discrete(quasi, cfg)

    def test_limit_continuity_at_tiny_theta(self):
        for vartheta in (0.3, 0.8, 1.2):
            tiny = MarkerConfig(1e-6, vartheta)
            zero = MarkerConfig(0.0, vartheta)
            for state in (PureState(COS_PI_8, SIN_PI_8), PureState(0.6, 0.8)):
                near = quasi_joint_closed_form(state, tiny).table
                limit = quasi_joint_closed_form(state, zero).table
                np.testing.assert_allclose(near, limit, atol=1e-4)

    @pytest.mark.parametrize("theta", [0.4, -0.3])
    def test_marking_shift_by_pi_keeps_the_quasi_joint(self, theta):
        # the fringe flip of the measured joint is undone by the inversion: delta has period pi in theta
        state, vartheta = PureState(0.6, 0.64 + 0.48j), 1.1
        base, shifted = MarkerConfig(theta, vartheta), MarkerConfig(theta + math.pi, vartheta)
        closed = quasi_joint_closed_form(state, base).table
        np.testing.assert_allclose(quasi_joint_closed_form(state, shifted).table, closed, atol=1e-12)
        pipeline = invert_joint_discrete(operational_joint_discrete(state, shifted), shifted)
        np.testing.assert_allclose(pipeline.table, closed, atol=1e-12)
        phase = quasi_joint_phase_closed_form(state, base).table
        np.testing.assert_allclose(quasi_joint_phase_closed_form(state, shifted).table, phase, atol=1e-12)
        phase_pipeline = invert_joint_phase(operational_joint_phase(state, shifted), shifted)
        np.testing.assert_allclose(phase_pipeline.table, phase, atol=1e-12)


class TestMargenauHill:
    """The inferred joint is the Margenau-Hill distribution plus t = tan(theta)/tan(2 vartheta - theta) times
    one context term, against a density-matrix oracle that shares no algebra with the kernels."""

    @staticmethod
    def slices_on(state: PureState, cfg: MarkerConfig, phi: np.ndarray) -> np.ndarray:
        """The phase closed form's slices z = (+1, -1) on ``phi``, one row each."""
        joint = quasi_joint_phase_closed_form(state, cfg)
        return np.array([evaluate_phase_density(joint.for_z(z), phi) for z in (1, -1)])

    @given(pure_states(), any_configs())
    @settings(max_examples=200)
    def test_closed_forms_are_margenau_hill_plus_the_context_term(self, state, cfg):
        # off both singular lines: cos(theta) and sin(2 vartheta - theta) away from 0
        assume(abs(math.cos(cfg.theta)) > 0.05 and abs(math.sin(2.0 * cfg.vartheta - cfg.theta)) > 0.05)
        t, phi = context_parameter(cfg), phase_grid(64)
        discrete = quasi_joint_closed_form(state, cfg).table
        np.testing.assert_allclose(discrete, margenau_hill_discrete(state, t), rtol=0, atol=1e-12)
        np.testing.assert_allclose(self.slices_on(state, cfg, phi), margenau_hill_phase(state, phi, t), rtol=0, atol=1e-12)

    @given(pure_states(), st.floats(0.0, math.pi, exclude_max=True), st.sampled_from((1, 3)))
    @settings(max_examples=200)
    def test_on_the_optimal_analyzer_line_the_closed_forms_are_margenau_hill(self, state, theta, quarters):
        # t = 0 on vartheta = theta/2 + pi/4 (mod pi/2), away from the marking line cos(theta) = 0
        assume(abs(math.cos(theta)) > 0.05)
        cfg, phi = MarkerConfig(theta, theta / 2.0 + quarters * math.pi / 4.0), phase_grid(64)
        np.testing.assert_allclose(quasi_joint_closed_form(state, cfg).table, margenau_hill_discrete(state), rtol=0, atol=1e-12)
        np.testing.assert_allclose(self.slices_on(state, cfg, phi), margenau_hill_phase(state, phi), rtol=0, atol=1e-12)


class TestPhaseKernel:
    """The oracle kernel's algebra, then ``invert_joint_phase``'s phase marginal against it."""

    def test_identity_at_zero_marking(self):
        d = PhaseDensity(1.0 / TWO_PI, 0.1, -0.05)
        out = mu_phi_kernel(0.0).apply(d)
        assert out.c0 == pytest.approx(d.c0, abs=1e-15)
        assert out.c_cos == pytest.approx(d.c_cos, abs=1e-15)
        assert out.c_sin == pytest.approx(d.c_sin, abs=1e-15)

    def test_flat_density_unchanged(self):
        d = PhaseDensity(1.0 / TWO_PI, 0.0, 0.0)
        out = mu_phi_kernel(1.1).apply(d)
        assert out.c0 == pytest.approx(1.0 / TWO_PI, abs=1e-15)
        assert out.amplitude == 0.0

    def test_undoes_the_cos_theta_contraction(self):
        theta = math.pi / 3
        contracted = PhaseDensity(1.0 / TWO_PI, math.cos(theta) / TWO_PI, 0.0)
        out = mu_phi_kernel(theta).apply(contracted)
        assert out.c_cos == pytest.approx(1.0 / TWO_PI, abs=1e-12)

    def test_singular_at_full_marking(self):
        cfg = MarkerConfig(math.pi / 2, 0.8)
        with pytest.raises(SingularMarking):
            invert_joint_phase(operational_joint_phase(PureState(0.6, 0.8), cfg), cfg)

    @given(pure_states(), invertible_configs())
    @settings(max_examples=60)
    def test_recovers_exact_phase_density(self, state, cfg):
        recovered = marginal_phase(invert_joint_phase(operational_joint_phase(state, cfg), cfg))
        exact = exact_phase_distribution(state)
        assert recovered.c0 == pytest.approx(exact.c0, abs=1e-12)
        assert recovered.c_cos == pytest.approx(exact.c_cos, abs=1e-12)
        assert recovered.c_sin == pytest.approx(exact.c_sin, abs=1e-12)

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(5)
        phi = phase_grid(32)
        for _ in range(10):
            state = haar_state(rng)
            cfg = invertible_config(rng)
            joint = operational_joint_phase(state, cfg)
            analytic = marginal_phase(invert_joint_phase(joint, cfg))
            numeric = quadrature_phase_inversion(marginal_phase(joint), cfg.theta, phi)
            np.testing.assert_allclose(
                evaluate_phase_density(analytic, phi), numeric, atol=1e-8
            )

    def test_kernel_preserves_normalization(self):
        d = PhaseDensity(1.0 / TWO_PI, 0.02, 0.03)
        out = mu_phi_kernel(0.9).apply(d)
        assert out.integral == pytest.approx(1.0, abs=1e-12)


class TestInvertJointPhase:
    @given(pure_states(), invertible_configs())
    @settings(max_examples=80)
    def test_pipeline_equals_closed_form(self, state, cfg):
        measured = operational_joint_phase(state, cfg)
        pipeline = invert_joint_phase(measured, cfg)
        closed = quasi_joint_phase_closed_form(state, cfg)
        for z in (1, -1):
            a, b = pipeline.for_z(z), closed.for_z(z)
            assert a.c0 == pytest.approx(b.c0, abs=1e-10)
            assert a.c_cos == pytest.approx(b.c_cos, abs=1e-10)
            assert a.c_sin == pytest.approx(b.c_sin, abs=1e-10)
        assert pipeline.kind == "quasi"

    @given(pure_states(), invertible_configs())
    @settings(max_examples=60)
    def test_reconstruction_has_exact_marginals(self, state, cfg):
        pipeline = invert_joint_phase(operational_joint_phase(state, cfg), cfg)
        exact = exact_phase_distribution(state)
        total = marginal_phase(pipeline)
        assert total.c0 == pytest.approx(exact.c0, abs=1e-10)
        assert total.c_cos == pytest.approx(exact.c_cos, abs=1e-10)
        assert total.c_sin == pytest.approx(exact.c_sin, abs=1e-10)
        assert marginal_z_of_phase(pipeline).p_plus == pytest.approx(
            exact_path_distribution(state).p_plus, abs=1e-10
        )

    def test_circular_state_zero_marking_limit(self):
        # closed-form path at theta = 0: (1 + sin(phi))/(4 pi) in both slices
        state = PureState(SQRT1_2, 1j * SQRT1_2)
        joint = quasi_joint_phase_closed_form(state, MarkerConfig(0.0, 0.7))
        for z in (1, -1):
            d = joint.for_z(z)
            assert d.c0 == pytest.approx(1.0 / (2 * TWO_PI), abs=1e-12)
            assert d.c_cos == pytest.approx(0.0, abs=1e-12)
            assert d.c_sin == pytest.approx(1.0 / (2 * TWO_PI), abs=1e-12)

    def test_marked_basis_state_is_flat_with_z_marginal(self):
        state = PureState(1, 0)
        cfg = MarkerConfig(math.pi / 4, math.pi / 2)
        pipeline = invert_joint_phase(operational_joint_phase(state, cfg), cfg)
        closed = quasi_joint_phase_closed_form(state, cfg)
        assert marginal_z_of_phase(pipeline).p_plus == pytest.approx(1.0, abs=1e-10)
        for z in (1, -1):
            assert pipeline.for_z(z).amplitude == pytest.approx(0.0, abs=1e-10)
            assert pipeline.for_z(z).c0 == pytest.approx(closed.for_z(z).c0, abs=1e-10)

    def test_phase_limit_continuity_at_tiny_theta(self):
        state = PureState(COS_PI_8, SIN_PI_8)
        near = quasi_joint_phase_closed_form(state, MarkerConfig(1e-6, 0.9))
        limit = quasi_joint_phase_closed_form(state, MarkerConfig(0.0, 0.9))
        for z in (1, -1):
            assert near.for_z(z).c0 == pytest.approx(limit.for_z(z).c0, abs=1e-4)
            assert near.for_z(z).c_cos == pytest.approx(limit.for_z(z).c_cos, abs=1e-4)
            assert near.for_z(z).c_sin == pytest.approx(limit.for_z(z).c_sin, abs=1e-4)

    def test_data_path_rejects_zero_marking(self):
        state = PureState(0.6, 0.8)
        cfg = MarkerConfig(0.0, 0.9)
        measured = operational_joint_phase(state, cfg)
        with pytest.raises(SingularAnalyzer):
            invert_joint_phase(measured, cfg)

    def test_rejects_quasi_input(self):
        cfg = MarkerConfig(0.6, 1.0)
        quasi = quasi_joint_phase_closed_form(PureState(0.6, 0.8), cfg)
        with pytest.raises(ValueError, match="operational"):
            invert_joint_phase(quasi, cfg)


class TestNoNonFiniteOutputs:
    def test_near_threshold_is_finite(self):
        # just above the singularity threshold: huge but finite entries
        cfg = MarkerConfig(1e-4, 0.9)
        m = mu_z_matrix(cfg)
        assert np.isfinite(m).all()
        assert np.abs(m).max() > 1e3

    def test_below_threshold_raises_instead_of_nan(self):
        with pytest.raises(SingularAnalyzer):
            mu_z_matrix(MarkerConfig(1e-12, 0.9))
        with pytest.raises(SingularMarking):
            mu_x_matrix(math.pi / 2 + 1e-13)


TILTED = PureState(COS_PI_8, SIN_PI_8)
FULL_MARKING = MarkerConfig(math.pi / 2, 0.8)
NEAR_ANALYZER_LINE = MarkerConfig(0.8, 0.4000000001)  # 2*vartheta - theta is about 2e-10
BOTH_LINES = MarkerConfig(math.pi / 2, math.pi / 4)  # cos(theta) ~ 6e-17 and 2*vartheta - theta = 0


class TestSingularMessages:
    @pytest.mark.parametrize(
        "call, error, name, den, angles",
        [
            (lambda: mu_x_matrix(math.pi / 2), SingularMarking, "cos(theta)", math.cos(math.pi / 2),
             "theta = 1.5707963267948966"),
            (lambda: quasi_joint_closed_form(TILTED, FULL_MARKING), SingularMarking, "cos(theta)",
             math.cos(math.pi / 2), "theta = 1.5707963267948966, vartheta = 0.8"),
            (lambda: invert_joint_phase(operational_joint_phase(TILTED, FULL_MARKING), FULL_MARKING),
             SingularMarking, "cos(theta)", math.cos(math.pi / 2), "theta = 1.5707963267948966, vartheta = 0.8"),
            (lambda: mu_z_matrix(NEAR_ANALYZER_LINE), SingularAnalyzer, "sin(theta)*sin(2*vartheta - theta)",
             math.sin(0.8) * math.sin(2.0 * 0.4000000001 - 0.8), "theta = 0.8, vartheta = 0.4000000001"),
            (lambda: quasi_joint_phase_closed_form(TILTED, NEAR_ANALYZER_LINE), SingularAnalyzer,
             "sin(2*vartheta - theta)", math.sin(2.0 * 0.4000000001 - 0.8), "theta = 0.8, vartheta = 0.4000000001"),
        ],
        ids=["mu_x", "closed-form-marking", "phase-data-marking", "mu_z", "closed-form-analyzer"],
    )
    def test_message_names_denominator_value_angles_and_threshold(self, call, error, name, den, angles):
        with pytest.raises(error) as raised:
            call()
        pattern = re.escape(name) + r" = (\S+) at " + re.escape(angles) + r"; magnitude <= 1\.0e-09 cannot be inverted"
        match = re.fullmatch(pattern, str(raised.value))
        assert match, str(raised.value)
        assert float(match.group(1)) == pytest.approx(den, rel=1e-3)
        assert den != 0.0

    @pytest.mark.parametrize(
        "call",
        [
            lambda: invert_joint_discrete(operational_joint_discrete(TILTED, BOTH_LINES), BOTH_LINES),
            lambda: invert_joint_phase(operational_joint_phase(TILTED, BOTH_LINES), BOTH_LINES),
            lambda: estimate_quasi_joint(ShotCounts(np.full((2, 2), 250)), BOTH_LINES),
            lambda: quasi_joint_closed_form(TILTED, BOTH_LINES),
            lambda: quasi_joint_phase_closed_form(TILTED, BOTH_LINES),
        ],
        ids=["discrete-data", "phase-data", "estimate", "closed-form", "phase-closed-form"],
    )
    def test_marking_is_checked_first_on_every_route(self, call):
        with pytest.raises(SingularMarking, match=re.escape("cos(theta) = ")):
            call()


class TestTwoAnalyzerConditions:
    """The matrix route needs sin(theta)*sin(2*vartheta - theta) away from 0; the closed forms only the second factor."""

    SMALL_THETA = MarkerConfig(1e-10, 0.3)

    def test_closed_forms_and_scan_masks_are_finite(self):
        assert np.isfinite(quasi_joint_closed_form(TILTED, self.SMALL_THETA).table).all()
        phase = quasi_joint_phase_closed_form(TILTED, self.SMALL_THETA)
        assert np.isfinite(phase.table).all()
        delta, marking, analyzer = delta_coefficients(1e-10, 0.3)
        assert np.isfinite(delta).all() and not marking and not analyzer

    def test_matrix_route_raises_singular_analyzer(self):
        measured = operational_joint_discrete(TILTED, self.SMALL_THETA)
        for call in (
            lambda: mu_z_matrix(self.SMALL_THETA),
            lambda: invert_joint_discrete(measured, self.SMALL_THETA),
            lambda: estimate_quasi_joint(ShotCounts(np.full((2, 2), 250)), self.SMALL_THETA),
        ):
            with pytest.raises(SingularAnalyzer, match=re.escape("sin(theta)*sin(2*vartheta - theta)")):
                call()


#: the singular lines that the delta bands straddle, as (axis, value): axis 0 is theta, axis 1 is 2*vartheta - theta
_DELTA_BANDS = {
    "theta=pi/2": (0, math.pi / 2),
    "theta=3pi/2": (0, 3 * math.pi / 2),
    "2vartheta-theta=-pi": (1, -math.pi),
    "2vartheta-theta=0": (1, 0.0),
    "2vartheta-theta=pi": (1, math.pi),
}

#: the largest error of either delta route on each kind's configurations, in ulp(max(1, |delta|)): the measured
#: maximum times 1.25, rounded up to two digits and at least 2 ulps above it; never loosened.  At theta = 0 each
#: entry is x/x, exactly 1.  The bands across 2*vartheta - theta = +-pi lose digits in that float difference before
#: any formula runs: its rounding, up to ulp(pi)/2, against a distance down to 1e-8
DELTA_ULPS = {
    "bulk": 480.0,
    "theta=pi/2": 550.0,
    "theta=3pi/2": 170.0,
    "2vartheta-theta=-pi": 1.9e8,
    "2vartheta-theta=0": 3.8,
    "2vartheta-theta=pi": 1.4e8,
    "theta=0": 0.0,
}


def _lines_near(config: MarkerConfig) -> set[str]:
    """The bands whose singular line lies within 1e-4 of the configuration."""
    axes = (config.theta, 2.0 * config.vartheta - config.theta)
    return {name for name, (axis, line) in _DELTA_BANDS.items() if abs(axes[axis] - line) <= 1e-4}


def _delta_configurations(kind: str) -> list[MarkerConfig]:
    """The fixed configurations of one ``DELTA_ULPS`` kind, from one seed.

    ``bulk`` draws 2000 uniform angles and ``theta=0`` 200 analyzer angles,
    both kept only away from every line.  A band draws 200 configurations 1e-8
    to 1e-4 (log-uniform, either side) off its own line, kept only away from
    the others.
    """
    rng = np.random.default_rng(7)
    n = 2000 if kind == "bulk" else 200
    theta, vartheta = rng.uniform(0.0, TWO_PI, n), rng.uniform(0.0, math.pi, n)
    offset = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-8.0, -4.0, n)
    if kind == "theta=0":
        theta = np.zeros(n)
    elif kind in _DELTA_BANDS:
        axis, line = _DELTA_BANDS[kind]
        if axis == 0:
            theta = line + offset
        else:  # theta where vartheta = (theta + line)/2 lies in [0, pi)
            theta = rng.uniform(max(0.0, -line), min(TWO_PI, TWO_PI - line), n)
            vartheta = (theta + line + offset) / 2.0
    configs = [MarkerConfig(t, v) for t, v in zip(theta.tolist(), vartheta.tolist())]
    return [config for config in configs if _lines_near(config) == {kind} & _DELTA_BANDS.keys()]


class TestDeltaAgainstDecimal:
    """Both delta routes against a 50-digit decimal reference that takes each float64 angle as exact."""

    @pytest.mark.parametrize("kind", DELTA_ULPS)
    def test_ulp_error_is_bounded(self, kind):
        configs = _delta_configurations(kind)
        assert len(configs) >= 150
        grid, marking, analyzer = delta_coefficients([c.theta for c in configs], [c.vartheta for c in configs])
        assert not (marking | analyzer).any()
        worst = {"_config_delta": 0.0, "delta_coefficients": 0.0}
        for config, row in zip(configs, grid):
            reference = delta_reference(config.theta, config.vartheta)
            for route, values in (("_config_delta", _config_delta(config)), ("delta_coefficients", row)):
                worst[route] = max(worst[route], *(ulp_error(float(v), r) for v, r in zip(values, reference)))
        assert max(worst.values()) <= DELTA_ULPS[kind], worst
