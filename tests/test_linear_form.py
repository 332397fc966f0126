"""Every joint builder against its own written-out expression, bit for bit.

The measured and the quasi joints share one linear form in
(1, <X>, <Y>, <Z>), with the coefficients (gamma_0, gamma_X, gamma_Z)/2 or
(1, delta, 1)/4.  The goldens pin the last bit of every entry, and a sum
taken in another order moves it, so each builder is held here to the
expression it is written as, in its order of operations:
  operational discrete  0.5*(g0 + S[:, None]*gx*<X> + S*gz*<Z>)
  quasi discrete        0.25*(1 + x*delta(z)*<X> + z*<Z>), entry by entry
  operational phase     array((g0 + S*gz*<Z>, gx*<X>, gx*<Y>)).T / (2*pi)
  quasi phase           array((1 + S*<Z>, delta*<X>, delta*<Y>)).T / (4*pi)
with S = (+1, -1).  The angles include theta = 0, raw angles outside
[0, pi), and configurations just off both singular lines.  The discrete
kernel is also held, cell by cell, to the operational expression with
gamma over a (theta, vartheta) grid, the one-configuration delta of the
closed forms to the grid's ``delta_coefficients``, and the discrete
estimate's standard errors to the kernel ``np.kron(mu_X, mu_Z)``.
"""

from __future__ import annotations

import functools
import itertools
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from quasijoint import (
    DiscreteJoint,
    MarkerConfig,
    PhaseJoint,
    ShotCounts,
    SingularAnalyzer,
    SingularInversion,
    SingularMarking,
    bloch_from_state,
    delta_coefficients,
    estimate_quasi_joint,
    gamma_coefficients,
    mu_x_matrix,
    mu_z_matrix,
    operational_joint_discrete,
    operational_joint_phase,
    quasi_joint_closed_form,
    quasi_joint_phase_closed_form,
    scan_negativity,
)
from quasijoint.inversion import _config_delta
from quasijoint.marking import _discrete_entries
from helpers import haar_state

TWO_PI = 2.0 * math.pi
OUTCOMES = (1, -1)
S = np.array(OUTCOMES, dtype=float)

haar_states = st.integers(0, 2**32 - 1).map(lambda seed: haar_state(np.random.default_rng(seed)))


@st.composite
def edge_angles(draw) -> tuple[float, float]:
    """Raw (theta, vartheta): anywhere in [-10, 10], at theta = 0, or 2e-9 to 1e-6 off either or both singular lines."""
    kind = draw(st.sampled_from(("any", "zero", "marking", "analyzer", "both")))
    theta = 0.0 if kind == "zero" else draw(st.floats(-10.0, 10.0))
    vartheta = draw(st.floats(-10.0, 10.0))

    def off() -> float:
        return draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(2e-9, 1e-6))

    if kind in ("marking", "both"):  # cos(theta) ~ +-2e-9 .. 1e-6
        theta = math.pi / 2 + draw(st.integers(-3, 3)) * math.pi + off()
    if kind in ("analyzer", "both"):  # sin(2*vartheta - theta) ~ +-2e-9 .. 1e-6
        vartheta = (theta + draw(st.integers(-3, 3)) * math.pi + off()) / 2
    return theta, vartheta


grid_axis = st.lists(edge_angles(), min_size=2, max_size=4)


def assert_same_bits(got: np.ndarray, expected: np.ndarray) -> None:
    assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(expected, dtype=float).view(np.uint64))


def assert_built_as(build, joint_type, table, kind) -> None:
    """``build()`` holds ``table`` bit for bit, or raises the error that ``table`` itself raises."""
    try:
        expected = joint_type(table, kind=kind)
    except ValueError as error:  # just off both singular lines a quasi joint's sum can miss 1
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == str(error)
    else:
        assert_same_bits(build().table, expected.table)


def quasi_entry(delta, e, x: int, k: int):
    return 0.25 * (1.0 + x * delta[..., k] * e.ex + OUTCOMES[k] * e.ez)


class TestExpressionOrder:
    @given(edge_angles(), st.integers(0, 2**32 - 1))
    @settings(max_examples=200)
    def test_estimate_kernel_is_kron(self, angles, seed):
        # the delta-method errors through kron(mu_X, mu_Z), which the estimate builds as a broadcast product
        config = MarkerConfig(*angles)
        counts = ShotCounts(np.random.default_rng(seed).integers(0, 1000, (2, 2)) + np.eye(2, dtype=int))
        try:
            estimate = estimate_quasi_joint(counts, config)
        except (SingularInversion, ValueError):  # singular, or inverted frequencies that do not sum to 1
            return
        p = counts.frequencies().table.ravel()
        kernel = np.kron(mu_x_matrix(config.theta), mu_z_matrix(config))
        cov = (np.diag(p) - np.outer(p, p)) / counts.total
        variances = np.einsum("ai,ij,aj->a", kernel, cov, kernel)
        assert_same_bits(estimate.stderrs, np.sqrt(np.clip(variances, 0.0, None)).reshape(2, 2))

    @given(haar_states, edge_angles())
    @settings(max_examples=300)
    def test_operational_builders(self, state, angles):
        config = MarkerConfig(*angles)
        e = bloch_from_state(state)
        g0, gx, gz = gamma_coefficients(config.theta, config.vartheta)
        discrete = 0.5 * (g0 + S[:, None] * gx * e.ex + S * gz * e.ez)
        assert_same_bits(operational_joint_discrete(state, config).table, discrete)
        phase = np.array((g0 + S * gz * e.ez, gx * e.ex, gx * e.ey)).T / TWO_PI
        assert_same_bits(operational_joint_phase(state, config).table, phase)

    @given(haar_states, edge_angles())
    @settings(max_examples=300)
    def test_quasi_closed_forms(self, state, angles):
        config = MarkerConfig(*angles)
        e = bloch_from_state(state)
        delta, marking, analyzer = delta_coefficients(config.theta, config.vartheta)
        if marking or analyzer:
            for build in (quasi_joint_closed_form, quasi_joint_phase_closed_form):
                with pytest.raises(SingularInversion):
                    build(state, config)
            return
        discrete = [[quasi_entry(delta, e, x, k) for k in (0, 1)] for x in OUTCOMES]
        assert_built_as(lambda: quasi_joint_closed_form(state, config), DiscreteJoint, discrete, "quasi")
        phase = np.array((1.0 + S * e.ez, delta * e.ex, delta * e.ey)).T / (2.0 * TWO_PI)
        assert_built_as(lambda: quasi_joint_phase_closed_form(state, config), PhaseJoint, phase, "quasi")

    @given(haar_states, st.lists(edge_angles(), min_size=1, max_size=5), st.booleans())
    @settings(max_examples=60)
    def test_scan_cell_by_cell(self, state, angles, with_singular):
        thetas = np.array([theta for theta, _ in angles] + [math.pi / 2] * with_singular)
        varthetas = np.array([vartheta for _, vartheta in angles] + [thetas[0] / 2] * with_singular)
        e = bloch_from_state(state)
        # the scan reduces each axis as MarkerConfig reduces one configuration's angles
        reduced_thetas = np.array([MarkerConfig(theta, 0.0).theta for theta in thetas])
        reduced_varthetas = np.array([MarkerConfig(0.0, vartheta).vartheta for vartheta in varthetas])
        delta, marking, analyzer = delta_coefficients(reduced_thetas[:, None], reduced_varthetas[None, :])
        expected = np.empty(delta.shape[:2])
        for i, j in np.ndindex(expected.shape):
            entries = [quasi_entry(delta[i, j], e, x, k) for x in OUTCOMES for k in (0, 1)]
            expected[i, j] = functools.reduce(np.minimum, entries)
        scan = scan_negativity(state, thetas, varthetas)
        assert_same_bits(scan.min_values, expected)
        assert np.array_equal(scan.singular, marking | analyzer)
        assert np.array_equal(np.isnan(expected), marking | analyzer)

    @given(haar_states, grid_axis, grid_axis)
    @settings(max_examples=60)
    def test_discrete_kernel_over_a_gamma_grid(self, state, theta_angles, vartheta_angles):
        thetas = np.array([theta for theta, _ in theta_angles])
        varthetas = np.array([vartheta for _, vartheta in vartheta_angles])
        e = bloch_from_state(state)
        gamma = gamma_coefficients(thetas[:, None], varthetas[None, :])
        entries = np.array(list(_discrete_entries(0.5, *gamma, e))).reshape(2, 2, len(thetas), len(varthetas))
        for i, j in np.ndindex(len(thetas), len(varthetas)):
            g0, gx, gz = (g[i, j] for g in gamma)
            assert_same_bits(entries[..., i, j], 0.5 * (g0 + S[:, None] * gx * e.ex + S * gz * e.ez))


#: theta at 0, near it, and at pi/2 and around the marking threshold 1e-9 away from it
_DELTA_THETAS = (0.0, -0.0, 1e-300, 1e-12, 1e-6, 0.7) + tuple(math.pi / 2 + d for d in (-2e-9, -1e-9, 0.0, 5e-10, 1e-9))
#: 2*vartheta - theta at and near 0 and pi, on both sides of the analyzer threshold
_DELTA_OFFSETS = (0.0, 1e-12, -1e-9, 1e-9, 2e-9, -2e-9, 0.3, math.pi, math.pi - 1e-9, math.pi + 1e-9, math.pi + 2e-9)


class TestConfigDelta:
    """The closed forms' one-configuration delta against the grid's ``delta_coefficients``, bit for bit,
    raising exactly where its masks flag."""

    @staticmethod
    def assert_matches_the_grid(theta: float, vartheta: float) -> None:
        config = MarkerConfig(theta, vartheta)
        delta, marking, analyzer = delta_coefficients(config.theta, config.vartheta)
        if marking or analyzer:
            with pytest.raises(SingularMarking if marking else SingularAnalyzer):
                _config_delta(config)
        else:
            assert_same_bits(_config_delta(config), delta)

    @pytest.mark.parametrize("theta, offset", itertools.product(_DELTA_THETAS, _DELTA_OFFSETS))
    def test_edges(self, theta, offset):
        self.assert_matches_the_grid(theta, (theta + offset) / 2)

    def test_edges_reach_every_branch(self):
        # the edge grid reaches both errors, finite values at theta = 0 and finite values elsewhere
        outcomes = set()
        for theta, offset in itertools.product(_DELTA_THETAS, _DELTA_OFFSETS):
            try:
                delta = _config_delta(MarkerConfig(theta, (theta + offset) / 2))
            except SingularInversion as error:
                outcomes.add(type(error))
            else:
                outcomes.add("limit" if theta == 0.0 else "finite")
                assert np.all(np.isfinite(delta))
        assert outcomes == {SingularMarking, SingularAnalyzer, "limit", "finite"}

    @given(edge_angles())
    @settings(max_examples=300)
    def test_any_angles(self, angles):
        self.assert_matches_the_grid(*angles)
