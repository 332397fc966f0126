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
gamma over a (theta, vartheta) grid.
"""

from __future__ import annotations

import functools
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from quasijoint import (
    DiscreteJoint,
    MarkerConfig,
    PhaseJoint,
    SingularInversion,
    bloch_from_state,
    delta_coefficients,
    gamma_coefficients,
    operational_joint_discrete,
    operational_joint_phase,
    quasi_joint_closed_form,
    quasi_joint_phase_closed_form,
    scan_negativity,
)
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
        delta, marking, analyzer = delta_coefficients(thetas[:, None], varthetas[None, :])
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
