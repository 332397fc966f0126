"""Negativity quantification: closed-form minima, direct minima, grid scans."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given

from quasijoint import (
    MarkerConfig,
    PureState,
    ScanGrid,
    SingularInversion,
    evaluate_phase_density,
    negativity_of,
    operational_joint_discrete,
    operational_joint_phase,
    p_min_discrete,
    p_min_phase,
    phase_grid,
    quasi_joint_closed_form,
    quasi_joint_phase_closed_form,
    scan_negativity,
)
from quasijoint.sampling import _CSV_BLOCK
from helpers import (
    assert_same_text,
    haar_state,
    pure_states,
    real_amplitude_state,
    scan_csv_reference,
)

TWO_PI = 2.0 * math.pi
SQRT1_2 = 1.0 / math.sqrt(2.0)
COS_PI_8 = 0.9238795325112867
SIN_PI_8 = 0.3826834323650898
P_MIN_PI_8 = -0.10355339059327379  # (1 - sqrt(2))/4
P_MIN_PHASE_PI_8 = -0.0329620679736906  # (1 - sqrt(2))/(4*pi)

# rows theta = 0 and pi/2, +-1e-20, and angles above pi and below 0;
# (theta, vartheta) = (0.8, 0.4) sits on the line 2*vartheta = theta
EDGE_THETAS = [0.0, math.pi / 2, 1e-20, -1e-20, 0.8, 3.5, -0.7, 7.0]
EDGE_VARTHETAS = [0.0, 0.4, math.pi / 2, 1e-20, -1e-20, 3.5, -0.7, 2.9]


class TestPMinDiscrete:
    def test_boundary_states_touch_zero(self):
        assert p_min_discrete(PureState(SQRT1_2, SQRT1_2)) == pytest.approx(0.0, abs=1e-12)
        assert p_min_discrete(PureState(1, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_tilted_state(self):
        assert p_min_discrete(PureState(COS_PI_8, SIN_PI_8)) == pytest.approx(
            P_MIN_PI_8, abs=1e-12
        )

    def test_equals_zero_marking_minimum(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            state = real_amplitude_state(rng)
            joint = quasi_joint_closed_form(state, MarkerConfig(0.0, 0.77))
            assert p_min_discrete(state) == pytest.approx(
                negativity_of(joint).min_value, abs=1e-12
            )

    def test_strictly_negative_off_the_extremes(self):
        rng = np.random.default_rng(99)
        tested = 0
        while tested < 1000:
            state = real_amplitude_state(rng)
            ez = abs(state.alpha) ** 2 - abs(state.beta) ** 2
            if not 1e-6 < abs(ez) < 1 - 1e-6:
                continue
            assert p_min_discrete(state) < 0.0
            tested += 1


class TestPMinPhase:
    def test_boundary_states_touch_zero(self):
        assert p_min_phase(PureState(SQRT1_2, 1j * SQRT1_2)) == pytest.approx(0.0, abs=1e-12)
        assert p_min_phase(PureState(1, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_tilted_state(self):
        assert p_min_phase(PureState(COS_PI_8, SIN_PI_8)) == pytest.approx(
            P_MIN_PHASE_PI_8, abs=1e-12
        )

    @given(pure_states())
    def test_never_positive(self, state):
        assert p_min_phase(state) <= 1e-12

    @given(pure_states())
    def test_equals_zero_marking_minimum(self, state):
        joint = quasi_joint_phase_closed_form(state, MarkerConfig(0.0, 0.4))
        assert p_min_phase(state) == pytest.approx(negativity_of(joint).min_value, abs=1e-12)


class TestNegativityOf:
    def test_operational_joint_is_clean(self):
        joint = operational_joint_discrete(PureState(0.6, 0.8), MarkerConfig(0.5, 0.9))
        report = negativity_of(joint)
        assert report.min_value >= -1e-12
        assert report.total_negativity <= 1e-12

    def test_operational_phase_joint_is_clean(self):
        joint = operational_joint_phase(PureState(0.6, 0.8), MarkerConfig(0.5, 0.9))
        report = negativity_of(joint)
        assert report.min_value >= -1e-12
        assert report.total_negativity <= 1e-10

    def test_discrete_quasi_min_and_argmin(self):
        state = PureState(COS_PI_8, SIN_PI_8)
        joint = quasi_joint_closed_form(state, MarkerConfig(0.0, 0.4))
        report = negativity_of(joint)
        assert report.min_value == pytest.approx(P_MIN_PI_8, abs=1e-12)
        assert report.argmin == (-1, -1)  # both <X> and <Z> positive
        assert report.min_value == joint.value(*report.argmin)

    def test_discrete_total_negativity(self):
        state = PureState(COS_PI_8, SIN_PI_8)
        joint = quasi_joint_closed_form(state, MarkerConfig(0.0, 0.4))
        report = negativity_of(joint)
        expected = sum(max(0.0, -v) for _, v in joint.items())
        assert report.total_negativity == pytest.approx(expected, abs=1e-15)
        assert report.total_negativity > 0.0

    def test_phase_slice_minimum_location(self):
        state = PureState(COS_PI_8, SIN_PI_8)
        joint = quasi_joint_phase_closed_form(state, MarkerConfig(0.0, 0.4))
        report = negativity_of(joint)
        assert report.min_value == pytest.approx(P_MIN_PHASE_PI_8, abs=1e-12)
        phi_star, z_star = report.argmin
        assert z_star == -1
        # grid-minimization oracle: the reported argmin beats a dense scan
        grid = phase_grid(4096)
        slice_values = evaluate_phase_density(joint.for_z(z_star), grid)
        assert evaluate_phase_density(joint.for_z(z_star), phi_star) <= slice_values.min() + 1e-12
        assert report.min_value == pytest.approx(float(slice_values.min()), abs=1e-6)

    def test_phase_total_negativity_against_dense_quadrature(self):
        state = PureState(COS_PI_8, SIN_PI_8)
        joint = quasi_joint_phase_closed_form(state, MarkerConfig(0.0, 0.4))
        report = negativity_of(joint)
        total = 0.0
        grid = np.linspace(0.0, TWO_PI, 1 << 16, endpoint=False)
        for z in (1, -1):
            values = np.clip(-evaluate_phase_density(joint.for_z(z), grid), 0.0, None)
            total += float(values.mean()) * TWO_PI
        assert report.total_negativity == pytest.approx(total, abs=1e-4)
        assert report.total_negativity > 0.0

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            negativity_of(0.5)


class TestScanNegativity:
    def test_limit_cell_approaches_closed_form(self):
        state = PureState(COS_PI_8, SIN_PI_8)
        grid = scan_negativity(state, [0.0, 1e-6, 0.3], [0.4, 0.9])
        assert grid.min_values[0, 0] == pytest.approx(P_MIN_PI_8, abs=1e-12)
        assert grid.min_values[1, 0] == pytest.approx(P_MIN_PI_8, abs=1e-4)

    def test_basis_state_never_negative(self):
        # <X> = 0 kills the delta term: entries (1 + z)/4 >= 0 in every cell
        state = PureState(1, 0)
        grid = scan_negativity(state, np.linspace(0.0, 1.4, 8), np.linspace(0.1, 3.0, 9))
        valid = grid.min_values[~grid.singular]
        assert valid.size > 0
        assert np.all(valid >= -1e-12)

    def test_singular_line_is_flagged(self):
        theta = 0.8
        grid = scan_negativity(PureState(0.6, 0.8), [theta], [theta / 2, 0.9])
        assert grid.singular[0, 0]
        assert not grid.singular[0, 1]
        assert math.isnan(grid.min_values[0, 0])
        assert math.isfinite(grid.min_values[0, 1])

    def test_deterministic(self):
        state = PureState(0.6, 0.8)
        thetas = np.linspace(0.0, 1.5, 7)
        varthetas = np.linspace(0.0, 3.1, 7)
        a = scan_negativity(state, thetas, varthetas)
        b = scan_negativity(state, thetas, varthetas)
        np.testing.assert_array_equal(a.singular, b.singular)
        np.testing.assert_array_equal(
            a.min_values[~a.singular], b.min_values[~b.singular]
        )

    def test_matches_per_cell_route_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        for _ in range(8):
            state = haar_state(rng)
            thetas = np.concatenate([EDGE_THETAS, rng.uniform(-1.0, 4.0, 12)])
            varthetas = np.concatenate([EDGE_VARTHETAS, rng.uniform(-1.0, 4.0, 12)])
            grid = scan_negativity(state, thetas, varthetas)
            flags = np.zeros((thetas.size, varthetas.size), dtype=bool)
            values = np.full((thetas.size, varthetas.size), np.nan)
            for i, theta in enumerate(thetas):
                for j, vartheta in enumerate(varthetas):
                    try:
                        joint = quasi_joint_closed_form(state, MarkerConfig(theta, vartheta))
                    except SingularInversion:
                        flags[i, j] = True
                        continue
                    values[i, j] = negativity_of(joint).min_value
            assert flags.any() and not flags.all()
            assert np.array_equal(grid.singular, flags)
            assert np.array_equal(grid.min_values[~flags], values[~flags])
            assert np.isnan(grid.min_values[flags]).all()

    def test_csv_layout(self):
        grid = scan_negativity(PureState(0.6, 0.8), [0.8], [0.4, 0.9])
        lines = grid.to_csv().strip().split("\n")
        assert lines[0] == "theta,vartheta,min_value,flag"
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 4
            if fields[3] == "1":
                assert fields[2] == ""
            else:
                float(fields[2])

    @pytest.mark.parametrize(
        "thetas, varthetas",
        [
            ([0.8], [0.4]),  # 1x1 on the analyzer line 2*vartheta = theta
            ([0.8], EDGE_VARTHETAS),  # 1xN
            (EDGE_THETAS, [0.9]),  # Nx1
            ([math.pi / 2], [0.0, 1.2, 2.9]),  # a fully flagged row
            (EDGE_THETAS, EDGE_VARTHETAS),
            # more cells than one block holds, the block ending inside a row; the
            # last row is theta = pi/2, fully flagged
            (np.linspace(0.0, math.pi / 2, _CSV_BLOCK // 61 + 2), np.linspace(-0.7, 3.5, 61)),
        ],
        ids=["1x1", "1xN", "Nx1", "flagged-row", "edges", "two-blocks"],
    )
    def test_csv_matches_per_cell_formatter(self, thetas, varthetas):
        grid = scan_negativity(haar_state(np.random.default_rng(5)), thetas, varthetas)
        assert_same_text(grid.to_csv(), scan_csv_reference(grid))

    def test_csv_of_signed_zero_and_tiny_minima(self):
        grid = ScanGrid(
            theta_values=np.array([0.1, 2.0]),
            vartheta_values=np.array([0.3, 0.4, 0.5]),
            min_values=np.array([[-0.0, 1e-100, np.nan], [-1e-100, 5e-324, 0.0]]),
            singular=np.array([[False, False, True], [False, False, False]]),
        )
        text = grid.to_csv()
        assert_same_text(text, scan_csv_reference(grid))
        assert "-0.0000000000000000e+00,0\n" in text
