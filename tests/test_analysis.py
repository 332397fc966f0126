"""Negativity quantification: closed-form minima, direct minima, grid scans."""

from __future__ import annotations

import importlib.util
import math
import tracemalloc
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

from quasijoint import (
    QUASI,
    MarkerConfig,
    PhaseDensity,
    PhaseJoint,
    PureState,
    ScanGrid,
    SingularInversion,
    cli,
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
from quasijoint.analysis import _negative_mass
from quasijoint._table import _CSV_BLOCK
from helpers import (
    DiscardingSink,
    any_configs,
    assert_same_text,
    haar_state,
    operational_phase_table_accepted,
    phase_negativity_reference,
    phase_tables,
    pure_states,
    real_amplitude_state,
    scan_csv_reference,
    written_csv,
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

    @given(phase_tables(), pure_states(), any_configs())
    def test_phase_report_matches_the_slice_oracle(self, table, state, cfg):
        joints = [PhaseJoint(table, kind=QUASI), operational_joint_phase(state, cfg)]
        if operational_phase_table_accepted(table):
            joints.append(PhaseJoint(table))
        try:
            joints.append(quasi_joint_phase_closed_form(state, cfg))
        except SingularInversion:
            pass
        for joint in joints:
            report = negativity_of(joint)
            expected = phase_negativity_reference(joint.table)
            assert (report.min_value, report.argmin, report.total_negativity) == expected

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            negativity_of(0.5)


def _load_benchmark_checker():
    """perfbench/checker.py, which shares no code with the package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checker.py"
    spec = importlib.util.spec_from_file_location("perfbench_checker", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _arc_quadrature(c0: float, c_cos: float, c_sin: float, panels: int = 4096) -> float:
    """Negative mass by bisecting for the sign changes, then composite Simpson over the
    negative arc, where the integrand is smooth, summed with math.fsum."""

    def f(phi: float) -> float:
        return c0 + c_cos * math.cos(phi) + c_sin * math.sin(phi)

    low = math.atan2(-c_sin, -c_cos)  # the slice's minimum; its maximum is half a turn away
    if f(low) >= 0.0:
        return 0.0
    if f(low + math.pi) <= 0.0:
        start, stop = low - math.pi, low + math.pi
    else:
        ends = []
        for outward in (-math.pi, math.pi):
            inside, outside = low, low + outward  # f < 0 inside, f > 0 outside
            for _ in range(200):
                middle = 0.5 * (inside + outside)
                if middle in (inside, outside):
                    break
                inside, outside = (middle, outside) if f(middle) < 0.0 else (inside, middle)
            ends.append(inside)
        start, stop = ends
    h = (stop - start) / panels
    weights = [1.0] + [4.0 if i % 2 else 2.0 for i in range(1, panels)] + [1.0]
    return math.fsum(-w * f(start + i * h) for i, w in enumerate(weights)) * h / 3.0


class TestNegativeMass:
    """The closed-form negative mass of a phase slice c0 + c_cos cos(phi) + c_sin sin(phi)."""

    def test_matches_arc_quadrature(self):
        rng = np.random.default_rng(31)
        slices = [(c0, *rng.uniform(-1.0, 1.0, 2)) for c0 in rng.uniform(-0.5, 1.0, 60)]
        slices += [(0.0, 0.3, -0.4), (-0.2, 0.1, 0.05), (0.25, 0.0, 0.0), (0.3, 0.3, 0.0)]
        for c0, c_cos, c_sin in slices:
            mass = _negative_mass(c0, math.hypot(c_cos, c_sin))
            assert mass == pytest.approx(_arc_quadrature(c0, c_cos, c_sin), abs=1e-12), (c0, c_cos, c_sin)

    def test_nonnegative_and_continuous_at_tangency(self):
        eps = 2.0**-52
        for c0 in (0.3, 1.0 / (4.0 * math.pi), 1e-3, 7.0):
            masses = []
            for k in (0, 1, 2, 3, 5, 10, 100, 10**4, 10**6, 10**8, 10**10):
                amplitude = c0 * (1.0 + k * eps)
                mass = _negative_mass(c0, amplitude)
                # t^2 = (A^2 - c0^2)/c0^2 exactly; the series 2 c0 t^3 (1/3 - t^2/5 + t^4/7)
                t2 = float((Fraction(amplitude) ** 2 - Fraction(c0) ** 2) / Fraction(c0) ** 2)
                expected = 2.0 * c0 * t2 * math.sqrt(t2) * (1.0 / 3.0 - t2 / 5.0 + t2 * t2 / 7.0)
                assert mass >= 0.0
                assert mass == pytest.approx(expected, rel=1e-12, abs=0.0), (c0, k)
                masses.append(mass)
            assert masses == sorted(masses)  # grows with the amplitude

    def test_matches_benchmark_checker_away_from_tangency(self):
        checker = _load_benchmark_checker()
        rng = np.random.default_rng(32)
        for _ in range(200):
            c0 = float(rng.uniform(0.0, 0.2))
            c_cos, c_sin = rng.uniform(-0.3, 0.3, 2)
            if math.hypot(c_cos, c_sin) < c0 * (1.0 + 1e-3):
                continue
            mass = _negative_mass(c0, math.hypot(c_cos, c_sin))
            assert mass == pytest.approx(checker.exact_negative_mass(c0, c_cos, c_sin), rel=1e-12, abs=1e-15)

    def test_negativity_of_sums_both_slices(self):
        minus = PhaseDensity(-0.05, 0.02, 0.01)  # negative over the whole period
        plus = PhaseDensity(1.0 / TWO_PI + 0.05, 0.3, -0.1)
        report = negativity_of(PhaseJoint([astuple(plus), astuple(minus)], kind=QUASI))
        plus_mass, minus_mass = (_negative_mass(d.c0, d.amplitude) for d in (plus, minus))
        assert report.total_negativity == plus_mass + minus_mass
        assert minus_mass == pytest.approx(0.05 * TWO_PI, rel=1e-15)
        assert report.total_negativity == pytest.approx(
            _arc_quadrature(plus.c0, plus.c_cos, plus.c_sin) + 0.05 * TWO_PI, abs=1e-12
        )


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
            # theta rows wider than a block, each split in two; theta = pi/2 is flagged
            ([0.3, math.pi / 2, 1.0], np.linspace(-0.7, 3.5, _CSV_BLOCK + 37)),
            # 97 cells a row: 42 rows (4,074 cells) a block, and a short last block
            (np.linspace(0.0, math.pi / 2, 150), np.linspace(0.0, 3.1, 97)),
        ],
        ids=["1x1", "1xN", "Nx1", "flagged-row", "edges", "two-blocks", "split-rows", "uneven-width"],
    )
    def test_csv_matches_per_cell_formatter(self, thetas, varthetas):
        grid = scan_negativity(haar_state(np.random.default_rng(5)), thetas, varthetas)
        text = grid.to_csv()
        assert_same_text(text, scan_csv_reference(grid))
        assert written_csv(grid) == text.encode("ascii")
        assert all(block.count(b"\n") <= _CSV_BLOCK for block in grid.csv_blocks())

    @pytest.mark.parametrize(
        "shape",
        [(1, 2 * _CSV_BLOCK + 5), (3, _CSV_BLOCK + 1), (_CSV_BLOCK + 3, 1), (2, _CSV_BLOCK), (5, _CSV_BLOCK // 2 + 1), (64, 64)],
    )
    def test_no_block_holds_more_than_one_block_of_cells(self, shape):
        rng = np.random.default_rng(shape[1])
        singular = rng.random(shape) < 0.1
        grid = ScanGrid(
            theta_values=rng.uniform(-1.0, 4.0, shape[0]),
            vartheta_values=rng.uniform(-1.0, 4.0, shape[1]),
            min_values=np.where(singular, np.nan, rng.uniform(-0.3, 0.3, shape)),
            singular=singular,
        )
        lines = [block.count(b"\n") for block in grid.csv_blocks()]
        assert lines[0] == 1 and max(lines[1:]) <= _CSV_BLOCK and sum(lines) == singular.size + 1
        assert_same_text(grid.to_csv(), scan_csv_reference(grid))

    def test_csv_of_24_character_fields_inside_blocks(self):
        # a negative value with a three-digit exponent prints 24 characters, one
        # more than a field holds after its separator; its row is written by Python
        rng = np.random.default_rng(8)
        shape = (3, _CSV_BLOCK // 2 + 3)
        singular = np.zeros(shape, bool)
        singular[1, [0, 6, 8]] = True
        min_values = np.where(singular, np.nan, rng.uniform(-0.3, 0.3, shape))
        min_values[0, [100, 101, 2000]] = [-1e-100, -1.7976931348623157e308, -5e-324]
        min_values[2, [7, _CSV_BLOCK // 2]] = [-1e300, 1e-300]
        varthetas = rng.uniform(-1.0, 4.0, shape[1])
        varthetas[[5, 6]] = [-1e-200, -2e-150]
        grid = ScanGrid(np.array([0.1, -1e-100, 0.7]), varthetas, min_values, singular)
        text = grid.to_csv()
        assert_same_text(text, scan_csv_reference(grid))
        assert "-1.0000000000000000e-100,-2.0000000000000000e-150,,1\n" in text
        assert written_csv(grid) == text.encode("ascii")
        # the JSON records of the same cells, through the same writer
        cells = [
            {"theta": theta, "vartheta": vartheta, "min_value": None if flag else value, "flag": int(flag)}
            for theta, flags, values in zip(grid.theta_values.tolist(), singular.tolist(), min_values.tolist())
            for vartheta, flag, value in zip(grid.vartheta_values.tolist(), flags, values)
        ]
        records = "".join(grid.table().json_records(2))
        assert_same_text(records, cli._render_json_value(cells, 2))
        assert '"min_value": -1.0000000000000000e-100,\n' in records

    def test_writing_a_500_by_500_grid_holds_one_block(self):
        grid = scan_negativity(
            PureState(COS_PI_8, SIN_PI_8), np.linspace(0.0, math.pi / 2, 500), np.linspace(0.0, 3.1, 500)
        )
        tracemalloc.start()
        try:
            DiscardingSink().writelines(grid.csv_blocks())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20  # the file is 19 MB

    def test_writing_large_grids_keeps_nothing_between_calls(self):
        # each grid's 50,000 vartheta fields are 1.2 MB of words while it is written
        state = PureState(COS_PI_8, SIN_PI_8)
        tracemalloc.start()
        try:
            for k in range(4):
                grid = scan_negativity(state, [0.3], np.linspace(0.0, 3.0 + 0.01 * k, 50_000))
                DiscardingSink().writelines(grid.csv_blocks())
                del grid
                if not k:
                    held, _ = tracemalloc.get_traced_memory()
            grown = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        assert grown < 2**18

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
