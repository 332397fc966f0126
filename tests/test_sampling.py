"""Seeded shot sampling: determinism, distributional checks, error propagation."""

from __future__ import annotations

import cmath
import math
import tracemalloc
from decimal import Decimal

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from quasijoint import (
    DiscreteJoint,
    EstimatedQuasiJoint,
    MarkerConfig,
    PhaseShots,
    PureState,
    ShotCounts,
    estimate_quasi_joint,
    harmonic_estimates,
    operational_joint_discrete,
    operational_joint_phase,
    quasi_joint_closed_form,
    sample_discrete,
    sample_phase,
)
from quasijoint._table import _CSV_BLOCK, _E16_WORDS, _format_e16
from quasijoint.sampling import _SAMPLE_BLOCK, _asin, _phase_blocks, _phase_pass, _wrap_phase
from helpers import (
    DiscardingSink,
    assert_same_text,
    haar_state,
    invertible_config,
    phase_shots_csv_reference,
    written_csv,
)

TWO_PI = 2.0 * math.pi
SQRT1_2 = 1.0 / math.sqrt(2.0)
COS_PI_8 = 0.9238795325112867
SIN_PI_8 = 0.3826834323650898
EDGE_PHIS = [0.0, float(np.nextafter(TWO_PI, 0.0)), 5e-324, 1e-300, math.pi]


#: asymptotic two-sided KS critical value at the 0.1% level, sqrt(ln(2/0.001)/2)
KS_CRITICAL_0_1_PERCENT = 1.9495


def ks_statistic(phis: np.ndarray, cdf) -> float:
    """Two-sided KS distance of the phases' empirical CDF from ``cdf`` on [0, 2*pi)."""
    phis = np.sort(phis)
    n = phis.size
    theo = cdf(phis)
    hi = np.abs(np.arange(1, n + 1) / n - theo).max()
    lo = np.abs(np.arange(0, n) / n - theo).max()
    return max(hi, lo)


def slice_cdf(density):
    """Exact CDF on [0, 2*pi) of the normalized slice c0 + c_cos cos(phi) + c_sin sin(phi)."""
    c0, c_cos, c_sin = density.c0, density.c_cos, density.c_sin
    return lambda phi: (c0 * phi + c_cos * np.sin(phi) + c_sin * (1.0 - np.cos(phi))) / (TWO_PI * c0)


class TestSampleDiscrete:
    def test_point_mass(self):
        joint = DiscreteJoint([[1.0, 0.0], [0.0, 0.0]])
        counts = sample_discrete(joint, 5000, 42)
        assert counts.count(1, 1) == 5000
        assert counts.total == 5000

    def test_uniform_frequencies_converge(self):
        uniform = DiscreteJoint(np.full((2, 2), 0.25))
        counts = sample_discrete(uniform, 10**6, 123)
        se = math.sqrt(0.25 * 0.75 / 10**6)  # multinomial standard error ~4.3e-4
        for (x, z), freq in counts.frequencies().items():
            assert abs(freq - 0.25) < 5 * se

    def test_deterministic_replay(self):
        joint = operational_joint_discrete(PureState(0.6, 0.8), MarkerConfig(0.7, 1.1))
        first = sample_discrete(joint, 10**5, 99)
        second = sample_discrete(joint, 10**5, 99)
        assert np.array_equal(first.counts, second.counts)
        different = sample_discrete(joint, 10**5, 100)
        assert not np.array_equal(different.counts, first.counts)

    def test_rejects_quasi_joints(self):
        quasi = DiscreteJoint([[0.6, 0.6], [-0.1, -0.1]], kind="quasi")
        with pytest.raises(ValueError, match="quasi"):
            sample_discrete(quasi, 100, 0)

    def test_rejects_empty_draws(self):
        with pytest.raises(ValueError):
            sample_discrete(DiscreteJoint([[1.0, 0.0], [0.0, 0.0]]), 0, 0)

    def test_counts_validation(self):
        for bad in ([[1, 1], [1, -1]], [[1.5, 1], [1, 1]], [1, 1, 1, 1], [[[1, 1], [1, 1]]]):
            with pytest.raises(ValueError):
                ShotCounts(bad)
        source = np.array([[3, 2], [1, 0]])
        counts = ShotCounts(source)
        source[0, 0] = 99
        assert [counts.count(x, z) for x in (1, -1) for z in (1, -1)] == [3, 2, 1, 0]
        with pytest.raises(ValueError):
            counts.counts[0, 0] = 0
        assert type(counts.count(1, 1)) is int and type(counts.total) is int
        assert counts.total == 6

    @pytest.mark.parametrize(
        "bad",
        [[[2**70, 0], [0, 0]], [[-(2**70), 0], [0, 0]], [[math.inf, 0], [0, 0]],
         np.array([[1e30, 0.0], [0.0, 0.0]]), np.array([[math.nan, 0.0], [0.0, 0.0]])],
        ids=["above-int64", "below-int64", "inf", "huge-float-array", "nan-array"],
    )
    def test_counts_beyond_int64_are_rejected_like_other_bad_counts(self, bad):
        with pytest.raises(ValueError, match="counts must be nonnegative integers"):
            ShotCounts(bad)


class TestSamplePhase:
    def test_flat_slices_are_uniform(self):
        # basis state: no coherence, both slices flat
        joint = operational_joint_phase(PureState(1, 0), MarkerConfig(0.3, 0.2))
        shots = sample_phase(joint, 10**5, 7)
        for z in (1, -1):
            phis = shots.phi[shots.z == z]
            assert ks_statistic(phis, lambda phi: phi / TWO_PI) < 1.628 / math.sqrt(phis.size)  # 1% level

    def test_full_fringe_harmonic(self):
        # slice z=+1 has c_cos = c0: density proportional to 1 + cos(phi)
        joint = operational_joint_phase(PureState(SQRT1_2, SQRT1_2), MarkerConfig(0.0, 0.0))
        shots = sample_phase(joint, 10**5, 11)
        phis = shots.phi[shots.z == 1]
        assert phis.size == 10**5  # the z=-1 slice carries no weight
        estimator = 2.0 * float(np.mean(np.cos(phis)))
        assert abs(estimator - 1.0) < 3.0 / math.sqrt(phis.size)  # var(2cos) = 1 here

    def test_deterministic_replay(self):
        joint = operational_joint_phase(PureState(0.6, 0.8), MarkerConfig(0.5, 0.9))
        first = sample_phase(joint, 2000, 4)
        second = sample_phase(joint, 2000, 4)
        np.testing.assert_array_equal(first.phi, second.phi)
        np.testing.assert_array_equal(first.z, second.z)

    def test_phases_in_canonical_range(self):
        joint = operational_joint_phase(PureState(0.6, 0.8), MarkerConfig(0.5, 0.9))
        shots = sample_phase(joint, 5000, 21)
        assert shots.phi.min() >= 0.0
        assert shots.phi.max() < TWO_PI

    def test_slice_weights_match(self):
        state = PureState(0.6, 0.8)
        cfg = MarkerConfig(0.9, 0.4)
        joint = operational_joint_phase(state, cfg)
        shots = sample_phase(joint, 10**5, 17)
        w_plus = joint.for_z(1).integral
        se = math.sqrt(w_plus * (1 - w_plus) / 10**5)
        assert abs(np.count_nonzero(shots.z == 1) / 10**5 - w_plus) < 5 * se

    def test_rejects_quasi_joints(self):
        state = PureState(COS_PI_8, SIN_PI_8)
        cfg = MarkerConfig(0.7, 1.1)
        from quasijoint import quasi_joint_phase_closed_form

        with pytest.raises(ValueError, match="quasi"):
            sample_phase(quasi_joint_phase_closed_form(state, cfg), 100, 0)

    def test_csv_export(self):
        joint = operational_joint_phase(PureState(1, 0), MarkerConfig(0.0, 0.0))
        shots = sample_phase(joint, 3, 1)
        lines = shots.to_csv().strip().split("\n")
        assert lines[0] == "phi,z"
        assert len(lines) == 4
        for line in lines[1:]:
            phi_text, z_text = line.split(",")
            assert 0.0 <= float(phi_text) < TWO_PI
            assert int(z_text) in (1, -1)


# every slice with weight in these joints is drawn and KS-tested against its exact CDF
KS_JOINTS = {
    "flat": (PureState(1, 0), MarkerConfig(0.3, 0.2)),  # A = 0 in both slices
    "interior": (PureState(0.6, 0.64 + 0.48j), MarkerConfig(0.7, 1.1)),  # A/c0 = 0.92 and 0.59
    "tangent": (PureState(SQRT1_2, SQRT1_2), MarkerConfig(0.0, 0.0)),  # A = c0, phi0 = 0
    "tangent-turned": (PureState(SQRT1_2, SQRT1_2 * cmath.exp(2.5j)), MarkerConfig(0.0, 0.0)),
}


class TestPhaseSamplerExactness:
    @pytest.mark.parametrize("seed", [101, 202, 303])
    @pytest.mark.parametrize("name", list(KS_JOINTS))
    def test_slices_pass_ks_against_exact_cdf(self, name, seed):
        joint = operational_joint_phase(*KS_JOINTS[name])
        shots = sample_phase(joint, 10**5, seed)
        tested = 0
        for z in (1, -1):
            density = joint.for_z(z)
            if density.integral < 1e-12:
                assert np.count_nonzero(shots.z == z) == 0
                continue
            phis = shots.phi[shots.z == z]
            assert ks_statistic(phis, slice_cdf(density)) < KS_CRITICAL_0_1_PERCENT / math.sqrt(phis.size)
            tested += 1
        assert tested == (1 if name.startswith("tangent") else 2)

    def test_interior_joint_is_interior(self):
        joint = operational_joint_phase(*KS_JOINTS["interior"])
        for density in map(joint.for_z, (1, -1)):
            assert 0.5 < density.amplitude / density.c0 < 0.95

    @pytest.mark.parametrize("n", [_SAMPLE_BLOCK - 1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1])
    def test_block_edges_replay_and_stay_in_range(self, n):
        joint = operational_joint_phase(*KS_JOINTS["interior"])
        first = sample_phase(joint, n, 8)
        second = sample_phase(joint, n, 8)
        np.testing.assert_array_equal(first.phi, second.phi)
        np.testing.assert_array_equal(first.z, second.z)
        assert first.phi.shape == first.z.shape == (n,)
        assert first.phi.min() >= 0.0 and first.phi.max() < TWO_PI
        assert not np.signbit(first.phi).any()
        assert set(np.unique(first.z).tolist()) == {1, -1}

    def test_blocks_are_drawn_in_sequence(self):
        # the first block's draws do not depend on how many shots follow it
        joint = operational_joint_phase(*KS_JOINTS["interior"])
        one = sample_phase(joint, _SAMPLE_BLOCK, 8)
        more = sample_phase(joint, _SAMPLE_BLOCK + 1, 8)
        np.testing.assert_array_equal(more.phi[:_SAMPLE_BLOCK], one.phi)
        np.testing.assert_array_equal(more.z[:_SAMPLE_BLOCK], one.z)

    def test_fused_pass_memory_is_flat_in_the_shot_count(self):
        # the record alone would be 16 MiB; the pass holds one block's buffers
        joint = operational_joint_phase(*KS_JOINTS["interior"])
        _phase_pass(_phase_blocks(joint, 1, 8), DiscardingSink())  # numpy.random imports lazily
        tracemalloc.start()
        try:
            counts, _ = _phase_pass(_phase_blocks(joint, 1 << 20, 8), DiscardingSink())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts[0] + counts[1] == 1 << 20
        assert peak < 3 * 2**20

    def test_outcomes_follow_the_z_stream_alone(self):
        # z comes from the first spawned stream, one uniform per shot, v < weight of z = +1
        joint = operational_joint_phase(*KS_JOINTS["interior"])
        shots = sample_phase(joint, 5000, 13)
        z_stream = np.random.default_rng(np.random.SeedSequence(13).spawn(2)[0])
        np.testing.assert_array_equal(shots.z, np.where(z_stream.random(5000) < joint.for_z(1).integral, 1, -1))


#: the asin helper's error bound against math.asin, in units of the spacing at math.asin's result
ASIN_ULPS = 3.0


def asin_ulps(y: np.ndarray) -> np.ndarray:
    reference = np.array([math.asin(v) for v in y.tolist()])
    got = _asin(y.copy())
    return np.abs(got - reference) / np.spacing(np.abs(reference))


class TestAsin:
    def test_end_points_and_zeros(self):
        got = _asin(np.array([1.0, -1.0, 0.0, -0.0]))
        assert asin_ulps(np.array([1.0, -1.0])).max() <= 1.0
        assert abs(got[0]) <= math.pi / 2 and got[1] == -got[0]
        assert got[2] == 0.0 and not np.signbit(got[2])
        assert got[3] == 0.0 and np.signbit(got[3])

    def test_subnormals_and_tiny_normals(self):
        tiny = np.concatenate([np.arange(1, 257) * 5e-324, [2.2250738585072014e-308, 1e-300, 1e-200, 1e-20]])
        assert asin_ulps(np.concatenate([tiny, -tiny])).max() <= ASIN_ULPS

    def test_dense_grid(self):
        grid = np.linspace(-1.0, 1.0, 200_001)
        near_one = 1.0 - np.logspace(-16, -1, 20_001)
        assert asin_ulps(np.concatenate([grid, near_one, -near_one])).max() <= ASIN_ULPS

    def test_random_arguments(self):
        y = np.random.default_rng(5).uniform(-1.0, 1.0, 100_000)
        assert asin_ulps(y).max() <= ASIN_ULPS


class TestWrapPhase:
    def test_sums_within_one_ulp_of_zero(self):
        below = float(np.nextafter(0.0, -1.0))
        got = _wrap_phase(np.array([below, -0.0, 0.0, 5e-324, -1e-16, -1e-15]))
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, 5e-324, 0.0, -1e-15 + TWO_PI])
        assert not np.signbit(got).any()

    def test_sums_within_one_ulp_of_two_pi(self):
        below, above = float(np.nextafter(TWO_PI, 0.0)), float(np.nextafter(TWO_PI, 8.0))
        got = _wrap_phase(np.array([below, TWO_PI, above, -TWO_PI, float(np.nextafter(-TWO_PI, 0.0))]))
        np.testing.assert_array_equal(got, [below, 0.0, above - TWO_PI, 0.0, float(np.nextafter(-TWO_PI, 0.0)) + TWO_PI])
        assert not np.signbit(got).any()

    def test_range_over_the_whole_domain(self):
        phi = np.random.default_rng(9).uniform(-TWO_PI, TWO_PI, 10_000)
        got = _wrap_phase(phi.copy())
        assert got.min() >= 0.0 and got.max() < TWO_PI
        np.testing.assert_allclose(np.cos(got), np.cos(phi), atol=1e-14)
        np.testing.assert_allclose(np.sin(got), np.sin(phi), atol=1e-14)


class TestPhaseShotsCsv:
    # many blocks, the last one short by one, full, or holding one or three shots
    @pytest.mark.parametrize(
        "total", [16 * _CSV_BLOCK - 1, 16 * _CSV_BLOCK, 16 * _CSV_BLOCK + 1, 32 * _CSV_BLOCK + 3]
    )
    def test_matches_per_row_formatter(self, total):
        rng = np.random.default_rng(total)
        phi = rng.uniform(0.0, TWO_PI, total)
        phi[: len(EDGE_PHIS)] = EDGE_PHIS
        phi[-len(EDGE_PHIS) :] = EDGE_PHIS[::-1]
        z = np.where(rng.random(total) < 0.5, 1, -1)
        shots = PhaseShots(phi=phi, z=z)
        text = shots.to_csv()
        assert_same_text(text, phase_shots_csv_reference(shots))
        assert written_csv(shots) == text.encode("ascii")

    def test_blocks_hold_at_most_one_block_of_rows(self):
        total = 3 * _CSV_BLOCK + 5
        shots = PhaseShots(phi=np.full(total, 0.5), z=np.ones(total, np.int64))
        lines = [block.count(b"\n") for block in shots.csv_blocks()]
        assert lines == [1, _CSV_BLOCK, _CSV_BLOCK, _CSV_BLOCK, 5]

    @pytest.mark.parametrize("z", [1, -1])
    @pytest.mark.parametrize("phi", EDGE_PHIS)
    def test_single_shot_matches_per_row_formatter(self, phi, z):
        shots = PhaseShots(phi=np.array([phi]), z=np.array([z]))
        text = shots.to_csv()
        assert_same_text(text, phase_shots_csv_reference(shots))
        assert written_csv(shots) == text.encode("ascii")

    # to_csv holds about 10 MB at 2e5 shots; csv_blocks holds one block's buffers
    @pytest.mark.parametrize("total", [1 << 16, 1 << 19])
    def test_writing_holds_one_block_whatever_the_shot_count(self, total):
        rng = np.random.default_rng(total)
        z = np.where(rng.random(total) < 0.5, 1, -1)
        shots = PhaseShots(phi=rng.uniform(0.0, TWO_PI, total), z=z)
        tracemalloc.start()
        try:
            DiscardingSink().writelines(shots.csv_blocks())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300, TWO_PI])
    def test_phase_outside_the_circle_is_rejected(self, bad):
        with pytest.raises(ValueError, match=r"phases must lie in \[0, 2\*pi\)"):
            PhaseShots(phi=np.array([1.0, bad]), z=np.array([1, -1]))

    @pytest.mark.parametrize(
        "bad", [[1.5], [-0.5], [0.5], [1.0 + 2**-52], [0], [2], [-2], [math.nan], [math.inf], [2**70], [1, 1.5], [None]]
    )
    def test_z_other_than_plus_or_minus_one_is_rejected(self, bad):
        # a non-integral z used to be truncated by the int cast and accepted
        with pytest.raises(ValueError, match=r"z records must be \+1 or -1"):
            PhaseShots(phi=np.full(len(bad), 1.0), z=bad)
        with pytest.raises(ValueError, match=r"z records must be \+1 or -1"):
            PhaseShots(phi=np.full(len(bad), 1.0), z=np.array(bad))

    def test_integral_z_of_any_type_is_kept_as_int64(self):
        for z in ([1.0, -1.0], np.array([1, -1], np.int8), [True, -1]):
            shots = PhaseShots(phi=np.array([1.0, 2.0]), z=z)
            assert shots.z.dtype == np.int64 and shots.z.tolist() == [1, -1]

    def test_validation_holds_no_copy_of_the_records(self):
        total = 1 << 20
        phi = np.full(total, 1.0)
        z = np.where(np.random.default_rng(3).random(total) < 0.5, 1, -1)
        tracemalloc.start()
        try:
            shots = PhaseShots(phi=phi, z=z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert shots.phi is phi and shots.z is z
        assert peak < 2**16  # np.abs(z) == 1 held 9 B a shot, 9.4 MB here

    def test_records_must_be_one_dimensional_and_equally_long(self):
        for phi, z in (([1.0, 2.0], [1]), ([1.0], [1, -1]), ([[1.0]], [[1]]), (1.0, 1)):
            with pytest.raises(ValueError, match="phi and z must be 1-D and of equal length"):
                PhaseShots(phi=np.array(phi), z=np.array(z))
        total = PhaseShots(np.array([1.0, 2.0, 3.0]), np.array([1, -1, 1])).total
        assert total == 3 and type(total) is int


#: a word whose bytes are not ASCII, so never one the formatter writes
SENTINEL = np.frombuffer(b"\xa5\xa5\xa5\xa5", np.uint32)[0]


def assert_formats_like_python(values) -> None:
    """``_format_e16`` writes each value's ``f"{v:.16e}"`` after the separator of its column.

    The fields sit between two rows of sentinel words in a wider word-major
    buffer, and the columns' separator bytes cycle through ",", " ", ";" and
    NUL, with sentinel bytes after them.  The formatter must leave the
    sentinel rows and the separators as they are, write the rest of each
    field as its text and NULs, and return exactly the columns whose
    24-character text does not fit after the separator (left all NUL).
    """
    values = np.asarray(values, dtype=float)
    separators = np.resize(np.frombuffer(b", ;\0", np.uint8), values.size)
    words = np.full((_E16_WORDS + 2, values.size), SENTINEL, np.uint32)
    words[1].view(np.uint8).reshape(-1, 4)[:, 0] = separators
    wide = _format_e16(values, words[1:-1])
    assert (words[0] == SENTINEL).all() and (words[-1] == SENTINEL).all()
    texts = [f"{v:.16e}".encode("ascii") for v in values.tolist()]
    assert wide == [i for i, text in enumerate(texts) if len(text) == 4 * _E16_WORDS]
    fields = words[1:-1].T.tobytes()
    width = 4 * _E16_WORDS
    wrong = []
    for i, text in enumerate(texts):
        field = fields[i * width : (i + 1) * width]
        if field[:1] != separators[i : i + 1].tobytes() or field[1:].replace(b"\0", b"") != (
            b"" if i in wide else text
        ):
            wrong.append((values[i], field, text))
    assert not wrong, wrong[:5]


class TestFormatE16:
    @settings(max_examples=300)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1))
    def test_matches_python_on_any_float(self, values):
        assert_formats_like_python(values)

    def test_signed_zeros(self):
        assert_formats_like_python([0.0, -0.0, 0.0, -0.0])

    def test_thousand_ulps_around_every_power_of_ten(self):
        steps = np.arange(-1000, 1001)
        for exponent in range(-7, 18):
            bits = np.float64(float(f"1e{exponent}")).view(np.int64) + steps
            near = bits.view(np.float64)
            assert_formats_like_python(np.concatenate([near, -near]))

    def test_exact_ties_round_half_to_even(self):
        odd = np.random.default_rng(53).integers(2**52, 2**53, 400) | 1  # odd, below 2**53
        # odd * 2**-2 has 16 integer digits and a .25 or .75 tail: 18 digits, the last a 5
        ties = np.ldexp(odd.astype(float), -2)
        assert all(len(Decimal(v).as_tuple().digits) == 18 for v in ties.tolist())
        assert_formats_like_python(np.concatenate([ties, -ties]))
        for shift in range(-72, 4):  # 1e-6 .. 1e17, across the fast path's decades
            assert_formats_like_python(np.ldexp(odd.astype(float), shift))

    def test_python_formatted_values_between_fast_rows(self):
        values = np.random.default_rng(7).uniform(-TWO_PI, TWO_PI, 40)
        edges = [float(np.nextafter(TWO_PI, 0.0)), 5e-324, 1e-300, -1e-300, 9.9e-7, 1e17, -1e300,
                 math.nan, math.inf, -math.inf, 0.0, -0.0]
        values[1::3][: len(edges)] = edges
        assert_formats_like_python(values)

    def test_every_24_character_text_is_returned(self):
        values = [-1e-100, 1e-100, -1e100, 1e100, -5e-324, -1.7976931348623157e308, -1e-99, -9.9e99]
        assert_formats_like_python(values)
        columns = np.zeros((_E16_WORDS, len(values)), np.uint32)
        assert _format_e16(np.array(values), columns) == [0, 2, 4, 5]


class TestEstimateQuasiJoint:
    def test_exact_frequencies_reproduce_closed_form(self):
        # this configuration has dyadic cell probabilities (3/8, 1/8, 3/8, 1/8),
        # so counts can match them exactly and the estimate is pure linear algebra
        state = PureState(1, 0)
        cfg = MarkerConfig(math.pi / 3, math.pi / 2)
        measured = operational_joint_discrete(state, cfg)
        np.testing.assert_allclose(
            measured.table.ravel(), [0.375, 0.125, 0.375, 0.125], atol=1e-15
        )
        counts = ShotCounts([[3000, 1000], [3000, 1000]])
        estimate = estimate_quasi_joint(counts, cfg)
        closed = quasi_joint_closed_form(state, cfg)
        np.testing.assert_allclose(estimate.joint.table, closed.table, atol=1e-10)

    def test_estimates_are_normalized(self):
        rng = np.random.default_rng(31)
        state = haar_state(rng)
        cfg = invertible_config(rng)
        counts = sample_discrete(operational_joint_discrete(state, cfg), 5000, 77)
        estimate = estimate_quasi_joint(counts, cfg)
        total = sum(v for _, v in estimate.joint.items())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_stderrs_are_a_read_only_copy(self):
        cfg = MarkerConfig(0.7, 1.1)
        counts = sample_discrete(operational_joint_discrete(PureState(0.6, 0.8), cfg), 5000, 5)
        estimate = estimate_quasi_joint(counts, cfg)
        assert type(estimate.joint.value(1, -1)) is float and type(estimate.stderr(1, -1)) is float
        with pytest.raises(ValueError):
            estimate.stderrs[0, 1] = 0.0
        source = np.array(estimate.stderrs)
        copied = EstimatedQuasiJoint(estimate.joint, source)
        source[0, 1] = -1.0
        assert copied.stderr(1, -1) == estimate.stderr(1, -1)
        with pytest.raises(ValueError):
            EstimatedQuasiJoint(estimate.joint, [0.1, 0.1, 0.1, 0.1])

    def test_consistency_at_large_n(self):
        rng = np.random.default_rng(2026)
        for i in range(20):
            state = haar_state(rng)
            cfg = invertible_config(rng)
            counts = sample_discrete(operational_joint_discrete(state, cfg), 10**6, 1000 + i)
            estimate = estimate_quasi_joint(counts, cfg)
            truth = quasi_joint_closed_form(state, cfg)
            for (x, z), true_value in truth.items():
                deviation = abs(estimate.joint.value(x, z) - true_value)
                assert deviation < 5 * estimate.stderr(x, z)

    def test_detects_negativity(self):
        # weak marking of the tilted state: the true minimum is ~ -0.10, and at
        # N = 1e6 the propagated error leaves it >3 standard errors below zero
        state = PureState(COS_PI_8, SIN_PI_8)
        cfg = MarkerConfig(0.05, math.pi / 4)
        counts = sample_discrete(operational_joint_discrete(state, cfg), 10**6, 3)
        estimate = estimate_quasi_joint(counts, cfg)
        (x, z), value = min(estimate.joint.items(), key=lambda item: item[1])
        assert value < -3 * estimate.stderr(x, z)

    def test_singular_config_raises(self):
        from quasijoint import SingularMarking

        counts = ShotCounts(np.full((2, 2), 250))
        with pytest.raises(SingularMarking):
            estimate_quasi_joint(counts, MarkerConfig(math.pi / 2, math.pi / 2))

    def test_vanished_sum_raises_before_dividing(self):
        # just off both singular lines the inverted frequencies reach ~1e17 and sum to exactly 0
        cfg = MarkerConfig(1.5707963277948966, 0.7853981632974483)
        counts = sample_discrete(operational_joint_discrete(PureState(0.6, 0.8), cfg), 100, 0)
        with pytest.raises(ValueError, match=r"^inverted joint sums to 0\.0, ") as raised:
            estimate_quasi_joint(counts, cfg)
        assert type(raised.value) is ValueError  # invalid input, not a singular configuration

    def test_rms_error_scales_like_inverse_sqrt_n(self):
        state = PureState(COS_PI_8, SIN_PI_8)
        cfg = MarkerConfig(0.7, 1.1)
        measured = operational_joint_discrete(state, cfg)
        truth = quasi_joint_closed_form(state, cfg).table
        normalized = []
        for n in (10**3, 10**4, 10**5, 10**6):
            squared = []
            for seed in range(32):
                estimate = estimate_quasi_joint(sample_discrete(measured, n, 9000 + seed), cfg)
                squared.append(float(((estimate.joint.table - truth) ** 2).mean()))
            rms = math.sqrt(float(np.mean(squared)))
            normalized.append(rms * math.sqrt(n))
        assert max(normalized) / min(normalized) < 1.5


class TestHarmonicEstimates:
    def test_empty_record_is_rejected(self):
        empty = PhaseShots(phi=np.array([]), z=np.array([], np.int64))
        assert empty.to_csv() == "phi,z\n"
        with pytest.raises(ValueError, match="empty shot record"):
            harmonic_estimates(empty)

    def test_recovers_slice_triples(self):
        state = PureState(SQRT1_2, SQRT1_2)
        joint = operational_joint_phase(state, MarkerConfig(0.0, 0.0))
        estimates = harmonic_estimates(sample_phase(joint, 10**5, 11))
        truth = joint.for_z(1)
        n = 10**5
        c0, c_cos, c_sin = estimates[0]  # the z = +1 row
        assert c0 == pytest.approx(truth.c0, abs=5 / math.sqrt(n))
        assert c_cos == pytest.approx(truth.c_cos, abs=5 / math.sqrt(n))
        assert c_sin == pytest.approx(truth.c_sin, abs=5 / math.sqrt(n))
