"""Acceptance suite: one test per exit criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; any assertion failure marks the corresponding criterion red.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import pytest

from quasijoint import (
    DiscreteJoint,
    MarkerConfig,
    PureState,
    ShotCounts,
    SingularAnalyzer,
    SingularMarking,
    bloch_from_state,
    born_joint_discrete,
    delta_coefficients,
    estimate_quasi_joint,
    evaluate_phase_density,
    exact_interference_distribution,
    exact_path_distribution,
    exact_phase_distribution,
    gamma_coefficients,
    invert_joint_discrete,
    invert_joint_phase,
    marginal_phase,
    marginal_x,
    marginal_z,
    mu_x_matrix,
    mu_z_matrix,
    operational_joint_discrete,
    operational_joint_phase,
    p_min_discrete,
    p_min_phase,
    phase_grid,
    quasi_joint_closed_form,
    quasi_joint_phase_closed_form,
    sample_discrete,
    scan_negativity,
)
from quasijoint.cli import main
from cli_cases import CASES
from helpers import haar_state, invertible_config, mu_phi_kernel, real_amplitude_state

TWO_PI = 2.0 * math.pi
COS_PI_8 = 0.9238795325112867
SIN_PI_8 = 0.3826834323650898


def _ensemble(seed: int, count: int):
    rng = np.random.default_rng(seed)
    return [(haar_state(rng), invertible_config(rng)) for _ in range(count)]


def test_criterion_01_oracle_equivalence():
    """Closed-form measured joint == Born-rule projection, 1000 cases, 1e-12, < 1 s."""
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        state = haar_state(rng)
        config = MarkerConfig(rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, math.pi))
        closed = operational_joint_discrete(state, config).table
        direct = born_joint_discrete(state, config).table
        worst = max(worst, float(np.abs(closed - direct).max()))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(f"PASS criterion 1: oracle equivalence (worst {worst:.2e}, {elapsed:.2f} s)")


def test_criterion_02_marginal_formulas():
    """Measured marginals reproduce their closed forms, 1e-12, same ensemble size."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        state = haar_state(rng)
        config = MarkerConfig(rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, math.pi))
        e = bloch_from_state(state)
        g0, _, gz = gamma_coefficients(config.theta, config.vartheta)
        joint = operational_joint_discrete(state, config)
        mx, mz = marginal_x(joint), marginal_z(joint)
        for k, x in enumerate((1, -1)):
            expected = 0.5 * (1.0 + x * math.cos(config.theta) * e.ex)
            worst = max(worst, abs((mx.p_plus, mx.p_minus)[k] - expected))
        for k, z in enumerate((1, -1)):
            expected = g0[k] + z * gz[k] * e.ez
            worst = max(worst, abs((mz.p_plus, mz.p_minus)[k] - expected))
    assert worst <= 1e-12
    print(f"PASS criterion 2: marginal formulas (worst {worst:.2e})")


def test_criterion_03_inversion_correctness():
    """Pipeline == closed form (1e-10) and reconstructed marginals are exact (1e-10)."""
    worst_joint = 0.0
    worst_marginal = 0.0
    for state, config in _ensemble(303, 1000):
        measured = operational_joint_discrete(state, config)
        pipeline = invert_joint_discrete(measured, config)
        closed = quasi_joint_closed_form(state, config)
        worst_joint = max(
            worst_joint, float(np.abs(pipeline.table - closed.table).max())
        )
        exact_x = exact_interference_distribution(state)
        exact_z = exact_path_distribution(state)
        worst_marginal = max(
            worst_marginal,
            abs(marginal_x(pipeline).p_plus - exact_x.p_plus),
            abs(marginal_z(pipeline).p_plus - exact_z.p_plus),
        )
    assert worst_joint <= 1e-10
    assert worst_marginal <= 1e-10
    print(
        f"PASS criterion 3: inversion correctness (joint {worst_joint:.2e}, "
        f"marginals {worst_marginal:.2e})"
    )


def test_criterion_04_delta_identity():
    """delta(+1) + delta(-1) = 2 within 1e-12 on a 100x100 non-singular grid."""
    thetas = np.linspace(0.05, math.pi / 2 - 0.05, 100)
    varthetas = np.linspace(0.0, math.pi, 100, endpoint=False)
    worst = 0.0
    checked = 0
    for theta in thetas:
        for vartheta in varthetas:
            if abs(math.sin(2.0 * vartheta - theta)) < 0.05:  # stay off the singular lines
                continue
            config = MarkerConfig(theta, vartheta)
            (d_plus, d_minus), _, _ = delta_coefficients(config.theta, config.vartheta)
            worst = max(worst, abs(d_plus + d_minus - 2.0))
            checked += 1
    assert checked > 9000
    assert worst <= 1e-12
    print(f"PASS criterion 4: delta identity ({checked} cells, worst {worst:.2e})")


def test_criterion_05_negativity_values():
    """Closed-form minima for the tilted state; strict negativity on the <Y>=0 ensemble."""
    tilted = PureState(COS_PI_8, SIN_PI_8)
    assert p_min_discrete(tilted) == pytest.approx((1.0 - math.sqrt(2.0)) / 4.0, abs=1e-12)
    assert p_min_phase(tilted) == pytest.approx(
        (1.0 - math.sqrt(2.0)) / (2.0 * TWO_PI), abs=1e-12
    )
    rng = np.random.default_rng(505)
    tested = 0
    while tested < 1000:
        state = real_amplitude_state(rng)
        ez = bloch_from_state(state).ez
        if not 1e-9 < abs(ez) < 1.0 - 1e-9:
            continue
        assert p_min_discrete(state) < 0.0
        tested += 1
    for _ in range(1000):
        assert p_min_phase(haar_state(rng)) <= 1e-12
    print("PASS criterion 5: negativity values and sign conditions")


def test_criterion_06_continuous_phase_inversion():
    """Phase-marginal inversion: exact recovery (1e-12) and quadrature-kernel oracle (1e-8)."""
    rng = np.random.default_rng(606)
    phi = phase_grid(32)
    quad_grid = np.linspace(0.0, TWO_PI, 129)
    quad_weights = np.full(129, TWO_PI / 128)
    quad_weights[0] = quad_weights[-1] = 0.5 * TWO_PI / 128
    worst_exact = 0.0
    worst_quad = 0.0
    for _ in range(50):
        state = haar_state(rng)
        config = invertible_config(rng)
        joint = operational_joint_phase(state, config)
        measured = marginal_phase(joint)
        recovered = marginal_phase(invert_joint_phase(joint, config))
        exact = exact_phase_distribution(state)
        worst_exact = max(
            worst_exact,
            abs(recovered.c0 - exact.c0),
            abs(recovered.c_cos - exact.c_cos),
            abs(recovered.c_sin - exact.c_sin),
        )
        kernel = mu_phi_kernel(config.theta)
        integrand = kernel.evaluate(phi[:, None], quad_grid[None, :]) * evaluate_phase_density(
            measured, quad_grid
        )
        numeric = integrand @ quad_weights
        worst_quad = max(
            worst_quad, float(np.abs(evaluate_phase_density(recovered, phi) - numeric).max())
        )
    assert worst_exact <= 1e-12
    assert worst_quad <= 1e-8
    print(
        f"PASS criterion 6: phase inversion (exact {worst_exact:.2e}, quadrature {worst_quad:.2e})"
    )


def test_criterion_07_zero_marking_continuity():
    """Closed-form quasi joints at theta = 1e-6 match the limit formulas within 1e-4."""
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        state = haar_state(rng)
        vartheta = rng.uniform(0.1, math.pi / 2 - 0.1)  # keep cot(2*vartheta) moderate
        near = MarkerConfig(1e-6, vartheta)
        e = bloch_from_state(state)
        discrete = quasi_joint_closed_form(state, near)
        for (x, z), value in discrete.items():
            limit = 0.25 * (1.0 + z * e.ez + x * e.ex)
            worst = max(worst, abs(value - limit))
        phase = quasi_joint_phase_closed_form(state, near)
        for z in (1, -1):
            d = phase.for_z(z)
            worst = max(
                worst,
                abs(d.c0 - (1.0 + z * e.ez) / (2.0 * TWO_PI)),
                abs(d.c_cos - e.ex / (2.0 * TWO_PI)),
                abs(d.c_sin - e.ey / (2.0 * TWO_PI)),
            )
    assert worst <= 1e-4
    print(f"PASS criterion 7: theta -> 0 continuity (worst {worst:.2e})")


def test_criterion_08_monte_carlo_convergence():
    """Seeded estimates within 5 SE at N = 1e6; RMS error ~ 1/sqrt(N) within factor 1.5."""
    started = time.perf_counter()
    rng = np.random.default_rng(2026)
    for i in range(20):
        state = haar_state(rng)
        config = invertible_config(rng)
        counts = sample_discrete(operational_joint_discrete(state, config), 10**6, 1000 + i)
        estimate = estimate_quasi_joint(counts, config)
        truth = quasi_joint_closed_form(state, config)
        for (x, z), true_value in truth.items():
            assert abs(estimate.joint.value(x, z) - true_value) < 5.0 * estimate.stderr(x, z)

    state = PureState(COS_PI_8, SIN_PI_8)
    config = MarkerConfig(0.7, 1.1)
    measured = operational_joint_discrete(state, config)
    truth = quasi_joint_closed_form(state, config).table
    normalized = []
    for n in (10**3, 10**4, 10**5, 10**6):
        squared = []
        for seed in range(32):
            estimate = estimate_quasi_joint(sample_discrete(measured, n, 9000 + seed), config)
            squared.append(float(((estimate.joint.table - truth) ** 2).mean()))
        normalized.append(math.sqrt(float(np.mean(squared))) * math.sqrt(n))
    spread = max(normalized) / min(normalized)
    elapsed = time.perf_counter() - started
    assert spread < 1.5
    assert elapsed < 30.0
    print(f"PASS criterion 8: Monte Carlo convergence (spread {spread:.3f}, {elapsed:.1f} s)")


def test_criterion_09_singularity_handling(capsys):
    """Designated errors at the singular lines, finite values elsewhere, CLI exit 3."""
    with pytest.raises(SingularMarking):
        mu_x_matrix(math.pi / 2)
    with pytest.raises(SingularMarking):
        quasi_joint_closed_form(PureState(1, 0), MarkerConfig(math.pi / 2, 0.3))
    with pytest.raises(SingularAnalyzer):
        mu_z_matrix(MarkerConfig(0.0, 0.9))  # no marking
    with pytest.raises(SingularAnalyzer):
        mu_z_matrix(MarkerConfig(0.8, 0.4))  # 2*vartheta = theta

    # near-singular but legal configs stay finite (never NaN/Inf)
    for config in (MarkerConfig(1e-4, 0.9), MarkerConfig(0.8, 0.4 + 1e-4)):
        assert np.isfinite(mu_z_matrix(config)).all()
        joint = invert_joint_discrete(
            operational_joint_discrete(PureState(0.6, 0.8), config), config
        )
        assert np.isfinite(joint.table).all()

    # flagged scan cells carry no value, unflagged ones are finite
    grid = scan_negativity(PureState(0.6, 0.8), [0.8], [0.4, 0.9])
    assert grid.singular[0, 0] and not grid.singular[0, 1]
    assert np.isfinite(grid.min_values[~grid.singular]).all()

    code = main(
        ["invert", "--state", "1,0,0,0", "--theta", repr(math.pi / 2), "--vartheta", "0.8"]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "cos(theta)" in err
    print("PASS criterion 9: singularity handling")


def test_criterion_10_cli_golden_files(capsys, tmp_path, monkeypatch):
    """Canonical invocations reproduce the stored outputs byte-identically."""
    golden_dir = Path(__file__).parent / "golden"
    monkeypatch.chdir(tmp_path)
    for case in CASES:
        code = main(case["argv"])
        out = capsys.readouterr().out
        assert code == 0, case["name"]
        assert out == (golden_dir / case["stdout"]).read_text(), case["name"]
        for produced, stored in case["files"].items():
            assert (tmp_path / produced).read_text() == (golden_dir / stored).read_text()
    print(f"PASS criterion 10: CLI golden files ({len(CASES)} invocations)")
