"""The package's public surface: every removal or addition to ``__all__`` is deliberate."""

from __future__ import annotations

import quasijoint

PUBLIC_NAMES = [
    "BinaryDistribution",
    "BlochExpectations",
    "DiscreteJoint",
    "EstimatedQuasiJoint",
    "MarkerConfig",
    "NegativityReport",
    "OPERATIONAL",
    "PhaseDensity",
    "PhaseJoint",
    "PhaseShots",
    "PureState",
    "QUASI",
    "SINGULARITY_EPS",
    "ScanGrid",
    "ShotCounts",
    "SingularAnalyzer",
    "SingularInversion",
    "SingularMarking",
    "StateValidationError",
    "analyzer_states",
    "bloch_from_state",
    "born_joint_discrete",
    "born_joint_phase",
    "delta_coefficients",
    "entangled_state",
    "estimate_quasi_joint",
    "evaluate_phase_density",
    "exact_interference_distribution",
    "exact_path_distribution",
    "exact_phase_distribution",
    "gamma_coefficients",
    "harmonic_estimates",
    "invert_joint_discrete",
    "invert_joint_phase",
    "marginal_phase",
    "marginal_x",
    "marginal_z",
    "marginal_z_of_phase",
    "mu_x_matrix",
    "mu_z_matrix",
    "negativity_of",
    "operational_joint_discrete",
    "operational_joint_phase",
    "p_min_discrete",
    "p_min_phase",
    "phase_grid",
    "quasi_joint_closed_form",
    "quasi_joint_phase_closed_form",
    "sample_discrete",
    "sample_phase",
    "scan_negativity",
]


def test_all_lists_exactly_these_names():
    assert sorted(quasijoint.__all__) == PUBLIC_NAMES


def test_every_listed_name_resolves():
    for name in quasijoint.__all__:
        assert getattr(quasijoint, name) is not None, name
