"""Canonical CLI invocations shared by the golden-file tests and their regenerator.

Each case pins one subcommand/format combination with fixed seeds; the
stored outputs live in tests/golden/.  ``stdout`` names the file that
freezes the command's stdout, and ``files`` maps a path the command writes
in its working directory to the file that freezes it.  ``LARGE_CASES``
are pinned by their digests in tests/large_outputs.sha256 instead, and
their ``stdout`` is None where only a written file is pinned.
"""

# (1, i)/sqrt(2) and (cos pi/8, sin pi/8) as re,im,re,im literals
CIRCULAR_STATE = "0.7071067811865476,0,0,0.7071067811865476"
TILTED_STATE = "0.9238795325112867,0,0.3826834323650898,0"
PI_3 = "1.0471975511965976"

CASES = [
    {
        "name": "exact_basis",
        "argv": ["exact", "--state", "1,0,0,0", "--phi-points", "4"],
        "stdout": "exact_basis.json",
        "files": {},
    },
    {
        "name": "exact_super_csv",
        "argv": ["exact", "--state", "0.70710678,0,0.70710678,0", "--format", "csv"],
        "stdout": "exact_super.csv",
        "files": {},
    },
    {
        "name": "exact_magphase",
        "argv": [
            "exact",
            "--state",
            "0.9238795325112867,0,0.3826834323650898,90",
            "--state-form",
            "magphase",
            "--phi-points",
            "0",
        ],
        "stdout": "exact_magphase.json",
        "files": {},
    },
    {
        "name": "operational_discrete",
        "argv": [
            "operational",
            "--state",
            TILTED_STATE,
            "--theta",
            "0.6",
            "--vartheta",
            "1.1",
        ],
        "stdout": "operational_discrete.json",
        "files": {},
    },
    {
        "name": "operational_phase",
        "argv": [
            "operational",
            "--state",
            CIRCULAR_STATE,
            "--theta",
            PI_3,
            "--vartheta",
            PI_3,
            "--mode",
            "phase",
            "--phi-points",
            "8",
        ],
        "stdout": "operational_phase.json",
        "files": {},
    },
    {
        "name": "invert_discrete_limit",
        "argv": [
            "invert",
            "--state",
            TILTED_STATE,
            "--theta",
            "0",
            "--vartheta",
            "0.4",
        ],
        "stdout": "invert_discrete_limit.json",
        "files": {},
    },
    {
        "name": "invert_discrete_csv",
        "argv": [
            "invert",
            "--state",
            TILTED_STATE,
            "--theta",
            "0.6",
            "--vartheta",
            "1.1",
            "--format",
            "csv",
        ],
        "stdout": "invert_discrete.csv",
        "files": {},
    },
    {
        "name": "invert_phase",
        "argv": [
            "invert",
            "--state",
            TILTED_STATE,
            "--theta",
            "0.4",
            "--vartheta",
            "1.0",
            "--mode",
            "phase",
            "--phi-points",
            "8",
        ],
        "stdout": "invert_phase.json",
        "files": {},
    },
    {
        "name": "sample_discrete",
        "argv": [
            "sample",
            "--state",
            TILTED_STATE,
            "--theta",
            "0.6",
            "--vartheta",
            "1.1",
            "--n",
            "20000",
            "--seed",
            "42",
            "--shots-out",
            "shots_discrete.csv",
        ],
        "stdout": "sample_discrete.json",
        "files": {"shots_discrete.csv": "sample_discrete_shots.csv"},
    },
    {
        "name": "sample_phase",
        "argv": [
            "sample",
            "--state",
            CIRCULAR_STATE,
            "--theta",
            "0.5",
            "--vartheta",
            "0.8",
            "--mode",
            "phase",
            "--n",
            "500",
            "--seed",
            "7",
            "--shots-out",
            "shots_phase.csv",
        ],
        "stdout": "sample_phase.json",
        "files": {"shots_phase.csv": "sample_phase_shots.csv"},
    },
    {
        "name": "scan_csv",
        "argv": [
            "scan",
            "--state",
            TILTED_STATE,
            "--theta-grid",
            "0:1.4:5",
            "--vartheta-grid",
            "0.35:2.8:4",
            "--format",
            "csv",
        ],
        "stdout": "scan.csv",
        "files": {},
    },
    {
        "name": "scan_json",
        "argv": [
            "scan",
            "--state",
            TILTED_STATE,
            "--theta-grid",
            "0:0.9:3",
            "--vartheta-grid",
            "0.4:1.2:2",
        ],
        "stdout": "scan.json",
        "files": {},
    },
]

# Report shapes that CASES leaves open: the CSV form of every joint and
# estimate table, phase reports without a density grid, and a scan with a
# flagged cell.  Kept apart from CASES, whose argv lists also feed the
# benchmark's ensemble pool.
REPORT_CASES = [
    {
        "name": "operational_discrete_csv",
        "argv": [
            "operational",
            "--state",
            TILTED_STATE,
            "--theta",
            "0.6",
            "--vartheta",
            "1.1",
            "--format",
            "csv",
        ],
        "stdout": "operational_discrete.csv",
        "files": {},
    },
    {
        "name": "operational_phase_csv",
        "argv": [
            "operational",
            "--state",
            CIRCULAR_STATE,
            "--theta",
            "60",
            "--vartheta",
            "60",
            "--degrees",
            "--mode",
            "phase",
            "--format",
            "csv",
        ],
        "stdout": "operational_phase.csv",
        "files": {},
    },
    {
        "name": "operational_phase_no_grid",
        "argv": [
            "operational",
            "--state",
            CIRCULAR_STATE,
            "--theta",
            PI_3,
            "--vartheta",
            PI_3,
            "--mode",
            "phase",
            "--phi-points",
            "0",
        ],
        "stdout": "operational_phase_no_grid.json",
        "files": {},
    },
    {
        "name": "invert_phase_csv",
        "argv": [
            "invert",
            "--state",
            TILTED_STATE,
            "--theta",
            "0.4",
            "--vartheta",
            "1.0",
            "--mode",
            "phase",
            "--format",
            "csv",
        ],
        "stdout": "invert_phase.csv",
        "files": {},
    },
    {
        "name": "invert_phase_no_grid",
        "argv": [
            "invert",
            "--state",
            TILTED_STATE,
            "--theta",
            "0.4",
            "--vartheta",
            "1.0",
            "--mode",
            "phase",
            "--phi-points",
            "0",
        ],
        "stdout": "invert_phase_no_grid.json",
        "files": {},
    },
    {
        "name": "sample_discrete_csv",
        "argv": [
            "sample",
            "--state",
            TILTED_STATE,
            "--theta",
            "0.6",
            "--vartheta",
            "1.1",
            "--n",
            "2000",
            "--seed",
            "5",
            "--format",
            "csv",
        ],
        "stdout": "sample_discrete.csv",
        "files": {},
    },
    {
        "name": "sample_phase_csv",
        "argv": [
            "sample",
            "--state",
            CIRCULAR_STATE,
            "--theta",
            "0.5",
            "--vartheta",
            "0.8",
            "--mode",
            "phase",
            "--n",
            "50",
            "--seed",
            "3",
            "--format",
            "csv",
            "--shots-out",
            "shots_phase.csv",
        ],
        "stdout": "sample_phase.csv",
        "files": {"shots_phase.csv": "sample_phase_csv_shots.csv"},
    },
    {
        "name": "scan_json_flagged",
        "argv": [
            "scan",
            "--state",
            TILTED_STATE,
            "--theta-grid",
            "0:90:3",
            "--vartheta-grid",
            "20:60:2",
            "--degrees",
        ],
        "stdout": "scan_flagged.json",
        "files": {},
    },
]

# Outputs too large to keep as golden files, one each: tests/large_outputs.sha256 pins
# their sha256 digests, in this order, under the name each one is stored as.  Kept
# apart from CASES, like REPORT_CASES.
_LARGE_STATE = ["--state", "0.6,0,0.64,0.48"]
_SCAN_300 = ["scan", *_LARGE_STATE, "--theta-grid", "0:1.5707963267948966:300", "--vartheta-grid", "0:3.1:300"]
# negative angles give both coded columns a sign, and 600 flagged cells miss their min_value
_SCAN_SIGNED = ["scan", *_LARGE_STATE, "--theta-grid=-1.5707963267948966:1.5707963267948966:301", "--vartheta-grid=-3:3:300"]

LARGE_CASES = [
    {
        "name": "shots_1e6",
        "argv": ["sample", *_LARGE_STATE, "--theta", "0.7", "--vartheta", "1.1", "--mode", "phase", "--seed", "5",
                 "--n", "1000000", "--shots-out", "shots.csv"],
        "stdout": None,
        "files": {"shots.csv": "shots-1e6.csv"},
    },
    {"name": "scan_300x300_csv", "argv": [*_SCAN_300, "--format", "csv"], "stdout": "scan-300x300.csv", "files": {}},
    {"name": "scan_300x300_json", "argv": [*_SCAN_300, "--format", "json"], "stdout": "scan-300x300.json", "files": {}},
    {
        # a phase report whose grid's array boundaries fall inside layout blocks
        "name": "phase_1e5",
        "argv": ["invert", *_LARGE_STATE, "--theta", "0.7", "--vartheta", "1.1", "--mode", "phase",
                 "--phi-points", "100000"],
        "stdout": "phase-1e5.json",
        "files": {},
    },
    {"name": "scan_signed_csv", "argv": [*_SCAN_SIGNED, "--format", "csv"], "stdout": "scan-signed.csv", "files": {}},
    {"name": "scan_signed_json", "argv": [*_SCAN_SIGNED, "--format", "json"], "stdout": "scan-signed.json", "files": {}},
]
