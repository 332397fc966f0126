"""CLI behavior: golden outputs, exit codes, config resolution, reproducibility."""

from __future__ import annotations

import argparse
import itertools
import json
import math
import warnings
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from quasijoint import MarkerConfig, cli, operational_joint_phase, sample_phase
from quasijoint.cli import MAX_PHASE_SHOTS, MAX_PHI_POINTS, MAX_SCAN_CELLS, build_parser, main
from quasijoint.sampling import _CSV_BLOCK
from cli_cases import CASES, REPORT_CASES, TILTED_STATE

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenFiles:
    @pytest.mark.parametrize("case", CASES + REPORT_CASES, ids=lambda c: c["name"])
    def test_byte_identical(self, case, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, case["argv"])
        assert code == 0, err
        assert out == (GOLDEN / case["stdout"]).read_text()
        for produced, stored in case["files"].items():
            assert (tmp_path / produced).read_text() == (GOLDEN / stored).read_text()

    def test_json_outputs_parse_with_full_precision(self, capsys):
        code, out, _ = run_cli(
            capsys, ["invert", "--state", TILTED_STATE, "--theta", "0", "--vartheta", "0.4"]
        )
        assert code == 0
        report = json.loads(out)
        values = {(cell["x"], cell["z"]): cell["value"] for cell in report["result"]["joint"]["values"]}
        assert values[(-1, -1)] == pytest.approx((1 - math.sqrt(2)) / 4, abs=1e-12)
        assert report["result"]["negativity"]["min_value"] == values[(-1, -1)]


class TestParserReuse:
    """``main`` reuses one parser per process; no call leaves a trace on the next."""

    def test_interleaved_reports_stay_byte_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.cfg"
        config.write_text(f"state={TILTED_STATE}\ntheta=0.6\nvartheta=1.1\n")
        golden_config = (GOLDEN / "operational_discrete.json").read_text()
        interludes = itertools.cycle([  # argv, exit code, stdout check
            (["invert", "--state", "1,0,0,0", "--theta", "0.3", "--bogus"], 2, lambda out: out == ""),
            (["sample", "--help"], 0, lambda out: out.startswith("usage: quasijoint sample")),
            (["operational", "--config", str(config)], 0, lambda out: out == golden_config),
        ])
        cases = CASES + REPORT_CASES
        for case in [*cases, *reversed(cases)]:
            code, out, err = run_cli(capsys, case["argv"])
            assert code == 0, err
            assert out == (GOLDEN / case["stdout"]).read_text(), case["name"]
            for produced, stored in case["files"].items():
                assert (tmp_path / produced).read_text() == (GOLDEN / stored).read_text(), case["name"]
            argv, expected_code, check = next(interludes)
            code, out, _ = run_cli(capsys, argv)
            assert code == expected_code, argv
            assert check(out), argv
        assert cli._parser.cache_info().currsize == 1

    def test_help_follows_the_terminal_width_of_each_call(self, capsys, monkeypatch):
        for columns in ("60", "140", "60"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, _ = run_cli(capsys, ["scan", "--help"])
            assert code == 0
            fresh = next(
                a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
            ).choices["scan"]
            assert out == fresh.format_help()
        assert max(map(len, out.splitlines())) <= 60


#: doubles that _format_e16 writes by its per-element fallback, or that sit at its edges
_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 9.999999999999999e-07, 1e-6,
    1.0000000000000002e-06, 99999999999999984.0, 1e17, -1e17, 1e300, 1.7976931348623157e308,
]


@st.composite
def _float_arrays(draw):
    element = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals and zeros
        st.floats(-1e-6, 1e-6, exclude_min=True, exclude_max=True),
        st.floats(1e17, 1e300) | st.floats(-1e300, -1e17),
        st.sampled_from(_EDGE_FLOATS),
    )
    return np.array(draw(st.lists(element, max_size=40)), dtype=np.float64)


class TestJsonFloatArrays:
    """A float64 array renders exactly as its ``tolist()``."""

    @given(_float_arrays(), st.integers(0, 3))
    def test_matches_list_rendering(self, values, level):
        assert cli._render_json_value(values, level) == cli._render_json_value(values.tolist(), level)

    def test_empty_array(self):
        for level in range(4):
            assert cli._render_json_value(np.array([]), level) == "[]"

    def test_only_one_dimensional_float64_arrays(self):
        # np.int64 is no Python int: library values reach reports as Python scalars
        for values in (np.arange(3), np.zeros((2, 2)), np.zeros(3, np.float32), np.int64(3)):
            with pytest.raises(TypeError):
                cli._render_json_value(values, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_element_raises_the_list_message(self, bad):
        for values in ([bad], [0.5, -1e-9, bad, 2.0], [1.0, bad, -bad, math.nan]):
            with pytest.raises(ValueError) as from_list:
                cli._render_json_value(values, 1)
            with pytest.raises(ValueError) as from_array:
                cli._render_json_value(np.array(values), 1)
            assert str(from_array.value) == str(from_list.value)
            assert str(from_array.value) == f"refusing to print non-finite value {bad!r}"


class TestExitCodes:
    def test_unnormalizable_state_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, ["exact", "--state", "1,0,0,1"])
        assert code == 2
        assert "unit norm" in err

    def test_malformed_state_is_validation_error(self, capsys):
        code, _, _ = run_cli(capsys, ["exact", "--state", "1,0,0"])
        assert code == 2

    def test_missing_required_option(self, capsys):
        code, _, err = run_cli(capsys, ["invert", "--state", "1,0,0,0", "--theta", "0.3"])
        assert code == 2
        assert "--vartheta" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, ["exact", "--state", "1,0,0,0", "--bogus"])
        assert code == 2

    def test_singular_marking_names_the_denominator(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["invert", "--state", "1,0,0,0", "--theta", repr(math.pi / 2), "--vartheta", "0.8"],
        )
        assert code == 3
        assert "cos(theta)" in err

    def test_singular_analyzer_names_the_denominator(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["sample", "--state", "1,0,0,0", "--theta", "0.8", "--vartheta", "0.4", "--n", "10"],
        )
        assert code == 3
        assert "sin(" in err

    # every size below is rejected before anything is allocated
    def test_oversized_scan_grid_rejected(self, capsys):
        for theta_grid, vartheta_grid in (
            ("0:1:100000", "0:1:100000"),
            ("0:1:1", f"0:1:{MAX_SCAN_CELLS + 1}"),
        ):
            code, out, err = run_cli(
                capsys,
                ["scan", "--state", "1,0,0,0", "--theta-grid", theta_grid, "--vartheta-grid", vartheta_grid],
            )
            assert code == 2
            assert out == ""
            assert str(MAX_SCAN_CELLS) in err

    def test_oversized_phi_points_rejected(self, capsys):
        too_many = str(MAX_PHI_POINTS + 1)
        for argv in (
            ["exact", "--state", "1,0,0,0", "--phi-points", too_many],
            ["invert", "--state", "1,0,0,0", "--theta", "0.3", "--vartheta", "0.9",
             "--mode", "phase", "--phi-points", too_many],
        ):
            code, out, err = run_cli(capsys, argv)
            assert code == 2
            assert out == ""
            assert str(MAX_PHI_POINTS) in err

    def test_oversized_phase_sample_rejected(self, capsys):
        for n in (MAX_PHASE_SHOTS + 1, 10**12):
            code, out, err = run_cli(
                capsys,
                ["sample", "--state", "1,0,0,0", "--theta", "0.3", "--vartheta", "0.9",
                 "--mode", "phase", "--n", str(n)],
            )
            assert code == 2
            assert out == ""
            assert str(MAX_PHASE_SHOTS) in err

    def test_non_finite_grid_bounds_rejected(self, capsys):
        for theta_grid, vartheta_grid, extra in (
            ("0:inf:3", "0:1:2", []),
            ("nan:1:3", "0:1:2", []),
            ("0:1:3", "-inf:1:2", []),
            ("0:1:3", "0:nan:2", ["--degrees"]),
            ("-1e308:1e308:3", "0:1:2", []),  # finite bounds whose span overflows
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run_cli(  # '=' form: a grid may start with '-'
                    capsys,
                    ["scan", "--state", "1,0,0,0", f"--theta-grid={theta_grid}",
                     f"--vartheta-grid={vartheta_grid}", *extra],
                )
            assert code == 2
            assert out == ""
            assert "finite bounds" in err
            assert repr(theta_grid) in err or repr(vartheta_grid) in err  # names the grid
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_overflowing_inputs_rejected(self, capsys):
        for argv in (
            ["exact", "--state", "1e308,0,1e308,0"],
            ["sample", "--state", "1,0,0,0", "--theta", "0.5", "--vartheta", "1",
             "--n", "100000000000000000000"],
        ):
            code, out, err = run_cli(capsys, argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("option", ["--shots-out", "--output"])
    @pytest.mark.parametrize("mode", ["discrete", "phase"])
    def test_unwritable_path_is_one_error_line(self, capsys, tmp_path, mode, option):
        target = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(
            capsys,
            ["sample", "--state", TILTED_STATE, "--theta", "0.6", "--vartheta", "1.1",
             "--mode", mode, "--n", "1000", option, str(target)],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(target) in err
        assert not target.parent.exists()

    def test_success_is_zero(self, capsys):
        code, _, _ = run_cli(capsys, ["exact", "--state", "1,0,0,0"])
        assert code == 0


class TestReproducibility:
    def test_sample_is_byte_identical_across_runs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = [
            "sample",
            "--state",
            TILTED_STATE,
            "--theta",
            "0.6",
            "--vartheta",
            "1.1",
            "--n",
            "100000",
            "--seed",
            "42",
            "--shots-out",
            "a.csv",
            "--output",
            "report_a.json",
        ]
        assert main(argv) == 0
        argv_again = [arg.replace("a.csv", "b.csv").replace("report_a", "report_b") for arg in argv]
        assert main(argv_again) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        report_a = (tmp_path / "report_a.json").read_text()
        report_b = (tmp_path / "report_b.json").read_text()
        assert report_a.replace("a.csv", "b.csv").replace("report_a", "report_b") == report_b

    def test_phase_shots_file_is_the_library_csv(self, capsys, tmp_path):
        n = 3 * _CSV_BLOCK + 1
        target = tmp_path / "shots.csv"
        code, _, err = run_cli(
            capsys,
            ["sample", "--state", TILTED_STATE, "--theta", "0.6", "--vartheta", "1.1",
             "--mode", "phase", "--n", str(n), "--seed", "11", "--shots-out", str(target)],
        )
        assert code == 0, err
        joint = operational_joint_phase(cli.parse_state(TILTED_STATE, "reim"), MarkerConfig(0.6, 1.1))
        assert target.read_bytes() == sample_phase(joint, n, 11).to_csv().encode("ascii")

    def test_config_echo_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["invert", "--state", TILTED_STATE, "--theta", "0.6", "--vartheta", "1.1"],
        )
        assert code == 0
        config = json.loads(out)["config"]
        argv = [
            "invert",
            "--state",
            ",".join(repr(v) for v in config["state"]),
            "--theta",
            repr(config["theta"]),
            "--vartheta",
            repr(config["vartheta"]),
            "--mode",
            config["mode"],
            "--format",
            config["format"],
            "--phi-points",
            str(config["phi_points"]),
        ]
        code, out_again, _ = run_cli(capsys, argv)
        assert code == 0
        assert out_again == out


class TestOptionResolution:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# angles in radians\n"
            f"state={TILTED_STATE}\n"
            "theta=0.6\n"
            "vartheta=1.1\n"
        )
        code, from_file, _ = run_cli(capsys, ["operational", "--config", str(config)])
        assert code == 0
        code, from_flags, _ = run_cli(
            capsys,
            ["operational", "--state", TILTED_STATE, "--theta", "0.6", "--vartheta", "1.1"],
        )
        assert from_file == from_flags

    def test_flags_override_config_file(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(f"state={TILTED_STATE}\ntheta=0.6\nvartheta=1.1\n")
        code, out, _ = run_cli(
            capsys, ["operational", "--config", str(config), "--theta", "0.9"]
        )
        assert code == 0
        assert json.loads(out)["config"]["theta"] == 0.9

    def test_unknown_config_key_is_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("thetta=0.6\n")
        code, _, err = run_cli(capsys, ["operational", "--config", str(config)])
        assert code == 2
        assert "thetta" in err

    @pytest.mark.parametrize(
        "line, commands",
        [
            ("phi_points=abc", ("exact", "operational", "invert", "sample")),
            ("degrees=maybe", ("operational", "invert", "sample", "scan")),
            ("theta=wide", ("operational", "invert", "sample")),
            ("vartheta=1,2", ("operational", "invert", "sample")),
            ("n=1e3", ("sample",)),
            ("seed=0.5", ("sample",)),
        ],
    )
    def test_unconvertible_config_value_names_its_key(self, capsys, tmp_path, line, commands):
        config = tmp_path / "run.cfg"
        config.write_text(f"state={TILTED_STATE}\n{line}\n")
        key = line.split("=")[0]
        for command in commands:
            code, out, err = run_cli(capsys, [command, "--config", str(config)])
            assert code == 2, command
            assert out == ""
            assert err.startswith(f"error: config key '{key}': "), (command, err)

    def test_degrees_flag(self, capsys):
        code, out_deg, _ = run_cli(
            capsys,
            [
                "operational",
                "--state",
                TILTED_STATE,
                "--theta",
                "45",
                "--vartheta",
                "90",
                "--degrees",
            ],
        )
        assert code == 0
        config = json.loads(out_deg)["config"]
        assert config["theta"] == pytest.approx(math.pi / 4, abs=1e-15)
        assert config["vartheta"] == pytest.approx(math.pi / 2, abs=1e-15)

    def test_magphase_form_matches_reim(self, capsys):
        code, out_mag, _ = run_cli(
            capsys,
            [
                "exact",
                "--state",
                "0.9238795325112867,0,0.3826834323650898,0",
                "--state-form",
                "magphase",
                "--phi-points",
                "0",
            ],
        )
        assert code == 0
        code, out_reim, _ = run_cli(
            capsys, ["exact", "--state", TILTED_STATE, "--phi-points", "0"]
        )
        assert code == 0
        assert out_mag == out_reim

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            ["exact", "--state", "1,0,0,0", "--phi-points", "4", "--output", str(target)],
        )
        assert code == 0
        assert target.read_text() == (GOLDEN / "exact_basis.json").read_text().replace(
            '"output": null', f'"output": "{target}"'
        )


class TestParserSurface:
    """Each subcommand takes exactly these options, in this --help order."""

    COMMON = [
        ("--state", None, None),
        ("--state-form", ("reim", "magphase"), None),
        ("--format", ("json", "csv"), None),
        ("--output", None, None),
        ("--config", None, None),
    ]
    ANGLES = [
        ("--theta", None, float),
        ("--vartheta", None, float),
        ("--degrees", None, "store_true"),
        ("--mode", ("discrete", "phase"), None),
        ("--phi-points", None, int),
    ]
    SURFACE = {
        "exact": COMMON + [("--phi-points", None, int)],
        "operational": COMMON + ANGLES,
        "invert": COMMON + ANGLES,
        "sample": COMMON + ANGLES + [
            ("--n", None, int),
            ("--seed", None, int),
            ("--shots-out", None, None),
        ],
        "scan": COMMON + [
            ("--theta-grid", None, None),
            ("--vartheta-grid", None, None),
            ("--degrees", None, "store_true"),
        ],
    }

    def test_subcommands_take_exactly_these_options(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(self.SURFACE)
        assert [len(options) for options in self.SURFACE.values()] == [6, 10, 10, 13, 8]
        for command, parser in sub.choices.items():
            actions = [a for a in parser._actions if a.option_strings != ["-h", "--help"]]
            surface = [
                (
                    *a.option_strings,
                    a.choices,
                    "store_true" if isinstance(a, argparse._StoreTrueAction) else a.type,
                )
                for a in actions
            ]
            assert surface == self.SURFACE[command], command
            # a flag left out falls through to the config file, then to the built-in default
            assert all(a.default is None for a in actions), command

    def test_built_in_defaults(self, capsys):
        code, out, _ = run_cli(capsys, ["exact", "--state", "1,0,0,0"])
        assert code == 0
        assert json.loads(out)["config"] == {
            "command": "exact",
            "state": [1.0, 0.0, 0.0, 0.0],
            "format": "json",
            "phi_points": 256,
            "output": None,
        }
        code, out, _ = run_cli(
            capsys, ["sample", "--state", "1,0,0,0", "--theta", "0.6", "--vartheta", "1.1", "--n", "10"]
        )
        assert code == 0
        config = json.loads(out)["config"]
        assert (config["mode"], config["seed"], config["shots_out"]) == ("discrete", 0, None)
        code, out, _ = run_cli(
            capsys, ["scan", "--state", "1,0,0,0", "--theta-grid", "0:1:2", "--vartheta-grid", "0.3:1:2"]
        )
        assert code == 0
        assert list(json.loads(out)["config"]) == [
            "command", "state", "theta_grid", "vartheta_grid", "format", "output",
        ]
