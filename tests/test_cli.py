"""CLI behavior: golden outputs, exit codes, config resolution, reproducibility."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from quasijoint.cli import MAX_PHASE_SHOTS, MAX_PHI_POINTS, MAX_SCAN_CELLS, main
from cli_cases import CASES, TILTED_STATE

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenFiles:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
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
