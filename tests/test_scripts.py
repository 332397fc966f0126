"""Command-line scripts under scripts/, run in process."""

from __future__ import annotations

import json
import math
import platform
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from quasijoint.cli import MAX_SCAN_CELLS, main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SCAN_SCRIPT = SCRIPTS / "run_negativity_scan.py"
MC_SCRIPT = SCRIPTS / "mc_convergence.py"
AB_SCRIPT = SCRIPTS / "ab_requests.py"
LAYERS_SCRIPT = SCRIPTS / "ab_layers.py"


def run_scan_script(monkeypatch, capsys, *args: str) -> list[str]:
    monkeypatch.setattr(sys, "argv", [str(SCAN_SCRIPT), "--state", "0.6,0,0.8,0", *args])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(SCAN_SCRIPT), run_name="__main__")
    assert stop.value.code == 0
    return capsys.readouterr().out.splitlines()


def test_scan_script_reports_most_negative_cell(monkeypatch, capsys, tmp_path):
    out = tmp_path / "scan.csv"
    lines = run_scan_script(
        monkeypatch, capsys, "--theta-grid", "0:1.4:5", "--vartheta-grid", "0:3.1:7", "--out", str(out)
    )
    assert lines[0] == f"wrote 35 cells to {out} (1 singular)"  # theta = 0, vartheta = 0 lies on the analyzer line
    assert lines[1].startswith("most negative: -")
    assert out.read_text().startswith("theta,vartheta,min_value,flag\n")


def test_scan_script_on_fully_flagged_grid(monkeypatch, capsys, tmp_path):
    out = tmp_path / "scan.csv"
    lines = run_scan_script(
        monkeypatch,
        capsys,
        "--theta-grid",
        "1.5707963267948966:1.5707963267948966:1",
        "--vartheta-grid",
        "0:3.1:3",
        "--out",
        str(out),
    )
    assert lines == [
        f"wrote 3 cells to {out} (3 singular)",
        "most negative: none, every cell is singular (no unflagged cell)",
    ]


def run_failing_script(monkeypatch, capsys, script: Path, *args: str, code: int = 2) -> str:
    """Run a script that must stop with exit ``code`` and one ``error:`` line; return that line."""
    monkeypatch.setattr(sys, "argv", [str(script), *args])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(script), run_name="__main__")
    assert stop.value.code == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    return captured.err.rstrip("\n")


def test_scan_script_rejects_non_finite_grid_bounds(monkeypatch, capsys):
    line = run_failing_script(
        monkeypatch, capsys, SCAN_SCRIPT, "--state", "0.6,0,0.8,0", "--theta-grid", "0:inf:3",
        "--vartheta-grid", "0:1:2",
    )
    assert line == "error: grid '0:inf:3' needs finite bounds"


def test_scan_script_rejects_a_grid_over_the_cli_cell_cap(monkeypatch, capsys, tmp_path):
    out = tmp_path / "scan.csv"
    line = run_failing_script(
        monkeypatch, capsys, SCAN_SCRIPT, "--state", "0.6,0,0.8,0", "--theta-grid", "0:1:600",
        "--vartheta-grid", "0:1:600", "--out", str(out),
    )
    assert line == f"error: scan grid of 600 x 600 cells exceeds {MAX_SCAN_CELLS}"
    assert not out.exists()


def test_scan_script_reports_an_unwritable_out_on_one_line(monkeypatch, capsys, tmp_path):
    out = tmp_path / "missing" / "scan.csv"
    line = run_failing_script(
        monkeypatch, capsys, SCAN_SCRIPT, "--state", "0.6,0,0.8,0", "--theta-grid", "0:1:3",
        "--vartheta-grid", "0:1:2", "--out", str(out),
    )
    assert line.startswith("error: [Errno 2] No such file or directory") and str(out) in line


@pytest.mark.parametrize(
    "state, vartheta_grid, message",
    [
        ("1,0,0", "0:1:2", "error: state needs 4 comma-separated numbers, got 3"),
        ("1,0,0,1", "0:1:2", "error: |alpha|^2 + |beta|^2 = 2.0 is more than"),
        ("nan,0,1,0", "0:1:2", "error: amplitudes must be finite"),
        ("0.6,0,0.8,0", "0:1", "error: grid must be start:stop:num, got '0:1'"),
        ("0.6,0,0.8,0", "0:1:0", "error: grid needs at least one point"),
    ],
    ids=["short-state", "unnormalized-state", "nan-state", "malformed-grid", "empty-grid"],
)
def test_scan_script_reports_invalid_input_on_one_line(
    monkeypatch, capsys, state, vartheta_grid, message
):
    line = run_failing_script(
        monkeypatch, capsys, SCAN_SCRIPT, "--state", state, "--theta-grid", "0:1:3",
        "--vartheta-grid", vartheta_grid,
    )
    assert line.startswith(message)


@pytest.mark.parametrize(
    "state, message",
    [
        ("1,0,0", "error: state needs 4 comma-separated numbers, got 3"),
        ("1,0,0,1", "error: |alpha|^2 + |beta|^2 = 2.0 is more than"),
        ("1,0,x,0", "error: could not convert string to float: 'x'"),
    ],
    ids=["short-state", "unnormalized-state", "non-numeric-state"],
)
def test_mc_convergence_script_reports_invalid_state_on_one_line(monkeypatch, capsys, state, message):
    line = run_failing_script(monkeypatch, capsys, MC_SCRIPT, "--state", state, "--seeds", "1")
    assert line.startswith(message)


@pytest.mark.parametrize(
    "args, message",
    [
        (("--seeds", "0"), "error: --seeds must be >= 1, got 0"),
        (("--seeds", "-3"), "error: --seeds must be >= 1, got -3"),
        (("--shots", "0"), "error: every --shots entry must be >= 1, got '0'"),
        (("--shots", "100,-5,1000"), "error: every --shots entry must be >= 1, got '100,-5,1000'"),
        (("--shots", "100,x"), "error: invalid literal for int() with base 10: 'x'"),
    ],
    ids=["zero-seeds", "negative-seeds", "zero-shots", "negative-shots-entry", "non-integer-shots"],
)
def test_mc_convergence_script_rejects_bad_seeds_and_shots(monkeypatch, capsys, tmp_path, args, message):
    out = tmp_path / "mc.csv"
    line = run_failing_script(monkeypatch, capsys, MC_SCRIPT, *args, "--out", str(out))
    assert line == message
    assert not out.exists()


@pytest.mark.parametrize(
    "args, code, message",
    [
        (("--theta", "nan"), 2, "error: theta must be finite, got nan"),
        (
            ("--shots", "100,100000000000000000000"), 2,
            "error: every --shots entry must be <= 9223372036854775807, got '100,100000000000000000000'",
        ),
        (
            ("--theta", "0"), 3,
            "error: singular configuration: sin(theta)*sin(2*vartheta - theta) = 0.000e+00 at theta = 0.0, "
            "vartheta = 1.1; magnitude <= 1.0e-09 cannot be inverted",
        ),
        (
            ("--theta", "1.5707963267948966"), 3,
            "error: singular configuration: cos(theta) = 6.123e-17 at theta = 1.5707963267948966; "
            "magnitude <= 1.0e-09 cannot be inverted",
        ),
        (
            ("--theta", "1.5707963277948966", "--vartheta", "0.7853981632974483", "--state", "0.6,0,0.8,0"), 2,
            "error: joint sums to 0.0, must be 1",
        ),
    ],
    ids=["nan-theta", "shots-over-int64", "unmarked", "fully-marked", "near-singular"],
)
def test_mc_convergence_script_fails_before_its_first_draw(monkeypatch, capsys, tmp_path, args, code, message):
    out = tmp_path / "mc.csv"
    line = run_failing_script(monkeypatch, capsys, MC_SCRIPT, *args, "--out", str(out), code=code)
    assert line == message
    assert not out.exists()
    if len(args) == 2 and args[0] == "--theta":  # `quasijoint sample` from the script's defaults prints the same line
        defaults = ["--state", "0.9238795325112867,0,0.3826834323650898,0", "--theta", "0.7", "--vartheta", "1.1"]
        assert main(["sample", *defaults, "--n", "100", *args]) == code
        assert capsys.readouterr().err == message + "\n"


def test_mc_convergence_script_writes_its_table(monkeypatch, capsys, tmp_path):
    out = tmp_path / "mc.csv"
    monkeypatch.setattr(
        sys, "argv", [str(MC_SCRIPT), "--seeds", "2", "--shots", "100,1000", "--out", str(out)]
    )
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(MC_SCRIPT), run_name="__main__")
    assert stop.value.code == 0
    printed = capsys.readouterr().out.splitlines()
    assert [int(line.split("rms=")[0][2:]) for line in printed[:2]] == [100, 1000]
    assert printed[2] == f"wrote {out}"
    header, *rows = out.read_text().splitlines()
    assert header == "n,rms,rms_sqrt_n"
    assert [int(row.split(",")[0]) for row in rows] == [100, 1000]
    for row in rows:
        n, rms, scaled = (float(piece) for piece in row.split(","))
        assert 0.0 < rms < 1.0
        assert scaled == pytest.approx(rms * math.sqrt(n), rel=1e-15)


def test_mc_convergence_script_reports_an_unwritable_out_on_one_line(monkeypatch, capsys, tmp_path):
    out = tmp_path / "missing" / "mc.csv"
    monkeypatch.setattr(
        sys, "argv", [str(MC_SCRIPT), "--seeds", "1", "--shots", "100", "--out", str(out)]
    )
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(MC_SCRIPT), run_name="__main__")
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert [line.split("rms=")[0] for line in captured.out.splitlines()] == ["N=      100  "]
    [line] = captured.err.splitlines()
    assert line.startswith("error: [Errno 2] No such file or directory") and str(out) in line


def test_ab_script_replays_requests_on_two_trees(monkeypatch, capsys):
    # the same tree on both sides: every request prints the same report on both
    monkeypatch.chdir(SCRIPTS.parent)
    monkeypatch.setattr(sys, "argv", [str(AB_SCRIPT), "--against", ".", "--seed", "3", "--requests", "6", "--rounds", "2"])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(AB_SCRIPT), run_name="__main__")
    assert stop.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ensemble, seed 3: 6 requests x 2 rounds;")
    labels = [line[:44].rstrip() for line in lines[2:]]
    assert sum(label.startswith("median ") for label in labels) >= 1
    for label in ("pool p50 ms, all samples", "pool p90 ms, all samples", "pool p50 ms, per-request minima",
                  "pool p90 ms, per-request minima"):
        assert label in labels
    assert not any("RSS" in label for label in labels)
    assert lines[-1] == "requests whose stdout differs between the trees: 0 of 6"


def test_ab_script_rejects_a_tree_without_the_package(monkeypatch, capsys, tmp_path):
    line = run_failing_script(monkeypatch, capsys, AB_SCRIPT, "--against", str(tmp_path))
    assert line == f"error: {tmp_path.resolve()} holds no src/quasijoint/cli.py"


def test_ab_layers_script_times_every_layer_on_two_trees(monkeypatch, capsys):
    monkeypatch.chdir(SCRIPTS.parent)
    monkeypatch.setattr(sys, "argv", [str(LAYERS_SCRIPT), "--against", ".", "--rounds", "1"])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(LAYERS_SCRIPT), run_name="__main__")
    assert stop.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("1 rounds, min of 7 repeats per run;")
    rows = {line[:36].rstrip(): line[36:].split() for line in lines[2:]}
    assert list(rows) == [
        "operational_joint_discrete", "operational_joint_phase", "quasi_joint_closed_form",
        "quasi_joint_phase_closed_form", "scan_negativity 100x100", "negativity_of, discrete",
        "negativity_of, phase", "csv_blocks, 100x100 scan", "csv_blocks, 32768 shots",
        "phase grid, evaluate and render", "phase grid, first at its size", "born_joint_discrete",
        "bloch_from_state", "MarkerConfig(0.7, 1.1)", "gamma_coefficients, one config", "_config_delta, one config",
        "delta_coefficients, one config", "mu_x_matrix with mu_z_matrix", "invert_joint_discrete", "estimate_quasi_joint, 1e5 shots",
        "_phase_blocks, 32768 shots", "_phase_pass, 32768 shots", "_phase_pass over 2^17 shots",
        "invert --mode phase request", "pure-Python loop (control)",
    ]
    for this, other, ratio in rows.values():
        assert float(this) > 0.0 and float(other) > 0.0
        # one round: the median of the paired ratios is that round's ratio
        assert float(ratio) == pytest.approx(float(this) / float(other), rel=0.01, abs=0.001)


def test_ab_layers_ratio_is_the_median_of_per_round_ratios(monkeypatch, capsys):
    # rounds of 1 against 1, 5 against 10 and 3 against 1: paired ratios 1, 0.5 and 3, medians 3 against 1
    times = iter([1.0, 1.0, 10.0, 5.0, 3.0, 1.0])  # in run order: this tree goes first in even rounds
    namespace = runpy.run_path(str(LAYERS_SCRIPT))
    monkeypatch.setitem(namespace["main"].__globals__, "run", lambda tree: {"layer": next(times) * 1e-6})
    monkeypatch.setattr(sys, "argv", [str(LAYERS_SCRIPT), "--against", str(SCRIPTS.parent), "--rounds", "3"])
    assert namespace["main"]() == 0
    assert capsys.readouterr().out.splitlines()[2].split() == ["layer", "3.00", "1.00", "1.000"]


def test_ab_layers_json_records_each_row_and_the_host(monkeypatch, capsys, tmp_path):
    # the same three rounds as above: this tree 1, 5, 3 and the other 1, 10, 1 microseconds
    times = iter([1.0, 1.0, 10.0, 5.0, 3.0, 1.0])
    namespace = runpy.run_path(str(LAYERS_SCRIPT))
    monkeypatch.setitem(namespace["main"].__globals__, "run", lambda tree: {"layer": next(times) * 1e-6})
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", [str(LAYERS_SCRIPT), "--against", str(SCRIPTS.parent), "--rounds", "3",
                                      "--json", str(out)])
    assert namespace["main"]() == 0
    record = json.loads(out.read_text())
    assert record["rounds"] == 3 and record["repeats"] == 7
    assert record["nproc"] >= 1 and record["python"] == platform.python_version()
    assert record["numpy"] == np.__version__
    assert set(record["pycache"]) == {"this", "against"} and all(isinstance(v, bool) for v in record["pycache"].values())
    [row] = record["rows"]
    assert row["name"] == "layer" and row["unit"] == "us/call" and row["rounds"] == 3
    # inclusive quartiles: 2 and 4 of (1, 3, 5), 1 and 5.5 of (1, 1, 10)
    assert row["this"] == pytest.approx({"median": 3.0, "min": 1.0, "iqr": 2.0})
    assert row["against"] == pytest.approx({"median": 1.0, "min": 1.0, "iqr": 4.5})
    assert row["paired_ratio"] == pytest.approx(1.0)
    # inclusive quartiles of the paired ratios 1, 0.5 and 3
    assert row["paired_ratio_quartiles"] == pytest.approx([0.75, 2.0])
    assert capsys.readouterr().out.splitlines()[2].split() == ["layer", "3.00", "1.00", "1.000"]


def test_ab_layers_json_of_one_round_has_no_spread(monkeypatch, capsys, tmp_path):
    namespace = runpy.run_path(str(LAYERS_SCRIPT))
    monkeypatch.setitem(namespace["main"].__globals__, "run", lambda tree: {"layer": 2e-6})
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", [str(LAYERS_SCRIPT), "--against", str(SCRIPTS.parent), "--rounds", "1",
                                      "--json", str(out)])
    assert namespace["main"]() == 0
    [row] = json.loads(out.read_text())["rows"]
    assert row["this"] == row["against"] == pytest.approx({"median": 2.0, "min": 2.0, "iqr": 0.0})
    assert row["paired_ratio"] == row["paired_ratio_quartiles"][0] == row["paired_ratio_quartiles"][1] == 1.0


def test_ab_layers_script_rejects_a_json_path_without_its_directory(monkeypatch, capsys, tmp_path):
    out = tmp_path / "missing" / "bench.json"
    line = run_failing_script(monkeypatch, capsys, LAYERS_SCRIPT, "--against", str(SCRIPTS.parent), "--json", str(out))
    assert line == f"error: no directory to write {out} into"


def test_ab_layers_script_rejects_a_tree_without_the_package(monkeypatch, capsys, tmp_path):
    line = run_failing_script(monkeypatch, capsys, LAYERS_SCRIPT, "--against", str(tmp_path))
    assert line == f"error: {tmp_path.resolve()} holds no src/quasijoint/__init__.py"
