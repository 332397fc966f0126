"""Command-line scripts under scripts/, run in process."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

SCAN_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_negativity_scan.py"


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
    assert lines[0] == f"wrote 35 cells to {out} (0 singular)"
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
