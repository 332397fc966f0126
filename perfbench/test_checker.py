"""The benchmark's output checker accepts real outputs and rejects corrupted ones.

Run from the repository root:  python3 -m pytest perfbench/test_checker.py
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checker  # noqa: E402
import workloads  # noqa: E402
from quasijoint import cli  # noqa: E402


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative --shots-out paths land here
    return tmp_path


def run_cli(req: dict) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(req["argv"])
    return code, out.getvalue(), err.getvalue()


def verdict(req, code, stdout, stderr, workdir):
    return checker.check(req, code, stdout, stderr, workdir, {})


def golden(name: str) -> dict:
    return next(case for case in workloads.load_golden_cases(ROOT) if case["name"] == name)


@pytest.mark.parametrize("position", [1, 5, 9])
def test_scan_cell_with_one_altered_digit_fails(workdir, position):
    req = workloads.scan_request(np.random.default_rng(3), index=0, points=12)  # index 0: grid ends at pi/2
    code, out, err = run_cli(req)
    assert verdict(req, code, out, err, workdir) is None
    lines = out.split("\n")
    row = next(i for i, line in enumerate(lines) if line.endswith(",0"))
    theta, vartheta, value, flag = lines[row].split(",")
    at = value.index(".") + position
    value = value[:at] + ("7" if value[at] != "7" else "2") + value[at + 1 :]
    lines[row] = ",".join((theta, vartheta, value, flag))
    assert verdict(req, code, "\n".join(lines), err, workdir) is not None


def test_scan_flags_the_singular_row(workdir):
    req = workloads.scan_request(np.random.default_rng(4), index=0, points=6)
    code, out, err = run_cli(req)
    assert out.count(",,1\n") == 6
    assert verdict(req, code, out.replace(",,1\n", ",0.25,0\n", 1), err, workdir) is not None


def test_shots_file_with_a_dropped_row_fails(workdir):
    req = workloads.shots_request(np.random.default_rng(5), n=3000)
    code, out, err = run_cli(req)
    assert verdict(req, code, out, err, workdir) is None
    path = workdir / workloads.SHOTS_FILE
    lines = path.read_text().split("\n")
    del lines[100]
    path.write_text("\n".join(lines))
    assert verdict(req, code, out, err, workdir) is not None


@pytest.mark.parametrize("name", ["invert_discrete_csv", "sample_phase"])
def test_golden_report_with_one_changed_byte_fails(workdir, name):
    req = golden(name)
    code, out, err = run_cli(req)
    assert verdict(req, code, out, err, workdir) is None
    at = len(out) // 2
    changed = out[:at] + ("0" if out[at] != "0" else "1") + out[at + 1 :]
    assert verdict(req, code, changed, err, workdir) is not None


def test_golden_shots_file_with_one_changed_byte_fails(workdir):
    req = golden("sample_phase")
    code, out, err = run_cli(req)
    path = workdir / "shots_phase.csv"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    assert verdict(req, code, out, err, workdir) is not None


def test_singular_request_that_exits_0_fails(workdir):
    rng = np.random.default_rng(6)
    for _ in range(3):  # both singular lines, and more than one command
        req = workloads.ensemble_request(rng, "singular")
        code, out, err = run_cli(req)
        assert code == 3
        assert verdict(req, code, out, err, workdir) is None
        assert verdict(req, 0, out, err, workdir) is not None


@pytest.mark.parametrize("kind", list(workloads.ENSEMBLE_MIX))
def test_every_ensemble_kind_passes_when_untouched(workdir, kind):
    req = workloads.ensemble_request(np.random.default_rng(7), kind)
    code, out, err = run_cli(req)
    assert verdict(req, code, out, err, workdir) is None
