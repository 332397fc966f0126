#!/usr/bin/env python3
"""Regenerate the CLI golden files in tests/golden/ from tests/cli_cases.py.

Run from anywhere; the outputs are deterministic (fixed seeds, fixed float
formatting), so a regeneration on the same platform must be a no-op unless
the CLI surface intentionally changed.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tests"))

from cli_cases import CASES, REPORT_CASES  # noqa: E402

from quasijoint.cli import main  # noqa: E402


def run() -> None:
    golden = REPO / "tests" / "golden"
    golden.mkdir(parents=True, exist_ok=True)
    for case in CASES + REPORT_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    code = main(case["argv"])
                if code != 0:
                    raise SystemExit(f"case {case['name']} exited with {code}")
                (golden / case["stdout"]).write_text(buffer.getvalue())
                for produced, stored in case["files"].items():
                    (golden / stored).write_text(Path(produced).read_text())
            finally:
                os.chdir(cwd)
        print(f"wrote golden outputs for {case['name']}")


if __name__ == "__main__":
    run()
