#!/usr/bin/env python3
"""Regenerate the CLI golden files in tests/golden/ from tests/cli_cases.py.

Run from anywhere; the outputs are deterministic (fixed seeds, fixed float
formatting), so a regeneration on the same platform must be a no-op unless
the CLI surface intentionally changed.  Nor do they depend on which SIMD code
paths numpy dispatches to on the CPU: CI regenerates them a second time with
numpy's AVX-512 paths disabled (``NPY_DISABLE_CPU_FEATURES``) and requires
the same bytes.  The C library's ``cos``, ``sin`` and ``atan2`` can move last
bits: glibc's FMA variants and its plain ones differ on about 7 in 10,000
values.  CI regenerates the goldens a third time with those variants off
(``GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4``) and requires the same
bytes, but the larger outputs pinned in tests/large_outputs.sha256 do change
there: their digests are glibc's FMA path.  The golden phase samples draw 50
and 500 shots, inside the sampler's first 2^14-shot chunk; the chunk size
fixes the bits of longer records, such as the pinned 10^6-shot export.
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
                stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")  # main writes to its buffer
                with contextlib.redirect_stdout(stdout):
                    code = main(case["argv"])
                if code != 0:
                    raise SystemExit(f"case {case['name']} exited with {code}")
                stdout.flush()
                (golden / case["stdout"]).write_bytes(stdout.buffer.getvalue())
                for produced, stored in case["files"].items():
                    (golden / stored).write_bytes(Path(produced).read_bytes())
            finally:
                os.chdir(cwd)
        print(f"wrote golden outputs for {case['name']}")


if __name__ == "__main__":
    run()
