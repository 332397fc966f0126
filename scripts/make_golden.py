#!/usr/bin/env python3
"""Regenerate every pinned CLI output from tests/cli_cases.py: the golden files and the digest file.

``CASES`` and ``REPORT_CASES`` write the golden files in tests/golden/;
``LARGE_CASES`` write tests/large_outputs.sha256, one sha256sum line per
output in their order.  Run from anywhere; the outputs are deterministic
(fixed seeds, fixed float formatting), so a regeneration on the same
platform leaves ``git status`` clean unless the CLI surface intentionally
changed, and a recorded regeneration is this one command.  Nor do they
depend on which SIMD code paths numpy dispatches to on the CPU: CI
regenerates both with numpy's AVX-512 paths disabled
(``NPY_DISABLE_CPU_FEATURES``) and requires the same bytes.  The C
library's ``cos``, ``sin`` and ``atan2`` can move last bits: glibc's FMA
variants and its plain ones differ on about 7 in 10,000 values.  CI
regenerates a third time with those variants off
(``GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4``) and requires the same
golden files, but the large outputs do change there: their digests are
glibc's FMA path.  The golden phase samples draw 50 and 500 shots, inside
the sampler's first 2^14-shot chunk; the chunk size fixes the bits of longer
records, such as the pinned 10^6-shot export.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tests"))

from cli_cases import CASES, LARGE_CASES, REPORT_CASES  # noqa: E402

from quasijoint.cli import main  # noqa: E402


def outputs(case: dict) -> dict[str, bytes]:
    """The pinned outputs of one case, run in a fresh directory, by the name each is stored as."""
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
            produced = {} if case["stdout"] is None else {case["stdout"]: stdout.buffer.getvalue()}
            for path, stored in case["files"].items():
                produced[stored] = Path(path).read_bytes()
        finally:
            os.chdir(cwd)
    return produced


def run() -> None:
    golden = REPO / "tests" / "golden"
    golden.mkdir(parents=True, exist_ok=True)
    for case in CASES + REPORT_CASES:
        for name, data in outputs(case).items():
            (golden / name).write_bytes(data)
        print(f"wrote golden outputs for {case['name']}")
    lines = [
        f"{hashlib.sha256(data).hexdigest()}  {name}\n" for case in LARGE_CASES for name, data in outputs(case).items()
    ]
    (REPO / "tests" / "large_outputs.sha256").write_text("".join(lines))
    print(f"wrote the digests of {len(lines)} large outputs")


if __name__ == "__main__":
    run()
