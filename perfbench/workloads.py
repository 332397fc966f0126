"""Seeded request generators for the three benchmark workloads.

Every workload is a closed loop with one client: the next request is sent
only after the previous report is written.  A request is a dict holding the
``argv`` the program sees, the work ``units`` it completes (scan cells,
shots, or 1 per request) and the parameters the independent checker needs.
Inputs depend only on the workload seed.

* ``scan``: one 100 x 100 ``scan --format csv`` per request.  theta-grids
  start at 0, as users run them; every fourth one ends exactly at pi/2, so a
  row of SingularMarking cells is flagged.
* ``shots``: one ``sample --mode phase --n 200000 --shots-out`` per request;
  the state and angles set the rejection acceptance between 1/2 and 1.
* ``ensemble``: single-configuration requests from a fixed-composition pool
  (invert, operational, discrete sample, singular lines, golden argv lists),
  replayed in seeded order.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("scan", "shots", "ensemble")

HALF_PI = math.pi / 2.0
SCAN_POINTS = 100
SHOTS_N = 200_000
SAMPLE_N = 100_000
SHOTS_FILE = "shots.csv"

#: ensemble pool composition; 10 of 200 (5%) sit on a singular line
ENSEMBLE_MIX = {
    "invert_discrete": 34,
    "invert_phase": 34,
    "operational_discrete": 28,
    "operational_phase": 28,
    "sample_discrete": 40,
    "singular": 10,
}
#: every golden case appears this many times in the pool
GOLDEN_REPEATS = 2


def haar_state(rng: np.random.Generator) -> tuple[complex, complex]:
    """Haar-random pure qubit: a normalised complex Gaussian pair."""
    re, im = rng.normal(size=(2, 2))
    amps = re + 1j * im
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    return complex(amps[0]), complex(amps[1])


def state_arg(alpha: complex, beta: complex) -> str:
    return ",".join(repr(float(v)) for v in (alpha.real, alpha.imag, beta.real, beta.imag))


def scan_request(rng: np.random.Generator, index: int, points: int = SCAN_POINTS) -> dict:
    alpha, beta = haar_state(rng)
    theta_stop = HALF_PI if index % 4 == 0 else float(rng.uniform(0.3, 1.5))
    v_start = float(rng.uniform(0.0, 1.0))
    v_stop = v_start + float(rng.uniform(1.0, 2.1))  # stays below pi
    return {
        "kind": "scan",
        "argv": [
            "scan",
            "--state=" + state_arg(alpha, beta),  # '=' form: the value may start with '-'
            "--theta-grid",
            f"0:{theta_stop!r}:{points}",
            "--vartheta-grid",
            f"{v_start!r}:{v_stop!r}:{points}",
            "--format",
            "csv",
        ],
        "units": points * points,
        "state": (alpha, beta),
        "theta_grid": (0.0, theta_stop, points),
        "vartheta_grid": (v_start, v_stop, points),
    }


def shots_request(rng: np.random.Generator, n: int = SHOTS_N) -> dict:
    alpha, beta = haar_state(rng)
    theta = float(rng.uniform(0.0, HALF_PI))
    vartheta = float(rng.uniform(0.0, math.pi))
    seed = int(rng.integers(0, 2**31))
    return {
        "kind": "shots",
        "argv": [
            "sample",
            "--state=" + state_arg(alpha, beta),  # '=' form: the value may start with '-'
            "--theta",
            repr(theta),
            "--vartheta",
            repr(vartheta),
            "--mode",
            "phase",
            "--n",
            str(n),
            "--seed",
            str(seed),
            "--shots-out",
            SHOTS_FILE,
        ],
        "units": n,
        "state": (alpha, beta),
        "theta": theta,
        "vartheta": vartheta,
        "n": n,
        "files": [SHOTS_FILE],
    }


def _marked(rng: np.random.Generator, kind: str, command: str, mode: str, theta: float, vartheta: float,
            extra: list[str] | None = None) -> dict:
    alpha, beta = haar_state(rng)
    argv = [
        command,
        "--state=" + state_arg(alpha, beta),
        "--theta",
        repr(theta),
        "--vartheta",
        repr(vartheta),
        "--mode",
        mode,
    ] + (extra or [])
    return {
        "kind": kind,
        "argv": argv,
        "units": 1,
        "state": (alpha, beta),
        "theta": theta,
        "vartheta": vartheta,
    }


def ensemble_request(rng: np.random.Generator, kind: str) -> dict:
    theta = float(rng.uniform(0.05, 1.5))
    vartheta = float(rng.uniform(0.0, math.pi))
    if kind == "invert_discrete":
        return _marked(rng, kind, "invert", "discrete", theta, vartheta)
    if kind == "invert_phase":
        return _marked(rng, kind, "invert", "phase", theta, vartheta)
    if kind == "operational_discrete":
        return _marked(rng, kind, "operational", "discrete", theta, vartheta)
    if kind == "operational_phase":
        return _marked(rng, kind, "operational", "phase", theta, vartheta)
    if kind == "sample_discrete":
        seed = str(int(rng.integers(0, 2**31)))
        req = _marked(rng, kind, "sample", "discrete", theta, vartheta, ["--n", str(SAMPLE_N), "--seed", seed])
        req["n"] = SAMPLE_N
        return req
    if kind == "singular":
        # full marking (SingularMarking) or 2*vartheta == theta exactly (SingularAnalyzer)
        if rng.random() < 0.5:
            theta = HALF_PI
        else:
            vartheta = theta / 2.0
        command, mode = [("invert", "discrete"), ("invert", "phase"), ("sample", "discrete")][int(rng.integers(0, 3))]
        extra = ["--n", str(SAMPLE_N)] if command == "sample" else None
        return _marked(rng, kind, command, mode, theta, vartheta, extra)
    raise ValueError(f"unknown ensemble kind {kind!r}")


def load_golden_cases(root: Path) -> list[dict]:
    """The golden CLI cases, read verbatim from tests/cli_cases.py."""
    spec = importlib.util.spec_from_file_location("perfbench_cli_cases", root / "tests" / "cli_cases.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [
        {
            "kind": "golden",
            "name": case["name"],
            "argv": list(case["argv"]),
            "units": 1,
            "golden_dir": str(root / "tests" / "golden"),
            "stdout_golden": case["stdout"],
            "file_goldens": dict(case["files"]),
            "files": list(case["files"]),
        }
        for case in module.CASES
    ]


def ensemble_pool(rng: np.random.Generator, root: Path) -> list[dict]:
    pool = [ensemble_request(rng, kind) for kind, count in ENSEMBLE_MIX.items() for _ in range(count)]
    pool += load_golden_cases(root) * GOLDEN_REPEATS
    return pool


def requests(workload: str, seed: int, root: Path):
    """Endless seeded request stream for one workload."""
    rng = np.random.default_rng(seed)
    if workload == "scan":
        index = 0
        while True:
            yield scan_request(rng, index)
            index += 1
    elif workload == "shots":
        while True:
            yield shots_request(rng)
    elif workload == "ensemble":
        pool = ensemble_pool(rng, root)
        while True:
            for i in rng.permutation(len(pool)):
                yield pool[i]
    else:
        raise ValueError(f"unknown workload {workload!r}")
