#!/usr/bin/env python3
"""Interleaved A/B of library layers: this tree against another, in process, one fresh interpreter per run.

Each of the ``--rounds`` rounds starts one subprocess per tree, and which
tree goes first alternates round by round.  A subprocess imports quasijoint
from its tree's src/ and times each layer on one fixed state and
configuration: the four joint builders, a 100x100 ``scan_negativity``,
``negativity_of`` on a discrete and on a phase quasi joint, the table
writer on a 100x100 scan's CSV and on 32,768 shots' CSV, a phase report's
256-point ``phase_grid`` evaluated and rendered as JSON at the level the
report renders it at, once with its phi axis kept and once after clearing
it (the first report at a grid size), ``born_joint_discrete``, the
Born-rule oracle, then the Bloch expectations, the construction of one
``MarkerConfig``, the gamma coefficients, the delta coefficients on both
routes (the closed forms' ``_config_delta`` and the grid's
``delta_coefficients``) and the two inversion kernels of one
configuration, ``invert_joint_discrete``,
``estimate_quasi_joint`` on 100,000-shot counts,
the phase sampler drawing 32,768 shots, the estimator's pass over those
shots in the chunks the tree's sampler yields, the fused pass that
draws and sums 2^17 shots, and one whole ``invert --mode phase`` request
through ``cli.main``, its report written to the null device.  The last row
is a control: a fixed pure-Python loop that runs no quasijoint code, so no
change to the package can move it.  A layer's time in a run is the least
of REPEATS timeit repeats, per call.
Printed per layer: each tree's median over the rounds, in microseconds, and
the median of the per-round ratios (this tree's run over the other tree's
run in the same round), which a change in host load between rounds moves
less than a ratio of medians.  ``--json PATH`` also writes every row's
median, min and interquartile range per tree with its paired ratio and the
inclusive quartiles of the per-round ratios (their spread), beside
the host's CPU count, the Python and numpy versions and whether each
tree's src/ held ``__pycache__`` (the subprocesses run with ``-B``, so
they read cached bytecode but never write it).
Example:

    python scripts/ab_layers.py --against ../parent --rounds 10 --json BENCH_label.json
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: timeit repeats per layer and run
REPEATS = 7

#: the program each subprocess runs: argv[1] is the repeat count; prints {layer: seconds per call}
CHILD = """
import contextlib, json, os, sys, timeit
from collections import deque
import numpy as np
import quasijoint as q
from quasijoint import cli
from quasijoint.inversion import _config_delta
from quasijoint.sampling import _phase_blocks, _phase_pass, _shot_table

state = q.PureState(0.6, 0.64 + 0.48j)
config = q.MarkerConfig(0.7, 1.1)
thetas, varthetas = np.linspace(0.0, 1.5707963267948966, 100), np.linspace(0.0, 3.1, 100)
discrete, phase = q.quasi_joint_closed_form(state, config), q.quasi_joint_phase_closed_form(state, config)
grid, measured = q.scan_negativity(state, thetas, varthetas), q.operational_joint_phase(state, config)
chunks = [(chunk_phi.copy(), chunk_z.copy()) for chunk_phi, chunk_z in _phase_blocks(measured, 32768, 5)]
phi, z = (np.concatenate(column) for column in zip(*chunks))
measured_discrete = q.operational_joint_discrete(state, config)
counts = q.sample_discrete(measured_discrete, 100000, 5)
invert = ["invert", "--state", "0.6,0,0.64,0.48", "--theta", "0.7", "--vartheta", "1.1", "--mode", "phase"]
phase_grid = cli.cmd_invert(cli._parse(invert)).result["phase_grid"]
devnull = open(os.devnull, "w")

def request():
    with contextlib.redirect_stdout(devnull):
        cli.main(invert)

layers = {
    "operational_joint_discrete": (lambda: q.operational_joint_discrete(state, config), 1000),
    "operational_joint_phase": (lambda: q.operational_joint_phase(state, config), 1000),
    "quasi_joint_closed_form": (lambda: q.quasi_joint_closed_form(state, config), 1000),
    "quasi_joint_phase_closed_form": (lambda: q.quasi_joint_phase_closed_form(state, config), 1000),
    "scan_negativity 100x100": (lambda: q.scan_negativity(state, thetas, varthetas), 10),
    "negativity_of, discrete": (lambda: q.negativity_of(discrete), 1000),
    "negativity_of, phase": (lambda: q.negativity_of(phase), 1000),
    "csv_blocks, 100x100 scan": (lambda: deque(grid.table().csv_blocks(), 0), 10),
    "csv_blocks, 32768 shots": (lambda: deque(_shot_table(phi, z).csv_blocks(), 0), 10),
    "phase grid, evaluate and render": (lambda: cli._render_json_value(phase_grid, 2), 100),
    "phase grid, first at its size": (lambda: (cli._phase_axis.cache_clear(), cli._render_json_value(phase_grid, 2)), 100),
    "born_joint_discrete": (lambda: q.born_joint_discrete(state, config), 1000),
    "bloch_from_state": (lambda: q.bloch_from_state(state), 1000),
    "MarkerConfig(0.7, 1.1)": (lambda: q.MarkerConfig(0.7, 1.1), 1000),
    "gamma_coefficients, one config": (lambda: q.gamma_coefficients(config.theta, config.vartheta), 1000),
    "_config_delta, one config": (lambda: _config_delta(config), 1000),
    "delta_coefficients, one config": (lambda: q.delta_coefficients(config.theta, config.vartheta), 1000),
    "mu_x_matrix with mu_z_matrix": (lambda: (q.mu_x_matrix(config.theta), q.mu_z_matrix(config)), 1000),
    "invert_joint_discrete": (lambda: q.invert_joint_discrete(measured_discrete, config), 1000),
    "estimate_quasi_joint, 1e5 shots": (lambda: q.estimate_quasi_joint(counts, config), 1000),
    "_phase_blocks, 32768 shots": (lambda: deque(_phase_blocks(measured, 32768, 5), 0), 10),
    "_phase_pass, 32768 shots": (lambda: _phase_pass(chunks), 10),
    "_phase_pass over 2^17 shots": (lambda: _phase_pass(_phase_blocks(measured, 1 << 17, 5)), 3),
    "invert --mode phase request": (request, 100),
    "pure-Python loop (control)": (lambda: sum(i * i for i in range(1000)), 100),
}
repeats = int(sys.argv[1])
print(json.dumps({name: min(timeit.repeat(call, number=number, repeat=repeats)) / number
                  for name, (call, number) in layers.items()}))
"""


def run(tree: Path) -> dict[str, float]:
    """One subprocess's seconds per call of each layer, quasijoint imported from ``tree``/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-B", "-c", CHILD, str(REPEATS)], cwd=tree, env=env,
                          capture_output=True, text=True, check=False)
    if done.returncode:
        raise RuntimeError(f"timing {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout)


def quartiles(values: list[float]) -> list[float]:
    """The inclusive first and third quartiles; one value is both."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return [q1, q3]


def spread(values: list[float]) -> dict[str, float]:
    """Median, least value and interquartile range of one tree's per-round times, in microseconds."""
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values) * 1e6, "min": min(values) * 1e6, "iqr": (q3 - q1) * 1e6}


def holds_pycache(tree: Path) -> bool:
    return any((tree / "src").rglob("__pycache__"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, type=Path, help="a source tree holding src/quasijoint")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--json", type=Path, help="also write the rows and the host to this JSON file")
    args = parser.parse_args()
    against = args.against.resolve()
    if not (against / "src" / "quasijoint" / "__init__.py").is_file():
        print(f"error: {against} holds no src/quasijoint/__init__.py", file=sys.stderr)
        return 2
    if args.rounds < 1:
        print("error: --rounds must be >= 1", file=sys.stderr)
        return 2
    if args.json is not None and not args.json.resolve().parent.is_dir():
        print(f"error: no directory to write {args.json} into", file=sys.stderr)
        return 2
    trees = (ROOT, against)
    runs = [[], []]  # [tree] -> one {layer: seconds} per round
    for round_ in range(args.rounds):
        for side in ((0, 1) if round_ % 2 == 0 else (1, 0)):
            runs[side].append(run(trees[side]))

    print(f"{args.rounds} rounds, min of {REPEATS} repeats per run; this tree {ROOT}, against {against}")
    print(f"{'per call, median over rounds':36s} {'this us':>10s} {'against us':>10s} {'ratio':>7s}")
    rows = []
    for name in runs[0][0]:
        this, other = ([result[name] for result in side] for side in runs)
        ratios = [a / b for a, b in zip(this, other)]  # paired by round
        ratio = statistics.median(ratios)
        print(f"{name:36s} {statistics.median(this) * 1e6:10.2f} {statistics.median(other) * 1e6:10.2f} {ratio:7.3f}")
        rows.append({"name": name, "unit": "us/call", "rounds": args.rounds, "this": spread(this),
                     "against": spread(other), "paired_ratio": ratio, "paired_ratio_quartiles": quartiles(ratios)})
    if args.json is not None:
        record = {
            "rounds": args.rounds, "repeats": REPEATS, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
            "pycache": {"this": holds_pycache(ROOT), "against": holds_pycache(against)}, "rows": rows,
        }
        args.json.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
