#!/usr/bin/env python3
"""Measure how the sampled quasi-joint error shrinks with the shot count.

For each N the quasi joint is estimated from fresh seeded draws and the RMS
entry error against the closed form is recorded; rms*sqrt(N) should be flat.
Writes a CSV (n,rms,rms_sqrt_n) and prints the table.  Example:

    python scripts/mc_convergence.py --theta 0.7 --vartheta 1.1 --seeds 32
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from quasijoint import (
    MarkerConfig,
    SingularInversion,
    estimate_quasi_joint,
    mu_x_matrix,
    mu_z_matrix,
    operational_joint_discrete,
    quasi_joint_closed_form,
    sample_discrete,
)
from quasijoint.cli import parse_state

INT64_MAX = np.iinfo(np.int64).max


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--state", default="0.9238795325112867,0,0.3826834323650898,0", help="re,im,re,im"
    )
    parser.add_argument("--theta", type=float, default=0.7)
    parser.add_argument("--vartheta", type=float, default=1.1)
    parser.add_argument("--seeds", type=int, default=32, help="replicas per shot count")
    parser.add_argument("--base-seed", type=int, default=9000)
    parser.add_argument(
        "--shots", default="1000,10000,100000,1000000", help="comma-separated N values"
    )
    parser.add_argument("--out", default="mc_convergence.csv")
    args = parser.parse_args()

    try:
        state = parse_state(args.state, "reim")
        shot_counts = [int(piece) for piece in args.shots.split(",")]
        config = MarkerConfig(args.theta, args.vartheta)
    except ValueError as exc:  # StateValidationError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seeds < 1:
        print(f"error: --seeds must be >= 1, got {args.seeds}", file=sys.stderr)
        return 2
    if min(shot_counts) < 1:
        print(f"error: every --shots entry must be >= 1, got {args.shots!r}", file=sys.stderr)
        return 2
    if max(shot_counts) > INT64_MAX:  # the multinomial draw takes an int64
        print(f"error: every --shots entry must be <= {INT64_MAX}, got {args.shots!r}", file=sys.stderr)
        return 2
    try:  # before the first draw: the kernels every estimate inverts with, in its order, then the closed form
        mu_x_matrix(config.theta), mu_z_matrix(config)
        measured = operational_joint_discrete(state, config)
        truth = quasi_joint_closed_form(state, config).table
    except SingularInversion as exc:
        print(f"error: singular configuration: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # just off the singular lines the closed form's entries can cancel to a zero sum
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = []
    for n in shot_counts:
        squared = []
        for offset in range(args.seeds):
            counts = sample_discrete(measured, n, args.base_seed + offset)
            estimate = estimate_quasi_joint(counts, config)
            squared.append(float(((estimate.joint.table - truth) ** 2).mean()))
        rms = math.sqrt(float(np.mean(squared)))
        rows.append((n, rms, rms * math.sqrt(n)))
        print(f"N={n:>9d}  rms={rms:.3e}  rms*sqrt(N)={rms * math.sqrt(n):.4f}")

    try:
        with open(args.out, "w") as handle:
            handle.write("n,rms,rms_sqrt_n\n")
            for n, rms, scaled in rows:
                handle.write(f"{n},{rms:.16e},{scaled:.16e}\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
