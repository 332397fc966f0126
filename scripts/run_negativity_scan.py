#!/usr/bin/env python3
"""Sweep the reconstructed-joint minimum over marking/analyzer angles.

Writes the scan as CSV (theta,vartheta,min_value,flag) and prints the most
negative cell.  Example:

    python scripts/run_negativity_scan.py \
        --state 0.9238795325112867,0,0.3826834323650898,0 \
        --theta-grid 0:1.47:60 --vartheta-grid 0:3.14:60 --out scan.csv
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from quasijoint import PureState, scan_negativity
from quasijoint.cli import parse_grid, parse_state


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state", required=True, help="re,im,re,im")
    parser.add_argument("--theta-grid", required=True, help="start:stop:num (radians)")
    parser.add_argument("--vartheta-grid", required=True, help="start:stop:num (radians)")
    parser.add_argument("--out", default="negativity_scan.csv")
    args = parser.parse_args()

    try:
        state = parse_state(args.state, "reim")
        t0, t1, tn = parse_grid(args.theta_grid, degrees=False)
        v0, v1, vn = parse_grid(args.vartheta_grid, degrees=False)
    except ValueError as exc:  # StateValidationError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    grid = scan_negativity(state, np.linspace(t0, t1, tn), np.linspace(v0, v1, vn))

    try:
        with open(args.out, "wb") as handle:
            handle.writelines(grid.csv_blocks())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    flagged = int(grid.singular.sum())
    print(f"wrote {tn * vn} cells to {args.out} ({flagged} singular)")
    if flagged == grid.singular.size:
        print("most negative: none, every cell is singular (no unflagged cell)")
        return 0
    valid = np.where(grid.singular, np.inf, grid.min_values)
    i, j = np.unravel_index(int(np.argmin(valid)), valid.shape)
    print(
        f"most negative: {grid.min_values[i, j]:.6f} at "
        f"theta={grid.theta_values[i]:.6f}, vartheta={grid.vartheta_values[j]:.6f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
