"""Command line front-end, one subcommand per pipeline stage.

    exact        exact (unobserved) path / fringe / phase statistics
    operational  the measured joint for a marking/analyzer configuration
    invert       the reconstructed quasi joint plus its negativity
    sample       finite shots from the measured joint, inverted with errors
    scan         minimum reconstructed entry over an angle grid

Output is machine-readable JSON (default) or CSV.  Every float prints as
%.16e (17 significant digits, full float64 round trip, locale-free), so
repeated runs are byte-identical; every report echoes the fully resolved
configuration, including the seed, angles already converted to radians and
the state normalized.

Exit codes: 0 success, 2 invalid input, 3 singular inversion configuration.
Inputs above the size caps below are invalid input, rejected before anything
is allocated.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from quasijoint.analysis import (
    SCAN_CSV_HEADER,
    negativity_of,
    scan_negativity,
)
from quasijoint.inversion import (
    SingularInversion,
    delta_coefficients,
    quasi_joint_closed_form,
    quasi_joint_phase_closed_form,
)
from quasijoint.marking import (
    MarkerConfig,
    gamma_coefficients,
    marginal_phase,
    marginal_x,
    marginal_z,
    marginal_z_of_phase,
    operational_joint_discrete,
    operational_joint_phase,
)
from quasijoint.sampling import (
    estimate_quasi_joint,
    harmonic_estimates,
    sample_discrete,
    sample_phase,
)
from quasijoint.states import (
    PureState,
    StateValidationError,
    bloch_from_state,
    evaluate_phase_density,
    exact_interference_distribution,
    exact_path_distribution,
    exact_phase_distribution,
    phase_grid,
)

DISCRETE_MODE = "discrete"
PHASE_MODE = "phase"

#: most cells (theta points x vartheta points) a scan may hold, a 500 x 500 grid
MAX_SCAN_CELLS = 250_000
#: most points of an exported phase-density grid
MAX_PHI_POINTS = 100_000
#: most shots of a phase-mode sample, each of which is kept in memory
MAX_PHASE_SHOTS = 1_000_000


# ---------------------------------------------------------------------------
# number formatting and report rendering


def format_float(value: float) -> str:
    """Fixed scientific notation, 17 significant digits: byte-stable and round-trip exact."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"refusing to print non-finite value {value!r}")
    return f"{value:.16e}"


def _render_json_value(value, level: int) -> str:
    pad = "  " * (level + 1)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        # no exotic characters in this CLI's strings, plain quoting suffices
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f'{pad}"{key}": {_render_json_value(item, level + 1)}' for key, item in value.items()
        )
        return "{\n" + inner + "\n" + "  " * level + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(f"{pad}{_render_json_value(item, level + 1)}" for item in value)
        return "[\n" + inner + "\n" + "  " * level + "]"
    raise TypeError(f"cannot render {type(value).__name__} in a report")


def render_json(report: dict) -> str:
    return _render_json_value(report, 0) + "\n"


def _csv_config_lines(config: dict) -> list[str]:
    lines = []
    for key, value in config.items():
        if isinstance(value, (list, tuple)):
            rendered = ",".join(
                format_float(v) if isinstance(v, float) else str(v) for v in value
            )
        elif isinstance(value, float):
            rendered = format_float(value)
        elif value is None:
            rendered = ""
        else:
            rendered = str(value)
        lines.append(f"# {key}={rendered}")
    return lines


# ---------------------------------------------------------------------------
# option parsing and resolution


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


_CONVERTERS = {
    "state": str,
    "state_form": str,
    "theta": float,
    "vartheta": float,
    "degrees": _parse_bool,
    "mode": str,
    "n": int,
    "seed": int,
    "format": str,
    "phi_points": int,
    "theta_grid": str,
    "vartheta_grid": str,
    "shots_out": str,
    "output": str,
}

_DEFAULTS = {
    "state_form": "reim",
    "degrees": False,
    "mode": DISCRETE_MODE,
    "seed": 0,
    "format": "json",
    "phi_points": 256,
    "shots_out": None,
    "output": None,
}


def load_config_file(path: str) -> dict[str, str]:
    """key=value lines; blank lines and #-comments ignored; unknown keys rejected."""
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"config line {raw!r} is not key=value")
        key = key.strip()
        if key not in _CONVERTERS:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = value.strip()
    return values


def resolve_options(args: argparse.Namespace, names: Sequence[str], required: Sequence[str]) -> dict:
    """Merge command line over config file over built-in defaults."""
    file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for name in names:
        cli_value = getattr(args, name, None)
        if cli_value is not None:
            resolved[name] = cli_value
        elif name in file_values:
            resolved[name] = _CONVERTERS[name](file_values[name])
        else:
            resolved[name] = _DEFAULTS.get(name)
    for name in required:
        if resolved.get(name) is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")
    if resolved.get("format") not in (None, "json", "csv"):
        raise ValueError(f"unknown format {resolved['format']!r}")
    if resolved.get("mode") not in (None, DISCRETE_MODE, PHASE_MODE):
        raise ValueError(f"unknown mode {resolved['mode']!r}")
    if resolved.get("phi_points") is not None and resolved["phi_points"] < 0:
        raise ValueError("phi-points must be >= 0")
    if (resolved.get("phi_points") or 0) > MAX_PHI_POINTS:
        raise ValueError(f"phi-points must be <= {MAX_PHI_POINTS}")
    if resolved.get("mode") == PHASE_MODE and (resolved.get("n") or 0) > MAX_PHASE_SHOTS:
        raise ValueError(f"n must be <= {MAX_PHASE_SHOTS} in phase mode")
    return resolved


def parse_state(spec: str, form: str) -> PureState:
    """Four comma-separated reals: re,im,re,im or mag,phase_deg,mag,phase_deg."""
    parts = [float(piece) for piece in spec.split(",")]
    if len(parts) != 4:
        raise ValueError(f"state needs 4 comma-separated numbers, got {len(parts)}")
    if form == "reim":
        return PureState(complex(parts[0], parts[1]), complex(parts[2], parts[3]))
    if form == "magphase":
        alpha = parts[0] * complex(math.cos(math.radians(parts[1])), math.sin(math.radians(parts[1])))
        beta = parts[2] * complex(math.cos(math.radians(parts[3])), math.sin(math.radians(parts[3])))
        return PureState(alpha, beta)
    raise ValueError(f"unknown state form {form!r}")


def parse_grid(spec: str, degrees: bool) -> tuple[float, float, int]:
    pieces = spec.split(":")
    if len(pieces) != 3:
        raise ValueError(f"grid must be start:stop:num, got {spec!r}")
    start, stop = float(pieces[0]), float(pieces[1])
    num = int(pieces[2])
    if num < 1:
        raise ValueError("grid needs at least one point")
    if degrees:
        start, stop = math.radians(start), math.radians(stop)
    return (start, stop, num)


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _state_fields(state: PureState) -> list[float]:
    return [state.alpha.real, state.alpha.imag, state.beta.real, state.beta.imag]


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# report fragments


def _binary_dict(dist) -> dict:
    return {"plus": dist.p_plus, "minus": dist.p_minus}


def _density_dict(density) -> dict:
    return {"c0": density.c0, "c_cos": density.c_cos, "c_sin": density.c_sin}


def _joint_cells(joint) -> list[dict]:
    return [{"x": x, "z": z, "value": value} for (x, z), value in joint.items()]


def _phase_slices(joint) -> list[dict]:
    return [{"z": z, **_density_dict(joint.for_z(z))} for z in (1, -1)]


def _phase_grid_dict(joint, phi_points: int) -> dict:
    phi = phase_grid(phi_points)
    return {
        "phi": [float(p) for p in phi],
        "plus": [float(v) for v in evaluate_phase_density(joint.plus, phi)],
        "minus": [float(v) for v in evaluate_phase_density(joint.minus, phi)],
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_exact(args: argparse.Namespace) -> int:
    opts = resolve_options(
        args, ("state", "state_form", "format", "phi_points", "output"), required=("state",)
    )
    state = parse_state(opts["state"], opts["state_form"])
    config = {
        "command": "exact",
        "state": _state_fields(state),
        "format": opts["format"],
        "phi_points": opts["phi_points"],
        "output": opts["output"],
    }
    bloch = bloch_from_state(state)
    path = exact_path_distribution(state)
    fringe = exact_interference_distribution(state)
    density = exact_phase_distribution(state)
    if opts["format"] == "json":
        result = {
            "bloch": {"ex": bloch.ex, "ey": bloch.ey, "ez": bloch.ez},
            "path": _binary_dict(path),
            "interference": _binary_dict(fringe),
            "phase_density": _density_dict(density),
        }
        if opts["phi_points"]:
            phi = phase_grid(opts["phi_points"])
            result["phase_grid"] = {
                "phi": [float(p) for p in phi],
                "values": [float(v) for v in evaluate_phase_density(density, phi)],
            }
        text = render_json({"command": "exact", "config": config, "result": result})
    else:
        rows = [
            ("ex", bloch.ex),
            ("ey", bloch.ey),
            ("ez", bloch.ez),
            ("path_plus", path.p_plus),
            ("path_minus", path.p_minus),
            ("interference_plus", fringe.p_plus),
            ("interference_minus", fringe.p_minus),
            ("phase_c0", density.c0),
            ("phase_c_cos", density.c_cos),
            ("phase_c_sin", density.c_sin),
        ]
        lines = _csv_config_lines(config) + ["quantity,value"]
        lines += [f"{name},{format_float(value)}" for name, value in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, opts["output"])
    return 0


def _resolve_marked(args: argparse.Namespace, command: str, extra=(), extra_required=()):
    names = (
        "state",
        "state_form",
        "theta",
        "vartheta",
        "degrees",
        "mode",
        "format",
        "phi_points",
        "output",
    ) + tuple(extra)
    opts = resolve_options(args, names, required=("state", "theta", "vartheta") + tuple(extra_required))
    state = parse_state(opts["state"], opts["state_form"])
    marker = MarkerConfig(
        _angle(opts["theta"], opts["degrees"]), _angle(opts["vartheta"], opts["degrees"])
    )
    config = {
        "command": command,
        "state": _state_fields(state),
        "theta": marker.theta,
        "vartheta": marker.vartheta,
        "mode": opts["mode"],
        "format": opts["format"],
        "phi_points": opts["phi_points"],
        "output": opts["output"],
    }
    return opts, state, marker, config


def cmd_operational(args: argparse.Namespace) -> int:
    opts, state, marker, config = _resolve_marked(args, "operational")
    g0, gx, gz = gamma_coefficients(marker.theta, marker.vartheta)
    gamma_dict = {
        f"{name}_{sign}": float(value)
        for name, pair in (("g0", g0), ("gx", gx), ("gz", gz))
        for sign, value in zip(("plus", "minus"), pair)
    }
    if opts["mode"] == DISCRETE_MODE:
        joint = operational_joint_discrete(state, marker)
        if opts["format"] == "json":
            result = {
                "joint": {"kind": joint.kind, "values": _joint_cells(joint)},
                "marginal_x": _binary_dict(marginal_x(joint)),
                "marginal_z": _binary_dict(marginal_z(joint)),
                "gamma": gamma_dict,
            }
            text = render_json({"command": "operational", "config": config, "result": result})
        else:
            lines = _csv_config_lines(config) + ["x,z,value"]
            lines += [f"{x},{z},{format_float(v)}" for (x, z), v in joint.items()]
            text = "\n".join(lines) + "\n"
    else:
        joint = operational_joint_phase(state, marker)
        if opts["format"] == "json":
            result = {
                "joint": {"kind": joint.kind, "slices": _phase_slices(joint)},
                "marginal_phase": _density_dict(marginal_phase(joint)),
                "marginal_z": _binary_dict(marginal_z_of_phase(joint)),
                "gamma": gamma_dict,
            }
            if opts["phi_points"]:
                result["phase_grid"] = _phase_grid_dict(joint, opts["phi_points"])
            text = render_json({"command": "operational", "config": config, "result": result})
        else:
            lines = _csv_config_lines(config) + ["z,c0,c_cos,c_sin"]
            for entry in _phase_slices(joint):
                lines.append(
                    f"{entry['z']},{format_float(entry['c0'])},"
                    f"{format_float(entry['c_cos'])},{format_float(entry['c_sin'])}"
                )
            text = "\n".join(lines) + "\n"
    _emit(text, opts["output"])
    return 0


def cmd_invert(args: argparse.Namespace) -> int:
    opts, state, marker, config = _resolve_marked(args, "invert")
    discrete = opts["mode"] == DISCRETE_MODE
    joint = (quasi_joint_closed_form if discrete else quasi_joint_phase_closed_form)(state, marker)
    delta, _, _ = delta_coefficients(marker.theta, marker.vartheta)  # singular configs raised above
    delta_dict = {"plus": float(delta[0]), "minus": float(delta[1])}
    report = negativity_of(joint)
    if discrete:
        if opts["format"] == "json":
            result = {
                "joint": {"kind": joint.kind, "values": _joint_cells(joint)},
                "delta": delta_dict,
                "marginal_x": _binary_dict(marginal_x(joint)),
                "marginal_z": _binary_dict(marginal_z(joint)),
                "negativity": {
                    "min_value": report.min_value,
                    "argmin": {"x": report.argmin[0], "z": report.argmin[1]},
                    "total_negativity": report.total_negativity,
                },
            }
            text = render_json({"command": "invert", "config": config, "result": result})
        else:
            lines = _csv_config_lines(config)
            lines.append(
                f"# negativity min_value={format_float(report.min_value)} "
                f"argmin_x={report.argmin[0]} argmin_z={report.argmin[1]} "
                f"total={format_float(report.total_negativity)}"
            )
            lines.append("x,z,value")
            lines += [f"{x},{z},{format_float(v)}" for (x, z), v in joint.items()]
            text = "\n".join(lines) + "\n"
    else:
        if opts["format"] == "json":
            result = {
                "joint": {"kind": joint.kind, "slices": _phase_slices(joint)},
                "delta": delta_dict,
                "marginal_phase": _density_dict(marginal_phase(joint)),
                "marginal_z": _binary_dict(marginal_z_of_phase(joint)),
                "negativity": {
                    "min_value": report.min_value,
                    "argmin": {"phi": report.argmin[0], "z": report.argmin[1]},
                    "total_negativity": report.total_negativity,
                },
            }
            if opts["phi_points"]:
                result["phase_grid"] = _phase_grid_dict(joint, opts["phi_points"])
            text = render_json({"command": "invert", "config": config, "result": result})
        else:
            lines = _csv_config_lines(config)
            lines.append(
                f"# negativity min_value={format_float(report.min_value)} "
                f"argmin_phi={format_float(report.argmin[0])} argmin_z={report.argmin[1]} "
                f"total={format_float(report.total_negativity)}"
            )
            lines.append("z,c0,c_cos,c_sin")
            for entry in _phase_slices(joint):
                lines.append(
                    f"{entry['z']},{format_float(entry['c0'])},"
                    f"{format_float(entry['c_cos'])},{format_float(entry['c_sin'])}"
                )
            text = "\n".join(lines) + "\n"
    _emit(text, opts["output"])
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    opts, state, marker, config = _resolve_marked(
        args, "sample", extra=("n", "seed", "shots_out"), extra_required=("n",)
    )
    config["n"] = opts["n"]
    config["seed"] = opts["seed"]
    config["shots_out"] = opts["shots_out"]
    if opts["mode"] == DISCRETE_MODE:
        measured = operational_joint_discrete(state, marker)
        counts = sample_discrete(measured, opts["n"], opts["seed"])
        estimate = estimate_quasi_joint(counts, marker)
        if opts["shots_out"]:
            Path(opts["shots_out"]).write_text(counts.to_csv())
        if opts["format"] == "json":
            result = {
                "counts": [
                    {"x": x, "z": z, "count": counts.count(x, z)}
                    for (x, z), _ in counts.frequencies().items()
                ],
                "estimate": [
                    {"x": x, "z": z, "value": estimate.value(x, z), "stderr": estimate.stderr(x, z)}
                    for (x, z), _ in estimate.joint.items()
                ],
            }
            text = render_json({"command": "sample", "config": config, "result": result})
        else:
            lines = _csv_config_lines(config) + ["x,z,value,stderr"]
            for (x, z), _ in estimate.joint.items():
                lines.append(
                    f"{x},{z},{format_float(estimate.value(x, z))},{format_float(estimate.stderr(x, z))}"
                )
            text = "\n".join(lines) + "\n"
    else:
        measured = operational_joint_phase(state, marker)
        shots = sample_phase(measured, opts["n"], opts["seed"])
        estimates = harmonic_estimates(shots)
        if opts["shots_out"]:
            Path(opts["shots_out"]).write_text(shots.to_csv())
        if opts["format"] == "json":
            result = {
                "slice_counts": {"plus": shots.slice_count(1), "minus": shots.slice_count(-1)},
                "harmonic_estimates": [{"z": z, **_density_dict(estimates[z])} for z in (1, -1)],
            }
            text = render_json({"command": "sample", "config": config, "result": result})
        else:
            lines = _csv_config_lines(config) + ["z,count,c0_hat,c_cos_hat,c_sin_hat"]
            for z in (1, -1):
                d = estimates[z]
                lines.append(
                    f"{z},{shots.slice_count(z)},{format_float(d.c0)},"
                    f"{format_float(d.c_cos)},{format_float(d.c_sin)}"
                )
            text = "\n".join(lines) + "\n"
    _emit(text, opts["output"])
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    opts = resolve_options(
        args,
        ("state", "state_form", "theta_grid", "vartheta_grid", "degrees", "format", "output"),
        required=("state", "theta_grid", "vartheta_grid"),
    )
    state = parse_state(opts["state"], opts["state_form"])
    theta_spec = parse_grid(opts["theta_grid"], opts["degrees"])
    vartheta_spec = parse_grid(opts["vartheta_grid"], opts["degrees"])
    if theta_spec[2] * vartheta_spec[2] > MAX_SCAN_CELLS:
        raise ValueError(
            f"scan grid of {theta_spec[2]} x {vartheta_spec[2]} cells exceeds {MAX_SCAN_CELLS}"
        )
    grid = scan_negativity(
        state,
        np.linspace(theta_spec[0], theta_spec[1], theta_spec[2]),
        np.linspace(vartheta_spec[0], vartheta_spec[1], vartheta_spec[2]),
    )
    config = {
        "command": "scan",
        "state": _state_fields(state),
        "theta_grid": list(theta_spec),
        "vartheta_grid": list(vartheta_spec),
        "format": opts["format"],
        "output": opts["output"],
    }
    if opts["format"] == "json":
        cells = []
        for i, theta in enumerate(grid.theta_values):
            for j, vartheta in enumerate(grid.vartheta_values):
                flagged = bool(grid.singular[i, j])
                cells.append(
                    {
                        "theta": float(theta),
                        "vartheta": float(vartheta),
                        "min_value": None if flagged else float(grid.min_values[i, j]),
                        "flag": 1 if flagged else 0,
                    }
                )
        text = render_json({"command": "scan", "config": config, "result": {"cells": cells}})
    else:
        lines = _csv_config_lines(config)
        body = grid.to_csv().rstrip("\n").split("\n")
        assert body[0] == SCAN_CSV_HEADER
        text = "\n".join(lines + body) + "\n"
    _emit(text, opts["output"])
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasijoint",
        description="Joint path/fringe statistics of a marked double-slit "
        "interferometer and their inversion to quasi-probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--state", help="four comma-separated reals (see --state-form)")
        p.add_argument(
            "--state-form",
            dest="state_form",
            choices=("reim", "magphase"),
            help="re,im,re,im (default) or mag,phase_deg,mag,phase_deg",
        )
        p.add_argument("--format", choices=("json", "csv"), help="report format (default json)")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--config", help="key=value file; command-line flags win")

    def add_angles(p: argparse.ArgumentParser) -> None:
        p.add_argument("--theta", type=float, help="marking angle")
        p.add_argument("--vartheta", type=float, help="analyzer angle")
        p.add_argument(
            "--degrees", action="store_true", default=None, help="angles given in degrees"
        )
        p.add_argument("--mode", choices=(DISCRETE_MODE, PHASE_MODE), help="default discrete")
        p.add_argument(
            "--phi-points",
            dest="phi_points",
            type=int,
            help="phase-grid resolution for density export "
            f"(default 256, 0 disables, at most {MAX_PHI_POINTS})",
        )

    p_exact = sub.add_parser("exact", help="exact statistics of the bare state")
    add_common(p_exact)
    p_exact.add_argument(
        "--phi-points",
        dest="phi_points",
        type=int,
        help=f"phase-grid resolution (default 256, at most {MAX_PHI_POINTS})",
    )
    p_exact.set_defaults(handler=cmd_exact)

    p_oper = sub.add_parser("operational", help="the measured joint distribution")
    add_common(p_oper)
    add_angles(p_oper)
    p_oper.set_defaults(handler=cmd_operational)

    p_invert = sub.add_parser("invert", help="the reconstructed quasi joint")
    add_common(p_invert)
    add_angles(p_invert)
    p_invert.set_defaults(handler=cmd_invert)

    p_sample = sub.add_parser("sample", help="finite-shot simulation and estimation")
    add_common(p_sample)
    add_angles(p_sample)
    p_sample.add_argument(
        "--n", type=int, help=f"number of shots (at most {MAX_PHASE_SHOTS} in phase mode)"
    )
    p_sample.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p_sample.add_argument(
        "--shots-out", dest="shots_out", help="write raw shots as CSV to this path"
    )
    p_sample.set_defaults(handler=cmd_sample)

    p_scan = sub.add_parser("scan", help="negativity scan over an angle grid")
    add_common(p_scan)
    p_scan.add_argument("--theta-grid", dest="theta_grid", help="start:stop:num")
    p_scan.add_argument(
        "--vartheta-grid",
        dest="vartheta_grid",
        help=f"start:stop:num; the grid holds at most {MAX_SCAN_CELLS} cells in all",
    )
    p_scan.add_argument(
        "--degrees", action="store_true", default=None, help="grid bounds given in degrees"
    )
    p_scan.set_defaults(handler=cmd_scan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except SingularInversion as exc:
        print(f"error: singular configuration: {exc}", file=sys.stderr)
        return 3
    except (StateValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
