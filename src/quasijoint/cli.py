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

Each ``cmd_*`` handler resolves its options, calls the library and returns a
report: the config echo, the JSON result and the CSV table.  ``main`` renders
it with ``render_json`` or ``render_csv`` and writes it out.

Exit codes: 0 success, 2 invalid input, 3 singular inversion configuration.
Inputs above the size caps below are invalid input, rejected before anything
is allocated.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from quasijoint.analysis import SCAN_CSV_HEADER, negativity_of, scan_negativity
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
    _E16_WIDTH,
    _format_e16,
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


class _Report(NamedTuple):
    """A command's config echo, JSON ``result`` and CSV ``table``: rows with the header
    first, or a library writer's CSV text.  Both are built only for their format.  The
    optional ``(label, fields)`` note prints as ``# label key=value ...`` before the table."""

    config: dict
    result: Callable[[], dict]
    table: Callable[[], list | str]
    note: tuple[str, dict] | None = None


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
    if isinstance(value, np.ndarray):
        return _render_json_floats(value, pad, level)
    raise TypeError(f"cannot render {type(value).__name__} in a report")


def _render_json_floats(values: np.ndarray, pad: str, level: int) -> str:
    """A 1-D float64 array as a JSON list, byte-identical to rendering ``values.tolist()``.

    Every element becomes one ``pad + %.16e + ",\\n"`` row of a uint8 buffer,
    formatted in one ``_format_e16`` call; the fields' NUL padding is dropped.
    """
    if values.dtype != np.float64 or values.ndim != 1:
        raise TypeError(f"cannot render a {values.dtype} array of shape {values.shape} in a report")
    if not values.size:
        return "[]"
    finite = np.isfinite(values)
    if not finite.all():
        format_float(values[np.argmin(finite)])  # raises for the first non-finite element
    indent = len(pad)
    rows = np.empty((values.size, indent + _E16_WIDTH + 2), np.uint8)
    rows[:, :indent] = 32  # " "
    _format_e16(values, rows[:, indent:-2])
    rows[:, -2] = 44  # ","
    rows[:, -1] = 10  # "\n"
    inner = rows.tobytes().translate(None, b"\0").decode("ascii")
    return "[\n" + inner[:-2] + "\n" + "  " * level + "]"


def render_json(report: dict) -> str:
    return _render_json_value(report, 0) + "\n"


def _csv_text(value) -> str:
    """One CSV field, or a row when given a list or tuple; None prints empty."""
    if isinstance(value, (list, tuple)):
        return ",".join(map(_csv_text, value))
    if isinstance(value, float):
        return format_float(value)
    return "" if value is None else str(value)


def render_csv(report: _Report) -> str:
    """``# key=value`` config lines, the optional note line, then the table."""
    lines = [f"# {key}={_csv_text(value)}" for key, value in report.config.items()]
    if report.note:
        label, fields = report.note
        lines.append(f"# {label} " + " ".join(f"{key}={_csv_text(v)}" for key, v in fields.items()))
    table = report.table()
    if not isinstance(table, str):
        table = "".join(_csv_text(row) + "\n" for row in table)
    return "".join(line + "\n" for line in lines) + table


# ---------------------------------------------------------------------------
# option parsing and resolution


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


#: name -> (config-file converter, default, add_argument keywords).  Config
#: echoes list the options in this order; ``config`` is no config-file key.
_OPTIONS = {
    "state": (str, None, dict(help="four comma-separated reals (see --state-form)")),
    "state_form": (str, "reim", dict(
        choices=("reim", "magphase"), help="re,im,re,im (default) or mag,phase_deg,mag,phase_deg"
    )),
    "theta": (float, None, dict(type=float, help="marking angle")),
    "vartheta": (float, None, dict(type=float, help="analyzer angle")),
    "theta_grid": (str, None, dict(help="start:stop:num")),
    "vartheta_grid": (str, None, dict(
        help=f"start:stop:num; the grid holds at most {MAX_SCAN_CELLS} cells in all"
    )),
    "degrees": (
        _parse_bool, False, dict(action="store_true", default=None, help="angles given in degrees")
    ),
    "mode": (str, DISCRETE_MODE, dict(choices=(DISCRETE_MODE, PHASE_MODE), help="default discrete")),
    "format": (str, "json", dict(choices=("json", "csv"), help="report format (default json)")),
    "phi_points": (int, 256, dict(type=int, help=(
        f"phase-grid resolution for density export (default 256, 0 disables, at most {MAX_PHI_POINTS})"
    ))),
    "output": (str, None, dict(help="write the report here instead of stdout")),
    "n": (int, None, dict(type=int, help=f"number of shots (at most {MAX_PHASE_SHOTS} in phase mode)")),
    "seed": (int, 0, dict(type=int, help="RNG seed (default 0)")),
    "shots_out": (str, None, dict(help="write raw shots as CSV to this path")),
    "config": (str, None, dict(help="key=value file; command-line flags win")),
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
        if key not in _OPTIONS or key == "config":
            raise ValueError(f"unknown config key {key!r}")
        values[key] = value.strip()
    return values


def resolve_options(args: argparse.Namespace, required: Sequence[str]) -> dict:
    """The command's options in table order: command line over config file over defaults."""
    file_values = load_config_file(args.config) if args.config else {}
    options = _COMMON + _COMMANDS[args.command][2]
    resolved = {}
    for name, (convert, default, _) in _OPTIONS.items():
        if name in options and name != "config":
            value = getattr(args, name)
            if value is None and name in file_values:
                try:
                    value = convert(file_values[name])
                except ValueError as exc:
                    raise ValueError(f"config key {name!r}: {exc}") from None
            resolved[name] = default if value is None else value
    for name in required:
        if resolved[name] is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")
    for name, value in resolved.items():
        choices = _OPTIONS[name][2].get("choices")
        if choices and value not in choices:
            raise ValueError(f"unknown {name.replace('_', ' ')} {value!r}")
    if resolved.get("phi_points", 0) < 0:
        raise ValueError("phi-points must be >= 0")
    if resolved.get("phi_points", 0) > MAX_PHI_POINTS:
        raise ValueError(f"phi-points must be <= {MAX_PHI_POINTS}")
    if resolved.get("mode") == PHASE_MODE and (resolved.get("n") or 0) > MAX_PHASE_SHOTS:
        raise ValueError(f"n must be <= {MAX_PHASE_SHOTS} in phase mode")
    if (resolved.get("n") or 0) > np.iinfo(np.int64).max:  # the multinomial draw takes an int64
        raise ValueError(f"n must be <= {np.iinfo(np.int64).max}")
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
    if not math.isfinite(stop - start):  # NaN or infinite bounds, or a span that overflows
        raise ValueError(f"grid {spec!r} needs finite bounds")
    return (start, stop, num)


def _echo(command: str, opts: dict, state: PureState, **parsed) -> dict:
    """The config echo: resolved options in table order, parsed values in place of the
    raw ones, without the input-only ``state_form`` and ``degrees``."""
    parsed["state"] = [state.alpha.real, state.alpha.imag, state.beta.real, state.beta.imag]
    return {
        "command": command,
        **{k: parsed.get(k, v) for k, v in opts.items() if k not in ("state_form", "degrees")},
    }


def _resolve_marked(args: argparse.Namespace, *required: str):
    opts = resolve_options(args, ("state", "theta", "vartheta", *required))
    state = parse_state(opts["state"], opts["state_form"])
    to_radians = math.radians if opts["degrees"] else float
    marker = MarkerConfig(to_radians(opts["theta"]), to_radians(opts["vartheta"]))
    config = _echo(args.command, opts, state, theta=marker.theta, vartheta=marker.vartheta)
    return opts, state, marker, config


# ---------------------------------------------------------------------------
# report fragments


def _binary_dict(dist) -> dict:
    return {"plus": dist.p_plus, "minus": dist.p_minus}


def _density_dict(density) -> dict:
    return {"c0": density.c0, "c_cos": density.c_cos, "c_sin": density.c_sin}


def _density_grid(points: int, **densities) -> dict:
    phi = phase_grid(points)
    return {"phi": phi, **{name: evaluate_phase_density(d, phi) for name, d in densities.items()}}


def _records(header: str, rows) -> list[dict]:
    """CSV rows as JSON objects keyed by the header's column names."""
    keys = header.split(",")
    return [dict(zip(keys, row)) for row in rows]


def _joint_report(config: dict, joint, first: dict, last: dict, note=None) -> _Report:
    """A discrete or phase joint with its marginals.

    JSON: the joint, the command's ``first`` fields, the marginals, its ``last``
    fields and, for a phase joint, the density grid.  CSV: one row per cell or slice.
    """
    discrete = config["mode"] == DISCRETE_MODE
    if discrete:
        header, rows = "x,z,value", [(x, z, value) for (x, z), value in joint.items()]
    else:
        header = "z,c0,c_cos,c_sin"
        rows = [(z, *_density_dict(joint.for_z(z)).values()) for z in (1, -1)]

    def result() -> dict:
        cells = {"values" if discrete else "slices": _records(header, rows)}
        fields = {"joint": {"kind": joint.kind, **cells}, **first}
        if discrete:
            fields["marginal_x"] = _binary_dict(marginal_x(joint))
            fields["marginal_z"] = _binary_dict(marginal_z(joint))
        else:
            fields["marginal_phase"] = _density_dict(marginal_phase(joint))
            fields["marginal_z"] = _binary_dict(marginal_z_of_phase(joint))
        fields.update(last)
        points = 0 if discrete else config["phi_points"]
        if points:
            fields["phase_grid"] = _density_grid(points, plus=joint.plus, minus=joint.minus)
        return fields

    return _Report(config, result, lambda: [header, *rows], note)


# ---------------------------------------------------------------------------
# subcommands


def cmd_exact(args: argparse.Namespace) -> _Report:
    opts = resolve_options(args, ("state",))
    state = parse_state(opts["state"], opts["state_form"])
    bloch = bloch_from_state(state)
    path = exact_path_distribution(state)
    fringe = exact_interference_distribution(state)
    density = exact_phase_distribution(state)

    def result() -> dict:
        fields = {
            "bloch": {"ex": bloch.ex, "ey": bloch.ey, "ez": bloch.ez},
            "path": _binary_dict(path),
            "interference": _binary_dict(fringe),
            "phase_density": _density_dict(density),
        }
        if opts["phi_points"]:
            fields["phase_grid"] = _density_grid(opts["phi_points"], values=density)
        return fields

    rows = [
        "quantity,value",
        ("ex", bloch.ex), ("ey", bloch.ey), ("ez", bloch.ez),
        ("path_plus", path.p_plus), ("path_minus", path.p_minus),
        ("interference_plus", fringe.p_plus), ("interference_minus", fringe.p_minus),
        ("phase_c0", density.c0), ("phase_c_cos", density.c_cos), ("phase_c_sin", density.c_sin),
    ]
    return _Report(_echo("exact", opts, state), result, lambda: rows)


def cmd_operational(args: argparse.Namespace) -> _Report:
    opts, state, marker, config = _resolve_marked(args)
    g0, gx, gz = gamma_coefficients(marker.theta, marker.vartheta)
    gamma = {
        f"{name}_{sign}": float(value)
        for name, pair in (("g0", g0), ("gx", gx), ("gz", gz))
        for sign, value in zip(("plus", "minus"), pair)
    }
    discrete = opts["mode"] == DISCRETE_MODE
    joint = (operational_joint_discrete if discrete else operational_joint_phase)(state, marker)
    return _joint_report(config, joint, {}, {"gamma": gamma})


def cmd_invert(args: argparse.Namespace) -> _Report:
    opts, state, marker, config = _resolve_marked(args)
    discrete = opts["mode"] == DISCRETE_MODE
    joint = (quasi_joint_closed_form if discrete else quasi_joint_phase_closed_form)(state, marker)
    delta, _, _ = delta_coefficients(marker.theta, marker.vartheta)  # singular configs raised above
    report = negativity_of(joint)
    (where, z), axis = report.argmin, "x" if discrete else "phi"
    least, total = report.min_value, report.total_negativity
    negativity = {"min_value": least, "argmin": {axis: where, "z": z}, "total_negativity": total}
    note = {"min_value": least, f"argmin_{axis}": where, "argmin_z": z, "total": total}
    delta_dict = {"plus": float(delta[0]), "minus": float(delta[1])}
    return _joint_report(
        config, joint, {"delta": delta_dict}, {"negativity": negativity}, ("negativity", note)
    )


def cmd_sample(args: argparse.Namespace) -> _Report:
    opts, state, marker, config = _resolve_marked(args, "n")
    if opts["mode"] == DISCRETE_MODE:
        shots = sample_discrete(operational_joint_discrete(state, marker), opts["n"], opts["seed"])
        estimate = estimate_quasi_joint(shots, marker)
        header = "x,z,value,stderr"
        rows = [(x, z, v, estimate.stderr(x, z)) for (x, z), v in estimate.joint.items()]

        def result() -> dict:
            counts = [(x, z, shots.count(x, z)) for x, z, *_ in rows]
            return {"counts": _records("x,z,count", counts), "estimate": _records(header, rows)}

    else:
        shots = sample_phase(operational_joint_phase(state, marker), opts["n"], opts["seed"])
        estimates = harmonic_estimates(shots)
        counts = {z: shots.slice_count(z) for z in (1, -1)}
        header = "z,count,c0_hat,c_cos_hat,c_sin_hat"
        rows = [(z, counts[z], *_density_dict(estimates[z]).values()) for z in (1, -1)]

        def result() -> dict:
            return {
                "slice_counts": {"plus": counts[1], "minus": counts[-1]},
                "harmonic_estimates": [{"z": z, **_density_dict(estimates[z])} for z in (1, -1)],
            }

    if opts["shots_out"]:
        with open(opts["shots_out"], "wb") as handle:
            shots.write_csv(handle)
    return _Report(config, result, lambda: [header, *rows])


def cmd_scan(args: argparse.Namespace) -> _Report:
    opts = resolve_options(args, ("state", "theta_grid", "vartheta_grid"))
    state = parse_state(opts["state"], opts["state_form"])
    theta_spec = parse_grid(opts["theta_grid"], opts["degrees"])
    vartheta_spec = parse_grid(opts["vartheta_grid"], opts["degrees"])
    if theta_spec[2] * vartheta_spec[2] > MAX_SCAN_CELLS:
        raise ValueError(
            f"scan grid of {theta_spec[2]} x {vartheta_spec[2]} cells exceeds {MAX_SCAN_CELLS}"
        )
    grid = scan_negativity(state, np.linspace(*theta_spec), np.linspace(*vartheta_spec))

    def result() -> dict:
        varthetas = grid.vartheta_values.tolist()
        rows = [
            (theta, vartheta, None if flagged else value, int(flagged))
            for theta, flags, values in zip(
                grid.theta_values.tolist(), grid.singular.tolist(), grid.min_values.tolist()
            )
            for vartheta, flagged, value in zip(varthetas, flags, values)
        ]
        return {"cells": _records(SCAN_CSV_HEADER, rows)}

    config = _echo("scan", opts, state, theta_grid=list(theta_spec), vartheta_grid=list(vartheta_spec))
    return _Report(config, result, grid.to_csv)


# ---------------------------------------------------------------------------
# parser assembly and the entry point

_COMMON = ("state", "state_form", "format", "output", "config")
_ANGLE = ("theta", "vartheta", "degrees", "mode", "phi_points")

#: command -> (handler, help, its options after _COMMON, in --help order)
_COMMANDS = {
    "exact": (cmd_exact, "exact statistics of the bare state", ("phi_points",)),
    "operational": (cmd_operational, "the measured joint distribution", _ANGLE),
    "invert": (cmd_invert, "the reconstructed quasi joint", _ANGLE),
    "sample": (cmd_sample, "finite-shot simulation and estimation", _ANGLE + ("n", "seed", "shots_out")),
    "scan": (cmd_scan, "negativity scan over an angle grid", ("theta_grid", "vartheta_grid", "degrees")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasijoint",
        description="Joint path/fringe statistics of a marked double-slit "
        "interferometer and their inversion to quasi-probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in _COMMON + options:
            p.add_argument("--" + name.replace("_", "-"), **_OPTIONS[name][2])
        p.set_defaults(handler=handler)
    return parser


#: the parser ``main`` reuses: built on the first call, not at import.  Parsing
#: leaves it unchanged (no mutable defaults, no append actions, and help reads
#: the terminal width only when it is formatted), so reuse changes no output
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        report = args.handler(args)
        config = report.config
        if config["format"] == "json":
            text = render_json(
                {"command": config["command"], "config": config, "result": report.result()}
            )
        else:
            text = render_csv(report)
        if config["output"]:
            Path(config["output"]).write_text(text)
        else:
            sys.stdout.write(text)
        return 0
    except SingularInversion as exc:
        print(f"error: singular configuration: {exc}", file=sys.stderr)
        return 3
    except (StateValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
