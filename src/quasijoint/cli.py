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
it with ``render_json`` or ``render_csv`` and writes the UTF-8 bytes to the
``--output`` file or to the binary buffer of ``sys.stdout``.

Exit codes: 0 success, 2 invalid input, 3 singular inversion configuration.
Inputs above the size caps below are invalid input, rejected before anything
is allocated.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import sys
from gettext import gettext
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from quasijoint._table import SIGNS, Arrays, Coded, Table
from quasijoint.analysis import negativity_of, scan_negativity
from quasijoint.inversion import (
    SingularInversion,
    _config_delta,
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
from quasijoint.sampling import _check_draw, _phase_blocks, _phase_pass, estimate_quasi_joint, sample_discrete
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
#: most shots of a phase-mode sample.  Memory stays flat in the count, so the
#: cap guards time (about 0.25 us per exported shot) and disk (about 26 B per shot)
MAX_PHASE_SHOTS = 10_000_000
#: the x and z columns of a discrete table, rows in ``DiscreteJoint.items()`` order
_X, _Z = Coded(SIGNS, np.array([1, 1, -1, -1])), Coded(SIGNS, np.array([1, -1, 1, -1]))


# ---------------------------------------------------------------------------
# number formatting and report rendering


class _Report(NamedTuple):
    """A command's config echo, JSON ``result``, built only for JSON, and CSV ``table``.
    The optional ``(label, fields)`` note prints as ``# label key=value ...`` before the table."""

    config: dict
    result: Callable[[], dict]
    table: Table
    note: tuple[str, dict] | None = None


def format_float(value: float) -> str:
    """Fixed scientific notation, 17 significant digits: byte-stable and round-trip exact."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"refusing to print non-finite value {value!r}")
    return f"{value:.16e}"


def _json_pieces(value, level: int, pieces: list[str]) -> None:
    """Append the JSON text of ``value`` at nesting ``level`` to ``pieces``: dicts, lists and tuples
    nest, and a ``Table`` (a list of records) or ``Arrays`` (an object of lists) is rendered block by block."""
    if isinstance(value, float):
        pieces.append(format_float(value))
    elif isinstance(value, str):
        pieces.append(encode_basestring(value))
    elif isinstance(value, bool):
        pieces.append("true" if value else "false")
    elif value is None:
        pieces.append("null")
    elif isinstance(value, int):
        pieces.append(str(value))
    elif isinstance(value, Table):  # NamedTuples, so before the tuples
        pieces += value.json_records(level)
    elif isinstance(value, Arrays):  # raises for the first non-finite value
        pieces += value.json_object(level)
    elif isinstance(value, (dict, list, tuple)):
        brackets = "{}" if isinstance(value, dict) else "[]"
        if not value:
            pieces.append(brackets)
            return
        pad = "  " * (level + 1)
        keys = [f'{pad}"{key}": ' for key in value] if isinstance(value, dict) else itertools.repeat(pad)
        opener = brackets[0] + "\n"
        for key, item in zip(keys, value.values() if isinstance(value, dict) else value):
            pieces.append(opener + key)
            _json_pieces(item, level + 1, pieces)
            opener = ",\n"
        pieces.append("\n" + "  " * level + brackets[1])
    else:
        raise TypeError(f"cannot render {type(value).__name__} in a report")


def _render_json_value(value, level: int) -> str:
    pieces: list[str] = []
    _json_pieces(value, level, pieces)
    return "".join(pieces)


def render_json(report: dict) -> str:
    return _render_json_value(report, 0) + "\n"


def _csv_text(value) -> str:
    """A config value as CSV text: list items joined by ",", None empty, a string JSON-escaped unquoted."""
    if isinstance(value, list):
        return ",".join(map(_csv_text, value))
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return encode_basestring(value)[1:-1]
    return "" if value is None else str(value)


def render_csv(report: _Report) -> Iterable[bytes]:
    """``# key=value`` config lines, the optional note line, then the table's blocks, as UTF-8 bytes."""
    lines = [f"# {key}={_csv_text(value)}" for key, value in report.config.items()]
    if report.note:
        label, fields = report.note
        lines.append(f"# {label} " + " ".join(f"{key}={_csv_text(v)}" for key, v in fields.items()))
    head = "".join(line + "\n" for line in lines).encode("utf-8")
    return itertools.chain([head], report.table.csv_blocks())


def _write(path: str | None, blocks: Iterable[bytes]) -> None:
    """Write the blocks to the file at ``path``, or to the binary buffer of ``sys.stdout`` if none."""
    if path:
        with open(path, "wb") as handle:
            handle.writelines(blocks)
    else:
        sys.stdout.flush()  # text already written keeps its place before the blocks
        if hasattr(sys.stdout, "buffer"):
            sys.stdout.buffer.writelines(blocks)
        else:  # a text-only stream such as io.StringIO; every block ends on a whole character
            sys.stdout.writelines(block.decode("utf-8") for block in blocks)


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
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
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
        if not all(map(math.isfinite, parts[1::2])):
            raise ValueError(f"state {spec!r} needs finite phases")
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
    raw ones, without the input-only ``state_form`` and ``degrees``.

    Every echoed string must encode as UTF-8, checked here, before a command
    opens any file, so that a report that cannot be written leaves none.
    """
    parsed["state"] = [state.alpha.real, state.alpha.imag, state.beta.real, state.beta.imag]
    shown = {k: parsed.get(k, v) for k, v in opts.items() if k not in ("state_form", "degrees")}
    echo = {"command": command, **shown}
    for key, value in echo.items():
        try:
            if isinstance(value, str):
                value.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"--{key.replace('_', '-')} {value!r} cannot be written as UTF-8") from None
    return echo


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


def _density_grid(points: int, **densities) -> Arrays:
    phi = phase_grid(points)
    return Arrays(("phi", *densities), (phi, *(evaluate_phase_density(d, phi) for d in densities.values())))


def _slices(names: Sequence[str], table: np.ndarray, *coded: Coded) -> Table:
    """One row per slice z = +1, -1: z, the ``coded`` columns, then the (2, 3) ``table``'s c0, c_cos and c_sin."""
    return Table(names, (Coded((1, -1)), *coded, *table.T))


def _joint_report(config: dict, joint, first: dict, last: dict, note=None) -> _Report:
    """A discrete or phase joint with its marginals.

    JSON: the joint, the command's ``first`` fields, the marginals, its ``last``
    fields and, for a phase joint, the density grid.  CSV: one row per cell or slice.
    """
    discrete = config["mode"] == DISCRETE_MODE
    if discrete:
        table = Table(("x", "z", "value"), (_X, _Z, joint.table.ravel()))
    else:
        table = _slices(("z", "c0", "c_cos", "c_sin"), joint.table)

    def result() -> dict:
        fields = {"joint": {"kind": joint.kind, "values" if discrete else "slices": table}, **first}
        if discrete:
            fields["marginal_x"] = _binary_dict(marginal_x(joint))
            fields["marginal_z"] = _binary_dict(marginal_z(joint))
        else:
            fields["marginal_phase"] = _density_dict(marginal_phase(joint))
            fields["marginal_z"] = _binary_dict(marginal_z_of_phase(joint))
        fields.update(last)
        points = 0 if discrete else config["phi_points"]
        if points:
            fields["phase_grid"] = _density_grid(points, plus=joint.for_z(1), minus=joint.for_z(-1))
        return fields

    return _Report(config, result, table, note)


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

    rows = {
        "ex": bloch.ex, "ey": bloch.ey, "ez": bloch.ez,
        "path_plus": path.p_plus, "path_minus": path.p_minus,
        "interference_plus": fringe.p_plus, "interference_minus": fringe.p_minus,
        "phase_c0": density.c0, "phase_c_cos": density.c_cos, "phase_c_sin": density.c_sin,
    }
    table = Table(("quantity", "value"), (Coded(list(rows)), np.array(list(rows.values()))))
    return _Report(_echo("exact", opts, state), result, table)


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
    delta = _config_delta(marker)  # singular configs raised above
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
        values, stderrs = estimate.joint.table.ravel(), estimate.stderrs.ravel()
        table = Table(("x", "z", "value", "stderr"), (_X, _Z, values, stderrs))
        counts = Table(("x", "z", "count"), (_X, _Z, Coded(shots.counts.ravel().tolist())))
        if opts["shots_out"]:
            _write(opts["shots_out"], counts.csv_blocks())

        def result() -> dict:
            return {"counts": counts, "estimate": table}

    else:
        joint = operational_joint_phase(state, marker)
        _check_draw(joint, opts["n"])  # a rejected run leaves no --shots-out file
        with open(opts["shots_out"], "wb") if opts["shots_out"] else contextlib.nullcontext() as handle:
            counts, estimates = _phase_pass(_phase_blocks(joint, opts["n"], opts["seed"]), handle)
        table = _slices(("z", "count", "c0_hat", "c_cos_hat", "c_sin_hat"), estimates, Coded(counts))

        def result() -> dict:
            return {
                "slice_counts": {"plus": counts[0], "minus": counts[1]},
                "harmonic_estimates": _slices(("z", "c0", "c_cos", "c_sin"), estimates),
            }

    return _Report(config, result, table)


def cmd_scan(args: argparse.Namespace) -> _Report:
    opts = resolve_options(args, ("state", "theta_grid", "vartheta_grid"))
    state = parse_state(opts["state"], opts["state_form"])
    theta_spec = parse_grid(opts["theta_grid"], opts["degrees"])
    vartheta_spec = parse_grid(opts["vartheta_grid"], opts["degrees"])
    if theta_spec[2] * vartheta_spec[2] > MAX_SCAN_CELLS:
        raise ValueError(f"scan grid of {theta_spec[2]} x {vartheta_spec[2]} cells exceeds {MAX_SCAN_CELLS}")
    grid = scan_negativity(state, np.linspace(*theta_spec), np.linspace(*vartheta_spec))
    config = _echo("scan", opts, state, theta_grid=list(theta_spec), vartheta_grid=list(vartheta_spec))
    table = grid.table()
    return _Report(config, lambda: {"cells": table}, table)


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


def _parse(argv: Sequence[str] | None) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, with an argv that starts with a command word parsed once.

    The top-level parser would hand every word after it to the command's
    parser, so that parser alone parses it, and words it leaves raise the
    top-level parser's error.  Any other argv goes through the top-level parser.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in _COMMANDS:
        return parser.parse_args(argv)
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    args, extra = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extra))
    return args


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        report = args.handler(args)
        config = report.config
        if config["format"] == "json":
            text = render_json(
                {"command": config["command"], "config": config, "result": report.result()}
            )
            blocks = [text.encode("utf-8")]
        else:
            blocks = render_csv(report)
        _write(config["output"], blocks)
        return 0
    except SingularInversion as exc:
        print(f"error: singular configuration: {exc}", file=sys.stderr)
        return 3
    except (StateValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
