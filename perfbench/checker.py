"""Independent output checks, run outside the timed span.

Nothing here imports quasijoint.  Measured joints are checked against a
direct Born-rule projection of the marked state; reconstructed joints and
scan minima against the closed form [1 + x*delta(z)<X> + z<Z>]/4 (and its
phase twin), with delta computed here from the marking and analyzer angles.
``check`` returns None for a correct output and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
SINGULARITY_EPS = 1e-9
BORN_TOL = 1e-12
QUASI_TOL = 1e-10
SCAN_RTOL = 1e-12
SHOTS_SIGMAS = 6.0
ESTIMATE_SIGMAS = 5.0
SCAN_HEADER = "theta,vartheta,min_value,flag"


class CheckFailed(Exception):
    pass


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(got, want, tol: float, what: str) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want), initial=0.0))
    _require(err <= tol, f"{what}: off by {err:.3e} > {tol:.1e}")


# ---------------------------------------------------------------------------
# reference algebra


def bloch(alpha: complex, beta: complex) -> tuple[float, float, float]:
    cross = alpha.conjugate() * beta
    return 2.0 * cross.real, 2.0 * cross.imag, abs(alpha) ** 2 - abs(beta) ** 2


def _marked_amplitudes(alpha, beta, theta, vartheta):
    """Per analyzer outcome z: (u, v), the upper- and lower-path amplitudes after the analyzer."""
    analyzer = {1: (math.cos(vartheta), math.sin(vartheta)), -1: (-math.sin(vartheta), math.cos(vartheta))}
    upper = (alpha * math.cos(theta), alpha * math.sin(theta))  # spin (right, up)
    lower = (beta, 0.0)
    return {z: (a[0] * upper[0] + a[1] * upper[1], a[0] * lower[0] + a[1] * lower[1]) for z, a in analyzer.items()}


def born_discrete(alpha, beta, theta, vartheta) -> dict:
    """P(x, z) = |<a_z| (psi_upper + x psi_lower)/sqrt(2)|^2."""
    amps = _marked_amplitudes(alpha, beta, theta, vartheta)
    return {(x, z): abs((u + x * v) / math.sqrt(2.0)) ** 2 for x in (1, -1) for z, (u, v) in amps.items()}


def born_phase(alpha, beta, theta, vartheta, phi) -> dict:
    """Phase density per z on a phi grid: |<a_z| (psi_upper + e^{-i phi} psi_lower)|^2 / (2 pi)."""
    amps = _marked_amplitudes(alpha, beta, theta, vartheta)
    phase = np.exp(-1j * np.asarray(phi, dtype=float))
    return {z: np.abs(u + phase * v) ** 2 / TWO_PI for z, (u, v) in amps.items()}


def born_phase_triples(alpha, beta, theta, vartheta) -> dict:
    """Fourier triple (c0, c_cos, c_sin) per z of the Born phase density."""
    out = {}
    for z, (u, v) in _marked_amplitudes(alpha, beta, theta, vartheta).items():
        w = u.conjugate() * v
        out[z] = ((abs(u) ** 2 + abs(v) ** 2) / TWO_PI, 2.0 * w.real / TWO_PI, 2.0 * w.imag / TWO_PI)
    return out


def delta(theta: float, vartheta: float):
    """(delta(+1), delta(-1)), the documented limit (1, 1) at theta = 0, or None on a singular line."""
    if theta == 0.0:
        return 1.0, 1.0
    den_x = math.cos(theta)
    den_z = math.sin(2.0 * vartheta - theta)
    if abs(den_x) <= SINGULARITY_EPS or abs(den_z) <= SINGULARITY_EPS:
        return None
    den = den_x * den_z
    return math.sin(2.0 * vartheta) / den, math.sin(2.0 * (vartheta - theta)) / den


def quasi_discrete(ex, ez, d) -> dict:
    return {(x, z): 0.25 * (1.0 + x * d[0 if z == 1 else 1] * ex + z * ez) for x in (1, -1) for z in (1, -1)}


def quasi_phase_triples(ex, ey, ez, d) -> dict:
    four_pi = 2.0 * TWO_PI
    return {z: ((1.0 + z * ez) / four_pi, dz * ex / four_pi, dz * ey / four_pi) for z, dz in zip((1, -1), d)}


def exact_negative_mass(c0: float, c_cos: float, c_sin: float) -> float:
    """Integral over a period of the negative part of c0 + c_cos cos(phi) + c_sin sin(phi), c0 >= 0."""
    amplitude = math.hypot(c_cos, c_sin)
    if amplitude <= c0:
        return 0.0
    return 2.0 * (math.sqrt(amplitude * amplitude - c0 * c0) - c0 * math.acos(c0 / amplitude))


# ---------------------------------------------------------------------------
# per-workload checks


def check_scan(req: dict, stdout: str) -> None:
    lines = stdout.split("\n")
    _require(lines[-1] == "", "report does not end with a newline")
    lines.pop()
    _require(lines[0] == "# command=scan", "first line is not '# command=scan'")
    head = next((i for i, line in enumerate(lines) if not line.startswith("# ")), None)
    _require(head is not None and lines[head] == SCAN_HEADER, "missing scan CSV header")
    thetas = np.linspace(*req["theta_grid"])
    varthetas = np.linspace(*req["vartheta_grid"])
    rows = lines[head + 1 :]
    _require(len(rows) == thetas.size * varthetas.size, f"{len(rows)} rows for a {thetas.size}x{varthetas.size} grid")
    fields = [row.split(",") for row in rows]
    _require(all(len(f) == 4 for f in fields), "row without exactly 4 fields")
    cols = list(zip(*fields))
    theta_grid, vartheta_grid = np.meshgrid(thetas, varthetas, indexing="ij")
    _require(np.array_equal(np.array(cols[0], dtype=float), theta_grid.ravel()), "theta column differs from the grid")
    _require(np.array_equal(np.array(cols[1], dtype=float), vartheta_grid.ravel()), "vartheta column differs")

    ex, _, ez = bloch(*req["state"])
    t, v = theta_grid.ravel(), vartheta_grid.ravel()
    den_x = np.cos(t)
    den_z = np.sin(2.0 * v - t)
    zero = t == 0.0
    singular = ~zero & ((np.abs(den_x) <= SINGULARITY_EPS) | (np.abs(den_z) <= SINGULARITY_EPS))
    with np.errstate(divide="ignore", invalid="ignore"):
        d_plus = np.where(zero, 1.0, np.sin(2.0 * v) / (den_x * den_z))
        d_minus = np.where(zero, 1.0, np.sin(2.0 * (v - t)) / (den_x * den_z))
    want = np.minimum(1.0 + ez - np.abs(d_plus * ex), 1.0 - ez - np.abs(d_minus * ex)) / 4.0
    flags = np.array(cols[3])
    _require(np.all((flags == "0") | (flags == "1")), "flag not 0/1")
    _require(np.array_equal(flags == "1", singular), f"singular flags differ at {int(np.sum((flags == '1') != singular))} cells")
    values = np.array(cols[2])
    _require(np.all(values[singular] == ""), "flagged cell carries a value")
    got = np.array(values[~singular], dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(d_plus * ex), np.abs(d_minus * ex)))[~singular]
    err = np.abs(got - want[~singular]) / scale
    _require(np.all(err <= SCAN_RTOL), f"min_value off by {float(np.max(err)):.3e} (relative to scale)")


def check_shots(req: dict, stdout: str, shots_path: Path) -> None:
    report = json.loads(stdout)["result"]
    n = req["n"]
    text = shots_path.read_text()
    _require(text.startswith("phi,z\n"), "shots CSV header is not 'phi,z'")
    _require(text.endswith("\n") and text.count("\n") == n + 1, f"shots CSV has {text.count(chr(10)) - 1} rows, want {n}")
    data = np.loadtxt(shots_path, delimiter=",", skiprows=1, ndmin=2)
    _require(data.shape == (n, 2), f"shots CSV parses to shape {data.shape}")
    phi, z = data[:, 0], data[:, 1]
    _require(np.all((phi >= 0.0) & (phi < TWO_PI)), "phi outside [0, 2*pi)")
    _require(np.all((z == 1.0) | (z == -1.0)), "z not +/-1")
    counts = report["slice_counts"]
    _require(int(np.sum(z == 1.0)) == counts["plus"] and int(np.sum(z == -1.0)) == counts["minus"],
             "slice counts differ from the shots file")
    truth = born_phase_triples(*req["state"], req["theta"], req["vartheta"])
    for est in report["harmonic_estimates"]:
        outcome = est["z"]
        sel = phi[z == outcome]
        from_file = (sel.size / (TWO_PI * n), np.sum(np.cos(sel)) / (math.pi * n), np.sum(np.sin(sel)) / (math.pi * n))
        got = (est["c0"], est["c_cos"], est["c_sin"])
        _close(got, from_file, 1e-9 * max(1.0, float(np.max(np.abs(from_file)))), f"z={outcome} estimates vs shots file")
        c0, cc, cs = truth[outcome]
        p = TWO_PI * c0
        sigma = (
            math.sqrt(p * (1.0 - p) / n) / TWO_PI,
            math.sqrt(max(c0 / math.pi - cc * cc, 0.0) / n),
            math.sqrt(max(c0 / math.pi - cs * cs, 0.0) / n),
        )
        for name, g, t, s in zip(("c0", "c_cos", "c_sin"), got, truth[outcome], sigma):
            _require(abs(g - t) <= SHOTS_SIGMAS * s + 1e-15, f"z={outcome} {name} is {abs(g - t) / s:.1f} sigma off")


def _cells(values: list) -> dict:
    return {(cell["x"], cell["z"]): cell["value"] for cell in values}


def _slices(slices: list) -> dict:
    return {s["z"]: (s["c0"], s["c_cos"], s["c_sin"]) for s in slices}


def _check_binary(dist: dict, plus: float, tol: float, what: str) -> None:
    _close((dist["plus"], dist["minus"]), (plus, 1.0 - plus), tol, what)


def check_ensemble(req: dict, code: int, stdout: str, stderr: str, workdir: Path, stats: dict) -> None:
    kind = req["kind"]
    if kind == "golden":
        _require(code == 0, f"exit {code}")
        golden = Path(req["golden_dir"])
        _require(stdout.encode() == (golden / req["stdout_golden"]).read_bytes(), f"{req['name']}: stdout differs from golden")
        for produced, frozen in req["file_goldens"].items():
            _require((workdir / produced).read_bytes() == (golden / frozen).read_bytes(), f"{req['name']}: {produced} differs")
        return
    if kind == "singular":
        _require(code == 3, f"singular configuration exited {code}, want 3")
        _require(stdout == "" and stderr.startswith("error: singular configuration"), "singular exit without its diagnostic")
        return
    _require(code == 0, f"exit {code}: {stderr.strip()[:120]}")
    _require(stderr == "", "unexpected stderr")
    result = json.loads(stdout)["result"]
    alpha, beta = req["state"]
    theta, vartheta = req["theta"], req["vartheta"]
    ex, ey, ez = bloch(alpha, beta)
    if kind == "operational_discrete":
        want = born_discrete(alpha, beta, theta, vartheta)
        got = _cells(result["joint"]["values"])
        _require(got.keys() == want.keys(), "joint cells")
        _close([got[k] for k in want], list(want.values()), BORN_TOL, "operational joint vs Born")
        _check_binary(result["marginal_x"], want[(1, 1)] + want[(1, -1)], BORN_TOL, "marginal_x")
        _check_binary(result["marginal_z"], want[(1, 1)] + want[(-1, 1)], BORN_TOL, "marginal_z")
    elif kind == "operational_phase":
        want = born_phase_triples(alpha, beta, theta, vartheta)
        got = _slices(result["joint"]["slices"])
        _close([got[z] for z in (1, -1)], [want[z] for z in (1, -1)], BORN_TOL, "operational phase slices vs Born")
        grid = result["phase_grid"]
        born = born_phase(alpha, beta, theta, vartheta, grid["phi"])
        _close(grid["phi"], np.linspace(0.0, TWO_PI, len(grid["phi"]), endpoint=False), 1e-12, "phase grid")
        _close(grid["plus"], born[1], BORN_TOL, "phase grid z=+1 vs Born")
        _close(grid["minus"], born[-1], BORN_TOL, "phase grid z=-1 vs Born")
    elif kind in ("invert_discrete", "invert_phase", "sample_discrete"):
        d = delta(theta, vartheta)
        _require(d is not None, "generator produced a singular configuration")
        scale = max(1.0, abs(d[0]), abs(d[1]))
        if kind == "sample_discrete":
            want = quasi_discrete(ex, ez, d)
            counts = {(c["x"], c["z"]): c["count"] for c in result["counts"]}
            _require(sum(counts.values()) == req["n"] and min(counts.values()) >= 0, "counts do not sum to n")
            estimates = {(e["x"], e["z"]): (e["value"], e["stderr"]) for e in result["estimate"]}
            _require(estimates.keys() == want.keys(), "estimate cells")
            _require(abs(sum(v for v, _ in estimates.values()) - 1.0) <= 1e-12, "estimate not normalised")
            for key, (value, se) in estimates.items():
                _require(se > 0.0 and abs(value - want[key]) <= ESTIMATE_SIGMAS * se,
                         f"estimate {key} is {abs(value - want[key]) / se:.1f} stderr off")
            return
        _close((result["delta"]["plus"], result["delta"]["minus"]), d, QUASI_TOL * scale, "delta")
        negativity = result["negativity"]
        if kind == "invert_discrete":
            want = quasi_discrete(ex, ez, d)
            got = _cells(result["joint"]["values"])
            _close([got[k] for k in want], list(want.values()), QUASI_TOL * scale, "quasi joint vs closed form")
            argmin = min(want, key=want.get)
            _close(negativity["min_value"], want[argmin], QUASI_TOL * scale, "negativity min_value")
            _require((negativity["argmin"]["x"], negativity["argmin"]["z"]) == argmin, "negativity argmin")
            _close(negativity["total_negativity"], sum(max(0.0, -v) for v in want.values()), QUASI_TOL * scale,
                   "total_negativity")
        else:
            want = quasi_phase_triples(ex, ey, ez, d)
            got = _slices(result["joint"]["slices"])
            _close([got[z] for z in (1, -1)], [want[z] for z in (1, -1)], QUASI_TOL * scale, "quasi phase slices")
            mins = {z: c0 - math.hypot(cc, cs) for z, (c0, cc, cs) in want.items()}
            _close(negativity["min_value"], min(mins.values()), QUASI_TOL * scale, "phase negativity min_value")
            grid = result["phase_grid"]
            phi = np.asarray(grid["phi"])
            for z, name in ((1, "plus"), (-1, "minus")):
                c0, cc, cs = want[z]
                _close(grid[name], c0 + cc * np.cos(phi) + cs * np.sin(phi), QUASI_TOL * scale, f"quasi grid {name}")
            # a quality readout, not a gate: the reported negative mass against its closed form
            exact = sum(exact_negative_mass(*want[z]) for z in (1, -1))
            err = abs(negativity["total_negativity"] - exact)
            stats["total_negativity_abs_err_max"] = max(stats.get("total_negativity_abs_err_max", 0.0), err)
    else:
        raise CheckFailed(f"unknown request kind {kind!r}")


def check(req: dict, code: int, stdout: str, stderr: str, workdir: Path, stats: dict) -> str | None:
    """Verdict on one request's output: None when correct, else the reason."""
    try:
        if req["kind"] == "scan":
            _require(code == 0, f"exit {code}: {stderr.strip()[:120]}")
            check_scan(req, stdout)
        elif req["kind"] == "shots":
            _require(code == 0, f"exit {code}: {stderr.strip()[:120]}")
            check_shots(req, stdout, workdir / req["files"][0])
        else:
            check_ensemble(req, code, stdout, stderr, workdir, stats)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:  # malformed or missing output
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
