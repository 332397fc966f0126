"""Span tracing of the quasijoint layers from outside the package.

``Tracer.install`` rebinds every public function of the six package modules
(and the two CSV writers) in each module that holds a reference to it, so
calls between modules and within one module both pass through a wrapper.
``cli.main`` and the ``cli.cmd_*`` handlers are left alone: the request span
that the worker opens around ``main(argv)`` stands for them, so its self time
is the CLI glue that no other span covers (argparse, report assembly, writes).

A span is (name, start, end, parent, request).  Spans stay in memory, in
compact arrays, until the worker writes them out at the end of the run;
``summarize`` then turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("states", "marking", "inversion", "analysis", "sampling", "cli")
METHODS = (("analysis", "ScanGrid", "to_csv"), ("sampling", "PhaseShots", "to_csv"))
REQUEST = "cli.request"


def _count_scan(counters, site, args, kwargs, result) -> None:
    counters["analysis.scan.cells"] += result.min_values.size
    counters["analysis.scan.singular_cells"] += int(result.singular.sum())


def _count_density_points(counters, site, args, kwargs, result) -> None:
    points = int(np.size(args[1] if len(args) > 1 else kwargs["phi"]))
    counters["states.evaluate_phase_density.points"] += points
    if site == "sampling":  # the rejection sampler's candidate draws
        counters["sampling.reject.candidates"] += points


def _count_bytes(name):
    def hook(counters, site, args, kwargs, result) -> None:
        counters[f"{name}.bytes"] += len(result)
    return hook


def _count_phase_csv(counters, site, args, kwargs, result) -> None:
    counters["sampling.PhaseShots.to_csv.bytes"] += len(result)
    counters["sampling.PhaseShots.to_csv.shots"] += args[0].total


def _count_sample_phase(counters, site, args, kwargs, result) -> None:
    counters["sampling.sample_phase.shots"] += result.total


def _count_harmonic(counters, site, args, kwargs, result) -> None:
    counters["sampling.harmonic_estimates.shots"] += args[0].total


#: counters read off a call's arguments or result, after its span has closed
HOOKS = {
    "analysis.scan_negativity": _count_scan,
    "states.evaluate_phase_density": _count_density_points,
    "analysis.ScanGrid.to_csv": _count_bytes("analysis.ScanGrid.to_csv"),
    "cli.render_json": _count_bytes("cli.render_json"),
    "sampling.PhaseShots.to_csv": _count_phase_csv,
    "sampling.sample_phase": _count_sample_phase,
    "sampling.harmonic_estimates": _count_harmonic,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (used after warm-up)."""
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("i")
        self.request = array("I")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._request_id = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.request.append(self._request_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def begin_request(self) -> int:
        self._request_id += 1
        return self.open(self._name_id(REQUEST))

    def _wrap(self, fn, span: str, site: str, singular_type):
        name_id = self._name_id(span)
        hook = HOOKS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except singular_type as exc:
                if not getattr(exc, "_perfbench_counted", False):  # count at the raising layer only
                    exc._perfbench_counted = True
                    self.counters["inversion.singular.raised"] += 1
                raise
            finally:
                self.close(index)
            if hook is not None:
                hook(self.counters, site, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {short: importlib.import_module(f"quasijoint.{short}") for short in MODULES}
        sites = dict(modules, quasijoint=importlib.import_module("quasijoint"))
        singular_type = modules["inversion"].SingularInversion
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if short == "cli" and (attr == "main" or attr.startswith("cmd_")):
                    continue
                for site_name, site in sites.items():
                    if getattr(site, attr, None) is fn:
                        setattr(site, attr, self._wrap(fn, f"{short}.{attr}", site_name, singular_type))
        for short, cls_name, method in METHODS:
            cls = getattr(modules[short], cls_name)
            fn = cls.__dict__[method]
            setattr(cls, method, self._wrap(fn, f"{short}.{cls_name}.{method}", short, singular_type))

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.uint32),
        )


# ---------------------------------------------------------------------------
# analysis (benchmark side)


class Spans:
    """Loaded spans with durations, self times and group-level busy times."""

    def __init__(self, path) -> None:
        with np.load(path) as data:
            self.names = list(data["names"])
            self.name = data["name"].astype(np.int64)
            self.parent = data["parent"].astype(np.int64)
            self.duration = data["end"] - data["start"]
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=self.duration[has_parent], minlength=self.name.size)
        self.self_time = self.duration - covered
        self._index = {n: i for i, n in enumerate(self.names)}

    def _members(self, names) -> np.ndarray:
        ids = [self._index[n] for n in names if n in self._index]
        return np.isin(self.name, ids)

    def calls(self, *names) -> int:
        return int(np.sum(self._members(names)))

    def busy(self, *names) -> float:
        """Time inside any span of the group, counting nested group spans once."""
        member = self._members(names)
        nested = np.zeros_like(member)
        ancestor = self.parent.copy()
        while np.any(ancestor >= 0):
            live = ancestor >= 0
            nested[live] |= member[ancestor[live]]
            ancestor[live] = self.parent[ancestor[live]]
        return float(np.sum(self.duration[member & ~nested]))

    def self_s(self, name: str) -> float:
        return float(np.sum(self.self_time[self._members([name])]))


def summarize(spans: Spans, counters: dict) -> dict:
    """Per-layer metrics as {name: (value, unit)}; per-request figures average over traced requests."""
    requests = spans.calls(REQUEST)
    per = 1.0 / max(requests, 1)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    cells = counters.get("analysis.scan.cells", 0.0)
    shots_sampled = counters.get("sampling.sample_phase.shots", 0.0)
    return {
        "cli.parse.busy_s": (spans.busy("cli.build_parser", "cli.resolve_options", "cli.parse_state", "cli.parse_grid") * per, "s/req"),
        "cli.render_json.busy_s": (spans.busy("cli.render_json") * per, "s/req"),
        "cli.render_json.bytes": (counters.get("cli.render_json.bytes", 0.0) * per, "B/req"),
        "cli.format_float.calls": (spans.calls("cli.format_float") * per, "calls/req"),
        "cli.request.self_s": (spans.self_s(REQUEST) * per, "s/req"),
        "cli.request.busy_s": (spans.busy(REQUEST) * per, "s/req"),
        "states.bloch_from_state.calls": (spans.calls("states.bloch_from_state") * per, "calls/req"),
        "states.bloch_from_state.busy_s": (spans.busy("states.bloch_from_state") * per, "s/req"),
        "states.evaluate_phase_density.points": (counters.get("states.evaluate_phase_density.points", 0.0) * per, "points/req"),
        "marking.gamma_coefficients.calls": (spans.calls("marking.gamma_coefficients") * per, "calls/req"),
        "marking.operational_joint.calls": (spans.calls("marking.operational_joint_discrete", "marking.operational_joint_phase") * per, "calls/req"),
        "marking.operational_joint.busy_s": (spans.busy("marking.operational_joint_discrete", "marking.operational_joint_phase") * per, "s/req"),
        "inversion.delta_coefficients.calls": (spans.calls("inversion.delta_coefficients") * per, "calls/req"),
        "inversion.quasi_joint_closed_form.calls": (spans.calls("inversion.quasi_joint_closed_form") * per, "calls/req"),
        "inversion.quasi_joint_closed_form.busy_s": (spans.busy("inversion.quasi_joint_closed_form") * per, "s/req"),
        "inversion.quasi_joint_phase_closed_form.busy_s": (spans.busy("inversion.quasi_joint_phase_closed_form") * per, "s/req"),
        "inversion.invert_joint_discrete.busy_s": (spans.busy("inversion.invert_joint_discrete") * per, "s/req"),
        "inversion.singular.raised": (counters.get("inversion.singular.raised", 0.0) * per, "count/req"),
        "analysis.negativity_of.calls": (spans.calls("analysis.negativity_of") * per, "calls/req"),
        "analysis.negativity_of.busy_s": (spans.busy("analysis.negativity_of") * per, "s/req"),
        "analysis.scan_negativity.busy_s": (spans.busy("analysis.scan_negativity") * per, "s/req"),
        "analysis.scan_negativity.self_s": (spans.self_s("analysis.scan_negativity") * per, "s/req"),
        "analysis.scan_negativity.us_per_cell": (ratio(spans.busy("analysis.scan_negativity") * 1e6, cells), "us"),
        "analysis.scan_negativity.request_share": (ratio(spans.busy("analysis.scan_negativity"), spans.busy(REQUEST)), "ratio"),
        "analysis.scan.valid_cell_ratio": (ratio(cells - counters.get("analysis.scan.singular_cells", 0.0), cells), "ratio"),
        "analysis.ScanGrid.to_csv.busy_s": (spans.busy("analysis.ScanGrid.to_csv") * per, "s/req"),
        "analysis.ScanGrid.to_csv.bytes": (counters.get("analysis.ScanGrid.to_csv.bytes", 0.0) * per, "B/req"),
        "sampling.sample_discrete.busy_s": (spans.busy("sampling.sample_discrete") * per, "s/req"),
        "sampling.estimate_quasi_joint.busy_s": (spans.busy("sampling.estimate_quasi_joint") * per, "s/req"),
        "sampling.sample_phase.ns_per_shot": (ratio(spans.busy("sampling.sample_phase") * 1e9, shots_sampled), "ns"),
        # candidates are all phases the sampler evaluated, so its over-drawing (twice the
        # shortfall per round) counts as waste, not only the rejected draws
        "sampling.reject.accept_ratio": (ratio(shots_sampled, counters.get("sampling.reject.candidates", 0.0)), "ratio"),
        "sampling.harmonic_estimates.ns_per_shot": (
            ratio(spans.busy("sampling.harmonic_estimates") * 1e9, counters.get("sampling.harmonic_estimates.shots", 0.0)), "ns"),
        "sampling.PhaseShots.to_csv.ns_per_shot": (
            ratio(spans.busy("sampling.PhaseShots.to_csv") * 1e9, counters.get("sampling.PhaseShots.to_csv.shots", 0.0)), "ns"),
        "sampling.PhaseShots.to_csv.bytes": (counters.get("sampling.PhaseShots.to_csv.bytes", 0.0) * per, "B/req"),
    }
