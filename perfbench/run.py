"""Benchmark of the quasijoint CLI: seeded closed-loop workloads, checked outputs.

Usage, from the root of a source checkout (quasijoint is imported from ./src):

    python3 perfbench/run.py --workload scan|shots|ensemble|all --seed N --seconds S --trace 0|1

Each workload runs in its own fresh serving process (perfbench/worker.py)
that calls ``quasijoint.cli.main(argv)`` one request at a time; the client
here waits for each report, checks it with perfbench/checker.py outside the
timed span, and only then sends the next request.  Warm-up requests are
neither timed nor checked.

--trace 0 reports the end-to-end metrics: set-up time of a fresh interpreter
(median over fresh processes, taken at even intervals between requests),
request latency median, 90th percentile and tail, work units per second and
the serving process's peak RSS.  Only the BOUNDED ones go into the result
line; the others are printed and kept with the result.  --trace 1 runs the
workload for half the time untraced and half traced, and reports per-layer
metrics from the spans plus the tracing overhead.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".perfbench_work"
STDOUT_FILE = "stdout.txt"
SETUP_RUNS = 15
IMPORTTIME_RUNS = 5
SETUP_CODE = "import time\nt = time.perf_counter()\nimport quasijoint.cli\nquasijoint.cli.build_parser()\nprint(time.perf_counter() - t)\n"
WARMUP = {"scan": 1, "shots": 1, "ensemble": 20}
UNIT = {"scan": "cells", "shots": "shots", "ensemble": "requests"}
#: enough requests that the tail percentile has ten samples beyond it
MIN_REQUESTS = 21
#: stop measuring after this long even if MIN_REQUESTS is not reached, so a run ends within 180 s
MAX_LOOP_S = 120.0
TAIL_BEYOND = 10
#: the end-to-end metrics BENCHMARK.json bounds.  On a shared host, other
#: tenants' load comes and goes within seconds, and the share of a run it
#: covers changes from run to run.  That moves the latency median and the
#: mean rate of a 30 s run by up to a quarter.  Nearly every run meets the
#: loaded state, so the 90th percentile moves about half as much.  The
#: tail beyond it, at 10 samples in 8000 on ensemble, can move by a quarter.
BOUNDED = ("setup_s", "request_p90_ms", "peak_rss_mb")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# provenance


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(ROOT / ".git" / ref)
        if not commit:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or "unknown"
    return head or "unknown (not a git checkout)"


def machine() -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read(Path("/proc/cpuinfo")).splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# set-up time


def _python(args: list[str], work: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=work, env=child_env(), capture_output=True,
                          text=True, timeout=60, check=True)


def setup_time(work: Path) -> float:
    """Import quasijoint.cli and build the parser in a fresh interpreter."""
    return float(_python(["-c", SETUP_CODE], work).stdout)


def import_times(work: Path) -> tuple[float, float]:
    """Median numpy import and quasijoint-without-numpy import, from python -X importtime."""
    numpy_s, package_s = [], []
    for _ in range(IMPORTTIME_RUNS):
        cumulative = {}
        for line in _python(["-X", "importtime", "-c", "import quasijoint.cli"], work).stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]) * 1e-6)
        numpy_s.append(cumulative["numpy"])
        package_s.append(cumulative["quasijoint.cli"] - cumulative["numpy"])
    return statistics.median(numpy_s), statistics.median(package_s)


# ---------------------------------------------------------------------------
# the serving process


class Worker:
    """One fresh serving process; the client side of its line protocol."""

    def __init__(self, work: Path, traced: bool) -> None:
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(SRC), "1" if traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=work, env=child_env(), text=True,
        )

    def call(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"serving process exited with code {self.proc.wait()}")
        return json.loads(line)

    def run(self, req: dict) -> tuple[dict, str]:
        stdout_path = self.work / STDOUT_FILE
        for name in [STDOUT_FILE, *req.get("files", ())]:
            (self.work / name).unlink(missing_ok=True)
        reply = self.call({"op": "run", "argv": req["argv"], "stdout": str(stdout_path)})
        return reply, stdout_path.read_text()

    def close(self) -> None:
        self.proc.stdin.close()  # end of input: a server that is still reading exits
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> Worker:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve(workload: str, seed: int, seconds: float, traced: bool, work: Path, limit: float = MAX_LOOP_S,
          setup: list[float] | None = None) -> dict:
    """Run one workload in a fresh serving process for ``seconds`` (at most ``limit``); check every report.

    With ``setup``, SETUP_RUNS set-up times are appended to it, taken between
    requests at even intervals, so that they meet the same host load as the
    requests do; the run is lengthened by the time they take.
    """
    stream = workloads.requests(workload, seed, ROOT)
    stats: dict = {}
    latencies: list[float] = []
    units = failed = 0
    problems: list[str] = []
    with Worker(work, traced) as worker:
        for _ in range(WARMUP[workload]):
            worker.run(next(stream))
        worker.call({"op": "reset"})
        if setup is not None:
            setup_time(work)  # warms the file cache only
        started = perf_counter()
        paused = 0.0
        while perf_counter() - started < limit and (
            perf_counter() - started - paused < seconds or len(latencies) < MIN_REQUESTS
        ):
            req = next(stream)
            reply, stdout = worker.run(req)
            problem = checker.check(req, reply["code"], stdout, reply["stderr"], work, stats)
            latencies.append(reply["latency_s"])
            if problem is None:
                units += req["units"]
            else:
                failed += 1
                problems.append(f"{req['kind']}: {problem}")
            due = min(SETUP_RUNS, SETUP_RUNS * (perf_counter() - started - paused) / seconds)
            if setup is not None and len(setup) < due:
                pause = perf_counter()
                setup.append(setup_time(work))
                paused += perf_counter() - pause
        while setup is not None and len(setup) < SETUP_RUNS:
            setup.append(setup_time(work))
        spans_path = work / "spans.npz"
        final = worker.call({"op": "finish", "spans": str(spans_path)})
    return {
        "latencies": latencies,
        "units": units,
        "failed": failed,
        "problems": problems,
        "peak_rss_kb": final["peak_rss_kb"],
        "counters": final["counters"],
        "spans": spans_path if traced else None,
        "stats": stats,
    }


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise RuntimeError(f"only {n} requests completed; the tail needs more than {TAIL_BEYOND}")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def units_per_s(run: dict) -> float:
    """Completed units per second the serving process spent on requests (checker pauses excluded)."""
    return run["units"] / sum(run["latencies"])


def end_to_end(workload: str, run: dict, setup: list[float]) -> tuple[dict, dict]:
    n = len(run["latencies"])
    tail_value, tail_pct = tail(run["latencies"])
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "request_p50_ms": (statistics.median(run["latencies"]) * 1e3, "ms", n),
        "request_p90_ms": (statistics.quantiles(run["latencies"], n=10)[-1] * 1e3, "ms", n),
        "request_tail_ms": (tail_value * 1e3, "ms", n),
        "units_per_s": (units_per_s(run), "units/s", n),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024.0, "MB", 1),
    }
    return metrics, {"unit": UNIT[workload], "tail_percentile": round(tail_pct, 3), "failed_frac": run["failed"] / n}


def per_layer(workload: str, base: dict, traced: dict, imports: tuple[float, float]) -> tuple[dict, dict]:
    requests = len(traced["latencies"])
    layers = tracing.summarize(tracing.Spans(traced["spans"]), traced["counters"])
    metrics = {name: (value, unit, requests) for name, (value, unit) in layers.items()}
    metrics["setup.import_numpy_s"] = (imports[0], "s", IMPORTTIME_RUNS)
    metrics["setup.import_quasijoint_s"] = (imports[1], "s", IMPORTTIME_RUNS)
    abs_err = max(base["stats"].get("total_negativity_abs_err_max", 0.0),
                  traced["stats"].get("total_negativity_abs_err_max", 0.0))
    metrics["analysis.total_negativity.abs_err_max"] = (abs_err, "abs", len(base["latencies"]) + requests)
    untraced_rate, traced_rate = units_per_s(base), units_per_s(traced)
    metrics["trace.overhead_units_per_s"] = (untraced_rate - traced_rate, "units/s", requests)
    metrics["trace.overhead_frac"] = ((untraced_rate - traced_rate) / untraced_rate, "ratio", requests)
    extra = {"unit": UNIT[workload], "untraced_units_per_s": untraced_rate, "traced_units_per_s": traced_rate,
             "untraced_requests": len(base["latencies"]), "traced_requests": requests}
    return metrics, extra


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / workload
    work.mkdir(parents=True, exist_ok=True)
    unbounded: dict = {}
    if trace:
        imports = import_times(work)
        base = serve(workload, seed, seconds / 2.0, False, work, MAX_LOOP_S / 2.0)
        traced = serve(workload, seed, seconds / 2.0, True, work, MAX_LOOP_S / 2.0)
        metrics, extra = per_layer(workload, base, traced, imports)
        runs = [base, traced]
    else:
        setup: list[float] = []
        run = serve(workload, seed, seconds, False, work, setup=setup)
        metrics, extra = end_to_end(workload, run, setup)
        unbounded = {name: metrics.pop(name) for name in list(metrics) if name not in BOUNDED}
        runs = [run]
    attempted = sum(len(r["latencies"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    return {"workload": workload, "metrics": metrics, "unbounded": unbounded, "extra": extra,
            "attempted": attempted, "failed": failed, "problems": problems}


def report(outcome: dict) -> None:
    print(f"== {outcome['workload']}: {outcome['attempted']} requests, {outcome['failed']} failed, "
          f"failed_frac {outcome['failed'] / outcome['attempted']:.6g}")
    for problem in outcome["problems"][:10]:
        print(f"   FAILED {problem}")
    for name, (value, unit, samples) in outcome["metrics"].items():
        print(f"   {name:48s} {value:>16.6g} {unit:12s} n={samples}")
    for name, (value, unit, samples) in outcome["unbounded"].items():
        print(f"   {name:48s} {value:>16.6g} {unit:12s} n={samples} (printed, not bounded)")
    print("   " + json.dumps(outcome["extra"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "quasijoint" / "cli.py", ROOT / "tests" / "cli_cases.py", ROOT / "tests" / "golden")
               if not p.exists()]
    if missing:
        print(f"error: not a quasijoint source checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = [run_one(w, args.seed, args.seconds, bool(args.trace)) for w in chosen]
    provenance = dict(machine(), workload_seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("provenance " + json.dumps(provenance))
    for outcome in outcomes:
        report(outcome)
    prefix = (lambda o: f"{o['workload']}.") if args.workload == "all" else (lambda o: "")
    result = {
        "correct": all(o["failed"] == 0 for o in outcomes),
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": {
            prefix(o) + name: {"value": value, "unit": unit}
            for o in outcomes
            for name, (value, unit, _) in o["metrics"].items()
        },
    }
    # every result is kept with its provenance and per-metric sample counts
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"provenance": provenance, "result": result,
              "samples": {o["workload"]: {name: n for name, (_, _, n) in o["metrics"].items()} for o in outcomes},
              "unbounded": {o["workload"]: o["unbounded"] for o in outcomes},
              "extra": {o["workload"]: o["extra"] for o in outcomes}}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
