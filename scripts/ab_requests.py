#!/usr/bin/env python3
"""Interleaved A/B of request latency: this tree against another, on the benchmark's request stream.

Two long-lived serving processes (this tree's perfbench/worker.py), one
importing quasijoint from this tree's src/ and one from ``<tree>/src``, each
in its own temporary directory, replay the same requests of
perfbench/workloads.py's seeded stream: by default one pass over the
ensemble pool, or 20 requests of scan or shots.  Each of the ``--rounds``
rounds sends every request to both processes, and which one goes first
alternates request by request.  A latency is the worker's: from the call of
``quasijoint.cli.main`` until the report is written.  Printed per tree: the
median of each request kind, with the median of its paired differences (the
same request in the same round), the pool's p50 and p90 over all samples and
over per-request minima (the least of a request's rounds), and how many
requests printed different stdout on the two trees.  No peak RSS is
printed: a worker's peak moved with which tree ran as "this" (+1.4% to
+1.8% one way, -0.0% swapped, +0.9% with the same tree on both sides), so
memory is read from perfbench/run.py's ``peak_rss_mb`` instead.  Example:

    python scripts/ab_requests.py --against ../parent --workload ensemble --seed 1 --rounds 5
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"
#: requests run on both trees, untimed, before the first round
WARMUP = 20
STDOUT_FILE = "stdout.txt"


def load_workloads():
    """perfbench/workloads.py of this tree, read as it is."""
    spec = importlib.util.spec_from_file_location("ab_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Server:
    """One serving process for ``tree``, working in a temporary directory of its own."""

    def __init__(self, tree: Path) -> None:
        self.dir = tempfile.TemporaryDirectory(prefix="ab-requests-")
        self.stdout = Path(self.dir.name) / STDOUT_FILE
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        self.proc = subprocess.Popen([sys.executable, "-B", str(WORKER), str(tree / "src"), "0"], cwd=self.dir.name,
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def call(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"serving process exited with code {self.proc.wait()}")
        return json.loads(line)

    def run(self, argv: list[str]) -> tuple[float, bytes]:
        """The latency of one request, in seconds, and its stdout."""
        reply = self.call({"op": "run", "argv": argv, "stdout": str(self.stdout)})
        if reply["code"] == -1:
            raise RuntimeError(f"{argv} crashed the serving process:\n{reply['stderr']}")
        return reply["latency_s"], self.stdout.read_bytes()

    def close(self) -> None:
        """Stop the process, after the worker's own finish step."""
        self.call({"op": "finish"})
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.dir.cleanup()


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, type=Path, help="a source tree holding src/quasijoint")
    parser.add_argument("--workload", default="ensemble", choices=("scan", "shots", "ensemble"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--requests", type=int, help="requests per round (default: one ensemble pool, or 20)")
    args = parser.parse_args()
    against = args.against.resolve()
    if not (against / "src" / "quasijoint" / "cli.py").is_file():
        print(f"error: {against} holds no src/quasijoint/cli.py", file=sys.stderr)
        return 2
    if args.rounds < 1 or (args.requests is not None and args.requests < 1):
        print("error: --rounds and --requests must be >= 1", file=sys.stderr)
        return 2
    workloads = load_workloads()
    count = args.requests or 20
    if args.workload == "ensemble" and args.requests is None:
        count = len(workloads.ensemble_pool(np.random.default_rng(args.seed), ROOT))
    stream = workloads.requests(args.workload, args.seed, ROOT)
    requests = [next(stream) for _ in range(count)]
    kinds = [req["kind"] for req in requests]

    servers = [Server(ROOT), Server(against)]
    latencies = [[[] for _ in requests] for _ in servers]  # [tree][request] -> one sample per round
    differ = set()
    try:
        for req in requests[:WARMUP]:
            for server in servers:
                server.run(req["argv"])
        for round_ in range(args.rounds):
            for i, req in enumerate(requests):
                order = (0, 1) if (i + round_) % 2 == 0 else (1, 0)
                outputs = {}
                for side in order:
                    latency, outputs[side] = servers[side].run(req["argv"])
                    latencies[side][i].append(latency)
                if outputs[0] != outputs[1]:
                    differ.add(i)
    finally:
        for server in servers:
            server.close()

    print(f"{args.workload}, seed {args.seed}: {count} requests x {args.rounds} rounds; "
          f"this tree {ROOT}, against {against}")
    print(f"{'':44s} {'this':>10s} {'against':>10s} {'change':>8s} {'paired ms':>10s}")

    def row(label: str, this: float, other: float, paired: str = "") -> None:
        print(f"{label:44s} {this * 1e3:10.4f} {other * 1e3:10.4f} {100 * (this / other - 1):+7.1f}% {paired}")

    for kind in sorted(set(kinds)):
        picked = [i for i, k in enumerate(kinds) if k == kind]
        this, other = ([s for i in picked for s in side[i]] for side in latencies)
        paired = statistics.median(a - b for a, b in zip(this, other)) * 1e3
        row(f"median {kind} ms ({len(picked)} requests)", statistics.median(this), statistics.median(other),
            paired=f"{paired:+10.4f}")
    every = [[s for samples in side for s in samples] for side in latencies]
    least = [[min(samples) for samples in side] for side in latencies]
    for label, (this, other) in (("all samples", every), ("per-request minima", least)):
        row(f"pool p50 ms, {label}", statistics.median(this), statistics.median(other))
        row(f"pool p90 ms, {label}", p90(this), p90(other))
    print(f"requests whose stdout differs between the trees: {len(differ)} of {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
