"""The serving process: one fresh interpreter per workload run.

Usage: python3 worker.py <src-dir> <trace 0|1>

Reads one JSON message per line on stdin and answers each with one JSON line
on stdout, so the client sends the next request only after the previous one
has finished (a closed loop with one client).  Messages:

    {"op": "run", "argv": [...], "stdout": path}
        calls quasijoint.cli.main(argv) with its stdout going to ``path``;
        answers with the exit code, stderr and the request latency, timed
        from the call of main until the report and any --shots-out file
        are written.
    {"op": "reset"}                 drop spans recorded so far (after warm-up)
    {"op": "finish", "spans": path} write spans (traced runs), report peak RSS, exit
"""

from __future__ import annotations

import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def peak_rss_kb() -> int:
    """High-water RSS of this process's own address space.

    VmHWM starts afresh at exec; ru_maxrss would also carry the RSS of the
    parent this process was forked from.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def serve(cli, message: dict, tracer, proto_out, real_err) -> dict:
    err = io.StringIO()
    with open(message["stdout"], "w") as out:
        sys.stdout, sys.stderr = out, err
        try:
            span = tracer.begin_request() if tracer else None
            t0 = perf_counter()
            try:
                code = cli.main(message["argv"])
            except Exception:  # a crash is a failed request, not a dead server
                traceback.print_exc(file=err)
                code = -1
            out.flush()
            t1 = perf_counter()
            if tracer:
                tracer.close(span)
        finally:
            sys.stdout, sys.stderr = proto_out, real_err
    return {"code": code, "stderr": err.getvalue(), "latency_s": t1 - t0}


def main() -> int:
    src, traced = Path(sys.argv[1]).resolve(), sys.argv[2] == "1"
    sys.path.insert(0, str(src))
    import quasijoint.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"quasijoint imported from {cli.__file__}, not from {src}")
    tracer = None
    if traced:
        from tracing import Tracer  # found next to this script

        tracer = Tracer()
        tracer.install()
    proto_out, real_err = sys.stdout, sys.stderr
    for line in sys.stdin:
        message = json.loads(line)
        if message["op"] == "run":
            reply = serve(cli, message, tracer, proto_out, real_err)
        elif message["op"] == "reset":
            if tracer:
                tracer.reset()
            reply = {}
        elif message["op"] == "finish":
            if tracer:
                tracer.save(message["spans"])
            reply = {
                "peak_rss_kb": peak_rss_kb(),
                "counters": dict(tracer.counters) if tracer else {},
            }
        else:
            raise ValueError(f"unknown op {message['op']!r}")
        proto_out.write(json.dumps(reply) + "\n")
        proto_out.flush()
        if message["op"] == "finish":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
