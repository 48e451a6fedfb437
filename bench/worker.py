"""One workload's process: import loclab, then call `loclab.cli.main` once per operation.

Run as `python3 worker.py PLAN.json`, with the checkout's `src` importable.  The
process prints `ready` as soon as loclab and loclab.cli are imported and the
argument parser is built, which is where `setup_s` ends.  With `"probe": true`
in the plan it stops there.  Otherwise it runs whole passes over the plan's
operations until the next pass would end after `seconds`, and writes the
timings, the first pass's reports, and the trace (if asked for) to the plan's
`out` path.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time


def run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    exc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as stop:            # argparse refuses a command line
        rc = stop.code
    except Exception as error:            # a traceback: recorded, never a verdict
        rc, exc = None, f"{type(error).__name__}: {error}"
    elapsed = time.perf_counter() - t0
    return elapsed, {"rc": rc, "exc": exc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    import loclab
    import loclab.cli as cli
    cli.build_parser()
    print("ready", flush=True)
    if plan.get("probe"):
        return 0

    tracer = None
    if plan["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    ops = plan["ops"]
    passes, first, changed = [], [], [0] * len(ops)
    started = time.perf_counter()
    while True:
        if tracer:
            tracer.start_pass()
        t0 = time.perf_counter()
        times = []
        for i, argv in enumerate(ops):
            elapsed, result = run_op(cli, argv)
            times.append(elapsed)
            if not passes:
                first.append(result)
            elif result != first[i]:
                changed[i] += 1
        passes.append({"wall_s": time.perf_counter() - t0, "op_s": times})
        typical = statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() - started + typical > plan["seconds"]:
            break

    result = {"passes": passes, "first": first, "changed": changed,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.passes
    with open(plan["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
