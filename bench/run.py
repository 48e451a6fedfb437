"""Time to verdict: run one workload of the loclab benchmark and check every report.

Usage, from the root of a checkout:

    python3 bench/run.py --workload corpus-sweep --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from the seed under `.bench_work/` before
any timing starts.  A fresh Python process (`worker.py`, one thread,
PYTHONHASHSEED pinned) imports loclab and calls `loclab.cli.main` once per
operation, serially, in whole passes over the workload.  This process then
checks every report against `oracles` and prints, as its last line, one JSON
object: `correct`, `attempted`, `failed`, and the metrics - the end-to-end ones
with `--trace 0`, the per-layer ones from a traced run with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer      # noqa: E402  (the benchmark's own modules, beside this file)
import workloads   # noqa: E402

# setup_s is the median over the workload's own process and this many probe
# processes started before it and as many after it, so it spans the run.
SETUP_PROBES = 5
HASH_SEED = "0"
RUN_TIMEOUT_S = 150


def spawn(plan_path: Path, root: Path, env: dict):
    """Start a worker; return it with the time until it reported `ready`."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(plan_path)],
                            cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker did not start; is loclab importable from src/?")
    return proc, setup


def run_worker(root: Path, workdir: Path, ops: list, seconds: int, trace: bool) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]))
    probe = workdir / "probe.json"
    probe.write_text(json.dumps({"probe": True}), encoding="utf-8")

    def probes(count):
        for _ in range(count):
            proc, setup = spawn(probe, root, env)
            proc.wait()
            proc.stdout.close()
            setups.append(setup)

    setups = []
    probes(SETUP_PROBES)
    out = workdir / "worker-result.json"
    plan = workdir / "plan.json"
    plan.write_text(json.dumps({"ops": [o.argv for o in ops], "seconds": seconds,
                                "trace": trace, "out": str(out)}), encoding="utf-8")
    proc, setup = spawn(plan, root, env)
    setups.append(setup)
    try:
        proc.wait(timeout=RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    probes(SETUP_PROBES)
    result = json.loads(out.read_text(encoding="utf-8"))
    result["setup_s"] = setups
    return result


def judge(op: workloads.Op, res: dict) -> str | None:
    """Why the operation failed, or None when it gave the predicted verdict."""
    if res["exc"]:
        return f"raised {res['exc']}"
    if res["rc"] != op.expect:
        return f"exit {res['rc']}, predicted {op.expect}"
    if res["rc"] == workloads.INPUT_ERROR:
        if res["stdout"] or not res["stderr"].startswith("error:"):
            return "input error not reported on stderr"
        return None
    if not op.check:
        return None
    try:
        return op.check(json.loads(res["stdout"]))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"report does not parse: {type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "loclab" / "cli.py").is_file():
        print("error: src/loclab not found; run from the root of a loclab checkout",
              file=sys.stderr)
        return 2
    workdir = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    ops = workloads.build(args.workload, args.seed, root, workdir / "inputs")

    try:
        result = run_worker(root, workdir, ops, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = result["passes"]
    failed, unexpected = 0, []
    for op, res, changed in zip(ops, result["first"], result["changed"]):
        why = judge(op, res) or ("report changed between passes" if changed else None)
        if why:
            failed += len(passes)
            if not op.fault:
                unexpected.append(f"{op.label}: {why}")
            print(f"failed: {op.label}: {why}" + (f" (known fault: {op.fault})" if op.fault else ""))
    for line in unexpected:
        print(f"unexpected failure: {line}", file=sys.stderr)

    walls = [p["wall_s"] for p in passes]
    op_medians = [(statistics.median(p["op_s"][i] for p in passes), op.label)
                  for i, op in enumerate(ops)]
    (workdir / "ops.json").write_text(json.dumps(op_medians, indent=1), encoding="utf-8")
    for seconds, label in sorted(op_medians, reverse=True)[:5]:
        print(f"slowest: {seconds:8.4f} s  {label}")
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations x {len(passes)} passes, "
          f"pass wall s {[round(w, 3) for w in walls]}")
    if args.trace:
        stats = [tracer.layer_totals(s) for s in result["trace"]]
        (workdir / "trace.json").write_text(json.dumps(stats, indent=1), encoding="utf-8")
        metrics = {}
        for name, unit in tracer.metric_names():
            values = [s[name] for s in stats]
            if unit == "count" and len(set(values)) > 1:
                print(f"warning: {name} differs between passes: {values}", file=sys.stderr)
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"traced pass wall_s {statistics.median(walls):.4f}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(result["setup_s"]), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "op_p50_s": {"value": statistics.median(t for p in passes for t in p["op_s"]),
                         "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": not unexpected, "attempted": len(ops) * len(passes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
