"""firesim benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs are made from
``--seed`` under ``.bench_work/``; a worker process then repeats the
workload's CLI invocation for ``--seconds`` of invocation time (see
worker.py), and this process checks every output against oracles computed
apart from the program.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which hold
the end-to-end metrics, or with ``--trace 1`` the per-layer metrics.
A per-layer table goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
COLD_STARTS = 9
IMPORTTIME_STARTS = 3
TIME_LIMIT_S = 170


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "firesim" / "cli.py").is_file():
        print(f"error: no firesim sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    started = time.monotonic()

    work = ROOT / ".bench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = workload.prepare(args.seed, work)
    spec = {"src": str(SRC), "trace": args.trace, "seconds": args.seconds,
            "invocation": plan.invocation, "units": plan.units, "warmup": plan.warmup,
            "cold_start": plan.cold_start, "cold_starts": 0 if args.trace else COLD_STARTS,
            "importtime_starts": IMPORTTIME_STARTS, "log": str(work / "cli.log"),
            "spans": str(work / "spans.csv")}
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec, indent=1), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    # its own session, so a timeout can stop the worker and its cold starts together
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=max(10.0, TIME_LIMIT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("error: worker timed out", file=sys.stderr)
        return 1
    if code != 0:
        print(f"error: worker exited {code}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text(encoding="utf-8"))

    failed, problems = workload.check(plan, result["ops"], work)
    for problem in problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    ops = result["ops"]
    if args.trace:
        metrics = result["layers"]
        print(f"{'metric':32} {'per op':>14}  unit   ({sum(op['traced'] for op in ops)} traced "
              f"invocations, {result['spans']} spans in {work / 'spans.csv'})", file=sys.stderr)
        for name, m in metrics.items():
            print(f"{name:32} {m['value']:14.6g}  {m['unit']}", file=sys.stderr)
    else:
        metrics = {
            "wall_s": _metric(statistics.fmean(op["seconds"] for op in ops), "s"),
            "setup_s": _metric(statistics.median(result["cold_starts"]), "s"),
            "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        }
    print(json.dumps({"correct": not problems, "attempted": len(ops) * plan.units,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
