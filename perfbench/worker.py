"""Runs one workload's invocations in a process of its own and times them.

Started by run.py as ``python3 perfbench/worker.py SPEC.json RESULT.json``
with the checkout's ``src`` on PYTHONPATH.  It imports ``firesim.cli``,
makes one warm-up invocation, then repeats the workload's invocation until
the invocations have taken ``seconds`` in all.  Between invocations it
times cold starts in fresh interpreters, as many as keep level with the
share of the run done, so those samples spread over the whole run instead
of sitting in one stretch of it.  In traced
mode every other invocation runs under the tracer.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, layer_metrics, write_spans

# A cold start: a fresh interpreter imports the CLI and resolves the config
# that the workload's arguments name, through the public config functions.
COLD_START = """\
import sys
import firesim.cli as cli
from firesim import scenario
args = cli.build_parser().parse_args(sys.argv[1:])
if args.preset:
    scenario.expand_preset(args.preset)
elif args.config:
    scenario.load_config(args.config)
else:
    scenario.default_config()
"""
IMPORT_GROUPS = (("import.scipy_s", "scipy"), ("import.numpy_s", "numpy"),
                 ("import.firesim_s", "firesim"))


def cold_start(argv: list[str], importtime: bool = False) -> tuple[float, str]:
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", COLD_START] + argv
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed:\n{proc.stderr}")
    return elapsed, proc.stderr


def import_times(stderr: str) -> dict[str, float]:
    """Self times from ``-X importtime``, in total and by top-level package."""
    out = {"import.total_s": 0.0, **{name: 0.0 for name, _ in IMPORT_GROUPS}}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _cumulative, module = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the column header
        seconds = int(self_us) / 1e6
        out["import.total_s"] += seconds
        top = module.strip().split(".")[0]
        for name, package in IMPORT_GROUPS:
            if top == package:
                out[name] += seconds
    return out


def invoke(cli, argv: list[str], log) -> tuple[int, str]:
    try:
        with contextlib.redirect_stdout(log):
            return cli.main(argv), ""
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), ""
    except Exception:  # noqa: BLE001 - a crash is a failed operation, not the end of the run
        return -1, traceback.format_exc()


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import firesim
    import firesim.cli as cli

    src = Path(spec["src"]).resolve()
    if src not in Path(firesim.__file__).resolve().parents:
        raise RuntimeError(f"imported {firesim.__file__}, not the checkout's {src}")
    trace = spec["trace"]
    tracer = Tracer() if trace else None
    with open(spec["log"], "a", encoding="utf-8") as log:
        code, error = invoke(cli, spec["warmup"], log)
        if code != 0:
            raise RuntimeError(f"warm-up exited {code}\n{error}")
        ops, cold = [], []
        spent = 0.0
        while True:
            index = len(ops)
            traced = bool(trace) and index % 2 == 1
            argv = [a.replace("{op}", str(index)) for a in spec["invocation"]]
            if traced:
                tracer.trace_id = f"op{index}"
                tracer.install()
            start = time.perf_counter()
            try:
                code, error = invoke(cli, argv, log)
            finally:
                elapsed = time.perf_counter() - start
                if traced:
                    tracer.uninstall()
            ops.append({"index": index, "code": code, "seconds": elapsed,
                        "traced": traced, "error": error})
            spent += elapsed
            # keep the cold starts level with the share of invocation time spent
            due = min(1.0, spent / spec["seconds"]) * spec["cold_starts"]
            while len(cold) < due:
                cold.append(cold_start(spec["cold_start"])[0])
            if spent >= spec["seconds"] and (not trace or len(ops) >= 2):
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"ops": ops, "cold_starts": cold, "peak_rss_mb": peak_rss_mb}
    if trace:
        traced = [op for op in ops if op["traced"]]
        plain = [op for op in ops if not op["traced"]]
        layers = layer_metrics(tracer.spans, tracer.counts, len(traced) * spec["units"])
        samples = [import_times(cold_start(spec["cold_start"], importtime=True)[1])
                   for _ in range(spec["importtime_starts"])]
        for name in samples[0]:
            layers[name] = {"value": statistics.median(s[name] for s in samples), "unit": "s"}
        untraced_s = statistics.fmean(op["seconds"] for op in plain)
        traced_s = statistics.fmean(op["seconds"] for op in traced)
        layers["trace.overhead_pct"] = {"value": 100.0 * (traced_s - untraced_s) / untraced_s,
                                        "unit": "%"}
        write_spans(tracer.spans, spec["spans"])
        result.update(layers=layers, spans=len(tracer.spans))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
