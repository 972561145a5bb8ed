"""The three workloads: inputs made from the benchmark seed, and output checks.

A workload's operation is one CLI invocation, except in compare-defense-1k,
where it is one seed pair (an invocation runs ``PAIRS`` of them).  Every run
repeats whole rounds of the same invocation, so the outputs of repeats must
be byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import archive
import oracles

STORM_N = 50_000
STORM_WARMUP_N = 2_000
PAIRS = 20
ARCHIVE_POSTS = 200_000
ARCHIVE_WARMUP_POSTS = 2_000


@dataclass
class Plan:
    """What the worker runs: CLI argv lists, ``{op}`` replaced by the invocation index."""
    invocation: list[str]  # one round; every repeat runs the same arguments
    units: int  # operations per invocation
    warmup: list[str]
    cold_start: list[str]  # CLI arguments whose config a cold start resolves
    data: dict = field(default_factory=dict)


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _same_bytes(a: Path, b: Path, names) -> bool:
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def _checked(ops: list[dict], work: Path, files, units: int,
             check_one) -> tuple[int, list[str]]:
    """Failed operations and problems over every invocation of a run.

    ``check_one(out_dir)`` returns (failed operations, problems) for one
    invocation that exited 0; repeats must match the first repeat's bytes.
    """
    failed, problems, first = 0, [], None
    for op in ops:
        out = work / f"op-{op['index']}"
        if op["code"] != 0 or not all((out / n).is_file() for n in files):
            failed += units
            problems.append(f"op {op['index']}: exit {op['code']} {op.get('error', '')}".rstrip())
            continue
        bad, found = check_one(out)
        if first is None:
            first = out
        elif not _same_bytes(first, out, files):
            bad, found = units, found + [f"output differs from {first.name}"]
        failed += bad
        problems += [f"op {op['index']}: {p}" for p in found]
    return failed, problems


class StormReport:
    name = "storm-report-50k"
    files = ("run_metadata.json", "history.csv", "sentiment_windows.csv", "financial.csv")

    def prepare(self, seed: int, work: Path) -> Plan:
        sim_seed = str(seed)
        config = _write_json(work / "storm.json", {"graph": {"n": STORM_N}})
        small = _write_json(work / "warmup.json", {"graph": {"n": STORM_WARMUP_N}})
        return Plan(
            invocation=["run", "--config", config, "--seed", sim_seed, "--out", str(work / "op-{op}")],
            units=1,
            warmup=["run", "--config", small, "--seed", sim_seed, "--out", str(work / "warmup")],
            cold_start=["run", "--config", config, "--seed", sim_seed],
            data={"config": config, "seed": seed})

    def check(self, plan: Plan, ops: list[dict], work: Path) -> tuple[int, list[str]]:
        from firesim import scenario  # the checkout's, put on sys.path by run.py

        cfg = scenario.load_config(plan.data["config"])
        sim = scenario.build_from_seed(cfg, plan.data["seed"])
        sim.run(cfg.run.ticks)
        windows, posts_per_tick = oracles.storm_expectations(sim)

        def one(out):
            found = oracles.check_storm_report(out, windows, posts_per_tick, cfg.run.ticks)
            return (1 if found else 0), found

        return _checked(ops, work, self.files, plan.units, one)


class CompareDefense:
    name = "compare-defense-1k"
    files = ("compare_summary.json",)

    def prepare(self, seed: int, work: Path) -> Plan:
        first = seed * PAIRS
        seeds = list(range(first, first + PAIRS))
        cmd = ["compare", "--preset", "defended_baseline", "--toggle", "defense_playbook",
               "--parallelism", "1"]
        return Plan(
            invocation=cmd + ["--seeds", f"{seeds[0]}..{seeds[-1]}", "--out", str(work / "op-{op}")],
            units=PAIRS,
            warmup=cmd + ["--seeds", f"{seeds[0]}..{seeds[1]}", "--out", str(work / "warmup")],
            cold_start=cmd + ["--seeds", f"{seeds[0]}..{seeds[-1]}"],
            data={"seeds": seeds})

    def check(self, plan: Plan, ops: list[dict], work: Path) -> tuple[int, list[str]]:
        seeds = plan.data["seeds"]

        def one(out):
            summary = json.loads((out / "compare_summary.json").read_text(encoding="utf-8"))
            bad, found = oracles.check_compare(summary, seeds)
            return len(bad), found

        return _checked(ops, work, self.files, plan.units, one)


class ArchiveAnalyze:
    name = "archive-analyze"
    files = ("analysis.json", "sentiment_windows.csv", "volume.csv")

    def prepare(self, seed: int, work: Path) -> Plan:
        text, truth = archive.generate(seed, ARCHIVE_POSTS)
        path = work / "archive.csv"
        path.write_text(text, encoding="utf-8")
        expected = truth.expected()
        _write_json(work / "truth.json", {"expected": expected, **dataclasses.asdict(truth)})
        small, _ = archive.generate(seed, ARCHIVE_WARMUP_POSTS)
        (work / "warmup.csv").write_text(small, encoding="utf-8")
        config = _write_json(work / "analyze.json", archive.analysis_config())
        return Plan(
            invocation=["analyze", str(path), "--config", config, "--out", str(work / "op-{op}")],
            units=1,
            warmup=["analyze", str(work / "warmup.csv"), "--config", config,
                    "--out", str(work / "warmup")],
            cold_start=["analyze", str(path), "--config", config],
            data={"expected": expected})

    def check(self, plan: Plan, ops: list[dict], work: Path) -> tuple[int, list[str]]:
        def one(out):
            found = oracles.check_analysis(out, plan.data["expected"])
            return (1 if found else 0), found

        return _checked(ops, work, self.files, plan.units, one)


WORKLOADS = {w.name: w for w in (StormReport(), CompareDefense(), ArchiveAnalyze())}
