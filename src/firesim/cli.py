"""Command-line harness: single runs, Monte Carlo batches, paired toggles,
and offline archive analysis.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 run or data
failure.  All outputs are staged and renamed into place, so a failing
invocation never leaves partial files behind.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__, analytics, contagion, defense
from .contagion import World
from .pool import run_tasks
from .scenario import (ConfigError, PRESETS, REACTIVE_PLAYBOOK, PolicySpec,
                       ScenarioConfig, build_from_seed, build_world,
                       default_config, expand_preset, load_config, short_repr)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_RUN = 4

OUT_ROOT_ENV = "FIRESIM_OUT_ROOT"

# The most seeds one --seeds range may name, checked before the list is built.
MAX_SEEDS = 1_000_000

# The widest span (last tick minus first) an archive may have: ``analyze``
# writes one volume row per tick of it, so this bounds its memory and output.
MAX_TICK_SPAN = 1_000_000


def _default_out(command: str) -> Path:
    root = os.environ.get(OUT_ROOT_ENV, "firesim-out")
    return Path(root) / command


def _resolve_config(args) -> ScenarioConfig:
    if args.config and args.preset:
        raise ConfigError("pass --config or --preset, not both")
    if args.preset:
        cfg = expand_preset(args.preset)
    elif args.config:
        cfg = load_config(args.config)
    else:
        cfg = default_config()
    seed = getattr(args, "seed", None)
    if seed is not None:
        cfg = replace(cfg, run=replace(cfg.run, seed=seed))
    return cfg


def _parse_seed_range(spec: str) -> list[int]:
    """Accept 'A..B' (inclusive) or a single integer."""
    try:
        if ".." in spec:
            lo_text, hi_text = spec.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(spec)
    except ValueError:
        raise ConfigError(f"--seeds must be 'A..B' or an integer, got {short_repr(spec)}") from None
    if lo < 0:
        raise ConfigError(f"--seeds range {short_repr(spec)} has a negative seed")
    if hi < lo:
        raise ConfigError(f"--seeds range {short_repr(spec)} is empty (end before start)")
    if hi - lo + 1 > MAX_SEEDS:
        raise ConfigError(f"--seeds range {short_repr(spec)} names {short_repr(hi - lo + 1)} "
                          f"seeds; at most {MAX_SEEDS}")
    return list(range(lo, hi + 1))


def _write_json_atomic(payload: dict, out_dir: Path, name: str) -> Path:
    return _write_text_atomic(analytics.json_text(payload), out_dir, name)


def _write_text_atomic(text: str, out_dir: Path, name: str) -> Path:
    """Write ``out_dir/name`` whole or not at all."""
    return analytics.write_files(out_dir, {name: text})[0]


# -- run ----------------------------------------------------------------------

def cmd_run(cfg: ScenarioConfig, out_dir: Path) -> int:
    sim = build_from_seed(cfg, cfg.run.seed)
    sim.run(cfg.run.ticks)
    analytics.emit_report(sim, out_dir)
    outcome = analytics.run_outcome(sim)
    print(f"run seed={cfg.run.seed} ticks={cfg.run.ticks} "
          f"fire_point={outcome['fire_point']} duration={outcome['duration']} "
          f"report={out_dir}")
    return EXIT_OK


# -- batch ---------------------------------------------------------------------

def _seed_worker(task: tuple) -> tuple[int, object, dict | None]:
    """``(job, *args, seed)`` -> ``(seed, job(*args, seed), None)``, or
    ``(seed, None, error)`` when the job raised: ``error`` holds the
    ``Type: message`` line and the formatted traceback."""
    job, *args, seed = task
    try:
        return seed, job(*args, seed), None
    except Exception as err:  # noqa: BLE001 - per-seed failures must not kill the run
        import traceback  # here, so that a cold start does not pay for it

        return seed, None, {"error": f"{type(err).__name__}: {err}",
                            "traceback": traceback.format_exc()}


def _run_seeds(job, args: tuple, seeds: list[int],
               parallelism: int) -> tuple[list[tuple[int, object]], list[dict]]:
    """``job(*args, seed)`` for each seed: (seed, result) pairs and error rows, by seed."""
    results = run_tasks([(job, *args, seed) for seed in seeds], _seed_worker, parallelism)
    results.sort(key=lambda item: item[0])
    done = [(seed, result) for seed, result, err in results if err is None]
    errors = [{"seed": seed, **err} for seed, _, err in results if err is not None]
    return done, errors


def _run_outcome(cfg: ScenarioConfig, seed: int) -> dict:
    """One batch seed's run outcome."""
    sim = build_from_seed(cfg, seed)
    sim.run(cfg.run.ticks)
    return analytics.run_outcome(sim)


def _mean_ci(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if len(arr) > 1:
        half = 1.96 * float(arr.std(ddof=1)) / math.sqrt(len(arr))
    else:
        half = 0.0
    return {"mean": mean, "ci95_low": mean - half, "ci95_high": mean + half,
            "n": len(arr)}


_AGGREGATE_KEYS = (
    "fire_point", "duration", "peak_total_posts", "peak_organic_posts",
    "total_posts", "total_organic_posts", "peak_mean_stress", "end_mean_stress",
    "final_reputation", "min_financial_value", "final_financial_value",
    "ransom_paid_total",
)


def aggregate_outcomes(outcomes: list[dict]) -> dict:
    aggregate: dict = {}
    for key in _AGGREGATE_KEYS:
        values = [o[key] for o in outcomes if o.get(key) is not None]
        if values:
            aggregate[key] = _mean_ci([float(v) for v in values])
    for key in ("ignited", "action_success", "data_exfiltrated"):
        values = [bool(o[key]) for o in outcomes]
        if values:
            aggregate[f"{key}_rate"] = sum(values) / len(values)
    labels = [o["predictable"] for o in outcomes if o.get("predictable") is not None]
    if labels:
        aggregate["predictable_fraction"] = (
            sum(1 for v in labels if v == "predictable") / len(labels))
    return aggregate


def cmd_batch(cfg: ScenarioConfig, seeds: list[int], parallelism: int,
              out_dir: Path) -> int:
    done, errors = _run_seeds(_run_outcome, (cfg,), seeds, parallelism)
    outcomes = [outcome for _, outcome in done]
    payload = {
        "schema_version": analytics.REPORT_SCHEMA_VERSION,
        "command": "batch",
        "config": cfg.to_dict(),
        "seeds": seeds,
        "outcomes": outcomes,
        "errors": errors,
        "aggregate": aggregate_outcomes(outcomes),
    }
    path = _write_json_atomic(payload, out_dir, "batch_summary.json")
    print(f"batch seeds={seeds[0]}..{seeds[-1]} ok={len(outcomes)} "
          f"failed={len(errors)} summary={path}")
    return EXIT_RUN if errors else EXIT_OK


# -- compare --------------------------------------------------------------------

def _with_offer(cfg: ScenarioConfig, action: str, terms: str, outcome: str) -> ScenarioConfig:
    """``action`` scheduled (at tick 24 unless it is already) with the
    company's answer to its ``terms`` (``ransom`` or ``service``) forced."""
    schedule = cfg.attack.action_schedule
    if not any(name == action for _, name in schedule):
        schedule = schedule + ((24, action),)
    forced = replace(getattr(cfg.attack, terms), force_outcome=outcome)
    return replace(cfg, attack=replace(cfg.attack, action_schedule=schedule, **{terms: forced}))


def _with_playbook(cfg: ScenarioConfig, enabled: bool = True) -> ScenarioConfig:
    playbook = cfg.defense.playbook or tuple(PolicySpec(**spec) for spec in REACTIVE_PLAYBOOK)
    return replace(cfg, defense=replace(cfg.defense, enabled=enabled, playbook=playbook))


TOGGLES = {
    "retarget_bots": (
        lambda cfg: replace(cfg, attack=replace(cfg.attack, worker_focus_enabled=True)),
        lambda cfg: replace(cfg, attack=replace(cfg.attack, worker_focus_enabled=False)),
    ),
    "defense_playbook": (
        _with_playbook,
        lambda cfg: _with_playbook(cfg, enabled=False),
    ),
    "ransom_paid": (
        lambda cfg: _with_offer(cfg, "extortion", "ransom", "pay"),
        lambda cfg: _with_offer(cfg, "extortion", "ransom", "refuse"),
    ),
    "flip_bots": (
        lambda cfg: _with_offer(cfg, "defence_as_a_service", "service", "pay"),
        lambda cfg: _with_offer(cfg, "defence_as_a_service", "service", "refuse"),
    ),
}

COMPARE_METRICS = (
    "duration_effective", "peak_total_posts", "total_organic_posts",
    "end_mean_stress", "mean_focus_visibility", "min_financial_value",
    "final_reputation", "ransom_paid_total",
)


def run_metrics(cfg: ScenarioConfig, seed: int, world: World | None = None) -> dict:
    """Scalar metrics for one paired-comparison arm, run on ``world`` if given."""
    sim = build_from_seed(cfg, seed, world)
    sim.run(cfg.run.ticks)
    outcome = analytics.run_outcome(sim)
    ticks = outcome["ticks"]
    focus_start = None
    if sim.plan is not None:
        focus_start = next((tick for stage, tick in sim.plan.stage_entries
                            if stage == "worker_focus"), None)
    visibility = contagion.regulator_visibility(
        sim.history.company_page_posts[:ticks])[focus_start or 0:]
    return {
        "duration_effective": float(outcome["duration"] or 0),  # None: no onset
        "peak_total_posts": outcome["peak_total_posts"],
        "total_organic_posts": float(outcome["total_organic_posts"]),
        "end_mean_stress": outcome["end_mean_stress"],
        "mean_focus_visibility": float(np.mean(visibility)) if visibility else 0.0,
        "min_financial_value": outcome["min_financial_value"],
        "final_reputation": outcome["final_reputation"],
        "ransom_paid_total": outcome["ransom_paid_total"],
        "ignited": outcome["ignited"],
    }


def run_pair(cfg_on: ScenarioConfig, cfg_off: ScenarioConfig, seed: int) -> tuple[dict, dict]:
    """Both arms' metrics for one seed, run on the one world the seed builds."""
    world = build_world(replace(cfg_on, run=replace(cfg_on.run, seed=seed)))
    return run_metrics(cfg_on, seed, world), run_metrics(cfg_off, seed, world)


def _binomial_tails(successes: int, trials: int) -> tuple[float, float]:
    """Exact one-sided sign-test p-values: P(X >= k) and P(X <= k), X ~ B(n, 1/2)."""
    whole = 2 ** trials
    greater = sum(math.comb(trials, i) for i in range(successes, trials + 1))
    less = sum(math.comb(trials, i) for i in range(successes + 1))
    return greater / whole, less / whole  # int / int rounds correctly


def _sign_test(deltas: list[float]) -> dict:
    positive = sum(1 for d in deltas if d > 0)
    negative = sum(1 for d in deltas if d < 0)
    ties = len(deltas) - positive - negative
    result = {"positive": positive, "negative": negative, "ties": ties,
              "p_greater": None, "p_less": None}
    trials = positive + negative
    if trials > 0:
        result["p_greater"], result["p_less"] = _binomial_tails(positive, trials)
    return result


def compare_toggle(cfg: ScenarioConfig, toggle: str, seeds: list[int],
                   parallelism: int) -> dict:
    if toggle not in TOGGLES:
        raise ConfigError(f"unknown toggle {short_repr(toggle)}; expected one of {sorted(TOGGLES)}")
    on_fn, off_fn = TOGGLES[toggle]
    cfg_on, cfg_off = on_fn(cfg), off_fn(cfg)
    done, errors = _run_seeds(run_pair, (cfg_on, cfg_off), seeds, parallelism)
    per_seed = [
        {"seed": seed,
         "on": {k: on[k] for k in COMPARE_METRICS},
         "off": {k: off[k] for k in COMPARE_METRICS},
         "delta": {k: on[k] - off[k] for k in COMPARE_METRICS}}
        for seed, (on, off) in done]
    deltas = {metric: [pair["delta"][metric] for pair in per_seed] for metric in COMPARE_METRICS}
    summary = {
        metric: {**_mean_ci(values), **_sign_test(values)}
        for metric, values in deltas.items() if values}
    return {
        "schema_version": analytics.REPORT_SCHEMA_VERSION,
        "command": "compare",
        "toggle": toggle,
        "config": cfg.to_dict(),
        "seeds": seeds,
        "pairs": per_seed,
        "errors": errors,
        "summary": summary,
    }


def cmd_compare(cfg: ScenarioConfig, toggle: str, seeds: list[int],
                parallelism: int, out_dir: Path) -> int:
    payload = compare_toggle(cfg, toggle, seeds, parallelism)
    path = _write_json_atomic(payload, out_dir, "compare_summary.json")
    print(f"compare toggle={toggle} pairs={len(payload['pairs'])} "
          f"failed={len(payload['errors'])} summary={path}")
    return EXIT_RUN if payload["errors"] else EXIT_OK


# -- analyze --------------------------------------------------------------------

def cmd_analyze(archive: Path, cfg: ScenarioConfig, out_dir: Path) -> int:
    result = analytics.ingest_archive(archive)
    order = np.argsort(result.ticks, kind="stable")  # ties stay in file order
    ticks = result.ticks[order]
    posts = len(ticks)
    an = cfg.analytics

    windows = []
    volumes: list[int] = []
    verdict = None
    base_tick = int(ticks[0]) if posts else None
    if posts:
        if int(ticks[-1]) - base_tick > MAX_TICK_SPAN:
            raise analytics.CorruptArchiveError(
                f"{archive}: timestamps span more than {MAX_TICK_SPAN:,} ticks")
        counts = np.bincount(ticks - base_tick)
        volumes = counts.tolist()
        windows = analytics.sentiment_windows(
            counts, result.valences[order], window=an.sentiment_window,
            neutral_band=an.neutral_band, alpha=an.compound_alpha)
        k = cfg.defense.detect_first_k
        early = order[:k]
        verdict = defense.detect_artificial(result.authors[early].tolist(),
                                            result.created_ticks[early].tolist(),
                                            now=int(ticks[-1]),
                                            age_threshold=cfg.defense.age_threshold,
                                            requested=k)

    forecast = None
    if len(volumes) >= 2:
        window = max(2, min(an.forecast_window, len(volumes)))
        forecast = analytics.classify_run_cascade(
            volumes, window=window, horizon=an.forecast_horizon,
            rmse_threshold=an.predictable_rmse)

    payload = {
        "schema_version": analytics.REPORT_SCHEMA_VERSION,
        "command": "analyze",
        "source": str(archive),
        "rows": result.total_rows,
        "duplicates": result.duplicate_count,
        "malformed": result.malformed_count,
        "posts": posts,
        "base_tick": base_tick,
        "verdict": verdict.to_dict() if verdict is not None else None,
        "forecast": forecast.to_dict() if forecast is not None else None,
        "windows": [asdict(w) for w in windows],
    }
    analytics.write_files(out_dir, {
        "analysis.json": analytics.json_text(payload),
        "sentiment_windows.csv": analytics.sentiment_csv_text(windows),
        "volume.csv": analytics.csv_text("tick,posts", enumerate(volumes)),
    })
    print(f"analyze posts={posts} duplicates={result.duplicate_count} "
          f"malformed={result.malformed_count} out={out_dir}")
    return EXIT_OK


# -- entry point ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firesim",
        description="Agent-based simulator of organised social-media firestorms.")
    parser.add_argument("--version", action="version",
                        version=f"firesim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON scenario config (empty file = defaults)")
        p.add_argument("--preset", choices=sorted(PRESETS), default=None)
        p.add_argument("--out", type=Path, default=None,
                       help=f"output directory (default ${OUT_ROOT_ENV} or ./firesim-out)")
        return p

    common("run", "one simulation, full report").add_argument("--seed", type=int, default=None)
    batch = common("batch", "independent seeds, aggregate JSON")
    compare = common("compare", "paired runs with/without a toggle")
    for p in (batch, compare):
        p.add_argument("--seeds", required=True,
                       help="seed range A..B (inclusive) or a single seed")
        p.add_argument("--parallelism", type=int, default=1)
    compare.add_argument("--toggle", required=True, choices=sorted(TOGGLES))
    common("analyze", "offline analysis of a post archive").add_argument("archive", type=Path)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = args.out if args.out is not None else _default_out(args.command)
    try:
        cfg = _resolve_config(args)
        if args.command in ("batch", "compare"):
            seeds = _parse_seed_range(args.seeds)
            if args.parallelism < 1:
                raise ConfigError("--parallelism must be >= 1")
        analytics.ensure_writable(out_dir)
        if args.command == "run":
            return cmd_run(cfg, out_dir)
        if args.command == "batch":
            return cmd_batch(cfg, seeds, args.parallelism, out_dir)
        if args.command == "compare":
            return cmd_compare(cfg, args.toggle, seeds, args.parallelism, out_dir)
        return cmd_analyze(args.archive, cfg, out_dir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except analytics.CorruptArchiveError as err:
        print(f"archive error: {err}", file=sys.stderr)
        return EXIT_RUN
    except analytics.FinancialOverflowError as err:
        print(f"run error: {err}", file=sys.stderr)
        return EXIT_RUN
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
