"""Output checks built from computations made apart from the program.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.  None of them compares against a stored copy of earlier
output: they recompute the figure from the inputs, or test a property the
method must have.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

FLOAT_TOL = 1e-12


def close(a, b, tol: float = FLOAT_TOL) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


def binomial_tails(successes: int, trials: int) -> tuple[float, float]:
    """Exact one-sided sign-test p-values: P(X >= k) and P(X <= k), X ~ Bin(n, 1/2)."""
    total = 2 ** trials
    upper = sum(math.comb(trials, i) for i in range(successes, trials + 1))
    lower = sum(math.comb(trials, i) for i in range(0, successes + 1))
    return float(Fraction(upper, total)), float(Fraction(lower, total))


# -- storm report ------------------------------------------------------------

def bin_windows(post_ticks: np.ndarray, valences: np.ndarray, ticks: int, *,
                width: int, band: float, alpha: float) -> list[dict]:
    """Sentiment windows by numpy binning of per-post ticks and valences."""
    n_windows = -(-ticks // width)
    window = np.asarray(post_ticks, dtype=np.int64) // width
    valences = np.asarray(valences, dtype=np.float64)
    counts = np.bincount(window, minlength=n_windows)
    negative = np.bincount(window[valences < -band], minlength=n_windows)
    positive = np.bincount(window[valences > band], minlength=n_windows)
    sums = np.bincount(window, weights=valences, minlength=n_windows)
    out = []
    for w in range(n_windows):
        n = int(counts[w])
        s = float(sums[w])
        out.append({
            "window_id": w, "start_tick": w * width,
            "end_tick": min((w + 1) * width, ticks), "post_count": n,
            "negative": int(negative[w]) / n if n else None,
            "neutral": (n - int(negative[w]) - int(positive[w])) / n if n else None,
            "positive": int(positive[w]) / n if n else None,
            "compound": s / math.sqrt(s * s + alpha) if n else 0.0})
    return out


def storm_expectations(sim) -> tuple[list[dict], list[int]]:
    """Sentiment windows binned from a finished run's post log, and posts per tick."""
    log = sim.post_log.ticks  # per tick: authors, valences, kinds, targets, organic
    posts_per_tick = [len(entry[0]) for entry in log]
    post_ticks = np.repeat(np.arange(len(log)), posts_per_tick)
    valences = np.concatenate([entry[1] for entry in log]) if log else np.empty(0)
    an = sim.cfg.analytics
    windows = bin_windows(post_ticks, valences, len(log), width=an.sentiment_window,
                          band=an.neutral_band, alpha=an.compound_alpha)
    return windows, posts_per_tick


def parse_sentiment_csv(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    out = []
    for row in rows:
        rec = {k: int(row[k]) for k in ("window_id", "start_tick", "end_tick", "post_count")}
        for k in ("negative", "neutral", "positive"):
            rec[k] = None if row[k] == "" else float(row[k])
        rec["compound"] = float(row["compound"])
        out.append(rec)
    return out


def compare_windows(got: list[dict], want: list[dict], where: str) -> list[str]:
    if len(got) != len(want):
        return [f"{where}: {len(got)} windows, expected {len(want)}"]
    problems = []
    for g, w in zip(got, want):
        for key in ("window_id", "start_tick", "end_tick", "post_count"):
            if g[key] != w[key]:
                problems.append(f"{where}: window {w['window_id']} {key}={g[key]}, expected {w[key]}")
        for key in ("negative", "neutral", "positive", "compound"):
            if not close(g[key], w[key]):
                problems.append(f"{where}: window {w['window_id']} {key}={g[key]!r}, expected {w[key]!r}")
    return problems


def check_storm_report(report: Path, windows: list[dict], posts_per_tick: list[int],
                       ticks: int) -> list[str]:
    """One `firesim run` report against the binning of the same seed's post log."""
    problems = compare_windows(
        parse_sentiment_csv((report / "sentiment_windows.csv").read_text(encoding="utf-8")),
        windows, "sentiment_windows.csv")
    history = list(csv.DictReader(io.StringIO(
        (report / "history.csv").read_text(encoding="utf-8"))))
    if len(history) != ticks:
        problems.append(f"history.csv: {len(history)} rows, expected {ticks}")
    totals = []
    for row in history:
        total = int(row["total_posts"])
        totals.append(total)
        if int(row["organic_posts"]) + int(row["bot_posts"]) != total:
            problems.append(f"history.csv tick {row['tick']}: organic + bot != total")
        surfaces = (int(row["company_page_posts"]) + int(row["employee_profile_posts"])
                    + int(row["general_stream_posts"]))
        if surfaces != total:
            problems.append(f"history.csv tick {row['tick']}: surfaces sum to {surfaces}, not {total}")
    if totals != posts_per_tick:
        problems.append("history.csv total_posts differs from the post log of the same seed")
    if sum(w["post_count"] for w in windows) != sum(totals):
        problems.append("sentiment window counts do not sum to the history's total posts")
    financial = (report / "financial.csv").read_text(encoding="utf-8").splitlines()
    if len(financial) - 1 != ticks:
        problems.append(f"financial.csv: {len(financial) - 1} rows, expected {ticks}")
    meta = json.loads((report / "run_metadata.json").read_text(encoding="utf-8"))
    if meta.get("ticks") != ticks:
        problems.append(f"run_metadata.json: ticks={meta.get('ticks')}, expected {ticks}")
    return problems


# -- paired comparison -------------------------------------------------------

def check_compare(summary: dict, seeds: list[int]) -> tuple[set[int], list[str]]:
    """Seeds whose pair is wrong, and every problem found in one compare summary."""
    bad: set[int] = set()
    problems: list[str] = []
    for err in summary.get("errors", []):
        bad.add(err["seed"])
        problems.append(f"seed {err['seed']}: {err['error']}")
    pairs = summary["pairs"]
    if [p["seed"] for p in pairs] != [s for s in seeds if s not in bad]:
        problems.append("pairs are not one per seed in seed order")
        bad.update(seeds)
    metrics = sorted(summary["summary"])
    deltas: dict[str, list[float]] = {m: [] for m in metrics}
    for pair in pairs:
        if sorted(pair["delta"]) != metrics:
            problems.append(f"seed {pair['seed']}: delta metrics differ from the summary's")
            bad.add(pair["seed"])
            continue
        for m in metrics:
            on, off, delta = pair["on"][m], pair["off"][m], pair["delta"][m]
            if delta != on - off:
                problems.append(f"seed {pair['seed']} {m}: delta {delta!r} != on - off")
                bad.add(pair["seed"])
            deltas[m].append(delta)
    for m in metrics:
        s, values = summary["summary"][m], deltas[m]
        pos = sum(1 for d in values if d > 0)
        neg = sum(1 for d in values if d < 0)
        wrong = []
        if (s["positive"], s["negative"], s["ties"]) != (pos, neg, len(values) - pos - neg):
            wrong.append("sign counts")
        if s["positive"] + s["negative"] + s["ties"] != len(pairs):
            wrong.append("positive + negative + ties != pairs")
        mean = math.fsum(values) / len(values) if values else None
        if mean is None or abs(s["mean"] - mean) > FLOAT_TOL * max(1.0, abs(mean)):
            wrong.append(f"mean {s['mean']!r} != {mean!r}")
        if pos + neg:
            greater, less = binomial_tails(pos, pos + neg)
            if not close(s["p_greater"], greater) or not close(s["p_less"], less):
                wrong.append(f"p-values ({s['p_greater']}, {s['p_less']}) != ({greater}, {less})")
        elif s["p_greater"] is not None or s["p_less"] is not None:
            wrong.append("p-values without any untied pair")
        if wrong:
            problems.append(f"summary {m}: " + "; ".join(wrong))
            bad.update(seeds)
    return bad, problems


# -- archive analysis ----------------------------------------------------------

def check_analysis(out: Path, expected: dict) -> list[str]:
    """`firesim analyze` outputs against the archive generator's truth."""
    problems = []
    result = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
    for key in ("rows", "duplicates", "malformed", "posts", "base_tick"):
        if result.get(key) != expected[key]:
            problems.append(f"analysis.json {key}={result.get(key)}, expected {expected[key]}")
    problems += compare_windows(result["windows"], expected["windows"], "analysis.json")
    problems += compare_windows(
        parse_sentiment_csv((out / "sentiment_windows.csv").read_text(encoding="utf-8")),
        expected["windows"], "sentiment_windows.csv")
    verdict = result.get("verdict") or {}
    if (not close(verdict.get("artificial_score"), expected["artificial_score"])
            or verdict.get("sample_size") != expected["sample_size"]):
        problems.append(
            f"verdict score={verdict.get('artificial_score')} sample={verdict.get('sample_size')}, "
            f"expected {expected['artificial_score']} over {expected['sample_size']} authors")
    volume = list(csv.DictReader(io.StringIO((out / "volume.csv").read_text(encoding="utf-8"))))
    if len(volume) != expected["span"]:
        problems.append(f"volume.csv: {len(volume)} ticks, expected {expected['span']}")
    if sum(int(row["posts"]) for row in volume) != expected["posts"]:
        problems.append("volume.csv total differs from the post count")
    return problems
