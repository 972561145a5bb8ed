"""Sentiment aggregation, market-value proxy, forecasting, and reports.

Everything here is a pure function of its inputs; the only state lives in
FinancialProxy, which the engine updates once per tick.  Report emission
stages files in a scratch directory and moves them into place so a failed
run never leaves a half-written report behind.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .agents import GENERAL_STREAM, Post, Surface

if TYPE_CHECKING:  # pragma: no cover
    from .contagion import Simulation


class Sentiment(Enum):
    NEGATIVE = "negative"
    NEUTRAL = "neutral"
    POSITIVE = "positive"


def score_valence(valence: float, neutral_band: float) -> Sentiment:
    """Trichotomise a valence; the neutral band is closed at both ends."""
    if neutral_band < 0:
        raise ValueError("neutral_band must be >= 0")
    if valence < -neutral_band:
        return Sentiment.NEGATIVE
    if valence > neutral_band:
        return Sentiment.POSITIVE
    return Sentiment.NEUTRAL


def compound_score(valence_sum: float, alpha: float) -> float:
    """Bounded, sign-preserving squash of a window's valence sum."""
    return float(valence_sum / math.sqrt(valence_sum * valence_sum + alpha))


@dataclass(frozen=True)
class SentimentSummary:
    window_id: int
    start_tick: int
    end_tick: int
    post_count: int
    negative: float | None
    neutral: float | None
    positive: float | None
    compound: float


def sentiment_windows(post_ticks: np.ndarray, valences: np.ndarray, ticks: int, *,
                      window: int, neutral_band: float,
                      alpha: float) -> list[SentimentSummary]:
    """Proportions and compound score for each ``window``-tick slice of [0, ticks).

    ``post_ticks`` must be sorted; ``valences`` is in the same (emission)
    order.  Posts are classified as ``score_valence`` does, and each
    window's valences are summed left to right in that order, so the
    compound score does not depend on numpy's pairwise summation.  Empty
    windows report null proportions and a zero compound rather than
    dividing by zero.
    """
    if neutral_band < 0:
        raise ValueError("neutral_band must be >= 0")
    valences = np.asarray(valences, dtype=np.float64)
    starts = np.arange(0, ticks, window)
    ends = np.minimum(starts + window, ticks)
    lo = np.searchsorted(post_ticks, starts)
    hi = np.searchsorted(post_ticks, ends)
    negative = np.concatenate([[0], np.cumsum(valences < -neutral_band)])
    positive = np.concatenate([[0], np.cumsum(valences > neutral_band)])
    out = []
    for window_id, (start, end, a, b) in enumerate(
            zip(starts.tolist(), ends.tolist(), lo.tolist(), hi.tolist())):
        n = b - a
        if n == 0:
            out.append(SentimentSummary(window_id, start, end, 0, None, None, None, 0.0))
            continue
        neg = int(negative[b] - negative[a])
        pos = int(positive[b] - positive[a])
        # 0.0 + ...: a running sum that starts at +0.0 never ends at -0.0
        total = 0.0 + float(np.cumsum(valences[a:b])[-1])
        out.append(SentimentSummary(window_id, start, end, n, neg / n,
                                    (n - neg - pos) / n, pos / n,
                                    compound_score(total, alpha)))
    return out


def aggregate_window(posts: Sequence[Post], window_id: int, start_tick: int,
                     end_tick: int, *, neutral_band: float,
                     alpha: float) -> SentimentSummary:
    """Proportions and compound score for one window of posts."""
    valences = np.fromiter((p.valence for p in posts), dtype=np.float64, count=len(posts))
    [summary] = sentiment_windows(np.zeros(len(posts), dtype=np.int64), valences, 1,
                                  window=1, neutral_band=neutral_band, alpha=alpha)
    return replace(summary, window_id=window_id, start_tick=start_tick,
                   end_tick=end_tick)


SENTIMENT_CSV_HEADER = "window_id,start_tick,end_tick,post_count,negative,neutral,positive,compound"


def sentiment_csv_text(summaries: Iterable[SentimentSummary]) -> str:
    lines = [SENTIMENT_CSV_HEADER]
    for s in summaries:
        parts = [str(s.window_id), str(s.start_tick), str(s.end_tick), str(s.post_count)]
        for value in (s.negative, s.neutral, s.positive):
            parts.append("" if value is None else repr(value))
        parts.append(repr(s.compound))
        lines.append(",".join(parts))
    return "\n".join(lines) + "\n"


def load_sentiment_summaries(text: str, closure_tolerance: float = 0.01) -> list[SentimentSummary]:
    """Parse a sentiment summary CSV, checking each row's proportion closure.

    Rows with proportions must sum to 1 within the tolerance; published
    tables rounded to three decimals pass at the default 0.01.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or ",".join(header) != SENTIMENT_CSV_HEADER:
        raise ValueError(f"expected header '{SENTIMENT_CSV_HEADER}'")
    out: list[SentimentSummary] = []
    for row in reader:
        if not row:
            continue
        window_id, start, end, count = (int(v) for v in row[:4])
        props = [None if v == "" else float(v) for v in row[4:7]]
        compound = float(row[7])
        if any(p is not None for p in props):
            total = sum(p for p in props if p is not None)
            if abs(total - 1.0) > closure_tolerance:
                raise ValueError(
                    f"window {window_id}: proportions sum to {total}, "
                    f"outside 1 +/- {closure_tolerance}")
        out.append(SentimentSummary(window_id, start, end, count,
                                    props[0], props[1], props[2], compound))
    return out


ARCHIVE_HEADER = ("timestamp", "author_id", "author_created_at", "surface", "valence")
_TICKS_PER_HOUR_COLUMN_ALIASES = {"valence", "text_score"}


class CorruptArchiveError(ValueError):
    """More than half of an archive's rows failed to parse."""


@dataclass
class IngestResult:
    posts: list[Post]
    total_rows: int
    duplicate_count: int
    malformed_count: int


def _parse_timestamp(raw: str) -> int:
    """Accept integer ticks or ISO 8601 datetimes (1 tick = 1 hour)."""
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    stamp = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return int(stamp.timestamp() // 3600)


def ingest_archive(path: str | Path) -> IngestResult:
    """Read an exported post archive, deduplicating and counting bad rows.

    Exact duplicate rows (same author, timestamp, and valence) collapse to
    one post.  Malformed rows are counted, not fatal, unless they are the
    majority of the file.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CorruptArchiveError(f"{path}: empty file, expected header")
        header = tuple(h.strip() for h in header)
        if (len(header) != 5 or header[:4] != ARCHIVE_HEADER[:4]
                or header[4] not in _TICKS_PER_HOUR_COLUMN_ALIASES):
            raise CorruptArchiveError(
                f"{path}: expected header {','.join(ARCHIVE_HEADER)} "
                f"(last column may be text_score)")
        posts: list[Post] = []
        seen: set[tuple[int, int, float]] = set()
        total = duplicates = malformed = 0
        for row in reader:
            if not row or all(not cell.strip() for cell in row):
                continue
            total += 1
            try:
                if len(row) != 5:
                    raise ValueError("wrong column count")
                tick = _parse_timestamp(row[0])
                author = int(row[1])
                created = _parse_timestamp(row[2])
                surface = Surface.from_text(row[3].strip()) if row[3].strip() else GENERAL_STREAM
                valence = float(row[4])
                if not -1.0 <= valence <= 1.0:
                    raise ValueError("valence out of range")
            except (ValueError, OverflowError):
                malformed += 1
                continue
            key = (author, tick, valence)
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
            posts.append(Post(author=author, tick=tick, topic_id="archive",
                              surface=surface, valence=valence, organic=True,
                              author_created_tick=created))
    if total > 0 and malformed / total > 0.5:
        raise CorruptArchiveError(
            f"{path}: {malformed} of {total} rows malformed; archive looks corrupt")
    return IngestResult(posts=posts, total_rows=total,
                        duplicate_count=duplicates, malformed_count=malformed)


@dataclass
class FinancialProxy:
    """Per-tick market-value proxy with event markers."""

    base: float
    floor: float
    value: float = field(init=False)
    series: list[float] = field(default_factory=list)
    markers: list[tuple[int, str]] = field(default_factory=list)
    floor_hits: int = 0

    def __post_init__(self) -> None:
        if self.base <= 0 or self.floor <= 0:
            raise ValueError("base and floor must be positive")
        self.value = self.base


def update_financial_proxy(proxy: FinancialProxy, reputation_delta: float,
                           event: str | None = None, *, kappa: float,
                           rho: float) -> float:
    """Advance the proxy one tick: shock from reputation, drift to base.

    With no further shocks the value contracts geometrically toward base,
    so a one-off drop of d recovers to base - d*(1-rho)^n after n ticks.
    """
    tick = len(proxy.series)
    value = proxy.value * (1.0 + kappa * reputation_delta) + rho * (proxy.base - proxy.value)
    if value < proxy.floor:
        value = proxy.floor
        proxy.floor_hits += 1
        if proxy.floor_hits == 1:
            warnings.warn("financial proxy clamped at floor value", stacklevel=2)
    proxy.value = float(value)
    proxy.series.append(proxy.value)
    if event is not None:
        proxy.markers.append((tick, event))
    return proxy.value


FINANCIAL_CSV_HEADER = "tick,value,event"


def financial_csv_text(proxy: FinancialProxy) -> str:
    marks: dict[int, str] = {}
    for tick, kind in proxy.markers:
        marks[tick] = f"{marks[tick]};{kind}" if tick in marks else kind
    lines = [FINANCIAL_CSV_HEADER]
    for tick, value in enumerate(proxy.series):
        lines.append(f"{tick},{value!r},{marks.get(tick, '')}")
    return "\n".join(lines) + "\n"


class CascadeClass(Enum):
    PREDICTABLE = "predictable"
    RANDOM = "random"


@dataclass(frozen=True)
class CascadeForecast:
    horizon: int
    values: tuple[float, ...]
    classification: CascadeClass
    decay_rate: float
    relative_rmse: float

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "values": list(self.values),
            "classification": self.classification.value,
            "decay_rate": self.decay_rate,
            "relative_rmse": self.relative_rmse,
        }


def predict_cascade(volumes: Sequence[float], horizon: int, *, window: int,
                    rmse_threshold: float) -> CascadeForecast:
    """Forecast post volume as geometric decay from the recent tail.

    Fits log(volume) linearly over the last ``window`` ticks and projects
    v(t+h) = v(t) * g^h.  The in-sample relative RMSE decides whether the
    cascade counts as predictable at all.
    """
    if horizon < 1 or window < 2:
        raise ValueError("horizon >= 1 and window >= 2 required")
    tail = np.asarray(volumes[-window:], dtype=float)
    if len(tail) < 2 or np.count_nonzero(tail > 0) < 2:
        return CascadeForecast(horizon, (0.0,) * horizon, CascadeClass.RANDOM,
                               0.0, math.inf)
    idx = np.flatnonzero(tail > 0)
    slope, intercept = np.polyfit(idx, np.log(tail[idx]), 1)
    fitted = np.exp(intercept + slope * np.arange(len(tail)))
    rmse = float(np.sqrt(np.mean((fitted - tail) ** 2)))
    relative = rmse / float(np.mean(tail))
    g = float(np.exp(slope))
    last = float(tail[-1])
    values = tuple(last * g ** h for h in range(1, horizon + 1))
    label = CascadeClass.PREDICTABLE if relative < rmse_threshold else CascadeClass.RANDOM
    return CascadeForecast(horizon, values, label, g, relative)


def classify_run_cascade(totals: Sequence[float], *, window: int, horizon: int,
                         rmse_threshold: float) -> CascadeForecast:
    """Forecast from the decay flank immediately after a run's peak."""
    totals = list(totals)
    if not totals or max(totals) <= 0:
        return CascadeForecast(horizon, (0.0,) * horizon, CascadeClass.RANDOM,
                               0.0, math.inf)
    peak = int(np.argmax(totals))
    segment = totals[peak:peak + window]
    return predict_cascade(segment, horizon, window=window,
                           rmse_threshold=rmse_threshold)


REPORT_SCHEMA_VERSION = 1
REPORT_FILES = ("run_metadata.json", "history.csv", "sentiment_windows.csv",
                "financial.csv")


def ensure_writable(directory: str | Path) -> None:
    """Fail fast (OSError) if we cannot create files under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    probe = tempfile.NamedTemporaryFile(dir=directory, prefix=".probe", delete=True)
    probe.close()


def run_outcome(sim: "Simulation") -> dict:
    """Scalar per-run outcomes, the unit of batch aggregation."""
    history = sim.history
    totals = history.total_posts
    organic = history.organic_posts
    stress = history.mean_stress
    analytics_cfg = sim.cfg.analytics
    forecast = classify_run_cascade(
        totals, window=analytics_cfg.forecast_window,
        horizon=analytics_cfg.forecast_horizon,
        rmse_threshold=analytics_cfg.predictable_rmse)
    duration = None
    if sim.onset is not None:
        end = sim.extinguished_tick if sim.extinguished_tick is not None else len(totals)
        duration = end - sim.onset
    actions = sim.plan.actions if sim.plan is not None else []
    return {
        "seed": sim.cfg.run.seed,
        "ticks": len(totals),
        "fire_point": sim.fire_point,
        "onset": sim.onset,
        "extinguished_tick": sim.extinguished_tick,
        "duration": duration,
        "ignited": sim.fire_point is not None,
        "total_posts": int(sum(totals)),
        "total_organic_posts": int(sum(organic)),
        "peak_total_posts": float(max(totals)) if totals else 0.0,
        "peak_organic_posts": float(max(organic)) if organic else 0.0,
        "peak_mean_stress": float(max(stress)) if stress else 0.0,
        "end_mean_stress": float(stress[-1]) if stress else 0.0,
        "final_reputation": float(history.reputation[-1]) if history.reputation else 1.0,
        "min_financial_value": float(min(sim.financial.series)) if sim.financial.series else sim.financial.base,
        "final_financial_value": float(sim.financial.value),
        "ransom_paid_total": float(sim.company.ransom_paid_total),
        "data_exfiltrated": bool(sim.company.data_exfiltrated),
        "action_success": any(a.success for a in actions),
        "plan_stage": sim.plan.stage.value if sim.plan is not None else None,
        "predictable": forecast.classification.value,
        "artificial_score": (sim.playbook.verdict.artificial_score
                             if sim.playbook is not None and sim.playbook.verdict is not None
                             else None),
    }


def sentiment_windows_for_run(sim: "Simulation") -> list[SentimentSummary]:
    cfg = sim.cfg.analytics
    per_tick = [valences for _, valences, *_ in sim.post_log.ticks]
    post_ticks = np.repeat(np.arange(len(per_tick)), [len(v) for v in per_tick])
    valences = np.concatenate(per_tick) if per_tick else np.empty(0)
    return sentiment_windows(post_ticks, valences, len(sim.history.total_posts),
                             window=cfg.sentiment_window,
                             neutral_band=cfg.neutral_band, alpha=cfg.compound_alpha)


def run_metadata(sim: "Simulation") -> dict:
    plan = sim.plan
    verdict = sim.playbook.verdict if sim.playbook is not None else None
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "seed": sim.cfg.run.seed,
        "ticks": len(sim.history.total_posts),
        "config": sim.cfg.to_dict(),
        "stage_entries": list(plan.stage_entries) if plan is not None else [],
        "plan_stage": plan.stage.value if plan is not None else None,
        "excluded_topics": list(plan.excluded_topics) if plan is not None else [],
        "actions": [a.to_dict() for a in plan.actions] if plan is not None else [],
        "events": sim.events,
        "fire_point": sim.fire_point,
        "onset": sim.onset,
        "extinguished_tick": sim.extinguished_tick,
        "verdict": verdict.to_dict() if verdict is not None else None,
        "outcome": run_outcome(sim),
    }


def emit_report(sim: "Simulation", out_dir: str | Path) -> list[Path]:
    """Write the four report files atomically; returns their paths.

    Files are staged in a scratch directory next to the target and moved
    in with os.replace, so a crash cannot leave partial files under
    ``out_dir``.
    """
    out_dir = Path(out_dir)
    ensure_writable(out_dir)
    contents = {
        "run_metadata.json": json.dumps(run_metadata(sim), indent=2, sort_keys=True) + "\n",
        "history.csv": sim.history.to_csv_text(),
        "sentiment_windows.csv": sentiment_csv_text(sentiment_windows_for_run(sim)),
        "financial.csv": financial_csv_text(sim.financial),
    }
    written: list[Path] = []
    with tempfile.TemporaryDirectory(dir=out_dir.parent, prefix=".report-") as staging:
        staged = []
        for name, text in contents.items():
            tmp_path = Path(staging) / name
            tmp_path.write_text(text, encoding="utf-8")
            staged.append((tmp_path, out_dir / name))
        for tmp_path, final_path in staged:
            os.replace(tmp_path, final_path)
            written.append(final_path)
    return written
